"""The base of ncskew's immutable value types.

A value type lists its fields in __slots__, in constructor order, and
annotates each with its type; its __init__ sets each one once with
object.__setattr__.  Value gives it the field-by-field repr, refuses
assignment and deletion, and pickles and copies it through its
constructor.  Two values are equal only when they are of one class and
their fields are equal, and a value hashes as the tuple of its fields.

This is the one equality and hashing rule of every value type but
SkewDiagram.  Value's __eq__ and __hash__ read the fields by name, which
costs several times a direct attribute read, but no workload compares or
hashes any other value type in bulk.  SkewDiagram, the expansion cache's
key and the sweep's index key, is hashed and compared thousands of times
in one benchmark pass, so it defines its own; its comment gives the
counts.  Value's __init__ serves the types that neither validate nor are
built in bulk; the others define their own, but for the parts types
Composition, WeakComposition and Partition, which share the annotation of
parts and the one parts check of compositions._Parts (Partition adds its
weakly-decreasing check).  Partition, SetPartition and SkewDiagram also
have _trusted, which skips validation for the values the program derives in
bulk, valid by construction (a relabeled key, an enumerated or rotated
diagram); every value from outside is validated.
"""

from __future__ import annotations


class Value:
    """An immutable record of the fields named in __slots__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args: object, **kwargs: object) -> None:
        """Every field is required, given positionally or by name."""
        names = self.__slots__
        values = args + tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(values) != len(names) or kwargs:
            raise TypeError(f"{type(self).__qualname__} takes the fields {', '.join(names)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields()
