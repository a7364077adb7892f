"""Compositions, weak compositions, and partitions of an integer.

All three are thin immutable wrappers around a tuple of parts.  They are
kept as distinct types on purpose: a composition has strictly positive
parts, a weak composition allows zeros, and a partition is weakly
decreasing.  Operations that need positivity reject weak input instead of
silently dropping zeros.  Parts must be ints proper: a bool, an int
subclass, is refused rather than printed as True or False.

The three share _Parts's one parts check, size, length and factorial; each
names its least part and its refusal, and Partition adds its
weakly-decreasing check.
"""

from __future__ import annotations

from math import factorial, prod
from typing import Iterable, Iterator

from .value import Value


class _Parts:
    """The parts check, size, length and factorial of the three types below."""

    __slots__ = ()
    _least: int
    _refusal: str
    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()) -> None:
        parts = tuple(parts)
        least = self._least
        for p in parts:
            if type(p) is not int or p < least:
                raise ValueError(f"{self._refusal}, got {parts!r}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def factorial(self) -> int:
        """Product of the factorials of the parts.

        >>> Composition((1, 2, 1, 3, 2)).factorial()
        24
        """
        return prod(factorial(p) for p in self.parts)


class Composition(_Parts, Value):
    """A finite sequence of positive integers, possibly empty.

    >>> Composition((1, 2, 1, 3, 2)).size
    9
    """

    __slots__ = ("parts",)
    _least = 1
    _refusal = "composition parts must be positive integers"

    def to_partition(self) -> Partition:
        """Sort the parts weakly decreasing.

        >>> Composition((1, 2, 1, 3, 2)).to_partition()
        Partition(parts=(3, 2, 2, 1, 1))
        """
        return Partition(tuple(sorted(self.parts, reverse=True)))

    def reverse(self) -> Composition:
        """The parts read right to left."""
        return Composition(self.parts[::-1])

    def coarsenings(self) -> list[Composition]:
        """Every composition obtained by adding adjacent parts, self included.

        Ordered by merge bitmask (bit i joins parts i and i+1), so the list
        starts with self and ends with the one-part composition.  There are
        2**(length-1) of them for a nonempty composition.
        """
        if not self.parts:
            return [self]
        out = []
        for mask in range(1 << (self.length - 1)):
            merged = [self.parts[0]]
            for i in range(self.length - 1):
                if mask >> i & 1:
                    merged[-1] += self.parts[i + 1]
                else:
                    merged.append(self.parts[i + 1])
            out.append(Composition(tuple(merged)))
        return out


class WeakComposition(_Parts, Value):
    """Like a composition but zero parts are allowed."""

    __slots__ = ("parts",)
    _least = 0
    _refusal = "weak composition parts must be >= 0"

    def reverse(self) -> WeakComposition:
        return WeakComposition(self.parts[::-1])

    def to_partition(self) -> Partition:
        """Sort weakly decreasing and drop the zeros."""
        return Partition(tuple(sorted((p for p in self.parts if p), reverse=True)))

    def positive(self) -> Composition:
        """As a composition; raises if any part is zero."""
        if 0 in self.parts:
            raise ValueError(f"weak composition has zero parts: {self.parts!r}")
        return Composition(self.parts)


class Partition(_Parts, Value):
    """A weakly decreasing sequence of positive integers.

    >>> Partition((3, 2, 2, 1, 1)).length
    5
    """

    __slots__ = ("parts",)
    _least = 1
    _refusal = "partition parts must be positive integers"

    def __init__(self, parts: Iterable[int] = ()) -> None:
        _Parts.__init__(self, parts)
        parts = self.parts
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"partition parts must weakly decrease, got {parts!r}")

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> Partition:
        """Wrap parts already known to be a partition, skipping validation."""
        key = object.__new__(cls)
        object.__setattr__(key, "parts", parts)
        return key

    def contains(self, other: Partition) -> bool:
        """True if other fits inside self part by part."""
        if other.length > self.length:
            return False
        return all(o <= s for s, o in zip(self.parts, other.parts))

    def dominates(self, other: Partition) -> bool:
        """Dominance comparison by leading partial sums, up to the shorter
        length."""
        total_self = total_other = 0
        for a, b in zip(self.parts, other.parts):
            total_self += a
            total_other += b
            if total_self < total_other:
                return False
        return True

    def to_composition(self) -> Composition:
        return Composition(self.parts)


def compositions(n: int) -> Iterator[Composition]:
    """All compositions of n >= 0 in lexicographic order of their parts.

    >>> [c.parts for c in compositions(3)]
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    """
    if n < 0:
        raise ValueError("n must be >= 0")

    def rec(m: int) -> Iterator[tuple[int, ...]]:
        if m == 0:
            yield ()
            return
        for first in range(1, m + 1):
            for rest in rec(m - first):
                yield (first,) + rest

    for parts in rec(n):
        yield Composition(parts)
