"""Symmetric function expansions in the complete homogeneous basis.

An expansion is a finitely supported map from basis indices to exact
rationals; `Expansion` holds it for both bases, and `SymExpansion`, indexed
by partitions, is the commutative one.  Only homogeneous expansions arise
here, so mixing degrees is rejected.  Products multiply h-basis elements by
merging their parts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Union

from .compositions import Composition, Partition
from .diagrams import SkewDiagram

Coefficient = Union[Fraction, int]


def _display_order(term: tuple[tuple, Coefficient]) -> tuple:
    """Sort key of a (raw key, coefficient) term: more parts first, then
    lexicographic."""
    raw = term[0]
    return (-len(raw), raw)


def _exact(coeff: object) -> Fraction:
    """coeff as a Fraction; only ints (not bools) and Fractions are exact."""
    if type(coeff) is int or isinstance(coeff, Fraction):
        return Fraction(coeff)
    raise ValueError(f"coefficients must be int or Fraction, got {coeff!r}")


def _collect(pairs: Iterable[tuple[tuple, Fraction]]) -> dict[tuple, Fraction]:
    """Sum the Fraction coefficients of equal raw keys and drop zeros,
    keeping the order in which the keys first appear.

    A set partition key is a tuple of tuples, whose hash is recomputed at
    every lookup and costs more than the rest of the merge.  So a key is
    hashed once unless it repeats (setdefault, then a length check), and
    zeros are deleted in place.  _exact made every coefficient a Fraction
    at the constructor or at scaled, and _from_raw's callers pass Fractions."""
    data: dict[tuple, Fraction] = {}
    for raw, coeff in pairs:
        size = len(data)
        held = data.setdefault(raw, coeff)
        if len(data) == size:  # raw was met before
            data[raw] = held + coeff
    for raw in [raw for raw, coeff in data.items() if not coeff]:
        del data[raw]
    return data


class Expansion:
    """A rational linear combination of h basis elements of one degree.

    A subclass names its key type, the product of two basis indices and its
    text form.  Terms are stored under the raw tuple of their key
    (`Partition.parts` or `SetPartition.blocks`) in the order they were
    built; items() and repr() show them in display order: more parts first,
    then lexicographic.
    """

    __slots__ = ("_terms",)
    _key_type: type
    _raw: Callable[[Any], tuple]

    def __init__(
        self, terms: Mapping[Any, Coefficient] | Iterable[tuple[Any, Coefficient]] = ()
    ) -> None:
        pairs = list(terms.items() if isinstance(terms, Mapping) else terms)
        for key, _coeff in pairs:
            self._check_key(key)
        self._terms = _collect((self._raw(key), _exact(coeff)) for key, coeff in pairs)
        degrees = {self._key(raw).size for raw in self._terms}
        if len(degrees) > 1:
            raise ValueError(f"expansion mixes degrees {sorted(degrees)}")

    @classmethod
    def _from_raw(cls, pairs: Iterable[tuple[tuple, Fraction]]):
        """Trusted constructor from (raw key, Fraction) pairs whose keys are
        canonical and of one degree, as keys derived from valid ones are."""
        e = object.__new__(cls)
        e._terms = _collect(pairs)
        return e

    def _check_key(self, key) -> None:
        if not isinstance(key, self._key_type):
            raise ValueError(f"expansion keys must be {self._key_type.__name__}, got {key!r}")

    def _key(self, raw: tuple):
        return self._key_type._trusted(raw)

    @property
    def degree(self) -> int | None:
        """The common degree of the terms, or None for the zero expansion."""
        for raw in self._terms:
            return self._key(raw).size
        return None

    def coefficient(self, key) -> Fraction:
        self._check_key(key)
        return self._terms.get(self._raw(key), Fraction(0))

    def _display_terms(self) -> list[tuple[tuple, Fraction]]:
        """(raw key, coefficient) pairs in display order: more parts first,
        then lexicographic.  items(), repr() and every text form walk this."""
        return sorted(self._terms.items(), key=_display_order)

    def items(self) -> list[tuple[Any, Fraction]]:
        """Terms in display order: more parts first, then lexicographic."""
        return [(self._key(raw), coeff) for raw, coeff in self._display_terms()]

    def support(self) -> set:
        return {self._key(raw) for raw in self._terms}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self and other and self.degree != other.degree:
            raise ValueError(f"expansion mixes degrees {sorted((self.degree, other.degree))}")
        return self._from_raw(itertools.chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, c: Coefficient):
        c = _exact(c)
        return self._from_raw((raw, coeff * c) for raw, coeff in self._terms.items())

    def __mul__(self, other):
        """Bilinear extension of the product of basis indices."""
        if type(other) is not type(self):
            return NotImplemented
        return self._from_raw(
            (self._product(raw1, raw2), c1 * c2)
            for raw1, c1 in self._terms.items()
            for raw2, c2 in other._terms.items()
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{raw}: {coeff}" for raw, coeff in self._display_terms())
        return f"{type(self).__name__}({{{inner}}})"


class SymExpansion(Expansion):
    """A rational linear combination of h_lambda basis elements."""

    __slots__ = ()
    _key_type = Partition
    _raw = attrgetter("parts")

    @staticmethod
    def _product(raw1: tuple[int, ...], raw2: tuple[int, ...]) -> tuple[int, ...]:
        """h_lambda times h_mu is h of the merged, resorted parts."""
        return tuple(sorted(raw1 + raw2, reverse=True))

    def __str__(self) -> str:
        from .textio import format_sym_expansion

        return format_sym_expansion(self)


def h(key: Partition) -> SymExpansion:
    """The basis element h_lambda."""
    return SymExpansion({key: 1})


def skew_schur(d: SkewDiagram) -> SymExpansion:
    """The skew Schur function of d, by the Jacobi-Trudi determinant.

    Expands the one determinant walk, SkewDiagram.surviving_terms, which
    gives each term with no negative subscript as its nonzero subscripts in
    row order and sign(w); the term is sign(w) times h of those subscripts
    sorted.  The int signs are summed per key, a key summing to zero is
    dropped, and each key left builds one Fraction.  More than
    EXPANSION_TERM_CAP terms raise ValueError.
    """
    sums: dict[tuple[int, ...], int] = {}
    for subs, sign in d.surviving_terms():
        key = tuple(sorted(subs, reverse=True))
        sums[key] = sums.get(key, 0) + sign
    e = object.__new__(SymExpansion)
    e._terms = {key: Fraction(total) for key, total in sums.items() if total}
    return e


def ribbon_schur(alpha: Composition) -> SymExpansion:
    """The ribbon Schur function of alpha via coarsenings.

    Sum of (-1)**(length(alpha) - length(beta)) h_sort(beta) over all
    coarsenings beta of alpha.
    """
    if not alpha.parts:
        raise ValueError("a ribbon needs at least one row")
    return SymExpansion(
        (beta.to_partition(), (-1) ** (alpha.length - beta.length)) for beta in alpha.coarsenings()
    )


def overlap_partitions(d: SkewDiagram) -> tuple[Partition, ...]:
    """The k-row overlap partitions of d for k = 1 .. row count.

    Beyond the row count they are empty, and k = 1 gives the row lengths,
    so the tuple also fixes the row count.
    """
    return tuple(d.overlap_partition(k) for k in range(1, d.row_count + 1))


def overlap_partitions_agree(d: SkewDiagram, t: SkewDiagram) -> bool:
    """Necessary condition for skew_schur(d) == skew_schur(t): the k-row
    overlap partitions must agree for every k >= 1 (Reiner, Shaw and van
    Willigenburg, "Coincidences among skew Schur functions", Adv. Math.
    2007)."""
    return overlap_partitions(d) == overlap_partitions(t)
