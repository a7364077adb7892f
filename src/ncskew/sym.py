"""Symmetric function expansions in the complete homogeneous basis.

An expansion is a finitely supported map from partitions to exact
rationals.  Only homogeneous expansions arise here, so mixing degrees is
rejected.  Products multiply h-basis elements by merging their parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .compositions import Composition, Partition
from .diagrams import SkewDiagram

Coefficient = Union[Fraction, int]


def _term_order(key: Partition) -> tuple[int, tuple[int, ...]]:
    return (-key.length, key.parts)


class SymExpansion:
    """A rational linear combination of h_lambda basis elements."""

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Mapping[Partition, Coefficient] | Iterable[tuple[Partition, Coefficient]] = (),
    ) -> None:
        data: dict[Partition, Fraction] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        for key, coeff in pairs:
            if not isinstance(key, Partition):
                raise ValueError(f"expansion keys must be partitions, got {key!r}")
            c = data.get(key, Fraction(0)) + Fraction(coeff)
            if c:
                data[key] = c
            else:
                data.pop(key, None)
        sizes = {key.size for key in data}
        if len(sizes) > 1:
            raise ValueError(f"expansion mixes degrees {sorted(sizes)}")
        self._terms = data

    @property
    def degree(self) -> int | None:
        """The common degree of the terms, or None for the zero expansion."""
        for key in self._terms:
            return key.size
        return None

    def coefficient(self, key: Partition) -> Fraction:
        return self._terms.get(key, Fraction(0))

    def items(self) -> list[tuple[Partition, Fraction]]:
        """Terms in display order: more parts first, then lexicographic."""
        return sorted(self._terms.items(), key=lambda kv: _term_order(kv[0]))

    def support(self) -> set[Partition]:
        return set(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymExpansion):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: SymExpansion) -> SymExpansion:
        merged = dict(self._terms)
        return SymExpansion(list(merged.items()) + list(other._terms.items()))

    def __sub__(self, other: SymExpansion) -> SymExpansion:
        return self + other.scaled(-1)

    def scaled(self, c: Coefficient) -> SymExpansion:
        c = Fraction(c)
        return SymExpansion({key: coeff * c for key, coeff in self._terms.items()})

    def __mul__(self, other: SymExpansion) -> SymExpansion:
        """h_lambda times h_mu is h of the merged, resorted parts."""
        out: list[tuple[Partition, Fraction]] = []
        for key1, c1 in self._terms.items():
            for key2, c2 in other._terms.items():
                merged = Partition(tuple(sorted(key1.parts + key2.parts, reverse=True)))
                out.append((merged, c1 * c2))
        return SymExpansion(out)

    def __str__(self) -> str:
        from .textio import format_sym_expansion

        return format_sym_expansion(self)

    def __repr__(self) -> str:
        inner = ", ".join(f"{key.parts}: {coeff}" for key, coeff in self.items())
        return f"SymExpansion({{{inner}}})"


def h(key: Partition) -> SymExpansion:
    """The basis element h_lambda."""
    return SymExpansion({key: 1})


def skew_schur(d: SkewDiagram) -> SymExpansion:
    """The skew Schur function of d, by the Jacobi-Trudi determinant.

    Only the determinant terms with no negative subscript are enumerated
    (see SubscriptMatrix.surviving_terms): rows take columns bottom up
    within the nonnegative suffix of their row of subscripts, and since
    these suffixes shrink going down, no partial choice is a dead end.  Each
    term is sign(w) times h of its sorted positive subscripts; subscript
    zero contributes the factor 1.  More than EXPANSION_TERM_CAP terms raise
    ValueError.
    """
    out: list[tuple[Partition, Fraction]] = []
    for subs, sign in d.jt_subscripts().surviving_terms():
        key = Partition(tuple(sorted((s for s in subs if s), reverse=True)))
        out.append((key, Fraction(sign)))
    return SymExpansion(out)


def ribbon_schur(alpha: Composition) -> SymExpansion:
    """The ribbon Schur function of alpha via coarsenings.

    Sum of (-1)**(length(alpha) - length(beta)) h_sort(beta) over all
    coarsenings beta of alpha.
    """
    if not alpha.parts:
        raise ValueError("a ribbon needs at least one row")
    out: list[tuple[Partition, Fraction]] = []
    for beta in alpha.coarsenings():
        sign = -1 if (alpha.length - beta.length) % 2 else 1
        out.append((beta.to_partition(), Fraction(sign)))
    return SymExpansion(out)


def overlap_partitions_agree(d: SkewDiagram, t: SkewDiagram) -> bool:
    """Necessary condition for skew_schur(d) == skew_schur(t): the k-row
    overlap partitions must agree for every k >= 1."""
    top = max(d.row_count, t.row_count)
    return all(d.overlap_partition(k) == t.overlap_partition(k) for k in range(1, top + 1))
