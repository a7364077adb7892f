"""Symmetric functions in noncommuting variables, h-basis expansions.

The complete homogeneous basis here is indexed by set partitions, and the
product of two basis elements is the basis element of the slash product of
their indices.  Skew Schur functions come from the noncommutative
Jacobi-Trudi determinant with entries h over interval set partitions scaled
by reciprocal factorials, expanded with row-ordered products.  Letting the
variables commute sends h indexed by pi to (product of block-size
factorials) times the commutative h of pi's shape.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import attrgetter
from typing import Mapping

from .compositions import Composition
from .diagrams import SkewDiagram
from .permutations import Permutation
from .setpartitions import Blocks, SetPartition, interval_blocks, relabel_keys
from .sym import Expansion, SymExpansion


class NCExpansion(Expansion):
    """A rational linear combination of h_pi basis elements of one degree."""

    __slots__ = ()
    _key_type = SetPartition
    _raw = attrgetter("blocks")

    @staticmethod
    def _product(raw1: Blocks, raw2: Blocks) -> Blocks:
        """h_pi times h_rho is h of the slash product pi | rho."""
        return SetPartition._trusted(raw1).slash(SetPartition._trusted(raw2)).blocks

    def relabels_to(self, images: tuple[int, ...], other: NCExpansion) -> bool:
        """act(Permutation(images), self) == other, without building the
        image: the keys are relabeled in turn by relabel_keys, whose per-call
        memo sorts each distinct block's image once, and each is looked up
        in other, stopping at the first that is missing or differs."""
        terms = self._terms
        if len(terms) != len(other._terms):
            return False
        target = other._terms
        for key, coeff in zip(relabel_keys(images, terms), terms.values()):
            # Most checks end at a missing key, so None is tested first.
            # Fractions are kept in lowest terms, so comparing numerator and
            # denominator decides equality without Fraction.__eq__'s
            # isinstance dispatch.
            found = target.get(key)
            if (
                found is None
                or found.numerator != coeff.numerator
                or found.denominator != coeff.denominator
            ):
                return False
        return True

    def __str__(self) -> str:
        from .textio import format_nc_expansion

        return format_nc_expansion(self)


def h(key: SetPartition) -> NCExpansion:
    """The basis element h_pi."""
    return NCExpansion({key: 1})


def act(delta: Permutation, e: NCExpansion) -> NCExpansion:
    """Relabel every basis index of e through delta.

    This permutes the degree-n basis bijectively, so it maps expansions of
    degree n to expansions of degree n and preserves products of matching
    degrees.  The keys are relabeled by relabel_keys, whose per-call memo
    sorts each distinct block's image once.  No two terms meet and e's
    coefficients are nonzero Fractions already, so the image is built
    straight from the relabeled keys and e's coefficients, with nothing to
    sum or drop; a relabeled key met twice would break that, and raises
    RuntimeError.  The zero expansion is fixed by anything.
    """
    if not e:
        return e
    if delta.size != e.degree:
        raise ValueError(f"permutation of size {delta.size} cannot act in degree {e.degree}")
    terms = e._terms
    relabeled = dict(zip(relabel_keys(delta.images, terms), terms.values()))
    if len(relabeled) != len(terms):
        raise RuntimeError("act relabeled two keys onto one, so the relabeling is not a bijection")
    return NCExpansion._wrap(relabeled)


@lru_cache(maxsize=2**12)
def _composition_term(parts: tuple[int, ...]) -> tuple[Blocks, Fraction, Fraction]:
    """The interval blocks of the composition parts and the two signed
    coefficients 1/parts! and -1/parts! of a Jacobi-Trudi term with these
    nonzero subscripts.  The cache holds all 2**12 compositions of 13, so
    every composition of any one size n <= 13.

    >>> _composition_term((2, 1))
    (((1, 2), (3,)), Fraction(1, 2), Fraction(-1, 2))
    """
    coeff = Fraction(1, prod(factorial(s) for s in parts))
    return interval_blocks(parts), coeff, -coeff


def _jacobi_trudi(d: SkewDiagram) -> NCExpansion:
    """The skew Schur function of d with the source labeling, built afresh;
    source_skew_schur caches it, and classify's table calls it directly.

    Noncommutative Jacobi-Trudi, expanded over the one determinant walk,
    SkewDiagram.surviving_terms: the terms with no negative subscript, each
    as its nonzero subscripts A[1, w(1)], ..., A[ell, w(ell)] in row order
    and sign(w).  The work grows with the number of terms rather than with
    ell!.  The term of w is sign(w) times h of the interval set partition
    with those consecutive block sizes, divided by the product of their
    factorials.  Terms with the same nonzero subscripts share one cached
    key and coefficient (_composition_term).  No two terms share a key
    (the lemma in SkewDiagram.surviving_terms), so the expansion is built
    straight from the walk, in walk order, with nothing to sum or drop; a
    walk that meets a key twice is broken, and raises RuntimeError.  More
    than EXPANSION_TERM_CAP terms raise ValueError.
    """
    walk = d.surviving_terms()
    terms = {}
    for subs, sign in walk:
        blocks, plus, minus = _composition_term(subs)
        terms[blocks] = plus if sign > 0 else minus
    if len(terms) != len(walk):
        raise RuntimeError(f"the Jacobi-Trudi walk of {d} meets a key twice")
    return NCExpansion._wrap(terms)


@lru_cache(maxsize=1024)
def source_skew_schur(d: SkewDiagram) -> NCExpansion:
    """The skew Schur function of d with the source labeling, expanded by
    _jacobi_trudi and kept in a bounded cache."""
    return _jacobi_trudi(d)


def skew_schur(delta: Permutation, d: SkewDiagram) -> NCExpansion:
    """The skew Schur function of d relabeled by delta."""
    if delta.size != d.size:
        raise ValueError(f"labeling size {delta.size} differs from diagram size {d.size}")
    return act(delta, source_skew_schur(d))


def labeling_permutation(pi: SetPartition) -> Permutation:
    """The permutation read off pi's blocks sorted by decreasing size, ties
    by least element, each block in increasing order.

    It relabels the interval set partition of pi's sorted shape onto pi.

    >>> labeling_permutation(SetPartition(((1, 3), (2,)))).images
    (1, 3, 2)
    """
    ordered = sorted(pi.blocks, key=lambda b: (-len(b), b[0]))
    return Permutation(tuple(e for block in ordered for e in block))


def schur(pi: SetPartition) -> NCExpansion:
    """The Schur function indexed by a set partition: the straight-shape
    skew Schur function of pi's shape, relabeled onto pi."""
    straight = SkewDiagram(pi.shape())
    return act(labeling_permutation(pi), source_skew_schur(straight))


def ribbon_schur(alpha: Composition) -> NCExpansion:
    """The source-labeled ribbon Schur function of alpha via coarsenings.

    Sum over coarsenings beta of alpha of
    (-1)**(length(alpha) - length(beta)) / beta! times h of the interval set
    partition of beta.
    """
    if not alpha.parts:
        raise ValueError("a ribbon needs at least one row")
    n = alpha.length
    return NCExpansion(
        (SetPartition.from_composition(beta), Fraction((-1) ** (n - beta.length), beta.factorial()))
        for beta in alpha.coarsenings()
    )


def to_commutative(e: NCExpansion) -> SymExpansion:
    """Let the variables commute: h_pi maps to pi's shape factorial times
    the commutative h of pi's shape.

    The terms are summed per shape as one integer numerator over one
    denominator.  A term whose denominator equals the shape's adds its
    numerator; only a differing denominator cross-multiplies.  In a
    relabeled skew Schur function every key has coefficient +-1/(product of
    the factorials of its shape), as no two determinant terms share a key
    (the lemma in SkewDiagram.surviving_terms), and relabeling keeps
    coefficients.  That depends on the shape alone, so the denominators
    agree and stay that size, where cross-multiplying every term would
    raise them to a power of the term count.  Each shape then
    builds one Fraction, its numerator times the shape's factorial product
    over its denominator, and a shape whose numerator sums to zero is
    dropped.  The shapes left are distinct keys with nonzero coefficients,
    so _wrap holds them as they are, with nothing to merge a second time.
    """
    sums: dict[tuple[int, ...], list[int]] = {}
    for raw, coeff in e._terms.items():
        shape = tuple(sorted(map(len, raw), reverse=True))
        num, den = coeff.as_integer_ratio()
        held = sums.get(shape)
        if held is None:
            sums[shape] = [num, den]
        elif held[1] == den:
            held[0] += num
        else:
            held[0] = held[0] * den + num * held[1]
            held[1] *= den
    return SymExpansion._wrap(
        {
            shape: Fraction(num * prod(map(factorial, shape)), den)
            for shape, (num, den) in sums.items()
            if num
        }
    )


class MonomialTruncation:
    """The restriction of a degree-n element to finitely many variables.

    Coefficients of all words of a fixed length over the variable indices
    1..variables; words absent from the mapping have coefficient 0.
    """

    __slots__ = ("variables", "length", "_counts")

    def __init__(self, variables: int, length: int, counts: Mapping[tuple[int, ...], int]) -> None:
        if variables < 1:
            raise ValueError("need at least one variable")
        self.variables = variables
        self.length = length
        self._counts = {word: c for word, c in counts.items() if c}

    def coefficient(self, word: tuple[int, ...]) -> int:
        return self._counts.get(tuple(word), 0)

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._counts.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialTruncation):
            return NotImplemented
        return (
            self.variables == other.variables
            and self.length == other.length
            and self._counts == other._counts
        )

    def __mul__(self, other: MonomialTruncation) -> MonomialTruncation:
        """Concatenation product of words."""
        if not isinstance(other, MonomialTruncation):
            return NotImplemented
        if self.variables != other.variables:
            raise ValueError("truncations use different variable counts")
        counts: dict[tuple[int, ...], int] = {}
        for w1, c1 in self._counts.items():
            for w2, c2 in other._counts.items():
                word = w1 + w2
                counts[word] = counts.get(word, 0) + c1 * c2
        return MonomialTruncation(self.variables, self.length + other.length, counts)

    def __repr__(self) -> str:
        return f"MonomialTruncation(variables={self.variables}, length={self.length}, terms={len(self._counts)})"


def monomial_truncation(pi: SetPartition, variables: int) -> MonomialTruncation:
    """Expand h_pi over the variables x_1..x_m as a sum of words.

    Sum over the permutations fixing every block of pi setwise and over the
    index tuples that weakly increase along each block; each pair
    contributes the word read off through the block permutation.
    """
    if variables < 1:
        raise ValueError("need at least one variable")
    n = pi.size
    counts: dict[tuple[int, ...], int] = {}
    block_perms = [list(itertools.permutations(b)) for b in pi.blocks]
    block_values = [
        list(itertools.combinations_with_replacement(range(1, variables + 1), len(b)))
        for b in pi.blocks
    ]
    for images_by_block in itertools.product(*block_perms):
        eps = [0] * n
        for block, images in zip(pi.blocks, images_by_block):
            for src, dst in zip(block, images):
                eps[src - 1] = dst
        for choice in itertools.product(*block_values):
            value = [0] * n
            for block, vals in zip(pi.blocks, choice):
                for pos, v in zip(block, vals):
                    value[pos - 1] = v
            word = tuple(value[e - 1] for e in eps)
            counts[word] = counts.get(word, 0) + 1
    return MonomialTruncation(variables, n, counts)
