import operator
from fractions import Fraction
from itertools import chain

import pytest

from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.ncsym import NCExpansion
from ncskew.sym import (
    SymExpansion,
    h,
    overlap_partitions,
    overlap_partitions_agree,
    ribbon_schur,
    _collect,
    skew_schur,
)


def test_sym_and_nc_expansions_do_not_mix():
    """Equality is False, and +, - and * raise TypeError, between the two
    expansion types, even when both are zero."""
    sym_zero, nc_zero = SymExpansion(), NCExpansion()
    assert (sym_zero == nc_zero) is False
    for op in (operator.add, operator.sub, operator.mul):
        for a, b in ((sym_zero, nc_zero), (nc_zero, sym_zero)):
            with pytest.raises(TypeError):
                op(a, b)


def test_subtracting_a_number_raises_type_error():
    with pytest.raises(TypeError):
        h(Partition((2, 1))) - 2


def test_expansion_shell():
    e = h(Partition((2, 1)))
    assert e.coefficient(Partition((2, 1))) == 1
    assert e.coefficient(Partition((3,))) == 0
    assert e.degree == 3
    assert len(e) == 1
    zero = e - e
    assert not zero
    assert zero.degree is None
    assert list(zero.items()) == []
    assert e + zero == e


def test_collect_sums_drops_zeros_and_keeps_first_appearance():
    """The expansion builders merge Fraction coefficients through _collect,
    which drops zeros: a repeated key is summed at its first place, a
    zero, given or summed, is dropped, and key order is kept."""
    half = Fraction(1, 2)
    one, two, three, zero = Fraction(1), Fraction(2), Fraction(3), Fraction(0)
    got = _collect(
        [((2, 1), one), ((3,), half), ((2, 1), -one), ((1, 1, 1), zero), ((3,), two), ((2, 1), three)]
    )
    assert list(got.items()) == [((2, 1), 3), ((3,), Fraction(5, 2))]
    got = _collect([((3,), half), ((2, 1), one), ((3,), -half), ((1, 1, 1), zero)])
    assert list(got.items()) == [((2, 1), 1)]
    assert _collect([((1,), zero)]) == {} and _collect([]) == {}
    assert not h(Partition((2, 1))).scaled(0)
    assert not SymExpansion({Partition((2, 1)): 0})


def test_mixed_degrees_rejected():
    with pytest.raises(ValueError):
        h(Partition((2,))) + h(Partition((3,)))
    with pytest.raises(ValueError):
        SymExpansion([(Partition((1,)), 1), (Partition((2,)), 1)])


@pytest.mark.parametrize("coeff", [0.1, 0.5, "1/3", True, None])
def test_inexact_coefficients_rejected(coeff):
    # only int and Fraction are exact; Fraction(0.1) would store a binary float
    with pytest.raises(ValueError):
        SymExpansion({Partition((1,)): coeff})
    with pytest.raises(ValueError):
        h(Partition((1,))).scaled(coeff)


def test_arithmetic():
    a = h(Partition((2, 1)))
    b = h(Partition((3,)))
    e = a - b
    assert e.coefficient(Partition((2, 1))) == 1
    assert e.coefficient(Partition((3,))) == -1
    assert e.scaled(Fraction(1, 2)).coefficient(Partition((3,))) == Fraction(-1, 2)
    assert (e + b) == a
    assert e - e == a - a


def test_h_multiplication_merges_parts():
    assert h(Partition((2,))) * h(Partition((3, 1))) == h(Partition((3, 2, 1)))
    # commutative and associative on the basis
    a, b, c = h(Partition((2,))), h(Partition((1, 1))), h(Partition((3,)))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a - b) * c == a * c - b * c


def test_single_row_and_single_column():
    assert skew_schur(SkewDiagram(Partition((4,)))) == h(Partition((4,)))
    e = skew_schur(SkewDiagram(Partition((1, 1, 1))))
    # the standard alternating expansion of a column
    assert e.coefficient(Partition((1, 1, 1))) == 1
    assert e.coefficient(Partition((2, 1))) == -2
    assert e.coefficient(Partition((3,))) == 1


def test_worked_hook():
    e = skew_schur(ribbon(Composition((2, 1))))
    assert e == h(Partition((2, 1))) - h(Partition((3,)))
    assert str(e) == "h[2,1] - h[3]"
    assert ribbon_schur(Composition((2, 1))) == e


def _oracle_terms(d):
    """(h key, sign) for each of the ell! permutations w of the rows of d's
    subscript matrix whose subscripts A[i, w(i)] are all nonnegative: the
    key is the nonzero subscripts sorted, since h_0 = 1.  Taking the k-th
    smallest free column adds k inversions."""
    entries = d.jt_subscripts()
    ell = len(entries)

    def place(i, free, subs, sign):
        if i == ell:
            if min(subs) >= 0:
                yield Partition(tuple(sorted((s for s in subs if s), reverse=True))), sign
            return
        for k, c in enumerate(free):
            rest = free[:k] + free[k + 1 :]
            yield from place(i + 1, rest, subs + (entries[i][c],), -sign if k & 1 else sign)

    return place(0, tuple(range(ell)), (), 1)


def test_skew_schur_matches_validating_constructor():
    """skew_schur sums its int signs per key and builds its Fractions
    itself, without _collect; the result is what the validating constructor
    builds from the ell! permutation oracle's signed terms, with every
    coefficient a nonzero Fraction."""
    hooks = [SkewDiagram(Partition((k,) + (1,) * (9 - k))) for k in range(1, 10)]
    for d in chain(*(connected_diagrams(n) for n in range(1, 8)), hooks):
        reference = SymExpansion(_oracle_terms(d))
        got = skew_schur(d)
        assert got == reference, d
        assert str(got) == str(reference)
        assert all(type(coeff) is Fraction and coeff for _key, coeff in got.items()), d


def test_ribbon_formula_matches_determinant():
    """Inclusion-exclusion over coarsenings equals the determinant expansion."""
    for n in range(1, 8):
        for alpha in compositions(n):
            assert ribbon_schur(alpha) == skew_schur(ribbon(alpha))
    with pytest.raises(ValueError):
        ribbon_schur(Composition(()))


def test_rotation_invariance():
    for n in range(1, 7):
        for d in connected_diagrams(n):
            assert skew_schur(d) == skew_schur(d.rotate())


def test_diagonal_term():
    """The sorted-row-lengths key has coefficient one and sits at the bottom
    of dominance order within the support."""
    for n in range(1, 7):
        for d in connected_diagrams(n):
            e = skew_schur(d)
            diag = d.row_lengths().to_partition()
            assert e.coefficient(diag) == 1
            for key in e.support():
                assert key.dominates(diag)
                assert key.size == n


def test_overlap_agreement_is_necessary():
    # equal expansions force equal sorted overlaps in every window size
    for n in range(1, 7):
        buckets = {}
        for d in connected_diagrams(n):
            key = tuple(skew_schur(d).items())
            buckets.setdefault(key, []).append(d)
        equal_pairs = 0
        for group in buckets.values():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert overlap_partitions_agree(a, b)
                    equal_pairs += 1
        if n >= 3:
            assert equal_pairs > 0  # rotations of nonsymmetric ribbons, at least


def test_overlap_agreement_detects_differences():
    a = ribbon(Composition((2, 1)))
    b = SkewDiagram(Partition((3,)))
    assert not overlap_partitions_agree(a, b)
    assert overlap_partitions_agree(a, a.rotate())


def test_overlap_agreement_is_the_all_windows_comparison():
    """Comparing the per-diagram tuples decides exactly what
    comparing the overlap partitions for every k up to the larger row
    count does."""
    diagrams = [d for n in range(1, 7) for d in connected_diagrams(n)]
    for d in diagrams:
        assert overlap_partitions(d)[0].parts == tuple(sorted(d.row_lengths().parts, reverse=True))
    for a in diagrams:
        for b in diagrams:
            top = max(a.row_count, b.row_count)
            every_k = all(a.overlap_partition(k) == b.overlap_partition(k) for k in range(1, top + 1))
            assert overlap_partitions_agree(a, b) == every_k, (a, b)


def test_term_order_in_str():
    e = skew_schur(SkewDiagram(Partition((2, 2, 1))))
    # longer keys print first; ties broken by comparing parts
    labels = [k.parts for k, _ in e.items()]
    assert labels == sorted(labels, key=lambda p: (-len(p), p))
    assert str(skew_schur(SkewDiagram(Partition((1,))))) == "h[1]"
    assert str(h(Partition((2,))) - h(Partition((2,)))) == "0"


def test_one_expansion_body():
    from ncskew.ncsym import NCExpansion
    from ncskew.sym import Expansion

    for name in ("__init__", "__add__", "scaled", "__mul__", "items", "coefficient"):
        assert name in vars(Expansion), name
        assert name not in vars(SymExpansion) and name not in vars(NCExpansion), name


def test_repr_and_display_order():
    e = h(Partition((3,))) - h(Partition((2, 1))).scaled(Fraction(1, 2))
    assert repr(e) == "SymExpansion({(2, 1): -1/2, (3,): 1})"
    assert [key.parts for key, _ in e.items()] == [(2, 1), (3,)]
    assert e.support() == {Partition((3,)), Partition((2, 1))}
    # Built out of display order; every text form still shows display order.
    from ncskew.ncsym import source_skew_schur, to_commutative
    from ncskew.textio import machine_lines

    image = to_commutative(source_skew_schur(SkewDiagram(Partition((2, 2, 1)))))
    assert list(image._terms) != [key.parts for key, _ in image.items()]
    assert repr(image) == "SymExpansion({(2, 2, 1): 1, (3, 1, 1): -1, (3, 2): -1, (4, 1): 1})"
    assert str(image) == "h[2,2,1] - h[3,1,1] - h[3,2] + h[4,1]"
    assert [key.parts for key, _ in image.items()] == [(2, 2, 1), (3, 1, 1), (3, 2), (4, 1)]
    assert machine_lines(image) == ["1\t2,2,1", "-1\t3,1,1", "-1\t3,2", "1\t4,1"]
    assert image == skew_schur(SkewDiagram(Partition((2, 2, 1))))
