import random
import time
from fractions import Fraction
from math import factorial, prod

import pytest

from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition, relabel, set_partitions
from ncskew import ncsym, sym, textio
from ncskew.ncsym import (
    NCExpansion,
    act,
    h,
    labeling_permutation,
    monomial_truncation,
    ribbon_schur,
    schur,
    skew_schur,
    source_skew_schur,
    to_commutative,
)

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)


def _sp(*blocks):
    return SetPartition(tuple(tuple(b) for b in blocks))


def test_source_hook():
    e = source_skew_schur(ribbon(Composition((2, 1))))
    assert e == NCExpansion({_sp((1, 2), (3,)): HALF, _sp((1, 2, 3),): -SIXTH})
    assert str(e) == "1/2*h[12/3] - 1/6*h[123]"


def test_source_of_rotated_hook():
    e = source_skew_schur(SkewDiagram(Partition((2, 2)), Partition((1,))))
    assert e == NCExpansion({_sp((1,), (2, 3)): HALF, _sp((1, 2, 3),): -SIXTH})
    assert str(e) == "1/2*h[1/23] - 1/6*h[123]"


def test_act_moves_keys():
    e = source_skew_schur(SkewDiagram(Partition((2, 2)), Partition((1,))))
    moved = act(Permutation((3, 2, 1)), e)
    assert moved == source_skew_schur(ribbon(Composition((2, 1))))
    with pytest.raises(ValueError):
        act(Permutation((1, 2)), e)
    zero = e - e
    assert act(Permutation((3, 2, 1)), zero) == zero


def test_labeled_skew_schur():
    d = SkewDiagram(Partition((2, 2)), Partition((1,)))
    assert skew_schur(Permutation((3, 2, 1)), d) == source_skew_schur(
        ribbon(Composition((2, 1)))
    )
    assert skew_schur(Permutation.identity(3), d) == source_skew_schur(d)
    with pytest.raises(ValueError):
        skew_schur(Permutation((2, 1)), d)


def test_labeling_permutation():
    assert labeling_permutation(_sp((1, 3), (2,))).images == (1, 3, 2)
    assert labeling_permutation(_sp((1, 2), (3,))).images == (1, 2, 3)
    assert labeling_permutation(_sp((1,), (2, 3))).images == (2, 3, 1)
    # blocks of equal size are taken in order of their least elements
    assert labeling_permutation(_sp((1, 4), (2,), (3, 5))).images == (1, 4, 3, 5, 2)


def test_labeling_permutation_property():
    """The labeling permutation carries the interval partition of the shape
    onto the set partition itself."""
    for n in range(7):
        for pi in set_partitions(n):
            delta = labeling_permutation(pi)
            interval = SetPartition.from_composition(pi.shape().to_composition())
            assert delta.act(interval) == pi


def test_schur_of_set_partition():
    e = schur(_sp((1, 3), (2,)))
    assert e == NCExpansion({_sp((1, 3), (2,)): HALF, _sp((1, 2, 3),): -SIXTH})
    assert str(e) == "1/2*h[13/2] - 1/6*h[123]"
    # interval partitions reduce to the source expansion of the straight shape
    assert schur(_sp((1, 2), (3,))) == source_skew_schur(ribbon(Composition((2, 1))))


def test_ribbon_expansion():
    assert ribbon_schur(Composition((2, 1))) == source_skew_schur(
        ribbon(Composition((2, 1)))
    )
    with pytest.raises(ValueError):
        ribbon_schur(Composition(()))


def test_ribbon_matches_determinant():
    for n in range(1, 7):
        for alpha in compositions(n):
            assert ribbon_schur(alpha) == source_skew_schur(ribbon(alpha))


def test_h_product_is_slash():
    for total in range(2, 5):
        for k in range(1, total):
            for pi in set_partitions(k):
                for sg in set_partitions(total - k):
                    assert h(pi) * h(sg) == h(pi.slash(sg))


def test_product_is_bilinear():
    a = ribbon_schur(Composition((2,)))
    b = ribbon_schur(Composition((1, 1)))
    c = h(_sp((1,)))
    assert (a + b) * c == a * c + b * c
    assert c * (a - b) == c * a - c * b
    assert (a * b).degree == 4


def test_to_commutative_on_basis():
    assert to_commutative(h(_sp((1, 3), (2,)))) == sym.h(Partition((2, 1))).scaled(2)
    assert to_commutative(h(_sp((1, 2, 3),))) == sym.h(Partition((3,))).scaled(6)
    zero = h(_sp((1,))) - h(_sp((1,)))
    assert not to_commutative(zero)
    assert to_commutative(zero) == sym.SymExpansion({})


def test_to_commutative_of_skew_schur():
    """Letting the variables commute recovers the classical expansion,
    whatever the labeling."""
    for n in range(1, 6):
        for d in connected_diagrams(n):
            target = sym.skew_schur(d)
            src = source_skew_schur(d)
            assert to_commutative(src) == target
            for delta in symmetric_group(n):
                assert to_commutative(act(delta, src)) == target


def _reference_to_commutative(e):
    """Each term's coefficient times its shape factorial, summed as
    Fractions per shape, zeros dropped."""
    merged = {}
    for pi, coeff in e.items():
        shape = pi.shape()
        merged[shape] = merged.get(shape, 0) + coeff * shape.factorial()
    return sym.SymExpansion({shape: c for shape, c in merged.items() if c})


def test_to_commutative_matches_the_fraction_reference():
    """Integer sums per shape give the per-term Fraction image, on equal
    and on mixed denominators, and a shape that cancels is dropped."""
    mixed = NCExpansion(
        {
            _sp((1, 2), (3,)): HALF,
            _sp((1, 3), (2,)): Fraction(1, 3),
            _sp((1,), (2,), (3,)): 2,
            _sp((1, 2, 3)): SIXTH,
        }
    )
    assert str(to_commutative(mixed)) == "2*h[1,1,1] + 5/3*h[2,1] + h[3]"
    cancel_equal = NCExpansion({_sp((1, 2), (3,)): HALF, _sp((2, 3), (1,)): -HALF})
    cancel_mixed = mixed + NCExpansion({_sp((2, 3), (1,)): Fraction(-5, 6)})
    for e in (cancel_equal, cancel_mixed):
        image = to_commutative(e)
        assert image == _reference_to_commutative(e)
        assert Partition((2, 1)) not in image.support()
    assert not to_commutative(cancel_equal)
    assert str(to_commutative(cancel_mixed)) == "2*h[1,1,1] + h[3]"
    rng = random.Random(24)
    scales = (Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-5, 7))
    for n in range(1, 7):
        for d in connected_diagrams(n):
            src = source_skew_schur(d)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            rel = act(Permutation(tuple(images)), src)
            for e in (rel, rel.scaled(rng.choice(scales)) + src.scaled(rng.choice(scales))):
                image = to_commutative(e)
                assert image == _reference_to_commutative(e), d
                assert repr(image) == repr(_reference_to_commutative(e))


def test_to_commutative_is_multiplicative():
    a = schur(_sp((1, 3), (2,)))
    b = ribbon_schur(Composition((2, 1)))
    assert to_commutative(a * b) == to_commutative(a) * to_commutative(b)


def test_truncation_worked_coefficients():
    t = monomial_truncation(_sp((1, 3), (2,)), 3)
    assert t.coefficient((1, 2, 1)) == 2
    assert t.coefficient((1, 1, 1)) == 2
    assert t.coefficient((1, 1, 2)) == 1
    assert t.coefficient((2, 1, 1)) == 1
    assert t.coefficient((1, 2, 3)) == 1
    assert t.coefficient((1, 2, 2)) == 1
    assert t.coefficient((3, 3, 3)) == 2
    assert t.coefficient((1, 1)) == 0


def test_truncation_totals():
    # nine words repeat the value in positions 1 and 3, each counted twice
    t = monomial_truncation(_sp((1, 3), (2,)), 3)
    assert sum(c for _, c in t.items()) == 2 * 9 + 18
    assert len(list(t.items())) == 27


def test_truncation_product_is_slash():
    for total in range(2, 5):
        for k in range(1, total):
            for pi in set_partitions(k):
                for sg in set_partitions(total - k):
                    left = monomial_truncation(pi, 3) * monomial_truncation(sg, 3)
                    assert left == monomial_truncation(pi.slash(sg), 3)


def test_truncation_times_a_number_raises_type_error():
    with pytest.raises(TypeError):
        monomial_truncation(_sp((1,)), 2) * 2


def test_truncation_refusals():
    with pytest.raises(ValueError, match="need at least one variable"):
        ncsym.MonomialTruncation(0, 1, {})
    with pytest.raises(ValueError, match="truncations use different variable counts"):
        monomial_truncation(_sp((1,)), 2) * monomial_truncation(_sp((1,)), 3)


def test_truncation_refuses_no_variables_before_the_walk():
    """monomial_truncation refuses 0 variables before walking the 12!
    permutations of a one-block 12-point partition, not after."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="need at least one variable"):
        monomial_truncation(_sp(range(1, 13)), 0)
    assert time.perf_counter() - start < 0.1


def test_truncation_equality_and_repr():
    t = monomial_truncation(_sp((1,)), 2)
    assert (t == 1) is False
    assert repr(t) == "MonomialTruncation(variables=2, length=1, terms=2)"


def test_truncation_separates_basis():
    for n in range(1, 5):
        seen = {}
        for pi in set_partitions(n):
            t = monomial_truncation(pi, n)
            for other, prev in seen.items():
                assert t != prev, (pi, other)
            seen[pi] = t


def test_term_order_in_str():
    e = ribbon_schur(Composition((1, 1, 1)))
    assert str(e) == "h[1/2/3] - 1/2*h[1/23] - 1/2*h[12/3] + 1/6*h[123]"
    # Built out of display order; every text form still shows display order.
    src = source_skew_schur(ribbon(Composition((2, 1))))
    relabeled = act(Permutation((3, 2, 1)), src)
    assert list(relabeled._terms) != [key.blocks for key, _ in relabeled.items()]
    assert repr(relabeled) == "NCExpansion({((1,), (2, 3)): 1/2, ((1, 2, 3),): -1/6})"
    assert str(relabeled) == "1/2*h[1/23] - 1/6*h[123]"
    assert relabeled.items() == [(_sp((1,), (2, 3)), HALF), (_sp((1, 2, 3)), -SIXTH)]
    assert textio.machine_lines(relabeled) == ["1/2\t1/23", "-1/6\t123"]
    product = src * h(_sp((1,)))
    assert list(product._terms) != [key.blocks for key, _ in product.items()]
    assert repr(product) == "NCExpansion({((1, 2), (3,), (4,)): 1/2, ((1, 2, 3), (4,)): -1/6})"
    assert str(product) == "1/2*h[12/3/4] - 1/6*h[123/4]"
    assert product.items() == [(_sp((1, 2), (3,), (4,)), HALF), (_sp((1, 2, 3), (4,)), -SIXTH)]
    assert textio.machine_lines(product) == ["1/2\t12/3/4", "-1/6\t123/4"]


def test_relabels_to_agrees_with_act():
    """The sweep kernel answers act(sigma, E) == F without building the
    image, on every ordered pair of connected diagrams (same-diagram pairs
    included) and every sigma; act's keys come out canonical."""
    for n in range(1, 5):
        expansions = [source_skew_schur(d) for d in connected_diagrams(n)]
        for sigma in symmetric_group(n):
            for e in expansions:
                image = act(sigma, e)
                for key in image.support():
                    assert key.blocks == SetPartition(key.blocks).blocks
                for f in expansions:
                    assert e.relabels_to(sigma.images, f) == (image == f)


def test_relabels_to_needs_every_term():
    e = source_skew_schur(ribbon(Composition((2, 1))))
    bigger = e + h(_sp((1,), (2,), (3,)))
    assert not e.relabels_to((1, 2, 3), bigger)
    assert not bigger.relabels_to((1, 2, 3), e)
    assert e.relabels_to((1, 2, 3), e)


def test_source_skew_schur_matches_validating_constructor():
    """The cached per-composition terms give what the validating constructor
    builds from each surviving term: sign/prod(s!) times h of the interval
    set partition of the nonzero subscripts."""
    for n in range(1, 9):
        for d in connected_diagrams(n):
            reference = NCExpansion(
                (
                    SetPartition.from_composition(Composition(subs)),
                    Fraction(sign, prod(factorial(s) for s in subs)),
                )
                for subs, sign in d.surviving_terms()
            )
            got = source_skew_schur(d)
            assert got == reference
            assert str(got) == str(reference)


def test_act_matches_validating_constructor():
    """act relabels through the trusted constructor; the result is what
    the validating constructor builds, and items() shows both in the same
    display order, whatever order each stored its terms in."""
    rng = random.Random(15)
    for n in range(1, 8):
        for d in connected_diagrams(n):
            e = source_skew_schur(d)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            sigma = Permutation(tuple(images))
            reference = NCExpansion(
                (SetPartition(relabel(sigma.images, key.blocks)), c) for key, c in e.items()
            )
            got = act(sigma, e)
            assert got == reference
            assert got.items() == reference.items()


def test_act_refuses_keys_relabeled_onto_one(monkeypatch):
    """act builds its image without a merge, since relabeling by a
    permutation is a bijection on keys.  A kernel that sent two keys onto
    one would drop a term silently; act raises RuntimeError instead, by a
    check that python -O keeps."""
    e = source_skew_schur(ribbon(Composition((2, 1))))
    assert len(e) == 2

    def colliding(images, keys):
        for _raw in keys:
            yield ((1, 2, 3),)

    monkeypatch.setattr(ncsym, "relabel_keys", colliding)
    with pytest.raises(RuntimeError, match="onto one"):
        act(Permutation((2, 1, 3)), e)


def test_coefficient_refuses_a_key_of_the_other_basis():
    """coefficient refuses a key of the other basis as the constructor does."""
    with pytest.raises(ValueError, match=r"^expansion keys must be SetPartition, got Partition\("):
        h(_sp((1, 2), (3,))).coefficient(Partition((2, 1)))
    with pytest.raises(ValueError, match=r"^expansion keys must be SetPartition, got Partition\("):
        NCExpansion({Partition((2, 1)): 1})
    with pytest.raises(ValueError, match=r"^expansion keys must be Partition, got SetPartition\("):
        sym.h(Partition((2, 1))).coefficient(_sp((1, 2), (3,)))
    with pytest.raises(ValueError, match=r"^expansion keys must be Partition, got SetPartition\("):
        sym.SymExpansion({_sp((1, 2), (3,)): 1})


def test_nc_inexact_coefficients_rejected():
    with pytest.raises(ValueError):
        NCExpansion({_sp((1,)): 0.1})
    with pytest.raises(ValueError):
        h(_sp((1,))).scaled("1/3")
