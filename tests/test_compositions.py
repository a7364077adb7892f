import math
from itertools import permutations

import pytest

from ncskew.compositions import Composition, Partition, WeakComposition, compositions


def test_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Composition((1, 0, 2))
    with pytest.raises(ValueError):
        Composition((-1,))
    with pytest.raises(ValueError):
        Composition((1.5,))


@pytest.mark.parametrize(
    "kind, parts, message",
    [
        (Composition, (2, 0), "composition parts must be positive integers, got (2, 0)"),
        (WeakComposition, (2, -1), "weak composition parts must be >= 0, got (2, -1)"),
        (Partition, (2, 0), "partition parts must be positive integers, got (2, 0)"),
        (Partition, (1, 2), "partition parts must weakly decrease, got (1, 2)"),
    ],
)
def test_each_parts_type_refuses_in_its_own_words(kind, parts, message):
    with pytest.raises(ValueError) as caught:
        kind(parts)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        kind(parts=list(parts))
    assert str(caught.value) == message


@pytest.mark.parametrize("kind", [Composition, Partition, WeakComposition])
@pytest.mark.parametrize("parts", [(True, 2), (2, True), (False,)])
def test_bool_parts_rejected(kind, parts):
    # bool is an int subclass, and True would print as a part
    with pytest.raises(ValueError):
        kind(parts)


def test_counts_are_powers_of_two():
    # there are 2^(n-1) compositions of n >= 1
    for n in range(1, 9):
        assert sum(1 for _ in compositions(n)) == 2 ** (n - 1)
    assert [c.parts for c in compositions(0)] == [()]
    with pytest.raises(ValueError, match="n must be >= 0"):
        list(compositions(-1))


def test_compositions_are_distinct_and_sum_to_n():
    for n in range(7):
        seen = set()
        for c in compositions(n):
            assert c.size == n
            assert c.parts not in seen
            seen.add(c.parts)


def test_to_partition_sorts():
    assert Composition((1, 3, 2)).to_partition() == Partition((3, 2, 1))
    assert Composition(()).to_partition() == Partition(())
    for n in range(6):
        for c in compositions(n):
            assert c.to_partition().parts == tuple(sorted(c.parts, reverse=True))


def test_factorial():
    assert Composition(()).factorial() == 1
    assert Composition((3,)).factorial() == 6
    assert Composition((2, 2)).factorial() == 4
    assert Partition((3, 2, 2, 1, 1)).factorial() == 24


def test_reverse_is_involutive():
    for n in range(7):
        for c in compositions(n):
            assert c.reverse().reverse() == c


def test_coarsenings_of_three_ones():
    got = [c.parts for c in Composition((1, 1, 1)).coarsenings()]
    assert got == [(1, 1, 1), (2, 1), (1, 2), (3,)]


def test_coarsenings_count_and_closure():
    """Coarsening never changes the size and there are 2^(len-1) of them."""
    for n in range(1, 7):
        for c in compositions(n):
            coarse = c.coarsenings()
            assert len(coarse) == 2 ** (c.length - 1)
            assert coarse[0] == c
            assert coarse[-1] == Composition((n,))
            assert len(set(coarse)) == len(coarse)
            for b in coarse:
                assert b.size == n
    assert Composition(()).coarsenings() == [Composition(())]


def test_weak_composition():
    w = WeakComposition((0, 2, 0, 1))
    assert w.size == 3
    assert w.to_partition() == Partition((2, 1))
    assert w.reverse().parts == (1, 0, 2, 0)
    with pytest.raises(ValueError):
        w.positive()
    assert WeakComposition((2, 1)).positive() == Composition((2, 1))
    with pytest.raises(ValueError):
        WeakComposition((1, -1))


def test_partition_validation_and_containment():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    big = Partition((5, 5, 4, 4, 2))
    assert big.contains(Partition((4, 3, 3, 1)))
    assert big.contains(Partition(()))
    assert not big.contains(Partition((6,)))
    assert not big.contains(Partition((1, 1, 1, 1, 1, 1)))


def _dominates_reference(a, b):
    # textbook definition with zero padding
    width = max(len(a.parts), len(b.parts))
    pa = a.parts + (0,) * (width - len(a.parts))
    pb = b.parts + (0,) * (width - len(b.parts))
    return all(sum(pa[:i]) >= sum(pb[:i]) for i in range(1, width + 1))


def test_dominance_matches_padded_definition():
    for n in range(1, 8):
        parts = [c.to_partition() for c in compositions(n)]
        parts = sorted(set(parts), key=lambda p: p.parts)
        for a in parts:
            for b in parts:
                assert a.dominates(b) == _dominates_reference(a, b)


def test_dominance_is_a_partial_order():
    for n in range(1, 7):
        parts = sorted({c.to_partition() for c in compositions(n)}, key=lambda p: p.parts)
        for a in parts:
            assert a.dominates(a)
            for b in parts:
                if a.dominates(b) and b.dominates(a):
                    assert a == b
                for c in parts:
                    if a.dominates(b) and b.dominates(c):
                        assert a.dominates(c)


def test_every_rearrangement_has_same_partition():
    for perm in permutations((1, 2, 3)):
        assert Composition(perm).to_partition() == Partition((3, 2, 1))
        assert Composition(perm).factorial() == 12
    assert math.factorial(3) * math.factorial(2) * math.factorial(1) == 12
