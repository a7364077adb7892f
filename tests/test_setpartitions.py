import random

import pytest

from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import connected_diagrams
from ncskew.ncsym import source_skew_schur
from ncskew.setpartitions import SetPartition, relabel, relabel_keys, set_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877]


def test_canonical_form():
    """Blocks come out sorted by least element, elements ascending."""
    pi = SetPartition(((3, 1), (2,)))
    assert pi.blocks == ((1, 3), (2,))
    assert SetPartition(((2,), (3, 1))).blocks == ((1, 3), (2,))


def test_validation():
    with pytest.raises(ValueError):
        SetPartition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        SetPartition(((1, 3),))  # gap
    with pytest.raises(ValueError):
        SetPartition(((0, 1),))
    with pytest.raises(ValueError):
        SetPartition(((1,), ()))
    # entries equal to 1..n but not ints, bools included
    for blocks in (((1.0,), (2,)), ((True, 2),), ((2,), (True,)), (("1", 2),)):
        with pytest.raises(ValueError, match="integers"):
            SetPartition(blocks)


def test_counts_are_bell_numbers():
    for n, expected in enumerate(BELL):
        assert sum(1 for _ in set_partitions(n)) == expected
    with pytest.raises(ValueError, match="n must be >= 0"):
        list(set_partitions(-1))


def test_enumeration_is_duplicate_free():
    for n in range(6):
        seen = set(set_partitions(n))
        assert len(seen) == BELL[n]
        for pi in seen:
            assert pi.size == n


def test_from_composition():
    assert SetPartition.from_composition(Composition((2, 1))).blocks == ((1, 2), (3,))
    assert SetPartition.from_composition(Composition(())).blocks == ()
    got = SetPartition.from_composition(Composition((1, 2, 1, 3, 2)))
    assert got.blocks == ((1,), (2, 3), (4,), (5, 6, 7), (8, 9))


def test_shape():
    pi = SetPartition(((1, 4), (2,), (3, 5, 6)))
    assert pi.shape() == Partition((3, 2, 1))
    assert pi.shape_factorial() == 12
    assert SetPartition(()).shape() == Partition(())


def test_slash_product():
    left = SetPartition(((1,), (2, 4), (3,)))
    right = SetPartition(((1, 2, 3), (4, 5)))
    assert left.slash(right).blocks == ((1,), (2, 4), (3,), (5, 6, 7), (8, 9))
    empty = SetPartition(())
    assert empty.slash(left) == left
    assert left.slash(empty) == left


def test_slash_is_associative():
    xs = list(set_partitions(2))
    for a in xs:
        for b in xs:
            for c in xs:
                assert a.slash(b).slash(c) == a.slash(b.slash(c))


def test_interval_partitions_are_slash_products_of_runs():
    for n in range(1, 7):
        for alpha in compositions(n):
            built = SetPartition(())
            for part in alpha.parts:
                built = built.slash(SetPartition.from_composition(Composition((part,))))
            assert built == SetPartition.from_composition(alpha)


def test_refinement():
    fine = SetPartition(((1,), (2,), (3, 4)))
    coarse = SetPartition(((1, 2), (3, 4)))
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.refines(fine)
    with pytest.raises(ValueError):
        fine.refines(SetPartition(((1, 2, 3),)))


def test_refinement_counts():
    # number of pairs (fine, coarse) with fine refining coarse, n = 3:
    # the lattice of 5 partitions has 12 comparable ordered pairs
    pairs = [
        (a, b) for a in set_partitions(3) for b in set_partitions(3) if a.refines(b)
    ]
    assert len(pairs) == 12


def test_relabel_keys_is_relabel_key_by_key():
    """For every key of every source expansion with n <= 7, under a seeded
    labeling, the memoized kernel gives what relabel gives, in key order."""
    rng = random.Random(26)
    for n in range(1, 8):
        for d in connected_diagrams(n):
            keys = list(source_skew_schur(d)._terms)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            images = tuple(images)
            assert list(relabel_keys(images, keys)) == [relabel(images, raw) for raw in keys]


def test_relabel_keys_memo_lives_for_one_call():
    """Calls on the same keys with different images each give their own
    answer, one after the other or interleaved: no block image computed
    for one call is read by another."""
    keys = [((1, 2), (3,), (4,)), ((1,), (2, 3, 4)), ((1, 2), (3, 4)), ((1, 2, 3, 4),)]
    first, second = (2, 1, 4, 3), (4, 3, 2, 1)
    for images in (first, second, first):
        assert list(relabel_keys(images, keys)) == [relabel(images, raw) for raw in keys]
    assert list(relabel_keys(first, keys)) != list(relabel_keys(second, keys))
    interleaved = zip(relabel_keys(first, keys), relabel_keys(second, keys))
    assert list(interleaved) == [(relabel(first, raw), relabel(second, raw)) for raw in keys]
