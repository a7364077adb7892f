import math
from itertools import permutations as iterperms

import pytest

from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition, set_partitions


def test_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    # entries equal to 1..n but not ints, bools included
    for images in ((1.0, 2.0), (True, 2), (2, True), ("1",)):
        with pytest.raises(ValueError, match="integers"):
            Permutation(images)


def test_identity_and_reversal():
    assert Permutation.identity(4).images == (1, 2, 3, 4)
    assert Permutation.reversal(4).images == (4, 3, 2, 1)
    assert Permutation.identity(0).images == ()
    # reversal is an involution
    for n in range(6):
        r = Permutation.reversal(n)
        assert r * r == Permutation.identity(n)


def test_call_and_composition():
    a = Permutation((2, 3, 1))
    b = Permutation((3, 2, 1))
    assert [a(j) for j in (1, 2, 3)] == [2, 3, 1]
    # (a*b)(j) = a(b(j))
    ab = a * b
    assert ab.images == tuple(a(b(j)) for j in (1, 2, 3))
    with pytest.raises(ValueError):
        a * Permutation((1, 2))


def test_composing_with_a_number_raises_type_error():
    with pytest.raises(TypeError):
        Permutation((2, 1)) * 2


def test_composing_with_a_set_partition_raises_type_error():
    with pytest.raises(TypeError):
        Permutation((2, 1)) * SetPartition(((1,), (2,)))


def test_group_axioms_small():
    for n in range(5):
        e = Permutation.identity(n)
        group = list(symmetric_group(n))
        assert len(group) == math.factorial(n)
        assert len(set(group)) == len(group)
        for g in group:
            assert g * e == g
            assert e * g == g
            assert g * g.inverse() == e
            assert g.inverse() * g == e


def test_sign_is_a_homomorphism():
    for n in range(5):
        for a in symmetric_group(n):
            for b in symmetric_group(n):
                assert (a * b).sign() == a.sign() * b.sign()
    assert Permutation((2, 1)).sign() == -1
    assert Permutation.identity(3).sign() == 1


def test_bar():
    assert Permutation((2, 1, 4, 3)).bar().images == (3, 4, 1, 2)
    # bar(sigma) = reversal o sigma, and bar is an involution
    for n in range(1, 6):
        rev = Permutation.reversal(n)
        for sigma in symmetric_group(n):
            assert sigma.bar() == rev * sigma
            assert sigma.bar().bar() == sigma


def test_act_on_set_partition():
    sigma = Permutation((3, 2, 1))
    assert sigma.act(SetPartition(((1, 2), (3,)))) == SetPartition(((2, 3), (1,)))
    with pytest.raises(ValueError, match="permutation and set partition sizes differ"):
        Permutation((2, 1)).act(SetPartition(((1, 2), (3,))))
    # the action is a group action: (ab).pi = a.(b.pi)
    for a in symmetric_group(3):
        for b in symmetric_group(3):
            for pi in set_partitions(3):
                assert (a * b).act(pi) == a.act(b.act(pi))


def test_action_preserves_shape():
    for n in range(1, 5):
        for sigma in symmetric_group(n):
            for pi in set_partitions(n):
                assert sigma.act(pi).shape() == pi.shape()


def test_preserves_blocks():
    pi = SetPartition(((1, 2), (3,)))
    assert Permutation((2, 1, 3)).preserves_blocks(pi)
    assert not Permutation((1, 3, 2)).preserves_blocks(pi)
    with pytest.raises(ValueError, match="permutation and set partition sizes differ"):
        Permutation((2, 1)).preserves_blocks(pi)
    # sigma preserves every block iff it fixes the partition and each block
    for sigma in symmetric_group(4):
        for pi in set_partitions(4):
            expected = all(
                sorted(sigma(j) for j in block) == list(block) for block in pi.blocks
            )
            assert sigma.preserves_blocks(pi) == expected


def test_itertools_order():
    assert [p.images for p in symmetric_group(3)] == list(iterperms((1, 2, 3)))
    with pytest.raises(ValueError, match="n must be >= 0"):
        list(symmetric_group(-1))
