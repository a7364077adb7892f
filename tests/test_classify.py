import pytest

from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.ncsym import source_skew_schur
from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition
from ncskew.classify import (
    LabeledDiagram,
    count_equivalent,
    expansions_equal,
    failing_condition,
    predicts_equal,
    same_diagram_verdict,
    verify_exhaustive,
)

HOOK = ribbon(Composition((2, 1)))
ROTATED = SkewDiagram(Partition((2, 2)), Partition((1,)))


def test_labeled_diagram_validation():
    with pytest.raises(ValueError):
        LabeledDiagram(Permutation((1, 2)), HOOK)  # wrong size
    with pytest.raises(ValueError):
        LabeledDiagram(
            Permutation.identity(2), SkewDiagram(Partition((2, 1)), Partition((1,)))
        )  # disconnected


def test_worked_pair():
    a = LabeledDiagram(Permutation.identity(3), HOOK)
    b = LabeledDiagram(Permutation((3, 2, 1)), ROTATED)
    assert failing_condition(a, b) is None
    assert predicts_equal(a, b)
    assert expansions_equal(a, b)


def test_failing_conditions():
    # symmetric ribbon: condition 1
    col = LabeledDiagram(Permutation.identity(2), SkewDiagram(Partition((1, 1))))
    row = LabeledDiagram(Permutation.identity(2), SkewDiagram(Partition((2,))))
    assert failing_condition(col, row) == 1
    # not the rotation: condition 2
    a = LabeledDiagram(Permutation.identity(3), HOOK)
    flat = LabeledDiagram(Permutation.identity(3), SkewDiagram(Partition((3,))))
    assert failing_condition(a, flat) == 2
    # right diagrams, wrong relative labeling: condition 3
    b = LabeledDiagram(Permutation.identity(3), ROTATED)
    assert failing_condition(a, b) == 3
    assert not predicts_equal(a, b)
    assert not expansions_equal(a, b)


def test_pair_validation():
    a = LabeledDiagram(Permutation.identity(3), HOOK)
    with pytest.raises(ValueError):
        failing_condition(a, a)  # not distinct
    small = LabeledDiagram(Permutation.identity(2), SkewDiagram(Partition((2,))))
    with pytest.raises(ValueError):
        failing_condition(a, small)
    with pytest.raises(ValueError):
        expansions_equal(a, small)


def test_predicate_against_oracle_directly():
    """Independent sweep at size 3 through the public interface."""
    diagrams = list(connected_diagrams(3))
    for first in diagrams:
        for second in diagrams:
            if first == second:
                continue
            a = LabeledDiagram(Permutation.identity(3), first)
            for tau in symmetric_group(3):
                b = LabeledDiagram(tau, second)
                assert predicts_equal(a, b) == expansions_equal(a, b)


def test_equality_depends_only_on_relative_labeling():
    diagrams = list(connected_diagrams(3))
    perms = list(symmetric_group(3))
    for first in diagrams:
        for second in diagrams:
            if first == second:
                continue
            for delta in perms[:3]:
                for tau in perms[:3]:
                    base = expansions_equal(
                        LabeledDiagram(delta, first), LabeledDiagram(tau, second)
                    )
                    for gamma in perms:
                        assert base == expansions_equal(
                            LabeledDiagram(gamma * delta, first),
                            LabeledDiagram(gamma * tau, second),
                        )


def test_count_equivalent_is_composition_factorial():
    for n in range(2, 6):
        for alpha in compositions(n):
            if alpha == alpha.reverse():
                continue
            assert count_equivalent(ribbon(alpha)) == alpha.factorial(), alpha


def test_count_equivalent_rejects_bad_input():
    with pytest.raises(ValueError):
        count_equivalent(SkewDiagram(Partition((1, 1))))  # symmetric ribbon
    with pytest.raises(ValueError):
        count_equivalent(SkewDiagram(Partition((2, 2))))  # not a ribbon


def test_same_diagram_identity():
    for n in range(1, 5):
        for d in connected_diagrams(n):
            verdict = same_diagram_verdict(Permutation.identity(n), d)
            assert verdict.equal
            assert verdict.blocks_preserved
            assert bool(verdict)


def test_same_diagram_block_condition_is_sufficient():
    for n in range(1, 5):
        for d in connected_diagrams(n):
            for sigma in symmetric_group(n):
                verdict = same_diagram_verdict(sigma, d)
                if verdict.blocks_preserved:
                    assert verdict.equal
                assert bool(verdict) == verdict.equal


def test_same_diagram_condition_is_not_necessary():
    # the column of size 2: swapping the rows relabels the two singleton
    # blocks into each other and fixes the expansion anyway
    verdict = same_diagram_verdict(Permutation((2, 1)), SkewDiagram(Partition((1, 1))))
    assert verdict.equal
    assert not verdict.blocks_preserved


def test_same_diagram_validation():
    with pytest.raises(ValueError):
        same_diagram_verdict(Permutation((2, 1)), HOOK)  # size mismatch
    with pytest.raises(ValueError):
        same_diagram_verdict(
            Permutation.identity(3), SkewDiagram(Partition((2, 1)), Partition((1,)))
        )


def test_support_keys_are_the_surviving_term_keys():
    """The block condition reads the keys of the source expansion; they are
    exactly the interval set partitions of the surviving determinant terms,
    so no surviving term cancels away."""
    for n in range(1, 8):
        for d in connected_diagrams(n):
            surviving = {
                SetPartition.from_composition(Composition(tuple(s for s in subs if s)))
                for subs, _sign in d.jt_subscripts().surviving_terms()
            }
            assert source_skew_schur(d).support() == surviving, d


def test_verify_structure():
    for n in range(1, 5):
        report = verify_exhaustive(n)
        assert report.ok
        assert report.disagreements == ()
        assert report.pair_count == report.diagram_count * (report.diagram_count - 1)
        import math

        per = math.factorial(n)
        assert report.coset_checks == (report.pair_count + report.diagram_count) * per
        assert report.agreements == report.coset_checks
        assert report.same_diagram_checks == report.diagram_count * per
        assert report.same_diagram_equal >= report.same_diagram_condition


def test_verify_small_counters():
    two = verify_exhaustive(2)
    assert (two.diagram_count, two.pair_count) == (2, 2)
    assert (two.same_diagram_equal, two.same_diagram_condition) == (4, 3)
    three = verify_exhaustive(3)
    assert (three.diagram_count, three.pair_count) == (4, 12)
    assert (three.same_diagram_equal, three.same_diagram_condition) == (12, 11)


def test_verify_prune_and_jobs_change_nothing():
    base = verify_exhaustive(4)
    assert verify_exhaustive(4, prune=True) == base
    assert verify_exhaustive(4, jobs=2) == base
    assert verify_exhaustive(4, jobs=2, prune=True) == base


def test_pruning_never_skips_a_rotation_pair(monkeypatch):
    """Even if the overlap test wrongly rejected every pair, the pairs
    meeting conditions 1 and 2 still get the full check."""
    import math

    from ncskew import classify
    from ncskew.ncsym import NCExpansion

    n = 5
    checked = []
    relabels_to = NCExpansion.relabels_to

    def counting_relabels_to(*args):
        checked.append(args)
        return relabels_to(*args)

    monkeypatch.setattr(classify, "overlap_partitions_agree", lambda d, t: False)
    monkeypatch.setattr(NCExpansion, "relabels_to", counting_relabels_to)
    report = verify_exhaustive(n, prune=True)
    assert report.ok
    diagrams = connected_diagrams(n)
    rotation_pairs = sum(1 for d in diagrams if d.is_ribbon() and not d.is_symmetric())
    same_diagram_pairs = len(diagrams)
    assert len(checked) == (same_diagram_pairs + rotation_pairs) * math.factorial(n)


@pytest.mark.slow
def test_verify_seven_pruned_counters():
    report = verify_exhaustive(7, prune=True)
    assert (report.diagram_count, report.pair_count, report.coset_checks) == (105, 10920, 55566000)
    assert report.agreements == report.coset_checks and report.ok
    assert (
        report.same_diagram_checks,
        report.same_diagram_equal,
        report.same_diagram_condition,
    ) == (529200, 9182, 8987)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_exhaustive(0)
    with pytest.raises(ValueError):
        verify_exhaustive(3, jobs=0)
