import dataclasses
import itertools
import math

import pytest

from ncskew import classify
from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.ncsym import NCExpansion, skew_schur, source_skew_schur, to_commutative
from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition
from ncskew.sym import overlap_partitions
from ncskew.classify import (
    Disagreement,
    LabeledDiagram,
    VerificationReport,
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


def test_oracle_agrees_with_built_expansions():
    """expansions_equal relabels one source expansion onto the other; it
    must give the verdict of building both labeled expansions and comparing
    them, same-diagram pairs included."""
    for n in range(1, 5):
        diagrams = list(connected_diagrams(n))
        perms = list(symmetric_group(n))
        deltas = [perms[0], perms[len(perms) // 2], perms[-1]]
        for first in diagrams:
            for second in diagrams:
                for delta in deltas:
                    for tau in perms:
                        a, b = LabeledDiagram(delta, first), LabeledDiagram(tau, second)
                        built = skew_schur(delta, first) == skew_schur(tau, second)
                        assert expansions_equal(a, b) == built, (delta, first, tau, second)


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


def test_fingerprint_filter_never_skips_a_rotation_pair(monkeypatch):
    """Even if every diagram had a fingerprint of its own, the pairs meeting
    conditions 1 and 2 would still get the full check: relabels_to sees
    exactly the same-diagram and rotation pairs, and every labeling of a
    rotation pair's predicted coset."""
    n = 5
    checked = []
    relabels_to = NCExpansion.relabels_to
    entry = classify._entry

    def recording_relabels_to(*args):
        checked.append(args)
        return relabels_to(*args)

    def own_fingerprint(d):
        return dataclasses.replace(entry(d), fingerprint=d)

    monkeypatch.setattr(classify, "_entry", own_fingerprint)
    monkeypatch.setattr(NCExpansion, "relabels_to", recording_relabels_to)
    classify._table.cache_clear()
    try:
        report = verify_exhaustive(n)
        entries = classify._table(n)
    finally:
        classify._table.cache_clear()
    diagrams = [e.diagram for e in entries]
    index = {id(e.expansion): k for k, e in enumerate(entries)}
    reached = {}
    for source, images, target in checked:
        reached.setdefault((index[id(source)], index[id(target)]), set()).add(images)
    same_diagram_pairs = {(k, k) for k in range(len(diagrams))}
    rotation_pairs = {
        (k, diagrams.index(d.rotate()))
        for k, d in enumerate(diagrams)
        if d.is_ribbon() and not d.is_symmetric()
    }
    assert rotation_pairs
    assert set(reached) == same_diagram_pairs | rotation_pairs
    for k, target in rotation_pairs:
        rows = SetPartition.from_composition(diagrams[k].row_lengths())
        predicted = {p.images for p in symmetric_group(n) if p.bar().preserves_blocks(rows)}
        assert len(predicted) == diagrams[k].row_lengths().factorial()
        assert predicted <= reached[k, target]


def test_fingerprints_refine_the_overlap_partitions_and_match_the_commutative_image():
    """Over every ordered pair of connected diagrams with n <= 7: diagrams
    whose overlap partitions differ have different fingerprints, so the
    fingerprint filter skips every pair the overlap condition would; and
    two fingerprints are equal exactly when the commutative images are."""
    for n in range(1, 8):
        entries = classify._table(n)
        overlaps = [overlap_partitions(e.diagram) for e in entries]
        images = [to_commutative(e.expansion) for e in entries]
        for i, first in enumerate(entries):
            for j, second in enumerate(entries):
                same_fingerprint = first.fingerprint == second.fingerprint
                if overlaps[i] != overlaps[j]:
                    assert not same_fingerprint, (first.diagram, second.diagram)
                assert same_fingerprint == (images[i] == images[j]), (first.diagram, second.diagram)


def _fixes_intervals(images, intervals):
    return all(a <= images[x - 1] <= b for a, b in intervals for x in range(a, b + 1))


def _scan(n, wrong=False):
    """The sweep decided labeling by labeling, kept as the kernel's oracle:
    for every ordered pair of connected diagrams and every sigma in S_n,
    relabels_to is the observed verdict and the predicate is conditions 1
    and 2 with sigma's complement fixing the row intervals; for
    same-diagram pairs the condition is sigma fixing every block of every
    key of the source expansion.  With wrong=True, condition 3 reads sigma
    itself instead of its complement and the same-diagram condition holds
    for every sigma."""
    diagrams = list(connected_diagrams(n))
    count = len(diagrams)
    perms = list(itertools.permutations(range(1, n + 1)))
    checks = agreements = pairs = same_checks = same_equal = same_condition = 0
    found = []
    for i, d in enumerate(diagrams):
        src = source_skew_schur(d)
        rows = tuple((b[0], b[-1]) for b in SetPartition.from_composition(d.row_lengths()).blocks)
        blocks = {(b[0], b[-1]) for key in src.support() for b in key.blocks}
        nonsym_ribbon = d.is_ribbon() and not d.is_symmetric()
        for j, t in enumerate(diagrams):
            target = source_skew_schur(t)
            pairs += i != j
            for p in perms:
                observed = src.relabels_to(p, target)
                if i == j:
                    predicted = wrong or _fixes_intervals(p, blocks)
                    same_checks += 1
                    same_equal += observed
                    same_condition += predicted
                    differ = predicted and not observed
                else:
                    read = p if wrong else tuple(n + 1 - v for v in p)
                    predicted = nonsym_ribbon and t == d.rotate() and _fixes_intervals(read, rows)
                    differ = predicted != observed
                checks += 1
                if differ:
                    found.append(Disagreement(i * count + j, i, j, p, predicted, observed))
                else:
                    agreements += 1
    return VerificationReport(
        size=n,
        diagram_count=count,
        pair_count=pairs,
        coset_checks=checks,
        agreements=agreements,
        disagreements=tuple(found),
        same_diagram_checks=same_checks,
        same_diagram_equal=same_equal,
        same_diagram_condition=same_condition,
    )


def test_kernel_matches_the_labeling_scan():
    for n in range(1, 6):
        scan = _scan(n)
        for jobs in (1, 2):
            for prune in (False, True):
                assert verify_exhaustive(n, jobs, prune) == scan, (n, jobs, prune)


def test_kernel_matches_the_scan_on_a_wrong_predicate(monkeypatch):
    """With condition 3 read off sigma instead of its complement, and with
    one atom holding all of 1..n so that every sigma meets the same-diagram
    condition, both conditions are wrong, and kernel and scan must report
    the same disagreements of both kinds."""
    entry = classify._entry

    def one_atom(d):
        return dataclasses.replace(entry(d), atoms=(tuple(range(1, d.size + 1)),))

    monkeypatch.setattr(classify, "_row_target", lambda block, n: block)
    monkeypatch.setattr(classify, "_entry", one_atom)
    # failing_condition reads the same condition 3 as the sweep, so the
    # mutant makes it disagree with the oracle on the worked pair too.
    a = LabeledDiagram(Permutation.identity(3), HOOK)
    b = LabeledDiagram(Permutation((3, 2, 1)), ROTATED)
    assert expansions_equal(a, b)
    assert failing_condition(a, b) == 3
    classify._table.cache_clear()
    try:
        for n in (4, 5):
            scan = _scan(n, wrong=True)
            assert {d.first == d.second for d in scan.disagreements} == {True, False}
            assert verify_exhaustive(n) == scan
    finally:
        classify._table.cache_clear()


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


@pytest.mark.slow
def test_verify_seven_unpruned_counters():
    report = verify_exhaustive(7)
    assert (report.diagram_count, report.pair_count, report.coset_checks) == (105, 10920, 55566000)
    assert report.agreements == report.coset_checks and report.ok
    assert (
        report.same_diagram_checks,
        report.same_diagram_equal,
        report.same_diagram_condition,
    ) == (529200, 9182, 8987)


@pytest.mark.slow
def test_verify_eight_counters():
    report = verify_exhaustive(8)
    assert (report.diagram_count, report.pair_count, report.coset_checks) == (
        242,
        58322,
        2361300480,
    )
    assert report.agreements == report.coset_checks and report.ok
    assert (
        report.same_diagram_checks,
        report.same_diagram_equal,
        report.same_diagram_condition,
    ) == (9757440, 67504, 65897)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_exhaustive(0)
    with pytest.raises(ValueError):
        verify_exhaustive(3, jobs=0)
