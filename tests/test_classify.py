import contextlib
import dataclasses
import itertools
import math
import multiprocessing
import os
import signal
from collections import Counter
from fractions import Fraction

import pytest

from ncskew import classify
from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.ncsym import NCExpansion, skew_schur, source_skew_schur, to_commutative
from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition, relabel, set_partitions
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


def test_conditions_one_and_two_are_the_table_partner():
    """A pair of distinct connected diagrams fails condition 1 or 2 exactly
    when the second is not the first's partner in the sweep's table."""
    for n in range(1, 7):
        diagrams = list(connected_diagrams(n))
        identity = Permutation.identity(n)
        for d in diagrams:
            partner = classify._entry(d).partner
            for t in diagrams:
                if t != d:
                    fails = failing_condition(LabeledDiagram(identity, d), LabeledDiagram(identity, t))
                    assert (fails in (1, 2)) == (partner != t), (d, t)


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


def test_verify_caps_the_workers_at_the_cores(monkeypatch):
    """jobs beyond os.cpu_count() start no more workers; with one core the
    sweep runs in this process and the report is unchanged."""
    base = verify_exhaustive(4)

    def no_worker(*args, **kwargs):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(classify.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(classify, "_start_worker", no_worker)
    assert verify_exhaustive(4, jobs=64) == base


def test_fingerprint_filter_never_skips_a_rotation_pair(monkeypatch):
    """Even if every diagram had a fingerprint of its own, the pairs meeting
    conditions 1 and 2 would still get the full check: the report is the
    bucketed sweep's, the distinct pairs relabels_to sees are exactly the
    rotation pairs, and the labelings it sees for a rotation pair represent
    its whole predicted coset.  relabels_to decides one sigma per right
    coset of the Young subgroup of the first diagram's cells, so a predicted
    sigma is covered when some sigma that reached relabels_to maps every
    cell onto the same image set.  The identity fixes every expansion, so
    it never reaches relabels_to on a same-diagram pair."""
    n = 5
    base = verify_exhaustive(n)
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
    assert report == base
    assert set(reached) - same_diagram_pairs == rotation_pairs
    assert not any(tuple(range(1, n + 1)) in reached.get(pair, ()) for pair in same_diagram_pairs)

    def cell_images(images, cells):
        return tuple(frozenset(images[x - 1] for x in cell) for cell in cells)

    for k, target in rotation_pairs:
        rows = SetPartition.from_composition(diagrams[k].row_lengths())
        predicted = {p.images for p in symmetric_group(n) if p.bar().preserves_blocks(rows)}
        assert len(predicted) == diagrams[k].row_lengths().factorial()
        cells = entries[k].cells
        covered = {cell_images(images, cells) for images in reached[k, target]}
        assert {cell_images(images, cells) for images in predicted} <= covered


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


def _scan(n, wrong=False, atoms=None):
    """The sweep decided labeling by labeling, kept as the kernel's oracle:
    for every ordered pair of connected diagrams and every sigma in S_n,
    relabels_to is the observed verdict and the predicate is conditions 1
    and 2 with sigma's complement fixing the row intervals; for
    same-diagram pairs the condition is sigma fixing every block of every
    key of the source expansion, or every block of atoms(d) when atoms is
    given.  With wrong=True, condition 3 reads sigma itself instead of its
    complement and the same-diagram condition holds for every sigma."""
    diagrams = list(connected_diagrams(n))
    count = len(diagrams)
    perms = list(itertools.permutations(range(1, n + 1)))
    checks = agreements = pairs = same_checks = same_equal = same_condition = 0
    found = []
    for i, d in enumerate(diagrams):
        src = source_skew_schur(d)
        rows = tuple((b[0], b[-1]) for b in SetPartition.from_composition(d.row_lengths()).blocks)
        blocks = {(b[0], b[-1]) for key in src.support() for b in key.blocks}
        if atoms is not None:
            blocks = {(b[0], b[-1]) for b in atoms(d)}
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


def _per_coset_block_maps(choices):
    """Every sigma mapping each source block onto one of its candidate
    target blocks, no target taken twice: every bijection inside each."""
    images = [0] * sum(len(source) for source, _ in choices)
    used = set()

    def extend(k):
        source, candidates = choices[k]
        for target in candidates:
            if target in used:
                continue
            used.add(target)
            for perm in itertools.permutations(target):
                for e, v in zip(source, perm):
                    images[e - 1] = v
                if k == len(choices) - 1:
                    yield tuple(images)
                else:
                    yield from extend(k + 1)
            used.discard(target)

    return extend(0)


def _per_coset_observed(first, second):
    """Every sigma with act(sigma, E_D) == E_T, decided one at a time over
    the cosets of the pivot's stabilizer."""
    target = second.expansion
    if len(first.expansion) != len(target):
        return
    candidates = second.keys_by_signature
    _stabilizer, sig = min(
        first.signatures, key=lambda item: item[0] * len(candidates.get(item[1], ()))
    )
    pivot = first.keys_by_signature[sig][0]
    for key in candidates.get(sig, ()):
        choices = [(block, tuple(c for c in key if len(c) == len(block))) for block in pivot]
        for images in _per_coset_block_maps(choices):
            if first.expansion.relabels_to(images, target):
                yield images


def _per_coset(n):
    """The indexed sweep kernel without the Young subgroup quotient, kept as
    an oracle for it: the sigma of every pivot coset, of every predicted
    coset and of the atoms' Young subgroup are decided one at a time."""
    entries = classify._table(n)
    count = len(entries)
    per_pair = math.factorial(n)
    found = []
    pairs = same_equal = same_condition = 0
    for i, first in enumerate(entries):
        pairs += count - 1
        same_equal += sum(1 for _ in _per_coset_observed(first, first))
        for images in _per_coset_block_maps([(atom, (atom,)) for atom in first.atoms]):
            same_condition += 1
            if not first.expansion.relabels_to(images, first.expansion):
                found.append(Disagreement(i * count + i, i, i, images, True, False))
        for j, second in enumerate(entries):
            conditions_12 = second.diagram == first.partner
            if j == i or (not conditions_12 and first.fingerprint != second.fingerprint):
                continue
            for images in _per_coset_observed(first, second):
                if not (conditions_12 and classify._meets_condition_3(images, first.rows)):
                    found.append(Disagreement(i * count + j, i, j, images, False, True))
            if conditions_12:
                predicted = [(block, (classify._row_target(block, n),)) for block in first.rows]
                for images in _per_coset_block_maps(predicted):
                    if not first.expansion.relabels_to(images, second.expansion):
                        found.append(Disagreement(i * count + j, i, j, images, True, False))
    checks = count * count * per_pair
    return VerificationReport(
        size=n,
        diagram_count=count,
        pair_count=pairs,
        coset_checks=checks,
        agreements=checks - len(found),
        disagreements=tuple(sorted(found, key=lambda d: (d.pair_index, d.labeling))),
        same_diagram_checks=count * per_pair,
        same_diagram_equal=same_equal,
        same_diagram_condition=same_condition,
    )


def test_kernel_matches_the_labeling_scan():
    for n in range(1, 6):
        scan = _scan(n)
        for jobs in (1, 2):
            for prune in (False, True):
                assert verify_exhaustive(n, jobs, prune) == scan, (n, jobs, prune)


def test_kernel_matches_the_per_coset_kernel():
    for n in range(1, 8):
        per_coset = _per_coset(n)
        report = verify_exhaustive(n)
        assert report == per_coset and repr(report) == repr(per_coset), n


def test_right_multiplication_convention():
    """sigma y, the sigma the quotient stands for, is x -> sigma(y(x)):
    Permutation's product, and relabeling by it is relabeling by y, then by
    sigma.  So y fixing every key of E_D makes sigma y relabel E_D as sigma
    does, and _coset yields exactly the sigma y with y in the pieces' Young
    subgroup."""
    perms = list(symmetric_group(4))
    partitions = [pi.blocks for pi in set_partitions(4)]
    for sigma in perms:
        for y in perms:
            composed = (sigma * y).images
            assert composed == tuple(sigma.images[y.images[x] - 1] for x in range(4))
            for blocks in partitions:
                assert relabel(composed, blocks) == relabel(sigma.images, relabel(y.images, blocks))
    for pieces in (((1, 3), (2,), (4,)), ((1, 2, 4), (3,)), ((1,), (2,), (3,), (4,))):
        young = [y for y in perms if y.preserves_blocks(SetPartition._trusted(pieces))]
        for sigma in perms[::5]:
            expected = {(sigma * y).images for y in young}
            coset = list(classify._coset(sigma.images, pieces))
            assert len(coset) == len(young) == classify._young_order(pieces)
            assert set(coset) == expected
    for n in range(1, 9):
        for e in classify._table(n):
            for cell in e.cells:
                for a, b in zip(cell, cell[1:]):
                    swap = list(range(1, n + 1))
                    swap[a - 1], swap[b - 1] = b, a
                    for key in e.expansion.support():
                        assert relabel(tuple(swap), key.blocks) == key.blocks


def test_cells_are_the_atoms():
    """Cutting the atoms along the row blocks cuts nothing: every atom of
    every connected diagram with n <= 8 lies inside one row block."""
    for n in range(1, 9):
        for e in classify._table(n):
            assert e.cells == e.atoms == classify._atoms(e.diagram), e.diagram


def _reference_entry(d):
    """The table entry built the long way: atoms by scanning every block
    of every key for every point, stabilizer orders from a Counter of the
    block sizes, colours counted key by key and point by point."""
    src = source_skew_schur(d)
    n = d.size
    keys_by_signature = {}
    colours = [[0] * n for _ in range(n)]
    for key, coeff in src.items():
        sig = tuple(sorted(len(b) for b in key.blocks)), coeff.numerator, coeff.denominator
        keys_by_signature.setdefault(sig, []).append(key.blocks)
        for block in key.blocks:
            for x in block:
                colours[x - 1][len(block) - 1] += 1
    blocks = {block for key in src.support() for block in key.blocks}
    grouped = {}
    for x in range(1, n + 1):
        grouped.setdefault(tuple(sorted(b for b in blocks if x in b)), []).append(x)
    atoms = tuple(tuple(atom) for atom in grouped.values())
    rows = classify.interval_blocks(d.row_lengths().parts)

    def stabilizer_order(key):
        sizes = Counter(len(block) for block in key)
        return math.prod(math.factorial(s) ** m * math.factorial(m) for s, m in sizes.items())

    rotated = d.rotate()
    return classify._Entry(
        diagram=d,
        expansion=src,
        keys_by_signature={sig: tuple(keys) for sig, keys in keys_by_signature.items()},
        signatures=tuple((stabilizer_order(keys[0]), sig) for sig, keys in keys_by_signature.items()),
        fingerprint=tuple(sorted((sig, len(keys)) for sig, keys in keys_by_signature.items())),
        rows=rows,
        atoms=atoms,
        cells=tuple(
            piece for atom in atoms for row in rows if (piece := tuple(x for x in atom if x in row))
        ),
        colours=tuple(map(tuple, colours)),
        partner=rotated if d.is_ribbon() and rotated != d else None,
    )


def test_entry_matches_the_reference_entry():
    """The one-pass entry equals the one built the long way, field for
    field, for every connected diagram with n <= 8."""
    for n in range(1, 9):
        for d in connected_diagrams(n):
            got, want = classify._entry(d), _reference_entry(d)
            for field in dataclasses.fields(classify._Entry):
                assert getattr(got, field.name) == getattr(want, field.name), (d, field.name)


@contextlib.contextmanager
def _fails_after(seconds):
    """Raise in this process if the block runs longer than seconds."""

    def hung(*_):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_failing_worker_makes_the_sweep_raise(monkeypatch):
    """A worker whose sweep raises, or which dies, makes verify_exhaustive
    raise at once instead of waiting, and every worker is reaped by the
    time it returns.  Only the chunks without row 0 fail: this process
    sweeps the chunk with row 0, so the failure is a worker's."""
    verify_rows = classify._verify_rows
    start_worker = classify._start_worker
    started = []

    def raising(n, rows):
        if 0 not in rows:
            raise ValueError("a failing worker")
        return verify_rows(n, rows)

    def dying(n, rows):
        if 0 not in rows:
            os._exit(3)
        return verify_rows(n, rows)

    def recording_start_worker(*args):
        worker = start_worker(*args)
        started.append(worker[0])
        return worker

    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(classify, "_start_worker", recording_start_worker)
    for fault, code in ((raising, 1), (dying, 3)):
        started.clear()
        monkeypatch.setattr(classify, "_verify_rows", fault)
        with _fails_after(60), pytest.raises(RuntimeError, match=f"exited with code {code}"):
            verify_exhaustive(5, jobs=2)
        assert len(started) == 1
        assert all(process.exitcode is not None for process in started)
        assert multiprocessing.active_children() == []


def test_relabeling_keeps_colours():
    """Brute force over every ordered pair of connected diagrams with
    n <= 6, same-diagram pairs included, and every sigma in S_n: a sigma
    with act(sigma, E_D) == E_T maps each point to a point of E_T with the
    point's colour in E_D, so _observed may deal by colour."""
    distinct_hits = 0
    for n in range(1, 7):
        entries = classify._table(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        for i, first in enumerate(entries):
            for j, second in enumerate(entries):
                for p in perms:
                    if first.expansion.relabels_to(p, second.expansion):
                        distinct_hits += i != j
                        for x in range(1, n + 1):
                            assert second.colours[p[x - 1] - 1] == first.colours[x - 1], (
                                first.diagram,
                                second.diagram,
                                p,
                            )
    assert distinct_hits


def test_colours_are_exact_counts_constant_on_cells():
    """A colour counts, for each block size k, the keys whose block holding
    the point has k points, in plain ints; points of one cell lie in the
    same blocks, so they share a colour, for every connected diagram with
    n <= 8."""
    for n in range(1, 9):
        for e in classify._table(n):
            keys = [key.blocks for key in e.expansion.support()]
            for x in range(1, n + 1):
                colour = e.colours[x - 1]
                assert all(type(c) is int for c in colour)
                holding = [len(b) for key in keys for b in key if x in b]
                assert colour == tuple(holding.count(k) for k in range(1, n + 1))
            for cell in e.cells:
                assert len({e.colours[x - 1] for x in cell}) == 1, (e.diagram, cell)


def test_rows_phase_deals_by_colour(monkeypatch):
    """Dealing each piece only the target points of its colour, and taking
    the identity undecided on a same-diagram row, leaves the sweep of n=7
    at most 250 labelings to decide (1,918 without colours, 333 deciding
    the identity): no same-diagram row decides the identity."""
    classify._table(7)
    calls = []
    relabels_to = NCExpansion.relabels_to

    def counting_relabels_to(*args):
        calls.append(args)
        return relabels_to(*args)

    monkeypatch.setattr(NCExpansion, "relabels_to", counting_relabels_to)
    report = verify_exhaustive(7)
    assert report.ok and report.same_diagram_equal == 9182
    assert len(calls) <= 250
    identity = tuple(range(1, 8))
    assert not [c for c in calls if c[0] is c[2] and c[1] == identity]


def test_row_blocks_are_a_key_of_the_source_expansion():
    """h of the row blocks is the identity's determinant term, and no other
    term has the row lengths as its nonzero subscripts, so it survives with
    coefficient 1 / prod r_i! for every connected diagram with n <= 8."""
    for n in range(1, 9):
        for d in connected_diagrams(n):
            rows = SetPartition.from_composition(d.row_lengths())
            coefficient = source_skew_schur(d).coefficient(rows)
            assert coefficient == Fraction(1, d.row_lengths().factorial()), d


def test_building_the_table_decides_no_labeling(monkeypatch):
    """The cells come from the atoms and rows alone: building the table
    makes no relabels_to call."""
    calls = []
    relabels_to = NCExpansion.relabels_to

    def counting_relabels_to(*args):
        calls.append(args)
        return relabels_to(*args)

    monkeypatch.setattr(NCExpansion, "relabels_to", counting_relabels_to)
    classify._table.cache_clear()
    try:
        for n in range(1, 8):
            classify._table(n)
    finally:
        classify._table.cache_clear()
    assert not calls


def test_false_atoms_leave_the_quotient_alone(monkeypatch):
    """With the row blocks passed off as atoms, which they are only for
    ribbons, the cells stay the true atoms, so the quotient is unchanged,
    and the kernel reports what the scan and the per-coset kernel do with
    the rows as the block condition."""
    entry = classify._entry

    def rows_as_atoms(d):
        return dataclasses.replace(entry(d), atoms=classify.interval_blocks(d.row_lengths().parts))

    monkeypatch.setattr(classify, "_entry", rows_as_atoms)
    classify._table.cache_clear()
    try:
        for n in (4, 5):
            true_atoms = [classify._atoms(d) for d in connected_diagrams(n)]
            entries = classify._table(n)
            assert [e.cells for e in entries] == true_atoms
            assert any(e.atoms != atoms for e, atoms in zip(entries, true_atoms))
            scan = _scan(n, atoms=lambda d: classify.interval_blocks(d.row_lengths().parts))
            assert any(d.first == d.second for d in scan.disagreements)
            assert _per_coset(n) == scan
            for jobs in (1, 2):
                assert verify_exhaustive(n, jobs) == scan, (n, jobs)
    finally:
        classify._table.cache_clear()


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


@pytest.mark.slow
def test_verify_eight_matches_the_per_coset_kernel():
    assert verify_exhaustive(8) == _per_coset(8)


@pytest.mark.slow
def test_verify_nine_counters():
    report = verify_exhaustive(9)
    assert (report.diagram_count, report.pair_count, report.coset_checks) == (
        557,
        309692,
        112583157120,
    )
    assert report.agreements == report.coset_checks and report.ok
    assert (
        report.same_diagram_checks,
        report.same_diagram_equal,
        report.same_diagram_condition,
    ) == (202124160, 553850, 547263)


@pytest.mark.slow
def test_verify_ten_counters():
    report = verify_exhaustive(10, jobs=2)
    count, pairs = 1285, 1649940
    assert pairs == count * (count - 1)
    assert (report.diagram_count, report.pair_count) == (count, pairs)
    # every ordered pair, the same-diagram ones included, over all of S_10
    assert report.coset_checks == count * count * math.factorial(10)
    assert report.agreements == report.coset_checks and report.ok
    assert (
        report.same_diagram_checks,
        report.same_diagram_equal,
        report.same_diagram_condition,
    ) == (4663008000, 5185854, 5123487)
    assert report.same_diagram_checks == count * math.factorial(10)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_exhaustive(0)
    with pytest.raises(ValueError):
        verify_exhaustive(3, jobs=0)
