import gc
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from ncskew import classify, cli, ncsym, sym
from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.ncsym import NCExpansion, h, skew_schur, source_skew_schur, to_commutative
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


def _table(n):
    """The per-diagram table verify_exhaustive builds for size n."""
    return tuple(classify._entry(d) for d in connected_diagrams(n))


def _relabels_to_calls(monkeypatch):
    """Patch NCExpansion.relabels_to to record its arguments; return the
    list each call is appended to."""
    calls = []
    relabels_to = NCExpansion.relabels_to

    def counting_relabels_to(*args):
        calls.append(args)
        return relabels_to(*args)

    monkeypatch.setattr(NCExpansion, "relabels_to", counting_relabels_to)
    return calls


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


def test_predicate_meets_the_oracle_on_every_labeling():
    """predicts_equal gives expansions_equal's verdict for every labeling
    sigma of D against the identity on T: D a nonsymmetric ribbon with
    n <= 6 and T its rotation, where condition 3 decides, and every
    distinct pair with n <= 4."""
    pairs = {(d, d.rotate()) for n in range(1, 7) for d in map(ribbon, compositions(n))}
    pairs = {(d, t) for d, t in pairs if d != t}
    for n in range(1, 5):
        diagrams = connected_diagrams(n)
        pairs |= {(d, t) for d in diagrams for t in diagrams if d != t}
    verdicts = Counter()
    for d, t in pairs:
        target = LabeledDiagram(Permutation.identity(d.size), t)
        for sigma in symmetric_group(d.size):
            a = LabeledDiagram(sigma, d)
            verdict = expansions_equal(a, target)
            assert predicts_equal(a, target) == verdict, (sigma, d, t)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


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
    for n in range(2, 8):
        for alpha in compositions(n):
            if alpha == alpha.reverse():
                continue
            assert count_equivalent(ribbon(alpha)) == alpha.factorial(), alpha


def test_count_equivalent_rejects_bad_input():
    with pytest.raises(ValueError):
        count_equivalent(SkewDiagram(Partition((1, 1))))  # symmetric ribbon
    with pytest.raises(ValueError):
        count_equivalent(SkewDiagram(Partition((2, 2))))  # not a ribbon
    with pytest.raises(ValueError):
        count_equivalent(SkewDiagram(Partition((2, 1)), Partition((1,))))  # disconnected


def test_the_public_verdicts_read_the_expansion_cache(monkeypatch):
    """same_diagram_verdict and count_equivalent are called again and again
    on one diagram, so they take E_D from source_skew_schur's cache; only
    the sweep's table expands afresh through _jacobi_trudi."""

    def no_fresh_walk(d):
        raise AssertionError(f"{d} expanded afresh")

    monkeypatch.setattr(classify, "_jacobi_trudi", no_fresh_walk)
    source_skew_schur.cache_clear()
    for sigma in symmetric_group(3):
        same_diagram_verdict(sigma, HOOK)
    assert count_equivalent(HOOK) == 2
    info = source_skew_schur.cache_info()
    assert (info.misses, info.hits) == (2, 6)


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
    with pytest.raises(ValueError, match="labeling size 2 differs from diagram size 3"):
        same_diagram_verdict(Permutation((2, 1)), HOOK)
    with pytest.raises(ValueError, match="labeled diagrams must be connected"):
        same_diagram_verdict(
            Permutation.identity(2), SkewDiagram(Partition((2, 1)), Partition((1,)))
        )


def test_support_keys_are_the_surviving_term_keys():
    """The block condition reads the keys of the source expansion; they are
    exactly the interval set partitions of the surviving determinant terms,
    so no surviving term cancels away, and no two surviving terms share a
    key."""
    for n in range(1, 8):
        for d in connected_diagrams(n):
            surviving = {
                SetPartition.from_composition(Composition(subs))
                for subs, _sign in d.surviving_terms()
            }
            assert source_skew_schur(d).support() == surviving, d
            assert len(source_skew_schur(d)) == d.term_count(), d


@pytest.mark.slow
def test_one_key_per_surviving_term_up_to_twelve():
    """Every surviving determinant term keeps a key of its own, for every
    connected diagram with n <= 12: 6,842 diagrams of size 12 alone."""
    for n in range(1, 13):
        for d in connected_diagrams(n):
            assert len(source_skew_schur(d)) == d.term_count(), d


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


def test_verify_prune_and_jobs_change_nothing(monkeypatch):
    """jobs and prune are validated and otherwise ignored: every jobs and
    prune give the jobs=1 report, with no process forked or started."""
    base = verify_exhaustive(4)

    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr("os.fork", no_process)
    monkeypatch.setattr("multiprocessing.process.BaseProcess.start", no_process)
    for jobs in (1, 2, 64):
        for prune in (False, True):
            assert verify_exhaustive(4, jobs, prune) == base, (jobs, prune)


def test_no_entry_outlives_the_sweep():
    """verify_exhaustive builds its table per call, so no _Entry is left
    alive once it returns.  A live _Entry is tracked by the collector, so
    gc.get_objects() would list one that outlived the sweep."""
    assert gc.is_tracked(classify._entry(HOOK))
    verify_exhaustive(6)
    gc.collect()
    assert sum(isinstance(o, classify._Entry) for o in gc.get_objects()) == 0


def _refingerprint(monkeypatch, fingerprint):
    """Patch classify._entry so that the entry of d has fingerprint(d) and
    is otherwise the real one; return the list the patched _entry appends
    each entry it builds to."""
    entries = []
    entry = classify._entry

    def patched(d):
        built = entry(d)
        fields = {name: getattr(built, name) for name in classify._Entry.__slots__}
        entries.append(classify._Entry(**{**fields, "fingerprint": fingerprint(d)}))
        return entries[-1]

    monkeypatch.setattr(classify, "_entry", patched)
    return entries


def _shared_class_rows(diagrams):
    """The same-diagram pairs (d, d) the sweep hands to _observed: those of
    the diagrams with an atom class of more than one atom.  A row whose
    classes are all single atoms counts |Y| without it."""
    return [
        (d, d)
        for d in diagrams
        if len((entry := classify._entry(d)).classes) < len(entry.atoms)
    ]


def _rotation_pairs(diagrams):
    """The (k, l) with diagrams[l] the rotation of the nonsymmetric ribbon
    diagrams[k]."""
    return {
        (k, diagrams.index(d.rotate()))
        for k, d in enumerate(diagrams)
        if d.is_ribbon() and not d.is_symmetric()
    }


def test_fingerprint_filter_never_skips_a_rotation_pair(monkeypatch):
    """Even if every diagram had a fingerprint of its own, the pairs meeting
    conditions 1 and 2 would still get the full check: the report is the
    bucketed sweep's, the distinct pairs relabels_to sees are exactly the
    rotation pairs, and the labelings it sees for a rotation pair represent
    its whole predicted coset.  relabels_to decides one sigma per right
    coset of the Young subgroup of the first diagram's atoms, so a predicted
    sigma is covered when some sigma that reached relabels_to maps every
    atom onto the same image set.  The identity fixes every expansion, so
    it never reaches relabels_to on a same-diagram pair.  The expansions
    relabels_to sees are told apart by identity, so the patched _entry
    records the table the run itself builds."""
    n = 5
    base = verify_exhaustive(n)
    checked = []
    relabels_to = NCExpansion.relabels_to

    def recording_relabels_to(*args):
        checked.append(args)
        return relabels_to(*args)

    entries = _refingerprint(monkeypatch, lambda d: d)
    monkeypatch.setattr(NCExpansion, "relabels_to", recording_relabels_to)
    report = verify_exhaustive(n)
    diagrams = [e.diagram for e in entries]
    assert diagrams == connected_diagrams(n)
    index = {id(e.expansion): k for k, e in enumerate(entries)}
    reached = {}
    for source, images, target in checked:
        reached.setdefault((index[id(source)], index[id(target)]), set()).add(images)
    same_diagram_pairs = {(k, k) for k in range(len(diagrams))}
    rotation_pairs = _rotation_pairs(diagrams)
    assert rotation_pairs
    assert report == base
    assert set(reached) - same_diagram_pairs == rotation_pairs
    assert not any(tuple(range(1, n + 1)) in reached.get(pair, ()) for pair in same_diagram_pairs)

    def atom_images(images, atoms):
        return tuple(frozenset(images[x - 1] for x in atom) for atom in atoms)

    for k, target in rotation_pairs:
        rows = SetPartition.from_composition(diagrams[k].row_lengths())
        predicted = {p.images for p in symmetric_group(n) if p.bar().preserves_blocks(rows)}
        assert len(predicted) == diagrams[k].row_lengths().factorial()
        atoms = entries[k].atoms
        covered = {atom_images(images, atoms) for images in reached[k, target]}
        assert {atom_images(images, atoms) for images in predicted} <= covered


def test_bucket_mates_that_are_not_a_rotation_pair(monkeypatch):
    """Every bucket of the real table up to size 12 is one diagram or a
    rotation pair, so this puts all 20 diagrams of size 5 in one bucket:
    the report does not change, and _observed is handed every one of the
    380 distinct pairs once, and each same-diagram pair with an atom class
    of more than one atom.  A pair of bucket mates that is not a rotation
    pair predicts no sigma, so when _observed also accepts the identity on
    each of those 368 pairs, the disagreements are exactly those pairs'
    identity cosets, each labeling observed and not predicted."""
    n = 5
    base = verify_exhaustive(n)
    diagrams = connected_diagrams(n)
    rotations = {(diagrams[k], diagrams[l]) for k, l in _rotation_pairs(diagrams)}
    entries = _refingerprint(monkeypatch, lambda d: ())
    observed = classify._observed
    handed = []

    def recording_observed(first, second):
        handed.append((first.diagram, second.diagram))
        return observed(first, second)

    monkeypatch.setattr(classify, "_observed", recording_observed)
    assert verify_exhaustive(n) == base
    distinct = [(d, e) for d, e in itertools.product(diagrams, repeat=2) if d != e]
    assert len(distinct) == 380
    assert Counter(handed) == Counter(distinct + _shared_class_rows(diagrams))

    identity = tuple(range(1, n + 1))

    def identity_too(first, second):
        yield from observed(first, second)
        if first is not second and (first.diagram, second.diagram) not in rotations:
            yield identity

    monkeypatch.setattr(classify, "_observed", identity_too)
    entries.clear()
    report = verify_exhaustive(n)
    others = [
        (k, l)
        for k, l in itertools.product(range(len(diagrams)), repeat=2)
        if k != l and (diagrams[k], diagrams[l]) not in rotations
    ]
    assert len(others) == 368
    assert {(d.first, d.second) for d in report.disagreements} == set(others)
    assert all((d.predicted, d.observed) == (False, True) for d in report.disagreements)
    assert sorted((d.first, d.second, d.labeling) for d in report.disagreements) == sorted(
        (k, l, sigma) for k, l in others for sigma in classify._coset(identity, entries[k].atoms)
    )


def _assert_buckets_are_rotation_pairs(n):
    """Every fingerprint of the table of size n is held by one diagram, or
    by a nonsymmetric ribbon D and its rotation, which then share their
    overlap partitions and their commutative image; and every nonsymmetric
    ribbon shares its fingerprint with its rotation."""
    entries = _table(n)
    buckets = {}
    for e in entries:
        buckets.setdefault(e.fingerprint, []).append(e)
    for bucket in buckets.values():
        if len(bucket) == 1:
            continue
        assert len(bucket) == 2, [e.diagram for e in bucket]
        d, t = (e.diagram for e in bucket)
        assert d.is_ribbon() and not d.is_symmetric() and t == d.rotate(), (d, t)
        assert overlap_partitions(d) == overlap_partitions(t), (d, t)
        assert to_commutative(bucket[0].expansion) == to_commutative(bucket[1].expansion), (d, t)
    for e in entries:
        if e.partner is not None:
            assert e.partner in [mate.diagram for mate in buckets[e.fingerprint]], e.diagram


def test_fingerprint_buckets_are_a_diagram_or_a_ribbon_and_its_rotation():
    """The fingerprint filter skips every pair the overlap condition would,
    and every pair with a different commutative image, for n <= 8: no two
    diagrams share a fingerprint unless they are a rotation pair."""
    for n in range(1, 9):
        _assert_buckets_are_rotation_pairs(n)


@pytest.mark.slow
def test_fingerprint_buckets_up_to_twelve():
    for n in range(9, 13):
        _assert_buckets_are_rotation_pairs(n)


def test_sweep_visits_only_same_diagram_and_rotation_pairs(monkeypatch):
    """The fingerprint filter does its job in the sweep: for n <= 7 the
    pairs handed to _observed are exactly the rotation pairs and the
    same-diagram pairs with an atom class of more than one atom."""
    observed = classify._observed
    visited = []

    def recording_observed(first, second):
        visited.append((first.diagram, second.diagram))
        return observed(first, second)

    monkeypatch.setattr(classify, "_observed", recording_observed)
    for n in range(1, 8):
        visited.clear()
        verify_exhaustive(n)
        diagrams = list(connected_diagrams(n))
        rotations = [(d, d.rotate()) for d in diagrams if d.is_ribbon() and not d.is_symmetric()]
        assert Counter(visited) == Counter(_shared_class_rows(diagrams) + rotations), n


def test_an_all_singleton_row_observes_only_the_identity(monkeypatch):
    """A same-diagram row whose classes are all single atoms, which the
    sweep counts without _observed, would get only the undecided identity
    from it: for n <= 7, _observed(e, e) yields exactly the identity on
    such a row, with no relabels_to call, and every size from 2 on has such
    rows and rows with a larger class."""
    calls = _relabels_to_calls(monkeypatch)
    for n in range(1, 8):
        table = _table(n)
        singletons = [e for e in table if len(e.classes) == len(e.atoms)]
        assert n == 1 or 0 < len(singletons) < len(table), n
        for entry in singletons:
            assert list(classify._observed(entry, entry)) == [tuple(range(1, n + 1))]
    assert not calls


def _sweep_decisions(monkeypatch, n):
    """How many relabels_to calls verify_exhaustive(n) makes."""
    calls = _relabels_to_calls(monkeypatch)
    verify_exhaustive(n)
    return len(calls)


def test_the_sweep_decides_the_same_labelings(monkeypatch):
    """The all-singleton shortcut skips no decision of the oracle: the
    relabels_to calls of verify_exhaustive(n) for n = 1..8 are as many as
    when every same-diagram row went through _observed."""
    counts = [_sweep_decisions(monkeypatch, n) for n in range(1, 9)]
    assert counts == [0, 1, 3, 9, 17, 43, 77, 181]


@pytest.mark.slow
def test_the_sweep_decides_the_same_labelings_at_ten(monkeypatch):
    """README's count of the labelings verify 10 decides."""
    assert _sweep_decisions(monkeypatch, 10) == 711


def test_observed_decides_nothing_when_the_classes_differ(monkeypatch):
    """_observed checks the classes itself, apart from the sweep's filter:
    on every ordered pair of connected diagrams with n <= 7 whose atom
    classes differ in a key or a size, it yields nothing and makes no
    relabels_to call."""

    def no_decision(*args):
        raise AssertionError("relabels_to was called")

    monkeypatch.setattr(NCExpansion, "relabels_to", no_decision)
    skipped = 0
    for n in range(1, 8):
        entries = _table(n)
        for first in entries:
            shape = [(key, len(group)) for key, group in first.classes]
            for second in entries:
                if shape != [(key, len(group)) for key, group in second.classes]:
                    skipped += 1
                    assert list(classify._observed(first, second)) == [], (
                        first.diagram,
                        second.diagram,
                    )
    assert skipped


def _fixes_intervals(images, intervals):
    return all(a <= images[x - 1] <= b for a, b in intervals for x in range(a, b + 1))


def _scan(n, wrong=False):
    """The sweep decided labeling by labeling, kept as the kernel's oracle:
    for every ordered pair of connected diagrams and every sigma in S_n,
    relabels_to is the observed verdict and the predicate is conditions 1
    and 2 with sigma's complement fixing the row intervals; for
    same-diagram pairs the condition is sigma fixing every block of every
    key of the source expansion.  With wrong=True, condition 3 reads sigma
    itself instead of its complement."""
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
                    predicted = _fixes_intervals(p, blocks)
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


def _stabilizer_order(key):
    """How many sigma relabel the set partition key onto itself: permute
    inside each block, and the m blocks of each size among themselves."""
    sizes = Counter(len(block) for block in key)
    return math.prod(math.factorial(s) ** m * math.factorial(m) for s, m in sizes.items())


def _keys_by_signature(expansion):
    """The keys of the expansion grouped by signature, each group sorted."""
    grouped = {}
    for raw, coeff in expansion._terms.items():
        sig = tuple(sorted(map(len, raw))), coeff.numerator, coeff.denominator
        grouped.setdefault(sig, []).append(raw)
    return {sig: tuple(sorted(keys)) for sig, keys in grouped.items()}


def _signature_fingerprint(expansion):
    """The sorted (term signature, number of keys with it) pairs of the
    expansion, which every sigma keeps: a filter of the tests' own, apart
    from the kernel's atom classes."""
    return tuple(sorted((sig, len(keys)) for sig, keys in _keys_by_signature(expansion).items()))


def _per_coset_observed(first, second):
    """Every sigma with act(sigma, E_D) == E_T, decided one at a time over
    the cosets of the pivot's stabilizer.  The pivot is a key whose
    signature leaves the fewest sigma to decide: stabilizer order times the
    number of keys of E_T with that signature.  The kernel matches atoms
    instead, and pivots on no key."""
    target = second.expansion
    if len(first.expansion) != len(target):
        return
    groups, candidates = _keys_by_signature(first.expansion), _keys_by_signature(target)
    sig = min(
        groups,
        key=lambda sig: _stabilizer_order(groups[sig][0]) * len(candidates.get(sig, ())),
    )
    pivot = groups[sig][0]
    for key in candidates.get(sig, ()):
        choices = [(block, tuple(c for c in key if len(c) == len(block))) for block in pivot]
        for images in _per_coset_block_maps(choices):
            if first.expansion.relabels_to(images, target):
                yield images


def _per_coset(n):
    """The indexed sweep kernel without the Young subgroup quotient, kept as
    an oracle for it: the sigma of every pivot coset, of every predicted
    coset and of the atoms' Young subgroup are decided one at a time, and
    pairs are skipped by term signatures, not by the kernel's fingerprint."""
    entries = _table(n)
    fingerprints = [_signature_fingerprint(e.expansion) for e in entries]
    count = len(entries)
    per_pair = math.factorial(n)
    found = []
    pairs = same_equal = same_condition = 0
    for i, first in enumerate(entries):
        rows = tuple((block[0], block[-1]) for block in first.rows)
        pairs += count - 1
        same_equal += sum(1 for _ in _per_coset_observed(first, first))
        for images in _per_coset_block_maps([(atom, (atom,)) for atom in first.atoms]):
            same_condition += 1
            if not first.expansion.relabels_to(images, first.expansion):
                found.append(Disagreement(i * count + i, i, i, images, True, False))
        for j, second in enumerate(entries):
            conditions_12 = second.diagram == first.partner
            if j == i or (not conditions_12 and fingerprints[i] != fingerprints[j]):
                continue
            for images in _per_coset_observed(first, second):
                complement = tuple(n + 1 - v for v in images)
                if not (conditions_12 and _fixes_intervals(complement, rows)):
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
        assert verify_exhaustive(n) == _scan(n), n


def test_kernel_matches_the_per_coset_kernel():
    for n in range(1, 8):
        per_coset = _per_coset(n)
        report = verify_exhaustive(n)
        assert report == per_coset and repr(report) == repr(per_coset), n


def test_an_unobserved_predicted_coset_is_reported(monkeypatch):
    """The predicted cosets are looked up among the sigma _observed yields,
    not decided apart from it, so if _observed dropped the first coset it
    yields for each rotation pair, every labeling of the dropped cosets
    would be reported as predicted and not observed, and nothing else."""
    observed = classify._observed
    dropped = []

    def dropping_first(first, second):
        found = observed(first, second)
        if second.diagram == first.partner:
            images = next(found)
            dropped.extend(
                (first.diagram, second.diagram, sigma)
                for sigma in classify._coset(images, first.atoms)
            )
        return found

    monkeypatch.setattr(classify, "_observed", dropping_first)
    report = verify_exhaustive(5)
    diagrams = list(connected_diagrams(5))
    assert dropped
    assert {(d.predicted, d.observed) for d in report.disagreements} == {(True, False)}
    reported = [(diagrams[d.first], diagrams[d.second], d.labeling) for d in report.disagreements]
    assert len(reported) == len(dropped) and set(reported) == set(dropped)


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
        for e in _table(n):
            for atom in e.atoms:
                for a, b in zip(atom, atom[1:]):
                    swap = list(range(1, n + 1))
                    swap[a - 1], swap[b - 1] = b, a
                    for key in e.expansion.support():
                        assert relabel(tuple(swap), key.blocks) == key.blocks


def test_the_predicted_coset_is_the_predicate_set():
    """For every nonsymmetric ribbon d with n <= 6 and T its rotation
    labeled by the identity, the coset of sigma_0 = _predicted over the rows
    is exactly the set of sigma for which the predicate accepts
    (sigma, d) against (id, T).  It has prod r_i! elements, which is
    count_equivalent(d), and sigma_0 increases on each row."""
    for n in range(1, 7):
        perms = list(symmetric_group(n))
        for e in _table(n):
            if e.partner is None:
                continue
            target = LabeledDiagram(Permutation.identity(n), e.partner)
            accepted = {
                sigma.images
                for sigma in perms
                if failing_condition(LabeledDiagram(sigma, e.diagram), target) is None
            }
            sigma_0 = classify._predicted(e, n)
            assert classify._coset(sigma_0, e.rows) == accepted, e.diagram
            assert len(accepted) == e.diagram.row_lengths().factorial()
            assert len(accepted) == count_equivalent(e.diagram)
            for row in e.rows:
                images = [sigma_0[x - 1] for x in row]
                assert images == sorted(images), (e.diagram, row)


def test_a_ribbon_whose_atoms_are_not_its_rows_is_refused(monkeypatch, capsys):
    """The sweep predicts sigma_0 alone only because a ribbon's atoms are
    its rows.  With the all-singletons key added to every ribbon's
    expansion the atoms are the points, and the sweep refuses to go on:
    verify_exhaustive raises RuntimeError, and verify exits 1 with one
    error line and nothing on stdout."""
    expand = ncsym._jacobi_trudi

    def with_singletons(d):
        singletons = h(SetPartition(tuple((x,) for x in range(1, d.size + 1))))
        return expand(d) + singletons if d.is_ribbon() else expand(d)

    monkeypatch.setattr(classify, "_jacobi_trudi", with_singletons)
    with pytest.raises(RuntimeError, match="are not its rows"):
        verify_exhaustive(3)
    assert cli.main(["verify", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the atoms of the ribbon {ROTATED!r} are not its rows\n"


def test_every_atom_lies_in_one_row_block():
    """Cutting the atoms along the row blocks would cut nothing: every atom
    of every connected diagram with n <= 8 lies inside exactly one row
    block."""
    for n in range(1, 9):
        for e in _table(n):
            for atom in e.atoms:
                assert sum(set(atom) <= set(row) for row in e.rows) == 1, (e.diagram, atom)


def _reference_entry(d):
    """The table entry built the long way: atoms by scanning every block
    of every key for every point, which cutting along the row blocks must
    leave whole, colours counted key by key and point by point, and each
    atom's class keyed by the one colour all its points share."""
    src = source_skew_schur(d)
    n = d.size
    colours = [[0] * n for _ in range(n)]
    for key in src.support():
        for block in key.blocks:
            for x in block:
                colours[x - 1][len(block) - 1] += 1
    blocks = {block for key in src.support() for block in key.blocks}
    grouped = {}
    for x in range(1, n + 1):
        grouped.setdefault(tuple(sorted(b for b in blocks if x in b)), []).append(x)
    atoms = tuple(tuple(atom) for atom in grouped.values())
    rows = classify.interval_blocks(d.row_lengths().parts)
    cut = tuple(
        piece for atom in atoms for row in rows if (piece := tuple(x for x in atom if x in row))
    )
    assert cut == atoms, d
    classes = {}
    for atom in atoms:
        (colour,) = {tuple(colours[x - 1]) for x in atom}
        classes.setdefault((len(atom), colour), []).append(atom)
    classes = sorted((key, tuple(group)) for key, group in classes.items())
    rotated = d.rotate()
    return classify._Entry(
        diagram=d,
        expansion=src,
        fingerprint=tuple((key, len(group)) for key, group in classes),
        rows=rows,
        atoms=atoms,
        classes=tuple(classes),
        partner=rotated if d.is_ribbon() and rotated != d else None,
    )


def test_entry_matches_the_reference_entry():
    """The one-pass entry equals the one built the long way, field for
    field, for every connected diagram with n <= 8."""
    for n in range(1, 9):
        for d in connected_diagrams(n):
            got, want = classify._entry(d), _reference_entry(d)
            for name in classify._Entry.__slots__:
                assert getattr(got, name) == getattr(want, name), (d, name)


def _colours(expansion, n):
    """The colour of each of 1..n under the expansion, counted key by key:
    for each block size k, the keys whose block holding the point has k
    points."""
    keys = [key.blocks for key in expansion.support()]
    colours = []
    for x in range(1, n + 1):
        holding = [len(b) for key in keys for b in key if x in b]
        colours.append(tuple(holding.count(k) for k in range(1, n + 1)))
    return colours


def _class_keys(entry):
    """Each atom of the entry mapped to the key of its class."""
    return {atom: key for key, group in entry.classes for atom in group}


def _adjacent(entry):
    """The pairs of consecutive points within each atom of the entry."""
    return [(a, b) for atom in entry.atoms for a, b in zip(atom, atom[1:])]


def test_relabeling_keeps_colours():
    """Brute force over every ordered pair of connected diagrams with
    n <= 6, same-diagram pairs included, and every sigma in S_n: a sigma
    with act(sigma, E_D) == E_T maps each point to a point of E_T with the
    point's colour in E_D, and each atom of D onto an atom of T of the same
    class, so _observed may match atoms class by class; and _observed
    yields exactly those sigma that increase on every atom of D."""
    distinct_hits = 0
    for n in range(1, 7):
        entries = _table(n)
        colours = [_colours(e.expansion, n) for e in entries]
        class_keys = [_class_keys(e) for e in entries]
        perms = list(itertools.permutations(range(1, n + 1)))
        for i, first in enumerate(entries):
            increasing = [p for p in perms if all(p[a - 1] < p[b - 1] for a, b in _adjacent(first))]
            for j, second in enumerate(entries):
                representatives = set(classify._observed(first, second))
                assert representatives == {
                    p for p in increasing if first.expansion.relabels_to(p, second.expansion)
                }, (first.diagram, second.diagram)
                for p in perms:
                    if first.expansion.relabels_to(p, second.expansion):
                        distinct_hits += i != j
                        for atom in first.atoms:
                            image = tuple(sorted(p[x - 1] for x in atom))
                            assert image in second.atoms, (first.diagram, second.diagram, p)
                            assert class_keys[j][image] == class_keys[i][atom], (
                                first.diagram,
                                second.diagram,
                                p,
                            )
                        for x in range(1, n + 1):
                            assert colours[j][p[x - 1] - 1] == colours[i][x - 1], (
                                first.diagram,
                                second.diagram,
                                p,
                            )
    assert distinct_hits


def test_colours_are_exact_counts_constant_on_cells():
    """A colour counts, for each block size k, the keys whose block holding
    the point has k points, in plain ints; points of one atom lie in the
    same blocks, so every point of every atom in a class has that class's
    colour, and the classes, sorted by key, hold exactly the atoms, for
    every connected diagram with n <= 8."""
    for n in range(1, 9):
        for e in _table(n):
            colours = _colours(e.expansion, n)
            keys = [key for key, _ in e.classes]
            assert keys == sorted(set(keys)), e.diagram
            assert sorted(atom for _, group in e.classes for atom in group) == sorted(e.atoms)
            assert sorted(x for atom in e.atoms for x in atom) == list(range(1, n + 1))
            for (size, colour), group in e.classes:
                assert type(size) is int and all(type(c) is int for c in colour)
                for atom in group:
                    assert len(atom) == size, (e.diagram, atom)
                    for x in atom:
                        assert colour == colours[x - 1], (e.diagram, atom, x)


def test_rows_phase_deals_by_colour(monkeypatch):
    """Matching each atom only to atoms of its size and colour, taking the
    identity undecided on a same-diagram row, and looking the predicted
    cosets up among the observed ones leaves the sweep of n=7 at most 100
    labelings to decide (77; 9,223 without colours, 182 deciding the
    identity): no same-diagram row decides the identity, and no labeling of
    a pair is decided twice."""
    calls = _relabels_to_calls(monkeypatch)
    report = verify_exhaustive(7)
    assert report.ok and report.same_diagram_equal == 9182
    assert len(calls) <= 100
    identity = tuple(range(1, 8))
    assert not [c for c in calls if c[0] is c[2] and c[1] == identity]
    decided = Counter((id(source), images, id(target)) for source, images, target in calls)
    assert max(decided.values()) == 1


def test_row_blocks_are_a_key_of_the_source_expansion():
    """h of the row blocks is the identity's determinant term, and no other
    term has the row lengths as its nonzero subscripts, so it survives with
    coefficient 1 / prod r_i! for every connected diagram with n <= 8."""
    for n in range(1, 9):
        for d in connected_diagrams(n):
            rows = SetPartition.from_composition(d.row_lengths())
            coefficient = source_skew_schur(d).coefficient(rows)
            assert coefficient == Fraction(1, d.row_lengths().factorial()), d


def test_an_entry_without_the_row_blocks_key_is_refused(monkeypatch):
    """The sweep quotients by the atoms, and keeps condition 3 constant on
    each coset, only because the row blocks are a key of E_D, so _entry
    refuses an expansion without that key, with an error that python -O
    keeps."""
    d = HOOK
    one_block = h(SetPartition((tuple(range(1, d.size + 1)),)))
    monkeypatch.setattr(classify, "_jacobi_trudi", lambda _d: one_block)
    with pytest.raises(RuntimeError, match="row blocks"):
        classify._entry(d)


def test_a_key_met_twice_by_the_walk_is_summed_or_refused(monkeypatch):
    """One key per surviving term is only observed, for n <= 12, so the
    table does not rest on it.  A Jacobi-Trudi walk of the hook that meets
    the row-blocks key twice with the same sign gets it summed: one key, of
    coefficient 1, and an entry whose colours count it once.  A walk whose
    second meeting cancels the first loses the key, and the entry is
    refused."""
    d = HOOK
    plain = classify._entry(d)
    walk = d.surviving_terms()
    rows = SetPartition.from_composition(d.row_lengths())
    column = SetPartition(((1, 2, 3),))

    def walk_with(extra):
        return lambda _d: walk + [extra]

    monkeypatch.setattr(SkewDiagram, "surviving_terms", walk_with(((2, 1), 1)))
    summed = classify._entry(d)
    assert summed.expansion == NCExpansion({rows: 1, column: -Fraction(1, 6)})
    assert len(summed.expansion) == 2
    for name in classify._Entry.__slots__:
        if name != "expansion":
            assert getattr(summed, name) == getattr(plain, name), name
    monkeypatch.setattr(SkewDiagram, "surviving_terms", walk_with(((2, 1), -1)))
    assert ncsym._jacobi_trudi(d) == NCExpansion({column: -Fraction(1, 6)})
    with pytest.raises(RuntimeError, match="row blocks"):
        classify._entry(d)


def test_both_expansions_read_the_one_walk(monkeypatch):
    """The commutative and the NCSym Jacobi-Trudi expansions expand the
    same determinant walk, so one term injected into it shows in both: the
    hook gains h[1,1,1] and h[1/2/3], each with coefficient 1."""
    d = HOOK
    walk = d.surviving_terms()
    plain_sym, plain_nc = sym.skew_schur(d), ncsym._jacobi_trudi(d)
    monkeypatch.setattr(SkewDiagram, "surviving_terms", lambda _d: walk + [((1, 1, 1), 1)])
    assert sym.skew_schur(d) == plain_sym + sym.h(Partition((1, 1, 1)))
    assert ncsym._jacobi_trudi(d) == plain_nc + h(SetPartition(((1,), (2,), (3,))))


def test_building_the_table_decides_no_labeling(monkeypatch):
    """The atoms are read off the key blocks and the row-blocks key is
    looked up, not decided: building the table makes no relabels_to call."""
    calls = _relabels_to_calls(monkeypatch)
    for n in range(1, 8):
        _table(n)
    assert not calls


def test_kernel_matches_the_scan_on_a_wrong_predicate(monkeypatch):
    """With condition 3 read off sigma instead of its complement, the
    predicate is wrong, and kernel and scan must report the same
    disagreements of both kinds, all on distinct pairs."""
    monkeypatch.setattr(classify, "_row_target", lambda block, n: block)
    # failing_condition reads the same condition 3 as the sweep, so the
    # mutant makes it disagree with the oracle on the worked pair too.
    a = LabeledDiagram(Permutation.identity(3), HOOK)
    b = LabeledDiagram(Permutation((3, 2, 1)), ROTATED)
    assert expansions_equal(a, b)
    assert failing_condition(a, b) == 3
    for n in (3, 4, 5):
        scan = _scan(n, wrong=True)
        assert all(d.first != d.second for d in scan.disagreements)
        kinds = {(d.predicted, d.observed) for d in scan.disagreements}
        assert kinds == {(True, False), (False, True)}, n
        assert verify_exhaustive(n) == scan, n


@pytest.mark.slow
def test_verify_eight_matches_the_per_coset_kernel():
    assert verify_exhaustive(8) == _per_coset(8)


def test_verify_validation(monkeypatch):
    """Bad sizes and job counts raise ValueError, and so does every n whose
    n-cell column, the first diagram, has 2^(n - 1) terms, more than the cap
    of 2^16: n >= 18, even one whose power of two is out of reach.  None of
    these enumerates a diagram; n = 17 goes on to the enumeration."""

    def enumerated(n):
        raise LookupError(f"enumerated n={n}")

    monkeypatch.setattr(classify, "connected_diagrams", enumerated)
    with pytest.raises(ValueError):
        verify_exhaustive(0)
    with pytest.raises(ValueError):
        verify_exhaustive(3, jobs=0)
    for n in (18, 10**18):
        with pytest.raises(ValueError, match=f"2\\^{n - 1} terms.*cap of {2**16}"):
            verify_exhaustive(n)
    with pytest.raises(LookupError, match="n=17"):
        verify_exhaustive(17)
