"""Acceptance gate: one check per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Criterion 6 keeps its size-6 sweep behind the ``slow`` marker.
"""

import random
import time
from fractions import Fraction

import pytest

from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams, ribbon
from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition
from ncskew import classify, ncsym, sym

HALF = Fraction(1, 2)
SIXTH = Fraction(1, 6)


def _report(num, ok, note=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line)
    return ok


def _sp(*blocks):
    return SetPartition(tuple(tuple(b) for b in blocks))


def _best_of_five(expand, expected, cold):
    """The fastest of five timed calls of expand, and whether every call
    gave expected; with cold, each call starts from an empty
    source_skew_schur cache."""
    best, same = float("inf"), True
    for _ in range(5):
        if cold:
            ncsym.source_skew_schur.cache_clear()
        start = time.perf_counter()
        got = expand()
        best = min(best, time.perf_counter() - start)
        same = same and got == expected
    return best, same


def test_criterion_1_worked_noncommutative_expansions():
    """Four pinned expansions over noncommuting variables, exact and fast.

    Each is timed as the best of five calls, so that one stall of a shared
    host does not fail it; the first three expand cold every time."""
    hook = ribbon(Composition((2, 1)))
    rotated = SkewDiagram(Partition((2, 2)), Partition((1,)))
    expected_hook = ncsym.NCExpansion(
        {_sp((1, 2), (3,)): HALF, _sp((1, 2, 3),): -SIXTH}
    )
    expected_s132 = ncsym.NCExpansion(
        {_sp((1, 3), (2,)): HALF, _sp((1, 2, 3),): -SIXTH}
    )
    runs = [
        _best_of_five(lambda: ncsym.source_skew_schur(hook), expected_hook, cold=True),
        _best_of_five(
            lambda: ncsym.skew_schur(Permutation((3, 2, 1)), rotated), expected_hook, cold=True
        ),
        _best_of_five(lambda: ncsym.schur(_sp((1, 3), (2,))), expected_s132, cold=True),
        _best_of_five(lambda: ncsym.ribbon_schur(Composition((2, 1))), expected_hook, cold=False),
    ]
    timings = [best for best, _ in runs]
    checks = [same for _, same in runs]
    ok = all(checks) and all(t < 0.001 for t in timings)
    assert _report(1, ok), (checks, timings)


def test_criterion_2_worked_commutative_expansion():
    """The hook with rows (2,1) expands to h[2,1] - h[3], both ways."""
    expected = sym.h(Partition((2, 1))) - sym.h(Partition((3,)))
    ok = (
        sym.skew_schur(ribbon(Composition((2, 1)))) == expected
        and sym.ribbon_schur(Composition((2, 1))) == expected
    )
    assert _report(2, ok)


def test_criterion_3_overlap_statistics():
    """Pinned overlap data for the ribbon (5,5,4,4,2)/(4,3,3,1).

    Entry i of the window-k overlap composition counts the columns shared by
    all of rows i .. i+k-1 (Reiner-Shaw-van Willigenburg, "Coincidences
    among skew Schur functions", Adv. Math. 2007).  Top down, the rows of
    this ribbon occupy columns {5}, {4,5}, {4}, {2,3,4} and {1,2}, so the
    window-3 entries are

        rows 1-3: {5} & {4,5} & {4}         = {}   -> 0
        rows 2-4: {4,5} & {4} & {2,3,4}     = {4}  -> 1
        rows 3-5: {4} & {2,3,4} & {1,2}     = {}   -> 0

    and the closed form max(0, outer_{i+k-1} - inner_i) agrees:
    max(0, 4-4), max(0, 4-3), max(0, 2-3) = 0, 1, 0.  No reading of the
    fixture gives (0,0,0): the k = 1 and k = 2 values fix the diagram as the
    ribbon with rows (1,2,1,3,2), unique in basic form, and in a ribbon an
    interior row of length 1 shares its one column with both neighbours, so
    the middle window-3 entry is at least 1.  Reading bottom up reverses
    every overlap composition, and (0,1,0) reversed is itself.

    Besides the pinned values, the windows are recomputed here from explicit
    column sets, and the closed form is checked against overlap_composition
    on every connected diagram with at most 7 cells.
    """
    d = SkewDiagram(Partition((5, 5, 4, 4, 2)), Partition((4, 3, 3, 1)))
    pinned = {
        1: (1, 2, 1, 3, 2),
        2: (1, 1, 1, 1),
        3: (0, 1, 0),
        4: (0, 0),
        5: (0,),
    }
    mismatches = {
        k: d.overlap_composition(k).parts
        for k, parts in pinned.items()
        if d.overlap_composition(k).parts != parts
    }

    columns = [set(range(s, e + 1)) for s, e in d.rows()]
    by_column_sets = {
        k: tuple(
            len(set.intersection(*columns[i : i + k])) for i in range(len(columns) - k + 1)
        )
        for k in pinned
    }
    column_set_mismatches = {
        k: parts for k, parts in by_column_sets.items() if parts != pinned[k]
    }

    closed_form_mismatches = []
    for n in range(1, 8):
        for e in connected_diagrams(n):
            lam = e.outer.parts
            mu = e.inner.parts + (0,) * (e.row_count - e.inner.length)
            for k in range(1, e.row_count + 1):
                closed = tuple(
                    max(0, lam[i + k - 1] - mu[i]) for i in range(e.row_count - k + 1)
                )
                if e.overlap_composition(k).parts != closed:
                    closed_form_mismatches.append((e, k))

    ok = (
        not mismatches
        and not column_set_mismatches
        and not closed_form_mismatches
        and d.overlap_partition(1) == Partition((3, 2, 2, 1, 1))
        and d.is_ribbon()
    )
    assert _report(3, ok), (
        f"computed values disagree with pinned ones: {mismatches}; "
        f"column sets disagree with pinned ones: {column_set_mismatches}; "
        f"closed form disagrees on: {closed_form_mismatches[:5]}"
    )


def test_criterion_4_commutative_image_suite():
    """Letting variables commute erases the labeling, sizes up to 6."""
    rng = random.Random(2026)
    start = time.perf_counter()
    ok = True
    for n in range(1, 7):
        base = list(range(1, n + 1))
        for d in connected_diagrams(n):
            target = sym.skew_schur(d)
            src = ncsym.source_skew_schur(d)
            for _ in range(20):
                images = base[:]
                rng.shuffle(images)
                delta = Permutation(tuple(images))
                if ncsym.to_commutative(ncsym.act(delta, src)) != target:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    assert _report(4, ok, f"{elapsed:.1f}s")


def test_criterion_5_ribbon_formula_equivalence():
    """Coarsening formula vs determinant, and their commutative images."""
    ok = True
    for n in range(1, 7):
        for alpha in compositions(n):
            via_formula = ncsym.ribbon_schur(alpha)
            via_determinant = ncsym.source_skew_schur(ribbon(alpha))
            if via_formula != via_determinant:
                ok = False
            classical = sym.ribbon_schur(alpha)
            if ncsym.to_commutative(via_formula) != classical:
                ok = False
            if ncsym.to_commutative(via_determinant) != classical:
                ok = False
    assert _report(5, ok)


def test_criterion_6_exhaustive_verification():
    """Predicate equals oracle on every pair and labeling, sizes 2 to 5."""
    ok = True
    for n in range(2, 6):
        report = classify.verify_exhaustive(n)
        if not report.ok or report.disagreements:
            ok = False
    assert _report(6, ok)


@pytest.mark.slow
def test_criterion_6_exhaustive_verification_size_6():
    report = classify.verify_exhaustive(6)
    ok = report.ok and not report.disagreements
    assert _report(6, ok, "n=6")


def test_criterion_7_counting():
    """A nonsymmetric ribbon has exactly alpha! equal labeled partners."""
    ok = True
    for n in range(2, 6):
        for alpha in compositions(n):
            if alpha == alpha.reverse():
                continue
            if classify.count_equivalent(ribbon(alpha)) != alpha.factorial():
                ok = False
    assert _report(7, ok)


def test_criterion_8_word_level_multiplication():
    """Truncated monomial expansions multiply like the slash product."""
    from ncskew.setpartitions import set_partitions

    ok = ncsym.monomial_truncation(_sp((1, 3), (2,)), 3).coefficient((1, 2, 1)) == 2
    for total in range(2, 5):
        for k in range(1, total):
            for pi in set_partitions(k):
                for sg in set_partitions(total - k):
                    left = ncsym.monomial_truncation(pi, 3) * ncsym.monomial_truncation(sg, 3)
                    if left != ncsym.monomial_truncation(pi.slash(sg), 3):
                        ok = False
    assert _report(8, ok)


def test_criterion_9_determinant_structure():
    """Subscript matrices are rank-one shifted, corner-maximal, and the
    diagonal term is the unique dominance-minimal one with coefficient one."""
    ok = True
    for n in range(1, 7):
        for d in connected_diagrams(n):
            m = d.jt_subscripts()
            ell = len(m)
            for i in range(1, ell + 1):
                for j in range(1, ell + 1):
                    for k in range(1, ell + 1):
                        for l in range(1, ell + 1):
                            if m[i - 1][k - 1] + m[j - 1][l - 1] != m[i - 1][l - 1] + m[j - 1][k - 1]:
                                ok = False
            corner = m[0][ell - 1]
            for i in range(1, ell + 1):
                for j in range(1, ell + 1):
                    if (i, j) != (1, ell) and m[i - 1][j - 1] >= corner:
                        ok = False
            e = sym.skew_schur(d)
            diag = d.row_lengths().to_partition()
            if e.coefficient(diag) != 1:
                ok = False
            if not all(key.dominates(diag) for key in e.support()):
                ok = False
    assert _report(9, ok)
