"""Deciding when two labeled skew Schur functions in NCSym coincide.

For distinct connected diagrams D and T carrying labelings delta and tau,
the classification predicate says the two expansions agree exactly when D
is a nonsymmetric ribbon, T is D rotated by 180 degrees, and the
complement of tau^-1 delta preserves every block of the interval set
partition of D's row lengths.  The oracle here is direct comparison of the
h-basis expansions, and `verify_exhaustive` confronts the two over every
ordered pair of distinct connected diagrams of a given size and every
labeling coset representative.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .diagrams import SkewDiagram, connected_diagrams
from .ncsym import NCExpansion, skew_schur, source_skew_schur
from .permutations import Permutation
from .setpartitions import SetPartition, interval_blocks
from .sym import overlap_partitions_agree


@dataclass(frozen=True)
class LabeledDiagram:
    """A connected skew diagram together with a permutation labeling."""

    labeling: Permutation
    diagram: SkewDiagram

    def __post_init__(self) -> None:
        if self.labeling.size != self.diagram.size:
            raise ValueError(
                f"labeling size {self.labeling.size} differs from diagram size {self.diagram.size}"
            )
        if not self.diagram.is_connected():
            raise ValueError("labeled diagrams must be connected")


def _check_distinct_pair(a: LabeledDiagram, b: LabeledDiagram) -> None:
    if a.diagram.size != b.diagram.size:
        raise ValueError("diagrams of different sizes cannot be compared")
    if a.diagram == b.diagram:
        raise ValueError("equal diagrams; use same_diagram_verdict")


def failing_condition(a: LabeledDiagram, b: LabeledDiagram) -> int | None:
    """The first classification condition a pair of distinct connected
    labeled diagrams fails: 1 (source not a nonsymmetric ribbon), 2 (target
    is not the rotation), 3 (complemented relabeling moves a row block), or
    None when all three hold."""
    _check_distinct_pair(a, b)
    d = a.diagram
    if not (d.is_ribbon() and not d.is_symmetric()):
        return 1
    if b.diagram != d.rotate():
        return 2
    sigma = b.labeling.inverse() * a.labeling
    if not sigma.bar().preserves_blocks(SetPartition.from_composition(d.row_lengths())):
        return 3
    return None


def predicts_equal(a: LabeledDiagram, b: LabeledDiagram) -> bool:
    """The classification predicate for distinct connected diagrams."""
    return failing_condition(a, b) is None


def expansions_equal(a: LabeledDiagram, b: LabeledDiagram) -> bool:
    """Oracle: compare the two h-basis expansions term by term."""
    if a.diagram.size != b.diagram.size:
        raise ValueError("diagrams of different sizes cannot be compared")
    return skew_schur(a.labeling, a.diagram) == skew_schur(b.labeling, b.diagram)


@dataclass(frozen=True)
class SameDiagramVerdict:
    """Oracle verdict for one diagram labeled two ways, plus whether the
    relabeling satisfies the sufficient block condition: it preserves every
    block of every basis index in the source expansion, so it fixes every
    term.  Truthiness is the oracle verdict."""

    equal: bool
    blocks_preserved: bool

    def __bool__(self) -> bool:
        return self.equal


def same_diagram_verdict(sigma: Permutation, d: SkewDiagram) -> SameDiagramVerdict:
    """Decide whether relabeling d's skew Schur function by sigma fixes it.

    sigma stands for tau^-1 delta; the verdict also reports the sufficient
    condition, so sufficiency can be asserted exhaustively while its
    converse is only observed.
    """
    if not d.is_connected():
        raise ValueError("diagram must be connected")
    if sigma.size != d.size:
        raise ValueError(f"labeling size {sigma.size} differs from diagram size {d.size}")
    src = source_skew_schur(d)
    preserved = all(sigma.preserves_blocks(key) for key in src.support())
    return SameDiagramVerdict(equal=src.relabels_to(sigma.images, src), blocks_preserved=preserved)


def count_equivalent(d: SkewDiagram) -> int:
    """How many labelings sigma make (sigma, d) match the source-labeled
    rotation of d.  Only defined for connected nonsymmetric ribbons; the
    classification says the answer is the factorial product of the row
    lengths."""
    if not (d.is_connected() and d.is_ribbon() and not d.is_symmetric()):
        raise ValueError("count_equivalent needs a connected nonsymmetric ribbon")
    src = source_skew_schur(d)
    target = source_skew_schur(d.rotate())
    return sum(
        1
        for images in itertools.permutations(range(1, d.size + 1))
        if src.relabels_to(images, target)
    )


# ---------------------------------------------------------------------------
# exhaustive verification


@dataclass(frozen=True)
class Disagreement:
    """One (diagram pair, labeling) where predicate and oracle differ.

    pair_index is first * diagram_count + second in enumeration order; for
    same-diagram rows (first == second) `predicted` is the sufficient block
    condition instead of the three-part predicate."""

    pair_index: int
    first: int
    second: int
    labeling: tuple[int, ...]
    predicted: bool
    observed: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exhaustive sweep at a fixed size."""

    size: int
    diagram_count: int
    pair_count: int
    coset_checks: int
    agreements: int
    disagreements: tuple[Disagreement, ...]
    same_diagram_checks: int
    same_diagram_equal: int
    same_diagram_condition: int

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _fixes_intervals(images: tuple[int, ...], intervals: tuple[tuple[int, int], ...]) -> bool:
    for a, b in intervals:
        for x in range(a, b + 1):
            if not a <= images[x - 1] <= b:
                return False
    return True


@dataclass(frozen=True)
class _Entry:
    diagram: SkewDiagram
    expansion: NCExpansion
    row_intervals: tuple[tuple[int, int], ...]
    surviving_intervals: tuple[tuple[int, int], ...]
    nonsym_ribbon: bool
    rotated: SkewDiagram


@lru_cache(maxsize=2)
def _table(n: int):
    diagrams = tuple(connected_diagrams(n))
    perms = tuple(itertools.permutations(range(1, n + 1)))
    entries = []
    for d in diagrams:
        src = source_skew_schur(d)
        rows = interval_blocks(d.row_lengths().parts)
        surviving = sorted({(block[0], block[-1]) for key in src.support() for block in key.blocks})
        entries.append(
            _Entry(
                diagram=d,
                expansion=src,
                row_intervals=tuple((block[0], block[-1]) for block in rows),
                surviving_intervals=tuple(surviving),
                nonsym_ribbon=d.is_ribbon() and not d.is_symmetric(),
                rotated=d.rotate(),
            )
        )
    return diagrams, perms, tuple(entries)


def _verify_rows(n: int, rows: tuple[int, ...], prune: bool):
    diagrams, perms, entries = _table(n)
    count = len(diagrams)
    bars = [tuple(n + 1 - v for v in p) for p in perms]
    coset_checks = agreements = pair_count = 0
    same_checks = same_equal = same_condition = 0
    disagreements: list[Disagreement] = []
    for i in rows:
        first = entries[i]
        relabels_to = first.expansion.relabels_to
        bar_fixes = [_fixes_intervals(bar, first.row_intervals) for bar in bars]
        for j in range(count):
            second = entries[j]
            if i == j:
                for p in perms:
                    condition = _fixes_intervals(p, first.surviving_intervals)
                    equal = relabels_to(p, first.expansion)
                    coset_checks += 1
                    same_checks += 1
                    same_equal += equal
                    same_condition += condition
                    if condition and not equal:
                        disagreements.append(
                            Disagreement(i * count + j, i, j, p, condition, equal)
                        )
                    else:
                        agreements += 1
                continue
            pair_count += 1
            conditions_12 = first.nonsym_ribbon and second.diagram == first.rotated
            if (
                prune
                and not overlap_partitions_agree(first.diagram, second.diagram)
                and not conditions_12
            ):
                # The predicate is false throughout, and the pruning lemma
                # says the oracle is too; the unpruned run cross-checks
                # this.  Rotation pairs always share overlap partitions, so
                # a pair meeting conditions 1 and 2 would never get here;
                # should one, it takes the full check below.
                coset_checks += len(perms)
                agreements += len(perms)
                continue
            lengths_match = len(first.expansion) == len(second.expansion)
            for p_index, p in enumerate(perms):
                predicted = conditions_12 and bar_fixes[p_index]
                observed = lengths_match and relabels_to(p, second.expansion)
                coset_checks += 1
                if predicted == observed:
                    agreements += 1
                else:
                    disagreements.append(
                        Disagreement(i * count + j, i, j, p, predicted, observed)
                    )
    return (
        pair_count,
        coset_checks,
        agreements,
        same_checks,
        same_equal,
        same_condition,
        disagreements,
    )


def _verify_rows_star(args):
    return _verify_rows(*args)


def verify_exhaustive(n: int, jobs: int = 1, prune: bool = False) -> VerificationReport:
    """Check predicate against oracle over every ordered pair of distinct
    connected diagrams of size n and every labeling in S_n.

    Labelings enter only through tau^-1 delta, so one sweep over sigma per
    pair covers all labeling pairs.  Same-diagram pairs are swept too,
    checking that the sufficient block condition never outruns the oracle.
    With prune=True, pairs with differing overlap partitions are skipped
    wholesale (the necessary condition says the oracle is false there); the
    unpruned run is ground truth and the pruned one must match it exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    diagrams, _perms, _entries = _table(n)
    count = len(diagrams)
    rows = tuple(range(count))
    if jobs == 1 or count < 2:
        partials = [_verify_rows(n, rows, prune)]
    else:
        chunks = [rows[k::jobs] for k in range(jobs) if rows[k::jobs]]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            partials = list(pool.map(_verify_rows_star, [(n, c, prune) for c in chunks]))
    disagreements = sorted(
        (d for part in partials for d in part[6]),
        key=lambda d: (d.pair_index, d.labeling),
    )
    return VerificationReport(
        size=n,
        diagram_count=count,
        pair_count=sum(p[0] for p in partials),
        coset_checks=sum(p[1] for p in partials),
        agreements=sum(p[2] for p in partials),
        disagreements=tuple(disagreements),
        same_diagram_checks=sum(p[3] for p in partials),
        same_diagram_equal=sum(p[4] for p in partials),
        same_diagram_condition=sum(p[5] for p in partials),
    )
