"""Deciding when two labeled skew Schur functions in NCSym coincide.

For distinct connected diagrams D and T carrying labelings delta and tau,
the classification predicate says the two expansions agree exactly when D
is a nonsymmetric ribbon, T is D rotated by 180 degrees, and the
complement of tau^-1 delta preserves every block of the interval set
partition of D's row lengths.  The oracle here is direct comparison of the
h-basis expansions, and `verify_exhaustive` confronts the two over every
ordered pair of distinct connected diagrams of a given size and every
labeling coset representative.

The sweep filters and matches with one invariant, the colour lemma below:
for any sigma to relabel E_D onto E_T, the two diagrams' atoms, grouped
into classes by (size, colour), must agree class by class in key and
number, and a diagram's fingerprint is that shape.  The sweep counts a pair that
fails conditions 1 and 2 and whose fingerprints differ as n! agreements at
once, both sides being false for every sigma.  That this filter skips
every pair the overlap condition of Reiner, Shaw and van Willigenburg
would is observed, not proved: for every n <= 12 each fingerprint is held
by one diagram or by a nonsymmetric ribbon and its rotation, whose overlap
partitions agree (the tests check this).

The sweep also works modulo the Young subgroup Y of the atoms: the points
grouped by the blocks of the source expansion's keys that contain them.
Atoms refine every key, so for y in Y, sigma y (x -> sigma(y(x)), as in
`relabel`) relabels E_D exactly as sigma does; every atom lies inside one
row block, so condition 3, which reads only the image of each row block,
cannot tell sigma y from sigma either.  Every verdict of the sweep is then
constant on each right coset sigma Y, and one representative per coset is
decided by relabels_to and counted |Y| times.  relabels_to relabels the
keys through `relabel_keys`, which sorts each distinct block's image once
per call and forgets it when the call returns.  Both premises hold by
construction (see _Entry).  The fact the second rests on, that the row
blocks are a key of the source expansion, follows from the lemma in
SkewDiagram.surviving_terms, and is still checked for every diagram as a
guard on the walk.
A rotation pair's prediction is one coset sigma_0 Y(rows): a ribbon's keys
are the coarsenings of its rows, so its atoms are its rows, and the sweep
refuses to go on if they are not.

The sweep finds every sigma with act(sigma, E_D) == E_T by matching
atoms, one round of the colour refinement that starts partition backtrack
(McKay and Piperno, "Practical graph isomorphism II", 2014).  The colour
of a point x under E_D is (c_1, ..., c_n), c_k the number of keys of E_D
whose block holding x has k points.  Lemma: if act(sigma, E_D) == E_T then
sigma maps each atom of D onto an atom of T of the same size and colour.
For sigma maps the keys of E_D one to one onto those of E_T, and the block
of a key holding x onto the block of its image holding sigma(x), of the
same size.  So x and y share every key block exactly when sigma(x) and
sigma(y) do, which maps atoms onto atoms, and sigma keeps colours.  Points
of one atom lie in the same blocks, so an atom has one colour, and matching
same-colour atoms keeps or drops whole cosets sigma Y.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, prod
from typing import Iterator

from .diagrams import EXPANSION_TERM_CAP, SkewDiagram, connected_diagrams
from .ncsym import NCExpansion, _jacobi_trudi, source_skew_schur
from .permutations import Permutation
from .setpartitions import Blocks, interval_blocks
from .value import Value


class LabeledDiagram(Value):
    """A connected skew diagram together with a permutation labeling."""

    __slots__ = ("labeling", "diagram")
    labeling: Permutation
    diagram: SkewDiagram

    def __init__(self, labeling: Permutation, diagram: SkewDiagram) -> None:
        if labeling.size != diagram.size:
            raise ValueError(
                f"labeling size {labeling.size} differs from diagram size {diagram.size}"
            )
        if not diagram.is_connected():
            raise ValueError("labeled diagrams must be connected")
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "diagram", diagram)


def _row_target(block: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Where condition 3 sends the row block [a, b]: onto [n+1-b, n+1-a],
    so that the complement of sigma fixes the row block."""
    return tuple(range(n + 1 - block[-1], n + 2 - block[0]))


def _rotation_partner(d: SkewDiagram) -> SkewDiagram | None:
    """The only diagram T that conditions 1 and 2 let a pair (d, T) have:
    d rotated by 180 degrees when d is a nonsymmetric ribbon, else None."""
    if not d.is_ribbon():
        return None
    rotated = d.rotate()
    return None if rotated == d else rotated


def failing_condition(a: LabeledDiagram, b: LabeledDiagram) -> int | None:
    """The first classification condition a pair of distinct connected
    labeled diagrams fails: 1 (source not a nonsymmetric ribbon), 2 (target
    is not the rotation), 3 (complemented relabeling moves a row block), or
    None when all three hold."""
    if a.diagram.size != b.diagram.size:
        raise ValueError("diagrams of different sizes cannot be compared")
    d = a.diagram
    if b.diagram == d:
        raise ValueError("equal diagrams; use same_diagram_verdict")
    partner = _rotation_partner(d)
    if partner is None:
        return 1
    if b.diagram != partner:
        return 2
    # The images of tau^-1 delta: each delta(x)'s place in tau, from 1.
    images = tuple(map((0, *b.labeling.images).index, a.labeling.images))
    n = d.size
    for block in interval_blocks(d.row_lengths().parts):
        if tuple(sorted(images[x - 1] for x in block)) != _row_target(block, n):
            return 3
    return None


def predicts_equal(a: LabeledDiagram, b: LabeledDiagram) -> bool:
    """The classification predicate for distinct connected diagrams."""
    return failing_condition(a, b) is None


def expansions_equal(a: LabeledDiagram, b: LabeledDiagram) -> bool:
    """Oracle: compare the two h-basis expansions term by term.

    act(delta, E_D) == act(tau, E_T) exactly when act(tau^-1 delta, E_D)
    == E_T, so only the source expansions are relabeled and looked up.
    """
    if a.diagram.size != b.diagram.size:
        raise ValueError("diagrams of different sizes cannot be compared")
    sigma = b.labeling.inverse() * a.labeling
    return source_skew_schur(a.diagram).relabels_to(sigma.images, source_skew_schur(b.diagram))


class SameDiagramVerdict(Value):
    """Oracle verdict for one diagram labeled two ways, plus whether the
    relabeling satisfies the sufficient block condition: it preserves every
    block of every basis index in the source expansion, so it fixes every
    term.  Truthiness is the oracle verdict."""

    __slots__ = ("equal", "blocks_preserved")
    equal: bool
    blocks_preserved: bool

    def __bool__(self) -> bool:
        return self.equal


def same_diagram_verdict(sigma: Permutation, d: SkewDiagram) -> SameDiagramVerdict:
    """Decide whether relabeling d's skew Schur function by sigma fixes it.

    sigma stands for tau^-1 delta; the verdict also reports the sufficient
    condition, so sufficiency can be asserted exhaustively while its
    converse is only observed.  Both are read from source_skew_schur's
    cached E_D, and the condition is checked as defined, key by key.

    An atom is the intersection of the key blocks that hold its points, so
    a sigma that fixes every key block fixes every atom.  Every key block
    is a union of atoms, so a sigma in Y(atoms) fixes every key block.  So
    the condition holds exactly on Y(atoms), whose order the sweep counts
    as same_diagram_condition.
    """
    LabeledDiagram(sigma, d)  # refuses a size mismatch or a disconnected d
    src = source_skew_schur(d)
    return SameDiagramVerdict(
        equal=src.relabels_to(sigma.images, src),
        blocks_preserved=all(sigma.preserves_blocks(key) for key in src.support()),
    )


def count_equivalent(d: SkewDiagram) -> int:
    """How many labelings sigma make (sigma, d) match the source-labeled
    rotation of d.  Only defined for connected nonsymmetric ribbons; the
    classification says the answer is the factorial product of the row
    lengths.  _observed yields one sigma per right coset of the Young
    subgroup of d's atoms, so the count is theirs times its order.  Both
    entries are built as the sweep builds them, each from a fresh walk."""
    partner = _rotation_partner(d)  # None for a disconnected d: no ribbon
    if partner is None:
        raise ValueError("count_equivalent needs a connected nonsymmetric ribbon")
    first = _entry(d)
    second = _entry(partner)
    return sum(1 for _ in _observed(first, second)) * _young_order(first.atoms)


# ---------------------------------------------------------------------------
# exhaustive verification


class Disagreement(Value):
    """One (diagram pair, labeling) where predicate and oracle differ.

    pair_index is first * diagram_count + second in enumeration order.
    Only distinct pairs are reported, as a same-diagram row has nothing to
    report (see _verify_rows)."""

    __slots__ = ("pair_index", "first", "second", "labeling", "predicted", "observed")
    pair_index: int
    first: int
    second: int
    labeling: tuple[int, ...]
    predicted: bool
    observed: bool


class VerificationReport(Value):
    """Outcome of one exhaustive sweep at a fixed size."""

    __slots__ = (
        "size",
        "diagram_count",
        "pair_count",
        "coset_checks",
        "agreements",
        "disagreements",
        "same_diagram_checks",
        "same_diagram_equal",
        "same_diagram_condition",
    )
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


# An atom class's key: the size of its atoms and the colour of their points.
ClassKey = tuple[int, tuple[int, ...]]


def _young_order(pieces: Blocks) -> int:
    """The order of the Young subgroup of the pieces."""
    return prod(factorial(len(piece)) for piece in pieces)


def _predicted(first: _Entry, n: int) -> tuple[int, ...]:
    """sigma_0, the representative of the one coset sigma_0 Y(rows) that
    condition 3 predicts for first and its rotation: the row blocks, the
    consecutive intervals of 1..n, mapped onto their _row_target in order.
    Raises RuntimeError if first's atoms are not its rows, as sigma_0 would
    then stand for only part of the prediction."""
    if first.atoms != first.rows:
        raise RuntimeError(f"the atoms of the ribbon {first.diagram} are not its rows")
    return tuple(itertools.chain.from_iterable(_row_target(block, n) for block in first.rows))


def _coset(images: tuple[int, ...], pieces: Blocks) -> set[tuple[int, ...]]:
    """Every sigma y with y in the Young subgroup of the pieces, for sigma
    given by its images: every way to map each piece onto its image under
    sigma, the product over the pieces of the orderings of each image."""
    points = tuple(itertools.chain.from_iterable(pieces))
    orderings = (itertools.permutations([images[x - 1] for x in piece]) for piece in pieces)
    found = set()
    sigma_y = [0] * len(images)
    for arranged in itertools.product(*orderings):
        for x, v in zip(points, itertools.chain.from_iterable(arranged)):
            sigma_y[x - 1] = v
        found.add(tuple(sigma_y))
    return found


class _Entry(Value):
    """What the sweep needs of one diagram.

    partner is _rotation_partner of the diagram, and atoms are 1..n grouped
    by the key blocks that contain each point.  Every key is an interval set
    partition (see ncsym._jacobi_trudi), so the atoms are intervals, and x
    and x + 1 share every block exactly when no key block ends at x.  The
    sigma mapping each atom onto itself, the Young subgroup Y of the atoms,
    are exactly those preserving every block of every key: the same-diagram
    block condition, and the subgroup the sweep works modulo.

    Every key block is a union of atoms, so Y fixes E_D.  The row blocks
    are a key of E_D, with coefficient 1/prod r_i!, for r_i the row
    lengths: a corollary of the lemma in SkewDiagram.surviving_terms, as
    the identity is a surviving term, whose key no other term shares.
    _entry still checks that key for every diagram, as a guard on the
    walk.  So every row block is a union of atoms too, Y keeps each row
    block, and condition 3 cannot tell sigma y from sigma.
    A ribbon's keys are the coarsenings of its rows, so its atoms are its
    rows, which _predicted checks on every rotation pair.

    classes groups the atoms by their key (size, colour), sorted by key,
    and fingerprint is that grouping's shape, ((key, number of atoms), ...).
    Relabeling keeps both up to the atoms themselves (see the module
    docstring), so the sweep buckets the table by fingerprint and _observed
    matches the atoms class by class.
    """

    __slots__ = ("diagram", "expansion", "fingerprint", "rows", "atoms", "classes", "partner")
    diagram: SkewDiagram
    expansion: NCExpansion
    fingerprint: tuple[tuple[ClassKey, int], ...]
    rows: Blocks
    atoms: Blocks
    classes: tuple[tuple[ClassKey, Blocks], ...]
    partner: SkewDiagram | None


def _entry(d: SkewDiagram) -> _Entry:
    """d's entry in the sweep's table.  E_D comes from _jacobi_trudi, the
    uncached builder that source_skew_schur wraps, as each sweep builds
    every diagram's entry once and the cache would only be filled, never
    read; count_equivalent builds its two entries the same way.  The
    _Entry is built positionally, Value.__init__'s quicker path, as there is
    one per diagram.  Everything else reads
    the distinct keys.  The row-blocks key is looked up, and one Counter
    goes over the keys, counting how many hold each distinct block.  A
    point's colour adds up those counts over the blocks holding it, and the
    atoms are the intervals between consecutive block ends: the keys are
    interval set partitions, so there are at most n(n + 1)/2 distinct
    blocks, however many keys there are.  Each atom takes the colour of its
    first point, which its other points share.

    Raises RuntimeError if the row blocks are not a key of E_D, as the
    sweep's quotient by the atoms, under which condition 3 and the
    predicted sets must stay constant, rests on that key.  The lemma in
    SkewDiagram.surviving_terms proves the key is there, so only a broken
    walk or expansion trips the check, which stays as a guard on them."""
    src = _jacobi_trudi(d)
    rows = interval_blocks(d.row_lengths().parts)
    if rows not in src._terms:
        raise RuntimeError(f"the row blocks {rows} are not a key of the expansion of {d}")
    held = Counter(itertools.chain.from_iterable(src._terms))
    n = d.size
    counts = [[0] * n for _ in range(n)]
    for block, keys in held.items():
        size = len(block) - 1
        for x in block:
            counts[x - 1][size] += keys
    ends = sorted({block[-1] for block in held})
    atoms = interval_blocks(end - start for start, end in zip([0, *ends], ends))
    grouped: dict[ClassKey, list[tuple[int, ...]]] = {}
    for atom in atoms:
        grouped.setdefault((len(atom), tuple(counts[atom[0] - 1])), []).append(atom)
    classes = tuple(sorted((key, tuple(group)) for key, group in grouped.items()))
    fingerprint = tuple((key, len(group)) for key, group in classes)
    return _Entry(d, src, fingerprint, rows, atoms, classes, _rotation_partner(d))


def _observed(first: _Entry, second: _Entry) -> Iterator[tuple[int, ...]]:
    """Every sigma with act(sigma, E_D) == E_T, for E_D and E_T the source
    expansions of first and second, one right coset sigma Y at a time, for
    Y the Young subgroup of first's atoms: each item is the images of the
    representative increasing on every atom.

    Such a sigma maps each atom of first onto an atom of second of the same
    size and colour (see the module docstring).  So the classes of both are
    zipped, and a pair whose class keys or class sizes differ has no such
    sigma; both sides cover 1..n, so classes agreeing along the shorter
    side agree in number too.  Equal classes also force equal term counts,
    as a point's colour sums to the number of keys.  Otherwise every
    bijection between matching classes gives one coset sigma Y, whose
    representative relabels_to decides.  Every key of E_D is a union of
    atoms, so Y fixes E_D, and relabels_to decides the whole coset as it
    decides sigma.  Every other sigma moves some atom off the atoms of
    second or onto another colour, and fails.

    act(id, E_D) == E_D, so when first is second the identity passes
    undecided.
    """
    classes = tuple(zip(first.classes, second.classes))
    if any(k1 != k2 or len(c1) != len(c2) for (k1, c1), (k2, c2) in classes):
        return
    sources = [atom for (_, group), _ in classes for atom in group]
    matchings = itertools.product(*(itertools.permutations(group) for _, (_, group) in classes))
    target = second.expansion
    relabels_to = first.expansion.relabels_to
    known = tuple(range(1, first.diagram.size + 1)) if first is second else None
    images = [0] * first.diagram.size
    for matching in matchings:
        for atom, image in zip(sources, itertools.chain.from_iterable(matching)):
            for x, v in zip(atom, image):
                images[x - 1] = v
        candidate = tuple(images)
        if candidate == known or relabels_to(candidate, target):
            yield candidate


def _verify_rows(entries: tuple[_Entry, ...]) -> tuple[int, list[Disagreement]]:
    """Sweep every pair of entries, the table of one size; return
    same_diagram_equal and the disagreements found, sorted by pair index
    and labeling.  verify_exhaustive works out the other counters of the
    report.

    A same-diagram row only counts: the sigma the oracle accepts, which
    _observed yields, times |Y|; when every class is one atom, that is the
    identity alone, counted without _observed.  It has nothing to report,
    as its block condition holds exactly on Y and every key block is a
    union of atoms, so Y(atoms) fixes E_D.

    A distinct pair that fails conditions 1 and 2 and whose fingerprints
    differ has no observed sigma and no predicted one, so all its labelings
    agree: the table is grouped by fingerprint once, and each row visits
    only its bucket mates and its rotation partner, whatever the partner's
    bucket, so no pair meeting conditions 1 and 2 is skipped on the
    strength of the fingerprint.  _observed yields the observed sigma, and
    it is the only place relabels_to decides one.  _predicted gives the
    predicted sigma: on a rotation pair sigma_0, for the one coset
    sigma_0 Y(rows); on every other pair none.  The disagreements are then
    predicted ^ observed, and every other labeling agrees.

    Both sets are unions of right cosets sigma Y, for Y the Young subgroup
    of the first diagram's atoms, one subgroup per row, and both verdicts
    are constant on each coset (see _Entry).  Each set holds one
    representative per coset, the sigma increasing on every atom, which
    counts |Y| times; a disagreeing one is expanded back into its coset by
    _coset, so the report is the one a sigma by sigma sweep gives.  A
    rotation pair's first diagram is a ribbon, whose atoms are its rows
    (see _Entry), so sigma_0 increases on every atom as _observed's sigma
    do, and the set algebra on representatives is that on the cosets.
    """
    n = entries[0].diagram.size
    count = len(entries)
    index = {entry.diagram: k for k, entry in enumerate(entries)}
    buckets: dict[tuple[tuple[ClassKey, int], ...], list[int]] = {}
    for k, entry in enumerate(entries):
        buckets.setdefault(entry.fingerprint, []).append(k)
    same_equal = 0
    disagreements: list[Disagreement] = []
    for i, first in enumerate(entries):
        shared = len(first.classes) < len(first.atoms)  # some class holds two atoms
        observed = sum(1 for _ in _observed(first, first)) if shared else 1
        same_equal += observed * _young_order(first.atoms)
        rotation = index.get(first.partner)
        for j in sorted({*buckets[first.fingerprint], rotation} - {i, None}):
            predicted = {_predicted(first, n)} if j == rotation else set()
            for images in predicted ^ set(_observed(first, entries[j])):
                hit = images in predicted
                disagreements.extend(
                    Disagreement(i * count + j, i, j, sigma, hit, not hit)
                    for sigma in _coset(images, first.atoms)
                )
    return same_equal, sorted(disagreements, key=lambda d: (d.pair_index, d.labeling))


def verify_exhaustive(n: int, jobs: int = 1, prune: bool = False) -> VerificationReport:
    """Check predicate against oracle over every ordered pair of distinct
    connected diagrams of size n and every labeling in S_n.

    Labelings enter only through tau^-1 delta, so one sweep over sigma per
    pair covers all labeling pairs.  Same-diagram pairs are counted too:
    the sigma the oracle accepts, and those meeting the sufficient block
    condition, which map each atom onto itself, so there are |Y| of them
    per diagram, for Y the Young subgroup of its atoms.  Each sigma the
    oracle can accept is generated and decided by it, one per right coset
    of Y, which stands for its whole coset.  A rotation pair's one
    predicted coset, sigma_0 Y(rows), is built from its ribbon's rows,
    which are its atoms, as its keys are the coarsenings of its rows
    (RuntimeError if not), and the disagreements are its symmetric
    difference with the accepted ones (see _verify_rows); every other sigma
    agrees, both sides being false.  A pair that fails conditions 1 and 2
    and whose fingerprints, the shapes of their (size, colour) atom
    classes, differ is decided whole, in one step, on every run.  For c
    diagrams there are c(c - 1) pairs, c^2 n! coset checks and c n!
    same-diagram checks, and the agreements are the coset checks less the
    disagreements.

    The first diagram is the n-cell column, whose expansion has 2^(n - 1)
    terms, so n with 2^(n - 1) > EXPANSION_TERM_CAP raises ValueError
    before any diagram is enumerated: 2^(n - 1) > cap exactly when n - 1
    is at least the cap's bit length, and no power is computed.

    jobs and prune have no effect (jobs < 1 still raises ValueError), and
    stay only while perfbench/measure.py passes them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if n - 1 >= EXPANSION_TERM_CAP.bit_length():
        raise ValueError(
            f"the {n}-cell column's expansion has 2^{n - 1} terms, "
            f"more than the cap of {EXPANSION_TERM_CAP}"
        )
    entries = tuple(_entry(d) for d in connected_diagrams(n))
    count = len(entries)
    same_equal, disagreements = _verify_rows(entries)
    checks = count * count * factorial(n)
    return VerificationReport(
        size=n,
        diagram_count=count,
        pair_count=count * (count - 1),
        coset_checks=checks,
        agreements=checks - len(disagreements),
        disagreements=tuple(disagreements),
        same_diagram_checks=count * factorial(n),
        same_diagram_equal=same_equal,
        same_diagram_condition=sum(_young_order(entry.atoms) for entry in entries),
    )
