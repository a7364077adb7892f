"""Deciding when two labeled skew Schur functions in NCSym coincide.

For distinct connected diagrams D and T carrying labelings delta and tau,
the classification predicate says the two expansions agree exactly when D
is a nonsymmetric ribbon, T is D rotated by 180 degrees, and the
complement of tau^-1 delta preserves every block of the interval set
partition of D's row lengths.  The oracle here is direct comparison of the
h-basis expansions, and `verify_exhaustive` confronts the two over every
ordered pair of distinct connected diagrams of a given size and every
labeling coset representative.

Relabeling keeps each term's signature, its sorted block sizes and its
coefficient, so two source expansions can match under some sigma only when
their fingerprints agree: the multisets of (signature, number of keys)
pairs.  The sweep counts a pair that fails conditions 1 and 2 and whose
fingerprints differ as n! agreements at once, both sides being false for
every sigma.  The fingerprint determines the commutative image, so this
filter already skips every pair that the overlap condition of Reiner, Shaw
and van Willigenburg would, and it needs no unfiltered run to check it;
the `prune` argument of `verify_exhaustive` has no effect.

The sweep also works modulo the Young subgroup Y of the atoms: the points
grouped by the blocks of the source expansion's keys that contain them.
Atoms refine every key, so for y in Y, sigma y (x -> sigma(y(x)), as in
`relabel`) relabels E_D exactly as sigma does; every atom lies inside one
row block, so condition 3, which reads only the image of each row block,
cannot tell sigma y from sigma either.  Every verdict of the sweep is then
constant on each right coset sigma Y, and one representative per coset is
decided by relabels_to and counted |Y| times.  Both premises hold by
construction, with no check at run time (see _Entry).

Within a coset enumeration the sweep deals by colour, one round of the
colour refinement that starts partition backtrack (McKay and Piperno,
"Practical graph isomorphism II", 2014).  The colour of a point x under
E_D is (c_1, ..., c_n), c_k the number of keys of E_D whose block holding
x has k points.  Lemma: if act(sigma, E_D) == E_T then sigma maps each x to
a point of the same colour under E_T.  For sigma maps the keys of E_D
one to one onto those of E_T, and the block of a key holding x onto the
block of its image holding sigma(x), of the same size.  Points of one atom
lie in the same blocks, so colours are constant on atoms, and dealing each
piece only points of its colour keeps or drops whole cosets sigma Y.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Iterator

from .diagrams import SkewDiagram, connected_diagrams
from .ncsym import NCExpansion, source_skew_schur
from .permutations import Permutation
from .setpartitions import Blocks, SetPartition, interval_blocks


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


def _row_target(block: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Where condition 3 sends the row block [a, b]: onto [n+1-b, n+1-a],
    so that the complement of sigma fixes the row block."""
    return tuple(range(n + 1 - block[-1], n + 2 - block[0]))


def _meets_condition_3(images: tuple[int, ...], rows: Blocks) -> bool:
    """True if sigma maps every row block onto its _row_target."""
    n = len(images)
    for block in rows:
        target = _row_target(block, n)
        low, high = target[0], target[-1]
        for x in block:
            if not low <= images[x - 1] <= high:
                return False
    return True


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
    sigma = b.labeling.inverse() * a.labeling
    if not _meets_condition_3(sigma.images, interval_blocks(d.row_lengths().parts)):
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


def _atoms(d: SkewDiagram) -> Blocks:
    """1..n grouped by the blocks of the source expansion's keys that
    contain each point.  Every block is a union of atoms, so the sigma
    mapping each atom onto itself, the Young subgroup of the atoms, are
    exactly the sigma preserving every block of every key.

    Every key is an interval set partition (see source_skew_schur), so the
    atoms are intervals too: x and x + 1 share every block exactly when no
    block of any key ends at x."""
    ends = sorted({block[-1] for raw in source_skew_schur(d)._terms for block in raw})
    return interval_blocks(end - start for start, end in zip([0, *ends], ends))


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
    return SameDiagramVerdict(
        equal=src.relabels_to(sigma.images, src),
        blocks_preserved=sigma.preserves_blocks(SetPartition._trusted(_atoms(d))),
    )


def count_equivalent(d: SkewDiagram) -> int:
    """How many labelings sigma make (sigma, d) match the source-labeled
    rotation of d.  Only defined for connected nonsymmetric ribbons; the
    classification says the answer is the factorial product of the row
    lengths."""
    partner = _rotation_partner(d)
    if not d.is_connected() or partner is None:
        raise ValueError("count_equivalent needs a connected nonsymmetric ribbon")
    return sum(_young_order(pieces) for _, pieces in _observed(_entry(d), _entry(partner)))


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


# What relabeling keeps of a term: its block sizes, sorted, and its
# coefficient as numerator and denominator, so it hashes and compares ints.
Signature = tuple[tuple[int, ...], int, int]
# The colour of each of 1..n in turn; a point's colour is (c_1, ..., c_n),
# c_k the number of keys whose block containing the point has k points.
Colouring = tuple[tuple[int, ...], ...]


def _uniform(n: int) -> tuple[Colouring, Colouring]:
    """Source and target colourings giving every point of 1..n one colour,
    under which _spread deals every way."""
    return ((),) * n, ((),) * n


def _stabilizer_order(sizes: tuple[int, ...]) -> int:
    """How many sigma relabel a set partition onto itself, given its block
    sizes in sorted order: permute inside each block, and permute the m
    blocks of each size among themselves, m! built up one factor per block
    of each run of equal sizes."""
    order, run, previous = 1, 0, 0
    for size in sizes:
        run = run + 1 if size == previous else 1
        previous = size
        order *= factorial(size) * run
    return order


def _young_order(pieces: Blocks) -> int:
    """The order of the Young subgroup of the pieces."""
    return prod(factorial(len(piece)) for piece in pieces)


def _split(block: tuple[int, ...], cells: Blocks) -> Blocks:
    """The block cut along the cells: its nonempty intersection with each."""
    return tuple(piece for cell in cells if (piece := tuple(x for x in cell if x in block)))


def _pieces(choices) -> Blocks:
    """All the pieces of a _block_maps choices sequence, block by block."""
    return tuple(piece for pieces, _ in choices for piece in pieces)


def _spread(
    values: tuple[int, ...], pieces: Blocks, colours: tuple[Colouring, Colouring]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every way to deal the values out to the pieces, each piece getting
    as many as it holds, in increasing order, and only values whose target
    colour is the piece's source colour: colours is (source, target), each
    the colour of every point of 1..n, and a piece takes the colour of its
    points.  A sigma dealt here maps every point of the pieces to a point of
    its own colour.  Under the uniform colouring every value fits every
    piece and every deal is yielded.
    """
    source, target = colours
    colour = source[pieces[0][0] - 1]
    fitting = tuple(v for v in values if target[v - 1] == colour)
    if len(pieces) == 1:
        if len(fitting) == len(values):
            yield (values,)
        return
    for chosen in itertools.combinations(fitting, len(pieces[0])):
        rest = tuple(v for v in values if v not in chosen)
        for tail in _spread(rest, pieces[1:], colours):
            yield (chosen,) + tail


def _block_maps(choices, colours: tuple[Colouring, Colouring]) -> Iterator[tuple[int, ...]]:
    """One sigma, as its tuple of images, per right coset sigma Y of the
    Young subgroup Y of the pieces: the sigma that map each source block
    onto one of its candidate target blocks of the same size, no target
    taken twice, map each piece onto points of its colour (see _spread),
    and are increasing on every piece.

    choices is a sequence of (source block cut into pieces, candidate
    target blocks), whose blocks cover 1..n.  Composing with y in Y keeps
    the image of every block, so each sigma of the cosets enumerated is
    sigma' y for exactly one sigma' yielded: every matching of the blocks,
    then every combination of the target per piece, where one piece per
    block would give every bijection.  With singleton pieces Y is trivial
    and every sigma is yielded.  Colours are constant on pieces, so the
    colour filter keeps or drops whole cosets.  The state is one partial
    image and one iterator per block, so nothing proportional to the output
    is built.
    """
    images = [0] * sum(len(piece) for piece in _pieces(choices))
    used: set[tuple[int, ...]] = set()
    last = len(choices) - 1

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        pieces, candidates = choices[k]
        for target in candidates:
            if target in used:
                continue
            used.add(target)
            for dealt in _spread(target, pieces, colours):
                for piece, values in zip(pieces, dealt):
                    for e, v in zip(piece, values):
                        images[e - 1] = v
                if k == last:
                    yield tuple(images)
                else:
                    yield from extend(k + 1)
            used.discard(target)

    return extend(0)


def _coset(images: tuple[int, ...], pieces: Blocks) -> Iterator[tuple[int, ...]]:
    """Every sigma y with y in the Young subgroup of the pieces, for sigma
    given by its images: the sigma mapping each piece where sigma does."""
    return _block_maps(
        [
            (tuple((x,) for x in piece), (tuple(sorted(images[x - 1] for x in piece)),))
            for piece in pieces
        ],
        _uniform(len(images)),
    )


@dataclass(frozen=True)
class _Entry:
    """What the sweep needs of one diagram.

    keys_by_signature groups the keys of the source expansion by their
    signature, and signatures lists (stabilizer order, signature) once per
    signature.  fingerprint is the sorted tuple of (signature, number of
    keys), which every sigma keeps.  partner is _rotation_partner of the
    diagram, and atoms, its _atoms, give the same-diagram block condition.

    cells, whose Young subgroup Y the sweep works modulo, are the nonempty
    intersections of an atom with a row block.  Every key block is a union
    of atoms, hence of cells, so Y fixes E_D; every row block is a union of
    cells, so Y keeps each row block and condition 3 cannot tell sigma y
    from sigma.  The cells are the atoms: the row blocks are a key of E_D,
    with coefficient 1/prod r_i!, as the term of w has subscripts A[i, w(i)]
    with A[i, i] = r_i > 0 and each row of A strictly increasing, so the
    identity is the only term whose nonzero subscripts are the row lengths.

    colours holds the colour of each of 1..n: (c_1, ..., c_n), c_k the
    number of keys whose block holding the point has k points.  A sigma
    with act(sigma, E_D) == E_T maps the keys of E_D one to one onto those
    of E_T and the block holding x onto the block holding sigma(x), so it
    keeps colours; points of one cell lie in the same blocks and share one.
    """

    diagram: SkewDiagram
    expansion: NCExpansion
    keys_by_signature: dict[Signature, tuple[Blocks, ...]]
    signatures: tuple[tuple[int, Signature], ...]
    fingerprint: tuple[tuple[Signature, int], ...]
    rows: Blocks
    atoms: Blocks
    cells: Blocks
    colours: Colouring
    partner: SkewDiagram | None


def _entry(d: SkewDiagram) -> _Entry:
    """One loop over the raw keys of E_D groups them by signature.  A
    point's colour adds up, over the blocks holding it, how many keys hold
    each block: the keys are interval set partitions, so there are at most
    n(n + 1)/2 distinct blocks to add up, however many keys there are."""
    src = source_skew_schur(d)
    keys_by_signature: dict[Signature, list[Blocks]] = {}
    for raw, coeff in src._terms.items():
        sig = tuple(sorted(map(len, raw))), coeff.numerator, coeff.denominator
        keys_by_signature.setdefault(sig, []).append(raw)
    held = Counter(itertools.chain.from_iterable(src._terms))
    counts = [[0] * d.size for _ in range(d.size)]
    for block, keys in held.items():
        for x in block:
            counts[x - 1][len(block) - 1] += keys
    rows = interval_blocks(d.row_lengths().parts)
    atoms = _atoms(d)
    return _Entry(
        diagram=d,
        expansion=src,
        keys_by_signature={sig: tuple(keys) for sig, keys in keys_by_signature.items()},
        signatures=tuple((_stabilizer_order(sig[0]), sig) for sig in keys_by_signature),
        fingerprint=tuple(sorted((sig, len(keys)) for sig, keys in keys_by_signature.items())),
        rows=rows,
        atoms=atoms,
        cells=tuple(piece for atom in atoms for piece in _split(atom, rows)),
        colours=tuple(map(tuple, counts)),
        partner=_rotation_partner(d),
    )


def _observed(first: _Entry, second: _Entry) -> Iterator[tuple[tuple[int, ...], Blocks]]:
    """Every sigma with act(sigma, E_D) == E_T, for E_D and E_T the source
    expansions of first and second, one right coset of a Young subgroup at
    a time: each item is a representative and the pieces whose Young
    subgroup Y makes up its coset sigma Y.

    relabels_to is a conjunction over the terms of E_D, so deciding one
    term of E_D first, the pivot, only reorders it: a sigma can pass only
    if it maps the pivot onto a key of E_T with the pivot's signature.  For
    each such key those sigma form one coset of the pivot's stabilizer.
    The pieces are the pivot's blocks cut along first's cells; their Young
    subgroup fixes the pivot and, every key being a union of cells, E_D, so
    relabels_to decides a whole coset sigma Y as it decides sigma, and each
    representative from _block_maps is decided by relabels_to.  Every other
    sigma fails at the pivot.  The pivot is a key whose signature makes the
    fewest sigma to decide: stabilizer order times the number of keys of
    E_T with that signature.

    Each piece is dealt only the points of its target block with the
    piece's colour (see _Entry): a sigma that sends some point to a point
    of another colour cannot relabel E_D onto E_T, and colours are constant
    on cells, so the filter drops whole cosets sigma Y and no observed sigma.

    act(id, E_D) == E_D, so when first is second the identity passes
    undecided.
    """
    target = second.expansion
    if len(first.expansion) != len(target):
        return
    candidates = second.keys_by_signature
    _stabilizer, sig = min(
        first.signatures, key=lambda item: item[0] * len(candidates.get(item[1], ()))
    )
    pivot = first.keys_by_signature[sig][0]
    split = [_split(block, first.cells) for block in pivot]
    pieces = sum(split, ())
    colours = first.colours, second.colours
    relabels_to = first.expansion.relabels_to
    known = tuple(range(1, first.diagram.size + 1)) if first is second else None
    for key in candidates.get(sig, ()):
        choices = [
            (block_pieces, tuple(c for c in key if len(c) == len(block)))
            for block, block_pieces in zip(pivot, split)
        ]
        for images in _block_maps(choices, colours):
            if images == known or relabels_to(images, target):
                yield images, pieces


@lru_cache(maxsize=2)
def _table(n: int) -> tuple[_Entry, ...]:
    return tuple(_entry(d) for d in connected_diagrams(n))


def _verify_rows(n: int, rows: tuple[int, ...]) -> tuple[Counter[str], list[Disagreement]]:
    """Sweep the pairs whose first diagram is in rows; return the report's
    counters, by field name, and the disagreements found.

    Every pair takes one path, whatever verify_exhaustive's prune says.  A
    distinct pair that fails conditions 1 and 2 and whose fingerprints
    differ has no observed sigma and no predicted one, so it counts as n!
    agreements at once: the table is grouped by fingerprint once, and each
    row visits only the other diagrams of its bucket and its rotation
    partner, whatever the partner's bucket.  For those pairs only the sigma
    where predicate or oracle can be true are generated: the observed sigma
    (_observed) and, for a pair meeting conditions 1 and 2, the predicted
    coset, where sigma maps each row block onto its _row_target.  The
    disagreements are the observed sigma not predicted and the predicted
    sigma not observed; every other labeling agrees, both sides being
    false.  For same-diagram pairs the block condition is the Young
    subgroup of the atoms.

    All three sets are unions of right cosets sigma Y, for Y the Young
    subgroup of the first diagram's cells cut along the blocks enumerated,
    and both verdicts are constant on each coset (see _Entry).  So
    _block_maps yields one representative per coset, relabels_to decides
    it, and it counts |Y| times; a disagreeing representative is expanded
    back into the |Y| labelings of its coset, so the report is the one a
    sigma by sigma sweep gives.  The block condition and the predicted
    coset both map each block onto one target, so one helper decides both.
    On a same-diagram row the identity is counted without a decision, as
    act(id, E_D) == E_D; every other representative is decided.
    """
    entries = _table(n)
    count = len(entries)
    per_pair = factorial(n)
    identity = tuple(range(1, n + 1))
    index = {entry.diagram: k for k, entry in enumerate(entries)}
    buckets: dict[tuple[tuple[Signature, int], ...], list[int]] = {}
    for k, entry in enumerate(entries):
        buckets.setdefault(entry.fingerprint, []).append(k)
    counts: Counter[str] = Counter()
    disagreements: list[Disagreement] = []

    def disagree(i: int, j: int, images: tuple[int, ...], pieces: Blocks, predicted: bool) -> None:
        disagreements.extend(
            Disagreement(i * count + j, i, j, sigma, predicted, not predicted)
            for sigma in _coset(images, pieces)
        )

    def decide_predicted(i: int, j: int, blocks: Blocks, targets: Blocks) -> int:
        """Decide the sigma mapping each block onto its target, predicted
        equal, one per coset sigma Y; return how many sigma they cover."""
        first = entries[i]
        choices = [(_split(b, first.cells), (t,)) for b, t in zip(blocks, targets)]
        pieces = _pieces(choices)
        known = identity if i == j else None
        representatives = 0
        for images in _block_maps(choices, _uniform(n)):
            representatives += 1
            if images != known and not first.expansion.relabels_to(images, entries[j].expansion):
                disagree(i, j, images, pieces, True)
        return representatives * _young_order(pieces)

    for i in rows:
        first = entries[i]
        rotation = index.get(first.partner)
        counts["pair_count"] += count - 1
        counts["coset_checks"] += count * per_pair
        counts["same_diagram_checks"] += per_pair
        for _images, pieces in _observed(first, first):
            counts["same_diagram_equal"] += _young_order(pieces)
        counts["same_diagram_condition"] += decide_predicted(i, i, first.atoms, first.atoms)
        seconds = {*buckets[first.fingerprint], rotation} - {i, None}
        for j in sorted(seconds):
            for images, pieces in _observed(first, entries[j]):
                if not (j == rotation and _meets_condition_3(images, first.rows)):
                    disagree(i, j, images, pieces, False)
            if j == rotation:
                decide_predicted(i, j, first.rows, tuple(_row_target(b, n) for b in first.rows))
    counts["agreements"] = counts["coset_checks"] - len(disagreements)
    return counts, disagreements


# Workers are forked where the platform can, so that they inherit the table
# the parent has built instead of building it again.  ncskew starts no
# threads, so no lock is held by another thread when it forks.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


def _send_rows(send: Connection, n: int, rows: tuple[int, ...]) -> None:
    """A worker's body: send back what _verify_rows returns.  If it raises,
    the worker prints the traceback and exits without sending."""
    send.send(_verify_rows(n, rows))


def _start_worker(n: int, rows: tuple[int, ...]) -> tuple[BaseProcess, Connection]:
    """Start a worker process sweeping rows; return it and the receiving
    end of its pipe, whose sending end only the worker holds."""
    receive, send = _CONTEXT.Pipe(duplex=False)
    process = _CONTEXT.Process(target=_send_rows, args=(send, n, rows), daemon=True)
    process.start()
    send.close()
    return process, receive


def verify_exhaustive(n: int, jobs: int = 1, prune: bool = False) -> VerificationReport:
    """Check predicate against oracle over every ordered pair of distinct
    connected diagrams of size n and every labeling in S_n.

    Labelings enter only through tau^-1 delta, so one sweep over sigma per
    pair covers all labeling pairs.  Same-diagram pairs are swept too,
    checking that the sufficient block condition never outruns the oracle.
    Each sigma where the predicate or the oracle can hold is generated and
    decided by the oracle, one per right coset of the Young subgroup of the
    atoms, which stands for its whole coset; every other sigma
    counts as an agreement, both sides being false there.  A pair that
    fails conditions 1 and 2 and whose fingerprints differ is decided
    whole, in one step, on every run.
    prune has no effect: the fingerprint filter skips every pair that the
    overlap condition once pruned.

    The rows are dealt round robin into min(jobs, os.cpu_count()) chunks;
    this process sweeps the first and a worker process each other one.  A
    worker that raises or dies makes this call raise RuntimeError, and on
    the way out of this call every worker is stopped and reaped.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    count = len(_table(n))
    rows = tuple(range(count))
    jobs = min(jobs, os.cpu_count() or 1)
    chunks = [rows[k::jobs] for k in range(jobs) if rows[k::jobs]]
    workers: list[tuple[BaseProcess, Connection]] = []
    try:
        for chunk in chunks[1:]:
            workers.append(_start_worker(n, chunk))
        partials = [_verify_rows(n, chunks[0])]
        for process, receive in workers:
            try:
                partials.append(receive.recv())
            except EOFError:
                process.join()
                raise RuntimeError(
                    f"a sweep worker exited with code {process.exitcode} before reporting"
                ) from None
    finally:
        for process, receive in workers:
            receive.close()
            process.terminate()
            process.join()
    total: Counter[str] = Counter()
    for counts, _ in partials:
        total.update(counts)
    disagreements = sorted(
        (d for _, found in partials for d in found),
        key=lambda d: (d.pair_index, d.labeling),
    )
    return VerificationReport(
        size=n,
        diagram_count=count,
        pair_count=total["pair_count"],
        coset_checks=total["coset_checks"],
        agreements=total["agreements"],
        disagreements=tuple(disagreements),
        same_diagram_checks=total["same_diagram_checks"],
        same_diagram_equal=total["same_diagram_equal"],
        same_diagram_condition=total["same_diagram_condition"],
    )
