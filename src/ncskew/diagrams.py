"""Skew diagrams in English notation.

A skew diagram outer/inner has row i occupying columns inner_i+1 .. outer_i
(inner padded with zeros).  Diagrams are normalized on construction to a
basic form: the common column offset is trimmed so the bottom row starts in
column 1, which makes horizontal translates compare equal.  Rows that would
be empty are rejected outright.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from .compositions import Composition, Partition, WeakComposition, compositions
from .value import Value

# The most determinant terms one expansion may have; larger diagrams (a
# column of more than 17 cells, say) are refused instead of running for hours.
EXPANSION_TERM_CAP = 2**16


def _padded(inner: tuple[int, ...], length: int) -> tuple[int, ...]:
    """The inner shape's parts padded with zeros to one per outer row."""
    return inner + (0,) * (length - len(inner))


def _count_terms(starts: list[int]) -> int:
    """How many determinant terms have no negative subscript, given the
    first column of each row's nonnegative suffix (see term_count)."""
    ell = len(starts)
    count = 1
    for i, start in enumerate(starts):
        count *= max(0, ell - start - (ell - 1 - i))
    return count


class SubscriptMatrix(Value):
    """The square matrix of Jacobi-Trudi subscripts of a skew diagram.

    Entry (i, j) is outer_i - inner_j - i + j with 1-based indices and inner
    padded with zeros.  Entries can be negative; those index nothing and
    kill the corresponding determinant terms.

    The matrix is rank-one shifted, entry (i, j) = (outer_i - i) + (j - inner_j),
    so every row strictly increases and its nonnegative entries form a
    suffix of the columns; outer_i - i strictly decreases down the rows, so
    these suffixes shrink going down.

    The matrix is for display and for checking against the ell! permutations;
    the expansions do not build it.  They read the one walk over its
    surviving terms, SkewDiagram.surviving_terms, which takes the row and
    column parts straight from the diagram and gives each term's nonzero
    subscripts in row order.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """1-based access, entry(1, 1) is the top left."""
        return self.entries[i - 1][j - 1]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entries[i][i] for i in range(self.dimension))

    def term_count(self) -> int:
        """How many determinant terms have no negative subscript.

        Each row strictly increases, so its nonnegative entries are the
        columns from bisect_left(row, 0) on.  Placing rows bottom up, the
        row with k rows below it may take any column of its suffix except
        the k already used, all of which lie in its suffix because the
        suffixes shrink going down.

        >>> SkewDiagram(Partition((1, 1, 1))).jt_subscripts().term_count()
        4
        """
        return _count_terms([bisect_left(row, 0) for row in self.entries])


class SkewDiagram(Value):
    """A skew shape outer/inner with no empty rows, in basic form.

    >>> SkewDiagram(Partition((3, 2)), Partition((1, 1))) == SkewDiagram(Partition((2, 1)))
    True
    """

    __slots__ = ("outer", "inner")
    outer: Partition
    inner: Partition

    def __init__(self, outer: Partition, inner: Partition = Partition(())) -> None:
        lam, mu = outer.parts, inner.parts
        if not lam:
            raise ValueError("a skew diagram needs at least one row")
        if len(mu) > len(lam) or any(m > l for l, m in zip(lam, mu)):
            raise ValueError(f"inner shape {mu!r} does not fit inside outer shape {lam!r}")
        padded = _padded(mu, len(lam))
        if any(l == m for l, m in zip(lam, padded)):
            raise ValueError(f"shape {lam!r}/{mu!r} has an empty row")
        offset = padded[-1]
        # Shifting two valid partitions by the offset, which every row
        # exceeds, gives partitions again, so only other inputs (a
        # Composition, say) are validated here.
        valid = type(outer) is Partition and type(inner) is Partition
        make = Partition._trusted if valid else Partition
        if offset:
            lam = tuple(l - offset for l in lam)
            padded = tuple(m - offset for m in padded)
        object.__setattr__(self, "outer", make(lam))
        object.__setattr__(self, "inner", make(tuple(m for m in padded if m)))

    # The one value type with its own equality and hash: it keys
    # ncsym.source_skew_schur's cache and the sweep's index, and one timed
    # pass of the benchmark's steps hashes it 70 (verify 6), 161 (verify 7),
    # 425 (expand) and 2,010 (queries) times and compares it 56, 120, 1 and
    # 3,382 times.  Both read the parts directly instead of going through
    # Value's generic methods once for the diagram and once per Partition.

    def __eq__(self, other: object) -> bool:
        # outer and inner are always Partitions, so their parts decide.
        if other.__class__ is self.__class__:
            return self.outer.parts == other.outer.parts and self.inner.parts == other.inner.parts
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to hash((self.outer, self.inner)), Value's hash.
        return hash(((self.outer.parts,), (self.inner.parts,)))

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    @property
    def row_count(self) -> int:
        return self.outer.length

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[int, int]]) -> SkewDiagram:
        """The diagram whose rows, top down, occupy the given (first column,
        last column) intervals; the inverse of rows().

        >>> SkewDiagram.from_rows([(2, 2), (1, 2)]).rows()
        ((2, 2), (1, 2))
        """
        rows = tuple(rows)
        lam = tuple(e for _, e in rows)
        mu = tuple(s - 1 for s, _ in rows if s > 1)
        return cls(Partition(lam), Partition(mu))

    def rows(self) -> tuple[tuple[int, int], ...]:
        """The (first column, last column) interval of each row, top down."""
        lam, mu = self.outer.parts, self.inner.parts
        return tuple((m + 1, l) for l, m in zip(lam, _padded(mu, len(lam))))

    def row_lengths(self) -> Composition:
        """Row lengths read top to bottom.

        >>> ribbon(Composition((1, 2, 1, 3, 2))).row_lengths().parts
        (1, 2, 1, 3, 2)
        """
        return Composition(tuple(e - s + 1 for s, e in self.rows()))

    def is_connected(self) -> bool:
        """True if every pair of adjacent rows shares at least one column."""
        rows = self.rows()
        return all(below[1] >= above[0] for above, below in zip(rows, rows[1:]))

    def is_ribbon(self) -> bool:
        """True if every pair of adjacent rows shares exactly one column."""
        rows = self.rows()
        return all(below[1] == above[0] for above, below in zip(rows, rows[1:]))

    def rotate(self) -> SkewDiagram:
        """The diagram turned by 180 degrees, renormalized.

        >>> SkewDiagram(Partition((2, 1))).rotate() == SkewDiagram(Partition((2, 2)), Partition((1,)))
        True
        """
        width = self.outer.parts[0]
        flipped = ((width + 1 - e, width + 1 - s) for s, e in reversed(self.rows()))
        return SkewDiagram.from_rows(flipped)

    def is_symmetric(self) -> bool:
        """True if the diagram equals its own rotation."""
        return self == self.rotate()

    def overlap_composition(self, k: int) -> WeakComposition:
        """Entry i counts the columns shared by all of rows i .. i+k-1.

        This is the row-overlap statistic of Reiner, Shaw and van
        Willigenburg, "Coincidences among skew Schur functions" (Adv. Math.
        2007).  Row starts inner_i + 1 and row ends outer_i both weakly
        decrease down the rows, so the window's last start is row i's and
        its first end is row i+k-1's: the entry is max(0, outer_{i+k-1} -
        inner_i).

        In a ribbon, an interior row of length 1 shares its one column with
        both neighbouring rows, so the window of those three rows overlaps
        in one column.  Row 3 of the ribbon below is such a row, and it
        gives the middle entry 1.

        >>> ribbon(Composition((1, 2, 1, 3, 2))).overlap_composition(3).parts
        (0, 1, 0)
        """
        if not 1 <= k <= self.row_count:
            raise ValueError(f"k must be between 1 and {self.row_count}, got {k}")
        lam, mu = self.outer.parts, _padded(self.inner.parts, self.row_count)
        return WeakComposition(
            tuple(max(0, lam[i + k - 1] - mu[i]) for i in range(self.row_count - k + 1))
        )

    def overlap_partition(self, k: int) -> Partition:
        """The overlap composition for k sorted decreasing with zeros dropped.

        For k beyond the row count this is empty.
        """
        if k > self.row_count:
            return Partition(())
        return self.overlap_composition(k).to_partition()

    def jt_subscripts(self) -> SubscriptMatrix:
        """The matrix of Jacobi-Trudi subscripts of the diagram.

        >>> SkewDiagram(Partition((2, 2)), Partition((1,))).jt_subscripts().entries
        ((1, 3), (0, 2))
        """
        lam, mu = self.outer.parts, self.inner.parts
        # entry (i, j) = (outer_i - i) + (j - inner_j), 1-based
        row_parts = [l - i for i, l in enumerate(lam, 1)]
        column_parts = [j - m for j, m in enumerate(_padded(mu, len(lam)), 1)]
        return SubscriptMatrix(tuple(tuple(r + c for c in column_parts) for r in row_parts))

    def surviving_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """The Jacobi-Trudi determinant terms with no negative subscript,
        each as its nonzero subscripts in row order (the entries (i, w(i))
        of jt_subscripts() for the rows i top down, zeros dropped since
        h_0 = 1) and sign(w).  This is the one determinant walk: sym.skew_schur
        and ncsym._jacobi_trudi both expand it.

        Entry (i, j) is the row part outer_i - i plus the column part
        j - inner_j, read from the diagram without building the matrix.
        The column parts strictly increase, so row i's nonnegative entries
        are the columns from bisect_left(column parts, -(row part)) on, and
        these suffixes shrink going down.  Columns are assigned from the
        bottom row up, and since every row's suffix contains the suffixes of
        the rows below it, each partial assignment extends to a full one:
        the work grows with the number of terms, not with the ell!
        permutations.  Placing a column flips the sign once per used column
        to its left, one inversion each.

        Raises ValueError when there are more than EXPANSION_TERM_CAP terms,
        before any term is built.

        >>> sorted(SkewDiagram(Partition((2, 1))).surviving_terms())
        [((2, 1), 1), ((3,), -1)]
        """
        lam = self.outer.parts
        ell = len(lam)
        row_parts = [l - i for i, l in enumerate(lam, 1)]
        column_parts = [j - m for j, m in enumerate(_padded(self.inner.parts, ell), 1)]
        starts = [bisect_left(column_parts, -r) for r in row_parts]
        count = _count_terms(starts)
        if count > EXPANSION_TERM_CAP:
            raise ValueError(
                f"the expansion has {count} terms, more than the cap of {EXPANSION_TERM_CAP}"
            )
        # (nonzero subscripts of the rows placed so far, used columns as bits, sign)
        partial: list[tuple[tuple[int, ...], int, int]] = [((), 0, 1)]
        for i in range(ell - 1, 0, -1):
            r = row_parts[i]
            # (column bit, the bits of the columns left of it, (subscript,) or ())
            choices = [
                (1 << c, (1 << c) - 1, (s,) if (s := r + column_parts[c]) else ())
                for c in range(starts[i], ell)
            ]
            partial = [
                (value + subs, used | bit, -sign if (used & left).bit_count() & 1 else sign)
                for subs, used, sign in partial
                for bit, left, value in choices
                if not used & bit
            ]
        # The top row's suffix is every column (its first entry is its
        # length), and the rows below it leave exactly one column free.
        r = row_parts[0]
        top = {
            1 << c: ((1 << c) - 1, (s,) if (s := r + column_parts[c]) else ())
            for c in range(ell)
        }
        free = (1 << ell) - 1
        return [
            (value + subs, -sign if (used & left).bit_count() & 1 else sign)
            for subs, used, sign in partial
            for left, value in [top[free ^ used]]
        ]

    def ascii_art(self) -> str:
        """Rows of '#' cells padded with '.' to the bounding rectangle."""
        width = self.outer.parts[0]
        return "\n".join(
            "." * (s - 1) + "#" * (e - s + 1) + "." * (width - e) for s, e in self.rows()
        )


def ribbon(alpha: Composition) -> SkewDiagram:
    """The ribbon whose row lengths, top to bottom, are alpha.

    Adjacent rows overlap in exactly one column.

    >>> ribbon(Composition((1, 2, 1, 3, 2)))
    SkewDiagram(outer=Partition(parts=(5, 5, 4, 4, 2)), inner=Partition(parts=(4, 3, 3, 1)))
    """
    if not alpha.parts:
        raise ValueError("a ribbon needs at least one row")
    rows_bottom_up = [(1, alpha.parts[-1])]
    for part in alpha.parts[-2::-1]:
        start = rows_bottom_up[-1][1]
        rows_bottom_up.append((start, start + part - 1))
    return SkewDiagram.from_rows(rows_bottom_up[::-1])


def connected_diagrams(n: int) -> list[SkewDiagram]:
    """Every connected canonical skew diagram with n cells, in a fixed order.

    Built as stacks of row intervals from the bottom row up: the bottom row
    starts in column 1 (that is what basic form means) and each row above
    must start and end no further left while sharing at least one column
    with the row below.  Each diagram is produced exactly once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for alpha in compositions(n):
        parts = alpha.parts
        stacks = [[(1, parts[-1])]]
        for part in parts[-2::-1]:
            grown = []
            for stack in stacks:
                below_start, below_end = stack[-1]
                for start in range(max(below_start, below_end - part + 1), below_end + 1):
                    grown.append(stack + [(start, start + part - 1)])
            stacks = grown
        out.extend(SkewDiagram.from_rows(stack[::-1]) for stack in stacks)
    return out
