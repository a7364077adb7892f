import math
from collections import Counter
from itertools import combinations_with_replacement, permutations, product

import pytest

from ncskew.compositions import Composition, Partition, WeakComposition, compositions
from ncskew.diagrams import EXPANSION_TERM_CAP, SkewDiagram, connected_diagrams, ribbon
from ncskew.permutations import symmetric_group

CONNECTED_COUNTS = [1, 2, 4, 9, 20, 46]


def test_validation():
    with pytest.raises(ValueError):
        SkewDiagram(Partition(()))  # no rows
    with pytest.raises(ValueError):
        SkewDiagram(Partition((2,)), Partition((3,)))  # not contained
    with pytest.raises(ValueError):
        SkewDiagram(Partition((2, 2)), Partition((2,)))  # empty first row


def test_shapes_that_are_not_partitions_are_still_validated():
    """Only shapes derived from two Partitions skip a second validation; a
    Composition or WeakComposition handed in is checked as a partition, with
    the message Partition gives, and every normalized shape is a valid
    Partition."""
    with pytest.raises(ValueError, match="partition parts must weakly decrease"):
        SkewDiagram(Composition((1, 2)))
    with pytest.raises(ValueError, match="partition parts must weakly decrease"):
        SkewDiagram(Partition((4, 4, 4)), Composition((2, 3)))
    with pytest.raises(ValueError, match="partition parts must be positive integers"):
        SkewDiagram(Partition((3, 3, 3)), WeakComposition((2, 0, 1)))
    d = SkewDiagram(Composition((2, 1)), Composition((1,)))
    assert type(d.outer) is Partition and type(d.inner) is Partition
    assert d == SkewDiagram(Partition((2, 1)), Partition((1,)))
    shapes = [
        parts
        for k in range(4)
        for parts in product(range(4, 0, -1), repeat=k)
        if list(parts) == sorted(parts, reverse=True)
    ]
    built = 0
    for lam, mu in product(shapes, shapes):
        try:
            d = SkewDiagram(Partition(lam), Partition(mu))
        except ValueError:
            continue
        built += 1
        assert Partition(d.outer.parts) == d.outer and Partition(d.inner.parts) == d.inner
        assert d.rows()[-1][0] == 1
    assert built > 50


def test_basic_form_trimming():
    """A common column offset is removed; the bottom row starts at column 1."""
    assert SkewDiagram(Partition((3, 2)), Partition((1, 1))) == SkewDiagram(
        Partition((2, 1))
    )
    d = SkewDiagram(Partition((4, 3)), Partition((2, 2)))
    assert d.outer == Partition((2, 1))
    assert d.inner == Partition(())
    # trailing zero inner parts are dropped
    assert SkewDiagram(Partition((2, 1)), Partition(())).inner.parts == ()


def test_rows_and_lengths():
    d = SkewDiagram(Partition((5, 5, 4, 4, 2)), Partition((4, 3, 3, 1)))
    assert d.rows() == ((5, 5), (4, 5), (4, 4), (2, 4), (1, 2))
    assert d.row_lengths() == Composition((1, 2, 1, 3, 2))
    assert d.size == 9
    assert d.row_count == 5


def test_connected_and_ribbon():
    assert SkewDiagram(Partition((2, 1))).is_connected()
    assert SkewDiagram(Partition((2, 1))).is_ribbon()
    assert SkewDiagram(Partition((2, 2))).is_connected()
    assert not SkewDiagram(Partition((2, 2))).is_ribbon()
    # disjoint rows
    assert not SkewDiagram(Partition((3, 1)), Partition((2,))).is_connected()


def test_ribbon_from_composition():
    d = ribbon(Composition((1, 2, 1, 3, 2)))
    assert d.outer == Partition((5, 5, 4, 4, 2))
    assert d.inner == Partition((4, 3, 3, 1))
    assert d.is_ribbon()
    assert ribbon(Composition((3,))) == SkewDiagram(Partition((3,)))
    with pytest.raises(ValueError):
        ribbon(Composition(()))


def test_ribbon_bijection():
    """Compositions of n correspond to ribbons with n cells."""
    for n in range(1, 8):
        seen = set()
        for alpha in compositions(n):
            d = ribbon(alpha)
            assert d.is_ribbon()
            assert d.row_lengths() == alpha
            seen.add(d)
        assert len(seen) == 2 ** (n - 1)
    # and every enumerated ribbon arises this way
    for n in range(1, 7):
        ribbons = {d for d in connected_diagrams(n) if d.is_ribbon()}
        assert ribbons == {ribbon(alpha) for alpha in compositions(n)}


def test_rotation():
    assert ribbon(Composition((2, 1))).rotate() == SkewDiagram(
        Partition((2, 2)), Partition((1,))
    )
    for n in range(1, 7):
        for d in connected_diagrams(n):
            r = d.rotate()
            assert r.size == d.size
            assert r.rotate() == d
            assert r.row_lengths() == d.row_lengths().reverse()
            assert r.is_ribbon() == d.is_ribbon()
            assert r.is_connected()


def _shapes_in_a_box():
    """The skew diagram of every valid (outer, inner) pair whose outer
    shape fits a 5 x 5 box, connected or not: 7,666 pairs."""
    box = [p for r in range(6) for p in combinations_with_replacement(range(5, 0, -1), r)]
    for lam in box[1:]:
        for mu in box:
            if len(mu) > len(lam) or any(m >= l for m, l in zip(mu, lam)):
                continue  # not contained, or an empty row
            yield SkewDiagram(Partition(lam), Partition(mu))


def test_rotation_matches_the_flipped_rows():
    """rotate() builds its diagram without validating it again, so it must
    give what from_rows gives for the rows turned by 180 degrees, for every
    skew diagram, connected or not, whose outer shape fits a 5 x 5 box: the
    same Partition parts, already in basic form."""
    checked = 0
    for d in _shapes_in_a_box():
        width = d.outer.parts[0]
        flipped = [(width + 1 - e, width + 1 - s) for s, e in reversed(d.rows())]
        expected, r = SkewDiagram.from_rows(flipped), d.rotate()
        assert type(r.outer) is type(r.inner) is Partition
        assert (r.outer.parts, r.inner.parts) == (expected.outer.parts, expected.inner.parts), d
        checked += 1
    assert checked == 7666


def test_symmetry():
    assert SkewDiagram(Partition((2, 2))).is_symmetric()
    assert ribbon(Composition((1, 2, 1))).is_symmetric()
    assert not ribbon(Composition((2, 1))).is_symmetric()
    # the rotated hook is again a hook, not itself
    assert not SkewDiagram(Partition((2, 2)), Partition((1,))).is_symmetric()
    # a ribbon is symmetric exactly when its row lengths read the same backwards
    for n in range(1, 8):
        for alpha in compositions(n):
            assert ribbon(alpha).is_symmetric() == (alpha == alpha.reverse())


def test_overlap_compositions_worked_ribbon():
    d = SkewDiagram(Partition((5, 5, 4, 4, 2)), Partition((4, 3, 3, 1)))
    assert d.overlap_composition(1) == WeakComposition((1, 2, 1, 3, 2))
    assert d.overlap_composition(2) == WeakComposition((1, 1, 1, 1))
    # rows 2,3,4 all meet column 4, so the middle window overlaps in one column
    assert d.overlap_composition(3) == WeakComposition((0, 1, 0))
    assert d.overlap_composition(4) == WeakComposition((0, 0))
    assert d.overlap_composition(5) == WeakComposition((0,))
    assert d.overlap_partition(1) == Partition((3, 2, 2, 1, 1))
    assert d.overlap_partition(3) == Partition((1,))
    assert d.overlap_partition(5) == Partition(())
    with pytest.raises(ValueError):
        d.overlap_composition(0)
    with pytest.raises(ValueError):
        d.overlap_composition(6)
    assert d.overlap_partition(6) == Partition(())


def test_overlap_basics():
    for n in range(1, 7):
        for d in connected_diagrams(n):
            assert d.overlap_composition(1).parts == d.row_lengths().parts
            if d.row_count > 1:
                two = d.overlap_composition(2)
                assert all(p >= 1 for p in two.parts) == d.is_connected()
                if d.is_ribbon():
                    assert set(two.parts) == {1}


def _overlap_by_windows(d, k):
    """The overlap composition the long way: each window of k rows, its
    latest first column and earliest last column."""
    rows = d.rows()
    out = []
    for i in range(d.row_count - k + 1):
        window = rows[i : i + k]
        start = max(s for s, _ in window)
        end = min(e for _, e in window)
        out.append(max(0, end - start + 1))
    return WeakComposition(tuple(out))


def test_overlap_closed_form_matches_the_window_scan():
    """For every skew diagram, connected or not, whose outer shape fits a
    5 x 5 box, and every window size k, overlap_composition equals the
    scan of each window of rows."""
    checked = 0
    for d in _shapes_in_a_box():
        for k in range(1, d.row_count + 1):
            assert d.overlap_composition(k) == _overlap_by_windows(d, k), (d, k)
            checked += 1
    assert checked == 35211


def test_overlap_respects_rotation():
    # rotating a diagram reverses every overlap composition
    for n in range(1, 7):
        for d in connected_diagrams(n):
            r = d.rotate()
            for k in range(1, d.row_count + 1):
                assert r.overlap_composition(k) == d.overlap_composition(k).reverse()
                assert r.overlap_partition(k) == d.overlap_partition(k)


def test_jt_subscripts():
    d = SkewDiagram(Partition((2, 2)), Partition((1,)))
    m = d.jt_subscripts()
    assert m == ((1, 3), (0, 2))
    assert len(m) == 2
    assert m[0][1] == 3
    assert tuple(m[i][i] for i in range(len(m))) == (1, 2)


def test_jt_subscript_structure():
    """Rank-one structure and the strict maximum in the top-right corner."""
    for n in range(1, 7):
        for d in connected_diagrams(n):
            m = d.jt_subscripts()
            ell = len(m)
            for i, j, k, l in product(range(1, ell + 1), repeat=4):
                assert m[i - 1][k - 1] + m[j - 1][l - 1] == m[i - 1][l - 1] + m[j - 1][k - 1]
            corner = m[0][ell - 1]
            for i in range(1, ell + 1):
                for j in range(1, ell + 1):
                    if (i, j) != (1, ell):
                        assert m[i - 1][j - 1] < corner
            assert tuple(m[i][i] for i in range(ell)) == d.row_lengths().parts


def _signed_images(n):
    """Reference oracle: every one-line image tuple of S_n with its sign,
    inversions counted afresh for each."""
    for images in permutations(range(1, n + 1)):
        inversions = 0
        for i in range(n):
            for j in range(i + 1, n):
                if images[i] > images[j]:
                    inversions += 1
        yield images, (-1 if inversions % 2 else 1)


def _oracle_terms(m):
    """The determinant terms with no negative subscript, by walking all
    ell! permutations of the rows; each term's zero subscripts are dropped,
    since h_0 = 1."""
    ell = len(m)
    out = Counter()
    for images, sign in _signed_images(ell):
        subs = tuple(m[i][images[i] - 1] for i in range(ell))
        if all(s >= 0 for s in subs):
            out[tuple(s for s in subs if s), sign] += 1
    return out


def _column(n):
    return SkewDiagram(Partition((1,) * n))


def test_signed_images_agrees_with_objects():
    for n in range(5):
        raw = {images: sign for images, sign in _signed_images(n)}
        assert len(raw) == math.factorial(n)
        for sigma in symmetric_group(n):
            assert raw[sigma.images] == sigma.sign()


def test_surviving_terms_match_permutation_oracle():
    for n in range(1, 8):
        for d in connected_diagrams(n):
            m = d.jt_subscripts()
            got = Counter(d.surviving_terms())
            assert got == _oracle_terms(m), d
            assert d.term_count() == sum(got.values())


def test_surviving_terms_of_columns():
    """The n-cell column, the first diagram connected_diagrams(n) gives, has
    2^(n - 1) terms."""
    for n in range(1, 13):
        assert connected_diagrams(n)[0] == _column(n)
        assert _column(n).term_count() == 2 ** (n - 1)
        assert len(_column(n).surviving_terms()) == 2 ** (n - 1)


def test_surviving_terms_cap():
    # a column of 17 cells has exactly the cap's 2**16 terms, one more row is refused
    assert _column(17).term_count() == EXPANSION_TERM_CAP
    assert len(_column(17).surviving_terms()) == EXPANSION_TERM_CAP
    tall = _column(40)
    assert tall.term_count() == 2**39
    with pytest.raises(ValueError, match=f"{2**39} terms.*cap of {EXPANSION_TERM_CAP}"):
        tall.surviving_terms()


def _partitions_in_box(rows, cols):
    if rows == 0:
        yield ()
        return
    for first in range(cols, -1, -1):
        for rest in _partitions_in_box(rows - 1, first):
            yield () if first == 0 else (first,) + rest


def test_connected_diagrams_against_shape_pairs():
    """Brute force over all (outer, inner) shape pairs finds the same diagrams."""
    for n in range(1, 6):
        expected = set()
        for lam in _partitions_in_box(n, n):
            if not lam or sum(lam) < n:
                continue
            for mu in _partitions_in_box(len(lam), lam[0]):
                if sum(lam) - sum(mu) != n:
                    continue
                try:
                    d = SkewDiagram(Partition(lam), Partition(mu))
                except ValueError:
                    continue
                if d.is_connected():
                    expected.add(d)
        got = list(connected_diagrams(n))
        assert len(got) == len(set(got))
        assert set(got) == expected
        assert len(got) == CONNECTED_COUNTS[n - 1]


def test_connected_counts():
    for n, expected in enumerate(CONNECTED_COUNTS, start=1):
        assert sum(1 for _ in connected_diagrams(n)) == expected
    with pytest.raises(ValueError, match="n must be >= 1"):
        connected_diagrams(0)


def test_connected_diagrams_are_basic():
    """connected_diagrams builds its diagrams without validating them
    again, so each must be what the validating constructor makes of its
    shapes."""
    for n in range(1, 10):
        for d in connected_diagrams(n):
            assert d.size == n
            assert d.is_connected()
            # basic form: reconstructing from the shapes changes nothing
            assert SkewDiagram(d.outer, d.inner) == d
            assert type(d.outer) is type(d.inner) is Partition
            # partitions, which SkewDiagram(d.outer, d.inner) takes on trust
            assert Partition(d.outer.parts) == d.outer and Partition(d.inner.parts) == d.inner
            start, _ = d.rows()[-1]
            assert start == 1


def test_ascii_art():
    d = SkewDiagram(Partition((2, 2)), Partition((1,)))
    assert d.ascii_art() == ".#\n##"
    assert SkewDiagram(Partition((3,))).ascii_art() == "###"
