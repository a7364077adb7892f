"""Property tests of the NCSym layer, run when hypothesis is installed.

The examples are derandomized, so a failure reproduces on every run.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from ncskew import textio
from ncskew.diagrams import connected_diagrams
from ncskew.ncsym import act, source_skew_schur, to_commutative
from ncskew.permutations import Permutation
from ncskew.setpartitions import SetPartition, relabel, relabel_keys
from ncskew.sym import SymExpansion

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

DIAGRAMS = {n: connected_diagrams(n) for n in range(1, 6)}


def permutations_of(n):
    return st.permutations(range(1, n + 1)).map(lambda images: Permutation(tuple(images)))


@st.composite
def source_expansions(draw, max_size=5):
    n = draw(st.integers(1, max_size))
    return source_skew_schur(draw(st.sampled_from(DIAGRAMS[n])))


@st.composite
def set_partitions_of_size(draw, max_size=5):
    return draw(set_partitions_of(draw(st.integers(0, max_size))))


@st.composite
def set_partitions_of(draw, n):
    labels = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    blocks = {}
    for entry, label in enumerate(labels, start=1):
        blocks.setdefault(label, []).append(entry)
    return SetPartition(tuple(tuple(b) for b in blocks.values()))


@PROPERTY
@given(st.data())
def test_act_is_a_group_action(data):
    e = data.draw(source_expansions())
    a = data.draw(permutations_of(e.degree))
    b = data.draw(permutations_of(e.degree))
    assert act(a * b, e) == act(a, act(b, e))
    assert act(Permutation.identity(e.degree), e) == e


@PROPERTY
@given(st.data())
def test_relabeling_commutes_away(data):
    e = data.draw(source_expansions())
    delta = data.draw(permutations_of(e.degree))
    assert to_commutative(act(delta, e)) == to_commutative(e)


@PROPERTY
@given(st.data())
def test_to_commutative_matches_the_fraction_reference(data):
    e = data.draw(source_expansions())
    delta = data.draw(permutations_of(e.degree))
    c = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
    mixed = act(delta, e).scaled(c) + e
    merged = {}
    for pi, coeff in mixed.items():
        shape = pi.shape()
        merged[shape] = merged.get(shape, 0) + coeff * shape.factorial()
    assert to_commutative(mixed) == SymExpansion({s: v for s, v in merged.items() if v})


@PROPERTY
@given(st.data())
def test_relabel_keys_is_relabel_key_by_key(data):
    # repeated keys and keys sharing blocks both reach the block memo
    n = data.draw(st.integers(0, 7))
    keys = [pi.blocks for pi in data.draw(st.lists(set_partitions_of(n), max_size=12))]
    images = data.draw(permutations_of(n)).images
    assert list(relabel_keys(images, keys)) == [relabel(images, raw) for raw in keys]


@PROPERTY
@given(set_partitions_of_size(), set_partitions_of_size(), set_partitions_of_size())
def test_slash_is_associative(a, b, c):
    assert a.slash(b).slash(c) == a.slash(b.slash(c))


@PROPERTY
@given(source_expansions(3), source_expansions(3), source_expansions(3))
def test_expansion_product_is_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(st.data())
def test_nc_expansion_text_round_trip(data):
    # products of two source expansions reach degree 10, where set
    # partitions print with commas
    e = data.draw(source_expansions()) * data.draw(source_expansions())
    e = act(data.draw(permutations_of(e.degree)), e)
    assert textio.parse_nc_expansion(str(e)) == e
