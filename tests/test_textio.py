import random
import re
from fractions import Fraction

import pytest

from ncskew.compositions import Composition, Partition, compositions
from ncskew.diagrams import SkewDiagram, connected_diagrams
from ncskew.permutations import Permutation, symmetric_group
from ncskew.setpartitions import SetPartition, set_partitions
from ncskew import ncsym, sym, textio
from ncskew.textio import ParseError


def test_composition_round_trip():
    for n in range(7):
        for alpha in compositions(n):
            assert textio.parse_composition(textio.format_composition(alpha)) == alpha
    assert textio.format_composition(Composition(())) == "0"
    assert textio.parse_composition("0") == Composition(())
    with pytest.raises(ParseError):
        textio.parse_composition("1,x")


def test_partition_round_trip():
    assert textio.format_partition(Partition((3, 2, 2, 1, 1))) == "3,2,2,1,1"
    assert textio.parse_partition("3,2,2,1,1") == Partition((3, 2, 2, 1, 1))
    with pytest.raises(ParseError):
        textio.parse_partition("1,2")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (textio.parse_composition, " ", "empty composition"),
        (textio.parse_composition, "2,0", "composition parts must be positive integers, got (2, 0)"),
        (textio.parse_partition, "", "empty partition"),
        (textio.parse_partition, "2,0", "partition parts must be positive integers, got (2, 0)"),
        (textio.parse_partition, "1,2", "partition parts must weakly decrease, got (1, 2)"),
        (textio.parse_set_partition, "", "empty set partition"),
        (textio.parse_set_partition, "1//2", "empty block in set partition: '1//2'"),
        (textio.parse_diagram, "  ", "empty diagram"),
        (textio.parse_nc_expansion, "2*x[1]", "not an h term: '2*x[1]'"),
    ],
)
def test_parts_parse_errors_name_the_type(parse, text, message):
    with pytest.raises(ParseError) as caught:
        parse(text)
    assert str(caught.value) == message


def test_partitions_are_parsed_without_compositions(monkeypatch):
    built = []
    build = Composition.__init__

    def spy(self, parts=()):
        built.append(parts)
        build(self, parts)

    monkeypatch.setattr(Composition, "__init__", spy)
    assert textio.parse_composition("2,1").parts == (2, 1) and built == [(2, 1)]
    built.clear()
    assert textio.parse_partition("0") == Partition(())
    assert textio.parse_partition("3,1") == Partition((3, 1))
    assert textio.parse_diagram("3,2/1") == SkewDiagram(Partition((3, 2)), Partition((1,)))
    assert textio.parse_diagram("2,1") == SkewDiagram(Partition((2, 1)))
    assert built == []


def test_parenthesized():
    assert textio.format_parenthesized((0, 1, 0)) == "(0,1,0)"
    assert textio.format_parenthesized(()) == "()"


def test_set_partition_round_trip():
    assert textio.format_set_partition(SetPartition(((1, 2), (3,)))) == "12/3"
    assert textio.parse_set_partition("12/3") == SetPartition(((1, 2), (3,)))
    for n in range(6):
        for pi in set_partitions(n):
            assert textio.parse_set_partition(textio.format_set_partition(pi)) == pi
    # the comma form appears once elements pass 9
    big = SetPartition((tuple(range(1, 11)),))
    text = textio.format_set_partition(big)
    assert "," in text
    assert textio.parse_set_partition(text) == big
    # past 9 entries a comma-free block is one entry, not a run of digits
    for text in ("1,2,3,4,5,6,7,8,9/10", "1/2/3/4/5/6/7/8/9/10", "1,3,5,7,9,11/2/4,6,8,10"):
        pi = textio.parse_set_partition(text)
        assert pi.size in (10, 11)
        assert textio.format_set_partition(pi) == text
    with pytest.raises(ParseError):
        textio.parse_set_partition("13")  # gap


def test_permutation_round_trip():
    for n in range(1, 5):
        for sigma in symmetric_group(n):
            assert textio.parse_permutation(textio.format_permutation(sigma)) == sigma
    assert textio.parse_permutation("id", size=3) == Permutation.identity(3)
    # the empty permutation prints as id and needs explicit context back
    assert textio.format_permutation(Permutation.identity(0)) == "id"
    assert textio.parse_permutation("id", size=0) == Permutation.identity(0)
    with pytest.raises(ParseError):
        textio.parse_permutation("id")
    with pytest.raises(ParseError):
        textio.parse_permutation("121")
    # past 9 points the images are comma-separated, as verify prints them at n >= 10
    for text in ("10,9,8,7,6,5,4,3,2,1", "2,1,4,3,6,5,8,7,10,9,12,11"):
        assert textio.format_permutation(textio.parse_permutation(text)) == text


def test_non_ascii_digits_are_parse_errors():
    """Only 0-9 are digits: str.isdigit takes "²" and int() reads "٣" as 3,
    but every parser refuses both with a ParseError naming the token, never
    a bare ValueError and never another number."""
    for parse, text, token in (
        (textio.parse_set_partition, "1²", "'1²'"),
        (textio.parse_set_partition, "1,²/3", "'²'"),
        (textio.parse_nc_expansion, "h[1²]", "'1²'"),
        (textio.parse_nc_expansion, "٣*h[1]", "'٣'"),
        (textio.parse_permutation, "²1", "'²1'"),
        (textio.parse_permutation, "1,٣,2", "'٣'"),
        (textio.parse_composition, "٣", "'٣'"),
        (textio.parse_partition, "2,١", "'١'"),
        (textio.parse_diagram, "٣", "'٣'"),
        (textio.parse_rational, "٣", "'٣'"),
        (textio.parse_rational, "1/٣", "'1/٣'"),
    ):
        with pytest.raises(ParseError, match=re.escape(token)):
            parse(text)


def test_numbers_too_long_to_read_are_parse_errors():
    """int() and Fraction() refuse digit strings past Python's limit (4,300
    digits by default) with a ValueError; every parser turns it into a
    ParseError naming the digit count."""
    long = "7" * 5000
    for parse, text in (
        (textio.parse_partition, long),
        (textio.parse_set_partition, f"1,{long}"),
        (textio.parse_permutation, f"1,{long}"),
        (textio.parse_rational, f"-{long}/3"),
        (textio.parse_rational, f"3/{long}"),
        (textio.parse_sym_expansion, f"{long}*h[1]"),
    ):
        with pytest.raises(ParseError, match="^a number of 5000 digits is too long to read$"):
            parse(text)


def test_diagram_round_trip():
    for n in range(1, 6):
        for d in connected_diagrams(n):
            assert textio.parse_diagram(textio.format_diagram(d)) == d
    assert textio.format_diagram(SkewDiagram(Partition((2, 1)))) == "2,1"
    assert textio.parse_diagram("2,2/1") == SkewDiagram(Partition((2, 2)), Partition((1,)))
    assert textio.parse_diagram("2,1/") == SkewDiagram(Partition((2, 1)))
    with pytest.raises(ParseError):
        textio.parse_diagram("2/1/1")
    with pytest.raises(ValueError):
        textio.parse_diagram("1/2")


def test_diagram_cell_cap_counts_cells_not_parts():
    """The cap counts the cells outer minus inner, so a wide skew shape of
    CELL_CAP cells reads, and one more cell is refused."""
    cap = textio.CELL_CAP
    assert textio.parse_diagram(f"{cap + 5}/5").size == cap
    assert textio.parse_diagram(",".join(["1"] * cap)).size == cap
    with pytest.raises(ValueError, match=f"more cells than the cap of {cap}$"):
        textio.parse_diagram(f"{cap + 5},1/5")


def test_diagram_width_cap_reads_the_basic_form():
    """The cap also bounds the width of the basic form, the outer's first
    part minus the inner part on the last row; malformed shapes still get
    SkewDiagram's own errors."""
    cap = textio.CELL_CAP
    assert textio.parse_diagram(f"{cap + 5},6/{cap + 4},5").outer.parts == (cap, 1)
    assert textio.parse_diagram(f"{cap},1/{cap - 1}").outer.parts == (cap, 1)
    with pytest.raises(ValueError, match=f"wider than the cap of {cap} columns$"):
        textio.parse_diagram(f"{cap + 1},1/{cap}")
    with pytest.raises(ValueError, match=f"wider than the cap of {cap} columns$"):
        textio.parse_diagram(f"{cap + 6},6/{cap + 5},5")
    for malformed, message in [
        (f"{cap + 2}/1,1,1", "does not fit"),
        (f"{cap + 2},1/{cap + 3}", "does not fit"),
        (f"{cap + 2},2,1/2,2,1", "empty row"),
    ]:
        with pytest.raises(ValueError, match=message):
            textio.parse_diagram(malformed)


def test_rational_round_trip():
    for q in (Fraction(0), Fraction(5), Fraction(-1, 6), Fraction(7, 3)):
        assert textio.parse_rational(textio.format_rational(q)) == q
    for bad in ("1.5", "1/0", "-3/00"):
        with pytest.raises(ParseError, match=bad):
            textio.parse_rational(bad)


def test_expansion_formatting():
    e = sym.h(Partition((2, 1))) - sym.h(Partition((3,)))
    assert str(e) == "h[2,1] - h[3]"
    assert textio.machine_lines(e) == ["1\t2,1", "-1\t3"]
    assert str(e - e) == "0"
    assert str(e.scaled(-1)) == "-h[2,1] + h[3]"
    assert str(e.scaled(Fraction(1, 2))) == "1/2*h[2,1] - 1/2*h[3]"


def test_sym_expansion_round_trip():
    for n in range(1, 6):
        for d in connected_diagrams(n):
            e = sym.skew_schur(d)
            assert textio.parse_sym_expansion(str(e)) == e
    assert textio.parse_sym_expansion("0") == sym.SymExpansion({})
    for bad, token in (
        ("h[1] + h[1,1]", "'h[1] + h[1,1]'"),
        ("", "empty expansion"),
        (" \t\n", "empty expansion"),
    ):
        with pytest.raises(ParseError, match=re.escape(token)):
            textio.parse_sym_expansion(bad)


def test_nc_expansion_round_trip():
    for n in range(1, 6):
        for d in connected_diagrams(n):
            e = ncsym.source_skew_schur(d)
            assert textio.parse_nc_expansion(str(e)) == e
    for outer in ((9, 1), (1,) * 10, (10, 1)):
        e = ncsym.source_skew_schur(SkewDiagram(Partition(outer)))
        assert textio.parse_nc_expansion(str(e)) == e, outer
    text = "1/2*h[13/2] - 1/6*h[123]"
    parsed = textio.parse_nc_expansion(text)
    assert str(parsed) == text
    assert textio.parse_nc_expansion(" 0 ") == ncsym.NCExpansion({})
    for bad, token in (
        ("h[12/3] +", "'+'"),
        ("2x*h[1]", "'2x'"),
        ("1/0*h[1]", "'1/0'"),
        ("+", "'+'"),
        ("- - h[1]", "'-'"),
        ("h[] + h[1]", "'h[] + h[1]'"),
        ("h[1] + h[12]", "'h[1] + h[12]'"),
        ("", "empty expansion"),
        ("   ", "empty expansion"),
    ):
        with pytest.raises(ParseError, match=re.escape(token)):
            textio.parse_nc_expansion(bad)


def test_machine_lines_nc():
    e = ncsym.source_skew_schur(SkewDiagram(Partition((2, 2)), Partition((1,))))
    assert textio.machine_lines(e) == ["1/2\t1/23", "-1/6\t123"]


def _reference_key(key):
    """A key's text as the formatter printed it through key objects."""
    if isinstance(key, Partition):
        return ",".join(str(p) for p in key.parts) if key.parts else "0"
    if not key.blocks:
        return "0"
    separator = "" if key.size <= 9 else ","
    return "/".join(separator.join(str(e) for e in block) for block in key.blocks)


def _reference_terms(e):
    """(key, coefficient) in display order, sorted here from the public
    support: more parts first, then lexicographic."""
    def raw(key):
        return key.parts if isinstance(key, Partition) else key.blocks

    keys = sorted(e.support(), key=lambda key: (-len(raw(key)), raw(key)))
    return [(raw(key), key, e.coefficient(key)) for key in keys]


def _reference_str(e):
    """The Fraction-operator formatter: sign by comparison, magnitude by
    negation, the 1 left out by equality, and str(Fraction)."""
    chunks = []
    for index, (_raw, key, coeff) in enumerate(_reference_terms(e)):
        negative = coeff < 0
        magnitude = -coeff if negative else coeff
        body = f"h[{_reference_key(key)}]"
        if magnitude != 1:
            body = f"{magnitude}*{body}"
        if index == 0:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks) or "0"


def _reference_repr(e):
    inner = ", ".join(f"{raw}: {coeff}" for raw, _key, coeff in _reference_terms(e))
    return f"{type(e).__name__}({{{inner}}})"


def _reference_machine_lines(e):
    return [f"{coeff}\t{_reference_key(key)}" for _raw, key, coeff in _reference_terms(e)]


def _assert_prints_as_reference(e):
    assert str(e) == _reference_str(e), repr(e)
    assert repr(e) == _reference_repr(e)
    assert textio.machine_lines(e) == _reference_machine_lines(e), repr(e)


def test_expansions_print_as_the_reference_formatter():
    """str, repr and machine_lines, read from integer numerators and raw
    keys, agree byte for byte with the Fraction-operator formatter: every
    connected diagram with n <= 7, source-labeled and under seeded
    labelings, with its commutative images; scaled and summed copies with
    non-unit numerators, integer magnitudes and a negative leading term;
    a degree-10 product, whose keys print with commas; and zero."""
    rng = random.Random(24)
    scales = (Fraction(2), Fraction(-1), Fraction(-3, 4), Fraction(5, 2), Fraction(-7))
    for n in range(1, 8):
        for d in connected_diagrams(n):
            src = ncsym.source_skew_schur(d)
            images = list(range(1, n + 1))
            rng.shuffle(images)
            rel = ncsym.act(Permutation(tuple(images)), src)
            c = rng.choice(scales)
            for e in (src, rel, rel.scaled(c), src + rel.scaled(c), src - src):
                _assert_prints_as_reference(e)
                _assert_prints_as_reference(ncsym.to_commutative(e))
            _assert_prints_as_reference(sym.skew_schur(d))
            _assert_prints_as_reference(sym.skew_schur(d).scaled(c))
    e = sym.h(Partition((2, 1))).scaled(2) - sym.h(Partition((3,))).scaled(Fraction(3, 2))
    assert str(e) == "2*h[2,1] - 3/2*h[3]"
    assert str(e.scaled(-1)) == "-2*h[2,1] + 3/2*h[3]"
    assert textio.machine_lines(e.scaled(-1)) == ["-2\t2,1", "3/2\t3"]
    _assert_prints_as_reference(e.scaled(-1))
    hook = ncsym.source_skew_schur(SkewDiagram(Partition((3, 1, 1))))
    big = hook * ncsym.act(Permutation((5, 3, 1, 2, 4)), hook).scaled(Fraction(-4, 3))
    assert big.degree == 10
    assert "," in str(big)
    assert str(big).startswith("-")
    _assert_prints_as_reference(big)
    _assert_prints_as_reference(big + big.scaled(Fraction(1, 5)))
    zero = big - big
    assert (str(zero), repr(zero), textio.machine_lines(zero)) == ("0", "NCExpansion({})", [])


def test_degree_zero_key_prints_as_zero():
    """The empty key prints "0", as format_partition and machine_lines print
    it; the parser still takes "h[]" too."""
    for e, parse in (
        (sym.h(Partition(())), textio.parse_sym_expansion),
        (ncsym.h(SetPartition(())), textio.parse_nc_expansion),
    ):
        assert str(e) == "h[0]"
        assert str(e.scaled(Fraction(-1, 2))) == "-1/2*h[0]"
        assert textio.machine_lines(e) == ["1\t0"]
        assert parse("h[0]") == e
        assert parse("h[]") == e
        assert parse(str(e)) == e
