"""Text forms for the CLI and for round-tripping expansions.

Compositions and partitions print as comma-separated parts ("1,2,1,3,2",
empty "0"), set partitions as blocks joined by slashes with digit runs for
entries up to 9 ("12/3") and comma-separated entries above that ("1/2,4/3"),
permutations in one-line notation ("321", comma-separated past 9), diagrams
as outer/inner ("5,5,4,4,2/4,3,3,1", straight shapes may drop the slash),
and expansions as signed lists of coeff*h[key] terms.

Expansions print their terms in display order (more parts first, then
lexicographic), read from the raw keys and from each coefficient's integer
numerator and denominator; no key object or Fraction operator is involved.
A coefficient's text is "num" or "num/den", exactly str(Fraction).  In a
term the sign stands apart (" + " or " - ", a bare "-" on the first term)
and a magnitude of 1 is left out: "1/2*h[12/3] - h[123]".  Keys print as
format_partition and format_set_partition print them, the empty one as
"0"; whether set partition keys print as digit runs is decided once per
expansion, from its degree.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable

from .compositions import Composition, Partition
from .diagrams import SkewDiagram
from .ncsym import NCExpansion
from .permutations import Permutation
from .setpartitions import Blocks, SetPartition
from .sym import SymExpansion


class ParseError(Exception):
    """Malformed input text; the message names the offending token."""


def _is_digits(token: str) -> bool:
    """Whether token is a nonempty run of the ASCII digits 0-9, the one
    digit test of every parser here: str.isdigit, int() and the regex \\d
    also take digits such as "²" or "٣"."""
    return token.isascii() and token.isdigit()


def _too_long(digits: int) -> ParseError:
    """The error for a number that int() refuses to read for its length
    (Python's limit on converting long digit strings)."""
    return ParseError(f"a number of {digits} digits is too long to read")


def _parse_int(token: str) -> int:
    token = token.strip()
    if not _is_digits(token):
        raise ParseError(f"not a number: {token!r}")
    try:
        return int(token)
    except ValueError:
        raise _too_long(len(token)) from None


# ---------------------------------------------------------------------------
# compositions and partitions


def _parts_text(parts: tuple[int, ...]) -> str:
    return ",".join([str(p) for p in parts]) if parts else "0"


def _parse_parts(text: str, parts_type):
    """The comma list text ("0" for none) as a parts_type, checked by it."""
    text = text.strip()
    if text == "0":
        return parts_type(())
    if not text:
        raise ParseError(f"empty {parts_type.__name__.lower()}")
    try:
        return parts_type(tuple(_parse_int(t) for t in text.split(",")))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_composition(alpha: Composition) -> str:
    return _parts_text(alpha.parts)


def parse_composition(text: str) -> Composition:
    return _parse_parts(text, Composition)


def format_partition(key: Partition) -> str:
    return _parts_text(key.parts)


def parse_partition(text: str) -> Partition:
    return _parse_parts(text, Partition)


def format_parenthesized(parts: tuple[int, ...]) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


# ---------------------------------------------------------------------------
# set partitions


def _blocks_text(blocks: Blocks, digit_runs: bool) -> str:
    if not blocks:
        return "0"
    separator = "" if digit_runs else ","
    return "/".join([separator.join([str(e) for e in block]) for block in blocks])


def format_set_partition(pi: SetPartition) -> str:
    return _blocks_text(pi.blocks, pi.size <= 9)


def parse_set_partition(text: str) -> SetPartition:
    text = text.strip()
    if text == "0":
        return SetPartition(())
    if not text:
        raise ParseError("empty set partition")
    chunks = [chunk.strip() for chunk in text.split("/")]
    if not all(chunks):
        raise ParseError(f"empty block in set partition: {text!r}")
    # Digit runs are printed only up to 9 entries; past that a chunk is one entry.
    digit_runs = sum(chunk.count(",") + 1 if "," in chunk else len(chunk) for chunk in chunks) <= 9
    blocks = []
    for chunk in chunks:
        if "," in chunk or not digit_runs:
            blocks.append(tuple(_parse_int(t) for t in chunk.split(",")))
        else:
            if not _is_digits(chunk):
                raise ParseError(f"not a block: {chunk!r}")
            blocks.append(tuple(int(ch) for ch in chunk))
    try:
        return SetPartition(tuple(blocks))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# permutations


def format_permutation(delta: Permutation) -> str:
    if delta.size == 0:
        return "id"
    if delta.size <= 9:
        return "".join(str(v) for v in delta.images)
    return ",".join(str(v) for v in delta.images)


def parse_permutation(text: str, size: int | None = None) -> Permutation:
    text = text.strip()
    if text == "id":
        if size is None:
            raise ParseError("'id' needs a size from context")
        return Permutation.identity(size)
    try:
        if "," in text:
            return Permutation(tuple(_parse_int(t) for t in text.split(",")))
        if not _is_digits(text):
            raise ParseError(f"not a permutation: {text!r}")
        return Permutation(tuple(int(ch) for ch in text))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# diagrams


def format_diagram(d: SkewDiagram) -> str:
    outer = format_partition(d.outer)
    if not d.inner.parts:
        return outer
    return f"{outer}/{format_partition(d.inner)}"


# The most cells a diagram read from text may have.  An n-cell row expands
# in NCSym to 1/n! h[1...n], and Python converts ints of at most 4,300 digits
# to text by default: 1558! has 4,300 digits and 1559! has 4,303.  The cap
# keeps such coefficients printable and a diagram's rows few.  It also caps
# the built diagram's width, which show pads every row to and which a
# connected diagram within the cell cap never exceeds.
CELL_CAP = 1000


def parse_diagram(text: str) -> SkewDiagram:
    """The diagram of text; ParseError for malformed text, ValueError for
    well-formed text naming no diagram, one of more than CELL_CAP cells
    (refused before the diagram is built) or one wider than CELL_CAP
    columns."""
    text = text.strip()
    if not text:
        raise ParseError("empty diagram")
    if text.count("/") > 1:
        raise ParseError(f"not a diagram: {text!r}")
    outer_text, _, inner_text = text.partition("/")
    outer = parse_partition(outer_text)
    inner = parse_partition(inner_text) if inner_text.strip() else Partition(())
    # The message leaves the count out: a sum of parts can pass the digits
    # that str() converts.
    if outer.size - inner.size > CELL_CAP:
        raise ValueError(f"the diagram has more cells than the cap of {CELL_CAP}")
    d = SkewDiagram(outer, inner)
    if d.outer.parts[0] > CELL_CAP:
        raise ValueError(f"the diagram is wider than the cap of {CELL_CAP} columns")
    return d


# ---------------------------------------------------------------------------
# rationals and expansions


def format_rational(q: Fraction) -> str:
    return str(q)


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    numerator, slash, denominator = text.removeprefix("-").partition("/")
    if not slash:
        denominator = "1"
    # digits on both sides of the slash, and no zero denominator
    if not (_is_digits(numerator) and _is_digits(denominator) and denominator.strip("0")):
        raise ParseError(f"not a rational: {text!r}")
    try:
        return Fraction(text)
    except ValueError:
        raise _too_long(max(len(numerator), len(denominator))) from None


def _key_text(e: SymExpansion | NCExpansion) -> Callable[[tuple], str]:
    """The text of a raw key of e: parts for a partition, blocks for a set
    partition, with digit runs when e's degree is at most 9."""
    if isinstance(e, SymExpansion):
        return _parts_text
    digit_runs = (e.degree or 0) <= 9
    return lambda blocks: _blocks_text(blocks, digit_runs)


def _format_terms(e: SymExpansion | NCExpansion) -> str:
    key_text = _key_text(e)
    chunks = []
    for raw, coeff in e._display_terms():
        num, den = coeff.as_integer_ratio()
        sign = " + "
        if num < 0:
            sign, num = " - ", -num
        magnitude = f"{num}/{den}*" if den != 1 else f"{num}*" if num != 1 else ""
        chunks.append(f"{sign}{magnitude}h[{key_text(raw)}]")
    if not chunks:
        return "0"
    text = "".join(chunks)
    # the first term drops the spaces around its sign, and a "+" altogether
    return text[3:] if text[1] == "+" else "-" + text[3:]


def format_sym_expansion(e: SymExpansion) -> str:
    return _format_terms(e)


def format_nc_expansion(e: NCExpansion) -> str:
    return _format_terms(e)


def machine_lines(e: SymExpansion | NCExpansion) -> list[str]:
    """One term per line as coeff<TAB>key."""
    key_text = _key_text(e)
    lines = []
    for raw, coeff in e._display_terms():
        num, den = coeff.as_integer_ratio()
        coeff_text = str(num) if den == 1 else f"{num}/{den}"
        lines.append(f"{coeff_text}\t{key_text(raw)}")
    return lines


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    """The signed terms of text: one sign between terms, at most one before the first."""
    out = []
    sign = None
    for piece in re.split(r"([+-])", text):
        piece = piece.strip()
        if piece in ("+", "-"):
            if sign is not None:
                raise ParseError(f"sign {piece!r} follows a sign in expansion: {text!r}")
            sign = piece
        elif piece:
            out.append((-1 if sign == "-" else 1, piece))
            sign = None
    if sign is not None:
        raise ParseError(f"dangling sign {sign!r} in expansion: {text!r}")
    return out


def _parse_term(term: str, parse_key):
    if "*" in term:
        coeff_text, _, key_text = term.partition("*")
        coeff = parse_rational(coeff_text)
    else:
        coeff, key_text = Fraction(1), term
    key_text = key_text.strip()
    match = re.fullmatch(r"h\[(.*)\]", key_text)
    if not match:
        raise ParseError(f"not an h term: {term!r}")
    return parse_key(match.group(1)), coeff


def _parse_expansion(text: str, expansion_type, parse_key, empty_key):
    text = text.strip()
    if not text:
        raise ParseError("empty expansion")
    if text == "0":
        return expansion_type()
    pairs = []
    for sign, term in _split_signed_terms(text):
        key, coeff = _parse_term(term, lambda t: parse_key(t) if t else empty_key)
        pairs.append((key, sign * coeff))
    try:
        return expansion_type(pairs)
    except ValueError as exc:  # the surviving terms mix degrees
        raise ParseError(f"{exc}: {text!r}") from None


def parse_sym_expansion(text: str) -> SymExpansion:
    return _parse_expansion(text, SymExpansion, parse_partition, Partition(()))


def parse_nc_expansion(text: str) -> NCExpansion:
    return _parse_expansion(text, NCExpansion, parse_set_partition, SetPartition(()))
