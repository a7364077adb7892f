"""Command line front end.

Exit codes: 0 for success (including NOT-EQUAL verdicts and passing
verification runs), 1 for domain errors (invalid shapes, size mismatches,
disconnected input, failed verification) and for a sweep that could not
finish (an expansion without its row-blocks key), 2 for parse errors.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from . import classify, ncsym, sym, textio
from .classify import LabeledDiagram
from .ncsym import to_commutative
from .permutations import Permutation
from .textio import ParseError

# The largest n that `verify` runs without --force.  On a 2-vCPU VM with
# Python 3.11, in two runs through the CLI, verify 11 took 0.9-1.3 s and
# verify 12 3.1-3.3 s (peak RSS 64 MB); each further cell takes about three
# times as long, and that host's speed swings by up to 2x.
VERIFY_CAP = 11


def _ascii_int(text: str) -> int:
    """int(text) for ASCII text only: int() also reads digits such as "٣",
    which textio refuses.  Any failure keeps argparse's message for int."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _print_expansion(e, machine: bool) -> None:
    if machine:
        for line in textio.machine_lines(e):
            print(line)
    else:
        print(e)


def _parse_labeled(perm_text: str, diagram_text: str) -> LabeledDiagram:
    d = textio.parse_diagram(diagram_text)
    delta = textio.parse_permutation(perm_text, size=d.size)
    return LabeledDiagram(delta, d)


def _cmd_expand(args) -> int:
    d = textio.parse_diagram(args.diagram)
    _print_expansion(sym.skew_schur(d), args.format == "machine")
    return 0


def _cmd_expand_nc(args) -> int:
    if args.source:
        if len(args.args) != 1:
            raise ParseError("--source takes exactly one argument: the diagram")
        d = textio.parse_diagram(args.args[0])
        e = ncsym.source_skew_schur(d)
    else:
        if len(args.args) != 2:
            raise ParseError("expected a permutation and a diagram")
        d = textio.parse_diagram(args.args[1])
        delta = textio.parse_permutation(args.args[0], size=d.size)
        e = ncsym.skew_schur(delta, d)
    _print_expansion(e, args.format == "machine")
    return 0


def _cmd_equal(args) -> int:
    a = _parse_labeled(args.perm1, args.diagram1)
    b = _parse_labeled(args.perm2, args.diagram2)
    print("EQUAL" if classify.expansions_equal(a, b) else "NOT-EQUAL")
    return 0


def _cmd_classify(args) -> int:
    a = _parse_labeled(args.perm1, args.diagram1)
    b = _parse_labeled(args.perm2, args.diagram2)
    if a.diagram == b.diagram:
        print("EQUAL (oracle)" if classify.expansions_equal(a, b) else "NOT-EQUAL (oracle)")
        return 0
    condition = classify.failing_condition(a, b)
    print("EQUAL" if condition is None else f"NOT-EQUAL (condition {condition})")
    return 0


def _cmd_overlap(args) -> int:
    d = textio.parse_diagram(args.diagram)
    k = args.k
    print(textio.format_parenthesized(d.overlap_composition(k).parts))
    print(textio.format_parenthesized(d.overlap_partition(k).parts))
    return 0


def _cmd_rho(args) -> int:
    d = textio.parse_diagram(args.diagram)
    delta = textio.parse_permutation(args.perm, size=d.size)
    image = to_commutative(ncsym.skew_schur(delta, d))
    _print_expansion(image, args.format == "machine")
    matches = image == sym.skew_schur(d)
    print(f"MATCHES commutative: {'yes' if matches else 'no'}")
    return 0 if matches else 1


def _cmd_verify(args) -> int:
    n = args.n
    if n > VERIFY_CAP and not args.force:
        raise ValueError(f"n={n} exceeds the default cap of {VERIFY_CAP}; pass --force to run it")
    report = classify.verify_exhaustive(n)
    print(
        f"size {report.size}: {report.diagram_count} diagrams, "
        f"{report.pair_count} ordered pairs, {report.coset_checks} coset checks, "
        f"{report.agreements} agreements, {len(report.disagreements)} disagreements"
    )
    print(
        f"same-diagram: {report.same_diagram_checks} checks, "
        f"{report.same_diagram_equal} equal, "
        f"{report.same_diagram_condition} meeting the block condition"
    )
    for d in report.disagreements:
        sigma = textio.format_permutation(Permutation(d.labeling))
        predicted = "true" if d.predicted else "false"
        observed = "true" if d.observed else "false"
        print(f"{report.size} {d.pair_index} {sigma} {predicted} {observed}")
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


def _cmd_show(args) -> int:
    d = textio.parse_diagram(args.diagram)
    print(d.ascii_art())
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it:
    building it costs far more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="ncskew",
        description="Skew Schur functions in noncommuting variables and their equality classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("plain", "machine"),
            default="plain",
            help="machine prints one coeff<TAB>key line per term",
        )

    p = sub.add_parser("expand", help="h-expansion of a commutative skew Schur function")
    p.add_argument("diagram")
    add_format(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("expand-nc", help="h-expansion of a labeled skew Schur function in NCSym")
    p.add_argument("--source", action="store_true", help="use the source labeling")
    p.add_argument("args", nargs="+", metavar="ARG")
    add_format(p)
    p.set_defaults(func=_cmd_expand_nc)

    p = sub.add_parser("equal", help="compare two labeled expansions directly")
    p.add_argument("perm1")
    p.add_argument("diagram1")
    p.add_argument("perm2")
    p.add_argument("diagram2")
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("classify", help="classification verdict for two labeled diagrams")
    p.add_argument("perm1")
    p.add_argument("diagram1")
    p.add_argument("perm2")
    p.add_argument("diagram2")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("overlap", help="k-row overlap composition and partition")
    p.add_argument("diagram")
    p.add_argument("k", type=_ascii_int)
    p.set_defaults(func=_cmd_overlap)

    p = sub.add_parser("rho", help="let the variables of a labeled expansion commute")
    p.add_argument("perm")
    p.add_argument("diagram")
    add_format(p)
    p.set_defaults(func=_cmd_rho)

    p = sub.add_parser("verify", help="exhaustively confront predicate and oracle at size n")
    p.add_argument("n", type=_ascii_int)
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n beyond {VERIFY_CAP}; each further cell makes the run about three times longer",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("show", help="ASCII picture of a diagram")
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_show)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
