"""Command line front end.

Exit codes: 0 for success (including NOT-EQUAL verdicts and passing
verification runs), 1 for domain errors (invalid shapes, size mismatches,
disconnected input, a diagram of more than textio.CELL_CAP cells or
columns, failed verification), for an expansion or a sweep that could not
finish (a Jacobi-Trudi walk that meets a key twice, an expansion without its
row-blocks key) and for a reader that closed standard output early (`| head`),
which ends the output with nothing on stderr, 2 for parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache

from . import classify, ncsym, sym, textio
from .classify import LabeledDiagram
from .ncsym import to_commutative
from .permutations import Permutation
from .textio import ParseError

# The largest n that `verify` runs without --force.  On a 2-vCPU VM with
# Python 3.11, in two runs through the CLI, verify 11 took 0.6-0.7 s and
# verify 12 1.8 s (peak RSS 64 MB); each further cell takes about three
# times as long, and that host's speed swings by up to 2x.
VERIFY_CAP = 11


def _ascii_int(text: str) -> int:
    """int(text) for a run of ASCII digits only: int() also reads digits
    such as "٣", signs, spaces and underscores, which textio refuses.  Any
    refusal, a digit string too long for int() included, keeps argparse's
    message for int."""
    if textio._is_digits(text):
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
    d = textio.parse_diagram(args.diagram)
    delta = textio.parse_permutation(args.perm, size=d.size)
    _print_expansion(ncsym.skew_schur(delta, d), args.format == "machine")
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


def _add_format(p) -> None:
    p.add_argument(
        "--format",
        choices=("plain", "machine"),
        default="plain",
        help="machine prints one coeff<TAB>key line per term",
    )


def _add_labeled_pair(p) -> None:
    p.add_argument("perm1")
    p.add_argument("diagram1")
    p.add_argument("perm2")
    p.add_argument("diagram2")


def _define_expand(p) -> None:
    p.add_argument("diagram")
    _add_format(p)
    p.set_defaults(func=_cmd_expand)


def _define_expand_nc(p) -> None:
    p.add_argument("perm")
    p.add_argument("diagram")
    _add_format(p)
    p.set_defaults(func=_cmd_expand_nc)


def _define_equal(p) -> None:
    _add_labeled_pair(p)
    p.set_defaults(func=_cmd_equal)


def _define_classify(p) -> None:
    _add_labeled_pair(p)
    p.set_defaults(func=_cmd_classify)


def _define_overlap(p) -> None:
    p.add_argument("diagram")
    p.add_argument("k", type=_ascii_int)
    p.set_defaults(func=_cmd_overlap)


def _define_rho(p) -> None:
    p.add_argument("perm")
    p.add_argument("diagram")
    _add_format(p)
    p.set_defaults(func=_cmd_rho)


def _define_verify(p) -> None:
    p.add_argument("n", type=_ascii_int)
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n beyond {VERIFY_CAP}; each further cell makes the run about three times longer",
    )
    p.set_defaults(func=_cmd_verify)


def _define_show(p) -> None:
    p.add_argument("diagram")
    p.set_defaults(func=_cmd_show)


# Each subcommand's help line and the function that defines its arguments,
# in the order the root parser's help lists them.
_COMMANDS = {
    "expand": ("h-expansion of a commutative skew Schur function", _define_expand),
    "expand-nc": ("h-expansion of a labeled skew Schur function in NCSym", _define_expand_nc),
    "equal": ("compare two labeled expansions directly", _define_equal),
    "classify": ("classification verdict for two labeled diagrams", _define_classify),
    "overlap": ("k-row overlap composition and partition", _define_overlap),
    "rho": ("let the variables of a labeled expansion commute", _define_rho),
    "verify": ("exhaustively confront predicate and oracle at size n", _define_verify),
    "show": ("ASCII picture of a diagram", _define_show),
}


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The root parser, with every subcommand, built on the first call and
    shared after it.  `main` uses it only for a command line that does not
    start with a subcommand's name (no arguments, -h, an option or an
    unknown command first) or that its subcommand's parser leaves
    arguments of; every other line goes to `_command_parser` alone, which
    builds one subcommand instead of all of them."""
    parser = argparse.ArgumentParser(
        prog="ncskew",
        description="Skew Schur functions in noncommuting variables and their equality classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, define) in _COMMANDS.items():
        define(sub.add_parser(name, help=help_text))
    return parser


@lru_cache(maxsize=len(_COMMANDS))
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of the subcommand name alone, built on its first use and
    shared after it.  Its arguments, usage, errors and help are those of the
    root parser's subparser of that name."""
    parser = argparse.ArgumentParser(prog=f"ncskew {name}")
    _COMMANDS[name][1](parser)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        args, extras = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    # The root parser again names any leftover arguments in its own error.
    return build_parser().parse_args(argv)


def _run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
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


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default) and return its exit
    code."""
    try:
        code = _run(sys.argv[1:] if argv is None else argv)
        # A reader that stopped early (`| head`) fails this flush, inside the try.
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at devnull so that
        # flush writes nowhere instead of printing a second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
