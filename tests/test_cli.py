import argparse
import hashlib
import math
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

from ncskew import classify, cli, ncsym, sym, textio
from ncskew.cli import main
from ncskew.compositions import Partition
from ncskew.diagrams import SkewDiagram, connected_diagrams
from ncskew.ncsym import h
from ncskew.permutations import Permutation
from ncskew.setpartitions import SetPartition


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "2,1")
    assert code == 0
    assert out == "h[2,1] - h[3]\n"


def test_expand_nc_and_rho_output_is_pinned(capsys):
    """The bytes that relabeling feeds to the two commands, over every
    connected diagram with n <= 7 under labelings drawn from
    random.Random(26): one sha256 over the concatenated stdout of
    `expand-nc P D --format machine` and `rho P D --format machine`, and
    every exit code 0.  The digest was computed with the per-term relabel
    that act used before relabel_keys replaced it.  The same comparison
    over every connected diagram with n <= 9 (1,972 calls) was also
    byte-identical when checked once by hand."""
    rng = random.Random(26)
    stdout, codes = [], []
    for n in range(1, 8):
        for d in connected_diagrams(n):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perm = textio.format_permutation(Permutation(tuple(images)))
            for command in ("expand-nc", "rho"):
                codes.append(main([command, perm, textio.format_diagram(d), "--format", "machine"]))
                stdout.append(capsys.readouterr().out)
    assert codes == [0] * 374
    digest = hashlib.sha256("".join(stdout).encode()).hexdigest()
    assert digest == "0e8d6ed82d7667826518a9c2cba3a0ebc0ee3e2d6a9789610d0813e4e446b681"


def test_expand_machine(capsys):
    code, out, _ = run(capsys, "expand", "2,1", "--format", "machine")
    assert code == 0
    assert out == "1\t2,1\n-1\t3\n"


def test_expand_nc_source(capsys):
    code, out, _ = run(capsys, "expand-nc", "id", "2,1")
    assert code == 0
    assert out == "1/2*h[12/3] - 1/6*h[123]\n"


def test_expand_nc_labeled(capsys):
    code, out, _ = run(capsys, "expand-nc", "321", "2,2/1")
    assert code == 0
    assert out == "1/2*h[12/3] - 1/6*h[123]\n"
    code, out, _ = run(capsys, "expand-nc", "id", "2,2/1")
    assert code == 0
    assert out == "1/2*h[1/23] - 1/6*h[123]\n"


def test_expand_nc_machine(capsys):
    code, out, _ = run(capsys, "expand-nc", "id", "2,1", "--format", "machine")
    assert code == 0
    assert out == "1/2\t12/3\n-1/6\t123\n"


def test_expand_nc_id_prints_the_source_expansion(capsys):
    """`expand-nc id D` is the CLI's one spelling of the source labeling:
    for every connected diagram with n <= 6 it prints source_skew_schur(D),
    and with --format machine its machine lines."""
    for n in range(1, 7):
        for d in connected_diagrams(n):
            src, text = ncsym.source_skew_schur(d), textio.format_diagram(d)
            assert run(capsys, "expand-nc", "id", text) == (0, f"{src}\n", ""), text
            machine = "".join(f"{line}\n" for line in textio.machine_lines(src))
            assert run(capsys, "expand-nc", "id", text, "--format", "machine") == (0, machine, "")


def test_equal(capsys):
    code, out, _ = run(capsys, "equal", "id", "2,1", "321", "2,2/1")
    assert code == 0
    assert out == "EQUAL\n"
    code, out, _ = run(capsys, "equal", "id", "2,1", "id", "2,2/1")
    assert code == 0
    assert out == "NOT-EQUAL\n"


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "id", "2,1", "321", "2,2/1")
    assert (code, out) == (0, "EQUAL\n")
    code, out, _ = run(capsys, "classify", "id", "2,1", "123", "2,2/1")
    assert (code, out) == (0, "NOT-EQUAL (condition 3)\n")
    code, out, _ = run(capsys, "classify", "id", "2,1", "id", "3")
    assert (code, out) == (0, "NOT-EQUAL (condition 2)\n")
    code, out, _ = run(capsys, "classify", "id", "1,1", "id", "2")
    assert (code, out) == (0, "NOT-EQUAL (condition 1)\n")


def test_classify_same_diagram(capsys):
    code, out, _ = run(capsys, "classify", "id", "2,1", "id", "2,1")
    assert (code, out) == (0, "EQUAL (oracle)\n")
    code, out, _ = run(capsys, "classify", "id", "2,1", "213", "2,1")
    assert (code, out) == (0, "EQUAL (oracle)\n")
    code, out, _ = run(capsys, "classify", "id", "2,1", "321", "2,1")
    assert (code, out) == (0, "NOT-EQUAL (oracle)\n")


def test_overlap(capsys):
    code, out, _ = run(capsys, "overlap", "5,5,4,4,2/4,3,3,1", "3")
    assert code == 0
    assert out == "(0,1,0)\n(1)\n"
    code, out, _ = run(capsys, "overlap", "5,5,4,4,2/4,3,3,1", "1")
    assert out == "(1,2,1,3,2)\n(3,2,2,1,1)\n"


def test_rho(capsys):
    code, out, _ = run(capsys, "rho", "321", "2,2/1")
    assert code == 0
    assert out == "h[2,1] - h[3]\nMATCHES commutative: yes\n"
    code, out, _ = run(capsys, "rho", "321", "2,2/1", "--format", "machine")
    assert code == 0
    assert out == "1\t2,1\n-1\t3\nMATCHES commutative: yes\n"


def test_rho_reports_a_mismatch(capsys, monkeypatch):
    """When the commutative image differs from sym.skew_schur, rho says so
    and exits 1."""
    monkeypatch.setattr(sym, "skew_schur", lambda d: sym.h(Partition((d.size,))))
    code, out, err = run(capsys, "rho", "321", "2,2/1")
    assert (code, err) == (1, "")
    assert out == "h[2,1] - h[3]\nMATCHES commutative: no\n"


def test_show(capsys):
    code, out, _ = run(capsys, "show", "2,2/1")
    assert (code, out) == (0, ".#\n##\n")


def test_diagram_parse_errors_name_partitions(capsys):
    """A diagram's outer and inner shapes are read as partitions, and the
    errors name them."""
    for args, message in (
        (("show", "2,0"), "partition parts must be positive integers, got (2, 0)"),
        (("show", "/"), "empty partition"),
        (("expand-nc", "12", "2/0,1"), "partition parts must be positive integers, got (0, 1)"),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err == f"error: {message}\n", args


# PINNED[n - 1] is the pinned stdout of `ncskew verify n`, for n = 1..12:
# three lines each, one blank line between blocks.  The CI workflow reads
# sizes 6 to 12 from the same file.
VERIFY_REPORTS = pathlib.Path(__file__).with_name("verify_reports.txt").read_text()
PINNED = [block + "\n" for block in VERIFY_REPORTS.removesuffix("\n").split("\n\n")]
REPORT = re.compile(
    r"size (\d+): (\d+) diagrams, (\d+) ordered pairs, (\d+) coset checks, "
    r"(\d+) agreements, 0 disagreements\n"
    r"same-diagram: (\d+) checks, (\d+) equal, (\d+) meeting the block condition\n"
    r"PASS\n"
)


@pytest.mark.parametrize(
    "n", [*range(1, 8), *(pytest.param(n, marks=pytest.mark.slow) for n in (8, 9, 10))]
)
def test_verify_prints_the_pinned_report(capsys, n):
    code, out, _ = run(capsys, "verify", str(n))
    assert (code, out) == (0, PINNED[n - 1])


def test_pinned_reports_are_passing_sweeps_of_sizes_1_to_12():
    """Each block is a passing report whose counts obey the identities of
    a sweep over c diagrams of size n, so a typo in the blocks only CI
    runs, 11 and 12, fails here too."""
    assert "\n".join(PINNED) == VERIFY_REPORTS
    assert len(PINNED) == 12
    for size, block in enumerate(PINNED, 1):
        match = REPORT.fullmatch(block)
        assert match, block
        n, c, pairs, checks, agreements, same, equal, condition = map(int, match.groups())
        assert n == size
        assert pairs == c * (c - 1), n
        assert checks == agreements == c * c * math.factorial(n), n
        assert same == c * math.factorial(n), n
        assert equal >= condition, n


def test_verify_prints_each_disagreement_and_fails(capsys, monkeypatch):
    """With condition 3 sending each row block onto itself, the predicate
    is wrong on both rotation pairs of size 3: verify prints each
    disagreeing labeling as `n pair_index sigma predicted observed`, then
    FAIL, and exits 1."""
    monkeypatch.setattr(classify, "_row_target", lambda block, n: block)
    code, out, _ = run(capsys, "verify", "3")
    assert code == 1
    assert out == (
        "size 3: 4 diagrams, 12 ordered pairs, 96 coset checks, 88 agreements, 8 disagreements\n"
        "same-diagram: 24 checks, 12 equal, 11 meeting the block condition\n"
        "3 6 123 true false\n"
        "3 6 132 true false\n"
        "3 6 312 false true\n"
        "3 6 321 false true\n"
        "3 9 123 true false\n"
        "3 9 213 true false\n"
        "3 9 231 false true\n"
        "3 9 321 false true\n"
        "FAIL\n"
    )


def test_verify_has_no_jobs_flag(capsys):
    """verify runs in one process and takes no --jobs: argparse refuses it
    as it refuses any unknown flag, with exit code 2 and nothing run."""
    for n, jobs in (("4", "2"), ("3", "0")):
        code, out, err = run(capsys, "verify", n, "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err.endswith(f"ncskew: error: unrecognized arguments: --jobs {jobs}\n"), err


def test_verify_cap(capsys, monkeypatch):
    """verify above the default cap needs --force, and verify 30 --force,
    whose 30-cell column exceeds the expansion term cap, is refused before
    any diagram is enumerated, with one error line and exit code 1."""

    def enumerated(n):
        raise AssertionError(f"enumerated n={n}")

    monkeypatch.setattr(classify, "connected_diagrams", enumerated)
    code, _, err = run(capsys, "verify", "12")
    assert code == 1
    assert "--force" in err
    code, out, err = run(capsys, "verify", "30", "--force")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_verify_reports_a_sweep_that_cannot_run(capsys, monkeypatch):
    """An expansion without its row-blocks key makes the sweep raise
    RuntimeError; the CLI turns it into one error line and exit code 1."""
    monkeypatch.setattr(
        classify, "_jacobi_trudi", lambda d: h(SetPartition((tuple(range(1, d.size + 1)),)))
    )
    code, out, err = run(capsys, "verify", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: the row blocks ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_a_walk_that_meets_a_key_twice_is_reported(capsys, monkeypatch):
    """A Jacobi-Trudi walk that repeats its own first term meets that key
    twice, which the expansion refuses with RuntimeError; expand-nc and
    verify turn it into one error line and exit code 1.  The cache is
    cleared first, or expand-nc would not walk at all."""
    walk = SkewDiagram.surviving_terms
    monkeypatch.setattr(SkewDiagram, "surviving_terms", lambda d: (terms := walk(d)) + terms[:1])
    ncsym.source_skew_schur.cache_clear()
    for argv in (["expand-nc", "id", "2,1"], ["verify", "3"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: the Jacobi-Trudi walk of ") and len(err.splitlines()) == 1
        assert "meets a key twice" in err and "Traceback" not in err


def test_a_number_too_long_to_read_is_a_parse_error(capsys):
    """Python refuses to read an int of more than 4,300 digits by default;
    show, expand and expand-nc report such a number as ncskew's own parse
    error, naming its digit count, with exit code 2."""
    long = "9" * 5000
    for argv in (
        ["show", long],
        ["expand", f"{long},1"],
        ["expand-nc", "id", long],
        ["expand-nc", "1", f"2/{long}"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: a number of 5000 digits is too long to read\n", argv
        assert "sys.set_int_max_str_digits" not in err


def _spy_on_diagrams(monkeypatch):
    """The argument tuples of every SkewDiagram built from now on."""
    built = []
    original = SkewDiagram.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SkewDiagram, "__init__", spy)
    return built


# One more cell than the cap, in one row and a second row of one.
OVER_CAP = f"{textio.CELL_CAP},1"


@pytest.mark.parametrize(
    "argv",
    [
        ["show", OVER_CAP],
        ["expand", OVER_CAP],
        ["expand-nc", "id", OVER_CAP, "--format", "machine"],
        ["expand-nc", "id", OVER_CAP],
        ["equal", "id", OVER_CAP, "id", "1"],
        ["classify", "id", OVER_CAP, "id", "1"],
        ["rho", "id", OVER_CAP],
        ["overlap", OVER_CAP, "1"],
    ],
)
def test_a_diagram_above_the_cell_cap_is_refused(capsys, monkeypatch, argv):
    """Every command refuses a diagram of more than CELL_CAP cells at once,
    with one error line naming the cap and exit code 1, before any
    SkewDiagram is built."""
    built = _spy_on_diagrams(monkeypatch)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out, built) == (1, "", [])
    assert err == f"error: the diagram has more cells than the cap of {textio.CELL_CAP}\n"


# Two cells, in columns CELL_CAP + 1 apart.
OVER_WIDTH = f"{textio.CELL_CAP + 1},1/{textio.CELL_CAP}"


@pytest.mark.parametrize(
    "argv",
    [
        ["show", OVER_WIDTH],
        ["expand", OVER_WIDTH],
        ["overlap", OVER_WIDTH, "1"],
        ["expand-nc", "id", OVER_WIDTH],
    ],
)
def test_a_diagram_wider_than_the_cap_is_refused(capsys, monkeypatch, argv):
    """A disconnected diagram of few cells but more than CELL_CAP columns,
    whose rows show pads to its width, is refused like one of too many
    cells once the parser has built it and read its width, and no other
    SkewDiagram is built."""
    built = _spy_on_diagrams(monkeypatch)
    code, out, err = run(capsys, *argv)
    cap = textio.CELL_CAP
    assert (code, out, built) == (1, "", [(Partition((cap + 1, 1)), Partition((cap,)))])
    assert err == f"error: the diagram is wider than the cap of {cap} columns\n"


def test_a_diagram_as_wide_as_the_cap_is_shown(capsys):
    cap = textio.CELL_CAP
    code, out, err = run(capsys, "show", f"{cap},1/{cap - 1}")
    assert (code, err) == (0, "")
    assert out == "." * (cap - 1) + "#\n#" + "." * (cap - 1) + "\n"


def test_a_row_at_the_cell_cap_prints_its_coefficient(capsys):
    """The cap is sized so that 1/n!, the coefficient of an n-cell row,
    prints within Python's default limit on converting ints to text."""
    cap = textio.CELL_CAP
    code, out, err = run(capsys, "expand-nc", "id", str(cap), "--format", "machine")
    assert (code, err) == (0, "")
    assert out == f"1/{math.factorial(cap)}\t{','.join(map(str, range(1, cap + 1)))}\n"


def test_a_reader_that_stops_early_ends_the_output_quietly():
    """`expand-nc --format machine id 1^16 | head -1`: the 32,768
    lines pass a 64 KB pipe buffer, so ncskew writes to a closed pipe; it
    exits 1 with nothing on stderr."""
    column = ",".join(["1"] * 16)
    argv = [sys.executable, "-m", "ncskew", "expand-nc", "--format", "machine", "id", column]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert first == b"1\t1/2/3/4/5/6/7/8/9/10/11/12/13/14/15/16\n"
    assert err == b""


def test_expand_nc_tall_column(capsys):
    code, out, _ = run(capsys, "expand-nc", "id", ",".join(["1"] * 14), "--format", "machine")
    assert code == 0
    assert len(out.splitlines()) == 8192


def test_expansion_term_cap(capsys):
    column = ",".join(["1"] * 40)
    for argv in (["expand-nc", "id", column], ["expand", column]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: the expansion has {2**39} terms, more than the cap of {2**16}\n"


def test_exit_codes(capsys):
    # semantic error: inner not contained
    code, _, err = run(capsys, "expand", "3,1/2,2")
    assert code == 1
    assert err.startswith("error:")
    # parse error
    code, _, err = run(capsys, "expand", "abc")
    assert code == 2
    assert run(capsys, "show", "") == (2, "", "error: empty diagram\n")
    # labeling of the wrong size
    code, _, _ = run(capsys, "expand-nc", "12", "2,1")
    assert code == 1
    # argparse checks expand-nc's argument count, and knows no --source
    for argv, message in (
        (["expand-nc", "2,1"], "the following arguments are required: diagram"),
        (["expand-nc", "--source", "2,1"], "the following arguments are required: diagram"),
        (["expand-nc", "id", "2,1", "1,1"], "unrecognized arguments: 1,1"),
        (["expand-nc", "--source", "id", "2,1"], "unrecognized arguments: --source"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("usage: ncskew") and err.endswith(f"error: {message}\n"), err
    # argparse rejects the unknown command with its own exit
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_non_ascii_digits_exit_with_a_parse_error(capsys):
    """int() reads "٣" as 3, but a diagram of non-ASCII digits is a parse
    error: exit code 2, one error line naming the token, no picture."""
    code, out, err = run(capsys, "show", "٣")
    assert (code, out) == (2, "")
    assert err == "error: not a number: '٣'\n"
    code, out, err = run(capsys, "expand-nc", "²1", "1,1")
    assert (code, out) == (2, "")
    assert err == "error: not a permutation: '²1'\n"


def test_non_ascii_digits_are_not_counts(capsys):
    """int() reads "٣" as 3, and "1_0", "+4" and " 4" too, but the counts
    of verify and overlap take the ASCII digits only, with argparse's
    message for a bad int: exit code 2, nothing run.  ASCII text int()
    refuses, a count of 5,000 digits included, keeps that same message."""
    for args, name, token in (
        (("verify", "٣"), "n", "٣"),
        (("overlap", "2,1", "١"), "k", "١"),
        (("verify", "three"), "n", "three"),
        (("verify", "1_0"), "n", "1_0"),
        (("verify", "+4"), "n", "+4"),
        (("verify", " 4"), "n", " 4"),
        (("verify", "-3"), "n", "-3"),
        (("overlap", "2,1", "0_1"), "k", "0_1"),
        (("verify", "7" * 5000), "n", "7" * 5000),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err.endswith(f"error: argument {name}: invalid int value: '{token}'\n"), err


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once; one call's options must not reach the next
    code, out, _ = run(capsys, "expand-nc", "id", "2,1")
    assert (code, out) == (0, "1/2*h[12/3] - 1/6*h[123]\n")
    code, out, _ = run(capsys, "expand-nc", "id", "2,2/1")
    assert (code, out) == (0, "1/2*h[1/23] - 1/6*h[123]\n")
    code, out, err = run(capsys, "classify", "id", "2,1")
    assert (code, out) == (2, "")
    assert "usage: ncskew classify" in err
    code, out, err = run(capsys, "classify", "id", "2,1", "321", "2,2/1")
    assert (code, out, err) == (0, "EQUAL\n", "")
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
    code, out, err = run(capsys, "expand", "2,1", "--format", "machine")
    assert (code, out, err) == (0, "1\t2,1\n-1\t3\n", "")
    code, out, _ = run(capsys, "expand", "2,1")
    assert (code, out) == (0, "h[2,1] - h[3]\n")


# Command lines that main parses with the named command's parser alone,
# and others that go to the root parser.
DISPATCH_TABLE = [
    ["expand", "2,1"],
    ["expand", "2,1", "--format", "machine"],
    ["expand-nc", "--source", "2,1"],
    ["expand-nc", "321", "2,2/1", "--format", "machine"],
    ["expand-nc", "--sou", "2,1"],
    ["expand-nc", "--format", "xml", "--source", "2,1"],
    ["equal", "id", "2,1", "321", "2,2/1"],
    ["classify", "id", "2,1", "123", "2,2/1"],
    ["classify", "id", "2,1"],
    ["overlap", "5,5,4,4,2/4,3,3,1", "3"],
    ["overlap", "2,1"],
    ["rho", "321", "2,2/1"],
    ["verify", "3"],
    ["verify", "12"],
    ["verify", "3", "--jobs", "2"],
    ["verify"],
    ["verify", "-h"],
    ["show", "--", "2,2/1"],
    ["show", "2,1", "--"],
    ["show", "2,1", "2,1"],
    ["expand-nc", "-h"],
    ["expand", "--help"],
    ["frobnicate"],
    ["--format", "machine", "expand", "2,1"],
    [],
    ["--help"],
]


@pytest.mark.parametrize("argv", DISPATCH_TABLE, ids=" ".join)
def test_dispatch_matches_the_root_parser(capsys, monkeypatch, argv):
    """Every command line gives the stdout, stderr and exit code that
    parsing it with the root parser gives."""
    dispatched = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert dispatched == run(capsys, *argv)


def test_command_parsers_have_the_root_parsers_help(capsys):
    """Each command's own parser prints the help that the root parser
    prints for that command."""
    for name in cli._COMMANDS:
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([name, "--help"])
        assert cli._command_parser(name).format_help() == capsys.readouterr().out


def test_only_the_named_parser_is_built(capsys, monkeypatch):
    """A command line that starts with a command builds that command's
    parser and no other, and not the root parser."""
    built = []
    original = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.prog)

    def root():
        raise AssertionError("build_parser called")

    cli.build_parser.cache_clear()
    cli._command_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    monkeypatch.setattr(cli, "build_parser", root)
    code, out, err = run(capsys, "verify", "3")
    assert (code, err, out.splitlines()[-1]) == (0, "", "PASS")
    assert built == ["ncskew verify"]


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ncskew", "expand", "2,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "h[2,1] - h[3]\n"


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "ncskew", "classify", "id", "2,1", "321", "2,2/1"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "EQUAL\n"
