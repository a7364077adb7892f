import hashlib
import random
import subprocess
import sys

import pytest

from ncskew import classify, sym, textio
from ncskew.cli import main
from ncskew.compositions import Partition
from ncskew.diagrams import connected_diagrams
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
    code, out, _ = run(capsys, "expand-nc", "--source", "2,1")
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
    code, out, _ = run(capsys, "expand-nc", "--source", "2,1", "--format", "machine")
    assert code == 0
    assert out == "1/2\t12/3\n-1/6\t123\n"


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


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("size 3: 4 diagrams, 12 ordered pairs")
    assert lines[-1] == "PASS"


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


def test_a_number_too_long_to_read_is_a_parse_error(capsys):
    """Python refuses to read an int of more than 4,300 digits by default;
    show, expand and expand-nc report such a number as ncskew's own parse
    error, naming its digit count, with exit code 2."""
    long = "9" * 5000
    for argv in (
        ["show", long],
        ["expand", f"{long},1"],
        ["expand-nc", "--source", long],
        ["expand-nc", "1", f"2/{long}"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: a number of 5000 digits is too long to read\n", argv
        assert "sys.set_int_max_str_digits" not in err


def test_verify_seven_runs_without_force(capsys):
    code, out, _ = run(capsys, "verify", "7")
    assert code == 0
    assert out.splitlines()[-1] == "PASS"


def test_expand_nc_tall_column(capsys):
    code, out, _ = run(capsys, "expand-nc", "--source", ",".join(["1"] * 14), "--format", "machine")
    assert code == 0
    assert len(out.splitlines()) == 8192


def test_expansion_term_cap(capsys):
    column = ",".join(["1"] * 40)
    for argv in (["expand-nc", "--source", column], ["expand", column]):
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
    # labeling of the wrong size
    code, _, _ = run(capsys, "expand-nc", "12", "2,1")
    assert code == 1
    # expand-nc argument counts
    code, out, err = run(capsys, "expand-nc", "--source", "2,1", "1,1")
    assert (code, out) == (2, "")
    assert err == "error: --source takes exactly one argument: the diagram\n"
    code, out, err = run(capsys, "expand-nc", "2,1")
    assert (code, out) == (2, "")
    assert err == "error: expected a permutation and a diagram\n"
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
    refuses keeps that same message."""
    for args, name, token in (
        (("verify", "٣"), "n", "٣"),
        (("overlap", "2,1", "١"), "k", "١"),
        (("verify", "three"), "n", "three"),
        (("verify", "1_0"), "n", "1_0"),
        (("verify", "+4"), "n", "+4"),
        (("verify", " 4"), "n", " 4"),
        (("verify", "-3"), "n", "-3"),
        (("overlap", "2,1", "0_1"), "k", "0_1"),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, ""), args
        assert err.endswith(f"error: argument {name}: invalid int value: '{token}'\n"), err


def test_consecutive_calls_share_no_state(capsys):
    # the parser is built once; one call's options must not reach the next
    code, out, _ = run(capsys, "expand-nc", "--source", "2,1")
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
