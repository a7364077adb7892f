import subprocess
import sys

import pytest

from ncskew.cli import main


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "2,1")
    assert code == 0
    assert out == "h[2,1] - h[3]\n"


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


def test_show(capsys):
    code, out, _ = run(capsys, "show", "2,2/1")
    assert (code, out) == (0, ".#\n##\n")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("size 3: 4 diagrams, 12 ordered pairs")
    assert lines[-1] == "PASS"


def test_verify_cap(capsys):
    code, _, err = run(capsys, "verify", "12")
    assert code == 1
    assert "--force" in err


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
    # argparse rejects the unknown command with its own exit
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


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
