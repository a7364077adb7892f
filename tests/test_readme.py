"""The examples in README.md run and print what the README shows.

The `pycon` blocks run as one doctest, sharing their names in order.  Each
`$ ncskew ...` line of a `sh` block runs through `cli.main` in process, and
its standard output must equal, byte for byte, the lines shown under it up
to the next `$` line or the end of the block.
"""

import contextlib
import doctest
import io
import pathlib
import re
import shlex

import pytest

from ncskew import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w+)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(language):
    return [body for lang, body in FENCE.findall(README.read_text()) if lang == language]


def _commands():
    """(argv, expected stdout) of each `$ ncskew` line."""
    out = []
    for body in _blocks("sh"):
        command = None
        for line in body.splitlines():
            if line.startswith("$ "):
                command = None
                argv = shlex.split(line[2:], comments=True)
                if argv[0] == "ncskew":
                    command = (argv[1:], [])
                    out.append(command)
            elif command is not None:
                command[1].append(line + "\n")
    return [(argv, "".join(lines)) for argv, lines in out]


COMMANDS = _commands()


def test_readme_has_examples():
    assert len(_blocks("pycon")) >= 2
    assert len(COMMANDS) >= 10


def test_pycon_blocks():
    text = "\n".join(_blocks("pycon"))
    test = doctest.DocTestParser().get_doctest(text, {}, "README.md", str(README), 0)
    runner = doctest.DocTestRunner()
    report = io.StringIO()
    runner.run(test, out=report.write)
    assert runner.failures == 0, report.getvalue()
    assert runner.tries > 0


@pytest.mark.parametrize("argv,expected", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_command_lines(argv, expected):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0, err.getvalue()
    assert out.getvalue() == expected
