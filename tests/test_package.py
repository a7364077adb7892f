"""Package-wide structural checks."""

import ast
import pathlib

import ncskew
from ncskew import cli, ncsym

PACKAGE_DIR = pathlib.Path(ncskew.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so soundness checks must raise instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_caches_are_bounded():
    for cached in (ncsym.source_skew_schur, ncsym._composition_term, cli.build_parser):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, cached.__name__
