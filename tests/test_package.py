"""Package-wide structural checks."""

import ast
import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import ncskew
from ncskew import classify, cli, ncsym
from ncskew.classify import Disagreement, LabeledDiagram, SameDiagramVerdict, verify_exhaustive
from ncskew.compositions import Composition, Partition, WeakComposition
from ncskew.diagrams import SkewDiagram
from ncskew.permutations import Permutation
from ncskew.setpartitions import SetPartition
from ncskew.value import Value

PACKAGE_DIR = pathlib.Path(ncskew.__file__).parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so soundness checks must raise instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_caches_are_bounded():
    for cached in (ncsym.source_skew_schur, ncsym._composition_term, cli.build_parser, cli._command_parser):
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, cached.__name__


HOOK = SkewDiagram(Partition((2, 1)))
ROTATED = SkewDiagram(Partition((2, 2)), Partition((1,)))

# A builder of one value of each value type, and its repr, which is the
# repr these types had as frozen dataclasses.  The values are built in each
# test, as an _Entry held here would outlive every sweep.
VALUES = [
    (lambda: Composition((1, 2)), "Composition(parts=(1, 2))"),
    (lambda: WeakComposition((0, 2)), "WeakComposition(parts=(0, 2))"),
    (lambda: Partition((2, 1)), "Partition(parts=(2, 1))"),
    (lambda: HOOK, "SkewDiagram(outer=Partition(parts=(2, 1)), inner=Partition(parts=()))"),
    (lambda: SetPartition(((1, 3), (2,))), "SetPartition(blocks=((1, 3), (2,)))"),
    (lambda: Permutation((2, 1)), "Permutation(images=(2, 1))"),
    (
        lambda: LabeledDiagram(Permutation((3, 1, 2)), HOOK),
        "LabeledDiagram(labeling=Permutation(images=(3, 1, 2)), "
        "diagram=SkewDiagram(outer=Partition(parts=(2, 1)), inner=Partition(parts=())))",
    ),
    (
        lambda: SameDiagramVerdict(equal=True, blocks_preserved=False),
        "SameDiagramVerdict(equal=True, blocks_preserved=False)",
    ),
    (
        lambda: Disagreement(1, 0, 1, (2, 1), True, False),
        "Disagreement(pair_index=1, first=0, second=1, labeling=(2, 1), predicted=True, observed=False)",
    ),
    (
        lambda: verify_exhaustive(2),
        "VerificationReport(size=2, diagram_count=2, pair_count=2, coset_checks=8, agreements=8, "
        "disagreements=(), same_diagram_checks=4, same_diagram_equal=4, same_diagram_condition=3)",
    ),
    (
        lambda: classify._entry(ROTATED),
        "_Entry(diagram=SkewDiagram(outer=Partition(parts=(2, 2)), inner=Partition(parts=(1,))), "
        "expansion=NCExpansion({((1,), (2, 3)): 1/2, ((1, 2, 3),): -1/6}), "
        "fingerprint=(((1, (1, 0, 1)), 1), ((2, (0, 1, 1)), 1)), rows=((1,), (2, 3)), "
        "atoms=((1,), (2, 3)), classes=(((1, (1, 0, 1)), ((1,),)), ((2, (0, 1, 1)), ((2, 3),))), "
        "partner=SkewDiagram(outer=Partition(parts=(2, 1)), inner=Partition(parts=())))",
    ),
]
IDS = [text.split("(")[0] for _, text in VALUES]


def _fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_value_repr_and_hash(build, text):
    value = build()
    assert repr(value) == str(value) == text
    if isinstance(value, classify._Entry):
        with pytest.raises(TypeError):  # its expansion is unhashable
            hash(value)
    else:
        assert hash(value) == hash(_fields(value))
    assert type(value).__match_args__ == type(value).__slots__


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_value_is_immutable(build, text):
    value = build()
    name = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = None
    assert not hasattr(value, "__dict__")
    assert repr(value) == text


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_value_pickles_and_copies(build, text):
    value = build()
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value
        assert repr(other) == text


@pytest.mark.parametrize("build, text", VALUES, ids=IDS)
def test_value_is_built_by_keyword(build, text):
    value = build()
    cls = type(value)
    fields = dict(zip(cls.__slots__, _fields(value)))
    assert cls(**fields) == cls(*fields.values()) == value
    with pytest.raises(TypeError):
        cls(**fields, other=None)


def test_values_of_different_classes_differ():
    assert Partition((2, 1)) != Composition((2, 1))
    assert Composition((2, 1)) != WeakComposition((2, 1))
    assert Partition((2, 1)) != (2, 1) and Partition((2, 1)) != ((2, 1),)
    assert Disagreement(1, 0, 1, (2, 1), True, False) != (1, 0, 1, (2, 1), True, False)


def test_values_of_one_class_with_other_fields_differ():
    for first, second in [
        (Composition((1, 2)), Composition((2, 1))),
        (WeakComposition((0, 2)), WeakComposition((2, 0))),
        (Partition((2, 1)), Partition((2, 1, 1))),
        (SetPartition(((1, 3), (2,))), SetPartition(((1, 2), (3,)))),
        (Permutation((2, 1)), Permutation((1, 2))),
        (LabeledDiagram(Permutation((3, 1, 2)), HOOK), LabeledDiagram(Permutation((1, 2, 3)), HOOK)),
    ]:
        assert first != second and not first == second, first


def test_value_is_the_one_equality_and_hash_but_for_skew_diagrams():
    """SkewDiagram, hashed and compared in bulk as a cache and index key,
    is the one value type with its own __eq__ and __hash__."""
    types = {type(build()) for build, _ in VALUES}
    assert types == set(Value.__subclasses__())
    for cls in types - {SkewDiagram}:
        assert cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__, cls
    assert {"__eq__", "__hash__"} <= vars(SkewDiagram).keys()


def test_parts_types_share_one_check_size_and_length():
    """_Parts holds the parts check, size, length and factorial; Partition
    only adds its weakly-decreasing check."""
    parts_types = (Composition, WeakComposition, Partition)
    for cls in parts_types:
        assert not {"size", "length", "factorial"} & vars(cls).keys(), cls
    assert len({cls.factorial for cls in parts_types}) == 1
    assert WeakComposition((0, 2)).factorial() == 2
    assert [cls for cls in parts_types if "__init__" in vars(cls)] == [Partition]


def test_value_defaults_and_normal_forms():
    assert Composition() == Composition(parts=()) and Composition().parts == ()
    assert WeakComposition() == WeakComposition(()) and Partition() == Partition(())
    assert SetPartition() == SetPartition(blocks=()) and Permutation() == Permutation(images=())
    assert Partition(parts=[2, 1]).parts == (2, 1)
    assert SetPartition(blocks=[[3, 1], [2]]).blocks == ((1, 3), (2,))
    assert SkewDiagram(outer=Partition((3, 2)), inner=Partition((1, 1))) == HOOK
    assert SkewDiagram(Partition((2, 1))).inner == Partition(())
    assert LabeledDiagram(labeling=Permutation((1, 2, 3)), diagram=HOOK).diagram is HOOK
    with pytest.raises(TypeError):
        SameDiagramVerdict(True)


def test_trusted_values_equal_validated_ones():
    for trusted, validated in [
        (Partition._trusted((2, 1)), Partition((2, 1))),
        (Partition._trusted(()), Partition()),
        (SetPartition._trusted(((1, 3), (2,))), SetPartition(((3, 1), (2,)))),
        (SkewDiagram._trusted((2, 1), ()), SkewDiagram(Partition((2, 1)))),
        (SkewDiagram._trusted((2, 2), (1,)), SkewDiagram(Partition((3, 3)), Partition((2, 1)))),
    ]:
        assert trusted == validated and hash(trusted) == hash(validated)
        assert repr(trusted) == repr(validated)
        assert pickle.loads(pickle.dumps(trusted)) == validated


def test_value_match_patterns():
    match HOOK:
        case SkewDiagram(Partition(outer), inner):
            assert (outer, inner) == ((2, 1), Partition(()))
        case _:
            raise AssertionError("no match")


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    """A CLI call pays for every module ncskew imports, each time it starts."""
    code = (
        "import sys; before = set(sys.modules); import ncskew.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    added = set(done.stdout.split())
    assert "ncskew.cli" in added
    assert not added & {"dataclasses", "inspect"}
