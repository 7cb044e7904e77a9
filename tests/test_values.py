"""The value types' contract: construction, equality, hashing, immutability
and repr text, pinned type by type, plus what ``import presh.cli`` loads."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from presh.cli import Execution
from presh.dsl import (
    CheckDirective,
    IdentificationDecl,
    MergeDirective,
    SourceSpan,
    TransferDirective,
    Workspace,
    serialize,
)
from presh.errors import MalformedInputError
from presh.lattice import CoverFamily, Subset
from presh.model import ConstraintTable, Model, compile_model
from presh.ops import (
    DiffReport,
    FeatureIdentification,
    GuardedTable,
    MergedModel,
    ObjectDiff,
    SharedFiber,
    transfer,
)
from presh.presheaf import (
    AbstractPresheaf,
    Assignment,
    AssignmentPresheaf,
    Fiber,
    NatTransformation,
    extensions,
    pullback_presheaf,
    validate_laws,
)
from presh.report import LawReport, Violation

SRC = Path(__file__).resolve().parents[1] / "src"

A = Subset(["a"])


def _fiber():
    return Fiber("a", ("x", "y"))


def _table():
    return ConstraintTable(Subset(["a"]), "forbid", [("y",)])


def _model():
    return Model("M", [_fiber()], [_table()], {"a": "the a"})


def _ident():
    return FeatureIdentification("h", {"a": "b"}, {"a": {"x": "p"}})


def _shared():
    return SharedFiber("a", ("x",), ("x", "y"), ("y",), False)


def _guarded():
    return GuardedTable("left", _table(), _table(), True)


def _object_diff():
    return ObjectDiff((Assignment(A, ("x",)),), ())


class Case(NamedTuple):
    cls: type
    fields: Callable[[], dict]  # fresh field values, by name, in field order
    other: Callable[[], dict]  # the fields of an unequal value
    repr: str
    hashable: bool


CASES = [
    Case(
        Subset,
        lambda: {"names": ("a", "b")},
        lambda: {"names": ("a",)},
        "Subset(names=('a', 'b'))",
        True,
    ),
    Case(
        CoverFamily,
        lambda: {"universe": Subset(["a"])},
        lambda: {"universe": Subset(["b"])},
        "CoverFamily(universe=Subset(names=('a',)))",
        True,
    ),
    Case(
        Fiber,
        lambda: {"feature": "a", "values": ("x", "y")},
        lambda: {"feature": "a", "values": ("y", "x")},
        "Fiber(feature='a', values=('x', 'y'))",
        True,
    ),
    Case(
        Assignment,
        lambda: {"domain": Subset(["a"]), "values": ("x",)},
        lambda: {"domain": Subset(["a"]), "values": ("y",)},
        "Assignment(domain=Subset(names=('a',)), values=('x',))",
        True,
    ),
    Case(
        ConstraintTable,
        lambda: {"scope": Subset(["a"]), "polarity": "forbid", "tuples": [("y",)]},
        lambda: {"scope": Subset(["a"]), "polarity": "allow", "tuples": [("y",)]},
        "ConstraintTable(scope=Subset(names=('a',)), polarity='forbid', tuples=(('y',),))",
        True,
    ),
    Case(
        Model,
        lambda: {
            "name": "M",
            "fibers": [_fiber()],
            "tables": [_table()],
            "labels": {"a": "the a"},
        },
        lambda: {
            "name": "M",
            "fibers": [_fiber()],
            "tables": [_table()],
            "labels": {"a": "an a"},
        },
        "Model(name='M', fibers={'a': Fiber(feature='a', values=('x', 'y'))}, "
        "tables=(ConstraintTable(scope=Subset(names=('a',)), polarity='forbid', "
        "tuples=(('y',),)),), labels={'a': 'the a'})",
        False,
    ),
    Case(
        AssignmentPresheaf,
        lambda: {
            "family": CoverFamily(A),
            "fibers": {"a": _fiber()},
            "rows": {Subset(): ((),), A: (("x",),)},
        },
        lambda: {
            "family": CoverFamily(A),
            "fibers": {"a": _fiber()},
            "rows": {Subset(): ((),), A: (("y",),)},
        },
        "AssignmentPresheaf(family=CoverFamily(universe=Subset(names=('a',))), "
        "fibers={'a': Fiber(feature='a', values=('x', 'y'))}, "
        "rows={Subset(names=()): ((),), Subset(names=('a',)): (('x',),)})",
        False,
    ),
    Case(
        AbstractPresheaf,
        lambda: {
            "family": CoverFamily(A),
            "elements": {A: ("*",)},
            "restrictions": {(A, A): {"*": "*"}},
        },
        lambda: {"family": CoverFamily(A), "elements": {A: ("*",)}, "restrictions": {}},
        "AbstractPresheaf(family=CoverFamily(universe=Subset(names=('a',))), "
        "elements={Subset(names=('a',)): ('*',)}, "
        "restrictions={(Subset(names=('a',)), Subset(names=('a',))): {'*': '*'}})",
        False,
    ),
    Case(
        NatTransformation,
        lambda: {"components": {A: {"*": "*"}}},
        lambda: {"components": {}},
        "NatTransformation(components={Subset(names=('a',)): {'*': '*'}})",
        False,
    ),
    Case(
        Violation,
        lambda: {"law": "closure", "detail": "detail", "witness": (A,)},
        lambda: {"law": "closure", "detail": "detail", "witness": ()},
        "Violation(law='closure', detail='detail', witness=(Subset(names=('a',)),))",
        True,
    ),
    Case(
        LawReport,
        lambda: {"violations": (Violation("closure", "detail", (A,)),)},
        lambda: {"violations": ()},
        "LawReport(violations=(Violation(law='closure', detail='detail', "
        "witness=(Subset(names=('a',)),)),))",
        True,
    ),
    Case(
        FeatureIdentification,
        lambda: {"name": "h", "feature_map": {"a": "b"}, "value_maps": {"a": {"x": "p"}}},
        lambda: {"name": "h", "feature_map": {"a": "b"}, "value_maps": {"a": {"x": "q"}}},
        "FeatureIdentification(name='h', feature_map={'a': 'b'}, "
        "value_maps={'a': {'x': 'p'}})",
        False,
    ),
    Case(
        SharedFiber,
        lambda: {
            "feature": "a",
            "left_values": ("x",),
            "right_values": ("x", "y"),
            "added_from_right": ("y",),
            "reordered": False,
        },
        lambda: {
            "feature": "a",
            "left_values": ("x",),
            "right_values": ("x", "y"),
            "added_from_right": ("y",),
            "reordered": True,
        },
        "SharedFiber(feature='a', left_values=('x',), right_values=('x', 'y'), "
        "added_from_right=('y',), reordered=False)",
        True,
    ),
    Case(
        GuardedTable,
        lambda: {
            "source": "left", "original": _table(), "imported": _table(), "guarded": True
        },
        lambda: {
            "source": "right", "original": _table(), "imported": _table(), "guarded": True
        },
        "GuardedTable(source='left', original=ConstraintTable(scope=Subset(names=('a',)), "
        "polarity='forbid', tuples=(('y',),)), imported=ConstraintTable("
        "scope=Subset(names=('a',)), polarity='forbid', tuples=(('y',),)), guarded=True)",
        True,
    ),
    Case(
        MergedModel,
        lambda: {"result": _model(), "shared": (_shared(),), "tables": (_guarded(),)},
        lambda: {"result": _model(), "shared": (), "tables": (_guarded(),)},
        "MergedModel(result=Model(name='M', fibers={'a': Fiber(feature='a', "
        "values=('x', 'y'))}, tables=(ConstraintTable(scope=Subset(names=('a',)), "
        "polarity='forbid', tuples=(('y',),)),), labels={'a': 'the a'}), "
        "shared=(SharedFiber(feature='a', left_values=('x',), "
        "right_values=('x', 'y'), added_from_right=('y',), reordered=False),), "
        "tables=(GuardedTable(source='left', original=ConstraintTable("
        "scope=Subset(names=('a',)), polarity='forbid', tuples=(('y',),)), "
        "imported=ConstraintTable(scope=Subset(names=('a',)), polarity='forbid', "
        "tuples=(('y',),)), guarded=True),))",
        False,
    ),
    Case(
        ObjectDiff,
        lambda: {"only_in_left": (Assignment(A, ("x",)),), "only_in_right": ()},
        lambda: {"only_in_left": (), "only_in_right": (Assignment(A, ("x",)),)},
        "ObjectDiff(only_in_left=(Assignment(domain=Subset(names=('a',)), "
        "values=('x',)),), only_in_right=())",
        True,
    ),
    Case(
        DiffReport,
        lambda: {"per_object": {A: _object_diff()}},
        lambda: {"per_object": {}},
        "DiffReport(per_object={Subset(names=('a',)): ObjectDiff(only_in_left=("
        "Assignment(domain=Subset(names=('a',)), values=('x',)),), only_in_right=())})",
        False,
    ),
    Case(
        SourceSpan,
        lambda: {"line": 3, "column": 7, "length": 1},
        lambda: {"line": 3, "column": 7, "length": 2},
        "SourceSpan(line=3, column=7, length=1)",
        True,
    ),
    Case(
        IdentificationDecl,
        lambda: {"ident": _ident(), "target_name": "T", "source_name": "S"},
        lambda: {"ident": _ident(), "target_name": "S", "source_name": "T"},
        "IdentificationDecl(ident=FeatureIdentification(name='h', feature_map={'a': 'b'}, "
        "value_maps={'a': {'x': 'p'}}), target_name='T', source_name='S')",
        False,
    ),
    Case(
        MergeDirective,
        lambda: {"result": "R", "left": "L", "right": "Q"},
        lambda: {"result": "R", "left": "Q", "right": "L"},
        "MergeDirective(result='R', left='L', right='Q')",
        True,
    ),
    Case(
        TransferDirective,
        lambda: {"result": "R", "identification": "h", "source": "S"},
        lambda: {"result": "R", "identification": "g", "source": "S"},
        "TransferDirective(result='R', identification='h', source='S')",
        True,
    ),
    Case(
        CheckDirective,
        lambda: {"target": "R"},
        lambda: {"target": "S"},
        "CheckDirective(target='R')",
        True,
    ),
    Case(
        Workspace,
        lambda: {
            "items": (
                _model(),
                IdentificationDecl(_ident(), "T", "S"),
                MergeDirective("R", "L", "Q"),
                TransferDirective("R", "h", "S"),
                CheckDirective("R"),
            )
        },
        lambda: {"items": (_model(),)},
        "Workspace(items=(Model(name='M', fibers={'a': Fiber(feature='a', "
        "values=('x', 'y'))}, tables=(ConstraintTable(scope=Subset(names=('a',)), "
        "polarity='forbid', tuples=(('y',),)),), labels={'a': 'the a'}), "
        "IdentificationDecl(ident=FeatureIdentification("
        "name='h', feature_map={'a': 'b'}, value_maps={'a': {'x': 'p'}}), "
        "target_name='T', source_name='S'), MergeDirective(result='R', left='L', "
        "right='Q'), TransferDirective(result='R', identification='h', source='S'), "
        "CheckDirective(target='R')))",
        False,
    ),
    Case(
        Execution,
        lambda: {"workspace": Workspace((CheckDirective("R"),)), "max_enum": 10},
        lambda: {"workspace": Workspace((CheckDirective("R"),)), "max_enum": 11},
        "Execution(workspace=Workspace(items=(CheckDirective(target='R'),)), "
        "max_enum=10, artifacts={}, _compiled={})",
        False,
    ),
]

FROZEN = [c for c in CASES if c.cls is not Execution]


def _ids(case: Case) -> str:
    return case.cls.__name__


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_keyword_and_positional_construction_agree(case):
    by_keyword = case.cls(**case.fields())
    by_position = case.cls(*case.fields().values())
    assert by_keyword == by_position
    assert not by_keyword != by_position
    assert by_keyword is not by_position


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_unequal_fields_and_other_classes_compare_unequal(case):
    value = case.cls(**case.fields())
    other = case.cls(**case.other())
    assert value != other
    assert not value == other
    assert value != tuple(case.fields().values())
    assert value != object()


def test_equal_fields_in_another_record_class_are_unequal():
    assert MergeDirective("R", "h", "S") != TransferDirective("R", "h", "S")
    assert Fiber("a", ("x",)) != Assignment(Subset(["a"]), ("x",))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_equal_values_hash_equal(case):
    first, second = case.cls(**case.fields()), case.cls(**case.fields())
    if case.hashable:
        assert hash(first) == hash(second)
        assert {first: 1}[second] == 1
    else:
        with pytest.raises(TypeError):
            hash(first)


def test_model_is_unhashable_and_compares_all_four_fields():
    base = dict(
        name="M",
        fibers=[Fiber("a", ("x", "y"))],
        tables=[ConstraintTable(Subset(["a"]), "forbid", [("y",)])],
        labels={"a": "the a"},
    )
    with pytest.raises(TypeError):
        hash(Model(**base))
    changes = dict(
        name="N",
        fibers=[Fiber("a", ("x", "y", "z"))],
        tables=[],
        labels={},
    )
    for field, value in changes.items():
        assert Model(**{**base, field: value}) != Model(**base), field


@pytest.mark.parametrize("case", FROZEN, ids=_ids)
def test_frozen_fields_cannot_be_assigned_or_deleted(case):
    value = case.cls(**case.fields())
    for name in case.fields():
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_repr_keeps_the_field_by_field_text(case):
    assert repr(case.cls(**case.fields())) == case.repr


def test_defaults():
    assert Violation("law", "detail").witness == ()
    assert LawReport().violations == ()
    assert LawReport().passed
    assert SourceSpan(1, 2).length == 1
    model = Model("M", [Fiber("a", ("x",))])
    assert (model.tables, model.labels) == ((), {})


def test_cached_properties_survive_freezing():
    fiber = Fiber("a", ("x", "y"))
    assert fiber.index == {"x": 0, "y": 1}
    assert "y" in fiber
    family = CoverFamily(Subset(["a", "b"]))
    assert len(family.objects) == 4
    workspace = Workspace((Model("M", [fiber]), CheckDirective("M")))
    assert list(workspace.models) == ["M"]
    assert Subset._trusted(("a", "b")) == Subset(["b", "a"])


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Subset(["has space"]), "invalid feature name 'has space'"),
        (lambda: Fiber("9f", ("x",)), "invalid feature name '9f'"),
        (lambda: Fiber("f", ("x y",)), "invalid value name 'x y'"),
        (lambda: Model("x y", [_fiber()]), "invalid model name 'x y'"),
        (
            lambda: FeatureIdentification("bad name", {"a": "b"}, {"a": {"x": "p"}}),
            "invalid identification name 'bad name'",
        ),
        (
            lambda: FeatureIdentification("h", {"a": "b c"}, {"a": {"x": "p"}}),
            "invalid feature name 'b c'",
        ),
        (
            lambda: FeatureIdentification("h", {"a": "b"}, {"a": {"u v": "w"}}),
            "invalid value name 'u v'",
        ),
        (
            lambda: FeatureIdentification("h", {"a": "b"}, {"a": {"u": "v w"}}),
            "invalid value name 'v w'",
        ),
    ],
)
def test_name_errors_say_which_kind_of_name_failed(make, message):
    with pytest.raises(MalformedInputError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Model("m", [_fiber(), "b"]), "fiber 'b' is not a Fiber"),
        (lambda: Model("m", {"a": 3}), "fiber 3 is not a Fiber"),
        (lambda: Model("m", [_fiber()], [], {1: "x"}), "label key 1 is not a str"),
        (
            lambda: FeatureIdentification("h", {"a": "b"}, {"a": ["x"]}),
            "identification 'h' maps 'a' by a list, not a value map",
        ),
    ],
    ids=["fiber-in-a-list", "fiber-in-a-mapping", "label-key", "value-map"],
)
def test_wrong_typed_entries_are_malformed_input(make, message):
    with pytest.raises(MalformedInputError, match=f"^{message}$"):
        make()


def _one_value_presheaf(*names):
    return compile_model(Model("m", [Fiber(n, ("x",)) for n in names]))


def _unknown_source_feature():
    return FeatureIdentification("h", {"a": "zz"}, {"a": {"x": "x"}})


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: FeatureIdentification(
                "h", {"a": "x", "b": "x"}, {"a": {"p": "q"}, "b": {"p": "q"}}
            ),
            "identification 'h' maps two features onto 'x'",
        ),
        (
            lambda: FeatureIdentification("h", {"a": "b"}, {"c": {"x": "p"}}),
            "identification 'h' needs one value map per mapped feature",
        ),
        (
            lambda: transfer(_unknown_source_feature(), _model()),
            "identification 'h' maps 'a' to unknown feature 'zz'",
        ),
        (lambda: Assignment(A, ("x",)).value_of("zz"), "'zz' not in {a}"),
        (
            lambda: extensions(
                _one_value_presheaf("a", "b"), Assignment(A, ("x",)), Subset(["b"])
            ),
            "{a} is not contained in {b}",
        ),
        (lambda: validate_laws(object()), "not a presheaf: object"),
        (
            lambda: pullback_presheaf(_unknown_source_feature(), _one_value_presheaf("a")),
            "mapped feature 'zz' missing from the source",
        ),
        (lambda: serialize(42), "cannot serialize int"),
    ],
    ids=[
        "identification-onto-one-feature",
        "identification-value-maps",
        "transfer-unknown-feature",
        "value-of",
        "extensions-not-contained",
        "validate-laws",
        "pullback-missing-feature",
        "serialize",
    ],
)
def test_input_errors_say_what_is_wrong(make, message):
    with pytest.raises(MalformedInputError, match=f"^{re.escape(message)}$"):
        make()


def test_a_law_report_is_true_exactly_when_it_passed():
    failed = LawReport((Violation("closure", "detail"),))
    assert [bool(LawReport()), bool(failed)] == [LawReport().passed, failed.passed]
    assert [bool(LawReport()), bool(failed)] == [True, False]


def test_import_of_the_cli_loads_no_dataclasses_or_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import presh.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n"


def test_no_source_file_imports_dataclasses():
    for path in sorted((SRC / "presh").glob("*.py")):
        assert "dataclasses" not in path.read_text(encoding="utf-8"), path.name
