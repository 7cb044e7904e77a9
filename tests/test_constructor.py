"""The one constructor of presh's dict-backed value records: arguments bind
to ``_fields`` as they would to a ``def`` with those parameters."""

from __future__ import annotations

import pytest

import presh.cli  # noqa: F401  (imports every module that defines a record)
from presh.dsl import MergeDirective, SourceSpan
from presh.lattice import Subset
from presh.model import ConstraintTable
from presh.ops import RemovalReport
from presh.report import Frozen, LawReport, Violation


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MergeDirective("R", "L"), "MergeDirective() missing argument 'right'"),
        (lambda: SourceSpan(3), "SourceSpan() missing argument 'column'"),
        (lambda: Violation(detail="d"), "Violation() missing argument 'law'"),
        (
            lambda: MergeDirective("R", "L", "Q", rigth="Q"),
            "MergeDirective() got an unexpected keyword argument 'rigth'",
        ),
        (
            lambda: MergeDirective("R", "L", "Q", left="L"),
            "MergeDirective() got multiple values for argument 'left'",
        ),
        (
            lambda: MergeDirective("R", "L", "Q", "X"),
            "MergeDirective() takes 3 arguments, 4 given",
        ),
    ],
    ids=[
        "missing",
        "missing-before-a-default",
        "missing-beside-a-keyword",
        "unknown-keyword",
        "given-twice",
        "too-many",
    ],
)
def test_binding_errors_are_type_errors(call, message):
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message


def test_a_class_attribute_named_like_a_field_is_its_default():
    table = ConstraintTable(Subset(["a"]), "forbid", [("x",)])
    assert SourceSpan(3, 7, length=2).length == 2
    assert SourceSpan(column=7, line=3) == SourceSpan(3, 7, 1)
    assert Violation(law="l", detail="d").witness == ()
    assert LawReport(violations=()) == LawReport()
    assert RemovalReport(dropped_empty=(table,)) == RemovalReport((), (), (table,))


def test_only_validating_or_slot_backed_records_write_an_init():
    records = [c for c in Frozen.__subclasses__() if c.__module__.startswith("presh.")]
    own_init = {c.__name__ for c in records if "__init__" in vars(c)}
    slot_backed = {c.__name__ for c in records if "__slots__" in vars(c)}
    assert slot_backed == {"Subset", "Assignment", "ConstraintTable"}
    assert own_init - slot_backed == {"Model", "Fiber", "FeatureIdentification"}
