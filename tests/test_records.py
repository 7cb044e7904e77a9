"""Each presh record's fields are the names its class body annotates, and
equality and hashing read exactly those fields through one getter."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import presh.cli  # noqa: F401  (imports every module that defines a record)
from presh.report import Frozen, Record


def _records(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("presh."):
            found.append(sub)
        found.extend(_records(sub))
    return found


RECORDS = [c for c in _records(Record) if c is not Frozen]


def test_every_record_module_is_seen():
    modules = {c.__module__ for c in RECORDS}
    names = ("cli", "dsl", "lattice", "model", "ops", "presheaf", "report")
    assert modules == {f"presh.{m}" for m in names}
    assert len(RECORDS) == 24


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_fields_are_the_class_annotations_in_order(cls):
    assert cls._fields
    assert cls._fields == tuple(vars(cls)["__annotations__"])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_the_getter_reads_exactly_the_fields(cls):
    values = {f: object() for f in cls._fields}
    got = cls._field_values(SimpleNamespace(**values))
    want = tuple(values.values())
    # one field's getter gives the bare value
    assert (got if len(want) > 1 else (got,)) == want
