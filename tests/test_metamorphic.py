"""Metamorphic relations: two compiles of models that must answer alike.

Each relation changes a random model in a way that cannot change its
answers, then compares the two compiled presheaves at every object.  No
oracle is involved, so the relations hold on models of any size; here they
run on small random models.  At every object of every model compiled,
``rows.count(u)`` (counted on a fresh compile, so no rows are built before
it) equals ``len(rows[u])``.
"""

from __future__ import annotations

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presh.lattice import Subset
from presh.model import ALLOW, FORBID, ConstraintTable, Model, compile_model, random_model
from presh.presheaf import Fiber, row_sort_key

RELATION = settings(max_examples=40, deadline=None, derandomize=True)

models = st.integers(0, 10**6).map(
    lambda seed: random_model(seed, max_features=5, max_fiber=3, max_tables=4)
)


def answers(model: Model) -> tuple[dict, dict]:
    """Each object's rows, and each object's count on a compile of its own."""
    rows = compile_model(model).rows
    counts = {u: compile_model(model).rows.count(u) for u in rows}
    for u, n in counts.items():
        assert n == len(rows[u]), u
    return dict(rows.items()), counts


def columns(src: tuple[str, ...], dst: tuple[str, ...]) -> list[int]:
    """The position in ``src`` of each name of ``dst``."""
    return list(map(src.index, dst))


def pick(cols: list[int]):
    return lambda row: tuple(row[c] for c in cols)


@RELATION
@given(models, st.data())
def test_renaming_features_permutes_the_columns(model, data):
    names = tuple(model.fibers)
    rename = dict(zip(names, data.draw(st.permutations(names))))
    tables = []
    for t in model.tables:
        scope = Subset(rename[f] for f in t.scope.names)
        cols = columns(tuple(map(rename.get, t.scope.names)), scope.names)
        tables.append(ConstraintTable(scope, t.polarity, map(pick(cols), t.tuples)))
    fibers = [Fiber(rename[f], fib.values) for f, fib in model.fibers.items()]
    renamed = Model(model.name, fibers, tables)
    rows, counts = answers(model)
    got, got_counts = answers(renamed)
    for u in rows:
        v = Subset(rename[f] for f in u.names)
        key = row_sort_key(renamed.fibers, v.names)
        cols = columns(tuple(map(rename.get, u.names)), v.names)
        want = sorted(map(pick(cols), rows[u]), key=key)
        assert list(got[v]) == want, (u, v)
        assert got_counts[v] == counts[u], (u, v)


@RELATION
@given(models, st.data())
def test_reordering_fibers_keeps_the_rows_as_sets(model, data):
    fibers = [
        Fiber(f, data.draw(st.permutations(fib.values))) for f, fib in model.fibers.items()
    ]
    rows, counts = answers(model)
    got, got_counts = answers(Model(model.name, fibers, model.tables))
    for u in rows:
        assert set(got[u]) == set(rows[u]), u
        assert got_counts[u] == counts[u], u


def implied_tables(model: Model, table: ConstraintTable) -> list[ConstraintTable]:
    """Tables that ``table``, an allow table of ``model``, already implies:
    its cylinder over each other feature, and a forbid row for each scope
    tuple it does not allow."""
    scope = table.scope.names
    implied = []
    for g, fib in model.fibers.items():
        if g in scope:
            continue
        wider = Subset(scope + (g,))
        cols = columns(scope + (g,), wider.names)
        rows = (row + (v,) for row in table.tuples for v in fib.values)
        implied.append(ConstraintTable(wider, ALLOW, map(pick(cols), rows)))
    for row in product(*(model.fibers[f].values for f in scope)):
        if row not in table.tuples:
            implied.append(ConstraintTable(table.scope, FORBID, [row]))
    return implied


@RELATION
@given(models, st.data())
def test_adding_an_implied_table_keeps_every_objects_rows(model, data):
    allows = [t for t in model.tables if t.polarity == ALLOW]
    assume(allows)
    table = data.draw(st.sampled_from(allows))
    implied = implied_tables(model, table)
    assume(implied)
    extra = data.draw(st.sampled_from(implied))
    rows, counts = answers(model)
    got, got_counts = answers(Model(model.name, model.fibers, model.tables + (extra,)))
    assert got == rows
    assert got_counts == counts
