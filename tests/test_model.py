import random
from pathlib import Path

import pytest

from presh import model as model_mod
from presh.cli import main
from presh.dsl import parse_model, serialize
from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import Subset
from presh.model import (
    ConstraintTable,
    Model,
    compile_model,
    oracle_sections,
    random_model,
)
from presh.ops import condition
from presh.presheaf import (
    Assignment,
    Fiber,
    blocking_sets,
    global_sections,
    validate_laws,
)

from util import record_builds, record_kernel, reference_blocking_sets


def S(*names):
    return Subset(names)


def A(**binding):
    return Assignment.from_mapping(binding)


@pytest.fixture(scope="module")
def org():
    return Model(
        "Organization",
        [Fiber("size", ("large", "small")), Fiber("levels", ("many", "few"))],
        [ConstraintTable(S("size", "levels"), "forbid", [("many", "small")])],
    )


class TestCompile:
    def test_org_sections_match_the_known_pairs(self, org):
        p = compile_model(org)
        got = set(p.sections_at(S("size", "levels")))
        assert got == {
            A(size="large", levels="many"),
            A(size="large", levels="few"),
            A(size="small", levels="few"),
        }
        assert A(size="small", levels="many") not in got

    def test_unconstrained_model_gives_full_products(self):
        m = Model("free", [Fiber("a", ("x", "y")), Fiber("b", ("p", "q", "r"))])
        p = compile_model(m)
        assert len(p.sections_at(S("a", "b"))) == 6
        assert len(p.sections_at(S("a"))) == 2
        assert len(p.sections_at(S())) == 1

    def test_family_covers_scopes_and_unnamed_subsets(self):
        m = Model(
            "m",
            [Fiber("a", ("x",)), Fiber("b", ("x",)), Fiber("c", ("x",))],
            [ConstraintTable(S("a", "b"), "allow", [("x", "x")])],
        )
        fam = compile_model(m).family
        assert S("a", "b") in fam.objects
        # no table names {b,c}: the family is every subset of the features
        assert S("b", "c") in fam.objects

    def test_empty_sections_are_data(self):
        m = Model(
            "unsat",
            [Fiber("a", ("x", "y"))],
            [ConstraintTable(S("a"), "allow", [])],
        )
        p = compile_model(m)
        assert p.sections_at(S("a")) == ()
        assert p.sections_at(S()) == (Assignment(S(), ()),)

    def test_universe_size_refusal(self):
        m = Model("big", [Fiber(f"f{i}", ("x",)) for i in range(13)])
        with pytest.raises(EnumerationBoundError):
            compile_model(m)

    def test_table_mask_size_refusal(self):
        wide = tuple(f"v{i}" for i in range(170))
        m = Model(
            "wide",
            [Fiber(f, wide) for f in "abc"],
            [ConstraintTable(S("a", "b", "c"), "forbid", [("v0", "v0", "v0")])],
        )
        with pytest.raises(EnumerationBoundError) as err:
            compile_model(m)
        assert str(err.value) == (
            "constraint mask over {a,b,c} refused (required 4913000, bound 4194304)"
        )

    def test_sections_emitted_in_fiber_order(self):
        m = Model("o", [Fiber("a", ("z", "y"))])
        p = compile_model(m)
        assert [a.values for a in p.sections_at(S("a"))] == [("z",), ("y",)]


class TestObjectRows:
    """``compile_model``'s rows: a read-only mapping over the whole family
    whose objects are built on first read."""

    def test_mapping_over_every_object_in_shortlex_order(self):
        m = random_model(2, max_features=4)
        p = compile_model(m)
        objects = p.family.objects_sorted
        assert len(p.rows) == 2 ** len(m.fibers) == len(objects)
        assert tuple(p.rows) == objects
        assert all(u in p.rows for u in objects)
        assert tuple(u for u, _ in p.rows.items()) == objects
        assert len(tuple(p.rows.values())) == len(objects)

    def test_outside_the_family_is_missing(self, org):
        p = compile_model(org)
        for key in (S("zz"), S("size", "zz"), "size", "x0", 0, None):
            assert key not in p.rows
            assert p.rows.get(key) is None
            with pytest.raises(KeyError):
                p.rows[key]

    def test_a_read_builds_from_the_longest_built_prefix(self, monkeypatch):
        built = record_builds(monkeypatch)
        p = compile_model(Model("m", [Fiber(f, ("x", "y")) for f in "abcd"]))
        p.rows[S("a", "c")]
        p.rows[S("a", "c", "d")]
        p.rows[S("a", "c")]
        p.rows[S("b")]
        assert _names(built) == [("a",), ("a", "c"), ("a", "c", "d"), ("b",)]
        assert len(p.rows[S("a", "b", "c", "d")]) == 16
        assert _names(built[4:]) == [("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]
        # a full shortlex read extends each non-empty object once, in order
        for seed in range(10):
            built.clear()
            p = compile_model(random_model(seed, max_features=5))
            objects = p.family.objects_sorted
            assert all(u in p.rows for u in objects) and built == []
            assert validate_laws(p).passed
            assert _names(built) == [u.names for u in objects[1:]]

    def test_equal_to_the_same_rows_read_in_any_order(self):
        for seed in range(20):
            m = random_model(seed, max_features=4)
            fresh = compile_model(m)
            objects = fresh.family.objects_sorted
            backwards = {u: fresh.rows[u] for u in reversed(objects)}
            p = compile_model(m)
            assert p.rows == backwards and backwards == p.rows
            assert p == compile_model(m)
            top = p.family.universe
            assert p.rows != {**backwards, top: backwards[top] + (("zz",) * len(top),)}


def _names(built) -> list[tuple[str, ...]]:
    return [names for _, names in built]


class TestCount:
    """``rows.count``: the number of rows at an object, tallied along its
    prefix chain rather than read off its built rows."""

    def test_equal_to_the_oracle_cold_and_built(self):
        for seed in range(300):
            m = random_model(seed)
            objects = compile_model(m).family.objects_sorted
            built = compile_model(m)
            for u in objects:
                expected = len(oracle_sections(m, u))
                assert compile_model(m).rows.count(u) == expected, (seed, u)
                built.rows[u]
                assert built.rows.count(u) == expected, (seed, u)

    def test_equal_to_the_rows_on_wider_models(self):
        # up to 6 tables over 8 features: many objects drop a feature before
        # their last step, and some later steps check two tables or more
        objects = tallied = checked_twice = 0
        for seed in range(200):
            m = random_model(seed, max_features=8, max_fiber=3, max_tables=6)
            built = compile_model(m)
            for u in built.family.objects_sorted:
                expected = len(built.rows[u])
                assert compile_model(m).rows.count(u) == expected, (seed, u)
                objects += 1
                later = _later_steps(m, u.names)
                if later is not None:
                    tallied += 1
                    checked_twice += max(later) >= 2
        assert objects == 13134
        assert tallied >= 4600
        assert checked_twice >= 130

    def test_the_empty_object_counts_one_and_an_unsatisfiable_one_zero(self):
        m = Model(
            "m",
            [Fiber("a", ("x", "y")), Fiber("b", ("x", "y")), Fiber("c", ("x", "y"))],
            [
                ConstraintTable(S("a", "b"), "allow", [("x", "x"), ("y", "y")]),
                ConstraintTable(S("b", "c"), "allow", [("x", "y")]),
                ConstraintTable(S("a", "c"), "forbid", [("x", "y")]),
            ],
        )
        p = compile_model(m)
        assert p.rows.count(S()) == 1
        universe = S("a", "b", "c")
        assert p.rows.count(universe) == 0 == len(oracle_sections(m, universe))

    def test_outside_the_family_is_a_key_error(self, org):
        p = compile_model(org)
        for key in (S("zz"), S("size", "zz")):
            with pytest.raises(KeyError):
                p.rows.count(key)


def _later_steps(m: Model, names: tuple[str, ...]) -> list[int] | None:
    """For an object whose count keeps a tally, the number of tables of two
    or more features checked at each step from the first tally step to the
    last; ``None`` for an object whose count needs no tally."""
    fitting = [
        [t.scope.names for t in m.tables
         if len(t.scope) > 1 and t.scope.names[-1] == f and set(t.scope) <= set(names)]
        for f in names
    ]
    # the last step at which each feature is placed or read
    read_until = {}
    for i, f in enumerate(names):
        read_until[f] = i
        for scope in fitting[i]:
            read_until.update(dict.fromkeys(scope, i))
    last = len(names) - 1
    start = min(read_until.values(), default=last) + 1
    if start >= last:
        return None
    return [len(fitting[j]) for j in range(start, last + 1)]


class TestBlocking:
    """``rows.blocking``: the inclusion-minimal objects with no rows, read
    off a compiled presheaf's closure."""

    EMPTY = Assignment(S(), ())

    def test_equal_to_blocking_sets_and_the_reference(self):
        # the seeds and limits of TestCondition: each compiled model, and the
        # model conditioned on each local section at one or two features
        conditioned = 0
        for seed in range(40):
            m = random_model(seed, max_features=5)
            p = compile_model(m)
            want = reference_blocking_sets(p, self.EMPTY)
            assert compile_model(m).rows.blocking() == want, seed
            assert blocking_sets(compile_model(m), self.EMPTY) == want, seed
            for u in p.family.objects_sorted:
                if not 1 <= len(u) <= 2:
                    continue
                for a in p.sections_at(u):
                    c = condition(m, a)
                    got = compile_model(c).rows.blocking()
                    assert got == blocking_sets(compile_model(c), self.EMPTY), (seed, a)
                    want = reference_blocking_sets(p, a)
                    assert tuple(u.union(z) for z in got) == want, (seed, a)
                    conditioned += bool(want)
        assert conditioned

    def test_equal_on_wider_models_read_cold_and_built(self):
        blocked = 0
        for seed in range(200):
            m = random_model(seed, max_features=8, max_fiber=3, max_tables=6)
            want = blocking_sets(compile_model(m), self.EMPTY)
            assert compile_model(m).rows.blocking() == want, seed
            built = compile_model(m)
            dict(built.rows)
            assert built.rows.blocking() == want, seed
            blocked += bool(want)
        assert blocked

    def test_reads_only_the_objects_that_decide_the_scopes(self):
        # six free features a..f and a feature z that an allow table with no
        # rows empties.  The walk reads the empty object, which has rows, and
        # grows it in name order: {a}, {a,b}, .., {a..f} have rows, each one
        # step from the last, and {a..f,z} has none, so {a..f} is kept.
        # Every object of size one but {z} lies inside it; {z} is read and
        # found empty.  Every larger object holds z or lies inside {a..f}.
        # That is 9 objects: the empty one, six on the chain, the universe
        # and {z}.  blocking_sets reads every one of the 64 objects without
        # z, each with rows, and then {z}: 65.
        fibers = [Fiber(f, ("x", "y")) for f in "abcdefz"]
        m = Model("m", fibers, [ConstraintTable(S("z"), "allow", [])])
        p = compile_model(m)
        assert p.rows.blocking() == (S("z"),)
        chain = ["abcdef"[:k] for k in range(7)]
        assert sorted(map("".join, p.rows._built)) == sorted(chain + ["abcdefz", "z"])
        q = compile_model(m)
        assert blocking_sets(q, self.EMPTY) == (S("z"),)
        assert len(q.rows._built) == 65


WIDE_CHAIN = Path(__file__).parent / "fixtures" / "wide_chain.psh"


def _walks(features: int, values: int) -> int:
    """Value sequences over ``features`` positions whose neighbours differ
    by at most one, by a vector-matrix product per position."""
    step = [[int(abs(i - j) <= 1) for j in range(values)] for i in range(values)]
    ends = [1] * values
    for _ in range(features - 1):
        ends = [sum(ends[i] * step[i][j] for i in range(values)) for j in range(values)]
    return sum(ends)


class TestWideChain:
    """A 12-feature allow-chain of 8 values, whose universe holds 807,574
    sections: its count builds no object wider than a table."""

    def test_count_builds_no_object_wider_than_two(self, monkeypatch):
        built = record_builds(monkeypatch)
        calls = record_kernel(monkeypatch)
        p = compile_model(parse_model(WIDE_CHAIN.read_text()))
        p.rows.count(p.family.universe)
        assert _names(built) == [("x00",), ("x00", "x01")]
        # the frontier is the one feature the next table reads: each later
        # step runs over 8 states with that table's one check
        assert calls[len(built):] == [(8, 1)] * 10

    def test_printed_count_is_the_walk_count(self, capsys):
        code = main(
            ["--workspace", str(WIDE_CHAIN), "--max-enum", str(9**12), "sections", "W",
             "--count"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert int(out.rsplit(": ", 1)[1]) == _walks(12, 8) == 807574


class TestOracle:
    def test_org(self, org):
        assert oracle_sections(org, S("size", "levels")) == {
            A(size="large", levels="many"),
            A(size="large", levels="few"),
            A(size="small", levels="few"),
        }

    def test_empty_object(self, org):
        assert oracle_sections(org, S()) == {Assignment(S(), ())}

    def test_singleton(self, org):
        assert oracle_sections(org, S("size")) == {A(size="large"), A(size="small")}

    def test_refuses_large_products(self, monkeypatch):
        monkeypatch.setattr(model_mod, "ORACLE_PRODUCT_BOUND", 100)
        m = Model("wide", [Fiber(f"f{i}", tuple(f"v{j}" for j in range(4))) for i in range(6)])
        with pytest.raises(EnumerationBoundError) as err:
            oracle_sections(m, m.features)
        assert (err.value.required, err.value.bound) == (4**6, 100)

    def test_unknown_feature(self, org):
        with pytest.raises(MalformedInputError):
            oracle_sections(org, S("nope"))


class TestModelValue:
    def test_duplicate_feature_rejected(self):
        with pytest.raises(MalformedInputError):
            Model("m", [Fiber("a", ("x",)), Fiber("a", ("y",))])

    def test_table_scope_must_exist(self):
        with pytest.raises(MalformedInputError):
            Model(
                "m",
                [Fiber("a", ("x",))],
                [ConstraintTable(S("b"), "allow", [("x",)])],
            )

    def test_labels_name_features_or_their_values(self):
        fibers = [Fiber("a", ("x",)), Fiber("b", ("y",))]
        ok = Model("m", fibers, (), {"a": "A", "a.x": "X"})
        assert ok.labels == {"a": "A", "a.x": "X"}
        # a stale call passing cover seeds fourth would land in ``labels``
        bad = ([S("a", "b")], [], {"z": "Z"}, {"a.y": "Y"}, {"a.": "?"}, {"a": 1})
        for labels in bad:
            with pytest.raises(MalformedInputError):
                Model("m", fibers, (), labels)

    @pytest.mark.parametrize(
        "brk",
        ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
         "\u2028", "\u2029"],
    )
    def test_labels_hold_no_line_break(self, brk):
        # every ``str.splitlines`` boundary, inside a label and at its end
        assert "".join(f"x{brk}y".splitlines()) == "xy"
        fibers = [Fiber("a", ("v",))]
        for key, text in (("a", f"x{brk}y"), ("a.v", f"x{brk}")):
            message = f"^label '{key}' is not one line of text$"
            with pytest.raises(MalformedInputError, match=message):
                Model("m", fibers, (), {key: text})
        model = Model("m", fibers, (), {"a": "xy"})
        assert parse_model(serialize(model)) == model

    def test_table_values_must_typecheck(self):
        with pytest.raises(MalformedInputError):
            Model(
                "m",
                [Fiber("a", ("x",))],
                [ConstraintTable(S("a"), "allow", [("zz",)])],
            )
        # the first bad value in row order is named, not the first by column
        fibers = [Fiber("a", ("x", "z")), Fiber("b", ("x",))]
        table = ConstraintTable(S("a", "b"), "allow", [("x", "q"), ("y", "x")])
        with pytest.raises(MalformedInputError, match="'q' is not in the fiber of 'b'"):
            Model("m", fibers, [table])

    def test_tables_canonicalized(self):
        t1 = ConstraintTable(S("a"), "forbid", [("y",), ("x",)])
        m = Model("m", [Fiber("a", ("x", "y", "z"))], [t1, t1])
        assert len(m.tables) == 1
        assert m.tables[0].tuples == (("x",), ("y",))

    def test_tables_from_a_generator_equal_tables_from_a_list(self):
        fibers = [Fiber("a", ("x", "y")), Fiber("b", ("x",))]
        tables = [
            ConstraintTable(S("a"), "forbid", [("y",)]),
            ConstraintTable(S("a", "b"), "allow", [("x", "x"), ("y", "x")]),
        ]
        listed = Model("m", fibers, tables)
        assert len(listed.tables) == 2
        assert Model("m", fibers, (t for t in tables)) == listed
        # a bad value is still found when the tables come from a generator
        bad = ConstraintTable(S("b"), "allow", [("zz",)])
        with pytest.raises(MalformedInputError, match="'zz' is not in the fiber of 'b'"):
            Model("m", fibers, (t for t in [bad]))

    def test_arity_checked(self):
        with pytest.raises(MalformedInputError):
            ConstraintTable(S("a", "b"), "allow", [("x",)])

    def test_scope_must_be_a_subset(self):
        # a plain list or string of names used to pass and break Model later
        for scope in (["a"], ("a",), "a"):
            with pytest.raises(MalformedInputError, match="not a Subset"):
                ConstraintTable(scope, "allow", [("x",)])


class TestModelBoundary:
    """A model given its fibers, tables and rows as any iterable, in any
    table order and with repeats, equals the model given them as lists, or
    raises the same error."""

    FAULTS = (None, None, "empty-scope", "arity", "value", "feature", "polarity")

    def test_any_iterable_builds_what_lists_build(self):
        built, erred = 0, set()
        for seed in range(300):
            rng = random.Random(seed)
            base = random_model(seed, max_features=4, max_tables=4)
            fibers = list(base.fibers.values())
            specs = [
                [list(t.scope.names), t.polarity, list(t.tuples)] for t in base.tables
            ]
            fault = rng.choice(self.FAULTS)
            if fault == "empty-scope":
                specs.insert(rng.randint(0, len(specs)), [[], "allow", []])
            elif fault == "feature":
                unknown = [["nowhere"], "forbid", [("v0",)]]
                specs.insert(rng.randint(0, len(specs)), unknown)
            elif fault and specs:
                spec = rng.choice(specs)
                width = len(spec[0])
                if fault == "arity":
                    spec[2].append(("v0",) * (width + rng.choice((-1, 1))))
                elif fault == "value":
                    spec[2].append(("zz",) * width)
                else:
                    spec[1] = "maybe"

            def as_lists():
                tables = [
                    ConstraintTable(Subset(names), polarity, list(rows))
                    for names, polarity, rows in specs
                ]
                return Model(base.name, list(fibers), tables)

            def as_anything():
                tables = []
                for names, polarity, rows in specs:
                    rows_in = _reshaped(rng, rows)
                    if rng.random() < 0.3:
                        rows_in = map(list, rows_in)
                    scope = Subset(_reshaped(rng, names))
                    tables.append(ConstraintTable(scope, polarity, rows_in))
                # fiber values as a list or a generator
                fibers_in = [
                    Fiber(f.feature, (v for v in f.values) if rng.random() < 0.5
                          else list(f.values))
                    for f in fibers
                ]
                if rng.random() < 0.3:
                    fibers_in = {f.feature: f for f in fibers_in}
                else:
                    fibers_in = _reshaped(rng, fibers_in, ordered=True)
                return Model(base.name, fibers_in, _reshaped(rng, tables))

            expected = _outcome(as_lists)
            for _ in range(3):
                assert _outcome(as_anything) == expected, (seed, fault)
            if isinstance(expected, str):
                erred.add(fault)
            else:
                built += 1
        assert built > 100
        assert erred == set(self.FAULTS) - {None}

    def test_fiber_values_are_kept_as_a_tuple(self):
        fiber = Fiber("a", ("x", "y"))
        for values in (["x", "y"], (v for v in ("x", "y")), iter("xy")):
            given = Fiber("a", values)
            assert (given, given.values, hash(given)) == (fiber, ("x", "y"), hash(fiber))
        assert Model("m", [Fiber("a", ["x", "y"])]) == Model("m", [fiber])
        for values, message in (
            ((v for v in ()), "fiber of 'a' is empty"),
            ((v for v in "xx"), "fiber of 'a' repeats a value"),
        ):
            with pytest.raises(MalformedInputError, match=message):
                Fiber("a", values)


def _outcome(build) -> tuple | str:
    """The model ``build`` returns with its fiber order, or its error."""
    try:
        model = build()
    except MalformedInputError as err:
        return str(err)
    return ("model", model, tuple(model.fibers))


def _reshaped(rng: random.Random, items: list, *, ordered: bool = False):
    """The elements of ``items`` as another iterable: a generator or a
    tuple, or, unless their order and count matter, a set, a reversal, a
    shuffle or a list with repeats."""
    shapes = ["generator", "tuple"]
    if not ordered:
        shapes += ["set", "reversed", "shuffled", "repeated"]
    shape = rng.choice(shapes)
    if shape == "generator":
        return (x for x in items)
    if shape == "tuple":
        return tuple(items)
    if shape == "set":
        return set(items)
    if shape == "reversed":
        return items[::-1]
    if shape == "shuffled":
        return rng.sample(items, len(items))
    return items + items[: rng.randint(0, len(items))]


class TestAgainstOracle:
    def test_sweep(self):
        for seed in range(150):
            m = random_model(seed)
            p = compile_model(m)
            # objects are built on first read: any read order gives the same rows
            objects = list(p.family.objects_sorted)
            random.Random(seed).shuffle(objects)
            for u in objects:
                expected = oracle_sections(m, u)
                assert set(p.sections_at(u)) == expected, (seed, u)
                indices = [m.fibers[f].index for f in u.names]
                ranked = sorted(
                    expected, key=lambda a: [i[v] for i, v in zip(indices, a.values)]
                )
                assert list(p.sections_at(u)) == ranked, (seed, u)

    def test_scope_locality(self):
        m = random_model(5, max_features=3)
        base = compile_model(m)
        extra = ConstraintTable(S("x0", "x1"), "forbid", [("v0", "v0")])
        if len(m.fibers) < 2:
            pytest.skip("needs two features")
        widened = Model(m.name, m.fibers, list(m.tables) + [extra])
        p = compile_model(widened)
        for u in base.family.objects_sorted:
            if not extra.scope.issubset(u):
                assert p.sections_at(u) == base.sections_at(u)

    def test_monotone_in_constraints(self):
        for seed in (3, 17, 40, 77):
            m = random_model(seed, max_features=4)
            allows = [t for t in m.tables if t.polarity == "allow" and t.tuples]
            if not allows:
                continue
            base = compile_model(m)
            target = allows[0]
            row = next(
                (
                    combo
                    for combo in _scope_rows(m, target.scope)
                    if combo not in target.tuples
                ),
                None,
            )
            if row is None:
                continue
            grown = ConstraintTable(target.scope, "allow", target.tuples + (row,))
            others = [t for t in m.tables if t is not target]
            widened = Model(m.name, m.fibers, others + [grown])
            p = compile_model(widened)
            for u in base.family.objects_sorted:
                assert set(base.sections_at(u)) <= set(p.sections_at(u))

    def test_forbid_growth_never_grows_sections(self):
        m = random_model(23, max_features=4)
        row = tuple(m.fibers[f].values[0] for f in sorted(m.fibers)[:1])
        scope = Subset(sorted(m.fibers)[:1])
        shrunk = Model(
            m.name,
            m.fibers,
            list(m.tables) + [ConstraintTable(scope, "forbid", [row])],
        )
        base = compile_model(m)
        p = compile_model(shrunk)
        for u in base.family.objects_sorted:
            assert set(p.sections_at(u)) <= set(base.sections_at(u))


def _scope_rows(m, scope):
    from itertools import product

    return [tuple(r) for r in product(*(m.fibers[f].values for f in scope.names))]


class TestRandomModel:
    def test_deterministic(self):
        assert random_model(42) == random_model(42)
        assert random_model(42) != random_model(43)

    def test_limits_validated(self):
        with pytest.raises(MalformedInputError):
            random_model(1, max_features=0)

    def test_distribution_covers_empty_and_plural(self):
        empties = 0
        plural = 0
        for seed in range(1, 101):
            m = random_model(seed, max_features=4)
            n = len(global_sections(compile_model(m)))
            empties += n == 0
            plural += n > 1
        assert empties >= 1
        assert plural >= 1

    def test_all_outputs_compile_lawfully(self):
        for seed in range(60):
            p = compile_model(random_model(seed))
            assert validate_laws(p).passed
