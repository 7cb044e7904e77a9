import random

import pytest

from presh import model as model_mod
from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import Subset
from presh.model import (
    ConstraintTable,
    Model,
    compile_model,
    family_of,
    oracle_sections,
    random_model,
)
from presh.presheaf import Assignment, Fiber, global_sections, validate_laws


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
        fam = family_of(m)
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
        for key in (S("zz"), S("size", "zz"), "size", None):
            assert key not in p.rows
            assert p.rows.get(key) is None
            with pytest.raises(KeyError):
                p.rows[key]

    def test_a_read_builds_from_the_longest_built_prefix(self, monkeypatch):
        built = []
        extend = model_mod._CompiledModel.extend

        def recording_extend(self, prefix_rows, names):
            built.append(names)
            return extend(self, prefix_rows, names)

        monkeypatch.setattr(model_mod._CompiledModel, "extend", recording_extend)
        p = compile_model(Model("m", [Fiber(f, ("x", "y")) for f in "abcd"]))
        p.rows[S("a", "c")]
        p.rows[S("a", "c", "d")]
        p.rows[S("a", "c")]
        p.rows[S("b")]
        assert built == [("a",), ("a", "c"), ("a", "c", "d"), ("b",)]
        assert len(p.rows[S("a", "b", "c", "d")]) == 16
        assert built[4:] == [("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d")]

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
        for labels in ([S("a", "b")], [], {"z": "Z"}, {"a.y": "Y"}, {"a.": "?"}):
            with pytest.raises(MalformedInputError):
                Model("m", fibers, (), labels)

    def test_table_values_must_typecheck(self):
        with pytest.raises(MalformedInputError):
            Model(
                "m",
                [Fiber("a", ("x",))],
                [ConstraintTable(S("a"), "allow", [("zz",)])],
            )

    def test_tables_canonicalized(self):
        t1 = ConstraintTable(S("a"), "forbid", [("y",), ("x",)])
        m = Model("m", [Fiber("a", ("x", "y", "z"))], [t1, t1])
        assert len(m.tables) == 1
        assert m.tables[0].tuples == (("x",), ("y",))

    def test_arity_checked(self):
        with pytest.raises(MalformedInputError):
            ConstraintTable(S("a", "b"), "allow", [("x",)])


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
