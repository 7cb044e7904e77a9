import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presh import presheaf as presheaf_mod
from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import Subset, close_family
from presh.model import ConstraintTable, Model, compile_model, random_model
from presh.presheaf import (
    _yoneda_report,
    AbstractPresheaf,
    Assignment,
    AssignmentPresheaf,
    Fiber,
    HOM_TOKEN,
    blocking_sets,
    closure_complete,
    decode,
    extensions,
    global_sections,
    nat_transformations,
    random_abstract_presheaf,
    representable,
    restrict_assignment,
    row_sort_key,
    validate_laws,
    yoneda_check,
)
from presh.report import LawReport

from util import (
    one_step_projection_fixpoint,
    reference_blocking_sets,
    reference_nat_transformations,
    reference_validate_abstract,
    reference_validate_assignment,
)


def S(*names):
    return Subset(names)


def A(**binding):
    return Assignment.from_mapping(binding)


# A compiled three-feature presheaf whose rows the validator tests break.
_ABC = compile_model(
    Model(
        "abc",
        [Fiber(f, ("x", "y")) for f in "abc"],
        [ConstraintTable(S("a", "b"), "forbid", [("x", "y")])],
    )
)


def _checked(rows: dict) -> LawReport:
    """``validate_laws`` on ``rows`` over ``_ABC``'s family and fibers,
    checked equal to the reference, witnesses and their order included."""
    broken = AssignmentPresheaf(_ABC.family, _ABC.fibers, rows)
    report = validate_laws(broken)
    assert report == reference_validate_assignment(broken)
    return report


@pytest.fixture(scope="module")
def camcorder_presheaf(camcorder_model):
    return compile_model(camcorder_model)


class TestRestrictAssignment:
    def test_projection(self):
        a = A(size="l", levels="m")
        assert restrict_assignment(a, S("size")) == A(size="l")

    def test_to_empty(self):
        assert restrict_assignment(A(size="l"), S()) == Assignment(S(), ())

    def test_identity(self):
        a = A(size="l", levels="m")
        assert restrict_assignment(a, a.domain) == a

    def test_requires_containment(self):
        with pytest.raises(MalformedInputError):
            restrict_assignment(A(size="l"), S("levels"))

    def test_chains_compose(self):
        for seed in range(20):
            p = compile_model(random_model(seed, max_features=4))
            objs = p.family.objects_sorted
            for w in objs:
                for v in objs:
                    if not v.issubset(w):
                        continue
                    for u in objs:
                        if not u.issubset(v):
                            continue
                        for b in p.sections_at(w):
                            assert restrict_assignment(
                                restrict_assignment(b, v), u
                            ) == restrict_assignment(b, u)


class TestValidateLaws:
    def test_compiled_models_always_pass(self):
        for seed in range(80):
            assert validate_laws(compile_model(random_model(seed))).passed

    def test_broken_closure_is_witnessed(self):
        fam = close_family(S("a", "b"))
        fibers = {"a": Fiber("a", ("l",)), "b": Fiber("b", ("m",))}
        rows = {
            S(): ((),),
            S("a"): (),  # missing the projection of the pair below
            S("b"): (("m",),),
            S("a", "b"): (("l", "m"),),
        }
        report = validate_laws(AssignmentPresheaf(fam, fibers, rows))
        assert not report.passed
        laws = {v.law for v in report.violations}
        assert "restriction-closure" in laws
        witness = next(v for v in report.violations if v.law == "restriction-closure")
        assert witness.witness[0] == S("a")

    def test_matches_reference_on_broken_presheaves(self):
        # each seed breaks a compiled model in one or two of five ways
        breaks = ("drop", "missing", "ragged", "fiber", "duplicate")
        laws = set()
        for seed in range(120):
            rng = random.Random(seed)
            p = compile_model(random_model(seed, max_features=4))
            assert validate_laws(p) == reference_validate_assignment(p)
            rows = {u: list(stored) for u, stored in p.rows.items()}
            objects = list(p.family.objects_sorted)
            for kind in rng.sample(breaks, rng.randint(1, 2)):
                u = rng.choice(objects)
                if kind == "drop":
                    for w in objects:
                        if w in rows and rng.random() < 0.3:
                            rows[w] = [r for r in rows[w] if rng.random() < 0.5]
                elif kind == "missing":
                    rows.pop(u, None)
                elif kind == "ragged":
                    rows.setdefault(u, []).append(("v0",) * (len(u) + 1))
                elif rows.get(u) and len(u):
                    row = rng.choice(rows[u])
                    if kind == "fiber":
                        rows[u].append(("zz",) + row[1:])
                    else:
                        rows[u].append(row)
            broken = AssignmentPresheaf(
                p.family, p.fibers, {u: tuple(r) for u, r in rows.items()}
            )
            report = validate_laws(broken)
            assert report == reference_validate_assignment(broken), seed
            laws.update(v.law for v in report.violations)
        assert laws == {
            "restriction-closure",
            "sections-missing",
            "domain-mismatch",
            "fiber-typing",
            "duplicate-section",
        }

    def test_typing_unread_behind_closure_matches_reference(self):
        # Above one feature, closure at every cover vouches for the fiber
        # values; each case breaks typing where that reasoning must not skip it.
        m = Model(
            "m",
            [Fiber(f, ("x", "y", "zz")) for f in "abc"],
            [ConstraintTable(S("a", "b"), "forbid", [("x", "y")])],
        )
        p = compile_model(m)
        rows = dict(p.rows.items())
        objects = p.family.objects_sorted
        narrow = {f: Fiber(f, ("x", "y")) for f in "abc"}

        def report(fibers, rows):
            broken = AssignmentPresheaf(p.family, fibers, rows)
            got = validate_laws(broken)
            assert got == reference_validate_assignment(broken)
            return {(v.law, v.witness[0]) for v in got.violations}

        # ``a=zz`` is closed downward: it sits at every object holding ``a``,
        # so closure holds everywhere and typing fails from {a} up
        assert report({**p.fibers, "a": narrow["a"]}, rows) == {
            ("fiber-typing", u) for u in objects if "a" in u
        }
        # the fibers lack ``b``: every value at an object holding ``b`` is untyped
        assert report({f: p.fibers[f] for f in "ac"}, rows) == {
            ("fiber-typing", u) for u in objects if "b" in u
        }
        # a row at {a,b} breaks closure at its cover {a} and typing at {a,b}
        clean = {
            u: tuple(r for r in stored if "zz" not in r) for u, stored in rows.items()
        }
        assert report(narrow, clean) == set()
        ab = S("a", "b")
        bad = {**clean, ab: clean[ab] + (("q", "x"),)}
        assert report(narrow, bad) == {("fiber-typing", ab)}
        assert report({**narrow, "a": Fiber("a", ("x", "y", "q"))}, bad) == {
            ("restriction-closure", S("a"))
        }

    def test_matches_reference_on_wide_broken_presheaves(self):
        # 5-7 features of three values each, so the upper objects hold
        # hundreds of rows; each seed breaks one or two objects
        breaks = ("drop", "missing", "long", "mixed", "fiber", "duplicate")
        values = ("v0", "v1", "v2")
        laws, widest = set(), 0
        for seed in range(30):
            rng = random.Random(seed)
            names = [f"x{i}" for i in range(5 + seed % 3)]
            fibers = [Fiber(f, values) for f in names]
            tables = [
                ConstraintTable(
                    Subset(rng.sample(names, 2)),
                    "forbid",
                    [r for r in product(values, repeat=2) if rng.random() < 0.3],
                )
                for _ in range(rng.randint(1, 2))
            ]
            p = compile_model(Model("m", fibers, tables))
            rows = {u: list(p.rows[u]) for u in p.family.objects_sorted}
            widest = max(widest, max(map(len, rows.values())))
            assert validate_laws(p) == reference_validate_assignment(p)
            objects = p.family.objects_sorted
            for kind in rng.sample(breaks, rng.randint(1, 2)):
                u = rng.choice(objects)
                if kind == "drop":
                    rows[u] = [r for r in rows[u] if rng.random() < 0.5]
                elif kind == "missing":
                    rows.pop(u, None)
                elif kind == "long":
                    rows[u] = [r + ("v0",) for r in rows.get(u, ())]
                elif kind == "mixed":
                    width = len(u) - 1 if len(u) else 1
                    rows.setdefault(u, []).append(("v1",) * width)
                elif rows.get(u) and len(u):
                    row = rng.choice(rows[u])
                    rows[u].append(("zz",) + row[1:] if kind == "fiber" else row)
            broken = AssignmentPresheaf(
                p.family, p.fibers, {u: tuple(r) for u, r in rows.items()}
            )
            report = validate_laws(broken)
            assert report == reference_validate_assignment(broken), seed
            laws.update(v.law for v in report.violations)
        assert widest >= 300
        assert laws == {
            "restriction-closure",
            "sections-missing",
            "domain-mismatch",
            "fiber-typing",
            "duplicate-section",
        }

    def test_every_row_one_longer_is_named(self):
        rows = dict(_ABC.rows.items())
        ab = S("a", "b")
        rows[ab] = tuple(r + ("x",) for r in rows[ab])
        got = _checked(rows)
        assert len(got.violations) == len(rows[ab]) > 1
        assert {(v.law, v.witness) for v in got.violations} == {
            ("domain-mismatch", (ab, r)) for r in rows[ab]
        }

    def test_mixed_arities_name_the_odd_rows_and_type_the_rest(self):
        rows = dict(_ABC.rows.items())
        ab = S("a", "b")
        # one row too long, one too short, and a row of the right arity
        # holding a value outside the fiber
        for odd in ("x", "x", "x"), ("x",):
            got = _checked({**rows, ab: rows[ab] + (odd, ("zz", "x"))})
            assert [(v.law, v.witness) for v in got.violations] == [
                ("domain-mismatch", (ab, odd)),
                ("fiber-typing", (ab, "zz")),
            ]

    def test_an_emptied_bottom_fails_closure_at_every_singleton(self):
        rows = dict(_ABC.rows.items())
        got = _checked({**rows, S(): ()})
        singletons = [S(f) for f in "abc"]
        assert [v.witness[:2] for v in got.violations] == [
            (S(), u) for u in singletons for _ in rows[u]
        ]
        assert {v.law for v in got.violations} == {"restriction-closure"}

    def test_duplicates_beside_a_typing_failure_are_both_named(self):
        rows = dict(_ABC.rows.items())
        ab = S("a", "b")
        got = _checked({**rows, ab: rows[ab] + (rows[ab][0], ("zz", "x"))})
        assert [(v.law, v.witness) for v in got.violations] == [
            ("duplicate-section", (ab,)),
            ("fiber-typing", (ab, "zz")),
        ]

    def test_fiber_typing_checked(self):
        fam = close_family(S("a"))
        p = AssignmentPresheaf(
            fam,
            {"a": Fiber("a", ("x",))},
            {S(): ((),), S("a"): (("zz",),)},
        )
        assert any(v.law == "fiber-typing" for v in validate_laws(p).violations)

    def test_broken_abstract_composite_names_the_chain(self):
        fam = close_family(S("a", "b"))
        y = representable(fam, S("a", "b"))
        restrictions = dict(y.restrictions)
        elements = dict(y.elements)
        # reroute the direct map to a stray element, inconsistent with the
        # two-step paths through the singletons
        elements[S()] = (HOM_TOKEN, "stray")
        restrictions[(S(), S())] = {HOM_TOKEN: HOM_TOKEN, "stray": "stray"}
        restrictions[(S(), S("a", "b"))] = {HOM_TOKEN: "stray"}
        report = validate_laws(AbstractPresheaf(fam, elements, restrictions))
        assert any(v.law == "functoriality" for v in report.violations)
        witness = next(v for v in report.violations if v.law == "functoriality")
        assert witness.witness[3] == HOM_TOKEN

    def test_non_identity_loop_flagged(self):
        fam = close_family(S("a"))
        p = AbstractPresheaf(
            fam,
            {S(): ("e1", "e2"), S("a"): ()},
            {
                (S(), S()): {"e1": "e2", "e2": "e1"},
                (S("a"), S("a")): {},
                (S(), S("a")): {},
            },
        )
        assert any(v.law == "identity" for v in validate_laws(p).violations)

    def test_missing_map_flagged(self):
        fam = close_family(S("a"))
        p = AbstractPresheaf(
            fam,
            {S(): ("e",), S("a"): ("f",)},
            {(S(), S()): {"e": "e"}, (S("a"), S("a")): {"f": "f"}},
        )
        assert any(v.law == "missing-map" for v in validate_laws(p).violations)

    def test_abstract_matches_reference_on_broken_presheaves(self):
        # each seed breaks a lawful random presheaf in one of six ways
        breaks = ("elements", "map", "total", "leaves", "identity", "composite")
        laws, details, broken_by = set(), set(), set()
        for seed in range(90):
            rng = random.Random(seed)
            fam = close_family(Subset(f"g{i}" for i in range(rng.randint(1, 3))))
            p = random_abstract_presheaf(seed, fam)
            assert validate_laws(p) == reference_validate_abstract(p)
            kind = breaks[seed % len(breaks)]
            broken = _break_abstract(rng, p, kind)
            if broken is None:
                continue
            report = validate_laws(broken)
            assert not report.passed, (seed, kind)
            assert report == reference_validate_abstract(broken), (seed, kind)
            broken_by.add(kind)
            laws.update(v.law for v in report.violations)
            details.update(v.detail for v in report.violations if v.law == "map-typing")
        assert broken_by == set(breaks)
        assert laws == {
            "elements-missing",
            "missing-map",
            "map-typing",
            "identity",
            "functoriality",
        }
        for ending in ("not total on elements", "leaves elements"):
            assert any(d.endswith(ending) for d in details), ending


def _break_abstract(rng, p, kind):
    """``p`` with one law broken in the way ``kind`` names, or None when
    ``p`` has no place to break it that way."""
    elements = dict(p.elements)
    restrictions = {key: dict(m) for key, m in p.restrictions.items()}
    pairs = list(p.family.inclusions())
    if kind == "elements":
        del elements[rng.choice(p.family.objects_sorted)]
    elif kind == "map":
        del restrictions[rng.choice(pairs)]
    elif kind in ("total", "leaves"):
        inhabited = [(u, v) for u, v in pairs if elements[v]]
        if not inhabited:
            return None
        m = restrictions[rng.choice(inhabited)]
        x = rng.choice(sorted(m))
        if kind == "total":
            del m[x]
        else:
            m[x] = "stray"
    elif kind == "identity":
        crowded = [u for u in p.family.objects_sorted if len(elements[u]) > 1]
        if not crowded:
            return None
        u = rng.choice(crowded)
        xs = elements[u]
        restrictions[(u, u)] = dict(zip(xs, xs[1:] + xs[:1]))
    else:
        # a direct map two or more features down that disagrees with the
        # two-step paths through the objects in between
        spans = [
            (u, w)
            for u, w in pairs
            if len(w) - len(u) > 1 and elements[w] and len(elements[u]) > 1
        ]
        if not spans:
            return None
        u, w = rng.choice(spans)
        m = restrictions[(u, w)]
        x = rng.choice(sorted(m))
        m[x] = rng.choice([y for y in elements[u] if y != m[x]])
    return AbstractPresheaf(p.family, elements, restrictions)


class TestClosureComplete:
    def test_already_closed_is_fixed_point(self):
        p = compile_model(random_model(12))
        closed, additions = closure_complete(p)
        assert additions == {}
        assert closed.rows == p.rows

    def test_projections_added_from_a_global_section(self):
        # one stored global section, nothing below: the closure must add
        # its projections, in particular the pair over film and edit
        fam = close_family(S("film", "screen", "edit"))
        fibers = {
            "film": Fiber("film", ("prof_and_amateur",)),
            "screen": Fiber("screen", ("small",)),
            "edit": Fiber("edit", ("difficult", "quick")),
        }
        top = A(film="prof_and_amateur", screen="small", edit="difficult")
        rows = {u: () for u in fam.objects_sorted}
        rows[fam.universe] = (top.values,)
        p = AssignmentPresheaf(fam, fibers, rows)
        closed, additions = closure_complete(p)
        pair = A(film="prof_and_amateur", edit="difficult")
        assert pair.values in additions[pair.domain]
        assert validate_laws(closed).passed

    def test_matches_projection_fixpoint_oracle(self):
        rng = random.Random(3)
        for seed in range(25):
            base = compile_model(random_model(seed, max_features=4))
            # knock random holes in random objects to break closure
            rows = {}
            for u, stored in base.rows.items():
                rows[u] = tuple(r for r in stored if rng.random() > 0.5)
            ragged = AssignmentPresheaf(base.family, base.fibers, rows)
            closed, _ = closure_complete(ragged)
            oracle = one_step_projection_fixpoint(ragged)
            for u in base.family.objects_sorted:
                assert set(closed.sections_at(u)) == oracle[u]

    def test_idempotent_and_monotone(self):
        base = compile_model(random_model(9, max_features=4))
        holes = {
            u: stored[: len(stored) // 2] for u, stored in base.rows.items()
        }
        ragged = AssignmentPresheaf(base.family, base.fibers, holes)
        once, _ = closure_complete(ragged)
        twice, additions = closure_complete(once)
        assert additions == {}
        assert twice.rows == once.rows
        for u in base.family.objects_sorted:
            assert set(ragged.sections_at(u)) <= set(once.sections_at(u))


class TestDecode:
    def test_rows_become_equal_assignments_in_order(self):
        u = S("a", "b")
        rows = [("y", "x"), ("x", "y")]
        got = decode(u, iter(rows))
        assert got == tuple(Assignment(u, row) for row in rows)
        assert [hash(b) for b in got] == [hash(Assignment(u, row)) for row in rows]
        assert decode(S(), [()]) == (Assignment(S(), ()),) and decode(u, []) == ()
        with pytest.raises(AttributeError):
            got[0].values = ("x", "x")

    def test_ragged_rows_raise_at_the_first_of_another_arity(self):
        with pytest.raises(MalformedInputError, match="^assignment has 1 values for 2 features$"):
            decode(S("a", "b"), [("x", "y"), ("x",), ("x", "y", "z")])
        with pytest.raises(MalformedInputError, match="^assignment has 3 values for 2 features$"):
            decode(S("a", "b"), [("x", "y"), ("x", "y", "z"), ("x",)])


class TestSections:
    def test_global_sections_of_product_model(self):
        from presh.model import Model

        m = Model("free", [Fiber("a", ("x", "y")), Fiber("b", ("p", "q", "r"))])
        assert len(global_sections(compile_model(m))) == 6

    def test_extension_failure_in_the_camcorder(self, camcorder_presheaf):
        a = A(film="prof_and_amateur", edit="quick_and_easy_editing")
        got = extensions(camcorder_presheaf, a, camcorder_presheaf.family.universe)
        assert got == ()

    def test_restriction_of_global_section_extends(self):
        for seed in (2, 8, 31):
            p = compile_model(random_model(seed, max_features=4))
            for b in global_sections(p)[:5]:
                for u in p.family.objects_sorted:
                    if not u.issubset(p.family.universe):
                        continue
                    a = restrict_assignment(b, u)
                    assert b in extensions(p, a, p.family.universe)

    def test_restriction_round_trip_at_every_level(self):
        # b ∈ sections(V), U ⊆ V  =>  b ∈ extensions(restrict(b, U), V)
        for seed in (6, 13):
            p = compile_model(random_model(seed, max_features=4))
            for v in p.family.objects_sorted:
                for b in p.sections_at(v)[:4]:
                    for u in p.family.objects_sorted:
                        if not u.issubset(v):
                            continue
                        a = restrict_assignment(b, u)
                        assert b in extensions(p, a, v)

    def test_extensions_match_filter_oracle(self):
        def filtered(q, a, v):
            # a plain filter over the stored rows, in their stored order
            at = [v.names.index(f) for f in a.domain.names]
            return tuple(
                Assignment(v, row)
                for row in q.rows[v]
                if tuple(row[i] for i in at) == a.values
            )

        rng = random.Random(5)
        sizes, reordered = set(), 0
        for seed in range(20):
            p = compile_model(random_model(seed, max_features=4))
            # the same rows, out of canonical order at every object
            shuffled = AssignmentPresheaf(
                p.family,
                p.fibers,
                {u: tuple(rng.sample(rows, len(rows))) for u, rows in p.rows.items()},
            )
            objs = p.family.objects_sorted
            for v in objs:
                for u in objs:
                    if not u.issubset(v):
                        continue
                    # the empty section included, when the bottom has one
                    for a in p.sections_at(u)[:2]:
                        got = extensions(p, a, v)
                        assert got == filtered(p, a, v)
                        out_of_order = extensions(shuffled, a, v)
                        assert out_of_order == filtered(shuffled, a, v)
                        reordered += out_of_order != got
                        sizes.add(len(u))
        assert {0, 1, 2, 3} <= sizes
        assert reordered

    def test_repeated_extensions_in_both_orders_match_filter(self):
        # The sweep of the filter-oracle test, asked twice, forward then
        # backward, of one presheaf: later answers come from its row groups.
        def filtered(q, a, v):
            at = [v.names.index(f) for f in a.domain.names]
            return tuple(
                Assignment(v, row)
                for row in q.rows[v]
                if tuple(row[i] for i in at) == a.values
            )

        rng = random.Random(7)
        shared = 0
        for seed in range(20):
            p = compile_model(random_model(seed, max_features=4))
            shuffled = AssignmentPresheaf(
                p.family,
                p.fibers,
                {u: tuple(rng.sample(rows, len(rows))) for u, rows in p.rows.items()},
            )
            objs = p.family.objects_sorted
            queries = [
                (a, v)
                for v in objs
                for u in objs
                if u.issubset(v)
                for a in p.sections_at(u)[:2]
            ]
            # sections that pin the same value at the same largest position
            # of the same object: the later one reads the earlier one's group
            first = {}
            for a, v in queries:
                if a.domain.names:
                    key = (v.names, v.names.index(a.domain.names[-1]), a.values[-1])
                    shared += first.setdefault(key, a) != a
            for q in (p, shuffled):
                for order in (queries, queries[::-1]):
                    for a, v in order:
                        assert extensions(q, a, v) == filtered(q, a, v)
        assert shared

    def test_row_groups_leave_equality_and_repr_alone(self):
        compiled = compile_model(random_model(4, max_features=4))
        p, q = (
            AssignmentPresheaf(compiled.family, compiled.fibers, dict(compiled.rows.items()))
            for _ in range(2)
        )
        universe = p.family.universe
        for a in global_sections(p):
            extensions(p, restrict_assignment(a, S(universe.names[-1])), universe)
        assert p._row_groups and "_row_groups" not in repr(p)
        assert p == q and repr(p) == repr(q)

    def test_second_query_with_the_same_last_pin_reads_the_group(self):
        class CountingRows(tuple):
            """Rows that count how many each of their iterators hands out."""

            read = 0

            def __iter__(self):
                for row in super().__iter__():
                    CountingRows.read += 1
                    yield row

        abc = S("a", "b", "c")
        family = close_family(abc)
        fibers = {f: Fiber(f, ("x", "y")) for f in "abc"}
        rows = {u: tuple(product("xy", repeat=len(u))) for u in family.objects_sorted}
        rows[abc] = CountingRows(rows[abc])
        p = AssignmentPresheaf(family, fibers, rows)

        def read_by(query):
            before = CountingRows.read
            result = query()
            return result, CountingRows.read - before

        got, read = read_by(lambda: extensions(p, A(a="x", c="x"), abc))
        assert got == (A(a="x", b="x", c="x"), A(a="x", b="y", c="x"))
        assert read >= 8  # every row at abc, for the group of c=x
        # the same last pin: the stored c=x group is narrowed, abc's rows unread
        got, read = read_by(lambda: extensions(p, A(b="y", c="x"), abc))
        assert got == (A(a="x", b="y", c="x"), A(a="y", b="y", c="x"))
        assert read == 0
        got, read = read_by(lambda: blocking_sets(p, A(c="x")))
        assert (got, read) == ((), 0)
        # another value at the same position is another group
        got, read = read_by(lambda: extensions(p, A(c="y"), abc))
        assert len(got) == 4 and read >= 8

    def test_short_row_raises_on_every_repeat(self):
        message = r"^a row at \{a,b\} has fewer than 2 values$"
        fibers = {f: Fiber(f, ("x", "y")) for f in "ab"}
        rows = {S(): ((),), S("a"): (("x",),), S("b"): (("x",),)}
        late = AssignmentPresheaf(
            close_family(S("a", "b")), fibers, {**rows, S("a", "b"): (("x", "x"), ("y",))}
        )
        for _ in range(3):
            with pytest.raises(MalformedInputError, match=message):
                extensions(late, A(b="x"), S("a", "b"))
            with pytest.raises(MalformedInputError, match=message):
                blocking_sets(late, A(b="x"))
            # the short row is long enough at position 0: that group is kept
            assert extensions(late, A(a="x"), S("a", "b")) == (A(a="x", b="x"),)
        # two pins: the group of the first pin's position does not spare the
        # pass at the second's
        abc = S("a", "b", "c")
        ragged = AssignmentPresheaf(
            close_family(abc),
            {f: Fiber(f, ("x", "y")) for f in "abc"},
            {S("a", "c"): (("x", "x"),), S("a"): (("x",),), abc: (("x", "x", "x"), ("y", "x"))},
        )
        for _ in range(3):
            assert extensions(ragged, A(a="x"), abc) == (A(a="x", b="x", c="x"),)
            with pytest.raises(MalformedInputError, match=r"^a row at \{a,b,c\} has fewer"):
                extensions(ragged, A(a="x", c="x"), abc)

    def test_short_row_is_malformed_input_naming_the_object(self):
        fibers = {f: Fiber(f, ("x", "y")) for f in "ab"}
        rows = {S(): ((),), S("a"): (("x",),), S("b"): (("x",),)}
        short = AssignmentPresheaf(
            close_family(S("a", "b")), fibers, {**rows, S("a", "b"): (("x",),)}
        )
        message = r"^a row at \{a,b\} has fewer than 2 values$"
        with pytest.raises(MalformedInputError, match=message):
            extensions(short, A(b="x"), S("a", "b"))
        with pytest.raises(MalformedInputError, match=message):
            blocking_sets(short, A(b="x"))
        # the short row after an extending one: both queries still read it
        late = AssignmentPresheaf(
            close_family(S("a", "b")), fibers, {**rows, S("a", "b"): (("x", "x"), ("y",))}
        )
        with pytest.raises(MalformedInputError, match=message):
            extensions(late, A(b="x"), S("a", "b"))
        with pytest.raises(MalformedInputError, match=message):
            blocking_sets(late, A(b="x"))
        # two pinned features, the short row failing the first one's value
        abc = S("a", "b", "c")
        ragged = AssignmentPresheaf(
            close_family(abc),
            {f: Fiber(f, ("x", "y")) for f in "abc"},
            {S("a", "c"): (("x", "x"),), abc: (("x", "x", "x"), ("y", "x"))},
        )
        with pytest.raises(MalformedInputError, match=r"^a row at \{a,b,c\} has fewer"):
            extensions(ragged, A(a="x", c="x"), abc)
        # long enough for the pinned feature: the picked row fails decoding
        with pytest.raises(MalformedInputError, match="^assignment has 1 values for 2 features$"):
            extensions(short, A(a="x"), S("a", "b"))
        # a row too long is read as before: decoding refuses it, blocking does not
        long = AssignmentPresheaf(
            close_family(S("a", "b")), fibers, {**rows, S("a", "b"): (("x", "x", "x"),)}
        )
        with pytest.raises(MalformedInputError, match="^assignment has 3 values for 2 features$"):
            extensions(long, A(b="x"), S("a", "b"))
        assert blocking_sets(long, A(b="x")) == ()

    def test_invalid_local_section_rejected(self, camcorder_presheaf):
        bogus = A(film="prof_and_amateur", edit="quick_and_easy_editing", screen="small")
        with pytest.raises(MalformedInputError):
            extensions(camcorder_presheaf, bogus, camcorder_presheaf.family.universe)

    def test_blocking_set_of_the_quick_edit_section(self, camcorder_presheaf):
        a = A(film="prof_and_amateur", edit="quick_and_easy_editing")
        assert blocking_sets(camcorder_presheaf, a) == (S("edit", "film", "screen"),)

    def test_global_section_never_blocked(self, camcorder_presheaf):
        top = global_sections(camcorder_presheaf)[0]
        assert blocking_sets(camcorder_presheaf, top) == ()

    def test_blocking_sets_are_minimal(self):
        for seed in range(30):
            p = compile_model(random_model(seed, max_features=4))
            for u in p.family.objects_sorted:
                for a in p.sections_at(u)[:3]:
                    blocks = blocking_sets(p, a)
                    for w in blocks:
                        for o in blocks:
                            assert w == o or not o.issubset(w)

    def test_blocking_sets_match_reference(self):
        for seed in range(40):
            rng = random.Random(seed)
            p = compile_model(random_model(seed, max_features=5))
            # an unclosed variant: rows dropped at objects of two or more features
            holes = {
                u: tuple(r for r in stored if len(u) < 2 or rng.random() > 0.3)
                for u, stored in p.rows.items()
            }
            unclosed = AssignmentPresheaf(p.family, p.fibers, holes)
            for q in (p, unclosed):
                for u in q.family.objects_sorted:
                    for a in q.sections_at(u)[:2]:
                        want = reference_blocking_sets(q, a)
                        assert blocking_sets(q, a) == want, (seed, a)

    def test_blocking_sets_skip_supersets_of_a_found_scope(self):
        # on a fresh compile, an object is built only when read: none of
        # those read may strictly contain a scope already found blocking
        skipped = 0
        for seed in range(40):
            model = random_model(seed, max_features=5)
            for u in close_family(model.features).objects_sorted[1:]:
                p = compile_model(model)
                for a in p.sections_at(u)[:1]:
                    blocks = blocking_sets(p, a)
                    for names in p.rows._built:
                        built = set(names)
                        assert not any(set(w.names) < built for w in blocks), (seed, a)
                    skipped += sum(len(w) < len(p.family.universe) for w in blocks)
        assert skipped

    def test_global_sections_project_into_all_objects(self):
        for seed in (4, 19):
            p = compile_model(random_model(seed, max_features=4))
            for b in global_sections(p):
                for u in p.family.objects_sorted:
                    assert restrict_assignment(b, u) in p.sections_at(u)


class TestRepresentable:
    def test_terminal_representable(self):
        fam = close_family(S("a", "b"))
        y = representable(fam, fam.universe)
        assert all(len(y.elements[d]) == 1 for d in fam.objects_sorted)

    def test_bottom_representable(self):
        fam = close_family(S("a", "b"))
        y = representable(fam, S())
        assert y.elements[S()] == (HOM_TOKEN,)
        assert all(y.elements[d] == () for d in fam.objects_sorted if len(d))

    def test_element_exactly_when_subobject(self):
        fam = close_family(S("a", "b", "c"))
        c = S("a", "c")
        y = representable(fam, c)
        for d in fam.objects_sorted:
            assert (len(y.elements[d]) == 1) == d.issubset(c)

    def test_lawful(self):
        fam = close_family(S("a", "b"))
        for c in fam.objects_sorted:
            assert validate_laws(representable(fam, c)).passed


class TestNatTransformations:
    def test_empty_target_kills_everything(self):
        fam = close_family(S("a"))
        f = representable(fam, S("a"))
        g = AbstractPresheaf(
            fam,
            {u: () for u in fam.objects_sorted},
            {pair: {} for pair in fam.inclusions()},
        )
        assert nat_transformations(f, g) == ()

    def test_representable_endos_are_unique(self):
        fam = close_family(S("a", "b"))
        for c in fam.objects_sorted:
            y = representable(fam, c)
            nats = nat_transformations(y, y)
            assert len(nats) == 1

    def test_hom_counting_between_representables(self):
        fam = close_family(S("a", "b"))
        for c in fam.objects_sorted:
            for d in fam.objects_sorted:
                nats = nat_transformations(
                    representable(fam, d), representable(fam, c)
                )
                assert len(nats) == (1 if d.issubset(c) else 0)

    def test_family_mismatch_rejected(self):
        f = representable(close_family(S("a")), S("a"))
        g = representable(close_family(S("b")), S("b"))
        with pytest.raises(MalformedInputError):
            nat_transformations(f, g)

    def test_bound_refusal_reports_the_count(self, monkeypatch):
        monkeypatch.setattr(presheaf_mod, "NAT_ENUM_BOUND", 10)
        fam = close_family(S("a"))
        big = AbstractPresheaf(
            fam,
            {u: tuple(f"e{i}" for i in range(6)) for u in fam.objects_sorted},
            {
                pair: {f"e{i}": f"e{i}" for i in range(6)}
                for pair in fam.inclusions()
            },
        )
        with pytest.raises(EnumerationBoundError) as err:
            nat_transformations(big, big)
        assert err.value.bound == 10
        assert err.value.required > 10

    def test_naturality_squares_hold(self):
        fam = close_family(S("a", "b"))
        f = random_abstract_presheaf(3, fam)
        g = random_abstract_presheaf(14, fam)
        for nat in nat_transformations(f, g):
            for u, v in fam.inclusions():
                for x in f.elements[v]:
                    left = nat.at(u)[f.restrict(x, v, u)] if f.elements[u] else None
                    right = g.restrict(nat.at(v)[x], v, u)
                    assert left == right

    def test_matches_brute_force_reference(self):
        compared = 0
        for n in range(3):
            fam = close_family(Subset(f"g{i}" for i in range(n)))
            representables = [representable(fam, c) for c in fam.objects_sorted]
            for f_seed in range(12):
                f = random_abstract_presheaf(f_seed, fam)
                if f in representables:
                    continue
                for g_seed in range(100, 112):
                    g = random_abstract_presheaf(g_seed, fam)
                    expected = reference_nat_transformations(f, g)
                    assert nat_transformations(f, g) == expected, (n, f_seed, g_seed)
                    compared += len(expected) > 1
        assert compared >= 20

    def test_matches_brute_force_reference_into_a_non_functorial_target(self):
        fam = close_family(S("a", "b"))
        # Identity maps stay identities, but {} ⊆ {b} swaps p and q, so
        # restricting from {a,b} to {} directly and through {b} disagree.
        restrictions = {pair: {"p": "p", "q": "q"} for pair in fam.inclusions()}
        restrictions[(S(), S("b"))] = {"p": "q", "q": "p"}
        g = AbstractPresheaf(fam, {u: ("p", "q") for u in fam.objects_sorted}, restrictions)
        assert not validate_laws(g).passed
        counts = []
        for seed in range(12):
            f = random_abstract_presheaf(seed, fam)
            expected = reference_nat_transformations(f, g)
            assert nat_transformations(f, g) == expected, seed
            counts.append(len(expected))
        assert 0 in counts and max(counts) > 1

    def test_identity_square_is_checked(self):
        fam = close_family(S("a"))
        # every map is the identity except {a} ⊆ {a}, which swaps p and q
        restrictions = {pair: {"p": "p", "q": "q"} for pair in fam.inclusions()}
        restrictions[(S("a"), S("a"))] = {"p": "q", "q": "p"}
        elements = {u: ("p", "q") for u in fam.objects_sorted}
        g = AbstractPresheaf(fam, elements, restrictions)
        f = representable(fam, S("a"))
        assert reference_nat_transformations(f, g) == ()
        assert nat_transformations(f, g) == ()
        assert not yoneda_check(g, S("a")).passed
        for seed in range(12):
            f = random_abstract_presheaf(seed, fam)
            expected = reference_nat_transformations(f, g)
            assert nat_transformations(f, g) == expected, seed


class TestYoneda:
    def test_empty_at_object_means_no_transformations(self):
        fam = close_family(S("a"))
        g = AbstractPresheaf(
            fam,
            {S(): ("e",), S("a"): ()},
            {
                (S(), S()): {"e": "e"},
                (S("a"), S("a")): {},
                (S(), S("a")): {},
            },
        )
        assert nat_transformations(representable(fam, S("a")), g) == ()
        assert yoneda_check(g, S("a")).passed

    def test_bijection_on_random_presheaves(self):
        for n in range(3):
            fam = close_family(Subset(f"g{i}" for i in range(n)))
            for seed in range(12):
                f = random_abstract_presheaf(seed, fam)
                for d in fam.objects_sorted:
                    report = yoneda_check(f, d)
                    assert report.passed, (n, seed, d, report.violations)

    def test_report_on_a_prebuilt_representable_matches_yoneda_check(self):
        # the sheaves of ``check --laws=yoneda``'s sweep, for three seeds
        for seed in (0, 7, 1234):
            for n in range(4):
                fam = close_family(Subset(f"g{i}" for i in range(n)))
                sheaves = [representable(fam, fam.universe)] + [
                    random_abstract_presheaf(seed * 97 + n * 10 + i, fam)
                    for i in range(6)
                ]
                for f in sheaves:
                    for d in fam.objects_sorted:
                        got = _yoneda_report(representable(fam, d), f, d)
                        assert got == yoneda_check(f, d), (seed, n, d)

    def test_report_on_a_prebuilt_representable_pins_violations(self):
        fam = close_family(S("a", "b"))
        # {} ⊆ {b} swaps p and q, so no element at {a,b} restricts consistently
        restrictions = {pair: {"p": "p", "q": "q"} for pair in fam.inclusions()}
        restrictions[(S(), S("b"))] = {"p": "q", "q": "p"}
        g = AbstractPresheaf(fam, {u: ("p", "q") for u in fam.objects_sorted}, restrictions)
        for d in fam.objects_sorted:
            got = _yoneda_report(representable(fam, d), g, d)
            assert got == yoneda_check(g, d), d
        top = S("a", "b")
        report = _yoneda_report(representable(fam, top), g, top)
        assert [str(v) for v in report.violations] == [
            "yoneda-surjective: no transformation evaluates to 'p' at {a,b}",
            "yoneda-surjective: no transformation evaluates to 'q' at {a,b}",
        ]
        assert [v.witness for v in yoneda_check(g, top).violations] == [(top, "p"), (top, "q")]

    def test_cardinality_matches_elements(self):
        fam = close_family(S("a", "b"))
        for seed in (1, 6, 27):
            f = random_abstract_presheaf(seed, fam)
            for d in fam.objects_sorted:
                nats = nat_transformations(representable(fam, d), f)
                assert len(nats) == len(f.elements[d])


class TestAsAbstract:
    def test_compiled_model_abstracts_lawfully(self):
        p = compile_model(random_model(7, max_features=3))
        assert validate_laws(p.as_abstract()).passed


class TestRandomAbstract:
    def test_deterministic(self):
        fam = close_family(S("a", "b"))
        left = random_abstract_presheaf(99, fam)
        right = random_abstract_presheaf(99, fam)
        assert left.elements == right.elements
        assert left.restrictions == right.restrictions

    def test_always_lawful(self):
        for n in range(4):
            fam = close_family(Subset(f"g{i}" for i in range(n)))
            for seed in range(40):
                assert validate_laws(random_abstract_presheaf(seed, fam)).passed


class TestOrdering:
    @given(st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_sections_are_canonically_sorted(self, seed):
        p = compile_model(random_model(seed, max_features=4))
        for u in p.family.objects_sorted:
            rows = p.rows[u]
            assert list(rows) == sorted(rows, key=row_sort_key(p.fibers, u.names))
