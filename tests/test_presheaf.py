import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presh import presheaf as presheaf_mod
from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import Subset, close_family
from presh.model import compile_model, random_model
from presh.presheaf import (
    AbstractPresheaf,
    Assignment,
    AssignmentPresheaf,
    Fiber,
    HOM_TOKEN,
    blocking_sets,
    closure_complete,
    extensions,
    global_sections,
    nat_transformations,
    pullback_presheaf,
    random_abstract_presheaf,
    representable,
    restrict_assignment,
    row_sort_key,
    validate_laws,
    yoneda_check,
)

from util import (
    one_step_projection_fixpoint,
    reference_blocking_sets,
    reference_validate_abstract,
    reference_validate_assignment,
)


def S(*names):
    return Subset(names)


def A(**binding):
    return Assignment.from_mapping(binding)


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
        rng = random.Random(5)
        for seed in range(20):
            p = compile_model(random_model(seed, max_features=4))
            objs = p.family.objects_sorted
            v = rng.choice(objs)
            if not p.sections_at(v):
                continue
            for u in objs:
                if not u.issubset(v) or not p.sections_at(u):
                    continue
                a = rng.choice(p.sections_at(u))
                got = set(extensions(p, a, v))
                want = {
                    b for b in p.sections_at(v) if restrict_assignment(b, u) == a
                }
                assert got == want

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

    def test_cardinality_matches_elements(self):
        fam = close_family(S("a", "b"))
        for seed in (1, 6, 27):
            f = random_abstract_presheaf(seed, fam)
            for d in fam.objects_sorted:
                nats = nat_transformations(representable(fam, d), f)
                assert len(nats) == len(f.elements[d])


class TestPullback:
    def test_identity_functor_for_abstract(self):
        fam = close_family(S("a", "b"))
        f = random_abstract_presheaf(8, fam)
        back = pullback_presheaf({u: u for u in fam.objects_sorted}, f, family=fam)
        assert back.elements == f.elements
        assert back.restrictions == f.restrictions

    def test_constant_functor_reads_the_bottom(self):
        fam = close_family(S("a", "b"))
        f = random_abstract_presheaf(21, fam)
        back = pullback_presheaf(lambda u: S(), f, family=fam)
        for u in fam.objects_sorted:
            assert back.elements[u] == f.elements[S()]
        assert validate_laws(back).passed

    def test_non_monotone_map_rejected_with_witness(self):
        fam = close_family(S("a", "b"))
        f = random_abstract_presheaf(5, fam)
        swap = {u: u for u in fam.objects_sorted}
        swap[S("a")] = S("a", "b")
        swap[S("a", "b")] = S("a")
        with pytest.raises(MalformedInputError, match="monotone"):
            pullback_presheaf(swap, f, family=fam)

    def test_pullback_outputs_are_lawful(self):
        fam = close_family(S("a", "b"))
        f = random_abstract_presheaf(30, fam)
        back = pullback_presheaf(lambda u: u.intersection(S("a")), f, family=fam)
        assert validate_laws(back).passed


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
