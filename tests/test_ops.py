from itertools import product

import pytest

from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import Subset
from presh.model import (
    ConstraintTable,
    Model,
    compile_model,
    oracle_sections,
    random_model,
)
from presh.ops import (
    DiffReport,
    FeatureIdentification,
    ObjectDiff,
    add_feature,
    amalgamate,
    analogy_check,
    condition,
    diff_presheaves,
    emergent_sections,
    extend_fiber,
    overlap_union_report,
    remove_feature,
    transfer,
)
from presh.presheaf import (
    Assignment,
    Fiber,
    blocking_sets,
    extensions,
    global_sections,
    pullback_presheaf,
    restrict_assignment,
    row_projection,
    validate_laws,
)
from presh.report import Violation

from util import (
    random_identification,
    random_pair,
    reference_blocking_sets,
    reference_diff_presheaves,
    reference_emergent_sections,
    reference_overlap_union_report,
)


def S(*names):
    return Subset(names)


def A(**binding):
    return Assignment.from_mapping(binding)


IMOVIE_SECTION = dict(
    film="prof_and_amateur",
    screen="large",
    computing="large",
    edit="quick_and_easy_editing",
)
ITUNES_SECTION = dict(
    music="music_usage_everywhere",
    storage="large",
    computing="large",
    share="bought_and_shared_online",
)


class TestExtendFiber:
    def test_screen_gains_large(self, camcorder_model):
        out = extend_fiber(camcorder_model, "screen", ("large",))
        assert out.fibers["screen"].values == ("small", "large")
        assert out.tables == camcorder_model.tables

    def test_empty_extension_is_identity(self, camcorder_model):
        assert extend_fiber(camcorder_model, "screen", ()) == camcorder_model

    def test_duplicate_value_rejected(self, camcorder_model):
        with pytest.raises(MalformedInputError):
            extend_fiber(camcorder_model, "screen", ("small",))

    def test_unknown_feature_rejected(self, camcorder_model):
        with pytest.raises(MalformedInputError):
            extend_fiber(camcorder_model, "nope", ("x",))

    def test_guarded_extension_never_shrinks_global_sections(self):
        from presh.model import random_model

        for seed in (1, 5, 9, 22, 30):
            m = random_model(seed, max_features=4)
            feature = m.feature_order()[0]
            grown = extend_fiber(m, feature, ("extra_value",))
            merged = amalgamate(m, grown)
            before = {a for a in oracle_sections(m, m.features)}
            after = {a for a in oracle_sections(merged.result, m.features)}
            assert before <= after


class TestAddRemoveFeature:
    def test_add_then_remove_round_trips(self, camcorder_model):
        grown = add_feature(camcorder_model, Fiber("audio", ("mono", "stereo")))
        back, report = remove_feature(grown, "audio")
        assert back == camcorder_model
        assert report.dropped_forbid == ()

    def test_add_fresh_only(self, camcorder_model):
        with pytest.raises(MalformedInputError):
            add_feature(camcorder_model, Fiber("screen", ("x",)))

    def test_add_unconstrained_multiplies_global_sections(self, org_model):
        base = len(global_sections(compile_model(org_model)))
        grown = add_feature(org_model, Fiber("k", ("v0", "v1", "v2")))
        assert len(global_sections(compile_model(grown))) == base * 3

    def test_removing_screen_frees_quick_editing(self, camcorder_model):
        shrunk, report = remove_feature(camcorder_model, "screen")
        assert len(report.dropped_forbid) == 1
        gs = set(global_sections(compile_model(shrunk)))
        assert A(film="prof_and_amateur", edit="quick_and_easy_editing") in gs

    def test_allow_tables_are_projected(self):
        m = Model(
            "m",
            [Fiber("a", ("x", "y")), Fiber("b", ("p", "q"))],
            [ConstraintTable(S("a", "b"), "allow", [("x", "p")])],
        )
        out, report = remove_feature(m, "b")
        assert out.tables == (ConstraintTable(S("a"), "allow", [("x",)]),)
        assert len(report.projected) == 1

    def test_single_feature_scope_drops_to_empty(self):
        m = Model(
            "m",
            [Fiber("a", ("x", "y"))],
            [ConstraintTable(S("a"), "allow", [("x",)])],
        )
        out, report = remove_feature(m, "a")
        assert out.tables == ()
        assert len(report.dropped_empty) == 1


class TestCondition:
    def test_conditioned_model_answers_like_the_full_one(self):
        # the seeds and limits of test_blocking_sets_match_reference, and
        # every value combination at objects of one or two features
        empty = Assignment(S(), ())
        local_sections = 0
        for seed in range(40):
            m = random_model(seed, max_features=5)
            p = compile_model(m)
            oracle = {}
            for u in p.family.objects_sorted:
                if not 1 <= len(u) <= 2:
                    continue
                local = set(p.rows[u])
                for combo in product(*(m.fibers[f].values for f in u.names)):
                    a = Assignment(u, combo)
                    conditioned = condition(m, a)
                    assert conditioned.features == m.features.difference(u)
                    if combo not in local:
                        continue
                    local_sections += 1
                    q = compile_model(conditioned)
                    want = reference_blocking_sets(p, a)
                    assert blocking_sets(p, a) == want, (seed, a)
                    got = tuple(u.union(z) for z in blocking_sets(q, empty))
                    assert got == want, (seed, a)
                    for v in p.family.supersets(u):
                        rest = v.difference(u)
                        drop_a = row_projection(v, rest)
                        assert [b.values for b in extensions(q, empty, rest)] == [
                            drop_a(b.values) for b in extensions(p, a, v)
                        ], (seed, a, v)
                        if v not in oracle:
                            oracle[v] = oracle_sections(m, v)
                        agree = {
                            restrict_assignment(b, rest)
                            for b in oracle[v]
                            if restrict_assignment(b, u) == a
                        }
                        assert oracle_sections(conditioned, rest) == agree, (seed, a, v)
        assert local_sections > 500

    def test_unknown_feature_rejected(self, camcorder_model):
        with pytest.raises(MalformedInputError, match="unknown feature 'nope'"):
            condition(camcorder_model, A(nope="x"))

    def test_value_outside_the_fiber_rejected(self, camcorder_model):
        with pytest.raises(MalformedInputError, match="'large' is not a value"):
            condition(camcorder_model, A(screen="large"))

    def test_empty_assignment_keeps_the_content(self, camcorder_model):
        out = condition(camcorder_model, Assignment(S(), ()))
        assert out.name == camcorder_model.name
        assert out.fibers == camcorder_model.fibers
        assert out.tables == camcorder_model.tables
        assert out.labels == {}

    def test_a_table_inside_the_domain_is_dropped(self):
        # g=a is no local section, which the conditioned model cannot tell:
        # the forbid on (g) is left to the local-section check
        m = Model(
            "m",
            [Fiber("g", ("a", "b")), Fiber("h", ("c", "d"))],
            [
                ConstraintTable(S("g"), "forbid", [("a",)]),
                ConstraintTable(S("g", "h"), "allow", [("a", "c"), ("b", "d")]),
            ],
        )
        a = A(g="a")
        assert compile_model(m).rows[S("g")] == (("b",),)
        out = condition(m, a)
        assert out.fibers == {"h": m.fibers["h"]}
        assert out.tables == (ConstraintTable(S("h"), "allow", [("c",)]),)

    def test_a_whole_domain_leaves_no_features(self):
        m = Model(
            "m",
            [Fiber("g", ("a", "b"))],
            [ConstraintTable(S("g"), "allow", [("a",)])],
        )
        out = condition(m, A(g="b"))
        assert (out.fibers, out.tables) == ({}, ())
        assert compile_model(out).rows[S()] == ((),)

    def test_partly_covered_tables_are_projected(self):
        m = Model(
            "m",
            [
                Fiber("a", ("x", "y")),
                Fiber("b", ("p", "q")),
                Fiber("c", ("s", "t")),
                Fiber("d", ("u",)),
            ],
            [
                ConstraintTable(S("a", "b"), "allow", [("x", "p"), ("y", "q")]),
                ConstraintTable(
                    S("a", "b", "c"), "forbid", [("y", "q", "s"), ("y", "p", "t")]
                ),
                ConstraintTable(
                    S("a", "c", "d"), "forbid", [("x", "s", "u"), ("y", "t", "u")]
                ),
                ConstraintTable(S("b", "c"), "forbid", [("p", "s")]),
            ],
        )
        out = condition(m, A(a="y", d="u"))
        assert list(out.fibers) == ["b", "c"]
        assert out.fibers["b"] is m.fibers["b"]
        assert out.tables == (
            ConstraintTable(S("b"), "allow", [("q",)]),
            ConstraintTable(S("c"), "forbid", [("t",)]),
            ConstraintTable(S("b", "c"), "forbid", [("p", "s")]),
            ConstraintTable(S("b", "c"), "forbid", [("p", "t"), ("q", "s")]),
        )


class TestAmalgamate:
    def test_imovie_emergent_section_exists(self, pc_model, camcorder_model):
        merged = amalgamate(pc_model, camcorder_model, name="IMovieHub")
        p = compile_model(merged.result)
        target = A(**IMOVIE_SECTION)
        assert target in set(global_sections(p))
        # independent confirmation through the brute-force path
        assert target in oracle_sections(merged.result, merged.result.features)

    def test_shared_fibers_union_in_declaration_order(self, pc_model, camcorder_model):
        merged = amalgamate(pc_model, camcorder_model)
        assert merged.result.fibers["film"].values == ("prof_only", "prof_and_amateur")
        assert merged.result.fibers["screen"].values == ("large", "small")
        shared = {s.feature: s for s in merged.shared}
        assert shared["screen"].added_from_right == ("small",)
        assert not shared["screen"].reordered

    def test_self_merge_changes_nothing(self, camcorder_model):
        merged = amalgamate(camcorder_model, camcorder_model)
        left = compile_model(camcorder_model)
        right = compile_model(merged.result)
        for u in left.family.objects_sorted:
            assert left.sections_at(u) == right.sections_at(u)

    def test_random_self_merges_preserve_sections(self):
        from presh.model import random_model

        for seed in range(20):
            m = random_model(seed, max_features=4)
            merged = amalgamate(m, m)
            left = compile_model(m)
            right = compile_model(merged.result)
            for u in left.family.objects_sorted:
                assert set(left.sections_at(u)) == set(right.sections_at(u))

    def test_constraint_preservation_is_machine_checkable(
        self, pc_model, camcorder_model
    ):
        merged = amalgamate(pc_model, camcorder_model)
        self._assert_preservation(merged, pc_model, camcorder_model)

    def test_preservation_on_random_pairs(self):
        for seed in range(40):
            left, right = random_pair(seed, max_features=4)
            merged = amalgamate(left, right)
            self._assert_preservation(merged, left, right)

    @staticmethod
    def _assert_preservation(merged, left, right):
        # no merged section may violate a guarded table while staying inside
        # that source's fibers on the table's scope
        p = compile_model(merged.result)
        fibers = {"left": left.fibers, "right": right.fibers}
        for u in p.family.objects_sorted:
            for a in p.sections_at(u):
                for guarded in merged.tables:
                    table = guarded.original
                    if not table.scope.issubset(u):
                        continue
                    row = tuple(a.value_of(f) for f in table.scope.names)
                    source_fibers = fibers[guarded.source]
                    if all(
                        v in source_fibers[f].index
                        for f, v in zip(table.scope.names, row)
                    ):
                        assert table.admits(row), (u, a, table)

    def test_conservativity_on_value_disjoint_pairs(self):
        for seed in range(40):
            left, right = random_pair(seed, max_features=4)
            merged = amalgamate(left, right)
            p_merged = compile_model(merged.result)
            for source in (left, right):
                p = compile_model(source)
                for u in p.family.objects_sorted:
                    assert set(p.sections_at(u)) <= set(p_merged.sections_at(u)), (
                        seed,
                        source.name,
                        u,
                    )

    def test_provenance_attributes_every_value(self, pc_model, camcorder_model):
        merged = amalgamate(pc_model, camcorder_model)
        shared = {s.feature for s in merged.shared}
        for f, fib in merged.result.fibers.items():
            if f in shared:
                record = next(s for s in merged.shared if s.feature == f)
                assert set(fib.values) == set(record.left_values) | set(
                    record.right_values
                )
            else:
                origin = (
                    pc_model.fibers.get(f) or camcorder_model.fibers.get(f)
                )
                assert fib.values == origin.values

    def test_reordered_common_values_flagged(self):
        left = Model("L", [Fiber("a", ("x", "y"))])
        right = Model("R", [Fiber("a", ("y", "x"))])
        merged = amalgamate(left, right)
        assert merged.result.fibers["a"].values == ("x", "y")
        assert merged.shared[0].reordered

    def test_outputs_are_lawful(self, pc_model, camcorder_model):
        merged = amalgamate(pc_model, camcorder_model)
        assert validate_laws(compile_model(merged.result)).passed


def _compiled_merge(left, right):
    merged = amalgamate(left, right)
    return compile_model(merged.result), compile_model(left), compile_model(right)


def _overlap(left, right):
    return overlap_union_report(*_compiled_merge(left, right))


def _emergent(left, right):
    return emergent_sections(*_compiled_merge(left, right))


def _common(u, p_merged, p_left, p_right):
    """The sections at ``u`` that the literal union and the amalgam share."""
    literal = set(p_left.rows[u]) | set(p_right.rows[u])
    return {Assignment(u, row) for row in literal & set(p_merged.rows[u])}


class TestOverlapUnion:
    def test_singleton_overlap_is_the_fiber_union(self, pc_model, camcorder_model):
        compiled = _compiled_merge(pc_model, camcorder_model)
        report = overlap_union_report(*compiled)
        d = report.per_object[S("screen")]
        assert d.clean
        values = {a.value_of("screen") for a in _common(S("screen"), *compiled)}
        assert values == {"large", "small"}

    def test_disjoint_models_have_trivial_overlap(self):
        left = Model("L", [Fiber("a", ("x",))])
        right = Model("R", [Fiber("b", ("y",))])
        report = _overlap(left, right)
        assert set(report.per_object) == {S()}
        assert report.is_empty

    def test_cross_combination_flagged(self, pc_model, camcorder_model):
        report = _overlap(pc_model, camcorder_model)
        extra = report.per_object[S("film", "screen")].only_in_right
        assert A(film="prof_and_amateur", screen="large") in extra

    def test_parts_partition_the_union(self, pc_model, camcorder_model):
        compiled = _compiled_merge(pc_model, camcorder_model)
        report = overlap_union_report(*compiled)
        for u, diff in report.per_object.items():
            common = _common(u, *compiled)
            parts = set(diff.only_in_left) | set(diff.only_in_right) | common
            assert len(parts) == (
                len(diff.only_in_left) + len(diff.only_in_right) + len(common)
            )


class TestAgainstReferences:
    """The row-native ops equal their Assignment-set references, order included."""

    @staticmethod
    def _same(report, reference):
        assert list(report.per_object) == list(reference)
        for u, want in reference.items():
            got = report.per_object[u]
            assert (got.only_in_left, got.only_in_right) == want[:2], u

    def test_random_pairs(self):
        for seed in range(150):
            left, right = random_pair(seed)
            merged = amalgamate(left, right).result
            p_merged, p_left, p_right = (compile_model(m) for m in (merged, left, right))
            for model, p in ((merged, p_merged), (left, p_left), (right, p_right)):
                for u in p.family.objects_sorted:
                    assert set(p.sections_at(u)) == oracle_sections(model, u), (seed, u)
            compiled = (p_merged, p_left, p_right)
            self._same(
                overlap_union_report(*compiled), reference_overlap_union_report(*compiled)
            )
            want = reference_emergent_sections(*compiled)
            assert emergent_sections(*compiled) == want, seed
            for a, b in ((p_left, p_right), (p_merged, p_left), (p_right, p_merged)):
                self._same(diff_presheaves(a, b), reference_diff_presheaves(a, b))


class TestEmergent:
    def test_imovie_contains_the_quick_edit_section(self, pc_model, camcorder_model):
        got = _emergent(pc_model, camcorder_model)
        assert A(**IMOVIE_SECTION) in got

    def test_self_merge_has_no_emergent_sections(self, camcorder_model):
        assert _emergent(camcorder_model, camcorder_model) == ()

    def test_emergent_sections_use_an_escaped_value(self, pc_model, camcorder_model):
        emergent = _emergent(pc_model, camcorder_model)
        for source in (pc_model, camcorder_model):
            p = compile_model(source)
            top = p.family.universe
            secs = set(p.sections_at(top))
            for s in emergent:
                if restrict_assignment(s, top) in secs:
                    continue
                escaped = [
                    f
                    for f in top.names
                    if s.value_of(f) not in source.fibers[f].index
                ]
                assert escaped, (source.name, s)


class TestTransfer:
    def test_identity_identification_preserves_sections(self, camcorder_model):
        h = FeatureIdentification(
            "id",
            {f: f for f in camcorder_model.feature_order()},
            {
                f: {v: v for v in fib.values}
                for f, fib in camcorder_model.fibers.items()
            },
        )
        out, skipped = transfer(h, camcorder_model)
        assert skipped == ()
        left = compile_model(camcorder_model)
        right = compile_model(out)
        for u in left.family.objects_sorted:
            assert set(left.sections_at(u)) == set(right.sections_at(u))

    def test_itunes_binding_appears(self, hub):
        p = hub.compile(hub.artifact("ITunesFromVideo"))
        assert A(**ITUNES_SECTION) in set(global_sections(p))

    def test_unmapped_scope_skipped_and_reported(self, camcorder_model):
        h = FeatureIdentification(
            "partial",
            {"f": "film", "e": "edit"},
            {
                "f": {"pa": "prof_and_amateur"},
                "e": {
                    "q": "quick_and_easy_editing",
                    "d": "difficult_and_inconvenient_editing",
                },
            },
        )
        out, skipped = transfer(h, camcorder_model)
        assert skipped == (S("edit", "screen"),)
        assert out.tables == ()

    def test_transferred_sections_map_back_into_the_source(self, hub):
        ws = hub.workspace
        h = ws.identifications["AudioVideo"].ident
        source = hub.artifact("IMovieHub")
        out, _ = transfer(h, source)
        p_src = compile_model(source)
        for s in global_sections(compile_model(out)):
            image = {
                h.feature_map[t]: h.value_maps[t][s.value_of(t)]
                for t in s.domain.names
            }
            obj = S(*image)
            assert Assignment.from_mapping(image) in set(p_src.sections_at(obj))

    def test_commutes_with_presheaf_pullback(self, hub):
        h = hub.workspace.identifications["AudioVideo"].ident
        source = hub.artifact("IMovieHub")
        via_model = compile_model(transfer(h, source)[0])
        via_presheaf = pullback_presheaf(h, compile_model(source))
        assert via_model.family.objects == via_presheaf.family.objects
        for u in via_model.family.objects_sorted:
            assert set(via_model.sections_at(u)) == set(via_presheaf.sections_at(u))

    def test_commutes_on_random_models(self):
        from presh.model import random_model

        checked = 0
        for seed in range(25):
            m = random_model(seed, max_features=4)
            if any(t.scope for t in m.tables):
                pass
            h = random_identification(seed, m)
            out, _ = transfer(h, m)
            via_model = compile_model(out)
            via_presheaf = pullback_presheaf(h, compile_model(m))
            for u in via_model.family.objects_sorted:
                assert set(via_model.sections_at(u)) == set(via_presheaf.sections_at(u)), (
                    seed,
                    u,
                )
            assert validate_laws(via_model).passed
            checked += 1
        assert checked == 25

    def test_scope_refusals_name_the_operation(self):
        wide = tuple(f"v{i}" for i in range(170))
        xyz = S("x", "y", "z")
        fibers = [Fiber(f, wide) for f in "xyz"]
        h = FeatureIdentification(
            "id", {f: f for f in "xyz"}, {f: {v: v for v in wide} for f in "xyz"}
        )
        source = Model("wide", fibers, [ConstraintTable(xyz, "forbid", [("v0",) * 3])])
        with pytest.raises(EnumerationBoundError) as err:
            transfer(h, source)
        assert str(err.value) == (
            "transferred table over {x,y,z} refused (required 4913000, bound 4194304)"
        )
        left = Model("L", fibers, [ConstraintTable(xyz, "allow", [("v0",) * 3])])
        right = Model("R", [Fiber("x", ("w",))])
        with pytest.raises(EnumerationBoundError) as err:
            amalgamate(left, right)
        assert str(err.value) == (
            "guarded import over {x,y,z} refused (required 4941900, bound 4194304)"
        )

    def test_mapped_feature_must_exist(self, camcorder_model):
        h = FeatureIdentification("bad", {"t": "nope"}, {"t": {"x": "y"}})
        with pytest.raises(MalformedInputError):
            transfer(h, camcorder_model)


class TestAnalogyCheck:
    def test_transfer_output_always_passes(self, camcorder_model):
        h = FeatureIdentification(
            "h",
            {"f": "film", "e": "edit", "s": "screen"},
            {
                "f": {"pa": "prof_and_amateur"},
                "e": {
                    "q": "quick_and_easy_editing",
                    "d": "difficult_and_inconvenient_editing",
                },
                "s": {"sm": "small"},
            },
        )
        out, _ = transfer(h, camcorder_model)
        pulled = pullback_presheaf(h, compile_model(camcorder_model))
        assert analogy_check(compile_model(out), pulled).passed

    def test_extra_forbid_breaks_the_square(self, camcorder_model):
        h = FeatureIdentification(
            "h",
            {"e": "edit"},
            {
                "e": {
                    "q": "quick_and_easy_editing",
                    "d": "difficult_and_inconvenient_editing",
                }
            },
        )
        out, _ = transfer(h, camcorder_model)
        stricter = Model(
            out.name,
            out.fibers,
            list(out.tables) + [ConstraintTable(S("e"), "forbid", [("q",)])],
        )
        report = analogy_check(compile_model(out), compile_model(stricter))
        assert not report.passed
        assert any(v.law == "analogy-sections" for v in report.violations)

    def test_pinned_itunes_model_commutes(self, hub, itunes_model):
        h = hub.workspace.identifications["AudioVideo"].ident
        transferred, _ = transfer(h, hub.artifact("IMovieHub"))
        report = analogy_check(compile_model(transferred), compile_model(itunes_model))
        assert report.passed

    def test_feature_set_mismatch_reported(self, camcorder_model, org_model):
        h = FeatureIdentification(
            "h", {"e": "edit"}, {"e": {"q": "quick_and_easy_editing"}}
        )
        transferred, _ = transfer(h, camcorder_model)
        report = analogy_check(compile_model(transferred), compile_model(org_model))
        assert any(v.law == "analogy-feature-set" for v in report.violations)

    def test_fiber_value_set_mismatch_reported(self):
        transferred = Model("T", [Fiber("e", ("q", "d"))])
        target = Model("T", [Fiber("e", ("q", "x"))])
        report = analogy_check(compile_model(transferred), compile_model(target))
        assert report.violations[0] == Violation(
            "analogy-fibers", "fiber of 'e' differs: ('q', 'd') vs ('q', 'x')", ("e",)
        )
        assert [str(v) for v in report.violations[1:]] == [
            "analogy-sections: e=x at {e} only in the target",
            "analogy-sections: e=d at {e} only in the transfer",
        ]

    def test_section_only_in_the_target_reported(self):
        fibers = [Fiber("e", ("q", "d"))]
        transferred = Model("T", fibers, [ConstraintTable(S("e"), "forbid", [("q",)])])
        report = analogy_check(compile_model(transferred), compile_model(Model("T", fibers)))
        assert report.violations == (
            Violation(
                "analogy-sections", "e=q at {e} only in the target", (S("e"), A(e="q"))
            ),
        )


class TestDiff:
    def test_self_diff_empty(self, org_model):
        p = compile_model(org_model)
        assert diff_presheaves(p, p).is_empty

    def test_dirty_objects_keep_per_object_order(self):
        dirty = ObjectDiff((A(a="x"),), ())
        report = DiffReport({S("b"): dirty, S(): ObjectDiff((), ()), S("a"): dirty})
        assert report.dirty_objects() == (S("b"), S("a"))
