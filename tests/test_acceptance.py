"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
comparison is exact (set equality / byte equality); the only tolerance in
play is the 10-second wall budget per criterion, printed alongside.
"""

import time
from contextlib import contextmanager
from operator import itemgetter

import pytest

from presh.dsl import canonicalize, parse_model, serialize
from presh.lattice import Subset, check_adjunction_triple, close_family
from presh.model import compile_model, oracle_sections, random_model
from presh.ops import amalgamate, analogy_check, emergent_sections, transfer
from presh.presheaf import (
    Assignment,
    blocking_sets,
    extensions,
    global_sections,
    pullback_presheaf,
    random_abstract_presheaf,
    validate_laws,
    yoneda_check,
)
from presh.render import canvas

from util import random_identification, random_pair

SWEEP = 1000
BUDGET_SECONDS = 10.0


@contextmanager
def criterion(num: int, desc: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {num:02d}] PASS  {desc} ({elapsed:.2f}s)")
    assert elapsed < BUDGET_SECONDS, f"criterion {num} exceeded {BUDGET_SECONDS}s"


def A(**binding):
    return Assignment.from_mapping(binding)


@pytest.fixture(scope="module")
def base_sweep():
    models = [random_model(seed) for seed in range(SWEEP)]
    compiled = [compile_model(m) for m in models]
    return models, compiled


def test_criterion_01_organization_sections(org_model):
    with criterion(1, "organization model: exact section set at {levels,size}"):
        p = compile_model(org_model)
        got = set(p.sections_at(Subset(["size", "levels"])))
        assert got == {
            A(size="large", levels="many"),
            A(size="large", levels="few"),
            A(size="small", levels="few"),
        }
        assert A(size="small", levels="many") not in got


def test_criterion_02_wine_canvas(wine_model):
    with criterion(2, "wine model: 2 uniform global sections, 2 canvas polylines"):
        p = compile_model(wine_model)
        sections = global_sections(p)
        assert len(sections) == 2
        rows = {tuple(set(s.values)) for s in sections}
        assert rows == {("high",), ("low",)}
        drawing = canvas(wine_model, p)
        grid = [line for line in drawing.splitlines() if line.startswith("  [")]
        assert len(grid) == 2
        # each polyline stays on its own row across all seven columns
        assert grid[0].count("*1") + grid[1].count("*1") == 7
        assert grid[0].count("*2") in (0, 7) and grid[1].count("*2") in (0, 7)
        one_row = grid[0] if grid[0].count("*1") == 7 else grid[1]
        other_row = grid[1] if one_row is grid[0] else grid[0]
        assert one_row.count("*2") == 0 and other_row.count("*2") == 7


def test_criterion_03_imovie_amalgamation(pc_model, camcorder_model):
    with criterion(3, "video amalgam: emergent quick-editing section; blocked locally"):
        merged = amalgamate(pc_model, camcorder_model, name="IMovieHub")
        target = A(
            film="prof_and_amateur",
            screen="large",
            computing="large",
            edit="quick_and_easy_editing",
        )
        p = compile_model(merged.result)
        assert target in set(global_sections(p))
        p_sources = compile_model(pc_model), compile_model(camcorder_model)
        assert target in emergent_sections(p, *p_sources)
        assert target in oracle_sections(merged.result, merged.result.features)
        # within the unmerged camcorder the local section cannot extend
        cam = compile_model(camcorder_model)
        local = A(film="prof_and_amateur", edit="quick_and_easy_editing")
        assert extensions(cam, local, cam.family.universe) == ()
        assert blocking_sets(cam, local) == (Subset(["film", "screen", "edit"]),)


def test_criterion_04_itunes_transfer(hub, itunes_model):
    with criterion(4, "audio transfer: pinned section present, analogy commutes"):
        decl = hub.workspace.identifications["AudioVideo"]
        source = hub.artifact("IMovieHub")
        model, skipped = transfer(decl.ident, source, name="ITunes")
        assert skipped == ()
        p = compile_model(model)
        got = set(global_sections(p))
        assert (
            A(
                music="music_usage_everywhere",
                storage="large",
                computing="large",
                share="bought_and_shared_online",
            )
            in got
        )
        assert analogy_check(p, compile_model(itunes_model)).passed


def test_criterion_05_oracle_equivalence(base_sweep):
    with criterion(5, f"{SWEEP} random models: compiled = brute-force, every object"):
        models, compiled = base_sweep
        for m, p in zip(models, compiled):
            for u in p.family.objects_sorted:
                assert set(p.sections_at(u)) == oracle_sections(m, u), (m.name, u)


def test_criterion_06_presheaf_laws(base_sweep):
    with criterion(6, "laws hold for every compiled/merged/transferred/pulled presheaf"):
        models, compiled = base_sweep
        for seed, (m, p) in enumerate(zip(models, compiled)):
            assert validate_laws(p).passed, m.name
            left, right = random_pair(seed)
            merged = amalgamate(left, right)
            assert validate_laws(compile_model(merged.result)).passed, seed
            h = random_identification(seed, m)
            transferred, _ = transfer(h, m)
            assert validate_laws(compile_model(transferred)).passed, seed
            assert validate_laws(pullback_presheaf(h, p)).passed, seed


def test_criterion_07_yoneda_bijection():
    with criterion(7, "Yoneda bijection on |S|<=3 power sets, 200 random presheaves"):
        seeds_per_size = 50
        for n in range(4):
            family = close_family(Subset(f"g{i}" for i in range(n)))
            for seed in range(seeds_per_size):
                f = random_abstract_presheaf(1000 * n + seed, family)
                for d in family.objects_sorted:
                    report = yoneda_check(f, d)
                    assert report.passed, (n, seed, d, report.violations)


def test_criterion_08_adjunction_sweep():
    with criterion(8, "adjoint triple verified for every nested pair, |S2|<=5"):
        universe = Subset([f"a{i}" for i in range(5)])
        outer = close_family(universe)
        checked = 0
        for s2 in outer.objects_sorted:
            for s1 in close_family(s2).objects_sorted:
                report = check_adjunction_triple(s1, s2)
                assert report.passed, (s1, s2, report.violations)
                checked += 1
        assert checked == 3**5


def test_criterion_09_dsl_round_trip(data_dir):
    with criterion(9, "round-trip identity, pinned + 500 random; canonical fixed point"):
        for name in (
            "organization.psh",
            "wine.psh",
            "pc.psh",
            "camcorder.psh",
            "itunes.psh",
        ):
            text = (data_dir / name).read_text()
            assert canonicalize(text) == text, name
            model = parse_model(text)
            assert parse_model(serialize(model)) == model, name
        for seed in range(500):
            m = random_model(seed)
            text = serialize(m)
            assert parse_model(text) == m, seed
            assert serialize(parse_model(text)) == text, seed


def test_criterion_10_conservativity_and_preservation():
    with criterion(10, "guarded merges: sources survive, guarded tables never violated"):
        for seed in range(SWEEP):
            left, right = random_pair(seed)
            merged = amalgamate(left, right)
            pm = compile_model(merged.result)
            source_models = {"left": left, "right": right}
            # conservativity: every source section survives objectwise
            for source in (left, right):
                ps = compile_model(source)
                for u in ps.family.objects_sorted:
                    mine = set(ps.rows[u])
                    theirs = set(pm.rows[u])
                    assert mine <= theirs, (seed, source.name, u)
            # preservation: inside a source's fibers its tables still bind
            for guarded in merged.tables:
                table = guarded.original
                fibers = source_models[guarded.source].fibers
                inside = [set(fibers[f].values) for f in table.scope.names]
                for u in pm.family.objects_sorted:
                    if not table.scope.issubset(u):
                        continue
                    positions = tuple(u.names.index(f) for f in table.scope.names)
                    get = (
                        (lambda row, i=positions[0]: (row[i],))
                        if len(positions) == 1
                        else itemgetter(*positions)
                    )
                    for values in pm.rows[u]:
                        row = get(values)
                        if all(v in inside[i] for i, v in enumerate(row)):
                            assert table.admits(row), (seed, u, values, table)
