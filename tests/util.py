"""Test-side oracles and generators, deliberately independent of the
production code paths they check."""

from __future__ import annotations

import random
from itertools import combinations

from presh.lattice import Subset
from presh.model import Model, random_model
from presh.ops import FeatureIdentification
from presh.presheaf import Assignment, AssignmentPresheaf, Fiber, restrict_assignment


def saturation_close(universe: Subset, seeds) -> frozenset[Subset]:
    """Alternating meet/join saturation to a fixed point, starting from the
    seeds, the empty set, the universe and all singletons."""
    current = {Subset(), universe} | {Subset([n]) for n in universe}
    current.update(seeds)
    while True:
        fresh = set()
        items = list(current)
        for a in items:
            for b in items:
                fresh.add(a.union(b))
                fresh.add(a.intersection(b))
        if fresh <= current:
            return frozenset(current)
        current |= fresh


def full_power_set(universe: Subset) -> frozenset[Subset]:
    out = set()
    for k in range(len(universe) + 1):
        for combo in combinations(universe.names, k):
            out.add(Subset(combo))
    return frozenset(out)


def brute_force_covers(objects) -> list[tuple[Subset, Subset]]:
    """Hasse edges (u, v) of a subset poset: u ⊂ v with nothing strictly
    between, ordered by v and then u in the order ``objects`` lists them."""
    edges = []
    for v in objects:
        for u in objects:
            if u == v or not u.issubset(v):
                continue
            if any(w not in (u, v) and u.issubset(w) and w.issubset(v) for w in objects):
                continue
            edges.append((u, v))
    return edges


def one_step_projection_fixpoint(p: AssignmentPresheaf) -> dict[Subset, frozenset]:
    """Closure oracle: repeat single-step projection along direct inclusions
    until nothing changes."""
    sections = {u: set(p.sections.get(u, ())) for u in p.family.objects_sorted}
    changed = True
    while changed:
        changed = False
        for v in p.family.objects_sorted:
            for u in p.family.objects_sorted:
                if u == v or not u.issubset(v):
                    continue
                for b in list(sections[v]):
                    a = restrict_assignment(b, u)
                    if a not in sections[u]:
                        sections[u].add(a)
                        changed = True
    return {u: frozenset(s) for u, s in sections.items()}


def random_pair(seed: int, **limits) -> tuple[Model, Model]:
    """Two random models sharing feature names but never value tokens on the
    shared fibers, the regime in which guarded merging is conservative.  The
    partner is drawn smaller so the merged value space stays desk-sized."""
    rng = random.Random(seed ^ 0x5EED)
    left = random_model(seed, **limits)
    partner_limits = dict(limits)
    partner_limits["max_features"] = min(4, limits.get("max_features", 6))
    partner_limits["max_fiber"] = min(3, limits.get("max_fiber", 4))
    right = random_model(seed + 10_000, **partner_limits)
    renamed = []
    for fib in right.fibers.values():
        if fib.feature in left.fibers:
            renamed.append(Fiber(fib.feature, tuple(f"w{i}" for i in range(len(fib.values)))))
        else:
            renamed.append(fib)
    by_name = {f.feature: f for f in renamed}
    value_swap = {
        f.feature: dict(zip(right.fibers[f.feature].values, f.values)) for f in renamed
    }
    tables = []
    for t in right.tables:
        rows = [
            tuple(value_swap[f][v] for f, v in zip(t.scope.names, row))
            for row in t.tuples
        ]
        tables.append(type(t)(t.scope, t.polarity, rows))
    right2 = Model(right.name, renamed, tables, right.cover_seeds)
    if rng.random() < 0.1:
        right2 = left.with_name(right.name)  # occasional self-merge pair
    return left, right2


def random_identification(seed: int, source: Model) -> FeatureIdentification:
    """A random analogy map into ``source``: some features, arbitrary total
    (not necessarily injective) value maps."""
    rng = random.Random(seed * 31 + 7)
    names = list(source.feature_order())
    picked = rng.sample(names, rng.randint(1, len(names)))
    feature_map = {}
    value_maps = {}
    for i, src in enumerate(sorted(picked)):
        tgt = f"t{i}"
        feature_map[tgt] = src
        fiber = source.fibers[src].values
        width = rng.randint(1, len(fiber) + 1)
        value_maps[tgt] = {f"u{j}": rng.choice(fiber) for j in range(width)}
    return FeatureIdentification(f"h{seed}", feature_map, value_maps)


def naive_sections(model: Model, u: Subset) -> set[Assignment]:
    """A third, dict-based filter used by a few ops tests; independent of
    both the kernel and oracle_sections."""
    from itertools import product

    out = set()
    for combo in product(*(model.fibers[f].values for f in u.names)):
        a = Assignment(u, combo)
        ok = True
        for t in model.tables:
            if not t.scope.issubset(u):
                continue
            row = tuple(a.value_of(f) for f in t.scope.names)
            if not t.admits(row):
                ok = False
                break
        if ok:
            out.add(a)
    return out
