"""Test-side oracles and generators, deliberately independent of the
production code paths they check."""

from __future__ import annotations

import random
from itertools import combinations
from typing import NamedTuple

from presh.lattice import Subset
from presh.model import Model, random_model
from presh.ops import FeatureIdentification
from presh.presheaf import (
    Assignment,
    AssignmentPresheaf,
    Fiber,
    global_sections,
    restrict_assignment,
)


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
    sections = {
        u: {Assignment(u, row) for row in p.rows.get(u, ())}
        for u in p.family.objects_sorted
    }
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


# Reference ops: the Assignment-set versions of presh.ops' diffs, kept to
# check the row-native ones against, order included.


class ReferenceDiff(NamedTuple):
    only_in_left: tuple[Assignment, ...]
    only_in_right: tuple[Assignment, ...]
    common: tuple[Assignment, ...]


def _reference_key(a: Assignment) -> tuple:
    return (a.domain.key(), a.values)


def _reference_object_diff(left: set, right: set) -> ReferenceDiff:
    return ReferenceDiff(
        tuple(sorted(left - right, key=_reference_key)),
        tuple(sorted(right - left, key=_reference_key)),
        tuple(sorted(left & right, key=_reference_key)),
    )


def reference_diff_presheaves(
    p_left: AssignmentPresheaf, p_right: AssignmentPresheaf
) -> dict[Subset, ReferenceDiff]:
    per_object = {}
    for u in p_left.family.objects_sorted:
        if u not in p_right.family:
            continue
        per_object[u] = _reference_object_diff(
            set(p_left.sections_at(u)), set(p_right.sections_at(u))
        )
    return per_object


def reference_overlap_union_report(
    p_merged: AssignmentPresheaf,
    p_left: AssignmentPresheaf,
    p_right: AssignmentPresheaf,
) -> dict[Subset, ReferenceDiff]:
    overlap = p_left.family.universe.intersection(p_right.family.universe)
    per_object = {}
    for u in p_merged.family.objects_sorted:
        if not u.issubset(overlap):
            continue
        literal = set(p_left.sections_at(u)) | set(p_right.sections_at(u))
        per_object[u] = _reference_object_diff(literal, set(p_merged.sections_at(u)))
    return per_object


def reference_emergent_sections(
    p_merged: AssignmentPresheaf,
    p_left: AssignmentPresheaf,
    p_right: AssignmentPresheaf,
) -> tuple[Assignment, ...]:
    source_tops = []
    for p in (p_left, p_right):
        top = p.family.universe
        source_tops.append((top, frozenset(p.sections_at(top))))
    return tuple(
        s
        for s in global_sections(p_merged)
        if any(restrict_assignment(s, top) not in secs for top, secs in source_tops)
    )
