"""Test-side oracles and generators, deliberately independent of the
production code paths they check."""

from __future__ import annotations

import random
from itertools import combinations, product
from typing import NamedTuple

from presh import model as model_mod
from presh.errors import EnumerationBoundError, MalformedInputError
from presh.lattice import ADJUNCTION_SWEEP_BOUND, Subset
from presh.model import Model, random_model
from presh.ops import FeatureIdentification
from presh.presheaf import (
    AbstractPresheaf,
    Assignment,
    AssignmentPresheaf,
    Fiber,
    NatTransformation,
    global_sections,
    restrict_assignment,
    row_projection,
)
from presh.report import LawReport, Violation


def record_builds(monkeypatch) -> list:
    """Every object built from here on, as (compiled model, feature names)."""
    built = []
    extend = model_mod._CompiledModel.extend

    def recording_extend(self, prefix_rows, names):
        built.append((self, names))
        return extend(self, prefix_rows, names)

    monkeypatch.setattr(model_mod._CompiledModel, "extend", recording_extend)
    return built


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


def without_cover_lines(text: str) -> str:
    """``text`` minus its ``cover:`` lines, which the parser accepts and
    ignores, so canonical text never holds one."""
    return "".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("cover:")
    )


def full_power_set(universe: Subset) -> frozenset[Subset]:
    out = set()
    for k in range(len(universe) + 1):
        for combo in combinations(universe.names, k):
            out.add(Subset(combo))
    return frozenset(out)


def reference_adjunction_sweep(
    s1: Subset, s2: Subset, *, max_size: int = ADJUNCTION_SWEEP_BOUND
) -> LawReport:
    """The adjoint-triple sweep on ``Subset`` objects and their set
    operations, kept to check the bitmask ``check_adjunction_triple``
    against, witnesses and their order included."""
    if not s1.issubset(s2):
        raise MalformedInputError(f"need {s1} ⊆ {s2}")
    if len(s2) > max_size:
        raise EnumerationBoundError(
            "adjunction sweep refused",
            required=4 ** len(s2),
            bound=4**max_size,
        )
    pad = s2.difference(s1)
    outer = tuple(sorted(full_power_set(s2), key=Subset.key))
    violations: list[Violation] = []
    for u in sorted(full_power_set(s1), key=Subset.key):
        for v in outer:
            if (u.issubset(v)) != (u.issubset(v.intersection(s1))):
                violations.append(
                    Violation(
                        "adjunction-left",
                        f"U ⊆ V disagrees with U ⊆ V∩S1 at U={u}, V={v}",
                        (u, v),
                    )
                )
            if (v.intersection(s1).issubset(u)) != (v.issubset(u.union(pad))):
                violations.append(
                    Violation(
                        "adjunction-right",
                        f"V∩S1 ⊆ U disagrees with V ⊆ U∪(S2∖S1) at U={u}, V={v}",
                        (u, v),
                    )
                )
    return LawReport(tuple(violations))


def reference_validate_assignment(p: AssignmentPresheaf) -> LawReport:
    """Restriction closure and fiber typing checked per row along
    ``family.covers()``, with a projection built and a ``Subset`` hashed per
    cover; kept to check ``validate_laws`` against, witnesses and their
    order included."""
    violations: list[Violation] = []
    fiber_values = {f: set(fib.values) for f, fib in p.fibers.items()}
    tuple_sets: dict[Subset, frozenset[tuple[str, ...]]] = {}
    for u in p.family.objects_sorted:
        stored = p.rows.get(u)
        if stored is None:
            violations.append(Violation("sections-missing", f"no sections at {u}", (u,)))
            tuple_sets[u] = frozenset()
            continue
        rows = frozenset(stored)
        if len(rows) != len(stored):
            violations.append(Violation("duplicate-section", f"repeated assignment at {u}", (u,)))
        ulen = len(u.names)
        ragged = [row for row in rows if len(row) != ulen]
        for row in ragged:
            violations.append(
                Violation("domain-mismatch", f"arity {len(row)} row at {u}", (u, row))
            )
        well = rows if not ragged else [r for r in rows if len(r) == ulen]
        for f, column in zip(u.names, zip(*well)):
            allowed = fiber_values.get(f)
            used = set(column)
            if allowed is None or not used <= allowed:
                for v in sorted(used - (allowed or set())):
                    violations.append(
                        Violation("fiber-typing", f"{f}={v} outside the fiber", (u, v))
                    )
        tuple_sets[u] = rows
    if violations:
        return LawReport(tuple(violations))
    for u, v in p.family.covers():
        if not p.rows[v]:
            continue
        at_u = tuple_sets[u]
        project = row_projection(v, u)
        for row in p.rows[v]:
            projected = project(row)
            if projected not in at_u:
                b, witness = Assignment(v, row), Assignment(u, projected)
                violations.append(
                    Violation(
                        "restriction-closure",
                        f"{b} at {v} projects to {witness}, absent at {u}",
                        (u, v, b),
                    )
                )
    return LawReport(tuple(violations))


def reference_blocking_sets(p: AssignmentPresheaf, a: Assignment) -> tuple[Subset, ...]:
    """Every object of the family filtered for the supersets of ``a``'s
    domain where ``a`` does not extend, cut to the inclusion-minimal ones and
    sorted shortlex; kept to check ``blocking_sets`` against."""
    if a.values not in p.rows[a.domain]:
        raise MalformedInputError(f"{a} is not a local section at {a.domain}")
    blocked = [
        w
        for w in p.family.objects_sorted
        if a.domain.issubset(w)
        and not any(restrict_assignment(b, a.domain) == a for b in p.sections_at(w))
    ]
    minimal = [
        w for w in blocked if not any(o != w and o.issubset(w) for o in blocked)
    ]
    return tuple(sorted(minimal, key=Subset.key))


def reference_validate_abstract(p: AbstractPresheaf) -> LawReport:
    """Totality, identity and functoriality of an abstract presheaf's maps,
    the last over every triple of objects filtered for u ⊆ v ⊆ w; kept to
    check ``validate_laws`` against, witnesses and their order included."""
    violations: list[Violation] = []
    objs = p.family.objects_sorted
    for u in objs:
        if u not in p.elements:
            violations.append(Violation("elements-missing", f"no elements at {u}", (u,)))
    if violations:
        return LawReport(tuple(violations))
    for v in objs:
        for u in objs:
            if not u.issubset(v):
                continue
            m = p.restrictions.get((u, v))
            if m is None:
                violations.append(
                    Violation("missing-map", f"no restriction map for {u} ⊆ {v}", (u, v))
                )
            elif set(m) != set(p.elements[v]):
                violations.append(
                    Violation("map-typing", f"map {u} ⊆ {v} not total on elements", (u, v))
                )
            elif any(img not in p.elements[u] for img in m.values()):
                violations.append(
                    Violation("map-typing", f"map {u} ⊆ {v} leaves elements", (u, v))
                )
            elif u == v and any(m[x] != x for x in p.elements[u]):
                violations.append(
                    Violation(
                        "identity", f"restriction along {u} ⊆ {u} is not identity", (u,)
                    )
                )
    if violations:
        return LawReport(tuple(violations))
    for w in objs:
        for v in objs:
            if not v.issubset(w):
                continue
            for u in objs:
                if not u.issubset(v):
                    continue
                direct = p.restrictions[(u, w)]
                via = p.restrictions[(u, v)]
                first = p.restrictions[(v, w)]
                for x in p.elements[w]:
                    if via[first[x]] != direct[x]:
                        violations.append(
                            Violation(
                                "functoriality",
                                f"restriction of {x!r} along {u} ⊆ {v} ⊆ {w} "
                                "disagrees with the direct map",
                                (u, v, w, x),
                            )
                        )
    return LawReport(tuple(violations))


def reference_nat_transformations(
    f: AbstractPresheaf, g: AbstractPresheaf
) -> tuple[NatTransformation, ...]:
    """Every natural transformation ``f -> g`` by brute force: each choice of
    one map ``f(D) -> g(D)`` per object, kept when every square of every
    pair u ⊆ v (filtered from all pairs of objects) commutes; kept to check
    ``nat_transformations`` against, order included.

    The canonical order compares, object by object from the last in
    shortlex order down, the positions in ``g(D)`` of the images of
    ``f(D)``'s elements taken in order.
    """
    objs = f.family.objects_sorted
    choices = [
        [dict(zip(f.elements[d], images))
         for images in product(g.elements[d], repeat=len(f.elements[d]))]
        for d in objs
    ]
    pairs = [(u, v) for v in objs for u in objs if u.issubset(v)]
    natural = []
    for picked in product(*choices):
        at = dict(zip(objs, picked))
        if all(
            at[u][f.restrictions[(u, v)][x]] == g.restrictions[(u, v)][at[v][x]]
            for u, v in pairs
            for x in f.elements[v]
        ):
            natural.append(at)

    def key(at: dict) -> tuple:
        return tuple(
            tuple(g.elements[d].index(at[d][x]) for x in f.elements[d])
            for d in reversed(objs)
        )

    return tuple(NatTransformation(at) for at in sorted(natural, key=key))


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
    right2 = Model(right.name, renamed, tables)
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
