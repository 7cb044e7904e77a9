"""Change operators on models: conditioning, amalgamation, analogy transfer.

Conditioning on an assignment fixes its features and drops them: what is
left is a model over the other features whose sections are the
assignment's extensions, with its own values taken out.

Amalgamation merges two models over their shared feature names.  Shared
fibers become the union of the two value ranges, and every source table is
imported *guarded*: it only constrains assignments whose values on its scope
all lie inside that source's original fibers.  An assignment that uses a
value the other source contributed escapes the guard, which is exactly how
merging can unlock combinations neither source admitted on its own while
never contradicting a source inside its own value range.

Transfer pulls a model back along a feature identification (an injective
feature map plus per-feature value maps): target tables are the preimages of
source tables, so compiling the transferred model agrees objectwise with
pulling the compiled source presheaf back along the identification.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import product

from .errors import MalformedInputError
from .lattice import Subset, _shortlex, check_name
from .model import ALLOW, FORBID, ConstraintTable, Model, require_scope_bound
from .presheaf import (
    Assignment,
    AssignmentPresheaf,
    Fiber,
    _projection,
    decode,
    row_projection,
)
from .report import Frozen, LawReport, Violation


class FeatureIdentification(Frozen):
    """An analogy map: target features onto source features, values alongside.

    ``feature_map`` sends each target feature to a distinct source feature;
    ``value_maps[t]`` sends every value of the target fiber of ``t`` to a
    value of the mapped source fiber.  Declaration order of the maps is the
    canonical fiber order of the transferred model.
    """

    name: str
    feature_map: Mapping[str, str]
    value_maps: Mapping[str, Mapping[str, str]]

    def __init__(
        self,
        name: str,
        feature_map: Mapping[str, str],
        value_maps: Mapping[str, Mapping[str, str]],
    ):
        check_name(name, "identification")
        seen_sources: set[str] = set()
        for tgt, src in feature_map.items():
            check_name(tgt, "feature")
            check_name(src, "feature")
            if src in seen_sources:
                raise MalformedInputError(
                    f"identification {name!r} maps two features onto {src!r}"
                )
            seen_sources.add(src)
        if set(value_maps) != set(feature_map):
            raise MalformedInputError(
                f"identification {name!r} needs one value map per mapped feature"
            )
        for tgt, vmap in value_maps.items():
            if not isinstance(vmap, Mapping):
                kind = type(vmap).__name__
                raise MalformedInputError(
                    f"identification {name!r} maps {tgt!r} by a {kind}, not a value map"
                )
            if not vmap:
                raise MalformedInputError(
                    f"identification {name!r} has an empty value map for {tgt!r}"
                )
            for tv, sv in vmap.items():
                check_name(tv, "value")
                check_name(sv, "value")
        super().__init__(name, feature_map, value_maps)

    @classmethod
    def _trusted(
        cls, name: str, feature_map: dict[str, str], value_maps: dict[str, dict[str, str]]
    ) -> "FeatureIdentification":
        """The identification of checked parts: valid names throughout, a
        ``feature_map`` onto distinct source features, and one non-empty
        value map per mapped feature; skips ``__init__``'s checks."""
        ident = object.__new__(cls)
        Frozen.__init__(ident, name, feature_map, value_maps)
        return ident

    def target_fibers(self) -> dict[str, Fiber]:
        return {t: Fiber(t, tuple(vmap)) for t, vmap in self.value_maps.items()}


class SharedFiber(Frozen):
    """Merge provenance for one shared feature."""

    feature: str
    left_values: tuple[str, ...]
    right_values: tuple[str, ...]
    added_from_right: tuple[str, ...]
    reordered: bool


class GuardedTable(Frozen):
    """Merge provenance for one imported table."""

    source: str  # "left" | "right"
    original: ConstraintTable
    imported: ConstraintTable
    guarded: bool


class MergedModel(Frozen):
    result: Model
    shared: tuple[SharedFiber, ...]
    tables: tuple[GuardedTable, ...]


class ObjectDiff(Frozen):
    only_in_left: tuple[Assignment, ...]
    only_in_right: tuple[Assignment, ...]

    @property
    def clean(self) -> bool:
        return not self.only_in_left and not self.only_in_right


class DiffReport(Frozen):
    per_object: Mapping[Subset, ObjectDiff]

    @property
    def is_empty(self) -> bool:
        return all(d.clean for d in self.per_object.values())

    def dirty_objects(self) -> tuple[Subset, ...]:
        """The objects whose sections differ, in ``per_object`` order (shortlex
        for the reports :func:`diff_presheaves` and
        :func:`overlap_union_report` build)."""
        return tuple(u for u, d in self.per_object.items() if not d.clean)


# ---------------------------------------------------------------------------
# conditioning


def condition(model: Model, a: Assignment) -> Model:
    """The model conditioned on ``a``: over the features outside
    ``D = a.domain``, each table keeps the rows that agree with ``a`` on the
    features of ``D`` in its scope, projected onto the rest of its scope.

    A table disjoint from ``D`` stays as it is, and one inside ``D`` is
    dropped: checking that ``a`` is a local section at ``D`` decides it.
    So when ``a`` is a local section, the rows of the compiled result at each
    object ``z`` are ``a``'s extensions to ``D ∪ z`` with ``a``'s values taken
    out, in the same canonical order.  The result keeps the name and drops
    the labels (they may name the features conditioned away).  The empty
    assignment gives a model of equal fibers and tables.
    """
    value = a.as_dict()
    for f, v in value.items():
        fib = model.fibers.get(f)
        if fib is None:
            raise MalformedInputError(f"unknown feature {f!r}")
        if v not in fib:
            raise MalformedInputError(f"{v!r} is not a value of {f!r}")
    # every part below comes from the checked model, so the result is built
    # with the trusted constructors
    fibers = {f: fib for f, fib in model.fibers.items() if f not in value}
    tables = []
    for table in model.tables:
        names = table.scope.names
        inside = tuple(i for i, f in enumerate(names) if f in value)
        if not inside:
            tables.append(table)
            continue
        outside = tuple(i for i, f in enumerate(names) if f not in value)
        if not outside:
            continue
        want = tuple(value[names[i]] for i in inside)
        agrees, keep = _projection(inside), _projection(outside)
        rows = [keep(row) for row in table.tuples if agrees(row) == want]
        rest = Subset._trusted(keep(names))
        tables.append(ConstraintTable._trusted(rest, table.polarity, rows))
    return Model._trusted(model.name, fibers, tables, {})


# ---------------------------------------------------------------------------
# amalgamation


def _scope_product(scope: Subset, fibers: Mapping[str, Fiber], what: str):
    require_scope_bound(scope, fibers, what)
    return product(*(fibers[f].values for f in scope.names))


def _import_guarded(
    table: ConstraintTable,
    source_fibers: Mapping[str, Fiber],
    merged_fibers: Mapping[str, Fiber],
) -> tuple[ConstraintTable, bool]:
    guarded = any(
        set(merged_fibers[f].values) - set(source_fibers[f].values)
        for f in table.scope.names
    )
    if table.polarity == FORBID:
        # forbidden rows only name source-fiber values, so an assignment that
        # escapes the source fibers can never match one: verbatim import is
        # already the guarded semantics.
        return table, guarded
    if not guarded:
        return table, False
    rows = []
    inside = [set(source_fibers[f].values) for f in table.scope.names]
    for combo in _scope_product(table.scope, merged_fibers, "guarded import"):
        escapes = any(v not in inside[i] for i, v in enumerate(combo))
        if escapes or combo in table.tuples:
            rows.append(combo)
    return ConstraintTable(table.scope, ALLOW, rows), True


def amalgamate(left: Model, right: Model, *, name: str | None = None) -> MergedModel:
    """Merge two models over their shared feature names.

    Shared fibers take the left declaration order followed by the right
    model's new values; every table is imported guarded (see module notes).
    Compiling ``result`` yields the merged presheaf.
    """
    merged_fibers: list[Fiber] = []
    shared: list[SharedFiber] = []
    right_only = [f for f in right.fibers.values() if f.feature not in left.fibers]
    for fib in left.fibers.values():
        other = right.fibers.get(fib.feature)
        if other is None:
            merged_fibers.append(fib)
            continue
        added = tuple(v for v in other.values if v not in fib.index)
        common_left = [v for v in fib.values if v in other.index]
        common_right = [v for v in other.values if v in fib.index]
        shared.append(
            SharedFiber(
                fib.feature,
                fib.values,
                other.values,
                added,
                reordered=common_left != common_right,
            )
        )
        merged_fibers.append(Fiber(fib.feature, fib.values + added))
    merged_fibers.extend(right_only)
    fiber_map = {f.feature: f for f in merged_fibers}

    imported: list[GuardedTable] = []
    tables: list[ConstraintTable] = []
    for source, source_model in (("left", left), ("right", right)):
        for table in source_model.tables:
            new_table, guarded = _import_guarded(table, source_model.fibers, fiber_map)
            imported.append(GuardedTable(source, table, new_table, guarded))
            tables.append(new_table)

    labels = dict(right.labels)
    labels.update(left.labels)
    result = Model(name or f"{left.name}_{right.name}", merged_fibers, tables, labels)
    return MergedModel(result, tuple(shared), tuple(imported))


def _require_merged(features: Subset, p_merged: AssignmentPresheaf, what: str) -> None:
    top = p_merged.family.universe
    if not features.issubset(top):
        raise MalformedInputError(
            f"{what} {features} are not all among the merged features {top}"
        )


def overlap_union_report(
    p_merged: AssignmentPresheaf,
    p_left: AssignmentPresheaf,
    p_right: AssignmentPresheaf,
) -> DiffReport:
    """Compare the literal section union with the amalgam on the overlap.

    For every object inside the shared feature set, in shortlex order, the
    union of the two compiled sources' section sets is matched against the
    compiled amalgam; entries only on the right are cross-combinations the
    merge admits even though neither source listed them.
    """
    overlap = p_left.family.universe.intersection(p_right.family.universe)
    _require_merged(overlap, p_merged, "the sources' shared features")
    per_object: dict[Subset, ObjectDiff] = {}
    for u in _shortlex(overlap.names):
        literal = set(p_left.rows[u]).union(p_right.rows[u])
        per_object[u] = _object_diff(u, literal, set(p_merged.rows[u]))
    return DiffReport(per_object)


def _object_diff(u: Subset, left: set, right: set) -> ObjectDiff:
    """The rows at ``u`` on one side only, decoded in value-token order."""
    return ObjectDiff(decode(u, sorted(left - right)), decode(u, sorted(right - left)))


def diff_presheaves(
    p_left: AssignmentPresheaf, p_right: AssignmentPresheaf
) -> DiffReport:
    """Objectwise section diff over the objects the two families share, in
    shortlex order: every subset of the features both have."""
    shared = p_left.family.universe.intersection(p_right.family.universe)
    per_object: dict[Subset, ObjectDiff] = {}
    for u in _shortlex(shared.names):
        left, right = p_left.rows[u], p_right.rows[u]
        # equal row tuples hold equal sets: skip building them
        per_object[u] = (
            ObjectDiff((), ())
            if left == right
            else _object_diff(u, set(left), set(right))
        )
    return DiffReport(per_object)


def emergent_sections(
    p_merged: AssignmentPresheaf,
    p_left: AssignmentPresheaf,
    p_right: AssignmentPresheaf,
) -> tuple[Assignment, ...]:
    """Global sections of the compiled merge that are new with respect to a
    compiled source.

    A merged global section is emergent when its restriction to at least one
    source's feature set is not among that source's compiled sections there.
    Merging a model with itself therefore yields nothing.  Each source
    projects the merged rows with one ``map`` and tests the projections
    against its section set with another, so no generator frame runs per
    merged row; the emergent rows keep the merged presheaf's order.
    """
    for p in (p_left, p_right):
        _require_merged(p.family.universe, p_merged, "source features")
    top = p_merged.family.universe
    merged = p_merged.rows[top]
    left_hits, right_hits = [
        map(
            frozenset(p.rows[p.family.universe]).__contains__,
            map(row_projection(top, p.family.universe), merged),
        )
        for p in (p_left, p_right)
    ]
    emergent = [
        row
        for row, in_l, in_r in zip(merged, left_hits, right_hits)
        if not (in_l and in_r)
    ]
    return decode(top, emergent)


# ---------------------------------------------------------------------------
# analogy transfer


def _validate_identification(h: FeatureIdentification, source: Model) -> None:
    for tgt, src in h.feature_map.items():
        fib = source.fibers.get(src)
        if fib is None:
            raise MalformedInputError(
                f"identification {h.name!r} maps {tgt!r} to unknown feature {src!r}"
            )
        for tv, sv in h.value_maps[tgt].items():
            if sv not in fib:
                raise MalformedInputError(
                    f"identification {h.name!r}: {tgt}.{tv} maps to {sv!r}, "
                    f"not a value of {src!r}"
                )


def transfer(
    h: FeatureIdentification, source: Model, *, name: str | None = None
) -> tuple[Model, tuple[Subset, ...]]:
    """Pull a model back along an identification.

    The result has the identification's target fibers; each source table
    whose scope is fully covered by the identification becomes its preimage
    (a row is admitted exactly when its value-mapped image is), and scopes
    touching unmapped source features are skipped and reported, once each,
    in shortlex order (the order ``Model`` keeps its tables in).
    """
    _validate_identification(h, source)
    fibers = h.target_fibers()
    preimage = {src: tgt for tgt, src in h.feature_map.items()}
    tables: list[ConstraintTable] = []
    skipped: list[Subset] = []
    for table in source.tables:
        if any(f not in preimage for f in table.scope):
            skipped.append(table.scope)
            continue
        tgt_scope = Subset(preimage[f] for f in table.scope)
        src_positions = {f: i for i, f in enumerate(table.scope.names)}
        rows = []
        for combo in _scope_product(tgt_scope, fibers, "transferred table"):
            image = [None] * len(table.scope)
            for t, tv in zip(tgt_scope.names, combo):
                image[src_positions[h.feature_map[t]]] = h.value_maps[t][tv]
            if tuple(image) in table.tuples:
                rows.append(combo)
        tables.append(ConstraintTable(tgt_scope, table.polarity, rows))
    out = Model(name or f"{h.name}_{source.name}", list(fibers.values()), tables)
    return out, tuple(dict.fromkeys(skipped))


def analogy_check(
    p_transfer: AssignmentPresheaf, p_target: AssignmentPresheaf
) -> LawReport:
    """Does a compiled transfer reproduce the compiled target exactly?

    ``p_transfer`` is the compiled ``transfer(h, source)``.  The two
    presheaves are compared objectwise; any mismatch is listed with its
    witness assignment, and a failed report means the claimed analogy
    square does not commute.

    When ``p_transfer`` is ``p_target`` itself the report passes without
    reading a row, since a presheaf agrees with itself at every object.
    The CLI compiles each model content (fibers and tables) once, so a
    transfer with exactly the target's content gets back the target's own
    presheaf; diffing it would build every object only to compare each row
    tuple with itself.  Two distinct presheaves are always compared
    objectwise, even when their sections agree.
    """
    got_features = p_transfer.family.universe
    want_features = p_target.family.universe
    if got_features != want_features:
        return LawReport(
            (
                Violation(
                    "analogy-feature-set",
                    f"transferred features {got_features} vs target {want_features}",
                    (got_features, want_features),
                ),
            )
        )
    violations: list[Violation] = []
    for f, fib in p_transfer.fibers.items():
        want = p_target.fibers[f].values
        if set(fib.values) != set(want):
            violations.append(
                Violation(
                    "analogy-fibers",
                    f"fiber of {f!r} differs: {fib.values} vs {want}",
                    (f,),
                )
            )
    if p_transfer is p_target:
        return LawReport(tuple(violations))
    diff = diff_presheaves(p_transfer, p_target)
    for u in diff.dirty_objects():
        d = diff.per_object[u]
        for a in d.only_in_right:
            violations.append(
                Violation("analogy-sections", f"{a} at {u} only in the target", (u, a))
            )
        for a in d.only_in_left:
            violations.append(
                Violation(
                    "analogy-sections", f"{a} at {u} only in the transfer", (u, a)
                )
            )
    return LawReport(tuple(violations))
