"""Presheaves over a cover family.

Two carriers are provided.  :class:`AssignmentPresheaf` is the workhorse:
each object of the family gets the set of feature-value assignments that are
jointly admissible there, stored as value tuples (rows) aligned with the
object's sorted feature names, and restriction is projection of rows onto a
smaller feature set.  :class:`Assignment` objects are decoded from rows only
where a caller sees them.  :class:`AbstractPresheaf` keeps elements opaque and
restriction maps explicit; it exists so that the representable presheaves,
natural-transformation enumeration and the Yoneda bijection can be checked
on arbitrary finite presheaves, not only assignment-shaped ones.

The central law is restriction closure: whatever is admissible on a larger
feature set must project to something admissible on every smaller one.
:func:`validate_laws` checks it (or, for the abstract carrier, the identity
and composition laws) and reports every violation with a witness instead of
raising.
"""

from __future__ import annotations

import random
from functools import cached_property
from itertools import combinations, compress, product, repeat
from operator import eq, itemgetter
from typing import Callable, Iterable, Mapping, Union

from .errors import EnumerationBoundError, MalformedInputError
from .lattice import (
    CoverFamily,
    Subset,
    _shortlex,
    _shortlex_masks,
    check_name,
    close_family,
)
from .report import Frozen, LawReport, Violation

#: Refuse natural-transformation enumerations with more raw candidates than
#: this; :func:`nat_transformations` reads it on each call.
NAT_ENUM_BOUND = 10**6

#: Element id used by representable presheaves (poset Hom-sets are at most one arrow).
HOM_TOKEN = "*"


class Fiber(Frozen):
    """The finite, ordered value range of one feature.

    Declaration order is canonical and preserved bit-exactly; it drives
    enumeration order and serialization.  ``values`` may be any iterable; it
    is kept as a tuple, and ``index`` maps each value to its position.
    """

    feature: str
    values: tuple[str, ...]

    def __init__(self, feature: str, values: Iterable[str]):
        check_name(feature, "feature")
        values = tuple(values)
        if not values:
            raise MalformedInputError(f"fiber of {feature!r} is empty")
        if len(set(values)) != len(values):
            raise MalformedInputError(f"fiber of {feature!r} repeats a value")
        for v in values:
            check_name(v, "value")
        self._set(feature, values)

    @classmethod
    def _trusted(cls, feature: str, values: tuple[str, ...]) -> "Fiber":
        """The fiber of ``values``, a non-empty tuple of distinct valid names,
        for the valid name ``feature``; skips ``__init__``'s checks."""
        fiber = object.__new__(cls)
        fiber._set(feature, values)
        return fiber

    def _set(self, feature: str, values: tuple[str, ...]) -> None:
        # ``index`` (value -> position) is filled at once, not cached on
        # first read: 3.11's ``cached_property`` takes a lock there
        index = {v: i for i, v in enumerate(values)}
        self.__dict__.update({"feature": feature, "values": values, "index": index})

    def __contains__(self, value: object) -> bool:
        return value in self.index


class Assignment(Frozen):
    """A choice of one value per feature of ``domain``.

    ``values`` aligns positionally with ``domain.names`` (which is sorted),
    so equality and hashing are structural.
    """

    __slots__ = ("domain", "values")
    domain: Subset
    values: tuple[str, ...]

    def __init__(self, domain: Subset, values: tuple[str, ...]):
        if len(values) != len(domain.names):
            raise MalformedInputError(
                f"assignment has {len(values)} values for {len(domain.names)} features"
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)

    @classmethod
    def _trusted(
        cls, domain: Subset, rows: tuple[tuple[str, ...], ...]
    ) -> tuple["Assignment", ...]:
        """One assignment at ``domain`` per row of ``rows``, each already of
        ``domain``'s arity; skips ``__init__``'s check.  The instances are
        made, and their two slots filled, in three C-level ``map`` passes."""
        made = tuple(map(object.__new__, repeat(cls, len(rows))))
        any(map(_set_domain, made, repeat(domain)))
        any(map(_set_values, made, rows))
        return made

    @staticmethod
    def from_mapping(binding: Mapping[str, str]) -> "Assignment":
        dom = Subset(binding)
        return Assignment(dom, tuple(binding[f] for f in dom.names))

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.domain.names, self.values))

    def value_of(self, feature: str) -> str:
        try:
            return self.values[self.domain.names.index(feature)]
        except ValueError:
            raise MalformedInputError(f"{feature!r} not in {self.domain}") from None

    def __str__(self) -> str:
        return _token(self.domain.names, self.values)


# The slot setters ``Assignment._trusted`` maps over its new instances.
_set_domain = Assignment.domain.__set__
_set_values = Assignment.values.__set__


def _token(names: tuple[str, ...], row: tuple[str, ...]) -> str:
    if not names:
        return "()"
    return ",".join(f"{f}={v}" for f, v in zip(names, row))


def decode(u: Subset, rows: Iterable[tuple[str, ...]]) -> tuple[Assignment, ...]:
    """The assignments at ``u`` that ``rows`` (value tuples over ``u``) stand
    for, in the order of ``rows``.

    One C-level pass checks every row's arity; the first row of another
    arity raises the ``MalformedInputError`` that ``Assignment(u, row)``
    raises.  The assignments are then made in bulk by
    ``Assignment._trusted``, with no ``__init__`` call per row.
    """
    rows = tuple(rows)
    if not all(map(eq, map(len, rows), repeat(len(u.names)))):
        for row in rows:
            Assignment(u, row)  # raises at the first row of another arity
    return Assignment._trusted(u, rows)


def row_projection(v: Subset, u: Subset) -> Callable[[tuple], tuple]:
    """Restriction of rows at ``v`` to ``u`` (``u ⊆ v``): a map from each
    value tuple over ``v`` to its value tuple over ``u``."""
    return _projection(tuple(v.names.index(f) for f in u.names))


def _projection(positions: tuple[int, ...]) -> Callable[[tuple], tuple]:
    """The map from a row to its values at ``positions``, as a tuple."""
    if len(positions) == 1:
        (single,) = positions
        return lambda row: (row[single],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


def restrict_assignment(a: Assignment, u: Subset) -> Assignment:
    """Project an assignment onto a smaller domain (restriction along u ⊆ domain)."""
    if not u.issubset(a.domain):
        raise MalformedInputError(f"{u} is not contained in {a.domain}")
    lookup = a.as_dict()
    return Assignment(u, tuple(lookup[f] for f in u.names))


def row_sort_key(
    fibers: Mapping[str, Fiber], names: tuple[str, ...]
) -> Callable[[tuple[str, ...]], tuple]:
    """Canonical order of rows over ``names``: lexicographic in fiber value
    indices.

    Values missing from their fiber (possible on hand-built data) sort after
    declared ones, by token.
    """
    fibs = [fibers.get(f) for f in names]

    def key(row: tuple[str, ...]) -> tuple:
        ranks = []
        for fib, v in zip(fibs, row):
            if fib is not None and v in fib.index:
                ranks.append((fib.index[v], ""))
            else:
                ranks.append((len(fib.values) if fib else 0, v))
        return tuple(ranks)

    return key


class AssignmentPresheaf(Frozen):
    """Admissible feature-value combinations, one finite set per family object.

    ``rows[u]`` holds the sections at ``u`` as value tuples aligned with
    ``u.names``, in canonical (:func:`row_sort_key`) order.  ``rows`` may be
    any mapping; the one :func:`presh.model.compile_model` returns builds
    each object on first read.

    The pinned queries (:func:`extensions`, :func:`blocking_sets`) memoise
    row groups in :attr:`_row_groups`: under the key ``(v.names, position,
    value)``, the rows at ``v`` with ``value`` at ``position``, in stored
    order.  An object gets at most one group per value at each position
    (Σ|fiber| on a compiled presheaf), and the groups of one position share
    no row, so the memo holds at most positions × rows references per
    object.  ``rows`` must not change after the first pinned read.
    """

    family: CoverFamily
    fibers: Mapping[str, Fiber]
    rows: Mapping[Subset, tuple[tuple[str, ...], ...]]

    @cached_property
    def _row_groups(self) -> dict[tuple, tuple[tuple[str, ...], ...]]:
        """The row groups :func:`_extending_rows` has picked, one per key."""
        return {}

    def sections_at(self, u: Subset) -> tuple[Assignment, ...]:
        self.family.require(u)
        return decode(u, self.rows[u])

    def as_abstract(self) -> "AbstractPresheaf":
        """Forget the assignment structure: elements become opaque tokens and
        restrictions become the projection maps."""
        elements = {
            u: tuple(_token(u.names, row) for row in rows)
            for u, rows in self.rows.items()
        }
        restrictions: dict[tuple[Subset, Subset], dict[str, str]] = {}
        for u, v in self.family.inclusions():
            project = row_projection(v, u)
            restrictions[(u, v)] = {
                _token(v.names, row): _token(u.names, project(row))
                for row in self.rows[v]
            }
        return AbstractPresheaf(self.family, elements, restrictions)


class AbstractPresheaf(Frozen):
    """A finite presheaf with opaque elements and explicit restriction maps.

    ``restrictions`` is keyed by the inclusion pair ``(smaller, larger)`` and
    maps elements of the larger object to elements of the smaller one.  The
    raw constructor does not validate; run :func:`validate_laws`.
    """

    family: CoverFamily
    elements: Mapping[Subset, tuple[str, ...]]
    restrictions: Mapping[tuple[Subset, Subset], Mapping[str, str]]

    def restrict(self, x: str, v: Subset, u: Subset) -> str:
        return self.restrictions[(u, v)][x]


class NatTransformation(Frozen):
    """An objectwise family of maps commuting with restrictions."""

    components: Mapping[Subset, Mapping[str, str]]

    def at(self, u: Subset) -> Mapping[str, str]:
        return self.components[u]


Presheaf = Union[AssignmentPresheaf, AbstractPresheaf]


# ---------------------------------------------------------------------------
# law validation


def _validate_assignment(p: AssignmentPresheaf) -> LawReport:
    """Fiber typing and restriction closure in one shortlex pass.

    Typing (sections present, no duplicates, arities, fiber values) is
    judged at every object.  Closure is judged along the cover pairs of the
    family poset, which implies closure along every inclusion (projections
    compose), so checking covers is a complete violation detector and
    pinpoints the minimal broken step.  Every object's covers lie below it
    and so come earlier in shortlex, where their rows are already at hand.
    Closure is only judged while no typing violation has been seen: a
    presheaf with typing violations is reported by those alone.

    Each object's rows are transposed into columns once, and that one
    transpose feeds all three tests: a ragged transpose flags the arities,
    a cover's projected rows are zipped back from the columns it keeps, so
    no row is projected one by one unless the cover fails, and the fiber
    values are read from the columns.

    The fiber values of an object ``u`` with two or more features are not
    read when no typing violation has been seen and closure holds at every
    cover of ``u``: each value in column ``f`` of ``u`` then appears in
    column ``f`` at ``u`` minus some other feature, where typing has already
    passed.  The columns are read at objects of zero or one feature, once
    any typing violation exists, and wherever a cover fails, so a typing
    violation is found, and wins the report, exactly where it would be if
    every object were read.
    """
    typing: list[Violation] = []
    closure: list[Violation] = []
    fiber_values = {f: set(fib.values) for f, fib in p.fibers.items()}
    tuple_sets: dict[tuple[str, ...], frozenset[tuple[str, ...]]] = {}
    # ``drops[k]`` drops each position of a k-feature row, last position
    # first (``CoverFamily.covers`` order); the same map takes an object's
    # names, or its columns, to the cover's.
    drops = [
        [_projection(tuple(j for j in range(k) if j != i)) for i in range(k - 1, -1, -1)]
        for k in range(len(p.family.universe.names) + 1)
    ]
    rows_at = p.rows.get
    for u in p.family.objects_sorted:
        stored = rows_at(u)
        names = u.names
        if stored is None:
            typing.append(Violation("sections-missing", f"no sections at {u}", (u,)))
            tuple_sets[names] = frozenset()
            continue
        rows = frozenset(stored)
        if len(rows) != len(stored):
            typing.append(Violation("duplicate-section", f"repeated assignment at {u}", (u,)))
        k = len(names)
        try:
            columns = tuple(zip(*stored, strict=True))
        except ValueError:
            ragged = True
        else:
            ragged = bool(stored) and len(columns) != k
        if ragged:
            for row in rows:
                if len(row) != k:
                    message = f"arity {len(row)} row at {u}"
                    typing.append(Violation("domain-mismatch", message, (u, row)))
            columns = tuple(zip(*(r for r in rows if len(r) == k)))
        tuple_sets[names] = rows
        vouched = False
        if stored and not typing:
            vouched = k >= 2
            for project in drops[k]:
                below_names = project(names)
                at_below = tuple_sets[below_names]
                # Zipping no columns gives no rows: a one-feature object's
                # rows all project to the empty row.
                below_rows = zip(*project(columns)) if below_names else ((),)
                if at_below.issuperset(below_rows):
                    continue
                vouched = False
                below = Subset._trusted(below_names)
                for row in stored:
                    projected = project(row)
                    if projected not in at_below:
                        b, witness = Assignment(u, row), Assignment(below, projected)
                        closure.append(
                            Violation(
                                "restriction-closure",
                                f"{b} at {u} projects to {witness}, absent at {below}",
                                (below, u, b),
                            )
                        )
        if vouched:
            continue
        for f, column in zip(names, columns):
            allowed = fiber_values.get(f)
            used = set(column)
            if allowed is None or not used <= allowed:
                for v in sorted(used - (allowed or set())):
                    typing.append(
                        Violation("fiber-typing", f"{f}={v} outside the fiber", (u, v))
                    )
    return LawReport(tuple(typing or closure))


def _validate_abstract(p: AbstractPresheaf) -> LawReport:
    violations: list[Violation] = []
    for u in p.family.objects_sorted:
        if u not in p.elements:
            violations.append(Violation("elements-missing", f"no elements at {u}", (u,)))
    if violations:
        return LawReport(tuple(violations))
    for u, v in p.family.inclusions():
        m = p.restrictions.get((u, v))
        if m is None:
            violations.append(
                Violation("missing-map", f"no restriction map for {u} ⊆ {v}", (u, v))
            )
            continue
        if set(m.keys()) != set(p.elements[v]):
            violations.append(
                Violation("map-typing", f"map {u} ⊆ {v} not total on elements", (u, v))
            )
            continue
        if any(img not in p.elements[u] for img in m.values()):
            violations.append(
                Violation("map-typing", f"map {u} ⊆ {v} leaves elements", (u, v))
            )
            continue
        if u == v and any(m[x] != x for x in p.elements[u]):
            violations.append(
                Violation("identity", f"restriction along {u} ⊆ {u} is not identity", (u,))
            )
    if violations:
        return LawReport(tuple(violations))
    # every chain u ⊆ v ⊆ w: w in shortlex, then v and u over its subsets
    for v, w in p.family.inclusions():
        first = p.restrictions[(v, w)]
        for u in _shortlex(v.names):
            direct = p.restrictions[(u, w)]
            via = p.restrictions[(u, v)]
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


def validate_laws(p: Presheaf) -> LawReport:
    """Check the presheaf laws, listing every violation with a witness.

    Assignment presheaves are checked for restriction closure (plus fiber
    typing); abstract ones for totality, identity and functoriality of their
    restriction maps.
    """
    if isinstance(p, AssignmentPresheaf):
        return _validate_assignment(p)
    if isinstance(p, AbstractPresheaf):
        return _validate_abstract(p)
    raise MalformedInputError(f"not a presheaf: {type(p).__name__}")


# ---------------------------------------------------------------------------
# sections


def closure_complete(
    p: AssignmentPresheaf,
) -> tuple[AssignmentPresheaf, dict[Subset, tuple[tuple[str, ...], ...]]]:
    """Smallest superset presheaf satisfying restriction closure.

    Adds the projection of every stored row to every smaller object.
    Idempotent and monotone; the second return value lists the rows added,
    per object.
    """
    rows = {u: set(stored) for u, stored in p.rows.items()}
    for u in p.family.objects_sorted:
        rows.setdefault(u, set())
    # Top down along the Hasse covers: every superset of v comes later in
    # shortlex, so its rows have reached v before v's own are projected.
    for u, v in reversed(tuple(p.family.covers())):
        rows[u].update(map(row_projection(v, u), rows[v]))
    additions = {}
    closed = {}
    for u in p.family.objects_sorted:
        key = row_sort_key(p.fibers, u.names)
        closed[u] = tuple(sorted(rows[u], key=key))
        added = tuple(sorted(rows[u].difference(p.rows.get(u, ())), key=key))
        if added:
            additions[u] = added
    return AssignmentPresheaf(p.family, dict(p.fibers), closed), additions


def global_sections(p: AssignmentPresheaf) -> tuple[Assignment, ...]:
    """The sections over the whole universe, canonically ordered."""
    return p.sections_at(p.family.universe)


def _require_local_section(p: AssignmentPresheaf, a: Assignment) -> None:
    p.family.require(a.domain)
    if a.values not in p.rows[a.domain]:
        raise MalformedInputError(f"{a} is not a local section at {a.domain}")


def _short_row(v: Subset) -> MalformedInputError:
    return MalformedInputError(f"a row at {v} has fewer than {len(v.names)} values")


def _extending_rows(
    p: AssignmentPresheaf, a: Assignment, v: Subset
) -> tuple[tuple[str, ...], ...]:
    """The rows at ``v`` (``a``'s domain ⊆ ``v``) that restrict to ``a``, in
    stored order.

    The rows at ``v`` with ``a``'s value at its largest pinned position come
    from ``p._row_groups``, keyed by ``(v.names, position, value)``.  On a
    miss one C-level pass over every row at ``v`` picks them and the group
    is stored; a row too short for that position, and so for any pinned
    feature, raises there, naming ``v``, and nothing is stored.  Each other
    pinned feature then narrows the group with one pass, the last feature
    first.  The empty section gets the stored rows back unscanned.
    """
    pins, values = a.domain.names, a.values
    if not pins:
        return p.rows[v]
    at = v.names.index
    last = at(pins[-1])
    key = (v.names, last, values[-1])
    groups = p._row_groups
    rows = groups.get(key)
    try:
        if rows is None:
            rows = p.rows[v]
            rows = groups[key] = tuple(
                compress(rows, map(eq, map(itemgetter(last), rows), repeat(values[-1])))
            )
        for f, x in zip(reversed(pins[:-1]), reversed(values[:-1])):
            rows = tuple(compress(rows, map(eq, map(itemgetter(at(f)), rows), repeat(x))))
    except IndexError:
        raise _short_row(v) from None
    return rows


def extensions(
    p: AssignmentPresheaf, a: Assignment, v: Subset
) -> tuple[Assignment, ...]:
    """All sections at ``v`` restricting to ``a``, in the order ``p`` stores
    them; empty means ``a`` does not extend.

    The rows are picked by :func:`_extending_rows`: the rows holding
    ``a``'s value at its largest pinned position come from ``p``'s memo of
    row groups (one C-level pass over the rows at ``v`` on a miss), each
    other pinned feature narrows them with one pass, and only those left are
    decoded.  The empty section takes the stored rows unscanned.  A row at
    ``v`` too short for a pinned feature, or of another arity than ``v``
    among those picked, raises ``MalformedInputError``, on every repeat.
    """
    _require_local_section(p, a)
    p.family.require(v)
    if not a.domain.issubset(v):
        raise MalformedInputError(f"{a.domain} is not contained in {v}")
    return decode(v, _extending_rows(p, a, v))


def blocking_sets(p: AssignmentPresheaf, a: Assignment) -> tuple[Subset, ...]:
    """Inclusion-minimal objects above ``a``'s domain on which ``a`` has no
    extension, in shortlex order.

    Empty result means the section extends to every superset object; each
    returned object names a scope whose constraints rule the section out.
    The supersets are walked once, by size (``CoverFamily.supersets``), and
    one that contains a scope already found blocking (tested against one
    frozenset of its names) is skipped without reading its rows.  Every
    object below a superset comes before it, so what is left blocked is
    minimal, whether or not ``p`` is closed.  Each object read is narrowed
    as in ``extensions``, so a row too short for a pinned feature raises
    ``MalformedInputError`` here as it does there.  A compiled presheaf is
    closed, and :meth:`presh.model._ObjectRows.blocking` finds the empty
    section's scopes there from fewer objects.
    """
    _require_local_section(p, a)
    blocked: list[Subset] = []
    scopes: list[tuple[str, ...]] = []
    for w in p.family.supersets(a.domain):
        if scopes and any(map(frozenset(w.names).issuperset, scopes)):
            continue
        if not _extending_rows(p, a, w):
            blocked.append(w)
            scopes.append(w.names)
    return tuple(blocked)


# ---------------------------------------------------------------------------
# representables, natural transformations, the Yoneda bijection


def representable(family: CoverFamily, c: Subset) -> AbstractPresheaf:
    """The presheaf of arrows into ``c``: one element at D exactly when D ⊆ c."""
    family.require(c)
    inside = frozenset(c.names).issuperset
    elements: dict[Subset, tuple[str, ...]] = {}
    restrictions: dict[tuple[Subset, Subset], dict[str, str]] = {}
    # The walk of ``family.inclusions()``, deciding V ⊆ c once per V; the
    # maps are keyed by the family's own objects, so no ``Subset`` is built.
    objects = {u.names: u for u in family.objects_sorted}
    for v in family.objects_sorted:
        hom = inside(v.names)
        elements[v] = (HOM_TOKEN,) if hom else ()
        for k in range(len(v.names) + 1):
            for names in combinations(v.names, k):
                restrictions[(objects[names], v)] = {HOM_TOKEN: HOM_TOKEN} if hom else {}
    return AbstractPresheaf(family, elements, restrictions)


def _same_family(f: AbstractPresheaf, g: AbstractPresheaf) -> None:
    if f.family != g.family:
        raise MalformedInputError("presheaves live over different families")


def nat_transformations(
    fsrc: AbstractPresheaf, gtgt: AbstractPresheaf
) -> tuple[NatTransformation, ...]:
    """Enumerate every natural transformation ``fsrc -> gtgt``.

    Complete and deterministic: objects are processed from the largest down
    so restriction constraints prune the component search early, and every
    square is checked, the identity square at each object included; output
    order is the canonical enumeration order.  Refuses (rather than
    sampling) when the raw candidate count exceeds ``NAT_ENUM_BOUND``.
    """
    _same_family(fsrc, gtgt)
    objects = fsrc.family.objects_sorted
    # masks[j] has bit i for the i-th universe name in objects[j].
    masks = _shortlex_masks(tuple(1 << i for i in range(len(fsrc.family.universe))))
    src = [fsrc.elements[d] for d in objects]
    needed = [j for j, elements in enumerate(src) if elements]
    tgt = {j: gtgt.elements[objects[j]] for j in needed}
    if any(not tgt[j] for j in needed):
        return ()
    raw = 1
    for j in needed:
        raw *= len(tgt[j]) ** len(src[j])
    if raw > NAT_ENUM_BOUND:
        raise EnumerationBoundError(
            "natural-transformation search refused", required=raw, bound=NAT_ENUM_BOUND
        )

    order = needed[::-1]
    results: list[NatTransformation] = []
    chosen: dict[int, dict[str, str]] = {}
    # The identity square at each object: a component must commute with the
    # restriction maps along D ⊆ D, which a lawful presheaf makes identities
    # but a hand-built one need not.
    loops = {}
    for j in needed:
        loop = (objects[j], objects[j])
        loops[j] = (fsrc.restrictions[loop], gtgt.restrictions[loop])

    def commutes(j: int, comp: dict[str, str]) -> bool:
        f_dd, g_dd = loops[j]
        for x, y in comp.items():
            if comp[f_dd[x]] != g_dd[y]:
                return False
        # Every chosen object comes after ``objects[j]`` in shortlex order, so
        # none is a proper subset of it: only restrictions from supersets apply.
        d, d_mask = objects[j], masks[j]
        for k, emap in chosen.items():
            if d_mask & ~masks[k]:
                continue
            square = (d, objects[k])
            f_de, g_de = fsrc.restrictions[square], gtgt.restrictions[square]
            for x, y in emap.items():
                if comp[f_de[x]] != g_de[y]:
                    return False
        return True

    def search(i: int) -> None:
        if i == len(order):
            components = {d: dict(chosen.get(j, {})) for j, d in enumerate(objects)}
            results.append(NatTransformation(components))
            return
        j = order[i]
        for images in product(tgt[j], repeat=len(src[j])):
            comp = dict(zip(src[j], images))
            if commutes(j, comp):
                chosen[j] = comp
                search(i + 1)
                del chosen[j]

    search(0)
    return tuple(results)


def yoneda_check(f: AbstractPresheaf, d: Subset) -> LawReport:
    """Verify the bijection between transformations out of the representable
    at ``d`` and the elements at ``d``.

    Each transformation is sent to where it takes the identity element; the
    report fails if that evaluation map is not one-to-one and onto.
    """
    f.family.require(d)
    return _yoneda_report(representable(f.family, d), f, d)


def _yoneda_report(rep: AbstractPresheaf, f: AbstractPresheaf, d: Subset) -> LawReport:
    """``yoneda_check(f, d)`` given ``rep``, the representable at ``d``."""
    nats = nat_transformations(rep, f)
    image = [nat.at(d)[HOM_TOKEN] for nat in nats]
    violations: list[Violation] = []
    seen: dict[str, int] = {}
    for i, x in enumerate(image):
        if x in seen:
            violations.append(
                Violation(
                    "yoneda-injective",
                    f"transformations {seen[x]} and {i} both evaluate to {x!r} at {d}",
                    (d, x),
                )
            )
        seen[x] = i
    for x in f.elements[d]:
        if x not in seen:
            violations.append(
                Violation(
                    "yoneda-surjective",
                    f"no transformation evaluates to {x!r} at {d}",
                    (d, x),
                )
            )
    return LawReport(tuple(violations))


# ---------------------------------------------------------------------------
# pullback along a feature identification


def pullback_presheaf(h, q: AssignmentPresheaf) -> AssignmentPresheaf:
    """Pull a compiled presheaf back along a feature identification.

    ``h`` is anything with ``feature_map`` (target feature to source
    feature) and ``value_maps`` (target value to source value, per target
    feature), such as a :class:`~presh.ops.FeatureIdentification`.  The
    result lives over every subset of the target features: at ``u`` it
    admits a value combination exactly when its value-mapped image is
    admitted by ``q`` at the image of ``u``.  It is built object by object
    from ``q``'s rows, independently of :func:`~presh.ops.transfer`, which
    pulls back the tables instead.
    """
    feature_map, value_maps = h.feature_map, h.value_maps
    for tgt, src in feature_map.items():
        if src not in q.fibers:
            raise MalformedInputError(f"mapped feature {src!r} missing from the source")
    fibers = {tgt: Fiber(tgt, tuple(value_maps[tgt])) for tgt in feature_map}
    fam = close_family(Subset(feature_map))
    rows: dict[Subset, tuple[tuple[str, ...], ...]] = {}
    for u in fam.objects_sorted:
        src_obj = q.family.require(Subset(feature_map[t] for t in u))
        admitted = frozenset(q.rows[src_obj])
        out = []
        for combo in product(*(fibers[t].values for t in u.names)):
            image = {feature_map[t]: value_maps[t][val] for t, val in zip(u.names, combo)}
            if tuple(image[f] for f in src_obj.names) in admitted:
                out.append(combo)
        rows[u] = tuple(out)
    return AssignmentPresheaf(fam, fibers, rows)


# ---------------------------------------------------------------------------
# seeded random presheaves (law-check harness)


def random_abstract_presheaf(seed: int, family: CoverFamily) -> AbstractPresheaf:
    """Deterministic random presheaf over ``family``.

    Mixes three lawful constructions: a representable, a closure-completed
    random assignment presheaf (projection restrictions, typically
    non-injective), and a tagged disjoint union of the two (multi-element
    sets at the bottom object, injective summand).  Element counts stay
    small enough that a Yoneda enumeration at any object fits the
    natural-transformation bound.
    """
    rng = random.Random(seed)
    style = rng.choice(("representable", "product", "union", "product"))
    if style == "representable":
        c = rng.choice(family.objects_sorted)
        return representable(family, c)
    if style == "union":
        left = _random_product_presheaf(rng, family)
        right = representable(family, rng.choice(family.objects_sorted))
        elements = {
            u: tuple(f"L{x}" for x in left.elements[u])
            + tuple(f"R{x}" for x in right.elements[u])
            for u in family.objects_sorted
        }
        restrictions = {}
        for u, v in family.inclusions():
            m = {f"L{x}": f"L{y}" for x, y in left.restrictions[(u, v)].items()}
            m.update({f"R{x}": f"R{y}" for x, y in right.restrictions[(u, v)].items()})
            restrictions[(u, v)] = m
        return AbstractPresheaf(family, elements, restrictions)
    return _random_product_presheaf(rng, family)


def _random_product_presheaf(rng: random.Random, family: CoverFamily) -> AbstractPresheaf:
    fibers = {
        f: Fiber(f, tuple(f"v{i}" for i in range(rng.randint(1, 2))))
        for f in family.universe.names
    }
    rows = {
        u: tuple(
            combo
            for combo in product(*(fibers[f].values for f in u.names))
            if rng.random() < 0.45
        )
        for u in family.objects_sorted
    }
    sparse = AssignmentPresheaf(family, fibers, rows)
    closed, _ = closure_complete(sparse)
    return closed.as_abstract()
