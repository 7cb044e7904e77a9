"""Intensional models: fibers plus allow/forbid tables, compiled to presheaves.

A model describes a system by declaring the value range of each feature and
constraint tables over feature scopes.  :func:`compile_model` turns that into
an :class:`~presh.presheaf.AssignmentPresheaf` whose sections at an object of
the cover family are the assignments that satisfy every table whose scope
fits inside the object.  Restriction closure holds by construction: any
table applicable at a smaller object is applicable at every larger one.

Compilation checks the bounds and encodes the tables up front; each object
is enumerated on first read, from its prefix object (the object minus its
last feature), checking only the tables that end in that feature (the loop
lives in :mod:`presh.kernel`).  A caller that reads one object pays for its
prefix chain, and one that reads every object builds each once.  A caller
that counts one object's rows (:meth:`_ObjectRows.count`) builds that chain
only until a placed feature drops out of every later table's scope, and
tallies the rest by the values that later tables still read.

Two independent evaluation paths exist on purpose: :func:`oracle_sections`
filters the naive full product per object with plain set membership and
shares no code with compilation.  Their exact agreement is the main
correctness property of the whole package.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import product
from operator import itemgetter, mul

from . import kernel
from .errors import EnumerationBoundError, MalformedInputError
from .lattice import CoverFamily, Subset, check_name, close_family
from .presheaf import Assignment, AssignmentPresheaf, Fiber
from .report import Frozen

#: Refusal bound for the oracle's full product at a single object, read by
#: :func:`oracle_sections` on each call.
ORACLE_PRODUCT_BOUND = 10**7

#: Refusal bound for one table's scope product (the value combinations it spans).
TABLE_MASK_BOUND = 1 << 22

ALLOW = "allow"
FORBID = "forbid"


class ConstraintTable(Frozen):
    """A constraint over one scope: an allow-list or a forbid-list of tuples.

    Tuple positions follow the scope's canonical (sorted) feature order.
    Tuples are stored sorted and deduplicated, so equal tables compare equal.
    """

    __slots__ = ("scope", "polarity", "tuples")
    scope: Subset
    polarity: str
    tuples: tuple[tuple[str, ...], ...]

    def __init__(self, scope: Subset, polarity: str, tuples: Iterable[Sequence[str]]):
        if polarity not in (ALLOW, FORBID):
            raise MalformedInputError(f"polarity must be allow or forbid, not {polarity!r}")
        if not isinstance(scope, Subset):
            kind = type(scope).__name__
            raise MalformedInputError(f"constraint scope is a {kind}, not a Subset")
        if len(scope) == 0:
            raise MalformedInputError("constraint scope is empty")
        self._set(scope, polarity, tuples)
        for row in self.tuples:
            if len(row) != len(scope):
                raise MalformedInputError(
                    f"tuple {row} has arity {len(row)}, scope {scope} needs {len(scope)}"
                )

    @classmethod
    def _trusted(
        cls, scope: Subset, polarity: str, rows: Iterable[Sequence[str]]
    ) -> "ConstraintTable":
        """The table of ``rows``, each of ``scope``'s arity, under a valid
        ``polarity`` and a non-empty ``scope``; skips ``__init__``'s checks."""
        table = object.__new__(cls)
        table._set(scope, polarity, rows)
        return table

    def _set(self, scope: Subset, polarity: str, rows: Iterable[Sequence[str]]) -> None:
        # the canonical form: rows sorted and de-duplicated
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "polarity", polarity)
        object.__setattr__(self, "tuples", tuple(sorted(set(map(tuple, rows)))))

    def admits(self, row: tuple[str, ...]) -> bool:
        if self.polarity == ALLOW:
            return row in self.tuples
        return row not in self.tuples

    def sort_key(self) -> tuple:
        return (self.scope.key(), self.polarity, self.tuples)


class Model(Frozen):
    """Fibers, constraint tables and display labels under one name.

    Feature declaration order is significant (it is the serialization and
    canvas order); tables are canonicalized on construction so structurally
    equal models compare equal.  A label key is a feature or ``feature.value``.
    """

    name: str
    fibers: Mapping[str, Fiber]
    tables: tuple[ConstraintTable, ...]
    labels: Mapping[str, str]

    def __init__(
        self,
        name: str,
        fibers: Mapping[str, Fiber] | Iterable[Fiber],
        tables: Iterable[ConstraintTable] = (),
        labels: Mapping[str, str] | None = None,
    ):
        check_name(name, "model")
        tables = tuple(tables)  # read twice below: checked, then canonicalized
        if isinstance(fibers, Mapping):
            fiber_list = list(fibers.values())
        else:
            fiber_list = list(fibers)
        seen: dict[str, Fiber] = {}
        for fib in fiber_list:
            if fib.feature in seen:
                raise MalformedInputError(f"feature {fib.feature!r} declared twice")
            seen[fib.feature] = fib
        values = {f: set(fib.values) for f, fib in seen.items()}
        for table in tables:
            for f in table.scope:
                if f not in seen:
                    raise MalformedInputError(
                        f"constraint scope names unknown feature {f!r}"
                    )
            columns = zip(table.scope.names, zip(*table.tuples))
            if all(values[f].issuperset(column) for f, column in columns):
                continue
            # a value is outside its fiber: name the first one, row by row
            for row in table.tuples:
                for f, v in zip(table.scope.names, row):
                    if v not in seen[f]:
                        raise MalformedInputError(
                            f"tuple value {v!r} is not in the fiber of {f!r}"
                        )
        if labels is None:
            labels = {}
        elif not isinstance(labels, Mapping):
            raise MalformedInputError(
                f"labels must be a mapping, not {type(labels).__name__}"
            )
        for key in labels:
            f, dot, v = key.partition(".")
            if f not in seen or (dot and v not in seen[f]):
                raise MalformedInputError(
                    f"label {key!r} names no feature or feature value"
                )
        self._set(name, seen, tables, dict(labels))

    @classmethod
    def _trusted(
        cls,
        name: str,
        fibers: dict[str, Fiber],
        tables: Iterable[ConstraintTable],
        labels: dict[str, str],
    ) -> "Model":
        """The model of already checked parts: a valid ``name``, ``fibers``
        keyed by their features, tables over declared features with values
        from their fibers, and labels that name a feature or a value.  Skips
        ``__init__``'s checks and keeps ``fibers`` and ``labels`` themselves,
        which the caller must not change afterwards."""
        model = object.__new__(cls)
        model._set(name, fibers, tables, labels)
        return model

    def _set(
        self,
        name: str,
        fibers: dict[str, Fiber],
        tables: Iterable[ConstraintTable],
        labels: dict[str, str],
    ) -> None:
        # the canonical form: tables de-duplicated and sorted, so
        # structurally equal models compare equal
        canonical = tuple(sorted(set(tables), key=ConstraintTable.sort_key))
        super().__init__(name, fibers, canonical, labels)

    @property
    def features(self) -> Subset:
        return Subset(self.fibers)

    def feature_order(self) -> tuple[str, ...]:
        """Declaration order."""
        return tuple(self.fibers)

    def with_name(self, name: str) -> "Model":
        return Model(name, self.fibers, self.tables, self.labels)


def require_scope_bound(scope: Subset, fibers: Mapping[str, Fiber], what: str) -> None:
    """Refuse a scope whose value product exceeds ``TABLE_MASK_BOUND``;
    ``what`` names the table being built in the refusal."""
    space = 1
    for f in scope.names:
        space *= len(fibers[f].values)
    if space > TABLE_MASK_BOUND:
        raise EnumerationBoundError(
            f"{what} over {scope} refused", required=space, bound=TABLE_MASK_BOUND
        )


class _CompiledModel:
    """Per-model encoding of the tables, indexed by their last scope feature.

    ``base[f]`` is the fiber of ``f`` cut down by the one-feature tables on
    it.  ``by_last[f]`` holds, for each wider table whose last scope feature
    is ``f``, a test of whether an object's names hold the table's other
    scope features, those features, and a map from their values (a bare
    value for one feature, a tuple for several, as ``itemgetter`` reads them)
    to the admitted values of ``f``, in ``base[f]`` order.
    """

    def __init__(self, model: Model):
        fibers = model.fibers
        self.base = {f: fib.values for f, fib in fibers.items()}
        self.by_last: dict[str, list] = {f: [] for f in fibers}
        # tables come in shortlex scope order: one-feature tables settle
        # ``base`` before any wider table reads it
        for table in model.tables:
            require_scope_bound(table.scope, fibers, "constraint mask")
            *rest, last = table.scope.names
            listed: dict = {}
            for row in table.tuples:
                key = row[0] if len(rest) == 1 else row[:-1]
                listed.setdefault(key, set()).add(row[-1])
            keep = table.polarity == ALLOW
            base = self.base[last]
            admitted = {
                k: tuple(v for v in base if (v in s) == keep) for k, s in listed.items()
            }
            default = () if keep else base
            if rest:
                self.by_last[last].append(
                    (frozenset(rest).issubset, tuple(rest), admitted, default)
                )
            else:
                self.base[last] = admitted.get((), default)

    def extend(self, prefix_rows: list[tuple], names: tuple[str, ...]) -> list[tuple]:
        """The rows at the object ``names``, from the rows at ``names[:-1]``."""
        last = names[-1]
        index = names.index
        checks = [
            (itemgetter(*map(index, rest)), admitted, default)
            for fits, rest, admitted, default in self.by_last[last]
            if fits(names)
        ]
        return kernel.enumerate_assignments(prefix_rows, self.base[last], checks)


class _ObjectRows(Mapping):
    """The rows of a compiled model at each family object, built on first read.

    Reading an object builds its prefix object (the object minus its last
    feature) first where that is not built yet, then the object itself in
    one :meth:`_CompiledModel.extend` step, and keeps every object on the
    way, so a reader pays only for the prefix chains it touches, and
    :meth:`count` only for the start of one.  Iteration and ``len`` cover
    every object of the family in shortlex order, and membership builds
    nothing.  ``items``, ``values`` and ``==`` read the objects in that
    order, where each object's prefix object comes earlier, so every read is
    one step from an object already built.  ``get`` gives ``default`` and
    ``[]`` raises ``KeyError`` for anything that is not a family object.
    """

    def __init__(self, family: CoverFamily, enc: _CompiledModel):
        self._family = family
        self._enc = enc
        # keyed by feature names: a tuple hashes in C, a ``Subset`` does not
        self._built: dict[tuple[str, ...], tuple[tuple, ...]] = {(): ((),)}

    def __getitem__(self, u: Subset) -> tuple[tuple, ...]:
        # a built object is a family object; any other read goes through
        # ``get``, the one place that decides what a family object is
        try:
            rows = self._built.get(u.names)
        except AttributeError:
            raise KeyError(u) from None
        if rows is None:
            rows = self.get(u)
            if rows is None:
                raise KeyError(u)
        return rows

    def get(self, u: Subset, default=None):
        if u not in self._family:
            return default
        rows = self._built.get(u.names)
        return self._build(u.names) if rows is None else rows

    def _build(self, names: tuple[str, ...]) -> tuple[tuple, ...]:
        prefix = names[:-1]
        rows = self._built.get(prefix)
        if rows is None:
            rows = self._build(prefix)
        rows = self._built[names] = tuple(self._enc.extend(rows, names))
        return rows

    def count(self, u: Subset) -> int:
        """The number of rows at the family object ``u``.

        A built object answers with its length.  Otherwise the count walks
        ``u``'s prefix chain as :meth:`_build` does, but builds rows only up
        to the first step after which some placed feature is read by no
        later table that fits ``u``.  From there it keeps a tally: for each
        distinct value tuple of the features that later tables still read
        (the frontier), the number of rows that agree with it.  The last
        step is counted without making its rows.  This is bucket
        elimination over (ℕ, +, ×) (Dechter, *AI* 1999) along the build
        order.  A tally never holds more entries than the rows at the same
        prefix.
        """
        if u not in self._family:
            raise KeyError(u)
        names = u.names
        rows = self._built.get(names)
        if rows is not None:
            return len(rows)
        # one pass over the tables that fit u: each step's tables, and for
        # each feature the last step whose tables read it
        held = frozenset(names)
        drop = {}
        steps = []
        for i, f in enumerate(names):
            drop[f] = i
            fitting = []
            for table in self._enc.by_last[f]:
                if table[0](held):
                    fitting.append(table)
                    for g in table[1]:
                        drop[g] = i
            steps.append(fitting)
        # rows are built up to the first step after which a placed feature
        # is read no more; the last step is counted in any case
        last = len(names) - 1
        start = min(min(drop.values()) + 1, last)
        placed = names[:start]
        states = self._built.get(placed)
        if states is None:
            states = self._build(placed)
        base = self._enc.base
        if start == last:
            return sum(map(len, _admitted(states, placed, base[names[last]], steps[last])))
        # the distinct values at the frontier of the rows built, each with
        # the number of rows that agree with it
        frontier = tuple(f for f in placed if drop[f] >= start)
        tally = Counter(map(_picker(placed, frontier), states))
        for j in range(start, last):
            states = list(tally)
            admitted = _admitted(states, frontier, base[names[j]], steps[j])
            placed = frontier + (names[j],)
            frontier = tuple(f for f in placed if drop[f] > j)
            pick = _picker(placed, frontier)
            counts: dict[tuple, int] = {}
            for state, n, vals in zip(states, tally.values(), admitted):
                for v in vals:
                    key = pick(state + (v,))
                    counts[key] = counts.get(key, 0) + n
            tally = counts
        sizes = map(len, _admitted(list(tally), frontier, base[names[last]], steps[last]))
        return sum(map(mul, tally.values(), sizes))

    def __iter__(self) -> Iterator[Subset]:
        return iter(self._family.objects_sorted)

    def __len__(self) -> int:
        return len(self._family.objects_sorted)

    def __contains__(self, u: object) -> bool:
        return u in self._family


def _picker(names: tuple[str, ...], keep: tuple[str, ...]):
    """A function from a row over ``names`` to its values at ``keep``."""
    positions = tuple(map(names.index, keep))
    if len(positions) == 1:
        (p,) = positions
        return lambda row: (row[p],)
    return itemgetter(*positions) if positions else lambda row: ()


def _admitted(states: Sequence[tuple], names: tuple[str, ...], values, tables) -> list:
    """For each state (a value tuple over ``names``), the ``values`` of the
    next feature that every one of ``tables`` (entries of
    ``_CompiledModel.by_last``) admits after it, filtered as the kernel
    filters."""
    if not tables:
        return [values] * len(states)
    index = names.index
    (key, admitted, default), *rest = [
        (itemgetter(*map(index, scope)), admitted, default)
        for _, scope, admitted, default in tables
    ]
    out = []
    append = out.append
    for state in states:
        vals = admitted.get(key(state), default)
        for other_key, other, other_default in rest:
            allowed = other.get(other_key(state), other_default)
            vals = [v for v in vals if v in allowed]
        append(vals)
    return out


def compile_model(model: Model) -> AssignmentPresheaf:
    """Compile a model into its assignment presheaf.

    Every family object gets the rows (value tuples) satisfying all tables
    whose scope it contains; empty section sets are valid data, not errors.
    The bounds are checked here, before any object is read: the family's
    ``LATTICE_SIZE_BOUND`` and each table's ``TABLE_MASK_BOUND``.  The objects
    themselves are built on first read, each from its prefix object (see
    :class:`_ObjectRows`): the sections at one object cost its prefix chain,
    and a reader of every object builds each of them once.
    """
    family = close_family(model.features)
    rows = _ObjectRows(family, _CompiledModel(model))
    return AssignmentPresheaf(family, dict(model.fibers), rows)


def oracle_sections(model: Model, u: Subset) -> set[Assignment]:
    """Brute-force reference: full value product at ``u``, filtered per table.

    Deliberately naive and fully independent of the compiled path; refuses
    when the raw product exceeds ``ORACLE_PRODUCT_BOUND``.
    """
    for f in u:
        if f not in model.fibers:
            raise MalformedInputError(f"unknown feature {f!r}")
    space = 1
    for f in u.names:
        space *= len(model.fibers[f].values)
    if space > ORACLE_PRODUCT_BOUND:
        raise EnumerationBoundError(
            f"oracle product at {u} refused", required=space, bound=ORACLE_PRODUCT_BOUND
        )
    applicable = []
    for table in model.tables:
        if table.scope.issubset(u):
            picks = tuple(u.names.index(f) for f in table.scope.names)
            applicable.append((picks, table))
    out: set[Assignment] = set()
    for combo in product(*(model.fibers[f].values for f in u.names)):
        if all(
            table.admits(tuple(combo[i] for i in picks))
            for picks, table in applicable
        ):
            out.add(Assignment(u, combo))
    return out


def random_model(
    seed: int,
    *,
    max_features: int = 6,
    max_fiber: int = 4,
    max_tables: int = 3,
    name: str | None = None,
) -> Model:
    """Seeded random model; identical seed and limits give an identical model.

    Table density is tuned so that both empty and multiple global-section
    sets show up across a modest seed sweep.
    """
    if max_features <= 0 or max_fiber <= 0 or max_tables < 0:
        raise MalformedInputError("limits must be positive")
    rng = random.Random(seed)
    n = rng.randint(1, max_features)
    fibers = [
        Fiber(f"x{i}", tuple(f"v{j}" for j in range(rng.randint(1, max_fiber))))
        for i in range(n)
    ]
    by_name = {f.feature: f for f in fibers}
    names = sorted(by_name)
    tables = []
    for _ in range(rng.randint(0, max_tables)):
        scope = Subset(rng.sample(names, rng.randint(1, min(3, n))))
        polarity = rng.choice((ALLOW, FORBID))
        keep = 0.55 if polarity == ALLOW else 0.25
        rows = [
            combo
            for combo in product(*(by_name[f].values for f in scope.names))
            if rng.random() < keep
        ]
        tables.append(ConstraintTable(scope, polarity, rows))
    return Model(name or f"m{seed}", fibers, tables)
