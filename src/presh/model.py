"""Intensional models: fibers plus allow/forbid tables, compiled to presheaves.

A model describes a system by declaring the value range of each feature and
constraint tables over feature scopes.  :func:`compile_model` turns that into
an :class:`~presh.presheaf.AssignmentPresheaf` whose sections at an object of
the cover family are the assignments that satisfy every table whose scope
fits inside the object.  Restriction closure holds by construction: any
table applicable at a smaller object is applicable at every larger one.

Compilation checks the bounds and encodes the tables up front, and builds
each object on first read (:class:`_ObjectRows`, which states the build
order, over the loop in :mod:`presh.kernel`).

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
from operator import itemgetter

from . import kernel
from .errors import EnumerationBoundError, MalformedInputError
from .lattice import (
    CoverFamily,
    Subset,
    _shortlex_masks,
    _subset_of_mask,
    check_name,
    close_family,
)
from .presheaf import Assignment, AssignmentPresheaf, Fiber, _projection
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
        seen: dict[str, Fiber] = {}
        for fib in fibers.values() if isinstance(fibers, Mapping) else fibers:
            if not isinstance(fib, Fiber):
                raise MalformedInputError(f"fiber {fib!r} is not a Fiber")
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
        for key, text in labels.items():
            if not isinstance(key, str):
                raise MalformedInputError(f"label key {key!r} is not a str")
            f, dot, v = key.partition(".")
            if f not in seen or (dot and v not in seen[f]):
                raise MalformedInputError(
                    f"label {key!r} names no feature or feature value"
                )
            # a label is written on its own line, and parsed back from it
            if not isinstance(text, str) or "".join(text.splitlines()) != text:
                raise MalformedInputError(f"label {key!r} is not one line of text")
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


class _ObjectRows(Mapping):
    """The rows of a compiled model at each family object, built on first read.

    Construction encodes the tables, indexed by their last scope feature, and
    checks each table's ``TABLE_MASK_BOUND`` before any object is read.
    ``base[f]`` is the fiber of ``f`` cut down by the one-feature tables on
    it.  ``by_last[f]`` holds, for each wider table whose last scope feature
    is ``f``, a test of whether an object's names hold the table's other
    scope features, those features, and a map from their values (a bare
    value for one feature, a tuple for several, as ``itemgetter`` reads them)
    to the admitted values of ``f``, in ``base[f]`` order.

    The build order: an object is built from its prefix object (the object
    minus its last feature) in one :meth:`extend` step, which checks only
    the tables in ``by_last`` of that feature; every other table that fits
    the object fits the prefix object and holds there already.  Reading an
    object builds its prefix chain where it is not built yet and keeps
    every object on the way, so a reader pays only for the prefix chains it
    touches, :meth:`count` only for the start of one, and :meth:`blocking`
    only for the objects it reads.  Iteration and ``len`` cover every object
    of the family in shortlex order, and membership builds nothing.
    ``items``, ``values`` and ``==`` read the objects in that order, where
    each object's prefix object comes earlier, so every read is one step
    from an object already built.  ``get`` gives ``default`` and ``[]``
    raises ``KeyError`` for anything that is not a family object.
    """

    def __init__(self, family: CoverFamily, model: Model):
        self._family = family
        # keyed by feature names: a tuple hashes in C, a ``Subset`` does not
        self._built: dict[tuple[str, ...], tuple[tuple, ...]] = {(): ((),)}
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

    def checks(
        self, f: str, held: Iterable[str], at: tuple[str, ...]
    ) -> list[kernel.Check]:
        """The kernel checks of the wider tables placed with ``f`` whose other
        scope features ``held`` holds, keyed on positions in the row names
        ``at``."""
        index = at.index
        return [
            (itemgetter(*map(index, rest)), admitted, default)
            for fits, rest, admitted, default in self.by_last[f]
            if fits(held)
        ]

    def extend(self, prefix_rows: list[tuple], names: tuple[str, ...]) -> list[tuple]:
        """The rows at the object ``names``, from the rows at ``names[:-1]``."""
        last = names[-1]
        checks = self.checks(last, names, names)
        return kernel.enumerate_assignments(prefix_rows, self.base[last], checks)

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
        return self._rows(u.names) if u in self._family else default

    def _rows(self, names: tuple[str, ...]) -> tuple[tuple, ...]:
        """The rows at the object ``names``, built from its prefix object's
        unless built already."""
        rows = self._built.get(names)
        if rows is None:
            prefix_rows = self._rows(names[:-1])
            rows = self._built[names] = tuple(self.extend(prefix_rows, names))
        return rows

    def count(self, u: Subset) -> int:
        """The number of rows at the family object ``u``.

        A built object answers with its length.  Otherwise the count walks
        ``u``'s prefix chain in the build order, but builds rows only up to
        the first step after which some placed feature is read by no later
        table that fits ``u``.  From there it keeps a tally: for each
        distinct value tuple of the features that later tables still read
        (the frontier), the number of rows that agree with it.  Each later
        step, the last one included, runs the kernel over the tally's
        states with :meth:`checks`; every row it makes is a state plus one
        value, so the row's multiplicity is the state's.  This is bucket
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
        # for each feature, the last step whose fitting tables read it
        held = frozenset(names)
        drop = {}
        for i, f in enumerate(names):
            drop[f] = i
            for fits, rest, _, _ in self.by_last[f]:
                if fits(held):
                    for g in rest:
                        drop[g] = i
        # rows are built up to the first step after which a placed feature
        # is read no more; the last step is run over them in any case
        last = len(names) - 1
        start = min(min(drop.values()) + 1, last)
        placed = names[:start]
        states = self._rows(placed)
        if start == last:
            return len(self.extend(states, names))
        # the distinct values at the frontier of the rows built, each with
        # the number of rows that agree with it
        frontier = tuple(f for f in placed if drop[f] >= start)
        tally = Counter(map(_projection(tuple(map(placed.index, frontier))), states))
        for j in range(start, last + 1):
            f = names[j]
            at = frontier + (f,)
            rows = kernel.enumerate_assignments(
                list(tally), self.base[f], self.checks(f, held, at)
            )
            # a row's multiplicity is its prefix row's
            if j == last:
                return sum(tally[row[:-1]] for row in rows)
            frontier = tuple(g for g in at if drop[g] > j)
            pick = _projection(tuple(map(at.index, frontier)))
            counts: dict[tuple, int] = {}
            for row in rows:
                key = pick(row)
                counts[key] = counts.get(key, 0) + tally[row[:-1]]
            tally = counts

    def blocking(self) -> tuple[Subset, ...]:
        """The inclusion-minimal family objects with no rows, in shortlex order.

        The objects are walked by size as int masks over the universe's
        names (bit i for the i-th name), and an object is read only when it
        neither contains a scope already found empty nor lies inside an
        object already read with rows.  That is sound because a compiled
        presheaf is closed: every table that fits an object fits each object
        above it, so an object with rows has rows at each object below it,
        and an empty object is empty at each object above it.  An object read
        with rows is grown to a maximal object with rows by trying each other
        feature in name order, skipping a candidate that contains a scope
        already found empty; every object below the grown one is then
        skipped (the dualization of Gunopulos et al., *ACM TODS* 28(2),
        2003).  An object read empty is minimal: each object below it comes
        earlier and was read or skipped with rows.  Reads go through
        :meth:`get`, so each object is built at most once.  Skipping the
        objects below one with rows is sound only on a closed presheaf;
        :func:`presh.presheaf.blocking_sets` skips only those above a scope
        found, and so is right on any presheaf.
        """
        names = self._family.universe.names

        def has_rows(mask: int) -> bool:
            return bool(self.get(_subset_of_mask(names, mask)))

        bits = tuple(1 << i for i in range(len(names)))
        # the masks found empty, and the complements of those grown with rows
        empty: list[int] = []
        outside: list[int] = []
        for mask in _shortlex_masks(bits):
            # ``~mask & e`` is 0 when e lies in mask, ``mask & o`` when mask
            # lies in the object whose complement is o
            if not all(map((~mask).__and__, empty)) or not all(map(mask.__and__, outside)):
                continue
            if not has_rows(mask):
                empty.append(mask)
                continue
            for bit in bits:
                grown = mask | bit
                if grown != mask and all(map((~grown).__and__, empty)) and has_rows(grown):
                    mask = grown
            outside.append(~mask)
        return tuple(_subset_of_mask(names, e) for e in empty)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self._family.objects_sorted)

    def __len__(self) -> int:
        return len(self._family.objects_sorted)

    def __contains__(self, u: object) -> bool:
        return u in self._family


def compile_model(model: Model) -> AssignmentPresheaf:
    """Compile a model into its assignment presheaf.

    Every family object gets the rows (value tuples) satisfying all tables
    whose scope it contains; empty section sets are valid data, not errors.
    The bounds are checked here, before any object is read: the family's
    ``LATTICE_SIZE_BOUND`` and each table's ``TABLE_MASK_BOUND``.  The objects
    themselves are built on first read (see :class:`_ObjectRows`).
    """
    family = close_family(model.features)
    rows = _ObjectRows(family, model)
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
