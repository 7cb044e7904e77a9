"""Feature universes and cover families.

A system is described by a finite set of named features.  The base category
everything else lives over is a *cover family*: a collection of feature
subsets ordered by inclusion, required to contain the empty set, every
singleton, and the whole universe, and to be closed under pairwise
intersection and union.  Those requirements together force the family to be
the full power set of its universe, so a :class:`CoverFamily` is given by its
universe alone: objects, inclusions and Hasse covers are generated from it,
never stored or validated.  The saturation view (close seeds under meet/join
until a fixed point) is kept as an independent oracle in the test suite.

A family of any size is read object by object; only the walks over every
subset (:func:`_shortlex`, :func:`_shortlex_masks`) refuse, above
``LATTICE_SIZE_BOUND`` names.

Canonical orders used throughout the package:

* feature names inside a subset: lexicographic;
* subsets against each other: shortlex (size first, then the name tuple).

Both are pinned so that every enumeration and serialization is reproducible
byte for byte.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import EnumerationBoundError, MalformedInputError
from .report import Frozen, LawReport, Violation

#: Valid feature, value, model or identification name.
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")

#: Most names a walk over all their subsets (2**n objects) may range over;
#: :func:`_require_walkable` checks it at the start of every such walk.
LATTICE_SIZE_BOUND = 12

#: Largest outer set for which the adjunction sweep runs exhaustively.
ADJUNCTION_SWEEP_BOUND = 5


def check_name(name: str, kind: str) -> str:
    """``name``, if it is a valid name; ``kind`` (feature, value, model,
    identification) says which in the error otherwise."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise MalformedInputError(f"invalid {kind} name {name!r}")
    return name


class Subset(Frozen):
    """An immutable set of feature names, stored sorted.

    Accepts any iterable of names; duplicates collapse.  Set operations
    return new subsets.
    """

    __slots__ = ("names",)
    names: tuple[str, ...]

    def __init__(self, names: Iterable[str] = ()):
        ordered = tuple(sorted(set(names)))
        for n in ordered:
            check_name(n, "feature")
        object.__setattr__(self, "names", ordered)

    # Own pair, not the base getter: Subset keys every restriction map (~5 % of check).
    def __eq__(self, other: object):
        if other.__class__ is Subset:
            return self.names == other.names
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.names)

    @classmethod
    def _trusted(cls, names: tuple[str, ...]) -> "Subset":
        """A subset of ``names`` that are already sorted, distinct and valid
        (drawn from other subsets); skips the sort and the name checks."""
        subset = object.__new__(cls)
        object.__setattr__(subset, "names", names)
        return subset

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self.names

    def issubset(self, other: "Subset") -> bool:
        return frozenset(other.names).issuperset(self.names)

    def union(self, other: "Subset") -> "Subset":
        return Subset._trusted(tuple(sorted(set(self.names + other.names))))

    def intersection(self, other: "Subset") -> "Subset":
        mine = set(other.names)
        return Subset._trusted(tuple(n for n in self.names if n in mine))

    def difference(self, other: "Subset") -> "Subset":
        theirs = set(other.names)
        return Subset._trusted(tuple(n for n in self.names if n not in theirs))

    def key(self) -> tuple[int, tuple[str, ...]]:
        """Shortlex sort key."""
        return (len(self.names), self.names)

    def __str__(self) -> str:
        return "{" + ",".join(self.names) + "}"


def _require_walkable(n: int) -> None:
    """Refuse a walk over every subset of ``n`` names above ``LATTICE_SIZE_BOUND``."""
    if n > LATTICE_SIZE_BOUND:
        raise EnumerationBoundError(
            f"family over {n} features refused",
            required=2**n,
            bound=2**LATTICE_SIZE_BOUND,
        )


def _shortlex(names: tuple[str, ...]) -> Iterator[Subset]:
    """Every subset of the sorted, validated ``names``, in shortlex order;
    refused on the first read above ``LATTICE_SIZE_BOUND`` names."""
    _require_walkable(len(names))
    for k in range(len(names) + 1):
        for combo in combinations(names, k):
            yield Subset._trusted(combo)


class CoverFamily(Frozen):
    """The subset lattice a presheaf is indexed by: every subset of ``universe``.

    Membership, :meth:`require` and reads of single objects work at any
    size.  ``objects_sorted``, and ``objects``, :meth:`inclusions` and
    :meth:`covers` through it, walk every object, and refuse above
    ``LATTICE_SIZE_BOUND`` features.
    """

    universe: Subset

    @cached_property
    def objects_sorted(self) -> tuple[Subset, ...]:
        return tuple(_shortlex(self.universe.names))

    @cached_property
    def objects(self) -> frozenset[Subset]:
        return frozenset(self.objects_sorted)

    @cached_property
    def _names(self) -> frozenset[str]:
        return frozenset(self.universe.names)

    def __contains__(self, obj: object) -> bool:
        return isinstance(obj, Subset) and self._names.issuperset(obj.names)

    def require(self, obj: Subset) -> Subset:
        if obj not in self:
            raise MalformedInputError(f"{obj} is not an object of the family")
        return obj

    @cached_property
    def _by_names(self) -> dict[tuple[str, ...], Subset]:
        return {u.names: u for u in self.objects_sorted}

    def inclusions(self) -> Iterator[tuple[Subset, Subset]]:
        """All ordered pairs (U, V) with U ⊆ V, canonically ordered, as the
        family's own objects."""
        objects = self._by_names
        for v in self.objects_sorted:
            for k in range(len(v.names) + 1):
                for names in combinations(v.names, k):
                    yield (objects[names], v)

    def covers(self) -> Iterator[tuple[Subset, Subset]]:
        """Hasse edges (U, V), as the family's own objects: V minus one
        feature, each V's drops in shortlex order."""
        objects = self._by_names
        for v in self.objects_sorted:
            names = v.names
            for i in range(len(names) - 1, -1, -1):
                yield (objects[names[:i] + names[i + 1 :]], v)


def close_family(universe: Subset) -> CoverFamily:
    """The family over ``universe``, of any size; its whole-lattice walks
    refuse above ``LATTICE_SIZE_BOUND`` features (see :class:`CoverFamily`).

    Every family must hold the empty set, all singletons, and the universe,
    and be closed under pairwise meet and join; union-closure over the
    singletons then already yields every subset, so the result is always the
    full power set.
    """
    return CoverFamily(universe)


def extend_functor_f1(u: Subset, s1: Subset, s2: Subset) -> Subset:
    """Pad a subset of the smaller universe with everything the larger one adds.

    Requires u ⊆ s1 ⊆ s2; returns u ∪ (s2 ∖ s1).  Monotone in u.
    """
    if not u.issubset(s1) or not s1.issubset(s2):
        raise MalformedInputError(
            f"need {u} ⊆ {s1} ⊆ {s2} for the padding functor"
        )
    return u.union(s2.difference(s1))


def restriction_functor_r(v: Subset, s1: Subset) -> Subset:
    """Cut a subset down to the smaller universe: v ∩ s1."""
    return v.intersection(s1)


def _shortlex_masks(bits: tuple[int, ...]) -> list[int]:
    """The mask of every subset of ``bits``, in shortlex order of the names
    behind them when ``bits`` stand for sorted names in increasing order;
    refused above ``LATTICE_SIZE_BOUND`` bits."""
    _require_walkable(len(bits))
    return [sum(combo) for k in range(len(bits) + 1) for combo in combinations(bits, k)]


def _subset_of_mask(names: tuple[str, ...], mask: int) -> Subset:
    """The subset of the sorted, validated ``names`` whose bits are set in ``mask``."""
    return Subset._trusted(tuple(n for i, n in enumerate(names) if mask >> i & 1))


def check_adjunction_triple(s1: Subset, s2: Subset) -> LawReport:
    """Verify that intersection-restriction sits between inclusion and padding.

    For every U ⊆ s1 and V ⊆ s2 the two Hom-set equations of the adjoint
    triple reduce, in a poset, to

    * U ⊆ V  ⇔  U ⊆ V ∩ s1          (restriction is right adjoint to inclusion)
    * V ∩ s1 ⊆ U  ⇔  V ⊆ U ∪ (s2∖s1) (restriction is left adjoint to padding)

    The sweep is exhaustive over both power sets and refuses above
    ``ADJUNCTION_SWEEP_BOUND`` features rather than sampling.  It walks int
    bitmasks over ``s2.names`` (bit i for the i-th name), U and V each in
    shortlex order, so meet is ``&``, join is ``|`` and ``a ⊆ b`` is
    ``not a & ~b``.  A ``Subset`` is built only for the U and V a violation
    names.
    """
    if not s1.issubset(s2):
        raise MalformedInputError(f"need {s1} ⊆ {s2}")
    if len(s2) > ADJUNCTION_SWEEP_BOUND:
        raise EnumerationBoundError(
            "adjunction sweep refused",
            required=4 ** len(s2),
            bound=4**ADJUNCTION_SWEEP_BOUND,
        )
    names = s2.names
    bit = {name: 1 << i for i, name in enumerate(names)}
    s1_bits = tuple(bit[n] for n in s1.names)
    s1_mask = sum(s1_bits)
    pad = ((1 << len(names)) - 1) & ~s1_mask
    # Each V with its complement, its cut V∩S1 and the cut's complement.
    outer = [
        (v, ~v, v & s1_mask, ~(v & s1_mask))
        for v in _shortlex_masks(tuple(bit.values()))
    ]
    violations: list[Violation] = []

    def witness(law: str, disagreement: str, u: int, v: int) -> None:
        wu, wv = _subset_of_mask(names, u), _subset_of_mask(names, v)
        violations.append(Violation(law, f"{disagreement} at U={wu}, V={wv}", (wu, wv)))

    for u in _shortlex_masks(s1_bits):
        not_u = ~u
        not_padded = ~(u | pad)
        for v, not_v, cut, not_cut in outer:
            if (not u & not_v) != (not u & not_cut):
                witness("adjunction-left", "U ⊆ V disagrees with U ⊆ V∩S1", u, v)
            if (not cut & not_u) != (not v & not_padded):
                witness(
                    "adjunction-right", "V∩S1 ⊆ U disagrees with V ⊆ U∪(S2∖S1)", u, v
                )
    return LawReport(tuple(violations))
