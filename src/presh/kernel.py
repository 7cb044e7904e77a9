"""The enumeration kernel: extend the sections of a prefix object by one fiber.

Every section at ``u = (f1..fk)`` restricts to a section at its prefix object
``(f1..f(k-1))``, so a presheaf from :func:`presh.model.compile_model`
builds an object's rows, the first time the object is read, from its prefix
object's rows with one call here.  Only the tables whose last scope feature
is ``fk`` need checking: every other table that fits in ``u`` lies inside
the prefix object and already holds there.

The same call serves the three readers of a compiled model: the one that
builds an object's rows, the one that counts them
(:meth:`presh.model._ObjectRows.count`), which runs its later steps over a
tally's states, value tuples of the features that later tables still read,
in place of whole prefix rows, and the one that finds the minimal objects
with no rows (:meth:`presh.model._ObjectRows.blocking`), which builds only
the objects it reads.
"""

from __future__ import annotations

from typing import Callable, Hashable, Mapping, Sequence

#: The one engine; the benchmark reports it with every run.
BACKEND = "python"

#: ``(key, admitted, default)``: ``key(row)`` reads a table's other scope
#: features off a prefix row, and ``admitted.get(key(row), default)`` lists
#: the values of the new feature the table admits there.
Check = tuple[Callable[[tuple], Hashable], Mapping[Hashable, Sequence], Sequence]


def enumerate_assignments(
    prefix_rows: Sequence[tuple], values: Sequence, checks: Sequence[Check] = ()
) -> list[tuple]:
    """Every ``row + (v,)`` with ``row`` from ``prefix_rows`` and ``v`` from
    ``values`` that every check admits.

    Each check's admitted values are drawn from ``values`` in its order, so
    rows come out prefix-row-major and then in ``values`` order: prefix rows
    in lexicographic order give rows in lexicographic order.
    """
    if not checks:
        return [row + (v,) for row in prefix_rows for v in values]
    (key, admitted, default), *rest = checks
    out: list[tuple] = []
    append = out.append
    for row in prefix_rows:
        vals = admitted.get(key(row), default)
        for other_key, other, other_default in rest:
            allowed = other.get(other_key(row), other_default)
            vals = [v for v in vals if v in allowed]
        for v in vals:
            append(row + (v,))
    return out


__all__ = ["enumerate_assignments", "BACKEND"]
