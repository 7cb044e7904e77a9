"""The enumeration kernel: extend rows by one feature under table checks.

:func:`enumerate_assignments` appends each admitted value of a new feature
to each given row, where each check reads some positions of the row and
lists the values it admits there.  Its callers in :mod:`presh.model` decide
which rows and which checks it is given.
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
