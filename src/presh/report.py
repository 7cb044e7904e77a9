"""Law-check reports: a pass flag plus a witness for every violation.

Also home to :class:`Record` and :class:`Frozen`, the small bases of
presh's value types.  Each type lists its fields in ``_fields`` and writes
its own ``__init__``; the bases give it field-tuple equality and a
``Type(field=value, ...)`` repr, and :class:`Frozen` makes the fields
read-only after ``__init__``.
"""

from __future__ import annotations


class Record:
    """Fields named by ``_fields``; equal when the class and every field agree."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class Frozen(Record):
    """A record whose fields are set once, through :meth:`_freeze`, and are
    hashed as a tuple (so a record holding a dict is unhashable)."""

    __slots__ = ()

    def _freeze(self, **fields: object) -> None:
        # for records with a __dict__; types with __slots__ use object.__setattr__
        self.__dict__.update(fields)

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(Frozen):
    _fields = ("law", "detail", "witness")

    def __init__(self, law: str, detail: str, witness: tuple = ()):
        self._freeze(law=law, detail=detail, witness=witness)

    def __str__(self) -> str:
        return f"{self.law}: {self.detail}"


class LawReport(Frozen):
    _fields = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()):
        self._freeze(violations=violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed
