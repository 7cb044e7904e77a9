"""Law-check reports: a pass flag plus a witness for every violation.

Also home to :class:`Record` and :class:`Frozen`, the small bases of
presh's value types.  A type's fields are the names its class body
annotates, in order; :meth:`Record.__init_subclass__` stores them in
``_fields`` with one ``attrgetter`` that reads them all, and the bases
compare and hash that getter's result and give a ``Type(field=value, ...)``
repr.  :class:`Frozen` adds the one constructor, which binds arguments to
``_fields`` as a ``def`` with those parameters would (a class attribute
named like a field is its default), and makes the fields read-only.  A
type that validates checks its arguments, then calls ``super().__init__``.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Fields named by the class annotations; equal when the class and every
    field agree."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        if fields:
            # one field's getter gives its bare value, several a tuple of them
            cls._fields, cls._field_values = fields, attrgetter(*fields)

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._field_values(self) == other._field_values(other)
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"


class Frozen(Record):
    """A record whose fields are set once, by :meth:`__init__`, and are
    hashed as a tuple (so a record holding a dict is unhashable)."""

    __slots__ = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        # for records with a __dict__; types with __slots__ use object.__setattr__
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # Copied in from a whole dict, the instance dict shares no keys with
        # the class, which CPython 3.11 reads about twice as fast as a dict
        # filled one key at a time.
        self.__dict__.update(dict(zip(fields, args)))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in ``_fields`` order, or the ``TypeError`` a
        ``def`` with those parameters would raise."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, {len(args)} given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for field in fields:
            if field not in values:
                if field not in cls.__dict__:
                    raise TypeError(f"{name}() missing argument {field!r}")
                values[field] = cls.__dict__[field]
        return [values[f] for f in fields]

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(Frozen):
    law: str
    detail: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.law}: {self.detail}"


class LawReport(Frozen):
    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed
