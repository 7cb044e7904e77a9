"""Exception hierarchy.

Operations distinguish two failure kinds: bad inputs (caller error) and
explicit refusals when an exhaustive computation would exceed its
configured bound.  Law violations are *not* exceptions; they come back as
report data.
"""


class PreshError(Exception):
    """Base class for all library errors."""


class MalformedInputError(PreshError):
    """An argument violates an operation's precondition."""


class EnumerationBoundError(PreshError):
    """An exhaustive enumeration would exceed its bound; we refuse rather
    than silently sample."""

    def __init__(self, message: str, *, required: int, bound: int):
        super().__init__(f"{message} (required {required}, bound {bound})")
        self.required = required
        self.bound = bound
