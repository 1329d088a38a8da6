"""Exceptions shared across the package.

Every input-value failure raises a DomainError subclass, so callers (and the
command line front end) can tell bad data apart from bugs.
"""


class DomainError(Exception):
    """A value outside the domain of the requested operation."""


class NotDyadic(DomainError):
    """The exact result exists over the rationals but not over Z[1/2]."""


class DivisionByZero(DomainError, ZeroDivisionError):
    pass


class ZeroArgument(DomainError):
    """Zero passed where a nonzero value is required."""


class BothZero(DomainError):
    """A gcd-style operation was applied to (0, 0)."""


class DegenerateTriangle(DomainError):
    """The three vertices are collinear (or not distinct)."""


class InvalidHat(DomainError):
    """Hat parameters violate the oddness or positivity requirements."""


class InvalidBounds(DomainError):
    """An enumeration bound is outside its allowed range."""


class ParseError(DomainError, ValueError):
    """Malformed textual input."""


class InconsistencyError(Exception):
    """An internal cross-check failed: a defect in dyhat, not bad input.

    Deliberately not a DomainError, and raised explicitly rather than by
    assert, so that it survives python -O.
    """
