"""Exceptions shared across the package.

Every input-value failure raises a DomainError subclass, so callers (and the
command line front end) can tell bad data apart from bugs; each class here
is raised by the package itself.  A value of the wrong type is not a domain
error: require, the one entry check of the exports, refuses it with a
TypeError naming the parameter and the expected type.
"""


class DomainError(Exception):
    """A value outside the domain of the requested operation."""


class NotDyadic(DomainError):
    """The exact result exists over the rationals but not over Z[1/2]."""


class DivisionByZero(DomainError, ZeroDivisionError):
    pass


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


def require(value, kind: type, name: str) -> None:
    """Raise TypeError, naming the parameter and the expected type, unless
    value is a kind."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be a {kind.__name__}, got {value.__class__.__name__}")


def shown(value) -> str:
    """repr(value) for a refusal message, except that an int past 100
    digits, judged by its bit length (2**333 > 10**100) without converting
    it, is shown by its size: a message stays one short line on every
    interpreter, whatever its int-to-str limit."""
    if isinstance(value, int) and value.bit_length() > 333:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    return repr(value)
