"""Exact arithmetic in Z[1/2], the ring of dyadic rationals.

A value is kept in the canonical form ``num * 2**exp`` with ``num`` odd, zero
being stored as ``(0, 0)``.  Canonical form is unique per value, so equality
is a plain field comparison, and a pickle holds the two fields.  An integral
value hashes like the int it equals, so it finds that int in a set or dict.
All operations are exact; anything that would leave the ring raises
``NotDyadic``.

Record, at the top, states once the policy of dyhat's value records; every
record in dyhat is a namedtuple built on it.
"""

from __future__ import annotations

import math
import sys
from itertools import islice
from typing import Iterable

from .errors import DivisionByZero, NotDyadic


class Record:
    """The policy of dyhat's value records, each declared as
    ``class Name(Record, namedtuple("Name", fields))``.

    A record is an immutable tuple of its fields.  It equals only another
    record of the same class, hashes as the tuple of its fields and has no
    order and no tuple arithmetic (+ and *, either side).  _make, _replace,
    copy and pickle all build through the class's own constructor, so a
    record that validates its fields in __new__ is validated on every
    route.  Record comes first among the bases so that its _make shadows
    the namedtuple's, which would skip __new__.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, values: Iterable):
        return cls(*values)

    def __reduce__(self):
        return self.__class__, tuple(self)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __lt__(self, other):
        raise TypeError(f"{self.__class__.__name__} values have no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __add__(self, other):
        raise TypeError(f"{self.__class__.__name__} values have no arithmetic")

    __radd__ = __mul__ = __rmul__ = __add__


class DyadicRational:
    """A dyadic rational, canonicalized on construction.

    ``DyadicRational(num, exp)`` represents ``num * 2**exp``; any integer
    ``num`` is accepted and reduced to the odd-or-zero canonical form.
    ``DyadicRational(n)`` wraps an integer.  ``num`` and ``exp`` must each
    be exactly an int: a bool, float or Fraction raises NotDyadic.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num.__class__ is not int:
            raise NotDyadic(f"a dyadic rational needs an int numerator, got "
                            f"{num.__class__.__name__}")
        if exp.__class__ is not int:
            raise NotDyadic(f"a dyadic rational needs an int exponent, got "
                            f"{exp.__class__.__name__}")
        if num == 0:
            self.num = 0
            self.exp = 0
        else:
            k = (num & -num).bit_length() - 1
            self.num = num >> k
            self.exp = exp + k

    def to_fraction(self) -> Fraction:
        from fractions import Fraction

        if self.exp >= 0:
            return Fraction(self.num << self.exp)
        return Fraction(self.num, 1 << -self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self):
        if self.exp >= 0:
            # the hash of the equal int, num << exp, without building it
            return hash(self.num * pow(2, self.exp, sys.hash_info.modulus))
        return hash((self.num, self.exp))

    def __reduce__(self):
        return DyadicRational, (self.num, self.exp)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.num, self.exp)

    def __abs__(self) -> "DyadicRational":
        return DyadicRational(abs(self.num), self.exp)

    def __add__(self, other) -> "DyadicRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.num == 0:
            return other
        if other.num == 0:
            return self
        e = min(self.exp, other.exp)
        return DyadicRational(
            (self.num << (self.exp - e)) + (other.num << (other.exp - e)), e
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "DyadicRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # odd * odd is odd, so no renormalization happens in the constructor
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DyadicRational":
        """Exact division; raises NotDyadic when the quotient leaves Z[1/2]."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num == 0:
            raise DivisionByZero("division of a dyadic rational by zero")
        if self.num == 0:
            return DyadicRational(0)
        if self.num % other.num:
            raise NotDyadic(f"{self!r} / {other!r} is not a dyadic rational")
        return DyadicRational(self.num // other.num, self.exp - other.exp)

    def __float__(self) -> float:
        return self.num * 2.0 ** self.exp

    def __repr__(self) -> str:
        return f"DyadicRational({self.num}, {self.exp})"


def _coerce(value) -> "DyadicRational":
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, int):
        # int() so that a bool compares and computes as the int it equals
        return DyadicRational(int(value))
    return NotImplemented


def common_scale(*values: DyadicRational) -> tuple[tuple[int, ...], int]:
    """Integers n and one exponent e with values[k] == n[k] * 2**e.

    e is the least exponent of a nonzero value (0 when every value is zero),
    so at least one n[k] is odd unless all are zero.
    """
    e = min((v.exp for v in values if v.num), default=0)
    return tuple(v.num << (v.exp - e) if v.num else 0 for v in values), e


_EXACT_INT = frozenset([int])


def reduce_scale(ints: Iterable[int], e: int) -> tuple[tuple[int, ...], int]:
    """common_scale of the values ints[k] * 2**e, computed on the integers:
    the power of two that divides all of them moves into the exponent, and
    a bool comes back as the int it equals.  NotDyadic refuses ints that
    are not a sequence, and a value or an exponent that is not an int.  A
    tuple is taken as it is; any other iterable is read at most seven
    items deep, one more than the six of a triangle."""
    try:
        if ints.__class__ is not tuple:
            ints = tuple(islice(ints, 7))
    except TypeError:
        raise NotDyadic("scaled values must be a sequence of integers, got "
                        f"{ints.__class__.__name__}") from None
    try:
        g = math.gcd(*ints)
    except TypeError:
        bad = next(n for n in ints if not isinstance(n, int)).__class__.__name__
        raise NotDyadic(f"scaled values must be integers, got {bad}") from None
    if not isinstance(e, int):
        raise NotDyadic(f"a scale exponent must be an integer, got {e.__class__.__name__}")
    if e.__class__ is not int or not _EXACT_INT.issuperset(map(type, ints)):
        # DyadicRational takes exact ints only, and a bool is not one
        ints, e = tuple(map(int, ints)), int(e)
    if g & 1:
        return ints, e
    if not g:
        return ints, 0
    v = (g & -g).bit_length() - 1
    return tuple([n >> v for n in ints]), e + v
