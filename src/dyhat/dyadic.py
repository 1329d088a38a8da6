"""Exact arithmetic in Z[1/2], the ring of dyadic rationals.

A value is kept in the canonical form ``num * 2**exp`` with ``num`` odd, zero
being stored as ``(0, 0)``.  Canonical form is unique per value, so equality
and hashing are plain field comparisons.  All operations are exact; anything
that would leave the ring raises ``NotDyadic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import BothZero, DivisionByZero, NoSolution, NotDyadic, ZeroArgument


def val2(n: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroArgument("val2 is undefined at 0")
    return (n & -n).bit_length() - 1


def odd_part(n: int) -> int:
    """n with all factors of two removed, sign preserved."""
    return n >> val2(n)


def odd_gcd(a: int, b: int) -> int:
    """Largest odd common divisor of a and b (not both zero)."""
    g = math.gcd(a, b)
    if g == 0:
        raise BothZero("odd_gcd(0, 0) is undefined")
    return odd_part(g)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class DyadicRational:
    """A dyadic rational, canonicalized on construction.

    ``DyadicRational(num, exp)`` represents ``num * 2**exp``; any integer
    ``num`` is accepted and reduced to the odd-or-zero canonical form.
    ``DyadicRational(n)`` wraps an integer.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
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
        return hash((self.num, self.exp))

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
        return DyadicRational(value)
    return NotImplemented


def common_scale(*values: DyadicRational) -> tuple[tuple[int, ...], int]:
    """Integers n and one exponent e with values[k] == n[k] * 2**e.

    e is the least exponent of a nonzero value (0 when every value is zero),
    so at least one n[k] is odd unless all are zero.
    """
    e = min((v.exp for v in values if v.num), default=0)
    return tuple(v.num << (v.exp - e) if v.num else 0 for v in values), e


def reduce_scale(ints: Iterable[int], e: int) -> tuple[tuple[int, ...], int]:
    """common_scale of the values ints[k] * 2**e, computed on the integers:
    the power of two that divides all of them moves into the exponent."""
    ints = tuple(ints)
    g = math.gcd(*ints)
    if g & 1:
        return ints, e
    if not g:
        return ints, 0
    v = (g & -g).bit_length() - 1
    return tuple([n >> v for n in ints]), e + v


@dataclass(frozen=True)
class Residue:
    """A residue class value + modulus*Z with an odd positive modulus."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus <= 0 or self.modulus % 2 == 0:
            raise ValueError("modulus must be an odd positive integer")
        if not 0 <= self.value < self.modulus:
            raise ValueError("residue value must lie in [0, modulus)")


def solve_congruence(a: int, b: int, n: int) -> Residue:
    """Solve a*x = b (mod n) for odd positive n.

    Returns the solution class as a Residue mod n // gcd(a, n); raises
    NoSolution when gcd(a, n) does not divide b.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("modulus must be an odd positive integer")
    g = math.gcd(a, n)
    if b % g:
        raise NoSolution(f"{a}*x = {b} (mod {n}) has no solution")
    m = n // g
    x = pow(a // g, -1, m) * ((b // g) % m) % m
    return Residue(x, m)
