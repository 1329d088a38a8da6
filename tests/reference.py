"""Plane geometry and the Fraction conversion that the tests check dyhat with.

dyhat decides isomorphism from hat parameters and never needs these.  The
tests use them to state the paper's invariants (area, side types, boundary
triples, closure under midpoints, the pointed class of a hat of either
parity) and to compare the integer arithmetic with stdlib Fraction.  A map
is applied, composed and tested for being a unit here on Fraction, read
off its linear and translation views: dyhat itself composes and tests maps
on their integers and applies them only to check normalize's witnesses.

solve_congruence, with its Residue and NoSolution, solves a linear
congruence by modular inversion, as dyhat's isomorphism criteria once did;
the tests check those criteria, which now test the residue class by
multiplication, against it.  hat_by_inverse is the hat reduction with
the inverse of 2**v modulo j taken outright, as it once was.
"""

import math
from collections import namedtuple
from fractions import Fraction
from math import gcd

from dyhat.dyadic import DyadicRational, Record, common_scale, egcd, odd_gcd, odd_part, val2
from dyhat.errors import DomainError, InvalidHat, NotDyadic
from dyhat.geometry import AffineMap, Matrix2, Point2, Triangle
from dyhat.hats import EncodingTriple, Hat
from dyhat.oracle import realized_correspondences

D = DyadicRational
HALF = D(1, -1)


def from_fraction(f: Fraction) -> DyadicRational:
    den = f.denominator
    if den & (den - 1):
        raise NotDyadic(f"{f} has a denominator that is not a power of two")
    return D(f.numerator, 1 - den.bit_length())


def affine(a, b, c, d, tx=0, ty=0) -> AffineMap:
    """p |-> [[a, b], [c, d]] p + (tx, ty), from ints or DyadicRationals."""
    entries = (v if isinstance(v, D) else D(v) for v in (a, b, c, d))
    return AffineMap(Matrix2(*entries), Point2.of(tx, ty))


IDENTITY = affine(1, 0, 0, 1)


def map_fractions(f: AffineMap) -> tuple[Fraction, ...]:
    """(a, b, c, d, tx, ty) of f as Fractions, read off its views."""
    return tuple(v.to_fraction() for v in (*f.linear, *f.translation))


def det(f: AffineMap) -> DyadicRational:
    """The determinant ad - bc of f's linear part, computed on Fraction."""
    a, b, c, d, _, _ = map_fractions(f)
    return from_fraction(a * d - b * c)


def is_unit(f: AffineMap) -> bool:
    """Whether det(f) is +-2**k, on Fraction: a dyadic determinant is a unit
    exactly when its numerator is a power of two up to sign."""
    n = abs(det(f).to_fraction().numerator)
    return n != 0 and n & (n - 1) == 0


def compose(f: AffineMap, g: AffineMap) -> tuple[Fraction, ...]:
    """map_fractions of f after g, composed on Fraction."""
    a, b, c, d, x, y = map_fractions(f)
    p, q, r, u, gx, gy = map_fractions(g)
    return (a * p + b * r, a * q + b * u, c * p + d * r, c * q + d * u,
            a * gx + b * gy + x, c * gx + d * gy + y)


def _apply_fractions(entries: tuple[Fraction, ...], p: Point2) -> Point2:
    """The image of p under the map with map_fractions entries, on Fraction."""
    a, b, c, d, tx, ty = entries
    x, y = p.x.to_fraction(), p.y.to_fraction()
    return Point2(from_fraction(a * x + b * y + tx), from_fraction(c * x + d * y + ty))


def apply(f: AffineMap, p: Point2) -> Point2:
    """f(p), computed on Fraction."""
    return _apply_fractions(map_fractions(f), p)


def transformed(t: Triangle, f: AffineMap) -> Triangle:
    """The triangle with vertices f(a), f(b), f(c), applied on Fraction;
    f's entries are read once for the three."""
    entries = map_fractions(f)
    return Triangle(tuple(_apply_fractions(entries, v) for v in t.vertices))


def reordered(t: Triangle, order: tuple[int, int, int]) -> Triangle:
    """The triangle with vertices t.vertices[order[0]], [order[1]],
    [order[2]], built from t's integers in that order."""
    ints, e = t.scaled_coords()
    return Triangle.from_scaled([ints[2 * k + c] for k in order for c in (0, 1)], e)


def weighted_mean(a: Point2, b: Point2, r: DyadicRational) -> Point2:
    """The affine combination a*(1-r) + b*r."""
    return Point2(a.x * (1 - r) + b.x * r, a.y * (1 - r) + b.y * r)


def midpoint(a: Point2, b: Point2) -> Point2:
    return weighted_mean(a, b, HALF)


def cross(o: Point2, p: Point2, q: Point2) -> DyadicRational:
    """Cross product of p - o and q - o."""
    return (p.x - o.x) * (q.y - o.y) - (p.y - o.y) * (q.x - o.x)


def twice_area(t) -> DyadicRational:
    return abs(cross(*t.vertices))


def segment_type(p: Point2, q: Point2) -> int:
    """Odd gcd of the integers of q - p once their common power of two is
    cleared; BothZero when p == q."""
    (a, b), _ = common_scale(q.x - p.x, q.y - p.y)
    return odd_gcd(a, b)


def boundary_type(t) -> tuple[int, int, int]:
    """Side types of the edges (AB, BC, CA)."""
    a, b, c = t.vertices
    return segment_type(a, b), segment_type(b, c), segment_type(c, a)


def is_valid_boundary_triple(r: int, s: int, t: int) -> bool:
    """Whether the three pairwise gcds agree (realizable boundary triples)."""
    return gcd(r, s) == gcd(s, t) == gcd(r, t)


def boundary_types_equivalent(u, v) -> bool:
    """Equality up to cyclic rotation and orientation reversal."""
    r, s, t = u
    forward = {(r, s, t), (s, t, r), (t, r, s)}
    return tuple(v) in forward or tuple(reversed(v)) in forward


def contains(t, p: Point2) -> bool:
    """Whether p lies in the closed triangle, boundary included."""
    a, b, c = t.vertices
    signs = {(d.num > 0) - (d.num < 0) for d in (cross(a, b, p), cross(b, c, p), cross(c, a, p))}
    return not {1, -1} <= signs


def closure_sample(points, depth: int) -> frozenset:
    """Close a point set under pairwise midpoints, depth rounds."""
    current = set(points)
    for _ in range(depth):
        grown = current | {midpoint(p, q) for p in current for q in current if p != q}
        if grown == current:
            break
        current = grown
    return frozenset(current)


def oracle_aut_count(t) -> int:
    """Number of self-correspondences realized by unit maps (1, 2, 3 or 6)."""
    return sum(1 for _ in realized_correspondences(t, t))


def validate_encoding_triple(i, j, m) -> None:
    """EncodingTriple's validation as three checks in a row: j, then m, each
    an odd positive int, then i an odd int in 1..2j-1 (a bool is not an
    int here).  Raises InvalidHat with the first failed check's message, as
    the constructor must."""
    for value, name in ((j, "j"), (m, "m")):
        if type(value) is not int or value <= 0 or value % 2 == 0:
            raise InvalidHat(f"{name} must be an odd positive integer, got {value}")
    if type(i) is not int or i % 2 == 0 or not 1 <= i <= 2 * j - 1:
        raise InvalidHat(f"i must be odd in 1..{2 * j - 1}, got {i}")


def pointed_canonical(h: Hat) -> EncodingTriple:
    """Reduce i to the odd representative of its pointed class in 1..2j-1.

    Odd i moves by multiples of 2j; even i passes through i + j first.
    """
    two_j = 2 * h.j
    if h.is_representative:
        return EncodingTriple(h.i % two_j, h.j, h.m)
    return EncodingTriple((h.i + h.j) % two_j, h.j, h.m)


class NoSolution(DomainError):
    """The linear congruence has no solution."""


class Residue(Record, namedtuple("Residue", "value modulus")):
    """A residue class value + modulus*Z with an odd positive modulus; a
    Record, validated on every construction route."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int) -> "Residue":
        if modulus <= 0 or modulus % 2 == 0:
            raise ValueError("modulus must be an odd positive integer")
        if not 0 <= value < modulus:
            raise ValueError("residue value must lie in [0, modulus)")
        return tuple.__new__(cls, (value, modulus))


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


def iso_case_by_congruence(h1: Hat, h2: Hat, case: str) -> bool:
    """classify.iso_case for the cases c to f that exchange roles, with the
    class of k found by solve_congruence: k = anchor (mod l)."""
    i, j, m = h1
    k, l, n = h2
    side = i if case in ("c", "e") else m - i
    if n != gcd(side, j) or l * n != m * j:
        return False
    a = solve_congruence(side, n, j)
    anchor = a.value * m if case in ("c", "d") else n - a.value * m
    return (k - anchor) % l == 0


def hat_by_inverse(tri: Triangle, roles: tuple[int, int, int]):
    """((i, j, m), v): the i, j, m of hat_of(tri, roles), with the residue
    divided by 2**v modulo j as r * pow(2, -v, j), and the v of the base
    edge from vertex roles[0] to vertex roles[2]."""
    n, _ = tri.scaled_coords()
    (ox, oy), (ax, ay), (bx, by) = ((n[2 * k], n[2 * k + 1]) for k in roles)
    odd = abs(odd_part((bx - ox) * (ay - oy) - (by - oy) * (ax - ox)))
    g, s, t = egcd(bx - ox, by - oy)
    v = val2(g)
    j = odd // (g >> v)
    r = (s * (ax - ox) + t * (ay - oy)) * pow(2, -v, j) % j
    return (r if r % 2 else r + j, j, g >> v), v
