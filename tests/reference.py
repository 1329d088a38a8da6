"""Plane geometry and the Fraction conversion that the tests check dyhat with.

dyhat decides isomorphism from hat parameters and never needs these.  The
tests use them to state the paper's invariants (area, side types, boundary
triples, closure under midpoints, the pointed class of a hat of either
parity) and to compare the integer arithmetic with stdlib Fraction.
"""

from fractions import Fraction
from math import gcd

from dyhat.dyadic import DyadicRational, common_scale, odd_gcd
from dyhat.errors import NotDyadic
from dyhat.geometry import AffineMap, Matrix2, Point2
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


def pointed_canonical(h: Hat) -> EncodingTriple:
    """Reduce i to the odd representative of its pointed class in 1..2j-1.

    Odd i moves by multiples of 2j; even i passes through i + j first.
    """
    two_j = 2 * h.j
    if h.is_representative:
        return EncodingTriple(h.i % two_j, h.j, h.m)
    return EncodingTriple((h.i + h.j) % two_j, h.j, h.m)
