"""Exact planar geometry over the dyadic rationals.

Points, 2x2 matrices and affine maps with entries in Z[1/2], plus the
triangle invariants (area, side types, boundary triples) that drive the
classification.  A map is a unit when its determinant is +-2**k; exactly the
units are invertible over the dyadics.

A Triangle also holds its six vertex coordinates as integers times one
common power of two, cleared once when it is built; the collinearity check,
hats.hat_of and affine_through read those integers instead of clearing the
coordinates again.  affine_through is the one integer Cramer solve: it
gives hats.normalize its witness and the oracle its maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import NamedTuple

from .dyadic import DyadicRational, HALF, ONE, common_scale, odd_gcd, odd_part, val2
from .errors import DegenerateTriangle, EqualPoints, NotInvertibleOverD


def _dy(value) -> DyadicRational:
    return value if isinstance(value, DyadicRational) else DyadicRational(value)


@dataclass(frozen=True)
class Point2:
    x: DyadicRational
    y: DyadicRational

    @staticmethod
    def of(x, y) -> "Point2":
        return Point2(_dy(x), _dy(y))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.y)

    def scaled(self, r) -> "Point2":
        r = _dy(r)
        return Point2(self.x * r, self.y * r)


ORIGIN = Point2.of(0, 0)


def weighted_mean(a: Point2, b: Point2, r: DyadicRational) -> Point2:
    """The affine combination a*(1-r) + b*r."""
    r = _dy(r)
    return a.scaled(ONE - r) + b.scaled(r)


def midpoint(a: Point2, b: Point2) -> Point2:
    return weighted_mean(a, b, HALF)


def _cross(u: Point2, v: Point2) -> DyadicRational:
    return u.x * v.y - u.y * v.x


@dataclass(frozen=True)
class Matrix2:
    """Row-major 2x2 matrix [[a, b], [c, d]] acting on column vectors."""

    a: DyadicRational
    b: DyadicRational
    c: DyadicRational
    d: DyadicRational

    @staticmethod
    def of(a, b, c, d) -> "Matrix2":
        return Matrix2(_dy(a), _dy(b), _dy(c), _dy(d))

    @staticmethod
    def identity() -> "Matrix2":
        return Matrix2.of(1, 0, 0, 1)

    def det(self) -> DyadicRational:
        return self.a * self.d - self.b * self.c

    def is_unit(self) -> bool:
        """True when det = +-2**k, i.e. the matrix is invertible over Z[1/2]."""
        return abs(self.det().num) == 1

    def apply(self, p: Point2) -> Point2:
        return Point2(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def invert(self) -> "Matrix2":
        det = self.det()
        if abs(det.num) != 1:
            raise NotInvertibleOverD(
                f"determinant {det!r} is not +-2**k, no dyadic inverse"
            )
        return Matrix2(self.d / det, -self.b / det, -self.c / det, self.a / det)


@dataclass(frozen=True)
class AffineMap:
    """p |-> linear @ p + translation."""

    linear: Matrix2
    translation: Point2

    @staticmethod
    def identity() -> "AffineMap":
        return AffineMap(Matrix2.identity(), ORIGIN)

    @staticmethod
    def from_linear(m: Matrix2) -> "AffineMap":
        return AffineMap(m, ORIGIN)

    @staticmethod
    def from_translation(t: Point2) -> "AffineMap":
        return AffineMap(Matrix2.identity(), t)

    def apply(self, p: Point2) -> Point2:
        return self.linear.apply(p) + self.translation

    __call__ = apply

    def __matmul__(self, other: "AffineMap") -> "AffineMap":
        """Composition self after other."""
        return AffineMap(
            self.linear @ other.linear,
            self.linear.apply(other.translation) + self.translation,
        )

    def det(self) -> DyadicRational:
        return self.linear.det()

    def is_unit(self) -> bool:
        return self.linear.is_unit()

    def invert(self) -> "AffineMap":
        inv = self.linear.invert()
        return AffineMap(inv, -inv.apply(self.translation))


def affine_through(
    src: tuple[tuple[int, ...], int], dst: tuple[tuple[int, ...], int]
) -> AffineMap | None:
    """The unit affine map sending source point k to target point k, or None.

    Each side is three non-collinear points given as common_scale output
    (ints, e): the flattened integers (x0, y0, x1, y1, x2, y2) and one
    exponent, as Triangle.scaled_coords returns them.  Cramer's rule on the
    integers: an entry is dyadic exactly when the odd part of the source
    determinant divides its numerator, and the map is a unit exactly when
    both determinants have the same odd part up to sign.
    """
    (ax, ay, px, py, qx, qy), src_exp = src
    (bx, by, rx, ry, sx, sy), dst_exp = dst
    u1x, u1y, u2x, u2y = px - ax, py - ay, qx - ax, qy - ay
    w1x, w1y, w2x, w2y = rx - bx, ry - by, sx - bx, sy - by
    det = u1x * u2y - u1y * u2x
    odd = odd_part(det)
    if odd_part(w1x * w2y - w1y * w2x) not in (odd, -odd):
        return None
    nums = (w1x * u2y - w2x * u1y, w2x * u1x - w1x * u2x,
            w1y * u2y - w2y * u1y, w2y * u1x - w1y * u2x)
    if any(n % odd for n in nums):
        return None
    a, b, c, d = (n // odd for n in nums)
    v = val2(det)
    exp = dst_exp - src_exp - v
    # linear is (a, b, c, d) * 2**exp, so the translation t0 - linear(s0)
    # is an integer pair times 2**(dst_exp - v)
    shift = Point2(DyadicRational((bx << v) - a * ax - b * ay, dst_exp - v),
                   DyadicRational((by << v) - c * ax - d * ay, dst_exp - v))
    return AffineMap(Matrix2(*(DyadicRational(n, exp) for n in (a, b, c, d))), shift)


@dataclass(frozen=True)
class Triangle:
    """Three non-collinear dyadic vertices; degeneracy is rejected here.

    The six coordinates are also held as integers n and one exponent e with
    coordinate k == n[k] * 2**e (common_scale, run once here); that field
    takes no part in equality, hashing or repr.
    """

    vertices: tuple[Point2, Point2, Point2]
    _scaled: tuple[tuple[int, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, c = self.vertices
        scaled = common_scale(a.x, a.y, b.x, b.y, c.x, c.y)
        (ax, ay, bx, by, cx, cy), _ = scaled
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            raise DegenerateTriangle(f"vertices {a}, {b}, {c} are collinear")
        object.__setattr__(self, "_scaled", scaled)

    def scaled_coords(
        self, order: tuple[int, int, int] = (0, 1, 2)
    ) -> tuple[tuple[int, ...], int]:
        """(x, y) integers of vertices[order[0]], [order[1]], [order[2]],
        flattened, with the common exponent: the common_scale of those
        coordinates."""
        n, e = self._scaled
        i, j, k = (2 * r for r in order)
        return (n[i], n[i + 1], n[j], n[j + 1], n[k], n[k + 1]), e

    @staticmethod
    def of(a, b, c) -> "Triangle":
        def pt(p):
            return p if isinstance(p, Point2) else Point2.of(*p)

        return Triangle((pt(a), pt(b), pt(c)))

    def transformed(self, f: AffineMap) -> "Triangle":
        a, b, c = self.vertices
        return Triangle((f.apply(a), f.apply(b), f.apply(c)))


def twice_area(t: Triangle) -> DyadicRational:
    """Absolute cross product of two edge vectors (twice the area)."""
    a, b, c = t.vertices
    return abs(_cross(b - a, c - a))


def segment_type(p: Point2, q: Point2) -> int:
    """Odd positive type of the segment from p to q.

    Clear the common power of two from q - p, then take the odd gcd of the
    resulting integer pair.
    """
    if p == q:
        raise EqualPoints("segment endpoints must differ")
    d = q - p
    (a, b), _ = common_scale(d.x, d.y)
    return odd_gcd(a, b)


class BoundaryType(NamedTuple):
    """Side types of the three edges (AB, BC, CA)."""

    r: int
    s: int
    t: int


def boundary_type(tri: Triangle) -> BoundaryType:
    a, b, c = tri.vertices
    return BoundaryType(segment_type(a, b), segment_type(b, c), segment_type(c, a))


def is_valid_boundary_triple(r: int, s: int, t: int) -> bool:
    """Whether the three pairwise gcds agree (realizable boundary triples)."""
    return gcd(r, s) == gcd(s, t) == gcd(r, t)


def boundary_types_equivalent(u: BoundaryType, v: BoundaryType) -> bool:
    """Equality up to cyclic rotation and orientation reversal."""
    r, s, t = u
    forward = {(r, s, t), (s, t, r), (t, r, s)}
    return tuple(v) in forward or tuple(reversed(v)) in forward


def contains(tri: Triangle, p: Point2) -> bool:
    """Whether p lies in the closed triangle, boundary included."""
    a, b, c = tri.vertices
    d1 = _cross(b - a, p - a).sign
    d2 = _cross(c - b, p - b).sign
    d3 = _cross(a - c, p - c).sign
    signs = {d1, d2, d3}
    return not (1 in signs and -1 in signs)
