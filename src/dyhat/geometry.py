"""Exact planar geometry over the dyadic rationals.

Points, 2x2 matrices and affine maps with entries in Z[1/2], plus the
triangle invariants (area, side types, boundary triples) that drive the
classification.  A map is a unit when its determinant is +-2**k; exactly the
units are invertible over the dyadics.

A Triangle is stored as its six vertex coordinates in common_scale form:
integers times one common power of two.  Triangle(vertices) clears the
powers of two once; Triangle.from_scaled starts from the integers.  An
AffineMap is stored the same way, its four linear entries and its two
translation coordinates each as integers and one exponent.  Triangle.vertices
and AffineMap.linear / .translation are Point2, Matrix2 and DyadicRational
views, built on first access and then kept; the collinearity check,
hats.hat_of and affine_through read the integers and build none of them.
affine_through is the one integer Cramer solve: it gives hats.normalize its
witness and the oracle its maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple

from .dyadic import (
    DyadicRational,
    HALF,
    ONE,
    common_scale,
    odd_gcd,
    odd_part,
    reduce_scale,
    val2,
)
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


class AffineMap:
    """p |-> linear @ p + translation.

    Stored as two common_scale forms (ints, e): the linear entries
    (a, b, c, d) and the translation (x, y).  linear and translation are
    views built on first access.  Equality compares the integers; hash,
    repr and pickling are those of a frozen dataclass of (linear,
    translation).
    """

    __slots__ = ("_scaled", "_linear", "_translation")

    def __init__(self, linear: Matrix2, translation: Point2):
        self._scaled = (
            common_scale(linear.a, linear.b, linear.c, linear.d),
            common_scale(translation.x, translation.y),
        )
        self._linear = linear
        self._translation = translation

    @classmethod
    def from_scaled(
        cls, linear: tuple[Iterable[int], int], translation: tuple[Iterable[int], int]
    ) -> "AffineMap":
        """The map with entries n[k] * 2**e for (n, e) = linear and
        translation; any power of two common to a group's integers moves
        into its exponent."""
        f = cls.__new__(cls)
        f._scaled = (reduce_scale(*linear), reduce_scale(*translation))
        f._linear = f._translation = None
        return f

    @property
    def linear(self) -> Matrix2:
        if self._linear is None:
            n, e = self._scaled[0]
            self._linear = Matrix2(*(DyadicRational(k, e) for k in n))
        return self._linear

    @property
    def translation(self) -> Point2:
        if self._translation is None:
            (x, y), e = self._scaled[1]
            self._translation = Point2(DyadicRational(x, e), DyadicRational(y, e))
        return self._translation

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self):
        return hash((self.linear, self.translation))

    def __repr__(self) -> str:
        return f"AffineMap(linear={self.linear!r}, translation={self.translation!r})"

    def __reduce__(self):
        return self.from_scaled, self._scaled

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
    na, nb = w1x * u2y - w2x * u1y, w2x * u1x - w1x * u2x
    nc, nd = w1y * u2y - w2y * u1y, w2y * u1x - w1y * u2x
    if na % odd or nb % odd or nc % odd or nd % odd:
        return None
    a, b, c, d = na // odd, nb // odd, nc // odd, nd // odd
    v = val2(det)
    # linear is (a, b, c, d) * 2**(dst_exp - src_exp - v), so the translation
    # t0 - linear(s0) is an integer pair times 2**(dst_exp - v)
    return AffineMap.from_scaled(
        ((a, b, c, d), dst_exp - src_exp - v),
        (((bx << v) - a * ax - b * ay, (by << v) - c * ax - d * ay), dst_exp - v),
    )


class Triangle:
    """Three non-collinear dyadic vertices; degeneracy is rejected here.

    Stored as integers n and one exponent e with coordinate k ==
    n[k] * 2**e, in the order (x0, y0, x1, y1, x2, y2): the common_scale of
    the coordinates.  vertices is a view built on first access.  Equality
    compares the integers; hash, repr and pickling are those of a frozen
    dataclass of vertices.
    """

    __slots__ = ("_scaled", "_vertices")

    def __init__(self, vertices: tuple[Point2, Point2, Point2]):
        a, b, c = vertices
        self._scaled = common_scale(a.x, a.y, b.x, b.y, c.x, c.y)
        self._vertices = vertices
        self._reject_collinear()

    @classmethod
    def from_scaled(cls, ints: Iterable[int], e: int) -> "Triangle":
        """The triangle with coordinates ints[k] * 2**e, in the order
        (x0, y0, x1, y1, x2, y2); equal to Triangle(vertices) for those
        vertices, without building them."""
        t = cls.__new__(cls)
        t._scaled = reduce_scale(ints, e)
        t._vertices = None
        t._reject_collinear()
        return t

    def _reject_collinear(self) -> None:
        (ax, ay, bx, by, cx, cy), _ = self._scaled
        if (bx - ax) * (cy - ay) == (by - ay) * (cx - ax):
            a, b, c = self.vertices
            raise DegenerateTriangle(f"vertices {a}, {b}, {c} are collinear")

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        if self._vertices is None:
            n, e = self._scaled
            self._vertices = tuple(
                Point2(DyadicRational(n[k], e), DyadicRational(n[k + 1], e))
                for k in (0, 2, 4)
            )
        return self._vertices

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self):
        return hash((self.vertices,))

    def __repr__(self) -> str:
        return f"Triangle(vertices={self.vertices!r})"

    def __reduce__(self):
        return self.from_scaled, self._scaled

    def scaled_coords(
        self, order: tuple[int, int, int] = (0, 1, 2)
    ) -> tuple[tuple[int, ...], int]:
        """(x, y) integers of vertices[order[0]], [order[1]], [order[2]],
        flattened, with the common exponent: the common_scale of those
        coordinates."""
        n, e = self._scaled
        i, j, k = order
        return (n[2 * i], n[2 * i + 1], n[2 * j], n[2 * j + 1],
                n[2 * k], n[2 * k + 1]), e

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
