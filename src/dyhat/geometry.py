"""Exact planar geometry over the dyadic rationals: stored integers.

A Triangle holds its six coordinates, and an AffineMap its linear entries
and its translation, as integers times one power of two (common_scale
form).  Maps compose, and are tested for being a unit (determinant +-2**k,
exactly the maps invertible over the dyadics), on those integers.
Triangle.vertices and AffineMap.linear / .translation are Point2, Matrix2
and DyadicRational views, built on each read and never kept; Point2 and
Matrix2 are dyadic.Record values with no arithmetic.  A triangle finds its
edge vectors' determinant once, when it is built: that step rejects
collinear vertices and keeps the data of the oracle's Cramer pass as
Triangle.cramer_source.  This module stores values and solves nothing;
oracle._solve_scaled, which reads that data once per pair of triangles and
then tests each vertex correspondence, is the one solve.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .dyadic import DyadicRational, Record, common_scale, reduce_scale, val2
from .errors import DegenerateTriangle, NotDyadic


def _dy(value) -> DyadicRational:
    return value if isinstance(value, DyadicRational) else DyadicRational(value)


class Point2(Record, namedtuple("Point2", "x y")):
    """A point (x, y) with DyadicRational coordinates; a Record."""

    __slots__ = ()

    @staticmethod
    def of(x, y) -> "Point2":
        return Point2(_dy(x), _dy(y))


class Matrix2(Record, namedtuple("Matrix2", "a b c d")):
    """Row-major 2x2 matrix [[a, b], [c, d]] acting on column vectors, with
    DyadicRational entries; a Record."""

    __slots__ = ()


class _Scaled:
    """The stored-integer policy of Triangle and AffineMap: a value equals
    only a value of its own class, compared and hashed on its _scaled
    integers, and a pickle holds those integers and rebuilds the value
    with the class's from_scaled."""

    __slots__ = ("_scaled",)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self):
        return hash(self._scaled)

    def __reduce__(self):
        return self.from_scaled, self._scaled


class AffineMap(_Scaled):
    """p |-> linear @ p + translation.

    Stored as two common_scale forms (ints, e): the linear entries
    (a, b, c, d) and the translation (x, y), under the _Scaled policy.
    linear and translation are views built each time they are read, not
    kept.  Its repr is AffineMap(linear=..., translation=...).
    """

    __slots__ = ()

    def __init__(self, linear: Matrix2, translation: Point2):
        self._scaled = (
            common_scale(linear.a, linear.b, linear.c, linear.d),
            common_scale(translation.x, translation.y),
        )

    @classmethod
    def from_scaled(
        cls, linear: tuple[Iterable[int], int], translation: tuple[Iterable[int], int]
    ) -> "AffineMap":
        """The map with entries n[k] * 2**e for (n, e) = linear and
        translation; any power of two common to a group's integers moves
        into its exponent.  NotDyadic refuses a group that is not an
        (integers, exponent) pair, other than four linear and two
        translation integers, or a value or exponent that is not an int."""
        try:
            linear, translation = reduce_scale(*linear), reduce_scale(*translation)
        except TypeError:
            raise NotDyadic("an affine map needs (integers, exponent) pairs for "
                            "its linear part and its translation") from None
        if len(linear[0]) != 4 or len(translation[0]) != 2:
            raise NotDyadic("an affine map needs 4 linear and 2 translation "
                            f"integers, got {len(linear[0])} and {len(translation[0])}")
        f = cls.__new__(cls)
        f._scaled = (linear, translation)
        return f

    @property
    def linear(self) -> Matrix2:
        n, e = self._scaled[0]
        return Matrix2(*(DyadicRational(k, e) for k in n))

    @property
    def translation(self) -> Point2:
        (x, y), e = self._scaled[1]
        return Point2(DyadicRational(x, e), DyadicRational(y, e))

    def __repr__(self) -> str:
        return f"AffineMap(linear={self.linear!r}, translation={self.translation!r})"

    def __matmul__(self, other: "AffineMap") -> "AffineMap":
        """Composition self after other, on the integers; the two parts of
        the translation meet at the lesser exponent k."""
        ((a, b, c, d), e), ((x, y), s) = self._scaled
        ((p, q, r, u), f), ((ox, oy), g) = other._scaled
        k = min(e + g, s)
        return AffineMap.from_scaled(
            ((a * p + b * r, a * q + b * u, c * p + d * r, c * q + d * u), e + f),
            ((((a * ox + b * oy) << (e + g - k)) + (x << (s - k)),
              ((c * ox + d * oy) << (e + g - k)) + (y << (s - k))), k),
        )

    def is_unit(self) -> bool:
        """True when det = +-2**k, i.e. the map is invertible over Z[1/2]."""
        (a, b, c, d), _ = self._scaled[0]
        det = abs(a * d - b * c)
        return det != 0 and det & (det - 1) == 0


class Triangle(_Scaled):
    """Three non-collinear dyadic vertices; degeneracy is rejected here.

    Stored as integers n and one exponent e with coordinate k ==
    n[k] * 2**e, in the order (x0, y0, x1, y1, x2, y2): the common_scale of
    the coordinates, under the _Scaled policy.  vertices is a view built
    each time it is read, not kept.  Its repr is Triangle(vertices=(...)).
    Unpickling goes through from_scaled, which rejects collinear vertices
    again.

    cramer_source is ((x0, y0, u1x, u1y, u2x, u2y), odd, v, e): the
    integers of vertex 0, the edge vectors u1, u2 from it to vertices 1
    and 2, their determinant u1x*u2y - u1y*u2x == odd * 2**v with odd an
    odd integer, and the exponent e.  It is set when the triangle is
    built, takes no part in equality, hash, repr or pickling, and
    oracle._solve_scaled is its one reader in the package: the Cramer pass,
    which reads it once per pair of triangles, whether it then tests one
    correspondence (solve_correspondence) or all six (realized_cases,
    realized_correspondences).
    """

    __slots__ = ("cramer_source",)

    def __init__(self, vertices: tuple[Point2, Point2, Point2]):
        a, b, c = vertices
        self._store(common_scale(a.x, a.y, b.x, b.y, c.x, c.y))

    @classmethod
    def from_scaled(cls, ints: Iterable[int], e: int) -> "Triangle":
        """The triangle with coordinates ints[k] * 2**e, in the order
        (x0, y0, x1, y1, x2, y2); equal to Triangle(vertices) for those
        vertices, without building them.  NotDyadic refuses ints that are
        not a sequence of six integers, or an exponent that is not an int."""
        t = cls.__new__(cls)
        t._store(reduce_scale(ints, e))
        return t

    def _store(self, scaled: tuple[tuple[int, ...], int]) -> None:
        """Keep scaled and its Cramer data, from one determinant of the edge
        vectors, which is 0 exactly when the vertices are collinear."""
        try:
            (x0, y0, x1, y1, x2, y2), e = scaled
        except ValueError:
            raise NotDyadic(f"a triangle needs 6 integers, got {len(scaled[0])}") from None
        u1x, u1y, u2x, u2y = x1 - x0, y1 - y0, x2 - x0, y2 - y0
        det = u1x * u2y - u1y * u2x
        if not det:
            raise DegenerateTriangle("the three vertices are collinear")
        self._scaled = scaled
        v = val2(det)
        self.cramer_source = (x0, y0, u1x, u1y, u2x, u2y), det >> v, v, e

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        n, e = self._scaled
        return tuple(
            Point2(DyadicRational(n[k], e), DyadicRational(n[k + 1], e))
            for k in (0, 2, 4)
        )

    def __repr__(self) -> str:
        return f"Triangle(vertices={self.vertices!r})"

    def scaled_coords(self) -> tuple[tuple[int, ...], int]:
        """The stored (x0, y0, x1, y1, x2, y2) integers and their common
        exponent: the common_scale of the coordinates."""
        return self._scaled

    @staticmethod
    def of(a, b, c) -> "Triangle":
        def pt(p):
            return p if isinstance(p, Point2) else Point2.of(*p)

        return Triangle((pt(a), pt(b), pt(c)))
