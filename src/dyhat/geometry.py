"""Exact planar geometry over the dyadic rationals: stored integers.

A Triangle holds its six coordinates, and an AffineMap its linear entries
and its translation, as integers times one power of two (common_scale
form); scaled_coords() reads them back, and no other module reads or
writes them directly.  Maps compose, and are tested for being a unit
(determinant +-2**k, exactly the maps invertible over the dyadics), on
those integers.
Triangle.vertices and AffineMap.linear / .translation are Point2, Matrix2
and DyadicRational views, built on each read and never kept; Point2 and
Matrix2 are dyadic.Record values with no arithmetic.  The Triangle and
AffineMap constructors read each field of their Point2 and Matrix2
arguments through _dy, once, so an int field is taken as the dyadic it
equals and any other non-dyadic is refused.  A triangle is refused when
its edge vectors' determinant is 0, its vertices collinear, and keeps
nothing else: this module stores values and solves nothing.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import islice

from .dyadic import DyadicRational, Record, common_scale, reduce_scale
from .errors import DegenerateTriangle, NotDyadic, require


def _dy(value) -> DyadicRational:
    return value if isinstance(value, DyadicRational) else DyadicRational(value)


class Point2(Record, namedtuple("Point2", "x y")):
    """A point (x, y) with DyadicRational coordinates; a Record."""

    __slots__ = ()


class Matrix2(Record, namedtuple("Matrix2", "a b c d")):
    """Row-major 2x2 matrix [[a, b], [c, d]] acting on column vectors, with
    DyadicRational entries; a Record."""

    __slots__ = ()


class _Scaled:
    """The stored-integer policy of Triangle and AffineMap: a value equals
    only a value of its own class, compared and hashed on its _scaled
    integers, a pickle holds those integers and rebuilds the value with
    the class's from_scaled, and scaled_coords reads them back."""

    __slots__ = ("_scaled",)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._scaled == other._scaled

    def __hash__(self):
        return hash(self._scaled)

    def __reduce__(self):
        return self.from_scaled, self._scaled

    def scaled_coords(self):
        """The stored integers, read back as from_scaled takes them: a
        Triangle's (x0, y0, x1, y1, x2, y2) integers and their common
        exponent, the common_scale of its coordinates; an AffineMap's
        (linear, translation) pair of (integers, exponent) groups."""
        return self._scaled


class AffineMap(_Scaled):
    """p |-> linear @ p + translation.

    Stored as two common_scale forms (ints, e): the linear entries
    (a, b, c, d) and the translation (x, y), under the _Scaled policy.
    linear and translation are views built each time they are read, not
    kept.  Its repr is AffineMap(linear=..., translation=...).  The
    constructor takes a Matrix2 and a Point2, else TypeError, whose fields
    are ints or DyadicRationals, else NotDyadic.
    """

    __slots__ = ()

    def __init__(self, linear: Matrix2, translation: Point2):
        require(linear, Matrix2, "linear")
        require(translation, Point2, "translation")
        self._scaled = (
            common_scale(*map(_dy, linear)), common_scale(*map(_dy, translation))
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
            # unpacking a pair reads at most one item past it
            (n, e), (tn, te) = linear, translation
        except (TypeError, ValueError):
            raise NotDyadic("an affine map needs (integers, exponent) pairs for "
                            "its linear part and its translation") from None
        linear, translation = reduce_scale(n, e), reduce_scale(tn, te)
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
    again.  The constructor takes a tuple of Point2 values, else TypeError,
    three of them, each with int or DyadicRational fields, else NotDyadic;
    Triangle.of also takes (x, y) pairs.
    """

    __slots__ = ()

    def __init__(self, vertices: tuple[Point2, Point2, Point2]):
        require(vertices, tuple, "vertices")
        if len(vertices) != 3:
            raise NotDyadic(f"a triangle needs 3 vertices, got {len(vertices)}")
        for p in vertices:
            require(p, Point2, "vertex")
        self._store(common_scale(*[_dy(z) for p in vertices for z in p]))

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
        """Keep scaled, or refuse collinear vertices: exactly those whose
        edge vectors have determinant 0."""
        try:
            (x0, y0, x1, y1, x2, y2), _ = scaled
        except ValueError:
            raise NotDyadic(f"a triangle needs 6 integers, got {len(scaled[0])}") from None
        if not (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0):
            raise DegenerateTriangle("the three vertices are collinear")
        self._scaled = scaled

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        n, e = self._scaled
        return tuple(
            Point2(DyadicRational(n[k], e), DyadicRational(n[k + 1], e))
            for k in (0, 2, 4)
        )

    def __repr__(self) -> str:
        return f"Triangle(vertices={self.vertices!r})"

    @staticmethod
    def of(a, b, c) -> "Triangle":
        def pt(p):
            if isinstance(p, Point2):
                return p
            try:
                # at most one item past a pair, so an endless p is refused;
                # the constructor reads each field
                return Point2(*islice(p, 3))
            except TypeError:
                raise NotDyadic("a vertex must be a Point2 or an (x, y) pair, got "
                                f"{p.__class__.__name__}") from None

        return Triangle((pt(a), pt(b), pt(c)))
