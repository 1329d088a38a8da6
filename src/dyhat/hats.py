"""Hats: normal forms for nondegenerate dyadic triangles.

The hat with parameters (i, j, m) is the triangle with vertices (0, 0),
(i, j), (m, 0); here j and m are odd positive and i is any integer.  Every
dyadic triangle with a chosen vertex role assignment is isomorphic, by a
unit affine map, to exactly one representative hat with i odd in
{1, 3, ..., 2j-1}; that triple encodes the pointed isomorphism class, and
the set of triples over all six role assignments encodes the full class.
hat_of finds that hat on integers alone, and role_triples finds all six,
identity order first; both go through one reduction, _reduce_roles, which
takes the odd part of twice the area once and the extended Euclid of each
of the three edges once, the reversed edge reusing it with the Bezout row
negated.  So one role_triples call per triangle serves both its pointed
class (entry 0, the identity order's hat) and its triple set
(all_encoding_triples), and a caller that needs both reduces once.  normalize
also returns the witness map, for the callers that ask for one: the oracle's
solve_correspondence from the triangle to the hat's triangle, the same solve
that isomorphism witnesses come from.  Hat.triangle builds its triangle
with Triangle.from_scaled, and the witness is stored as integers too: no
DyadicRational is built until a caller reads the vertices or the
witness's linear part or translation.  Hat, EncodingTriple and Normalization
are dyadic.Record values; EncodingTriple alone adds an order, the canonical
(j, m, i) order that canonical_form takes the least triple in.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from typing import Iterable

from .dyadic import Record, egcd, odd_part, val2
from .errors import InconsistencyError, InvalidHat
from .geometry import Triangle
from .oracle import solve_correspondence


def _check_odd_positive(value: int, name: str) -> None:
    if value <= 0 or value % 2 == 0:
        raise InvalidHat(f"{name} must be an odd positive integer, got {value}")


class Hat(Record, namedtuple("Hat", "i j m")):
    """Triangle (0,0), (i,j), (m,0) with odd positive j, m; i unrestricted.
    A Record, validated on every construction route."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, m: int) -> Hat:
        _check_odd_positive(j, "j")
        _check_odd_positive(m, "m")
        return tuple.__new__(cls, (i, j, m))

    @property
    def is_representative(self) -> bool:
        return self.i % 2 != 0

    def triangle(self) -> Triangle:
        return Triangle.from_scaled((0, 0, self.i, self.j, self.m, 0), 0)


class EncodingTriple(Record, namedtuple("EncodingTriple", "i j m")):
    """Pointed class label: odd i in {1, ..., 2j-1} with odd positive j, m.
    A Record, validated on every construction route, except that it is
    ordered by < and > alone, in the canonical (j, m, i) order; <= and >=
    raise TypeError."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, m: int) -> EncodingTriple:
        _check_odd_positive(j, "j")
        _check_odd_positive(m, "m")
        if i % 2 == 0 or not 1 <= i <= 2 * j - 1:
            raise InvalidHat(f"i must be odd in 1..{2 * j - 1}, got {i}")
        return tuple.__new__(cls, (i, j, m))

    def __lt__(self, other: "EncodingTriple") -> bool:
        # canonical order: lexicographic on (j, m, i)
        return (self.j, self.m, self.i) < (other.j, other.m, other.i)

    def __gt__(self, other: "EncodingTriple") -> bool:
        if not isinstance(other, EncodingTriple):
            raise TypeError(
                f"EncodingTriple has no order against {other.__class__.__name__}"
            )
        return other < self

    def __le__(self, other):
        raise TypeError("EncodingTriple values are ordered by < and > only")

    __ge__ = __le__


class Normalization(Record, namedtuple("Normalization", "hat witness")):
    """normalize's result: the representative hat and the witness map; a
    Record."""

    __slots__ = ()


IDENTITY_ROLES = (0, 1, 2)


#: The six vertex role orders, in permutations order.
_ALL_ROLES = tuple(permutations((0, 1, 2)))


def _reduce_roles(
    tri: Triangle, orders: Iterable[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """(i, j, m) of the representative hat for each vertex role order.

    An order (o, a, b) sends vertex o to the origin, a to the apex (i, j)
    and b to (m, 0).  It reads the integer coordinates the triangle already
    holds (the common power of two drops out).  The base (A, B) from o to b
    has gcd g and Bezout row (s, t): m is the odd part of g, j the odd part
    of twice the area over m, and i the apex abscissa (s*p + t*q) /
    2**val2(g) mod j of the apex (p, q) relative to o, lifted to an odd
    residue mod 2j.  The odd part of twice the area is found once, and g,
    (s, t), m, j and 1 / 2**val2(g) mod j once per unordered base edge: the
    reversed edge (-A, -B) takes the Bezout row (-s, -t).  That is exact,
    since another Bezout row moves s*p + t*q by a multiple of twice the
    area over g, which is +-j * 2**w, so i mod j does not change.
    """
    (x0, y0, x1, y1, x2, y2), _ = tri.scaled_coords()
    xs, ys = (x0, x1, x2), (y0, y1, y2)
    odd = abs(odd_part((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)))
    # indexed by o + b, which tells the three edges apart
    edges = [None] * 4
    hats = []
    for o, a, b in orders:
        edge = edges[o + b]
        if edge is None:
            g, s, t = egcd(xs[b] - xs[o], ys[b] - ys[o])
            m = odd_part(g)
            j = odd // m
            edge = edges[o + b] = o, s, t, m, j, pow(2, -val2(g), j)
        origin, s, t, m, j, scale = edge
        if o != origin:
            s, t = -s, -t
        r = (s * (xs[a] - xs[o]) + t * (ys[a] - ys[o])) * scale % j
        hats.append((r if r % 2 else r + j, j, m))
    return hats


def hat_of(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Hat:
    """The representative hat of a triangle for the given vertex roles.

    roles picks which vertex plays which part: vertices[roles[0]] goes to
    the origin, vertices[roles[1]] to the apex (i, j) and vertices[roles[2]]
    to (m, 0); see _reduce_roles.
    """
    if sorted(roles) != [0, 1, 2]:
        raise ValueError("roles must be a permutation of (0, 1, 2)")
    return Hat(*_reduce_roles(tri, (roles,))[0])


def normalize(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Normalization:
    """hat_of(tri, roles) with its witness: the unique unit affine map
    through the three vertex pairs, which equals the composition of a
    translation, a Bezout matrix, rescalings, a reflection and a shear.
    The oracle solves it, sending vertex roles[k] to hat vertex k."""
    hat = hat_of(tri, roles)
    inverse = tuple(roles.index(k) for k in range(3))
    witness = solve_correspondence(tri, hat.triangle(), inverse)
    if witness is None:
        raise InconsistencyError(f"no unit map carries {tri} with roles {roles} to {hat}")
    return Normalization(hat, witness)


def role_triples(tri: Triangle) -> tuple[EncodingTriple, ...]:
    """The encoding triple of each of the six vertex role orders, in
    _ALL_ROLES order: entry 0, the identity order, is the pointed class,
    the i, j, m of hat_of(tri)."""
    return tuple(EncodingTriple(*ijm) for ijm in _reduce_roles(tri, _ALL_ROLES))


def all_encoding_triples(tri: Triangle) -> frozenset[EncodingTriple]:
    """Encoding triples over all six vertex role assignments (1 to 6 values)."""
    return frozenset(role_triples(tri))


def canonical_form(tri: Triangle) -> EncodingTriple:
    """The least encoding triple in the canonical (j, m, i) order."""
    return min(all_encoding_triples(tri))
