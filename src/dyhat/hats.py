"""Hats: normal forms for nondegenerate dyadic triangles.

The hat with parameters (i, j, m) is the triangle with vertices (0, 0),
(i, j), (m, 0); here j and m are odd positive and i is any integer.  Every
dyadic triangle with a chosen vertex role assignment is isomorphic, by a
unit affine map, to exactly one representative hat with i odd in
{1, 3, ..., 2j-1}; that triple encodes the pointed isomorphism class, and
the set of triples over all six role assignments encodes the full class.
role_triples finds the triples of all six vertex role orders on integers
alone, in ROLE_ORDERS order with the identity first, and hat_of reads one
order's entry as a Hat; normalize adds the witness map, which the oracle
solves.  role_triples' body, scaled_role_triples, reads a triangle's
stored integers (Triangle.scaled_coords) and nothing the oracle computes,
and the oracle reads nothing the reduction computes, so role_triples and
the oracle check each other.  Triples are plain ints inside the package;
records are built at the exports: role_triples returns (i, j, m) tuples,
and all_encoding_triples and canonical_form build an EncodingTriple only
for each triple they return.  Hat, EncodingTriple and Normalization are
dyadic.Record values, so none has an order; CANONICAL_KEY states the
canonical (j, m, i) order of triples as a C-level key.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import permutations
from math import gcd
from operator import itemgetter

from .dyadic import Record
from .errors import InconsistencyError, InvalidHat, require
from .geometry import Triangle
from .oracle import solve_correspondence, vertex_order


def check_odd_positive(error: type[Exception], *pairs: tuple[str, object]) -> None:
    """Refuse each (name, value) of pairs in turn, raising error, unless the
    value is an odd positive int (not a bool): the check that Hat and
    EncodingTriple share for j, then m, made before their check of i, and
    census's for its bounds."""
    for name, value in pairs:
        if value.__class__ is not int or value <= 0 or value % 2 == 0:
            raise error(f"{name} must be an odd positive integer, got {value!r}")


class Hat(Record, namedtuple("Hat", "i j m")):
    """Triangle (0,0), (i,j), (m,0) with odd positive j, m and any i, each
    an int, not a bool.  A Record, validated on every construction route."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, m: int) -> Hat:
        check_odd_positive(InvalidHat, ("j", j), ("m", m))
        if i.__class__ is not int:
            raise InvalidHat(f"i must be an integer, got {i!r}")
        return tuple.__new__(cls, (i, j, m))

    @property
    def is_representative(self) -> bool:
        return self.i % 2 != 0

    def triangle(self) -> Triangle:
        # Triangle.from_scaled without its checks and reduction, which these
        # exact ints (odd gcd, as j is odd; determinant -j*m != 0) pass as is
        i, j, m = self
        t = Triangle.__new__(Triangle)
        t._scaled = ((0, 0, i, j, m, 0), 0)
        return t


#: The canonical order of encoding triples, lexicographic on (j, m, i), as a
#: key: min(triples, key=CANONICAL_KEY) is the least triple.
CANONICAL_KEY = itemgetter(1, 2, 0)


class EncodingTriple(Record, namedtuple("EncodingTriple", "i j m")):
    """Pointed class label: odd i in {1, ..., 2j-1} with odd positive j, m,
    each an int, not a bool.  A Record, validated on every construction
    route, with no order of its own: CANONICAL_KEY states the canonical
    one."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, m: int) -> EncodingTriple:
        check_odd_positive(InvalidHat, ("j", j), ("m", m))
        if i.__class__ is not int or i % 2 == 0 or not 1 <= i <= 2 * j - 1:
            raise InvalidHat(f"i must be odd in 1..{2 * j - 1}, got {i!r}")
        return tuple.__new__(cls, (i, j, m))


class Normalization(Record, namedtuple("Normalization", "hat witness")):
    """normalize's result: the representative hat and the witness map; a
    Record."""

    __slots__ = ()


IDENTITY_ROLES = (0, 1, 2)

#: The six vertex role orders, which hat_of and normalize accept, in the
#: order that role_triples returns their triples.
ROLE_ORDERS = tuple(permutations(range(3)))


def _edge_hats(
    odd: int, A: int, B: int, p: int, q: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(i, j, m) of the representative hats of the orders (o, a, b) and
    (b, a, o), from the base (A, B) = b - o, the apex (p, q) = a - o and
    the odd part odd of twice the area; see role_triples.  The base takes
    its Bezout row (s, t) inline, dyhat's one extended Euclid: for
    g = gcd(A, B), s = (A/g)**-1 mod |B/g| and the exact t = (g - A*s)/B,
    or (A/g, 0) = (sign(A), 0) when B = 0.

    The residue is divided by 2**v modulo j without an inverse modulo j:
    adding q*j with q = -r / j mod 2**v makes r divisible by 2**v, and the
    exact quotient lies in [0, j).  Only the inverse of j modulo 2**v is
    taken, far cheaper than one modulo j, and only when v > 0: every edge
    of a hat has v = 0, and a census reduces nothing but hats."""
    g = gcd(A, B)
    s = pow(A // g, -1, abs(B // g)) if B else A // g
    t = (g - A * s) // B if B else 0
    v = (g & -g).bit_length() - 1
    m = g >> v
    j = odd // m
    r = (s * p + t * q) % j
    if v:
        r = (r + (-r * pow(j, -1, 1 << v) & ((1 << v) - 1)) * j) >> v
    back = (m - r) % j
    return (r if r % 2 else r + j, j, m), (back if back % 2 else back + j, j, m)


def role_triples(tri: Triangle) -> tuple[tuple[int, int, int], ...]:
    """(i, j, m) of the representative hat for each vertex role order, in
    ROLE_ORDERS order: entry 0, the identity order, is the pointed class,
    the i, j, m of hat_of(tri).  This is scaled_role_triples of the
    integers that tri stores, for callers that hold a Triangle."""
    return scaled_role_triples(tri.scaled_coords())


def scaled_role_triples(
    scaled: tuple[tuple[int, ...], int]
) -> tuple[tuple[int, int, int], ...]:
    """role_triples of the triangle whose scaled_coords() is scaled, read
    from those six integers alone: the census enters here, with each hat's
    ((0, 0, i, j, m, 0), 0) built by hand, and builds no Triangle.

    An order (o, a, b) sends vertex o to the origin, a to the apex (i, j)
    and b to (m, 0).  It reads the integer coordinates (the common power of
    two drops out), and takes the edge vectors (ax, ay) from vertex 0 to
    vertex 1 and (bx, by) from vertex 0 to vertex 2 once: twice the area
    is their determinant, and each order's base and apex relative to o are
    made of them (from vertex 1, vertex 2 lies at (bx - ax, by - ay) and
    vertex 0 at (-ax, -ay)).  When twice the area is even, the powers of
    two that both x parts share, 2**k, and that both y parts share, 2**l,
    are divided out first: diag(2**-k, 2**-l) is a unit map, so every
    order's triple is unchanged, and 2**(k+l) divides twice the area, so
    its odd part is too; the inverses below then run on smaller integers.
    An odd area shares no factor of two, and every hat's is odd, so a
    census pays one test for this.  The base (A, B) from o to b has gcd
    g = m * 2**v, m odd, and Bezout row (s, t): j is the odd part of twice
    the area over m, and i the residue r = (s*p + t*q) / 2**v mod j of the
    apex (p, q) relative to o, lifted to an odd residue mod 2j.  The
    division by 2**v is a 2-adic step, run only when v > 0 (_edge_hats).
    Any Bezout row gives the same r, since another row moves s*p + t*q by
    a multiple of twice the area over g, which is +-j * 2**w.
    The reversed order (b, a, o) has the same apex and the residue
    (m - r) mod j: with the row (-s, -t) of (-A, -B) and the apex taken
    relative to b = o + (A, B), the numerator is s*A + t*B - (s*p + t*q) =
    g - (s*p + t*q).  Each triple is an encoding triple by construction (m
    divides odd, and i is lifted from r in [0, j)), so no record checks it.
    """
    (x0, y0, x1, y1, x2, y2), _ = scaled
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    twice = abs(ax * by - ay * bx)
    w = (twice & -twice).bit_length() - 1
    odd = twice >> w
    if w:
        k, l = ax | bx, ay | by
        k, l = (k & -k).bit_length() - 1, (l & -l).bit_length() - 1
        ax, bx, ay, by = ax >> k, bx >> k, ay >> l, by >> l
    h012, h210 = _edge_hats(odd, bx, by, ax, ay)
    h021, h120 = _edge_hats(odd, ax, ay, bx, by)
    h102, h201 = _edge_hats(odd, bx - ax, by - ay, -ax, -ay)
    return h012, h021, h102, h120, h201, h210


def hat_of(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Hat:
    """The representative hat of a triangle for the given vertex roles.

    roles picks which vertex plays which part: vertices[roles[0]] goes to
    the origin, vertices[roles[1]] to the apex (i, j) and vertices[roles[2]]
    to (m, 0): role_triples(tri)'s entry for that order.  roles, read once,
    that are not one of the six orders of (0, 1, 2) raise ValueError, and a
    tri that is not a Triangle raises TypeError.
    """
    roles = vertex_order(roles, "roles")
    require(tri, Triangle, "tri")
    return Hat(*role_triples(tri)[ROLE_ORDERS.index(roles)])


def normalize(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Normalization:
    """hat_of(tri, roles) with its witness: the unique unit affine map
    through the three vertex pairs, which equals the composition of a
    translation, a Bezout matrix, rescalings, a reflection and a shear.
    The oracle solves it, sending vertex roles[k] to hat vertex k."""
    roles = vertex_order(roles, "roles")
    require(tri, Triangle, "tri")
    return _normalized(tri, roles, role_triples(tri))


def _normalized(
    tri: Triangle, roles: tuple[int, int, int], triples: tuple[tuple[int, int, int], ...]
) -> Normalization:
    """normalize(tri, roles) read off triples, which is role_triples(tri):
    dyhat normalize reduces once for all six orders."""
    hat = Hat(*triples[ROLE_ORDERS.index(roles)])
    inverse = tuple(roles.index(k) for k in range(3))
    witness = solve_correspondence(tri, hat.triangle(), inverse)
    if witness is None:
        raise InconsistencyError(f"no unit map carries {tri} with roles {roles} to {hat}")
    return Normalization(hat, witness)


def all_encoding_triples(tri: Triangle) -> frozenset[EncodingTriple]:
    """Encoding triples over all six vertex role assignments (1 to 6 values).
    A tri that is not a Triangle raises TypeError."""
    require(tri, Triangle, "tri")
    return frozenset(EncodingTriple(*t) for t in set(role_triples(tri)))


def canonical_form(tri: Triangle) -> EncodingTriple:
    """The least encoding triple in the canonical (j, m, i) order.  A tri
    that is not a Triangle raises TypeError."""
    require(tri, Triangle, "tri")
    return EncodingTriple(*min(role_triples(tri), key=CANONICAL_KEY))
