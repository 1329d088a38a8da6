"""Hats: normal forms for nondegenerate dyadic triangles.

The hat with parameters (i, j, m) is the triangle with vertices (0, 0),
(i, j), (m, 0); here j and m are odd positive and i is any integer.  Every
dyadic triangle with a chosen vertex role assignment is isomorphic, by a
unit affine map, to exactly one representative hat with i odd in
{1, 3, ..., 2j-1}; that triple encodes the pointed isomorphism class, and
the set of triples over all six role assignments encodes the full class.
role_triples finds the triples of all six vertex role orders on integers
alone, in ROLE_ORDERS order with the identity first, and hat_of reads one
order's entry as a Hat.  The reduction reads Triangle.scaled_coords and
nothing the oracle computes, and the oracle reads nothing the reduction
computes, so role_triples and the oracle check each other.  normalize also
returns the witness map: the oracle's solve_correspondence builds it from
oracle._solve_scaled, the one Cramer pass, run over the one correspondence
from the triangle to its hat; a census runs the same pass over all six
self-correspondences of each hat, map-free.  Hat, EncodingTriple and
Normalization are dyadic.Record values; EncodingTriple alone adds an
order, the canonical (j, m, i) order, which CANONICAL_KEY states as a
C-level key.  Triples are plain ints inside the package; records are built
at the exports: role_triples returns (i, j, m) tuples, and
all_encoding_triples and canonical_form build an EncodingTriple only for
each triple they return.  classify.isomorphic hands every verdict to the
oracle, which checks the reduction there; a census's reduction is not
checked by the oracle (its pass checks each hat's group), only by
CensusRow.ok (the pointed count and the orbit identity) and, in the tests,
by the grid and census digests.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice, permutations
from operator import itemgetter

from .dyadic import Record, egcd
from .errors import InconsistencyError, InvalidHat, require
from .geometry import Triangle
from .oracle import solve_correspondence


def _not_odd_positive(value: int, name: str) -> InvalidHat:
    return InvalidHat(f"{name} must be an odd positive integer, got {value}")


class Hat(Record, namedtuple("Hat", "i j m")):
    """Triangle (0,0), (i,j), (m,0) with odd positive j, m and any i, each
    an int, not a bool.  A Record, validated on every construction route."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, m: int) -> Hat:
        if j.__class__ is not int or j <= 0 or j % 2 == 0:
            raise _not_odd_positive(j, "j")
        if m.__class__ is not int or m <= 0 or m % 2 == 0:
            raise _not_odd_positive(m, "m")
        if i.__class__ is not int:
            raise InvalidHat(f"i must be an integer, got {i}")
        return tuple.__new__(cls, (i, j, m))

    @property
    def is_representative(self) -> bool:
        return self.i % 2 != 0

    def triangle(self) -> Triangle:
        # Triangle.from_scaled without its checks and reduction, which these
        # exact ints with an odd gcd (j is odd) pass unchanged
        t = Triangle.__new__(Triangle)
        t._store(((0, 0, self.i, self.j, self.m, 0), 0))
        return t


#: The canonical order of encoding triples, lexicographic on (j, m, i), as a
#: key: min(triples, key=CANONICAL_KEY) is the least triple.
CANONICAL_KEY = itemgetter(1, 2, 0)


class EncodingTriple(Record, namedtuple("EncodingTriple", "i j m")):
    """Pointed class label: odd i in {1, ..., 2j-1} with odd positive j, m,
    each an int, not a bool.  A Record, validated on every construction
    route, but ordered by < and > alone, in the canonical (j, m, i) order,
    and only against another EncodingTriple; <= and >= raise TypeError."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, m: int) -> EncodingTriple:
        if j.__class__ is not int or j <= 0 or j % 2 == 0:
            raise _not_odd_positive(j, "j")
        if m.__class__ is not int or m <= 0 or m % 2 == 0:
            raise _not_odd_positive(m, "m")
        if i.__class__ is not int or i % 2 == 0 or not 1 <= i <= 2 * j - 1:
            raise InvalidHat(f"i must be odd in 1..{2 * j - 1}, got {i}")
        return tuple.__new__(cls, (i, j, m))

    def _canonical_pair(self, other):
        if not isinstance(other, EncodingTriple):
            raise TypeError(
                f"EncodingTriple has no order against {other.__class__.__name__}"
            )
        return CANONICAL_KEY(self), CANONICAL_KEY(other)

    def __lt__(self, other: "EncodingTriple") -> bool:
        mine, theirs = self._canonical_pair(other)
        return mine < theirs

    def __gt__(self, other: "EncodingTriple") -> bool:
        mine, theirs = self._canonical_pair(other)
        return mine > theirs

    def __le__(self, other):
        raise TypeError("EncodingTriple values are ordered by < and > only")

    __ge__ = __le__


class Normalization(Record, namedtuple("Normalization", "hat witness")):
    """normalize's result: the representative hat and the witness map; a
    Record."""

    __slots__ = ()


IDENTITY_ROLES = (0, 1, 2)

#: The six vertex role orders, which hat_of and normalize accept, in the
#: order that role_triples returns their triples.
ROLE_ORDERS = tuple(permutations(range(3)))


def _role_order(roles) -> tuple[int, int, int]:
    """roles, read once and at most four items deep, as the order in
    ROLE_ORDERS that they equal; anything else, iterable or not, raises
    ValueError."""
    try:
        return ROLE_ORDERS[ROLE_ORDERS.index(tuple(islice(roles, 4)))]
    except (TypeError, ValueError):
        raise ValueError("roles must be a permutation of (0, 1, 2)") from None


def _edge_hats(
    odd: int, ox: int, oy: int, bx: int, by: int, ax: int, ay: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """(i, j, m) of the representative hats of the orders (o, a, b) and
    (b, a, o), from the integer coordinates of o, b and a and the odd part
    odd of twice the area; see role_triples.

    The residue is divided by 2**v modulo j without an inverse modulo j:
    adding q*j with q = -r / j mod 2**v makes r divisible by 2**v, and the
    exact quotient lies in [0, j).  Only the inverse of j modulo 2**v is
    taken, far cheaper than one modulo j, and only when v > 0: every edge
    of a hat has v = 0, and a census reduces nothing but hats."""
    g, s, t = egcd(bx - ox, by - oy)
    v = (g & -g).bit_length() - 1
    m = g >> v
    j = odd // m
    r = (s * (ax - ox) + t * (ay - oy)) % j
    if v:
        r = (r + (-r * pow(j, -1, 1 << v) & ((1 << v) - 1)) * j) >> v
    back = (m - r) % j
    return (r if r % 2 else r + j, j, m), (back if back % 2 else back + j, j, m)


def role_triples(tri: Triangle) -> tuple[tuple[int, int, int], ...]:
    """(i, j, m) of the representative hat for each vertex role order, in
    ROLE_ORDERS order: entry 0, the identity order, is the pointed class,
    the i, j, m of hat_of(tri).

    An order (o, a, b) sends vertex o to the origin, a to the apex (i, j)
    and b to (m, 0).  It reads the integer coordinates the triangle already
    holds (the common power of two drops out).  The base (A, B) from o to b
    has gcd g = m * 2**v, m odd, and Bezout row (s, t): j is the odd part of
    twice the area over m, and i the residue r = (s*p + t*q) / 2**v mod j
    of the apex (p, q) relative to o, lifted to an odd residue mod 2j.  The
    division by 2**v is a 2-adic step, run only when v > 0 (_edge_hats).  Any
    Bezout row gives the same r, since another row moves s*p + t*q by a
    multiple of twice the area over g, which is +-j * 2**w.
    The reversed order (b, a, o) has the same apex and the residue
    (m - r) mod j: with the row (-s, -t) of (-A, -B) and the apex taken
    relative to b = o + (A, B), the numerator is s*A + t*B - (s*p + t*q) =
    g - (s*p + t*q).  Each triple is an encoding triple by construction (m
    divides odd, and i is lifted from r in [0, j)), so no record checks it.
    """
    (x0, y0, x1, y1, x2, y2), _ = tri.scaled_coords()
    twice = abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
    odd = twice >> ((twice & -twice).bit_length() - 1)
    h012, h210 = _edge_hats(odd, x0, y0, x2, y2, x1, y1)
    h021, h120 = _edge_hats(odd, x0, y0, x1, y1, x2, y2)
    h102, h201 = _edge_hats(odd, x1, y1, x2, y2, x0, y0)
    return h012, h021, h102, h120, h201, h210


def hat_of(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Hat:
    """The representative hat of a triangle for the given vertex roles.

    roles picks which vertex plays which part: vertices[roles[0]] goes to
    the origin, vertices[roles[1]] to the apex (i, j) and vertices[roles[2]]
    to (m, 0): role_triples(tri)'s entry for that order.  roles, read once,
    that are not one of the six orders of (0, 1, 2) raise ValueError, and a
    tri that is not a Triangle raises TypeError.
    """
    roles = _role_order(roles)
    require(tri, Triangle, "tri")
    return Hat(*role_triples(tri)[ROLE_ORDERS.index(roles)])


def normalize(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Normalization:
    """hat_of(tri, roles) with its witness: the unique unit affine map
    through the three vertex pairs, which equals the composition of a
    translation, a Bezout matrix, rescalings, a reflection and a shear.
    The oracle solves it, sending vertex roles[k] to hat vertex k."""
    roles = _role_order(roles)
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
