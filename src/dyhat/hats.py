"""Hats: normal forms for nondegenerate dyadic triangles.

The hat with parameters (i, j, m) is the triangle with vertices (0, 0),
(i, j), (m, 0); here j and m are odd positive and i is any integer.  Every
dyadic triangle with a chosen vertex role assignment is isomorphic, by a
unit affine map, to exactly one representative hat with i odd in
{1, 3, ..., 2j-1}; that triple encodes the pointed isomorphism class, and
the set of triples over all six role assignments encodes the full class.
hat_of finds that hat on integers alone; normalize also returns the witness
map, for the callers that ask for one, solved by geometry.affine_through
from the triangle's integers and the hat's.  Hat.triangle builds its
triangle with Triangle.from_scaled, and the witness is stored as integers
too: no DyadicRational is built until a caller reads the vertices or the
witness's linear part or translation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple

from .dyadic import egcd, odd_part, val2
from .errors import InconsistencyError, InvalidHat
from .geometry import AffineMap, Triangle, affine_through


def _check_odd_positive(value: int, name: str) -> None:
    if value <= 0 or value % 2 == 0:
        raise InvalidHat(f"{name} must be an odd positive integer, got {value}")


@dataclass(frozen=True)
class Hat:
    """Triangle (0,0), (i,j), (m,0) with odd positive j, m; i unrestricted."""

    i: int
    j: int
    m: int

    def __post_init__(self):
        _check_odd_positive(self.j, "j")
        _check_odd_positive(self.m, "m")

    @property
    def is_representative(self) -> bool:
        return self.i % 2 != 0

    def triangle(self) -> Triangle:
        return Triangle.from_scaled((0, 0, self.i, self.j, self.m, 0), 0)


@dataclass(frozen=True)
class EncodingTriple:
    """Pointed class label: odd i in {1, ..., 2j-1} with odd positive j, m."""

    i: int
    j: int
    m: int

    def __post_init__(self):
        _check_odd_positive(self.j, "j")
        _check_odd_positive(self.m, "m")
        if self.i % 2 == 0 or not 1 <= self.i <= 2 * self.j - 1:
            raise InvalidHat(
                f"i must be odd in 1..{2 * self.j - 1}, got {self.i}"
            )

    def hat(self) -> Hat:
        return Hat(self.i, self.j, self.m)

    def __lt__(self, other: "EncodingTriple") -> bool:
        # canonical order: lexicographic on (j, m, i)
        return (self.j, self.m, self.i) < (other.j, other.m, other.i)


def kappa(h: Hat) -> Hat:
    """The involution (i, j, m) -> (m - i, j, m); flips the parity of i."""
    return Hat(h.m - h.i, h.j, h.m)


def pointed_canonical(h: Hat) -> EncodingTriple:
    """Reduce i to the odd representative of its pointed class in 1..2j-1.

    Odd i moves by multiples of 2j; even i passes through i + j first.
    """
    two_j = 2 * h.j
    if h.i % 2:
        return EncodingTriple(h.i % two_j, h.j, h.m)
    return EncodingTriple((h.i + h.j) % two_j, h.j, h.m)


class Normalization(NamedTuple):
    hat: Hat
    witness: AffineMap


IDENTITY_ROLES = (0, 1, 2)


def hat_of(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Hat:
    """The representative hat of a triangle for the given vertex roles.

    roles picks which vertex plays which part: vertices[roles[0]] goes to
    the origin, vertices[roles[1]] to the apex (i, j) and vertices[roles[2]]
    to (m, 0).  It reads the integer coordinates the triangle already holds
    (Triangle.scaled_coords; the common power of two drops out).  The base
    (a, b) has gcd g and Bezout row (s, t): m is the odd part of g, j the
    odd part of the height (a*q - b*p) / m of the apex (p, q), and i the
    apex abscissa (s*p + t*q) / 2**val2(g) mod j, lifted to an odd residue
    mod 2j.
    """
    if sorted(roles) != [0, 1, 2]:
        raise ValueError("roles must be a permutation of (0, 1, 2)")
    (x0, y0, x1, y1, x2, y2), _ = tri.scaled_coords(roles)
    a, b, p, q = x2 - x0, y2 - y0, x1 - x0, y1 - y0
    g, s, t = egcd(a, b)
    m = odd_part(g)
    j = abs(odd_part((a * q - b * p) // m))
    r = (s * p + t * q) * pow(2, -val2(g), j) % j
    return Hat(r if r % 2 else r + j, j, m)


def normalize(tri: Triangle, roles: tuple[int, int, int] = IDENTITY_ROLES) -> Normalization:
    """hat_of(tri, roles) with its witness: the unique unit affine map
    through the three vertex pairs, which equals the composition of a
    translation, a Bezout matrix, rescalings, a reflection and a shear."""
    hat = hat_of(tri, roles)
    witness = affine_through(tri.scaled_coords(roles), ((0, 0, hat.i, hat.j, hat.m, 0), 0))
    if witness is None:
        raise InconsistencyError(f"no unit map carries {tri} with roles {roles} to {hat}")
    return Normalization(hat, witness)


def all_encoding_triples(tri: Triangle) -> frozenset[EncodingTriple]:
    """Encoding triples over all six vertex role assignments (1 to 6 values)."""
    return frozenset(
        pointed_canonical(hat_of(tri, roles))
        for roles in permutations((0, 1, 2))
    )


def canonical_form(tri: Triangle) -> EncodingTriple:
    """The least encoding triple in the canonical (j, m, i) order."""
    return min(all_encoding_triples(tri))
