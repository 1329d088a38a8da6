"""Independent exact isomorphism oracle.

Decides whether an affine map carries one triangle onto another by solving
the vertex correspondence equations with integer Cramer's rule on the
integer coordinates each Triangle holds: the solved map qualifies when its
entries are dyadic and its determinant is +-2**k.  _solve_scaled is the
one Cramer pass over a pair of triangles, a generator.  Once per pair it
reads the source's Triangle.cramer_source (edge vectors and determinant,
set when the triangle was built), refuses a target whose determinant has
another odd part (that odd part, up to sign, is in the target's own
cramer_source, since reordering the vertices changes only its sign) and
reads the target's stored integers.  Then, for each entry of _TARGETS it
is given, a correspondence with its target offsets, it tests the four
numerators and yields the correspondence and the solved map's integers
when they make a unit.  It has three consumers: realized_cases joins the
letters of one pass over all six and builds no map, which is how a census
checks every hat; realized_correspondences builds an AffineMap
(AffineMap.from_scaled; its linear part and translation are built only
when read) per item of one lazy pass, and oracle_isomorphic takes its
first item, so its tests stop at the first hit; solve_correspondence runs
the pass over one perm's entry.  hats.normalize solves its witness
through solve_correspondence, after hat_of has found the hat.  This route
shares no logic with the number-theoretic criteria or with hats.hat_of,
so each side checks the other.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Iterator

from .dyadic import Record
from .geometry import AffineMap, Triangle


class Correspondence(Record, namedtuple("Correspondence", "case perm")):
    """Vertex assignment: source vertex k maps to target vertex perm[k]; a
    Record."""

    __slots__ = ()


#: The six correspondences in a fixed order.  Read off the target slot of
#: each source vertex (A, B, C); e.g. case "b" sends A to slot 2, B to
#: slot 1, C to slot 0.
CORRESPONDENCES = (
    Correspondence("a", (0, 1, 2)),
    Correspondence("b", (2, 1, 0)),
    Correspondence("c", (0, 2, 1)),
    Correspondence("d", (1, 2, 0)),
    Correspondence("e", (2, 0, 1)),
    Correspondence("f", (1, 0, 2)),
)

CASES = tuple(c.case for c in CORRESPONDENCES)


def perm_label(perm: tuple[int, int, int]) -> str:
    """perm's entries as vertex letters, e.g. (0, 2, 1) -> "ACB": the images
    of A, B and C for a correspondence (aut), and the vertices sent to
    (0, 0), (i, j) and (m, 0) for a role order (normalize)."""
    return "".join("ABC"[k] for k in perm)


#: The pass's table: one (corr, 2*perm[0], 2*perm[1], 2*perm[2]) entry per
#: correspondence, in CORRESPONDENCES order; 2*k is where target vertex k's
#: integers start in the target's stored (x0, y0, x1, y1, x2, y2).
_TARGETS = tuple(
    (corr, 2 * corr.perm[0], 2 * corr.perm[1], 2 * corr.perm[2])
    for corr in CORRESPONDENCES
)

#: Each perm's one-entry slice of _TARGETS, for solve_correspondence.
_TARGET_OF_PERM = {entry[0].perm: (entry,) for entry in _TARGETS}


def _solve_scaled(
    src: Triangle, dst: Triangle, targets: Iterable[tuple[Correspondence, int, int, int]]
) -> Iterator[tuple[
    Correspondence, tuple[tuple[tuple[int, ...], int], tuple[tuple[int, int], int]]
]]:
    """The Cramer pass: for each entry of targets (entries of _TARGETS, in
    their order) whose unique affine map, sending vertex k of src to
    vertex perm[k] of dst, is a dyadic unit, yield the entry's
    correspondence and that map's (linear, translation) integers and
    exponents, in AffineMap.from_scaled's form.

    The pair's data is read once: src's cramer_source, dst's stored
    integers and exponent, and the unit test.  With source determinant
    odd * 2**v, the map is a unit exactly when the target's determinant
    has the odd part +-odd, so a target without it yields nothing and
    tests no entry; an entry's map is dyadic exactly when odd divides its
    four numerators.  The pass is lazy: a caller that stops at a yield
    leaves the later entries untested.
    """
    (ax, ay, u1x, u1y, u2x, u2y), odd, v, src_exp = src.cramer_source
    if dst.cramer_source[1] not in (odd, -odd):
        return
    n, dst_exp = dst.scaled_coords()
    # linear is (a, b, c, d) * 2**(dst_exp - src_exp - v), so the translation
    # t0 - linear(s0) is an integer pair times 2**(dst_exp - v)
    linear_exp, translation_exp = dst_exp - src_exp - v, dst_exp - v
    for corr, p, q, r in targets:
        bx, by = n[p], n[p + 1]
        w1x, w1y, w2x, w2y = n[q] - bx, n[q + 1] - by, n[r] - bx, n[r + 1] - by
        na, nb = w1x * u2y - w2x * u1y, w2x * u1x - w1x * u2x
        nc, nd = w1y * u2y - w2y * u1y, w2y * u1x - w1y * u2x
        if na % odd or nb % odd or nc % odd or nd % odd:
            continue
        a, b, c, d = na // odd, nb // odd, nc // odd, nd // odd
        yield corr, (
            ((a, b, c, d), linear_exp),
            (((bx << v) - a * ax - b * ay, (by << v) - c * ax - d * ay), translation_exp),
        )


def solve_correspondence(
    src: Triangle, dst: Triangle, perm: tuple[int, int, int]
) -> AffineMap | None:
    """The unit affine map sending vertex k of src to vertex perm[k] of dst,
    or None when that unique affine map is not a dyadic unit: the pass
    over perm's one entry.  A perm that is not one of the six orders of
    (0, 1, 2) raises ValueError."""
    targets = _TARGET_OF_PERM.get(tuple(perm))
    if targets is None:
        raise ValueError("perm must be a permutation of (0, 1, 2)")
    for _, solved in _solve_scaled(src, dst, targets):
        return AffineMap.from_scaled(*solved)
    return None


def realized_cases(src: Triangle, dst: Triangle) -> str:
    """The cases (letters in CASES order) of the correspondences realized by
    a unit map: one pass over all six, and no map built."""
    return "".join([corr.case for corr, _ in _solve_scaled(src, dst, _TARGETS)])


def realized_correspondences(
    src: Triangle, dst: Triangle
) -> Iterator[tuple[Correspondence, AffineMap]]:
    """Each correspondence (in the fixed order) realized by a unit map, with
    that map, from one lazy pass: a caller that stops at an item leaves
    the later correspondences untested."""
    for corr, solved in _solve_scaled(src, dst, _TARGETS):
        yield corr, AffineMap.from_scaled(*solved)


def oracle_isomorphic(
    src: Triangle, dst: Triangle
) -> tuple[Correspondence, AffineMap] | None:
    """First correspondence (in the fixed order) realized by a unit map.  A
    value that is not a Triangle raises TypeError."""
    for name, value in (("src", src), ("dst", dst)):
        if not isinstance(value, Triangle):
            raise TypeError(f"{name} must be a Triangle, got {value.__class__.__name__}")
    return next(realized_correspondences(src, dst), None)
