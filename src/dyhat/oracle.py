"""Independent exact isomorphism oracle.

Decides whether an affine map carries one triangle onto another by solving
the vertex correspondence equations with integer Cramer's rule on the
integer coordinates each Triangle holds: the solved map qualifies when its
entries are dyadic and its determinant is +-2**k.  _solve_scaled is the
one Cramer solve.  It reads the source's Triangle.cramer_source (edge
vectors and determinant, set when the triangle was built) and the target's
stored integers in correspondence order; the target's determinant is the
odd part in the target's own cramer_source, up to sign, since reordering
the vertices changes only its sign.  It returns the solved map's integers,
or None, and has two consumers: solve_correspondence builds an AffineMap
from them (AffineMap.from_scaled; its linear part and translation are
built only when read), and realized_cases runs all six correspondences
and returns only their letters, building no map, which is how a census
checks every hat.  realized_correspondences is the one loop that yields
maps, and oracle_isomorphic takes its first item, so its solves stop at
the first hit.  hats.normalize solves its witness through
solve_correspondence too, after hat_of has found the hat.  This route
shares no logic with the number-theoretic criteria or with hats.hat_of,
so each side checks the other.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

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


def _solve_scaled(
    src: Triangle, dst: Triangle, perm: tuple[int, int, int]
) -> tuple[tuple[tuple[int, ...], int], tuple[tuple[int, int], int]] | None:
    """The Cramer solve: the (linear, translation) integers and exponents
    of the unit affine map sending vertex k of src to vertex perm[k] of
    dst, in AffineMap.from_scaled's form, or None when that unique affine
    map is not a dyadic unit.

    With source determinant odd * 2**v, an entry is dyadic exactly when odd
    divides its numerator, and the map is a unit exactly when the target's
    determinant has the odd part +-odd.
    """
    (ax, ay, u1x, u1y, u2x, u2y), odd, v, src_exp = src.cramer_source
    if dst.cramer_source[1] not in (odd, -odd):
        return None
    n, dst_exp = dst.scaled_coords()
    p, q, r = 2 * perm[0], 2 * perm[1], 2 * perm[2]
    bx, by = n[p], n[p + 1]
    w1x, w1y, w2x, w2y = n[q] - bx, n[q + 1] - by, n[r] - bx, n[r + 1] - by
    na, nb = w1x * u2y - w2x * u1y, w2x * u1x - w1x * u2x
    nc, nd = w1y * u2y - w2y * u1y, w2y * u1x - w1y * u2x
    if na % odd or nb % odd or nc % odd or nd % odd:
        return None
    a, b, c, d = na // odd, nb // odd, nc // odd, nd // odd
    # linear is (a, b, c, d) * 2**(dst_exp - src_exp - v), so the translation
    # t0 - linear(s0) is an integer pair times 2**(dst_exp - v)
    return (
        ((a, b, c, d), dst_exp - src_exp - v),
        (((bx << v) - a * ax - b * ay, (by << v) - c * ax - d * ay), dst_exp - v),
    )


def solve_correspondence(
    src: Triangle, dst: Triangle, perm: tuple[int, int, int]
) -> AffineMap | None:
    """The unit affine map sending vertex k of src to vertex perm[k] of dst,
    or None when that unique affine map is not a dyadic unit: the map of
    _solve_scaled's integers."""
    solved = _solve_scaled(src, dst, perm)
    return None if solved is None else AffineMap.from_scaled(*solved)


def realized_cases(src: Triangle, dst: Triangle) -> str:
    """The cases (letters in CASES order) of the correspondences realized by
    a unit map: all six solved, and no map built."""
    return "".join([
        corr.case
        for corr in CORRESPONDENCES
        if _solve_scaled(src, dst, corr.perm) is not None
    ])


def realized_correspondences(
    src: Triangle, dst: Triangle
) -> Iterator[tuple[Correspondence, AffineMap]]:
    """Each correspondence (in the fixed order) realized by a unit map, with
    that map.  The solves run lazily: a caller that stops at an item leaves
    the later correspondences unsolved."""
    for corr in CORRESPONDENCES:
        solved = solve_correspondence(src, dst, corr.perm)
        if solved is not None:
            yield corr, solved


def oracle_isomorphic(
    src: Triangle, dst: Triangle
) -> tuple[Correspondence, AffineMap] | None:
    """First correspondence (in the fixed order) realized by a unit map."""
    return next(realized_correspondences(src, dst), None)
