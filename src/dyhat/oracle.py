"""Independent exact isomorphism oracle.

Decides whether an affine map carries one triangle onto another by solving
the vertex correspondence equations with integer Cramer's rule on the
integer coordinates each Triangle holds: the solved map qualifies when its
entries are dyadic and its determinant is +-2**k.  _solve_scaled is the
one Cramer pass over a pair of triangles, a generator.  Once per pair it
reads both triangles' scaled_coords (one read when the target is the
source, as in a census), derives the source's edge vectors and
determinant from them and refuses a target whose determinant has another
odd part.  Then, for each entry of _TARGETS it is given, a correspondence
with its target offsets, it tests the four numerators and yields the
correspondence and the solved map's integers when they make a unit.  Each
question has one consumer of the pass: realized_cases, which cases hold,
over all six and with no map built (a census); oracle_isomorphic, the
first hit and its map, so its tests stop there (isomorphic);
solve_correspondence, one given correspondence and its map
(hats.normalize, automorphism_group).  This route shares no logic and no
computed data with the number-theoretic criteria or with the hat
reduction, hats.role_triples, so each side checks the other.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from typing import Iterable, Iterator

from .dyadic import Record
from .errors import require
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

    The pair's data is read once: the stored integers and exponents of
    src and dst, src's edge vectors and determinant, and the unit test.
    With source determinant odd * 2**v, the map is a unit exactly when the
    target's determinant has the odd part +-odd (reordering the target's
    vertices changes only its sign), so a target without it yields nothing
    and tests no entry; when dst is src, its integers are read and its
    determinant found once, and the test is skipped.  Valuations are taken
    inline, as (n & -n).bit_length() - 1.  An entry's map is dyadic exactly
    when odd divides its four numerators.
    The pass is lazy: a caller that stops at a yield leaves the later
    entries untested.
    """
    n, src_exp = src.scaled_coords()
    ax, ay, x1, y1, x2, y2 = n
    u1x, u1y, u2x, u2y = x1 - ax, y1 - ay, x2 - ax, y2 - ay
    det = u1x * u2y - u1y * u2x
    v = (det & -det).bit_length() - 1
    odd = det >> v
    dst_exp = src_exp
    if dst is not src:
        n, dst_exp = dst.scaled_coords()
        det = (n[2] - n[0]) * (n[5] - n[1]) - (n[3] - n[1]) * (n[4] - n[0])
        if det >> ((det & -det).bit_length() - 1) not in (odd, -odd):
            return
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
    (0, 1, 2), iterable or not, raises ValueError; it is read at most four
    items deep."""
    try:
        targets = _TARGET_OF_PERM[tuple(islice(perm, 4))]
    except (TypeError, KeyError):
        raise ValueError("perm must be a permutation of (0, 1, 2)") from None
    for _, solved in _solve_scaled(src, dst, targets):
        return AffineMap.from_scaled(*solved)
    return None


def realized_cases(src: Triangle, dst: Triangle) -> str:
    """The cases (letters in CASES order) of the correspondences realized by
    a unit map: one pass over all six, and no map built."""
    return "".join([corr.case for corr, _ in _solve_scaled(src, dst, _TARGETS)])


def oracle_isomorphic(
    src: Triangle, dst: Triangle
) -> tuple[Correspondence, AffineMap] | None:
    """First correspondence (in the fixed order) realized by a unit map,
    with that map: the pass stops there, leaving the later correspondences
    untested.  A value that is not a Triangle raises TypeError."""
    require(src, Triangle, "src")
    require(dst, Triangle, "dst")
    for corr, solved in _solve_scaled(src, dst, _TARGETS):
        return corr, AffineMap.from_scaled(*solved)
    return None
