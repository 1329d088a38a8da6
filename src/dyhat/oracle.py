"""Independent exact isomorphism oracle.

Decides whether an affine map carries one triangle onto another by solving
the vertex correspondence equations with integer Cramer's rule on the
integer coordinates each Triangle holds: the solved map qualifies when its
entries are dyadic and its determinant is +-2**k.  _solve_scaled is the
one Cramer pass.  Each question has one consumer of the pass:
realized_cases, which cases hold, with no map built (a census, which asks
it of a hat and itself, where the identity holds untested);
oracle_isomorphic, the first hit and its map (isomorphic);
solve_correspondence, one given correspondence and its map
(hats.normalize, automorphism_group).  This route shares no logic and no
computed data with the number-theoretic criteria or with the hat
reduction, hats.role_triples, so each side checks the other.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from itertools import islice

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

#: Each perm's entry of _TARGETS, keyed by the perm that the entry keeps.
_TARGET_OF_PERM = {entry[0].perm: entry for entry in _TARGETS}

#: _TARGETS without the identity's entry: the pass of a triangle and
#: itself, where case "a" holds untested (realized_cases).
_SELF_TARGETS = _TARGETS[1:]


def vertex_order(order, name: str) -> tuple[int, int, int]:
    """order, read once and at most four items deep, as the permutation of
    (0, 1, 2) that it equals, in the form that CORRESPONDENCES keeps; any
    other value, iterable or not, raises ValueError naming the parameter:
    the one reader of a vertex order (hat_of, normalize and
    solve_correspondence)."""
    try:
        return _TARGET_OF_PERM[tuple(islice(order, 4))][0].perm
    except (TypeError, KeyError):
        raise ValueError(f"{name} must be a permutation of (0, 1, 2)") from None


def _solve_scaled(
    src: Triangle,
    dst: Triangle,
    targets: Iterable[tuple[Correspondence, int, int, int]],
    witness: bool,
):
    """The Cramer pass: test each entry of targets (entries of _TARGETS, in
    their order) for whether its unique affine map, sending vertex k of src
    to vertex perm[k] of dst, is a dyadic unit.  With witness, return the
    first such entry's correspondence and that map's (linear, translation)
    integers and exponents, in AffineMap.from_scaled's form, or None when
    no entry is one; the later entries are left untested.  Without
    witness, test every entry and return the cases of those that are units,
    as letters in targets order, and build no map.

    The pair's data is read once: the stored integers and exponents of
    src and dst, src's edge vectors and determinant, and the unit test.
    With source determinant odd * 2**v, the map is a unit exactly when the
    target's determinant has the odd part +-odd (reordering the target's
    vertices changes only its sign), so a target without it tests no
    entry; when dst is src, its integers are read and its determinant
    found once, and the test is skipped.  Valuations are taken inline, as
    (n & -n).bit_length() - 1.  An entry's map is dyadic exactly when odd
    divides its four numerators, and they are found and tested one at a
    time, so that an entry stops at its first numerator that odd does not
    divide; the map's integers are built only for the hit it returns.
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
            return None if witness else ""
    found = ""
    for corr, p, q, r in targets:
        bx = n[p]
        w1x, w2x = n[q] - bx, n[r] - bx
        na = w1x * u2y - w2x * u1y
        if na % odd:
            continue
        nb = w2x * u1x - w1x * u2x
        if nb % odd:
            continue
        by = n[p + 1]
        w1y, w2y = n[q + 1] - by, n[r + 1] - by
        nc = w1y * u2y - w2y * u1y
        if nc % odd:
            continue
        nd = w2y * u1x - w1y * u2x
        if nd % odd:
            continue
        if not witness:
            found += corr.case
            continue
        a, b, c, d = na // odd, nb // odd, nc // odd, nd // odd
        # linear is (a, b, c, d) * 2**(dst_exp - src_exp - v), so the
        # translation t0 - linear(s0) is an integer pair times 2**(dst_exp - v)
        return corr, (
            ((a, b, c, d), dst_exp - src_exp - v),
            (((bx << v) - a * ax - b * ay, (by << v) - c * ax - d * ay), dst_exp - v),
        )
    return None if witness else found


def solve_correspondence(
    src: Triangle, dst: Triangle, perm: tuple[int, int, int]
) -> AffineMap | None:
    """The unit affine map sending vertex k of src to vertex perm[k] of dst,
    or None when that unique affine map is not a dyadic unit: the pass
    over perm's one entry.  A perm that is not one of the six orders of
    (0, 1, 2), iterable or not, raises ValueError (vertex_order)."""
    perm = vertex_order(perm, "perm")
    hit = _solve_scaled(src, dst, (_TARGET_OF_PERM[perm],), True)
    return hit and AffineMap.from_scaled(*hit[1])


def realized_cases(src: Triangle, dst: Triangle) -> str:
    """The cases (letters in CORRESPONDENCES order) of the correspondences
    realized by a unit map: one pass, and no map built.  When dst is src,
    the pass tests five: case "a" holds untested, with numerators det, 0,
    0, det."""
    if dst is src:
        return "a" + _solve_scaled(src, src, _SELF_TARGETS, False)
    return _solve_scaled(src, dst, _TARGETS, False)


def oracle_isomorphic(
    src: Triangle, dst: Triangle
) -> tuple[Correspondence, AffineMap] | None:
    """First correspondence (in the fixed order) realized by a unit map,
    with that map: the pass stops there, leaving the later correspondences
    untested.  A value that is not a Triangle raises TypeError."""
    require(src, Triangle, "src")
    require(dst, Triangle, "dst")
    hit = _solve_scaled(src, dst, _TARGETS, True)
    return hit and (hit[0], AffineMap.from_scaled(*hit[1]))
