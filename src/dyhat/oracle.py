"""Independent exact isomorphism oracle.

Decides whether an affine map carries one triangle onto another by solving
the vertex correspondence equations with integer Cramer's rule on the
integer coordinates each Triangle holds: the solved map qualifies when its
entries are dyadic and its determinant is +-2**k.  _solve_scaled is the one
Cramer pass, with one mode: it reads two triangles' stored (integers,
exponent) pairs, tests every correspondence it is given and returns the
cases that hold and the first hit's map integers.  Each question has one
consumer of the pass: realized_cases, which self-correspondences of a
stored pair hold (a census, which builds each hat's pair by hand and no
Triangle, and automorphism_group; the identity holds untested);
oracle_isomorphic, every case between two triangles and the first hit's map
(isomorphic); solve_correspondence, one given correspondence and its map
(hats._checked_witness alone, for normalize and automorphism_group);
correspondence_holds, whether one given correspondence between two stored
pairs holds, with no map (hats.canonical_form and all_encoding_triples,
from a triangle's pair to its hat's pair ((0, 0, i, j, m, 0), 0), built by
hand).  This route shares no logic and no computed data with the
number-theoretic criteria or with the hat reduction, whose one entry is
hats.role_triples(scaled): the reduction and the pass read the same stored
pair as input, and nothing that the other computes, so each side checks
the other.
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
    src: tuple[tuple[int, ...], int],
    dst: tuple[tuple[int, ...], int],
    targets: Iterable[tuple[Correspondence, int, int, int]],
):
    """The Cramer pass on two triangles' scaled_coords() pairs, src and dst:
    test every entry of targets (entries of _TARGETS, in their order) for
    whether its unique affine map, sending vertex k of src to vertex
    perm[k] of dst, is a dyadic unit.  Return (cases, first):
    cases, the letters of the entries that are units, in targets order,
    and first, the first such entry's correspondence with that map's
    (linear, translation) integers and exponents, in AffineMap.from_scaled's
    form, or None when no entry is one.  The pass has this one mode; each
    caller reads the half that answers its question.

    The pair's data is read once: the stored integers and exponents of
    src and dst, src's edge vectors and determinant, and the unit test.
    With source determinant odd * 2**v, the map is a unit exactly when the
    target's determinant has the odd part +-odd (reordering the target's
    vertices changes only its sign), so a target without it tests no
    entry; when dst is src (a Triangle's scaled_coords() is one stored
    pair, so a triangle and itself qualify), its integers are read and its
    determinant found once, and the test is skipped.  Valuations are taken
    inline, as (n & -n).bit_length() - 1.  An entry's map is dyadic exactly
    when odd divides its four numerators, and they are found and tested one
    at a time, so that an entry stops at its first numerator that odd does
    not divide; the map's integers are built for the first hit alone.
    """
    n, src_exp = src
    ax, ay, x1, y1, x2, y2 = n
    u1x, u1y, u2x, u2y = x1 - ax, y1 - ay, x2 - ax, y2 - ay
    det = u1x * u2y - u1y * u2x
    v = (det & -det).bit_length() - 1
    odd = det >> v
    dst_exp = src_exp
    if dst is not src:
        n, dst_exp = dst
        det = (n[2] - n[0]) * (n[5] - n[1]) - (n[3] - n[1]) * (n[4] - n[0])
        if det >> ((det & -det).bit_length() - 1) not in (odd, -odd):
            return "", None
    cases, first = "", None
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
        cases += corr.case
        if first is not None:
            continue
        a, b, c, d = na // odd, nb // odd, nc // odd, nd // odd
        # linear is (a, b, c, d) * 2**(dst_exp - src_exp - v), so the
        # translation t0 - linear(s0) is an integer pair times 2**(dst_exp - v)
        first = corr, (
            ((a, b, c, d), dst_exp - src_exp - v),
            (((bx << v) - a * ax - b * ay, (by << v) - c * ax - d * ay), dst_exp - v),
        )
    return cases, first


def solve_correspondence(
    src: Triangle, dst: Triangle, perm: tuple[int, int, int]
) -> AffineMap | None:
    """The unit affine map sending vertex k of src to vertex perm[k] of dst,
    or None when that unique affine map is not a dyadic unit: the pass
    over perm's one entry.  A perm that is not one of the six orders of
    (0, 1, 2), iterable or not, raises ValueError (vertex_order)."""
    perm = vertex_order(perm, "perm")
    targets = (_TARGET_OF_PERM[perm],)
    hit = _solve_scaled(src.scaled_coords(), dst.scaled_coords(), targets)[1]
    return hit and AffineMap.from_scaled(*hit[1])


def correspondence_holds(src: tuple, dst: tuple, perm: tuple[int, int, int]) -> bool:
    """Whether a unit map sends vertex k of the triangle whose
    scaled_coords() is src to vertex perm[k] of dst's, a permutation in the
    form that CORRESPONDENCES keeps: the pass over perm's one entry, on the
    stored pairs alone, so that no map is built."""
    return bool(_solve_scaled(src, dst, (_TARGET_OF_PERM[perm],))[0])


def realized_cases(scaled: tuple[tuple[int, ...], int]) -> str:
    """The cases (letters in CORRESPONDENCES order) of the
    self-correspondences realized by a unit map of the triangle whose
    scaled_coords() is scaled: the pass over _SELF_TARGETS, after case "a",
    which holds untested with numerators det, 0, 0, det.  It reads the
    stored pair alone, so a census passes each hat's by hand."""
    return "a" + _solve_scaled(scaled, scaled, _SELF_TARGETS)[0]


def oracle_isomorphic(
    src: Triangle, dst: Triangle
) -> tuple[str, Correspondence, AffineMap] | None:
    """Every correspondence realized by a unit map, and the first of them
    with its map: (cases, corr, witness), cases the letters in
    CORRESPONDENCES order and corr the first of them, or None when none is
    realized.  The pass tests all six.  A value that is not a Triangle
    raises TypeError."""
    require(src, Triangle, "src")
    require(dst, Triangle, "dst")
    cases, first = _solve_scaled(src.scaled_coords(), dst.scaled_coords(), _TARGETS)
    return first and (cases, first[0], AffineMap.from_scaled(*first[1]))
