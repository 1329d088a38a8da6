"""Independent exact isomorphism oracle.

Decides whether an affine map carries one triangle onto another by solving
the vertex correspondence equations with integer Cramer's rule
(geometry.affine_through, on the integer coordinates each Triangle holds):
the solved map qualifies when its entries are dyadic and its determinant is
+-2**k.  realized_correspondences is the one loop over the six
correspondences, and oracle_isomorphic takes its first item.  Each solve
reads the source's Triangle.cramer_source (edge vectors and determinant,
set when the triangle was built) and the target's Triangle.cramer_target in
correspondence order, which takes the target's determinant from the
target's own cramer_source, since reordering the vertices changes only its
sign; all six solves still run.  A solved map is stored as integers
(AffineMap.from_scaled); its linear part and translation are built only
when read.  hats.normalize solves its witness through solve_correspondence
too, after hat_of has found the hat.  This route shares no logic with the
number-theoretic criteria or with hats.hat_of, so each side checks the
other.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .dyadic import Record
from .geometry import AffineMap, Triangle, affine_through


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
    """Images of A, B, C as a letter string, e.g. (0, 2, 1) -> "ACB"."""
    return "".join("ABC"[k] for k in perm)


def solve_correspondence(
    src: Triangle, dst: Triangle, perm: tuple[int, int, int]
) -> AffineMap | None:
    """The unit affine map sending vertex k of src to vertex perm[k] of dst,
    or None when that unique affine map is not a dyadic unit."""
    return affine_through(src.cramer_source, dst.cramer_target(perm))


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
