"""Automorphism groups, isomorphism decisions and the census.

Everything here is decided by integer divisibility criteria on hat
parameters; witnesses and cross-checks come from the exact oracle, and the
two routes must agree on every call (a disagreement is a defect, surfaced
as an InconsistencyError).  isomorphic is the one isomorphism decision:
isomorphic_hats runs it on the hats' triangles.  A census cell decides each
hat's group with automorphism_group itself, the same call the aut command
makes.  The results (AutGroup, IsoResult, CensusRow, CensusReport) are
dyadic.Record values.  The process pool is imported only when a census runs
pooled, so the other commands never load concurrent.futures.process or
multiprocessing.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from .dyadic import Record, odd_gcd, solve_congruence
from .errors import InconsistencyError, InvalidBounds, InvalidHat
from .geometry import Triangle
from .hats import (
    EncodingTriple,
    Hat,
    role_triples,
)
from .oracle import CASES, oracle_isomorphic, perm_label, realized_correspondences

GROUP_ORDER = {"Trivial": 1, "C2": 2, "C3": 3, "S3": 6}

GROUP_TAGS = tuple(GROUP_ORDER)


def _require_representative(h: Hat) -> None:
    if not h.is_representative:
        raise InvalidHat(f"criteria require a representative hat (odd i), got i={h.i}")


def aut_fix_B(h: Hat) -> bool:
    """Automorphism fixing the apex and swapping the base vertices: j | 2i - m."""
    _require_representative(h)
    return (2 * h.i - h.m) % h.j == 0


def aut_fix_A(h: Hat) -> bool:
    """Automorphism fixing the origin: m | i, m | j and mj | m*m - i*i."""
    _require_representative(h)
    i, j, m = h.i, h.j, h.m
    return i % m == 0 and j % m == 0 and (m * m - i * i) % (m * j) == 0

def aut_fix_C(h: Hat) -> bool:
    """Automorphism fixing (m, 0); needs m | i, m | j and k'^2 = 1 (mod l')
    for k' = (m - i + j)/m, l' = j/m."""
    _require_representative(h)
    i, j, m = h.i, h.j, h.m
    if i % m or j % m:
        return False
    k = (m - i + j) // m
    l = j // m
    return (k * k - 1) % l == 0


def aut_cycle(h: Hat) -> bool:
    """Order-3 automorphism; needs boundary (m, m, m) and l | k*k - k + 1
    for k = i/m, l = j/m."""
    _require_representative(h)
    i, j, m = h.i, h.j, h.m
    # the side types of (0,0), (i,j), (m,0) are (odd_gcd(i, j), odd_gcd(m - i, j), m)
    if odd_gcd(i, j) != m or odd_gcd(m - i, j) != m:
        return False
    k = i // m
    l = j // m
    return (k * k - k + 1) % l == 0


#: Self-correspondence realized by each criterion (images of A, B, C).
_FIX_A_PERM = (0, 2, 1)
_FIX_B_PERM = (2, 1, 0)
_FIX_C_PERM = (1, 0, 2)
_CYCLE_PERMS = ((1, 2, 0), (2, 0, 1))
_IDENTITY_PERM = (0, 1, 2)


class AutGroup(Record, namedtuple("AutGroup", "tag witnesses")):
    """Group tag plus one oracle witness per group element: witnesses is a
    tuple of (permutation label, AffineMap) pairs; a Record."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return GROUP_ORDER[self.tag]


def automorphism_group(h: Hat) -> AutGroup:
    """Assemble the automorphism group of a representative hat.

    The tag comes from the divisibility criteria; the witnesses come from
    the oracle's self-correspondence solver.  The two must agree
    permutation by permutation.
    """
    fix_a = aut_fix_A(h)
    fix_b = aut_fix_B(h)
    fix_c = aut_fix_C(h)
    cycle = aut_cycle(h)

    transpositions = fix_a + fix_b + fix_c
    if transpositions == 2:
        raise InconsistencyError(f"two transpositions cannot coexist: {h}")
    if transpositions == 3 and not cycle:
        raise InconsistencyError(f"three transpositions force a 3-cycle: {h}")
    if transpositions == 1 and cycle:
        raise InconsistencyError(f"a single transposition excludes a 3-cycle: {h}")

    if transpositions == 3:
        tag = "S3"
    elif transpositions == 1:
        tag = "C2"
    elif cycle:
        tag = "C3"
    else:
        tag = "Trivial"

    expected = {_IDENTITY_PERM}
    if fix_a:
        expected.add(_FIX_A_PERM)
    if fix_b:
        expected.add(_FIX_B_PERM)
    if fix_c:
        expected.add(_FIX_C_PERM)
    if cycle:
        expected.update(_CYCLE_PERMS)

    tri = h.triangle()
    realized = tuple(realized_correspondences(tri, tri))
    found = {corr.perm for corr, _ in realized}
    if found != expected:
        raise InconsistencyError(
            f"criteria and oracle disagree on {h}: criteria {sorted(expected)}, "
            f"oracle {sorted(found)}"
        )
    return AutGroup(tag, tuple((perm_label(corr.perm), f) for corr, f in realized))


def iso_case(h1: Hat, h2: Hat, case: str) -> bool:
    """Test one of the six hat-to-hat correspondence criteria.

    h1 = (i, j, m) and h2 = (k, l, n) may be almost representative (even i
    or k allowed).  Cases "a"/"b" keep the base and apex; the other four
    exchange roles, forcing n = gcd(side, j) and l = mj/n, with k confined
    to a residue class mod l determined by a linear congruence.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    i, j, m = h1.i, h1.j, h1.m
    k, l, n = h2.i, h2.j, h2.m

    if case == "a":
        return l == j and n == m and (k - i) % j == 0
    if case == "b":
        return l == j and n == m and (k - (m - i)) % j == 0

    side = i if case in ("c", "e") else m - i
    g = math.gcd(side, j)
    if n != g or l * n != m * j:
        return False
    # gcd(side, j) = n divides n, so the congruence is always solvable
    a = solve_congruence(side, n, j)
    anchor = a.value * m if case in ("c", "d") else n - a.value * m
    return (k - anchor) % l == 0


class IsoResult(Record, namedtuple("IsoResult", "isomorphic case witness")):
    """An isomorphism decision: isomorphic (bool), the hat case that holds
    (a letter of CASES, or None) and the oracle's witness map (an AffineMap,
    or None); a Record."""

    __slots__ = ()


def isomorphic(t1: Triangle, t2: Triangle) -> IsoResult:
    """Decide whether two triangles are isomorphic over the dyadics.

    Three independent criteria routes (canonical triples, triple overlap,
    hat case analysis) must agree; the witness map comes from the oracle,
    run on t1 and t2 themselves when the routes say isomorphic.  One
    role_triples reduction per triangle gives both its hat (entry 0, the
    identity order) and its triple set; the oracle shares no code with that
    reduction.
    """
    roles1, roles2 = role_triples(t1), role_triples(t2)
    by_canonical = min(roles1) == min(roles2)
    by_overlap = not frozenset(roles1).isdisjoint(roles2)
    h1, h2 = Hat(*roles1[0]), Hat(*roles2[0])
    case = next((c for c in CASES if iso_case(h1, h2, c)), None)
    if not (by_canonical == by_overlap == (case is not None)):
        raise InconsistencyError(
            f"isomorphism routes disagree: canonical {by_canonical}, "
            f"overlap {by_overlap}, case {case}"
        )
    if not by_canonical:
        return IsoResult(False, None, None)
    found = oracle_isomorphic(t1, t2)
    if found is None:
        raise InconsistencyError("oracle failed to confirm a criteria isomorphism")
    return IsoResult(True, case, found[1])


def isomorphic_hats(h1: Hat, h2: Hat) -> IsoResult:
    """isomorphic on the two hats' triangles; i may have either parity."""
    return isomorphic(h1.triangle(), h2.triangle())


class CensusRow(Record, namedtuple(
    "CensusRow", "j m pointed_classes isomorphism_classes aut_counts orbit_ok"
)):
    """One (j, m) census cell: the numbers of pointed and isomorphism
    classes, aut_counts (a dict from group tag to count) and whether the
    orbit identity held for every hat.  A Record; as aut_counts is a dict,
    hashing one raises TypeError."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.pointed_classes == self.j and self.orbit_ok


class CensusReport(Record, namedtuple("CensusReport", "j_max m_max rows")):
    """The census bounds and its rows, a tuple of CensusRow in cell order.
    A Record; like a CensusRow, it cannot be hashed."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _census_cell(cell: tuple[int, int]) -> CensusRow:
    """One (j, m) work unit: every hat with i odd in 1..2j-1."""
    j, m = cell
    pointed: set[EncodingTriple] = set()
    canonical: set[EncodingTriple] = set()
    counts = dict.fromkeys(GROUP_TAGS, 0)
    orbit_ok = True
    for i in range(1, 2 * j, 2):
        h = Hat(i, j, m)
        tri = h.triangle()
        # run the full pipeline rather than trusting i to be canonical:
        # entry 0 is the identity order's pointed class
        roles = role_triples(tri)
        pointed.add(roles[0])
        group = automorphism_group(h)
        counts[group.tag] += 1
        triples = frozenset(roles)
        canonical.add(min(triples))
        if len(triples) * group.order != 6:
            orbit_ok = False
    return CensusRow(j, m, len(pointed), len(canonical), counts, orbit_ok)


def census(j_max: int, m_max: int, workers: int = 1) -> CensusReport:
    """Sweep all representative hats with j <= j_max, m <= m_max.

    Work units are independent (j, m) cells; with workers > 1 they run in a
    process pool and are merged in a fixed order, so the report does not
    depend on scheduling.  The pool never has more workers than CPUs or
    cells; when that leaves one, the cells run serially.
    """
    for name, bound in (("j_max", j_max), ("m_max", m_max)):
        if bound <= 0 or bound % 2 == 0:
            raise InvalidBounds(f"{name} must be an odd positive integer, got {bound}")
    if workers < 1:
        raise InvalidBounds(f"workers must be at least 1, got {workers}")

    cells = [
        (j, m)
        for j in range(1, j_max + 1, 2)
        for m in range(1, m_max + 1, 2)
    ]
    workers = min(workers, os.cpu_count() or 1, len(cells))
    if workers == 1:
        rows = tuple(_census_cell(cell) for cell in cells)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_census_cell, cells))
    return CensusReport(j_max, m_max, rows)
