"""Automorphism groups, isomorphism decisions and the census.

Everything here is decided by integer divisibility criteria on hat
parameters; witnesses and cross-checks come from the exact oracle, and the
two routes must agree on every call (a disagreement is a defect, surfaced
as an InconsistencyError).  A hat's automorphism group is one of the six
subgroups of S3: the outcome of the four automorphism criteria must be one
of the six rows of one table, and the oracle must realize exactly that
row's self-correspondences.  isomorphic is the one isomorphism decision:
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

from .dyadic import Record, odd_gcd
from .errors import InconsistencyError, InvalidBounds, InvalidHat
from .geometry import Triangle
from .hats import CANONICAL_KEY, Hat, role_triples
from .oracle import (
    CASES,
    CORRESPONDENCES,
    oracle_isomorphic,
    perm_label,
    realized_correspondences,
)

#: The six subgroups of S3, keyed by the criteria's outcome (aut_fix_A,
#: aut_fix_B, aut_fix_C, aut_cycle): each row is the group's tag and the
#: oracle.CORRESPONDENCES cases its elements realize, "a" the identity.
_GROUP_OF_CRITERIA = {
    (False, False, False, False): ("Trivial", frozenset("a")),
    (True, False, False, False): ("C2", frozenset("ac")),
    (False, True, False, False): ("C2", frozenset("ab")),
    (False, False, True, False): ("C2", frozenset("af")),
    (False, False, False, True): ("C3", frozenset("ade")),
    (True, True, True, True): ("S3", frozenset("abcdef")),
}

GROUP_ORDER = {tag: len(cases) for tag, cases in _GROUP_OF_CRITERIA.values()}

GROUP_TAGS = tuple(GROUP_ORDER)

#: The witness label of each oracle case, e.g. "c" -> "ACB".
_PERM_LABEL = {corr.case: perm_label(corr.perm) for corr in CORRESPONDENCES}

#: Most (j, m) cells that one census may sweep: the 1023x1023 grid.
MAX_CENSUS_CELLS = 512 * 512


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


class AutGroup(Record, namedtuple("AutGroup", "tag witnesses")):
    """Group tag plus one oracle witness per group element: witnesses is a
    tuple of (permutation label, AffineMap) pairs; a Record."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return GROUP_ORDER[self.tag]


def automorphism_group(h: Hat) -> AutGroup:
    """Assemble the automorphism group of a representative hat.

    An automorphism is a self-isomorphism.  The four criteria's outcome
    must be one of the six rows of _GROUP_OF_CRITERIA, one per subgroup of
    S3, and the oracle's self-correspondence solver must realize exactly
    that row's cases; the tag is the row's and the witnesses come from the
    oracle.
    """
    outcome = (aut_fix_A(h), aut_fix_B(h), aut_fix_C(h), aut_cycle(h))
    row = _GROUP_OF_CRITERIA.get(outcome)
    if row is None:
        raise InconsistencyError(
            f"criteria (fix A, fix B, fix C, cycle) = {outcome} "
            f"give no subgroup of S3: {h}"
        )
    tag, expected = row
    tri = h.triangle()
    realized = tuple(realized_correspondences(tri, tri))
    found = {corr.case for corr, _ in realized}
    if found != expected:
        raise InconsistencyError(
            f"criteria and oracle disagree on {h}: criteria {sorted(expected)}, "
            f"oracle {sorted(found)}"
        )
    return AutGroup(tag, tuple((_PERM_LABEL[corr.case], f) for corr, f in realized))


def iso_case(h1: tuple[int, int, int], h2: tuple[int, int, int], case: str) -> bool:
    """Test one of the six hat-to-hat correspondence criteria.

    h1 = (i, j, m) and h2 = (k, l, n) are hats, encoding triples or plain
    (i, j, m) triples, and may be almost representative (even i or k
    allowed).  Cases "a"/"b" keep the base and apex; the other four
    exchange roles, forcing n = gcd(side, j) and l = mj/n, with k confined
    to a residue class mod l: k = x*m (cases c, d) or n - k = x*m (e, f)
    for an x with x * (side/n) = 1 mod j/n.  As side/n is prime to j/n,
    that class is tested by one multiplication, with no inverse taken:
    m divides rest (k or n - k) and rest/m * (side/n) = 1 mod j/n.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    (i, j, m), (k, l, n) = h1, h2

    if case == "a":
        return l == j and n == m and (k - i) % j == 0
    if case == "b":
        return l == j and n == m and (k - (m - i)) % j == 0

    side = i if case in ("c", "e") else m - i
    if n != math.gcd(side, j) or l * n != m * j:
        return False
    rest = k if case in ("c", "d") else n - k
    return rest % m == 0 and (rest // m * (side // n) - 1) % (j // n) == 0


class IsoResult(Record, namedtuple("IsoResult", "isomorphic case witness")):
    """An isomorphism decision: isomorphic (bool), the hat case that holds
    (a letter of CASES, or None) and the oracle's witness map (an AffineMap,
    or None); a Record."""

    __slots__ = ()


def isomorphic(t1: Triangle, t2: Triangle) -> IsoResult:
    """Decide whether two triangles are isomorphic over the dyadics.

    Three criteria routes (canonical triples, triple overlap, hat case
    analysis) share one role_triples reduction per triangle: entry 0, the
    identity order, is its hat, and the six entries its triples.  The
    independent check is the oracle, which shares no code with that
    reduction: it runs on t1 and t2 themselves on every call, sees every
    verdict, and gives the witness map.  The three routes and the oracle
    must agree.
    """
    roles1, roles2 = role_triples(t1), role_triples(t2)
    by_canonical = min(roles1, key=CANONICAL_KEY) == min(roles2, key=CANONICAL_KEY)
    by_overlap = not frozenset(roles1).isdisjoint(roles2)
    case = next((c for c in CASES if iso_case(roles1[0], roles2[0], c)), None)
    found = oracle_isomorphic(t1, t2)
    if not (by_canonical == by_overlap == (case is not None) == (found is not None)):
        raise InconsistencyError(
            f"isomorphism routes disagree: canonical {by_canonical}, "
            f"overlap {by_overlap}, case {case}, oracle {found is not None}"
        )
    return IsoResult(by_canonical, case, found and found[1])


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
    pointed: set[tuple[int, int, int]] = set()
    canonical: set[tuple[int, int, int]] = set()
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
        canonical.add(min(roles, key=CANONICAL_KEY))
        if len(frozenset(roles)) * group.order != 6:
            orbit_ok = False
    return CensusRow(j, m, len(pointed), len(canonical), counts, orbit_ok)


def census(j_max: int, m_max: int, workers: int = 1) -> CensusReport:
    """Sweep all representative hats with j <= j_max, m <= m_max.

    Work units are independent (j, m) cells; with workers > 1 they run in a
    process pool and are merged in a fixed order, so the report does not
    depend on scheduling.  The pool never has more workers than CPUs or
    cells; when that leaves one, the cells run serially.  A grid of more
    than MAX_CENSUS_CELLS cells raises InvalidBounds, as does a bound or
    workers value that is not exactly an int (a bool included).
    """
    for name, bound in (("j_max", j_max), ("m_max", m_max)):
        if bound.__class__ is not int or bound <= 0 or bound % 2 == 0:
            raise InvalidBounds(f"{name} must be an odd positive integer, got {bound!r}")
    if workers.__class__ is not int:
        raise InvalidBounds(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise InvalidBounds(f"workers must be at least 1, got {workers}")
    # refused before the cell list is built, which would exhaust memory
    count = ((j_max + 1) // 2) * ((m_max + 1) // 2)
    if count > MAX_CENSUS_CELLS:
        raise InvalidBounds(
            f"a census may sweep at most {MAX_CENSUS_CELLS} cells, got {count}"
        )

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
