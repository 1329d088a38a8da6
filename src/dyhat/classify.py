"""Automorphism groups, isomorphism decisions and the census.

Everything here is decided by integer divisibility criteria on hat
parameters; witnesses and cross-checks come from the exact oracle, and the
two routes must agree on every call (a disagreement is a defect, surfaced
as an InconsistencyError).  iso_case runs the six case tests in one pass
and returns every case that holds.  An automorphism is a self-isomorphism:
the cases iso_case finds between a hat and itself must key one row of a
six-row table, one row per subgroup of S3, and the oracle must realize
exactly those self-correspondences.  isomorphic is the one isomorphism
decision: its three criteria routes must agree, and the oracle must realize
exactly the cases that iso_case finds between the triangles' hats, every
letter and not just the first; it reduces each triangle through
hats.role_triples(scaled), the one entry to the hat reduction, on
tri.scaled_coords(), and re-applies the oracle's map to the second
triangle's stored pair (hats._witness_holds).  _self_cases is the one
group check: iso_case(h, h), the table lookup, and the comparison with
the oracle's realized cases on the triangle's stored (integers, exponent)
pair.  automorphism_group runs it on a triangle's identity-order hat and
the triangle's own pair, and then takes a witness map from the triangle
to itself for each of the group's own cases from hats._checked_witness,
which has the oracle solve it and re-applies it; a census cell runs
_self_cases alone, so a census builds no witness map.  The cell builds no Hat or
Triangle per hat: it writes the pair ((0, 0, i, j, m, 0), 0) that
Hat(i, j, m).triangle() stores and hands it to the reduction
(hats.role_triples) and to the oracle's self pass, and builds a Hat
only to name the hat in an error.  The pair is input to both, not data
that either computes, so each still checks the other.  The cell also
checks its reduction, hat by hat: a representative hat is its own pointed
class, so the identity order's entry must be (i, j, m) itself, and the
cell's pointed classes are its j hats; and each non-identity case that the
oracle realizes on a hat must carry the hat's role triples onto themselves
(_ROLE_SHIFTS).  So a reduction that maps every triple to another, or that
permutes its six entries, raises InconsistencyError.  With CensusRow.ok,
which adds the orbit identity, the blocks of equal role triples are then
the cosets of that group.  A cell counts isomorphism classes as distinct
orbits, the sets of role triples that its hats' reductions return: two
hats have the same least (canonical) triple exactly when they have the
same orbit.  The results (AutGroup, IsoResult, CensusRow, CensusReport)
are dyadic.Record values.  The process pool is imported only when a census
runs pooled, so the other commands never load concurrent.futures.process
or multiprocessing.
"""

from __future__ import annotations

import os
from collections import namedtuple
from operator import itemgetter

from .dyadic import Record
from .errors import InconsistencyError, InvalidBounds, InvalidHat, require, shown
from .geometry import Triangle
from .hats import (CANONICAL_KEY, ROLE_ORDERS, Hat, _checked_witness, _witness_holds,
                   check_odd_positive, role_triples)
from .oracle import CORRESPONDENCES, oracle_isomorphic, perm_label, realized_cases

#: The six subgroups of S3, keyed by the cases that iso_case finds between
#: a hat and itself: each key is the oracle.CORRESPONDENCES cases, in that
#: order, that the group's elements realize, "a" the identity.
_GROUP_OF_CASES = {
    "a": "Trivial",
    "ab": "C2",
    "ac": "C2",
    "af": "C2",
    "ade": "C3",
    "abcdef": "S3",
}

#: Case -> the action of its correspondence perm on role_triples' entries:
#: entry k of _ROLE_SHIFTS[case](roles) is roles' entry for the order
#: (perm[r0], perm[r1], perm[r2]), where (r0, r1, r2) = ROLE_ORDERS[k].
#: After a self-map that realizes the case, that order's unit map to its
#: hat is one for the order r, so on a hat roles must equal its shift.
_ROLE_SHIFTS = {
    corr.case: itemgetter(*(
        ROLE_ORDERS.index(tuple(corr.perm[r] for r in order)) for order in ROLE_ORDERS
    ))
    for corr in CORRESPONDENCES
}

GROUP_ORDER = {tag: len(cases) for cases, tag in _GROUP_OF_CASES.items()}

#: Most (j, m) cells that one census may sweep: the 1023x1023 grid.
MAX_CENSUS_CELLS = 512 * 512

#: Fewest hats for which a census starts a pool.  On a 2-CPU host, a
#: two-worker pool cost about 13 ms beyond half the serial work on the
#: 15x15 grid (start, chunk round trips and shutdown), and it saved about
#: 2.2 us per hat on the 63x63 grid (5.5 us serial, 3.3 us pooled once
#: that start is taken off), so it pays from about 13 ms / 2.2 us, some
#: 6,000 hats: 35x35 (5,832 hats) measured level and 37x37 (6,859) faster.
MIN_POOLED_HATS = 6000


class AutGroup(Record, namedtuple("AutGroup", "tag witnesses")):
    """Group tag plus one witness per group element, which the oracle
    solved and hats._checked_witness re-applied: witnesses is a tuple of
    (permutation label, AffineMap) pairs; a Record."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return GROUP_ORDER[self.tag]


def _self_cases(h: tuple[int, int, int], scaled: tuple[tuple[int, ...], int]) -> str:
    """The cases that iso_case finds between h and itself, checked: they
    must key a row of _GROUP_OF_CASES, and the oracle must realize exactly
    those self-correspondences of scaled, the stored pair of h's triangle.
    h is a Hat or its plain (i, j, m); a message names it as a Hat.  Builds
    no map."""
    cases = iso_case(h, h)
    if cases not in _GROUP_OF_CASES:
        raise InconsistencyError(
            f"cases {cases!r} of {Hat(*h)} and itself give no subgroup of S3"
        )
    found = realized_cases(scaled)
    if found != cases:
        raise InconsistencyError(
            f"criteria and oracle disagree on {Hat(*h)}: criteria {list(cases)}, "
            f"oracle {list(found)}"
        )
    return cases


def automorphism_group(shape: Triangle | Hat) -> AutGroup:
    """Assemble the automorphism group of a triangle, or of a
    representative hat's triangle.

    An automorphism is a self-isomorphism, and a unit map carries the
    triangle to its identity-order hat h, entry 0 of
    role_triples(tri.scaled_coords()), so the two have one group, with the
    same vertex permutations.  The cases that iso_case finds between h and
    itself must be a key of _GROUP_OF_CASES, one per subgroup of S3, and
    the oracle must realize exactly those self-correspondences of the
    triangle's own stored pair (_self_cases, which the census calls too);
    the tag is the table's entry for them.  Each case's witness map is
    hats._checked_witness's map from the triangle to itself, under the
    vertex order whose entry r is perm.index(r), which sends vertex k to
    vertex perm[k]: the oracle solves it and it is re-applied, as for
    normalize, and InconsistencyError is raised when either fails.  A Hat
    with even i raises InvalidHat, and a value that is neither a Hat nor a
    Triangle raises TypeError.
    """
    if isinstance(shape, Hat) and not shape.is_representative:
        raise InvalidHat(f"criteria require a representative hat (odd i), got i={shown(shape.i)}")
    tri = shape.triangle() if isinstance(shape, Hat) else shape
    require(tri, Triangle, "shape")
    scaled = tri.scaled_coords()
    cases = _self_cases(role_triples(scaled)[0], scaled)
    return AutGroup(_GROUP_OF_CASES[cases], tuple(
        (perm_label(perm), _checked_witness(tri, tuple(map(perm.index, range(3))), scaled, tri))
        for case, perm in CORRESPONDENCES if case in cases
    ))


def iso_case(h1: tuple[int, int, int], h2: tuple[int, int, int]) -> str:
    """Every hat-to-hat correspondence case that holds, as letters in
    oracle.CORRESPONDENCES order ("" when none).

    h1 = (i, j, m) and h2 = (k, l, n) are hats, encoding triples or plain
    (i, j, m) triples, and may be almost representative (even i or k
    allowed).  Cases "a"/"b" keep the base and apex; the other four
    exchange roles, forcing n = gcd(side, j) and l = mj/n, with k confined
    to a residue class mod l: k = x*m (cases c, d) or n - k = x*m (e, f)
    for an x with x * (side/n) = 1 mod j/n, where side is i (c, e) or
    m - i (d, f).  That class is tested by one multiplication, with no
    inverse taken: m divides rest (k or n - k) and rest/m * (side/n) = 1
    mod j/n.  The congruence makes side/n prime to j/n, so once it holds,
    n = gcd(side, j) says no more than that n divides side and j: no gcd
    is taken.
    """
    (i, j, m), (k, l, n) = h1, h2
    found = ""
    if l == j and n == m:
        if (k - i) % j == 0:
            found = "a"
        if (k - (m - i)) % j == 0:
            found += "b"
    if l * n != m * j or j % n:
        return found
    # side/n for side i (c, e) and side m - i (d, f), or None where n does
    # not divide side; where the congruence below holds, n dividing side and
    # j is n = gcd(side, j).  c and d test rest k, e and f rest n - k
    ce = i // n if i % n == 0 else None
    df = (m - i) // n if (m - i) % n == 0 else None
    for pair, rest in (("cd", k), ("ef", n - k)):
        if rest % m == 0:
            x = rest // m
            if ce is not None and (x * ce - 1) % (j // n) == 0:
                found += pair[0]
            if df is not None and (x * df - 1) % (j // n) == 0:
                found += pair[1]
    return found


class IsoResult(Record, namedtuple("IsoResult", "isomorphic case witness")):
    """An isomorphism decision: isomorphic (bool), the first in
    oracle.CORRESPONDENCES order of the hat cases that hold (a letter, or
    None; several may hold) and the oracle's witness map, re-applied (an
    AffineMap, or None); a Record."""

    __slots__ = ()


def isomorphic(t1: Triangle, t2: Triangle) -> IsoResult:
    """Decide whether two triangles are isomorphic over the dyadics.

    Three criteria routes (canonical triples, triple overlap, hat case
    analysis) share one role_triples reduction of each triangle's stored
    pair, tri.scaled_coords(): entry 0, the identity order, is its hat, and
    the six entries its triples.  The independent check is the oracle,
    which shares no code with that reduction: it runs on t1 and t2
    themselves on every call, sees every verdict, and gives the witness
    map.  The three routes and the oracle must agree, and the oracle must
    realize exactly the cases that the case route finds.  The witness map
    is then re-applied to t2's stored pair (hats._witness_holds), so a
    map that does not carry t1 onto t2 as a unit map raises
    InconsistencyError.  A value that is not a Triangle raises TypeError.
    """
    require(t1, Triangle, "t1")
    require(t2, Triangle, "t2")
    roles1, roles2 = role_triples(t1.scaled_coords()), role_triples(t2.scaled_coords())
    by_canonical = min(roles1, key=CANONICAL_KEY) == min(roles2, key=CANONICAL_KEY)
    by_overlap = not frozenset(roles1).isdisjoint(roles2)
    cases = iso_case(roles1[0], roles2[0])
    found = oracle_isomorphic(t1, t2)
    # t1 and t2 realize the correspondences that their identity-order hats
    # do, so the oracle's cases are the criteria's cases
    oracle_cases = found[0] if found else ""
    if not (by_canonical == by_overlap == bool(cases)) or cases != oracle_cases:
        raise InconsistencyError(
            f"isomorphism routes disagree: canonical {by_canonical}, "
            f"overlap {by_overlap}, cases {list(cases)}, "
            f"oracle cases {list(oracle_cases)}"
        )
    # the oracle's map, re-applied to t2's integers under the roles that
    # invert its correspondence, in no code shared with its solve
    if found and not _witness_holds(found[2], t1, tuple(map(found[1].perm.index, range(3))),
                                    t2.scaled_coords()):
        raise InconsistencyError(f"witness for case {found[1].case} failed verification")
    return IsoResult(by_canonical, cases[:1] or None, found and found[2])


class CensusRow(Record, namedtuple(
    "CensusRow", "j m pointed_classes isomorphism_classes aut_counts orbit_ok"
)):
    """One (j, m) census cell: the numbers of pointed and isomorphism
    classes, aut_counts (a dict from group tag to count) and whether the
    orbit identity held for every hat.  A census row's pointed_classes is
    always j, since the cell checks each hat to be its own pointed class;
    ok still compares the two, for a row built by hand.  A Record; as
    aut_counts is a dict, hashing one raises TypeError."""

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
    """One (j, m) work unit: every hat with i odd in 1..2j-1, checked on
    the stored pair ((0, 0, i, j, m, 0), 0) that Hat(i, j, m).triangle()
    would hold, built here by hand: no Hat or Triangle is built unless a
    check fails, and then only to name the hat.  Each hat must be its own
    pointed class, so the cell has j of them."""
    j, m = cell
    orbits: set[frozenset[tuple[int, int, int]]] = set()
    counts = dict.fromkeys(GROUP_ORDER, 0)
    orbit_ok = True
    for i in range(1, 2 * j, 2):
        scaled = ((0, 0, i, j, m, 0), 0)
        # run the full pipeline rather than trusting i to be canonical:
        # entry 0, the identity order's pointed class, must be the hat
        roles = role_triples(scaled)
        if roles[0] != (i, j, m):
            raise InconsistencyError(
                f"reduction does not return {Hat(i, j, m)} as its own pointed "
                f"class: identity-order triple {list(roles[0])}"
            )
        cases = _self_cases((i, j, m), scaled)
        counts[_GROUP_OF_CASES[cases]] += 1
        # each case the oracle realized must permute the role orders onto
        # orders with the same triples
        for case in cases[1:]:
            if _ROLE_SHIFTS[case](roles) != roles:
                raise InconsistencyError(
                    f"reduction and oracle disagree on {Hat(i, j, m)}: case "
                    f"{case} does not fix its role triples {list(roles)}"
                )
        # classes are counted as distinct orbits, the sets of role triples:
        # two hats share their least triple exactly when they share that set
        orbit = frozenset(roles)
        orbits.add(orbit)
        # the group's order is the number of its cases
        if len(orbit) * len(cases) != 6:
            orbit_ok = False
    return CensusRow(j, m, j, len(orbits), counts, orbit_ok)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    count where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def census(j_max: int, m_max: int, workers: int = 1) -> CensusReport:
    """Sweep all representative hats with j <= j_max, m <= m_max.

    Work units are independent (j, m) cells; with workers > 1 they run in a
    process pool, sent in chunks of consecutive cells, and are merged in a
    fixed order, so the report does not depend on scheduling.  The pool
    never has more workers than cells or than CPUs that the process may run
    on; when that leaves one, or the grid holds fewer than MIN_POOLED_HATS
    hats, the cells run serially.  A grid of more than MAX_CENSUS_CELLS
    cells raises InvalidBounds, as does a bound or workers value that is
    not exactly an int (a bool included).
    """
    check_odd_positive(InvalidBounds, ("j_max", j_max), ("m_max", m_max))
    if workers.__class__ is not int:
        raise InvalidBounds(f"workers must be an integer, got {shown(workers)}")
    if workers < 1:
        raise InvalidBounds(f"workers must be at least 1, got {shown(workers)}")
    # refused before the cell list is built, which would exhaust memory
    count = ((j_max + 1) // 2) * ((m_max + 1) // 2)
    if count > MAX_CENSUS_CELLS:
        raise InvalidBounds(
            f"a census may sweep at most {MAX_CENSUS_CELLS} cells, got {shown(count)}"
        )

    cells = [
        (j, m)
        for j in range(1, j_max + 1, 2)
        for m in range(1, m_max + 1, 2)
    ]
    # a cell (j, m) holds j hats, and the odd j <= j_max sum to
    # ((j_max + 1) // 2) ** 2, so the grid holds this many hats
    hats = count * ((j_max + 1) // 2)
    workers = min(workers, _usable_cpus(), len(cells)) if hats >= MIN_POOLED_HATS else 1
    if workers == 1:
        rows = tuple(_census_cell(cell) for cell in cells)
    else:
        from concurrent.futures import ProcessPoolExecutor

        # about eight chunks per worker: a round trip per chunk, not per
        # cell, and enough chunks that the heavy cells of the last rows
        # still spread over the workers
        chunksize = max(1, len(cells) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = tuple(pool.map(_census_cell, cells, chunksize=chunksize))
    return CensusReport(j_max, m_max, rows)
