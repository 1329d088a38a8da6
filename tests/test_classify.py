"""Automorphism criteria, group assembly, isomorphism cases, census."""

import ast
import concurrent.futures
import hashlib
import math
import random
import sys
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dyhat import (
    DyadicRational,
    Hat,
    Triangle,
    all_encoding_triples,
    automorphism_group,
    census,
    isomorphic,
    isomorphic_hats,
    normalize,
    oracle_isomorphic,
)
from dyhat.classify import (
    GROUP_ORDER,
    IsoResult,
    aut_cycle,
    aut_fix_A,
    aut_fix_B,
    aut_fix_C,
    iso_case,
)
from dyhat.dyadic import odd_gcd
from dyhat.errors import InconsistencyError, InvalidBounds, InvalidHat
from dyhat.hats import hat_of
from dyhat import classify, hats, oracle
from dyhat.oracle import CASES, realized_correspondences

import tutil
from reference import (
    IDENTITY,
    boundary_type,
    boundary_types_equivalent,
    oracle_aut_count,
    twice_area,
)
from tutil import _reachable_names

D = DyadicRational

# hat params -> (fix A, fix B, fix C, 3-cycle); every row checked by hand
CRITERIA_TABLE = {
    (15, 9, 21): (False, True, False, False),
    (21, 9, 3): (True, False, False, False),
    (21, 15, 3): (False, False, True, False),
    (3, 7, 1): (False, False, False, True),
    (1, 1, 1): (True, True, True, True),
    (15, 9, 3): (True, True, True, True),
    (5, 3, 1): (True, True, True, True),
    (1, 3, 5): (False, True, False, False),
    (1, 5, 1): (True, False, False, False),
    (1, 9, 5): (False, False, False, False),
}


def test_criteria_truth_table():
    for params, expected in CRITERIA_TABLE.items():
        h = Hat(*params)
        got = (aut_fix_A(h), aut_fix_B(h), aut_fix_C(h), aut_cycle(h))
        assert got == expected, params


def test_criteria_reject_even_i():
    for fn in (aut_fix_A, aut_fix_B, aut_fix_C, aut_cycle):
        with pytest.raises(InvalidHat):
            fn(Hat(4, 3, 5))


GROUP_TABLE = {
    (1, 1, 1): "S3",
    (3, 3, 3): "S3",
    (5, 5, 5): "S3",
    (15, 9, 3): "S3",
    (5, 3, 1): "S3",
    (15, 9, 21): "C2",
    (21, 9, 3): "C2",
    (21, 15, 3): "C2",
    (1, 3, 5): "C2",
    (3, 7, 1): "C3",
    (1, 9, 5): "Trivial",
}


def test_group_tags():
    for params, tag in GROUP_TABLE.items():
        group = automorphism_group(Hat(*params))
        assert group.tag == tag, params
        assert group.order == GROUP_ORDER[tag]
        assert len(group.witnesses) == group.order


def test_group_witness_labels():
    labels = lambda h: {w[0] for w in automorphism_group(h).witnesses}
    assert labels(Hat(15, 9, 21)) == {"ABC", "CBA"}
    assert labels(Hat(21, 9, 3)) == {"ABC", "ACB"}
    assert labels(Hat(21, 15, 3)) == {"ABC", "BAC"}
    assert labels(Hat(3, 7, 1)) == {"ABC", "BCA", "CAB"}
    assert labels(Hat(1, 9, 5)) == {"ABC"}
    assert labels(Hat(1, 1, 1)) == {"ABC", "ACB", "BAC", "BCA", "CAB", "CBA"}


def test_group_witnesses_permute_vertices_as_labeled():
    for params in GROUP_TABLE:
        h = Hat(*params)
        vertices = h.triangle().vertices
        for label, witness in automorphism_group(h).witnesses:
            assert witness.is_unit()
            for k, target in enumerate(label):
                assert witness(vertices[k]) == vertices["ABC".index(target)]


def test_trivial_group_witness_is_identity():
    group = automorphism_group(Hat(1, 9, 5))
    assert group.witnesses == (("ABC", IDENTITY),)


def test_lying_criterion_raises_inconsistency(monkeypatch):
    # Hat(1, 9, 5) has the trivial group; a fix-B criterion that always
    # fires claims a swap the oracle cannot realize
    monkeypatch.setattr("dyhat.classify.aut_fix_B", lambda h: True)
    with pytest.raises(InconsistencyError, match="criteria and oracle disagree"):
        automorphism_group(Hat(1, 9, 5))
    # on an S3 hat it also contradicts the other two transpositions
    monkeypatch.setattr("dyhat.classify.aut_fix_B", lambda h: False)
    with pytest.raises(InconsistencyError, match="two transpositions"):
        automorphism_group(Hat(1, 1, 1))


def test_lying_case_test_raises_inconsistency(monkeypatch):
    monkeypatch.setattr("dyhat.classify.iso_case", lambda h1, h2, case: False)
    with pytest.raises(InconsistencyError, match="routes disagree"):
        isomorphic_hats(Hat(1, 3, 5), Hat(5, 15, 1))


def test_iso_case_fixtures():
    h = Hat(1, 3, 5)
    cases = lambda other: [c for c in "abcdef" if iso_case(h, other, c)]
    assert cases(Hat(4, 3, 5)) == ["a", "b"]
    assert cases(Hat(7, 3, 5)) == ["a", "b"]
    assert cases(Hat(5, 15, 1)) == ["c", "d"]
    assert cases(Hat(11, 15, 1)) == ["e", "f"]
    assert cases(Hat(3, 3, 5)) == []
    assert [c for c in "abcdef" if iso_case(Hat(3, 27, 21), Hat(39, 27, 21), c)] == []


def test_iso_case_rejects_unknown_case():
    with pytest.raises(ValueError):
        iso_case(Hat(1, 1, 1), Hat(1, 1, 1), "g")


@given(tutil.rep_hats)
def test_iso_case_a_is_reflexive(h):
    assert iso_case(h, h, "a")


def test_isomorphic_hats_fixtures():
    got = isomorphic_hats(Hat(1, 3, 5), Hat(4, 3, 5))
    assert got.isomorphic and got.case == "a"
    got = isomorphic_hats(Hat(1, 3, 5), Hat(5, 15, 1))
    assert got.isomorphic and got.case == "c"
    got = isomorphic_hats(Hat(1, 3, 5), Hat(11, 15, 1))
    assert got.isomorphic and got.case == "e"
    got = isomorphic_hats(Hat(3, 27, 21), Hat(39, 27, 21))
    assert (got.isomorphic, got.case, got.witness) == (False, None, None)


#: sha256 of the reprs below, recorded while isomorphic_hats still ran
#: iso_case on the hats as given, with triple sets of its own.
CASE_DIGEST = "691df9962754539b3605cccd98444b19f9e3b47989f33626497a86f9b342a591"


def test_verdicts_and_case_letters_on_the_7_grid_are_unchanged():
    """isomorphic_hats on every ordered pair of equal-area hats with
    j, m <= 7 and i in -j..3j-1, of either parity (8,128 pairs)."""
    by_area = {}
    for j in range(1, 8, 2):
        for m in range(1, 8, 2):
            by_area.setdefault(j * m, []).extend(Hat(i, j, m) for i in range(-j, 3 * j))
    digest = hashlib.sha256()
    for hats_of_area in by_area.values():
        for h1, h2 in product(hats_of_area, repeat=2):
            result = isomorphic_hats(h1, h2)
            digest.update(
                repr((tuple(h1), tuple(h2), result.isomorphic, result.case)).encode())
    assert digest.hexdigest() == CASE_DIGEST


def test_non_isomorphic_pair_shares_area_and_boundary():
    t1 = Hat(3, 27, 21).triangle()
    t2 = Hat(39, 27, 21).triangle()
    assert twice_area(t1) == twice_area(t2) == D(567)
    assert boundary_type(t1) == boundary_type(t2) == (3, 9, 21)
    assert not isomorphic(t1, t2).isomorphic


def test_isomorphic_witness_maps_vertices_onto_vertices():
    t1 = Hat(1, 3, 5).triangle()
    t2 = Hat(5, 15, 1).triangle()
    result = isomorphic(t1, t2)
    assert result.isomorphic
    images = {result.witness(v) for v in t1.vertices}
    assert images == set(t2.vertices)


def test_isomorphic_on_self_gives_identity_witness():
    t = Hat(1, 9, 5).triangle()
    result = isomorphic(t, t)
    assert result.isomorphic and result.case == "a"
    assert result.witness == IDENTITY


def test_isomorphism_class_of_the_three_triples():
    hats = [Hat(1, 3, 5), Hat(5, 15, 1), Hat(11, 15, 1)]
    for h1, h2 in combinations(hats, 2):
        assert isomorphic_hats(h1, h2).isomorphic
        assert isomorphic_hats(h2, h1).isomorphic


@given(tutil.rep_hats, tutil.rep_hats)
@settings(max_examples=40)
def test_isomorphic_is_symmetric(h1, h2):
    assert isomorphic_hats(h1, h2).isomorphic == isomorphic_hats(h2, h1).isomorphic


@given(tutil.rep_hats, tutil.rep_hats)
@settings(max_examples=40)
def test_isomorphic_pairs_share_invariants(h1, h2):
    result = isomorphic_hats(h1, h2)
    if result.isomorphic:
        t1, t2 = h1.triangle(), h2.triangle()
        assert twice_area(t1) == twice_area(t2)
        assert boundary_types_equivalent(boundary_type(t1), boundary_type(t2))


@given(tutil.rep_hats)
@settings(max_examples=60)
def test_group_order_matches_oracle_count(h):
    assert automorphism_group(h).order == oracle_aut_count(h.triangle())


@given(tutil.rep_hats)
@settings(max_examples=60)
def test_orbit_stabilizer_identity(h):
    triples = all_encoding_triples(h.triangle())
    assert len(triples) * automorphism_group(h).order == 6


def _check_isomorphic(t1, t2):
    """isomorphic(t1, t2) against its parts computed apart: the case from
    iso_case on hat_of of each triangle, the canonical route from
    all_encoding_triples, the verdict and witness from the oracle."""
    result = isomorphic(t1, t2)
    found = oracle_isomorphic(t1, t2)
    h1, h2 = hat_of(t1), hat_of(t2)
    case = next((c for c in CASES if iso_case(h1, h2, c)), None)
    assert result == IsoResult(found is not None, case, found and found[1]), (t1, t2)
    assert result.isomorphic == (
        min(all_encoding_triples(t1)) == min(all_encoding_triples(t2)))


def test_isomorphic_answers_on_the_15_grid():
    """Each representative hat with j, m <= 15 against a shuffled unit-map
    image of itself and against the hat two steps along in i."""
    rng = random.Random(12)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                t = Hat(i, j, m).triangle()
                image = t.transformed(tutil.rand_unit_map(rng))
                _check_isomorphic(Triangle(tuple(rng.sample(image.vertices, 3))), t)
                _check_isomorphic(t, Hat(i + 2, j, m).triangle())


@given(st.one_of(tutil.large_triangles, tutil.huge_triangles), tutil.unit_maps,
       st.one_of(tutil.large_triangles, tutil.huge_triangles))
@settings(max_examples=60)
def test_isomorphic_answers_on_large_coordinates(t, f, other):
    _check_isomorphic(t, t.transformed(f))
    _check_isomorphic(t, other)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_role_reduction_per_triangle_and_every_route_runs(monkeypatch):
    reductions = _count_calls(monkeypatch, hats, "_reduce_roles")
    cases = _count_calls(monkeypatch, classify, "iso_case")
    solves = _count_calls(monkeypatch, classify, "oracle_isomorphic")
    t1, t2 = Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle()
    assert isomorphic(t1, t2).case == "c"
    assert [orders for _, orders in reductions] == [hats._ALL_ROLES] * 2
    assert [case for _, _, case in cases] == ["a", "b", "c"]
    assert len(solves) == 1
    # a census hat is reduced once, and still gets its six oracle solves
    reductions.clear()
    corrs = _count_calls(monkeypatch, classify, "realized_correspondences")
    assert census(5, 5).ok
    assert len(reductions) == len(corrs) == 27


def test_right_triangle_rule():
    # legs j and m give side types (j, gcd(j,m), m): all distinct forces a
    # trivial group, equal legs give the full group, anything else is C2
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            t = Triangle.of((0, 0), (0, j), (m, 0))
            tag = automorphism_group(normalize(t).hat).tag
            if len({j, math.gcd(j, m), m}) == 3:
                assert tag == "Trivial", (j, m)
            elif j == m:
                assert tag == "S3", (j, m)
            else:
                assert tag == "C2", (j, m)


def test_double_base_family_rule():
    # (0,0), (m,km), (2m,0) has the full group exactly for k = 1 and k = 3
    for m in range(1, 6, 2):
        for k in range(1, 8, 2):
            t = Triangle.of((0, 0), (m, k * m), (2 * m, 0))
            tag = automorphism_group(normalize(t).hat).tag
            assert tag == ("S3" if k in (1, 3) else "C2"), (m, k)


def test_double_base_family_closed_forms():
    for m in range(1, 6, 2):
        for k in range(1, 10, 2):
            got = normalize(Triangle.of((0, 0), (m, k * m), (2 * m, 0))).hat
            if k % 4 == 1:
                expected = Hat((1 + 2 * (k // 4)) * m, k * m, m)
            else:
                expected = Hat((5 + 6 * (k // 4)) * m, k * m, m)
            assert got == expected, (m, k)


def test_equilateral_boundary_hats_are_crooked():
    # boundary (m,m,m) with i != m forces i beyond the base, never inside
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, m)
                if boundary_type(h.triangle()) == (m, m, m) and i != m:
                    assert i > m, (i, j, m)


def test_distinct_side_types_force_trivial_group():
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, m)
                r, s, t = boundary_type(h.triangle())
                if len({r, s, t}) == 3:
                    assert automorphism_group(h).tag == "Trivial", (i, j, m)


def test_census_small():
    report = census(5, 5)
    assert report.ok
    rows = {(row.j, row.m): row for row in report.rows}
    assert len(rows) == 9

    row = rows[(1, 1)]
    assert row.pointed_classes == 1
    assert row.isomorphism_classes == 1
    assert row.aut_counts["S3"] == 1

    row = rows[(3, 3)]
    assert row.pointed_classes == 3
    assert row.isomorphism_classes == 2
    assert row.aut_counts == {"Trivial": 2, "C2": 0, "C3": 0, "S3": 1}

    row = rows[(5, 1)]
    assert row.pointed_classes == 5
    assert row.isomorphism_classes == 2
    assert row.aut_counts == {"Trivial": 0, "C2": 5, "C3": 0, "S3": 0}

    row = rows[(3, 5)]
    assert row.pointed_classes == 3


def test_census_counts_a_three_cycle_cell():
    report = census(7, 1)
    row = next(r for r in report.rows if (r.j, r.m) == (7, 1))
    assert row.aut_counts["C3"] >= 1


def test_census_parallel_matches_serial():
    assert census(5, 5, workers=2) == census(5, 5)


def test_census_builds_no_dyadic_rational_and_skips_no_solve(monkeypatch):
    built = []
    init = DyadicRational.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    solves = []
    solve = oracle.affine_through

    def counted_solve(src, dst):
        solves.append(solve(src, dst))
        return solves[-1]

    monkeypatch.setattr(DyadicRational, "__init__", counted_init)
    monkeypatch.setattr(oracle, "affine_through", counted_solve)
    assert census(15, 15).ok
    assert built == []
    # six correspondence solves per hat, and as many hits as before
    assert len(solves) == 6 * 512
    assert sum(f is not None for f in solves) == 666
    # positive control: reading a witness's views does build dyadics
    normalize(Hat(5, 15, 1).triangle()).witness.linear
    assert len(built) == 4


#: sha256 of the reprs below, recorded before Triangle and AffineMap were
#: stored as integers (when both held DyadicRational coordinates).
GRID_DIGEST = "da87552da372a8e1eb36e3620aebb6e7b6eb2a97351460658d823947049e79a7"


def test_results_on_the_15_grid_are_unchanged():
    """normalize (six roles), automorphism_group (odd i), oracle_isomorphic
    both ways against a seeded unit-map image with shuffled vertices, for
    every i in -2j..4j and j, m <= 15, then census(15, 15)."""
    digest = hashlib.sha256()
    rng = random.Random(6)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(-2 * j, 4 * j + 1):
                hat = Hat(i, j, m)
                t = hat.triangle()
                for roles in permutations(range(3)):
                    digest.update(repr(normalize(t, roles)).encode())
                if i % 2:
                    digest.update(repr(automorphism_group(hat)).encode())
                image = t.transformed(tutil.rand_unit_map(rng))
                shuffled = Triangle(tuple(rng.sample(image.vertices, 3)))
                digest.update(repr(oracle_isomorphic(t, shuffled)).encode())
                digest.update(repr(oracle_isomorphic(shuffled, t)).encode())
    digest.update(repr(census(15, 15)).encode())
    assert digest.hexdigest() == GRID_DIGEST


def test_census_bounds_validation():
    with pytest.raises(InvalidBounds):
        census(4, 5)
    with pytest.raises(InvalidBounds):
        census(5, 0)
    with pytest.raises(InvalidBounds):
        census(5, 5, workers=0)


def test_census_workers_are_bounded_by_cpus(monkeypatch):
    classify = sys.modules["dyhat.classify"]
    pools = []

    # census imports the pool class when it runs pooled, so spy at its source
    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    serial = census(3, 3)
    assert pools == []
    assert census(3, 3, workers=10**6) == serial
    assert pools == [2]
    # one cell, or one CPU, leaves nothing to share: no pool at all
    assert census(1, 1, workers=10**6) == census(1, 1)
    monkeypatch.setattr(classify.os, "cpu_count", lambda: None)
    assert census(3, 3, workers=10**6) == serial
    assert pools == [2]


# ------------------------------------ integer boundary and route independence


def _boundary_of_hat(i, j, m):
    """aut_cycle's boundary of (0,0), (i,j), (m,0), read off the integers."""
    return (odd_gcd(i, j), odd_gcd(m - i, j), m)


def test_integer_boundary_matches_boundary_type_exhaustively():
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(-2 * j, 4 * j + 1):
                h = Hat(i, j, m)
                expected = boundary_type(h.triangle())
                assert _boundary_of_hat(i, j, m) == expected, h
                if i % 2:
                    k, l = i // m, j // m
                    cycle = expected == (m, m, m) and (k * k - k + 1) % l == 0
                    assert aut_cycle(h) == cycle, h


_SOLVER_NAMES = {"affine_through", "solve_correspondence"}


@pytest.mark.parametrize(
    "fn", [aut_fix_A, aut_fix_B, aut_fix_C, aut_cycle, iso_case, hat_of],
    ids=lambda fn: fn.__name__,
)
def test_decision_routes_never_reach_the_solver(fn):
    assert not _reachable_names(fn) & _SOLVER_NAMES


def test_reachable_names_sees_the_solver_where_it_is_used():
    assert "affine_through" in _reachable_names(oracle_isomorphic)
    assert "affine_through" in _reachable_names(normalize)
    assert _SOLVER_NAMES <= _reachable_names(realized_correspondences)


def _package_imports(module):
    """dyhat modules imported by module, directly or through one another."""
    src = Path(sys.modules["dyhat"].__file__).parent
    found, todo = set(), [module]
    while todo:
        tree = ast.parse((src / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("dyhat."):
                names = [node.module.split(".", 1)[1]]
            elif isinstance(node, ast.Import):
                names = [a.name.split(".", 1)[1] for a in node.names if a.name.startswith("dyhat.")]
            else:
                names = []
            for name in set(names) - found:
                found.add(name)
                todo.append(name)
    return found


def test_oracle_does_not_import_hats():
    imported = _package_imports("oracle")
    assert "geometry" in imported
    assert "hats" not in imported and "classify" not in imported
