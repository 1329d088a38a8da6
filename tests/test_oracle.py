"""Exact affine-solver oracle.

All expected matrices below were produced by solving the vertex equations by
hand and double-checked against the solver; nothing here is copied out of
the classification code.
"""

import pickle
import random
from itertools import permutations

from hypothesis import given, settings

from dyhat import AffineMap, DyadicRational, Hat, Triangle, oracle_isomorphic
from dyhat.geometry import Point2, cramer_source
from dyhat.oracle import (
    CASES,
    CORRESPONDENCES,
    Correspondence,
    perm_label,
    realized_correspondences,
    solve_correspondence,
)

import tutil
from reference import IDENTITY, affine, closure_sample, oracle_aut_count

D = DyadicRational


def test_correspondence_table():
    assert CASES == ("a", "b", "c", "d", "e", "f")
    perms = {c.case: c.perm for c in CORRESPONDENCES}
    assert perms == {
        "a": (0, 1, 2),
        "b": (2, 1, 0),
        "c": (0, 2, 1),
        "d": (1, 2, 0),
        "e": (2, 0, 1),
        "f": (1, 0, 2),
    }


def test_perm_label():
    assert perm_label((0, 1, 2)) == "ABC"
    assert perm_label((2, 1, 0)) == "CBA"
    assert perm_label((1, 2, 0)) == "BCA"


def test_identity_correspondence_on_identical_triangles():
    t = Hat(1, 9, 5).triangle()
    assert solve_correspondence(t, t, (0, 1, 2)) == IDENTITY


def test_swap_witness_on_translated_hat():
    # apex pinned at the origin; the map exchanges the other two vertices
    t = Triangle.of((-15, -9), (0, 0), (6, -9))
    got = solve_correspondence(t, t, (2, 1, 0))
    assert got == affine(-1, 1, 0, 1, 0, 0)
    assert got.linear.det() == D(-1)


def test_cycle_witnesses():
    t = Hat(3, 7, 1).triangle()
    assert solve_correspondence(t, t, (1, 2, 0)) == affine(-3, 1, -7, 2, 3, 7)
    assert solve_correspondence(t, t, (2, 0, 1)) == affine(2, -1, 7, -3, 1, 0)
    assert solve_correspondence(t, t, (2, 1, 0)) is None


def test_cross_hat_witnesses():
    got = solve_correspondence(
        Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle(), (0, 2, 1)
    )
    assert got == affine(1, 0, 3, -1, 0, 0)

    got = solve_correspondence(
        Hat(1, 3, 5).triangle(), Hat(7, 3, 5).triangle(), (0, 1, 2)
    )
    assert got == affine(1, 2, 0, 1, 0, 0)


def test_reflection_witness():
    t = Triangle.of((0, 0), (3, 6), (6, 0))
    got = solve_correspondence(t, t, (2, 1, 0))
    assert got == affine(-1, 0, 0, 1, 6, 0)


def test_solver_rejects_non_unit_determinant():
    # areas differ by a factor of 3, so no determinant +-2**k exists
    assert (
        solve_correspondence(
            Hat(1, 1, 1).triangle(), Hat(1, 3, 1).triangle(), (0, 1, 2)
        )
        is None
    )


def test_solver_rejects_non_dyadic_entries():
    src = Triangle.of((0, 0), (0, 3), (3, 0))
    dst = Triangle.of((0, 0), (1, 1), (3, 0))
    # solving A->A, B->B, C->C forces a column (1/3, 1/3); not dyadic
    assert solve_correspondence(src, dst, (0, 1, 2)) is None


def test_oracle_isomorphic_reports_first_case():
    found = oracle_isomorphic(Hat(1, 3, 5).triangle(), Hat(7, 3, 5).triangle())
    assert found is not None
    corr, witness = found
    assert corr == Correspondence("a", (0, 1, 2))
    assert witness == affine(1, 2, 0, 1, 0, 0)
    assert oracle_isomorphic(Hat(1, 1, 1).triangle(), Hat(1, 3, 1).triangle()) is None


@given(tutil.triangles, tutil.unit_maps)
def test_oracle_accepts_unit_images(t, f):
    found = oracle_isomorphic(t, t.transformed(f))
    assert found is not None
    corr, witness = found
    assert corr.case == "a"
    assert witness == f


def test_solver_matches_fraction_reference_on_the_grid():
    solved = 0
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                t = Hat(i, j, m).triangle()
                for perm in permutations((0, 1, 2)):
                    got = solve_correspondence(t, t, perm)
                    assert got == tutil.fraction_solve(t, t, perm), (i, j, m, perm)
                    solved += got is not None
    assert solved > 512  # the identity everywhere, plus the automorphisms


@given(tutil.triangles, tutil.unit_maps, tutil.triangles)
def test_solver_matches_fraction_reference(t, f, other):
    image = t.transformed(f)
    for perm in permutations((0, 1, 2)):
        assert solve_correspondence(t, image, perm) == tutil.fraction_solve(t, image, perm)
        assert solve_correspondence(t, other, perm) == tutil.fraction_solve(t, other, perm)


@settings(max_examples=50)
@given(tutil.triangles, tutil.large_triangles, tutil.unit_maps, tutil.unit_maps,
       tutil.triangles)
def test_one_source_solved_to_several_targets_matches_the_reference(t, large, f, g, other):
    # each source keeps the Cramer data of its first solve for the later ones
    for src in (t, large):
        for dst in (src.transformed(f), other, src, large, src.transformed(g)):
            for perm in permutations((0, 1, 2)):
                got = solve_correspondence(src, dst, perm)
                assert got == tutil.fraction_solve(src, dst, perm), (src, dst, perm)
        assert src._source == cramer_source(src.scaled_coords())
        assert src.cramer_source is src._source


@given(tutil.triangles, tutil.unit_maps)
def test_a_solved_triangle_equals_a_fresh_one(t, f):
    image = t.transformed(f)
    solved = list(realized_correspondences(t, image))
    assert t._source is not None
    fresh = Triangle.from_scaled(*t.scaled_coords())
    assert fresh._source is None
    copy = pickle.loads(pickle.dumps(t))
    for u in (fresh, copy):
        assert u == t and t == u and hash(u) == hash(t) and repr(u) == repr(t)
    # the kept data is not pickled, and the copy solves like the original
    assert pickle.dumps(t) == pickle.dumps(fresh)
    assert copy._source is None
    assert list(realized_correspondences(copy, image)) == solved


def _solved(src, dst):
    """The realized correspondences, one solve_correspondence call each."""
    return [
        (corr, solved)
        for corr in CORRESPONDENCES
        if (solved := solve_correspondence(src, dst, corr.perm)) is not None
    ]


def test_realized_correspondences_yield_the_solver_hits_in_order():
    rng = random.Random(15)
    pairs = 0
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                t = Hat(i, j, m).triangle()
                image = t.transformed(tutil.rand_unit_map(rng))
                shuffled = Triangle(tuple(rng.sample(image.vertices, 3)))
                for src, dst in ((t, t), (t, shuffled), (shuffled, t)):
                    want = _solved(src, dst)
                    assert want, (i, j, m)
                    assert list(realized_correspondences(src, dst)) == want, (i, j, m)
                    assert oracle_isomorphic(src, dst) == want[0], (i, j, m)
                    assert oracle_aut_count(src) == len(_solved(src, src))
                    pairs += 1
    other = Hat(1, 3, 5).triangle()
    assert list(realized_correspondences(Hat(1, 1, 1).triangle(), other)) == []
    assert pairs == 3 * 512


def test_oracle_aut_counts():
    expected = {
        (1, 1, 1): 6,
        (3, 7, 1): 3,
        (15, 9, 21): 2,
        (1, 5, 1): 2,
        (1, 9, 5): 1,
    }
    for params, count in expected.items():
        assert oracle_aut_count(Hat(*params).triangle()) == count, params


@given(tutil.rep_hats)
def test_oracle_aut_count_is_a_group_order(h):
    assert oracle_aut_count(h.triangle()) in (1, 2, 3, 6)


def test_closure_sample_segment():
    pts = {Point2.of(0, 0), Point2.of(1, 0)}
    got = closure_sample(pts, 3)
    assert len(got) == 9
    eighth = D(1, -3)
    assert got == frozenset(
        Point2(eighth * D(k), D(0)) for k in range(9)
    )


def test_closure_sample_growth():
    gen = frozenset(Hat(1, 1, 1).triangle().vertices)
    sizes = [len(closure_sample(gen, d)) for d in range(5)]
    assert sizes == [3, 6, 15, 45, 153]


def test_closure_sample_fixpoint():
    single = {Point2.of(2, 2)}
    assert closure_sample(single, 5) == frozenset(single)


@given(tutil.triangles, tutil.unit_maps)
def test_solved_maps_match_maps_built_from_their_views(t, f):
    image = t.transformed(f)
    for perm in permutations((0, 1, 2)):
        solved = solve_correspondence(t, image, perm)
        if solved is None:
            continue
        copy = pickle.loads(pickle.dumps(solved))
        twin = AffineMap(solved.linear, solved.translation)
        for g in (copy, twin, pickle.loads(pickle.dumps(twin))):
            assert g == solved and hash(g) == hash(solved) and repr(g) == repr(solved)
            assert [g(p) for p in t.vertices] == [solved(p) for p in t.vertices]
        assert [solved(p) for p in t.vertices] == [image.vertices[k] for k in perm]
