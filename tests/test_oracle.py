"""Exact affine-solver oracle.

All expected matrices below were produced by solving the vertex equations by
hand and double-checked against the solver; nothing here is copied out of
the classification code.
"""

import pickle
import random
from collections import Counter
from itertools import permutations

import pytest

from hypothesis import given, settings
import hypothesis.strategies as st

from dyhat import AffineMap, DyadicRational, Hat, Triangle, oracle_isomorphic
from dyhat.oracle import (
    CORRESPONDENCES,
    Correspondence,
    perm_label,
    realized_cases,
    solve_correspondence,
)

import tutil
from reference import (
    IDENTITY,
    affine,
    apply,
    det,
    fraction_solve,
    oracle_aut_count,
    transformed,
)

D = DyadicRational


def test_correspondence_table():
    assert "".join(c.case for c in CORRESPONDENCES) == "abcdef"
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
    assert det(got) == D(-1)


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


def test_solve_correspondence_refuses_a_perm_that_is_not_an_order():
    # a repeated vertex would give a singular map, and an extra or negative
    # entry would index the wrong vertex; a value that is not iterable, or
    # whose entries cannot be hashed, is no order either
    t = Hat(1, 9, 5).triangle()
    for perm in ((0, 0, 0), (0, 1, 2, 3), (0, 1, -1), None, 5, [[0], [1], [2]]):
        with pytest.raises(ValueError, match=r"^perm must be a permutation of \(0, 1, 2\)$"):
            solve_correspondence(t, t, perm)
    # any sequence that is an order is accepted
    assert solve_correspondence(t, t, [0, 1, 2]) == IDENTITY


def test_oracle_isomorphic_refuses_a_value_that_is_not_a_triangle():
    t = Hat(1, 3, 5).triangle()
    with pytest.raises(TypeError, match="^src must be a Triangle, got int$"):
        oracle_isomorphic(1, 2)
    for value in (Hat(1, 3, 5), t.scaled_coords(), None):
        with pytest.raises(TypeError, match="^src must be a Triangle, got "):
            oracle_isomorphic(value, t)
        with pytest.raises(TypeError, match="^dst must be a Triangle, got "):
            oracle_isomorphic(t, value)


def test_oracle_isomorphic_tests_every_correspondence(monkeypatch):
    tested, hits = tutil.counted_pass(monkeypatch)
    # a pair realized by cases "a" and "b" tests all six, yields both, and
    # maps by the first
    src, dst = Hat(1, 3, 5).triangle(), Hat(7, 3, 5).triangle()
    assert oracle_isomorphic(src, dst) == ("ab", CORRESPONDENCES[0], affine(1, 2, 0, 1, 0, 0))
    # the pass reads each triangle's stored pair, not the Triangle
    assert tested == [
        (src.scaled_coords(), dst.scaled_coords(), c.perm) for c in CORRESPONDENCES
    ]
    assert hits == ["a", "b"]
    # a pair realized by cases "c" and "d" tests all six too
    tested.clear()
    other = Hat(5, 15, 1).triangle()
    assert oracle_isomorphic(src, other) == ("cd", CORRESPONDENCES[2], affine(1, 0, 3, -1, 0, 0))
    assert [perm for _, _, perm in tested] == [c.perm for c in CORRESPONDENCES]
    # odd parts 3 and 1 differ: the pass refuses the pair and tests none
    tested.clear()
    hits.clear()
    assert oracle_isomorphic(Hat(1, 1, 1).triangle(), Hat(1, 3, 1).triangle()) is None
    assert tested == [] and hits == []
    # a pair with the same odd part but no unit map tests all six
    assert oracle_isomorphic(Hat(3, 27, 21).triangle(), Hat(39, 27, 21).triangle()) is None
    assert len(tested) == 6 and hits == []


def _assert_the_pass_agrees(src, dst):
    """oracle_isomorphic (every case and the first hit's map), realized_cases
    when dst is src, and six solve_correspondence calls give the same
    answers as the Fraction reference."""
    want = {
        corr: fraction_solve(src, dst, corr.perm) for corr in CORRESPONDENCES
    }
    hits = [(corr, f) for corr, f in want.items() if f is not None]
    want_cases = "".join(corr.case for corr, _ in hits)
    if src is dst:
        assert realized_cases(src.scaled_coords()) == want_cases
    assert oracle_isomorphic(src, dst) == ((want_cases, *hits[0]) if hits else None)
    for corr, f in want.items():
        assert solve_correspondence(src, dst, corr.perm) == f, corr
    return want_cases


def test_the_pass_agrees_with_the_reference_on_the_31_grid():
    rng = random.Random(24)
    cases = Counter()
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(1, 2 * j, 2):
                t = Hat(i, j, m).triangle()
                image = transformed(t, tutil.rand_unit_map(rng))
                shuffled = Triangle(tuple(rng.sample(image.vertices, 3)))
                found = _assert_the_pass_agrees(t, shuffled)
                assert found, (i, j, m)
                cases[found] += 1
    assert sum(cases.values()) == 4096
    # every case letter is reached
    assert set("".join(cases)) == {c.case for c in CORRESPONDENCES}


@settings(max_examples=40)
@given(tutil.large_triangles, tutil.unit_maps, tutil.large_triangles, st.permutations(range(3)))
def test_the_pass_agrees_with_the_reference_on_large_triangles(t, f, other, order):
    image = Triangle(tuple(transformed(t, f).vertices[k] for k in order))
    assert _assert_the_pass_agrees(t, image)
    assert _assert_the_pass_agrees(t, t)
    _assert_the_pass_agrees(t, other)
    _assert_the_pass_agrees(image, t)


def _assert_the_untested_identity_holds(t):
    """realized_cases of t's stored pair, where the identity is taken as
    held, equals the cases of the full six-entry pass onto a distinct copy
    of t."""
    copy = Triangle.from_scaled(*t.scaled_coords())
    assert copy is not t and copy == t
    found = realized_cases(t.scaled_coords())
    assert found == oracle_isomorphic(t, copy)[0]
    assert found.startswith("a")


def test_the_untested_identity_holds_on_the_31_grid():
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(1, 2 * j, 2):
                _assert_the_untested_identity_holds(Hat(i, j, m).triangle())


@given(st.one_of(tutil.large_triangles, tutil.huge_triangles))
def test_the_untested_identity_holds_on_large_and_huge_triangles(t):
    _assert_the_untested_identity_holds(t)


def test_oracle_isomorphic_reports_first_case():
    found = oracle_isomorphic(Hat(1, 3, 5).triangle(), Hat(7, 3, 5).triangle())
    assert found is not None
    cases, corr, witness = found
    assert cases == "ab"
    assert corr == Correspondence("a", (0, 1, 2))
    assert witness == affine(1, 2, 0, 1, 0, 0)
    assert oracle_isomorphic(Hat(1, 1, 1).triangle(), Hat(1, 3, 1).triangle()) is None


@given(tutil.triangles, tutil.unit_maps)
def test_oracle_accepts_unit_images(t, f):
    found = oracle_isomorphic(t, transformed(t, f))
    assert found is not None
    cases, corr, witness = found
    assert corr.case == "a" and cases.startswith("a")
    assert witness == f


def _grid_15_images():
    """Each hat with j, m <= 15, with a seeded unit-map image of it whose
    vertices are shuffled."""
    rng = random.Random(15)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                t = Hat(i, j, m).triangle()
                image = transformed(t, tutil.rand_unit_map(rng))
                yield (i, j, m), t, Triangle(tuple(rng.sample(image.vertices, 3)))


def test_solver_matches_fraction_reference_on_the_grid():
    # the self passes find at least the identity, and the automorphisms too
    solved = 0
    for params, t, shuffled in _grid_15_images():
        for src in (t, shuffled):
            found = _assert_the_pass_agrees(src, src)
            assert found, params
            solved += len(found)
    assert solved > 2 * 512


def test_oracle_isomorphic_gives_the_first_solver_hit():
    pairs = 0
    for params, t, shuffled in _grid_15_images():
        for src, dst in ((t, shuffled), (shuffled, t)):
            assert _assert_the_pass_agrees(src, dst), params
            pairs += 1
    assert pairs == 2 * 512
    assert oracle_isomorphic(Hat(1, 1, 1).triangle(), Hat(1, 3, 5).triangle()) is None


@given(tutil.triangles, tutil.unit_maps, tutil.triangles)
def test_solver_matches_fraction_reference(t, f, other):
    image = transformed(t, f)
    for perm in permutations((0, 1, 2)):
        assert solve_correspondence(t, image, perm) == fraction_solve(t, image, perm)
        assert solve_correspondence(t, other, perm) == fraction_solve(t, other, perm)


@given(tutil.triangles, st.integers(1, 40))
def test_a_target_with_another_odd_part_is_never_solved(t, k):
    # a triangle of 2k + 1 times t's twice-area, solved either way
    ints, e = t.scaled_coords()
    stretched = Triangle.from_scaled(
        [n * (2 * k + 1) if index % 2 == 0 else n for index, n in enumerate(ints)], e
    )
    for perm in permutations((0, 1, 2)):
        assert solve_correspondence(t, stretched, perm) is None
        assert solve_correspondence(stretched, t, perm) is None


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


@given(tutil.triangles, tutil.unit_maps)
def test_solved_maps_match_maps_built_from_their_views(t, f):
    image = transformed(t, f)
    for perm in permutations((0, 1, 2)):
        solved = solve_correspondence(t, image, perm)
        if solved is None:
            continue
        copy = pickle.loads(pickle.dumps(solved))
        twin = AffineMap(solved.linear, solved.translation)
        for g in (copy, twin, pickle.loads(pickle.dumps(twin))):
            assert g == solved and hash(g) == hash(solved) and repr(g) == repr(solved)
            assert [apply(g, p) for p in t.vertices] == [apply(solved, p) for p in t.vertices]
        assert [apply(solved, p) for p in t.vertices] == [image.vertices[k] for k in perm]
