"""Points, unit affine maps, triangles, and the boundary invariants of
tests/reference.py."""

import pickle
from fractions import Fraction
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dyhat import DyadicRational, Hat, Triangle
from dyhat.dyadic import common_scale
from dyhat.errors import DegenerateTriangle, NotDyadic
from dyhat.geometry import AffineMap, Matrix2, Point2

import tutil
from reference import (
    BothZero,
    affine,
    apply,
    boundary_type,
    boundary_types_equivalent,
    compose,
    cross,
    det,
    is_unit,
    is_valid_boundary_triple,
    map_fractions,
    midpoint,
    reordered,
    segment_type,
    transformed,
    twice_area,
    weighted_mean,
)

D = DyadicRational


def tri(*coords):
    return Triangle.of(*coords)


def test_weighted_mean_and_midpoint():
    a = Point2(D(0), D(0))
    b = Point2(D(8), D(4))
    assert weighted_mean(a, b, D(3, -3)) == Point2(D(3), D(3, -1))
    assert midpoint(a, b) == Point2(D(4), D(2))
    assert weighted_mean(a, b, D(0)) == a
    assert weighted_mean(a, b, D(1)) == b


def test_affine_map_is_unit():
    assert affine(2, 0, 0, 1).is_unit()
    assert affine(D(1, -3), 0, 0, -1, 5, 7).is_unit()
    assert not affine(3, 0, 0, 1).is_unit()
    assert not affine(1, 0, 0, 0).is_unit()
    assert affine(0, 1, 1, 0).is_unit()


#: Any triangle serves to solve for a map's inverse through its vertices.
_SOLVE_ON = Triangle.of((0, 0), (1, 0), (0, 1))


def test_affine_compose_and_invert():
    f = affine(0, -1, 1, 0, 1, 0)
    g = affine(1, 0, 0, 1, 0, 5)
    h = f @ g
    p = Point2(D(2), D(3))
    assert apply(h, p) == apply(f, apply(g, p))
    finv = tutil.fraction_inverse(f, _SOLVE_ON)
    assert apply(finv, apply(f, p)) == p
    assert apply(f @ finv, p) == p


@given(tutil.unit_maps, tutil.points)
def test_unit_maps_invert_exactly(f, p):
    assert apply(tutil.fraction_inverse(f, _SOLVE_ON), apply(f, p)) == p


# a second row k times the first: determinant 0
_singular_maps = st.builds(
    lambda a, b, k, tx, ty: affine(a, b, a * k, b * k, tx, ty),
    *[tutil.small_dyadics] * 5,
)
_maps = st.one_of(tutil.unit_maps, tutil.any_maps, _singular_maps)


@given(_maps, _maps)
def test_integer_composition_and_unit_test_match_fractions(f, g):
    # a singular map is not a unit, and testing it raises nothing
    for h in (f, g, f @ g):
        assert h.is_unit() == is_unit(h)
    assert map_fractions(f @ g) == compose(f, g)


def test_twice_area():
    assert twice_area(tri((0, 0), (15, 9), (21, 0))) == D(9 * 21)
    t = Triangle(
        (Point2(D(0), D(0)), Point2(D(1, -1), D(0)), Point2(D(0), D(1, -1)))
    )
    assert twice_area(t) == D(1, -2)


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        tri((0, 0), (1, 1), (2, 2))
    with pytest.raises(DegenerateTriangle):
        tri((0, 0), (0, 0), (1, 0))


def test_segment_type():
    assert segment_type(Point2(D(0), D(0)), Point2(D(21), D(0))) == 21
    assert segment_type(Point2(D(0), D(0)), Point2(D(15), D(9))) == 3
    assert segment_type(Point2(D(0), D(0)), Point2(D(1, -1), D(0))) == 1
    assert segment_type(Point2(D(0), D(0)), Point2(D(3, -2), D(9, -2))) == 3
    with pytest.raises(BothZero):
        segment_type(Point2(D(1), D(1)), Point2(D(1), D(1)))


def test_boundary_type_fixtures():
    assert boundary_type(tri((0, 0), (15, 9), (21, 0))) == (3, 3, 21)
    assert boundary_type(tri((0, 0), (21, 9), (3, 0))) == (3, 9, 3)
    assert boundary_type(tri((0, 0), (1, 3), (5, 0))) == (1, 1, 5)
    assert boundary_type(tri((0, 0), (3, 7), (1, 0))) == (1, 1, 1)
    assert boundary_type(tri((0, 0), (3, 27), (21, 0))) == (3, 9, 21)
    assert boundary_type(tri((0, 0), (39, 27), (21, 0))) == (3, 9, 21)


def test_valid_boundary_triples():
    assert is_valid_boundary_triple(3, 9, 21)
    assert is_valid_boundary_triple(1, 1, 1)
    assert is_valid_boundary_triple(3, 3, 21)
    assert is_valid_boundary_triple(1, 1, 5)
    assert is_valid_boundary_triple(3, 9, 3)
    # gcds need to agree, nothing more; (1,3,1) has all gcds 1
    assert is_valid_boundary_triple(1, 3, 1)
    assert not is_valid_boundary_triple(3, 3, 5)
    assert not is_valid_boundary_triple(5, 3, 15)
    # every triangle's boundary triple is one of them
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                assert is_valid_boundary_triple(*boundary_type(Hat(i, j, m).triangle()))


def test_boundary_equivalence_up_to_rotation_and_reversal():
    assert boundary_types_equivalent((3, 3, 21), (3, 21, 3))
    assert boundary_types_equivalent((1, 3, 9), (9, 3, 1))
    assert boundary_types_equivalent((1, 3, 9), (3, 9, 1))
    assert not boundary_types_equivalent((3, 3, 21), (3, 3, 3))
    assert not boundary_types_equivalent((1, 1, 5), (1, 5, 5))


@given(tutil.triangles, tutil.unit_maps)
def test_twice_area_scales_by_det(t, f):
    assert twice_area(transformed(t, f)) == twice_area(t) * abs(det(f))


@given(tutil.triangles, tutil.unit_maps)
def test_boundary_type_stable_under_unit_maps(t, f):
    # Unit maps permute vertex roles only through our explicit application,
    # so the boundary triple matches slot for slot.
    assert boundary_type(transformed(t, f)) == boundary_type(t)


@given(tutil.triangles)
def test_two_equal_boundary_entries_divide_the_third(t):
    r, s, u = boundary_type(t)
    if r == s:
        assert u % r == 0
    if s == u:
        assert r % s == 0
    if r == u:
        assert s % r == 0


# ------------------------------------------------- stored integer coordinates


def _collinear_triple(a, d, r, s):
    """a, a + r*d, a + s*d: collinear, with r and s of unrelated exponents."""
    return a, Point2(a.x + d.x * r, a.y + d.y * r), Point2(a.x + d.x * s, a.y + d.y * s)


_any_triples = st.tuples(tutil.points, tutil.points, tutil.points)
_collinear_triples = st.builds(
    _collinear_triple, tutil.points, tutil.points, tutil.dyadics, tutil.dyadics
)


@given(st.one_of(_any_triples, _collinear_triples))
def test_integer_collinearity_check_matches_cross(pts):
    a, b, c = pts
    if not cross(a, b, c):
        with pytest.raises(DegenerateTriangle, match="are collinear"):
            Triangle(pts)
    else:
        Triangle(pts)


def test_collinear_triples_with_mixed_exponents_are_rejected():
    a = Point2(D(3, -5), D(-1, 7))
    d = Point2(D(5, -2), D(3, 3))
    for r, s in ((D(1, -9), D(3, 6)), (D(-7, 2), D(1, -1)), (D(5), D(0))):
        with pytest.raises(DegenerateTriangle):
            Triangle(_collinear_triple(a, d, r, s))


def _assert_stored_integers_reconstruct(t):
    for order in permutations(range(3)):
        ints, e = reordered(t, order).scaled_coords()
        coords = [c for k in order for c in (t.vertices[k].x, t.vertices[k].y)]
        assert [D(n, e) for n in ints] == coords
        assert (ints, e) == common_scale(*coords)


@given(tutil.triangles, tutil.unit_maps)
def test_stored_integers_reconstruct_the_vertices(t, f):
    _assert_stored_integers_reconstruct(t)
    _assert_stored_integers_reconstruct(transformed(t, f))


def test_stored_integers_leave_equality_hash_repr_and_pickle_alone():
    t = Triangle((Point2(D(3, -2), D(0)), Point2(D(5), D(1)), Point2(D(-7, -3), D(9, 4))))
    assert repr(t) == (
        "Triangle(vertices=(Point2(x=DyadicRational(3, -2), y=DyadicRational(0, 0)), "
        "Point2(x=DyadicRational(5, 0), y=DyadicRational(1, 0)), "
        "Point2(x=DyadicRational(-7, -3), y=DyadicRational(9, 4))))"
    )
    assert hash(t) == hash(t.scaled_coords())
    twin = Triangle(tuple(Point2(p.x, p.y) for p in t.vertices))
    assert twin == t and hash(twin) == hash(t)
    assert t != Triangle((t.vertices[1], t.vertices[0], t.vertices[2]))
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t) and repr(copy) == repr(t)
    assert copy.scaled_coords() == t.scaled_coords() == (
        (6, 0, 40, 8, -7, 1152), -3
    )


def _assert_same_triangle(u, t):
    assert u == t and hash(u) == hash(t) and repr(u) == repr(t)
    assert u.scaled_coords() == t.scaled_coords()
    assert pickle.dumps(u) == pickle.dumps(t)


@given(tutil.triangles, tutil.unit_maps)
def test_from_scaled_matches_the_vertex_constructor(t, f):
    for tri in (t, transformed(t, f)):
        built = Triangle.from_scaled(*tri.scaled_coords())
        _assert_same_triangle(built, tri)
        _assert_same_triangle(pickle.loads(pickle.dumps(built)), tri)
        # a power of two left on the integers moves into the exponent
        ints, e = tri.scaled_coords()
        _assert_same_triangle(Triangle.from_scaled([n << 3 for n in ints], e - 3), tri)


def test_from_scaled_rejects_collinear_integers_like_the_vertex_constructor():
    pts = (Point2(D(0), D(0)), Point2(D(1, -1), D(3, -2)), Point2(D(2), D(3)))
    with pytest.raises(DegenerateTriangle) as by_vertices:
        Triangle(pts)
    with pytest.raises(DegenerateTriangle) as by_integers:
        Triangle.from_scaled((0, 0, 2, 3, 8, 12), -2)
    assert str(by_integers.value) == str(by_vertices.value)
    with pytest.raises(DegenerateTriangle):
        Triangle.from_scaled((0,) * 6, 5)


def test_a_vertex_coordinate_that_is_not_an_int_or_a_dyadic_is_refused():
    for point, fault in (((0.5, 1), "got float"), ((1, Fraction(1, 2)), "got Fraction"),
                         ((True, 1), "got bool"), ((1, None), "got NoneType")):
        with pytest.raises(NotDyadic, match=fault):
            Triangle.of((0, 0), point, (1, 0))
        # the records take any field, so the constructors check each one
        with pytest.raises(NotDyadic, match=fault):
            Triangle((Point2(0, 0), Point2(*point), Point2(1, 0)))
        with pytest.raises(NotDyadic, match=fault):
            AffineMap(Matrix2(1, 0, *point), Point2(0, 0))
        with pytest.raises(NotDyadic, match=fault):
            AffineMap(Matrix2(1, 0, 0, 1), Point2(*point))
    # an int field is the dyadic it equals
    assert Triangle((Point2(0, 0), Point2(1, 0), Point2(0, 1))) == Triangle.of(
        (0, 0), (1, 0), (0, 1))
    assert AffineMap(Matrix2(1, 0, 0, 1), Point2(3, 0)) == AffineMap.from_scaled(
        ((1, 0, 0, 1), 0), ((3, 0), 0))


def test_from_scaled_refuses_a_wrong_count_or_a_non_int_with_not_dyadic():
    for ints, e, fault in (
        ([0, 0, 1, 0, 0], 0, "6 integers, got 5"),
        ((0, 0, 1, 0, 0, 1, 2), 0, "6 integers, got 7"),
        ((0, 0, 1.0, 0, 0, 1), 0, "values must be integers, got float"),
        ((0, 0, "1", 0, 0, 1), 0, "values must be integers, got str"),
        ((0, 0, 1, 0, 0, 1), 0.5, "exponent must be an integer, got float"),
        ((0, 0, 2, 0, 0, 2), 0.5, "exponent must be an integer, got float"),
        (5, 0, "values must be a sequence of integers, got int"),
    ):
        with pytest.raises(NotDyadic, match=fault):
            Triangle.from_scaled(ints, e)
    linear, translation = ((1, 0, 0, 1), 0), ((0, 0), 0)
    for scaled, fault in (
        ((((1, 0, 1), 0), translation), "4 linear and 2 translation integers, got 3 and 2"),
        ((linear, ((0,), 0)), "got 4 and 1"),
        ((((1, 0, 0, 1.5), 0), translation), "values must be integers, got float"),
        ((linear, ((0, 0), 1.0)), "exponent must be an integer, got float"),
        (((1, 0, 0, 1), ((0, 0), 0)), r"needs \(integers, exponent\) pairs"),
        ((linear, 5), r"needs \(integers, exponent\) pairs"),
    ):
        with pytest.raises(NotDyadic, match=fault):
            AffineMap.from_scaled(*scaled)
    # a bool is an int
    assert Triangle.from_scaled((0, 0, True, 0, 0, True), False) == Triangle.from_scaled(
        (0, 0, 1, 0, 0, 1), 0
    )
    assert AffineMap.from_scaled(((True, 0, 0, True), 0), translation) == AffineMap.from_scaled(
        linear, translation
    )
    # and is kept as the int it equals, so the value reads, prints and
    # pickles like the one built from ints
    ints = (0, 0, 1, 3, 5, 0)
    for built, plain in (
        (Triangle.from_scaled(ints, True), Triangle.from_scaled(ints, 1)),
        (Triangle.from_scaled((False, False, True, 3, 5, False), 0), Triangle.from_scaled(ints, 0)),
        (AffineMap.from_scaled((linear[0], True), translation),
         AffineMap.from_scaled((linear[0], 1), translation)),
        (AffineMap.from_scaled(((True, 0, 0, True), 0), ((False, True), False)),
         AffineMap.from_scaled(linear, ((0, 1), 0))),
    ):
        assert repr(built) == repr(pickle.loads(pickle.dumps(built))) == repr(plain)
    assert Triangle.from_scaled(ints, True).vertices == Triangle.from_scaled(ints, 1).vertices
