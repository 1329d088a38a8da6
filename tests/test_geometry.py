"""Points, unit affine maps, triangles, and boundary invariants."""

import pickle
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from dyhat import (
    AffineMap,
    BoundaryType,
    DyadicRational,
    Matrix2,
    Point2,
    Triangle,
    boundary_type,
    boundary_types_equivalent,
    contains,
    is_valid_boundary_triple,
    midpoint,
    segment_type,
    twice_area,
    weighted_mean,
)
from dyhat.dyadic import common_scale
from dyhat.errors import DegenerateTriangle, EqualPoints, NotInvertibleOverD
from dyhat.geometry import _cross

import tutil

D = DyadicRational


def tri(*coords):
    return Triangle.of(*coords)


def test_point_arithmetic():
    p = Point2.of(1, 2)
    q = Point2.of(3, -1)
    assert p + q == Point2.of(4, 1)
    assert p - q == Point2.of(-2, 3)
    assert (-p) == Point2.of(-1, -2)
    assert p.scaled(D(1, -1)) == Point2(D(1, -1), D(1))


def test_weighted_mean_and_midpoint():
    a = Point2.of(0, 0)
    b = Point2.of(8, 4)
    assert weighted_mean(a, b, D(3, -3)) == Point2(D(3), D(3, -1))
    assert midpoint(a, b) == Point2.of(4, 2)
    assert weighted_mean(a, b, D(0)) == a
    assert weighted_mean(a, b, D(1)) == b


def test_matrix_determinant_and_unit():
    m = Matrix2.of(2, 0, 0, 1)
    assert m.det() == D(2)
    assert m.is_unit()
    assert not Matrix2.of(3, 0, 0, 1).is_unit()
    assert not Matrix2.of(1, 0, 0, 0).is_unit()
    assert Matrix2.of(0, 1, 1, 0).is_unit()


def test_matrix_inverse():
    m = Matrix2.of(1, 0, 0, 2)
    inv = m.invert()
    assert inv == Matrix2(D(1), D(0), D(0), D(1, -1))
    assert m @ inv == Matrix2.identity()
    with pytest.raises(NotInvertibleOverD):
        Matrix2.of(3, 0, 0, 1).invert()
    with pytest.raises(NotInvertibleOverD):
        Matrix2.of(1, 2, 2, 4).invert()


def test_affine_compose_and_invert():
    f = AffineMap(Matrix2.of(0, -1, 1, 0), Point2.of(1, 0))
    g = AffineMap.from_translation(Point2.of(0, 5))
    h = f @ g
    p = Point2.of(2, 3)
    assert h(p) == f(g(p))
    finv = f.invert()
    assert finv(f(p)) == p
    assert (f @ finv)(p) == p


@given(tutil.unit_maps, tutil.points)
def test_unit_maps_invert_exactly(f, p):
    assert f.invert()(f(p)) == p


def test_twice_area():
    assert twice_area(tri((0, 0), (15, 9), (21, 0))) == D(9 * 21)
    t = Triangle(
        (Point2.of(0, 0), Point2(D(1, -1), D(0)), Point2(D(0), D(1, -1)))
    )
    assert twice_area(t) == D(1, -2)


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        tri((0, 0), (1, 1), (2, 2))
    with pytest.raises(DegenerateTriangle):
        tri((0, 0), (0, 0), (1, 0))


def test_segment_type():
    assert segment_type(Point2.of(0, 0), Point2.of(21, 0)) == 21
    assert segment_type(Point2.of(0, 0), Point2.of(15, 9)) == 3
    assert segment_type(Point2.of(0, 0), Point2(D(1, -1), D(0))) == 1
    assert segment_type(Point2.of(0, 0), Point2(D(3, -2), D(9, -2))) == 3
    with pytest.raises(EqualPoints):
        segment_type(Point2.of(1, 1), Point2.of(1, 1))


def test_boundary_type_fixtures():
    assert boundary_type(tri((0, 0), (15, 9), (21, 0))) == (3, 3, 21)
    assert boundary_type(tri((0, 0), (21, 9), (3, 0))) == (3, 9, 3)
    assert boundary_type(tri((0, 0), (1, 3), (5, 0))) == (1, 1, 5)
    assert boundary_type(tri((0, 0), (3, 7), (1, 0))) == (1, 1, 1)
    assert boundary_type(tri((0, 0), (3, 27), (21, 0))) == (3, 9, 21)
    assert boundary_type(tri((0, 0), (39, 27), (21, 0))) == (3, 9, 21)


def test_boundary_type_is_a_named_triple():
    bt = boundary_type(tri((0, 0), (15, 9), (21, 0)))
    assert isinstance(bt, BoundaryType)
    assert (bt.r, bt.s, bt.t) == (3, 3, 21)


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


def test_boundary_equivalence_up_to_rotation_and_reversal():
    assert boundary_types_equivalent((3, 3, 21), (3, 21, 3))
    assert boundary_types_equivalent((1, 3, 9), (9, 3, 1))
    assert boundary_types_equivalent((1, 3, 9), (3, 9, 1))
    assert not boundary_types_equivalent((3, 3, 21), (3, 3, 3))
    assert not boundary_types_equivalent((1, 1, 5), (1, 5, 5))


def test_contains():
    t = tri((0, 0), (1, 1), (2, 0))
    assert contains(t, Point2(D(1, -1), D(1, -2)))
    assert contains(t, Point2.of(0, 0))
    assert contains(t, Point2.of(1, 1))
    assert contains(t, Point2(D(1), D(0)))
    assert not contains(t, Point2.of(1, 2))
    assert not contains(t, Point2.of(-1, 0))


@given(tutil.triangles, tutil.points, tutil.points)
def test_contains_closed_under_midpoints(t, p, q):
    if contains(t, p) and contains(t, q):
        assert contains(t, midpoint(p, q))


@given(tutil.triangles, tutil.unit_maps)
def test_twice_area_scales_by_det(t, f):
    assert twice_area(t.transformed(f)) == twice_area(t) * abs(f.det())


@given(tutil.triangles, tutil.unit_maps)
def test_boundary_type_stable_under_unit_maps(t, f):
    # Unit maps permute vertex roles only through our explicit application,
    # so the boundary triple matches slot for slot.
    assert boundary_type(t.transformed(f)) == boundary_type(t)


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
    return a, a + d.scaled(r), a + d.scaled(s)


_any_triples = st.tuples(tutil.points, tutil.points, tutil.points)
_collinear_triples = st.builds(
    _collinear_triple, tutil.points, tutil.points, tutil.dyadics, tutil.dyadics
)


@given(st.one_of(_any_triples, _collinear_triples))
def test_integer_collinearity_check_matches_cross(pts):
    a, b, c = pts
    if _cross(b - a, c - a).is_zero:
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
        ints, e = t.scaled_coords(order)
        coords = [c for k in order for c in (t.vertices[k].x, t.vertices[k].y)]
        assert [D(n, e) for n in ints] == coords
        assert (ints, e) == common_scale(*coords)


@given(tutil.triangles, tutil.unit_maps)
def test_stored_integers_reconstruct_the_vertices(t, f):
    _assert_stored_integers_reconstruct(t)
    _assert_stored_integers_reconstruct(t.transformed(f))


def test_stored_integers_leave_equality_hash_repr_and_pickle_alone():
    t = Triangle((Point2(D(3, -2), D(0)), Point2.of(5, 1), Point2(D(-7, -3), D(9, 4))))
    assert repr(t) == (
        "Triangle(vertices=(Point2(x=DyadicRational(3, -2), y=DyadicRational(0, 0)), "
        "Point2(x=DyadicRational(5, 0), y=DyadicRational(1, 0)), "
        "Point2(x=DyadicRational(-7, -3), y=DyadicRational(9, 4))))"
    )
    # a frozen dataclass hashes the tuple of its compared fields
    assert hash(t) == hash((t.vertices,))
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
    for order in permutations(range(3)):
        assert u.scaled_coords(order) == t.scaled_coords(order)


@given(tutil.triangles, tutil.unit_maps)
def test_from_scaled_matches_the_vertex_constructor(t, f):
    for tri in (t, t.transformed(f)):
        built = Triangle.from_scaled(*tri.scaled_coords())
        _assert_same_triangle(built, tri)
        _assert_same_triangle(pickle.loads(pickle.dumps(built)), tri)
        # a power of two left on the integers moves into the exponent
        ints, e = tri.scaled_coords()
        _assert_same_triangle(Triangle.from_scaled([n << 3 for n in ints], e - 3), tri)


def test_from_scaled_rejects_collinear_integers_like_the_vertex_constructor():
    pts = (Point2.of(0, 0), Point2(D(1, -1), D(3, -2)), Point2.of(2, 3))
    with pytest.raises(DegenerateTriangle) as by_vertices:
        Triangle(pts)
    with pytest.raises(DegenerateTriangle) as by_integers:
        Triangle.from_scaled((0, 0, 2, 3, 8, 12), -2)
    assert str(by_integers.value) == str(by_vertices.value)
    with pytest.raises(DegenerateTriangle):
        Triangle.from_scaled((0,) * 6, 5)
