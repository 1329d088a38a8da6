"""Hat normal forms: the reduction pipeline, pointed classes, triple sets."""

import hashlib
import pickle
import random
import time
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from dyhat import (
    DyadicRational,
    EncodingTriple,
    Hat,
    Triangle,
    all_encoding_triples,
    canonical_form,
    hat_of,
    normalize,
)
from dyhat.errors import InconsistencyError, InvalidHat
from dyhat.geometry import Point2
from dyhat.hats import ROLE_ORDERS, role_triples

import tutil
from reference import (
    IDENTITY,
    apply,
    closed_form_triples,
    fraction_solve,
    hat_by_inverse,
    pointed_canonical,
    reordered,
    transformed,
)

D = DyadicRational


def tri(*coords):
    return Triangle.of(*coords)


def test_hat_validation():
    h = Hat(4, 3, 5)
    assert not h.is_representative
    assert Hat(1, 3, 5).is_representative
    with pytest.raises(InvalidHat):
        Hat(1, 2, 3)
    with pytest.raises(InvalidHat):
        Hat(1, 3, -1)
    with pytest.raises(InvalidHat):
        Hat(1, 3, 0)


def test_hat_triangle():
    t = Hat(15, 9, 21).triangle()
    assert t.vertices == (Point2(D(0), D(0)), Point2(D(15), D(9)), Point2(D(21), D(0)))
    # the triangle from_scaled builds, for i of either parity and sign, in
    # its stored integers, equality, hash, repr and pickle bytes
    for i, j, m in [(15, 9, 21), (2, 3, 5), (0, 1, 1), (-6, 3, 9), (10**40, 3**50, 1)]:
        built, plain = Hat(i, j, m).triangle(), Triangle.from_scaled((0, 0, i, j, m, 0), 0)
        assert built._scaled == plain._scaled
        assert built == plain and hash(built) == hash(plain)
        assert repr(built) == repr(plain)
        assert pickle.dumps(built) == pickle.dumps(plain)


def test_encoding_triple_validation():
    EncodingTriple(1, 3, 5)
    EncodingTriple(5, 3, 5)
    with pytest.raises(InvalidHat):
        EncodingTriple(4, 3, 5)
    with pytest.raises(InvalidHat):
        EncodingTriple(7, 3, 5)
    with pytest.raises(InvalidHat):
        EncodingTriple(-1, 3, 5)


def test_pointed_canonical():
    assert pointed_canonical(Hat(7, 3, 5)) == EncodingTriple(1, 3, 5)
    assert pointed_canonical(Hat(4, 3, 5)) == EncodingTriple(1, 3, 5)
    assert pointed_canonical(Hat(-1, 3, 5)) == EncodingTriple(5, 3, 5)
    assert pointed_canonical(Hat(3, 3, 5)) == EncodingTriple(3, 3, 5)
    assert pointed_canonical(Hat(0, 1, 1)) == EncodingTriple(1, 1, 1)


@given(tutil.rep_hats)
def test_pointed_canonical_collapses_shear_orbits(h):
    canon = pointed_canonical(h)
    assert pointed_canonical(Hat(h.i + 2 * h.j, h.j, h.m)) == canon
    assert pointed_canonical(Hat(h.i - 4 * h.j, h.j, h.m)) == canon
    # an even i reduces through i + j, so shifting by j lands in the same class
    assert pointed_canonical(Hat(h.i + h.j, h.j, h.m)) == canon


def test_normalize_half_integer_and_reflected():
    half = D(1, -1)
    assert normalize(Triangle.of((0, 0), (half, half), (1, 0))).hat == Hat(1, 1, 1)
    assert normalize(tri((0, 0), (1, -1), (2, 0))).hat == Hat(1, 1, 1)


def test_normalize_is_identity_on_representative_hats():
    for h in (Hat(1, 3, 5), Hat(15, 9, 21), Hat(3, 7, 1), Hat(5, 5, 5)):
        got, witness = normalize(h.triangle())
        assert got == h
        assert witness == IDENTITY


def test_normalize_rejects_bad_roles():
    t = tri((0, 0), (1, 1), (2, 0))
    with pytest.raises(ValueError):
        normalize(t, (0, 1, 1))
    with pytest.raises(ValueError):
        normalize(t, (0, 1, 3))
    # hat_of refuses the same roles with the same message; an order given
    # as a list is accepted
    for roles in [(0, 0, 1), (0, 1), (0, 1, 3), (0, 1, 2, 0), None, 5, [[0], [1], [2]]]:
        for fn in (hat_of, normalize):
            with pytest.raises(ValueError, match=r"^roles must be a permutation of \(0, 1, 2\)$"):
                fn(t, roles)
    assert hat_of(t, [1, 2, 0]) == hat_of(t, (1, 2, 0))
    assert normalize(t, [1, 2, 0]) == normalize(t, (1, 2, 0))
    # roles are read once, so an iterator is checked and used as one order
    assert hat_of(t, iter((1, 2, 0))) == hat_of(t, (1, 2, 0))
    assert normalize(t, iter((1, 2, 0))) == normalize(t, (1, 2, 0))
    for fn in (hat_of, normalize):
        with pytest.raises(ValueError, match=r"^roles must be a permutation of \(0, 1, 2\)$"):
            fn(t, iter((0, 1, 1)))


@pytest.mark.parametrize(
    "fn", [hat_of, normalize, all_encoding_triples, canonical_form],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("value", [Hat(1, 3, 5), (1, 3, 5), None], ids=repr)
def test_triangle_exports_refuse_a_value_that_is_not_a_triangle(fn, value):
    with pytest.raises(TypeError, match="^tri must be a Triangle, got "):
        fn(value)


@given(tutil.triangles)
def test_witness_properties_hold_generically(t):
    hat, witness = normalize(t)
    assert apply(witness, t.vertices[0]) == Point2(D(0), D(0))
    assert apply(witness, t.vertices[1]) == Point2(D(hat.i), D(hat.j))
    assert apply(witness, t.vertices[2]) == Point2(D(hat.m), D(0))
    assert witness.is_unit()
    assert hat.is_representative and 1 <= hat.i <= 2 * hat.j - 1


@given(tutil.rep_hats)
def test_normalize_round_trip(h):
    canon = pointed_canonical(h)
    assert normalize(h.triangle()).hat == Hat(canon.i, canon.j, canon.m)


def test_all_encoding_triples_fixture():
    got = all_encoding_triples(Hat(1, 3, 5).triangle())
    assert got == {
        EncodingTriple(1, 3, 5),
        EncodingTriple(5, 15, 1),
        EncodingTriple(11, 15, 1),
    }
    assert all_encoding_triples(Hat(1, 1, 1).triangle()) == {EncodingTriple(1, 1, 1)}


def test_canonical_form_fixture():
    assert canonical_form(Hat(1, 3, 5).triangle()) == EncodingTriple(1, 3, 5)
    assert canonical_form(Hat(5, 15, 1).triangle()) == EncodingTriple(1, 3, 5)
    assert canonical_form(Hat(15, 9, 21).triangle()) == EncodingTriple(15, 9, 21)


@given(tutil.triangles, tutil.unit_maps)
def test_canonical_form_is_a_unit_map_invariant(t, f):
    assert canonical_form(transformed(t, f)) == canonical_form(t)


def test_normalize_witness_matches_fraction_reference_on_the_grid():
    rng = random.Random(15)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                image = transformed(Hat(i, j, m).triangle(), tutil.rand_unit_map(rng))
                for roles in permutations((0, 1, 2)):
                    result = normalize(image, roles)
                    # vertices[roles[k]] goes to vertex k of the hat
                    inverse = tuple(roles.index(k) for k in range(3))
                    want = fraction_solve(image, result.hat.triangle(), inverse)
                    assert want is not None and result.witness == want, (i, j, m, roles)


def _check_shared_edges(t):
    """role_triples, whose six orders share their base edges, against hat_of
    of the triangle with its vertices put in each order, where no edge is
    shared; each triple is an EncodingTriple's fields (the record's checks
    run on every triple here).  Returns all_encoding_triples(t)."""
    roles = role_triples(t)
    assert roles == tuple(tuple(hat_of(reordered(t, order))) for order in ROLE_ORDERS)
    for triple in roles:
        EncodingTriple(*triple)
    return all_encoding_triples(t)


#: sha256 of the sorted reprs of all_encoding_triples below, recorded before
#: the six role orders shared their base edges.
ENCODING_DIGEST = "bcf340382abbe8ba93fa9c0654f38b2fc1d95310847596af6ef79aa4cdf4a852"


def test_shared_edge_reduction_matches_unshared_hats_on_the_31_grid():
    """Every i in -2j..4j and j, m <= 31: each role order's hat equals the
    hat of the reordered triangle, and the triple set is unchanged."""
    digest = hashlib.sha256()
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(-2 * j, 4 * j + 1):
                triples = _check_shared_edges(Hat(i, j, m).triangle())
                digest.update(repr(sorted(map(repr, triples))).encode())
    assert digest.hexdigest() == ENCODING_DIGEST


def test_shared_edge_reduction_on_unit_map_images_of_the_15_grid():
    """As above, on a seeded unit-map image of every representative hat
    with j, m <= 15, so that no vertex sits at the origin."""
    rng = random.Random(11)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                _check_shared_edges(transformed(Hat(i, j, m).triangle(),
                                                tutil.rand_unit_map(rng)))


@given(st.one_of(tutil.triangles, tutil.large_triangles, tutil.huge_triangles))
def test_shared_edge_reduction_matches_unshared_hats(t):
    _check_shared_edges(t)


def test_role_triples_are_the_closed_form_triples_on_the_31_grid():
    """Every representative hat with j, m <= 31: the triples of role_triples
    are reference.closed_form_triples, built from the paper's formulas."""
    hats = 0
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, m)
                assert set(role_triples(h.triangle())) == closed_form_triples(h), h
                hats += 1
    assert hats == 4096


@given(st.randoms(use_true_random=False))
def test_role_triples_are_the_closed_form_triples_on_large_shared_factors(rng):
    h = tutil.shared_factor_hat(rng, 100)
    assert set(role_triples(h.triangle())) == closed_form_triples(h)


def _check_against_the_inverse(t):
    """hat_of under each role order, and role_triples, against
    reference.hat_by_inverse, which divides by 2**v with an inverse modulo
    j; returns hat_by_inverse's ((i, j, m), v) for each order."""
    found = [hat_by_inverse(t, roles) for roles in ROLE_ORDERS]
    for roles, (hat, _) in zip(ROLE_ORDERS, found):
        assert tuple(hat_of(t, roles)) == hat, (t, roles)
    roles = role_triples(t)
    assert roles == tuple(hat for hat, _ in found)
    for triple in roles:
        EncodingTriple(*triple)
    return found


def test_two_adic_division_matches_the_inverse_on_unit_map_images_of_the_31_grid():
    """A seeded unit-map image of every representative hat with j, m <= 31;
    the maps' power-of-two denominators give edges with v > 0.  The image's
    hat is the hat it came from, and normalize's hat under each order is
    the reference's too."""
    rng = random.Random(2031)
    start = time.perf_counter()
    vs = []
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, m)
                image = transformed(h.triangle(), tutil.rand_unit_map(rng))
                found = _check_against_the_inverse(image)
                assert hat_of(image) == h, h
                for roles, (hat, v) in zip(ROLE_ORDERS, found):
                    assert tuple(normalize(image, roles).hat) == hat, (h, roles)
                    vs.append(v)
    took = time.perf_counter() - start
    assert len(vs) == 6 * 4096
    assert sum(v > 0 for v in vs) > len(vs) // 4
    assert 0 in vs
    assert took < 3.0, f"{took:.2f} s"


def test_two_adic_division_matches_the_inverse_on_large_pairs():
    vs = []
    for pair in tutil.large_iso_pairs(random.Random(2032), 100):
        for t in pair:
            vs += [v for _, v in _check_against_the_inverse(t)]
    assert sum(v > 0 for v in vs) > len(vs) // 4
    assert max(vs) > 1


@given(tutil.huge_triangles)
# bases that meet each branch of _edge_hats' inline Bezout row: horizontal
# either way (B = 0), vertical (A = 0), and |B / g| = 1
@example(Triangle.of((0, 0), (3, 5), (8, 0)))
@example(Triangle.of((8, 0), (3, 5), (0, 0)))
@example(Triangle.of((0, 0), (7, 3), (0, -12)))
@example(Triangle.of((0, 0), (3, 5), (7, 1)))
def test_two_adic_division_matches_the_inverse_on_huge_triangles(t):
    _check_against_the_inverse(t)


@given(tutil.huge_triangles, st.integers(0, 300), st.integers(0, 300))
# edge vectors whose x parts alone share a factor of two, whose y parts
# alone do, whose x and y parts both do, and neither, with an even area
@example(Triangle.of((0, 0), (2, 1), (4, 5)), 0, 0)
@example(Triangle.of((0, 0), (1, 2), (5, 4)), 0, 0)
@example(Triangle.of((1, 1), (3, 5), (7, 5)), 0, 0)
@example(Triangle.of((0, 0), (3, 1), (1, 3)), 0, 0)
@example(Triangle.of((1, 1), (3, 5), (7, 5)), 7, 2)
def test_role_triples_are_unchanged_by_a_power_of_two_on_each_axis(t, a, b):
    """The image of t under diag(2**a, 2**b), a unit map, has t's triples,
    and both agree with reference.hat_by_inverse, which strips nothing."""
    (x0, y0, x1, y1, x2, y2), e = t.scaled_coords()
    image = Triangle.from_scaled((x0 << a, y0 << b, x1 << a, y1 << b, x2 << a, y2 << b), e)
    assert role_triples(image) == role_triples(t)
    _check_against_the_inverse(image)


def test_normalize_raises_when_no_witness_exists(monkeypatch):
    monkeypatch.setattr("dyhat.hats.solve_correspondence", lambda src, dst, perm: None)
    with pytest.raises(InconsistencyError):
        normalize(Hat(1, 3, 5).triangle())
