"""Shared strategies, random builders and the reachability walk for the tests."""

import types
from fractions import Fraction
from functools import reduce

import hypothesis.strategies as st

from dyhat import AffineMap, DyadicRational, Hat, Triangle
from dyhat.errors import DegenerateTriangle
from dyhat.geometry import Matrix2, Point2

from reference import IDENTITY, affine, from_fraction, weighted_mean

dyadics = st.builds(DyadicRational, st.integers(-(2**16), 2**16), st.integers(-10, 10))
small_dyadics = st.builds(DyadicRational, st.integers(-64, 64), st.integers(-4, 4))
nonzero_dyadics = dyadics.filter(bool)

points = st.builds(Point2, small_dyadics, small_dyadics)

odd_ints = st.integers(-25, 25).map(lambda k: 2 * k + 1)
odd_positive = st.integers(0, 15).map(lambda k: 2 * k + 1)

# representative hats (i odd, possibly negative or past the fundamental domain)
rep_hats = st.builds(Hat, odd_ints, odd_positive, odd_positive)


def _triangle_or_none(a, b, c):
    try:
        return Triangle((a, b, c))
    except DegenerateTriangle:
        return None


triangles = st.builds(_triangle_or_none, points, points, points).filter(
    lambda t: t is not None
)

# coordinates far past a machine word, of either sign, with exponents of
# either sign, so that gcds, determinants and residues are large too
_large_dyadics = st.builds(
    DyadicRational, st.integers(-(2**80), 2**80), st.integers(-40, 40)
)
_large_points = st.builds(Point2, _large_dyadics, _large_dyadics)

large_triangles = st.builds(
    _triangle_or_none, _large_points, _large_points, _large_points
).filter(lambda t: t is not None)

_translations = points.map(lambda t: affine(1, 0, 0, 1, t.x, t.y))
_shears_x = st.integers(-4, 4).map(lambda s: affine(1, s, 0, 1))
_shears_y = st.integers(-4, 4).map(lambda s: affine(1, 0, s, 1))
_diags = st.tuples(
    st.sampled_from([1, -1]), st.sampled_from([1, -1]), st.integers(-3, 3)
).map(lambda t: affine(t[0], 0, 0, DyadicRational(t[1], t[2])))

unit_factors = st.one_of(_translations, _shears_x, _shears_y, _diags)

unit_maps = st.lists(unit_factors, max_size=4).map(
    lambda fs: reduce(lambda f, g: f @ g, fs, IDENTITY)
)


def rand_unit_map(rng, max_factors=6):
    """Random unit map: composition of translations, shears and diagonals."""
    f = IDENTITY
    for _ in range(rng.randrange(1, max_factors + 1)):
        kind = rng.randrange(4)
        if kind == 0:
            step = affine(
                1, 0, 0, 1,
                DyadicRational(rng.randrange(-32, 33), rng.randrange(-3, 4)),
                DyadicRational(rng.randrange(-32, 33), rng.randrange(-3, 4)),
            )
        elif kind == 1:
            step = affine(1, rng.randrange(-5, 6), 0, 1)
        elif kind == 2:
            step = affine(1, 0, rng.randrange(-5, 6), 1)
        else:
            step = affine(
                rng.choice([1, -1]),
                0,
                0,
                DyadicRational(rng.choice([1, -1]), rng.randrange(-3, 4)),
            )
        f = step @ f
    return f


def rand_interior_point(rng, tri):
    """Random dyadic point strictly inside tri (nested affine combinations)."""
    a, b, c = tri.vertices

    def weight():
        return DyadicRational(rng.randrange(1, 64), -6)

    return weighted_mean(weighted_mean(a, b, weight()), c, weight())


def _dyadic_or_none(f: Fraction):
    den = f.denominator
    if den & (den - 1):
        return None
    return from_fraction(f)


def fraction_solve(src, dst, perm):
    """Reference correspondence solver: Cramer's rule over Fraction.

    The unique affine map over Q sending vertex k of src to vertex perm[k]
    of dst, or None unless every entry is dyadic and the determinant is
    +-2**k.
    """
    s = [(p.x.to_fraction(), p.y.to_fraction()) for p in src.vertices]
    t = [(dst.vertices[perm[k]].x.to_fraction(), dst.vertices[perm[k]].y.to_fraction())
         for k in range(3)]
    (ax, ay), (bx, by) = s[0], t[0]
    u1x, u1y = s[1][0] - ax, s[1][1] - ay
    u2x, u2y = s[2][0] - ax, s[2][1] - ay
    w1x, w1y = t[1][0] - bx, t[1][1] - by
    w2x, w2y = t[2][0] - bx, t[2][1] - by

    det = u1x * u2y - u1y * u2x
    entries = [
        _dyadic_or_none((w1x * u2y - w2x * u1y) / det),
        _dyadic_or_none((w2x * u1x - w1x * u2x) / det),
        _dyadic_or_none((w1y * u2y - w2y * u1y) / det),
        _dyadic_or_none((w2y * u1x - w1y * u2x) / det),
    ]
    if any(e is None for e in entries):
        return None
    linear = Matrix2(*entries)
    if not linear.is_unit():
        return None
    image, target = linear.apply(src.vertices[0]), dst.vertices[perm[0]]
    return AffineMap(linear, Point2(target.x - image.x, target.y - image.y))


def fraction_inverse(f, tri):
    """The inverse of f by the reference solve, from f's images of tri's
    vertices back to them; None unless it is a dyadic unit map."""
    return fraction_solve(Triangle(tuple(f(v) for v in tri.vertices)), tri, (0, 1, 2))


def _reachable_names(fn, seen=None):
    """Global and attribute names used by fn and by every dyhat function or
    class it names, followed transitively.  A class's methods and property
    getters are followed, and a global tuple (a table such as
    oracle.CORRESPONDENCES) reaches the classes of its items."""
    seen = set() if seen is None else seen
    names = set()
    stack = [fn.__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for name in names & fn.__globals__.keys():
        value = fn.__globals__[name]
        for target in {type(v) for v in value} if isinstance(value, tuple) else [value]:
            module = getattr(target, "__module__", None) or ""
            if not module.startswith("dyhat") or target in seen:
                continue
            seen.add(target)
            names.add(target.__name__)
            members = vars(target).values() if isinstance(target, type) else [target]
            for member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if isinstance(member, types.FunctionType):
                    names |= _reachable_names(member, seen)
    return names
