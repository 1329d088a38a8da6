"""Shared strategies, random builders and the reachability walk for the tests."""

import types
from functools import reduce

import hypothesis.strategies as st
from hypothesis import Phase

from dyhat import DyadicRational, Hat, Triangle
from dyhat.errors import DegenerateTriangle
from dyhat.geometry import Point2

from reference import IDENTITY, affine, fraction_solve, transformed, weighted_mean

dyadics = st.builds(DyadicRational, st.integers(-(2**16), 2**16), st.integers(-10, 10))
small_dyadics = st.builds(DyadicRational, st.integers(-64, 64), st.integers(-4, 4))
nonzero_dyadics = dyadics.filter(bool)

points = st.builds(Point2, small_dyadics, small_dyadics)

odd_ints = st.integers(-25, 25).map(lambda k: 2 * k + 1)
odd_positive = st.integers(0, 15).map(lambda k: 2 * k + 1)

# representative hats (i odd, possibly negative or past the fundamental domain)
rep_hats = st.builds(Hat, odd_ints, odd_positive, odd_positive)

#: Hypothesis phases less shrinking (the @example rows still run), for the
#: tests that draw whole triangles and ran past a minute on a faulty
#: reduction: unshrunk, each fails in about 3 s on its first falsifying
#: triangle, so shrinking that triangle took the rest.
UNSHRUNK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def _triangle_or_none(a, b, c):
    try:
        return Triangle((a, b, c))
    except DegenerateTriangle:
        return None


triangles = st.builds(_triangle_or_none, points, points, points).filter(
    lambda t: t is not None
)


def _triangles_with_numerators_up_to(bound: int):
    dyadics = st.builds(DyadicRational, st.integers(-bound, bound), st.integers(-40, 40))
    points = st.builds(Point2, dyadics, dyadics)
    return st.builds(_triangle_or_none, points, points, points).filter(
        lambda t: t is not None
    )


# coordinates far past a machine word, of either sign, with exponents of
# either sign, so that gcds, determinants and residues are large too
large_triangles = _triangles_with_numerators_up_to(2**80)
# numerators of up to 700 bits, so that each edge's extended Euclid runs
# on integers of hundreds of bits
huge_triangles = _triangles_with_numerators_up_to(2**700)

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
# maps with any small dyadic entries: mostly not units, some singular
any_maps = st.builds(affine, *[small_dyadics] * 6)


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


def fraction_inverse(f, tri):
    """The inverse of f by the reference solve, from f's images of tri's
    vertices back to them; None unless it is a dyadic unit map."""
    return fraction_solve(transformed(tri, f), tri, (0, 1, 2))


def counted_pass(monkeypatch):
    """Patch oracle._solve_scaled to record each correspondence that a pass
    tests, as (src, dst, perm) with src and dst the stored (integers,
    exponent) pairs that it reads, and each letter of the cases it returns.
    An entry counts as tested when the pass takes it from its targets, so
    a pass that refuses the pair counts none."""
    from dyhat import oracle

    tested, hits = [], []
    solve = oracle._solve_scaled

    def counted(src, dst, targets):
        def taken():
            for entry in targets:
                tested.append((src, dst, entry[0].perm))
                yield entry

        found = solve(src, dst, taken())
        hits.extend(found[0])
        return found

    monkeypatch.setattr(oracle, "_solve_scaled", counted)
    return tested, hits


def _reachable_names(fn, seen=None):
    """Global and attribute names used by fn and by every dyhat function or
    class it names, followed transitively.  A class reaches its dyhat bases
    (its __mro__, e.g. dyadic.Record under each record), and the methods and
    property getters of each reached class are followed.  A global tuple (a
    table such as oracle.CORRESPONDENCES) reaches the classes of its items."""
    seen = set() if seen is None else seen
    names = set()
    stack = [fn.__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for name in names & fn.__globals__.keys():
        value = fn.__globals__[name]
        values = {type(v) for v in value} if isinstance(value, tuple) else [value]
        for target in [t for v in values for t in getattr(v, "__mro__", [v])]:
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


def shared_factor_hat(rng, bits):
    """A hat with parameters of up to about 3*bits bits that share an odd
    factor c: j and m are c times 1 or a random odd, and i a random multiple
    of c, m or j, so that gcd(i, j) and gcd(m - i, j) exceed 1 and often
    equal m or j."""
    c = rng.getrandbits(rng.randrange(1, bits)) | 1
    j = c * rng.choice([1, rng.getrandbits(bits) | 1])
    m = c * rng.choice([1, 3, rng.getrandbits(bits) | 1])
    i = rng.choice([c, m, j]) * rng.randrange(-(2**bits), 2**bits)
    return Hat(i, j, m)


def large_iso_pairs(rng, count, bits=100):
    """count pairs of triangles with coordinates of hundreds of bits and
    power-of-two denominators, alternately isomorphic and not.  Each side
    is a vertex-shuffled image of a shared_factor_hat under rand_unit_map;
    a positive pair maps one hat twice, a negative pair maps it and the hat
    with i moved by 2 (which may still be isomorphic)."""
    pairs = []
    for k in range(count):
        h = shared_factor_hat(rng, bits)
        other = h if k % 2 == 0 else Hat(h.i + 2, h.j, h.m)
        pairs.append(tuple(
            Triangle(tuple(rng.sample(transformed(g.triangle(), rand_unit_map(rng)).vertices, 3)))
            for g in (h, other)
        ))
    return pairs
