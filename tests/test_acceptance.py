"""End-to-end acceptance suite.

Eleven criteria, one test each, so the verbose run shows one pass/fail line
per criterion.  Time limits are asserted where the contract pins them;
everything else is exact equality, no tolerances anywhere.
"""

import math
import random
import time
from collections import defaultdict
from itertools import permutations

from dyhat import (
    DyadicRational,
    Hat,
    Triangle,
    all_encoding_triples,
    automorphism_group,
    canonical_form,
    census,
    isomorphic,
    normalize,
    oracle_isomorphic,
)
from dyhat.classify import iso_case
from dyhat.cli import format_dyadic, parse_dyadic
from dyhat.geometry import Point2
from dyhat.hats import role_triples

from reference import (
    NoSolution,
    apply,
    aut_fix_A,
    aut_fix_B,
    aut_fix_C,
    boundary_type,
    boundary_types_equivalent,
    det,
    midpoint,
    oracle_aut_count,
    solve_congruence,
    transformed,
    twice_area,
)
from tutil import fraction_inverse, rand_interior_point, rand_unit_map

D = DyadicRational

GRID_HATS = [
    Hat(i, j, m)
    for j in range(1, 16, 2)
    for m in range(1, 16, 2)
    for i in range(1, 2 * j, 2)
]


def _elapsed(fn, repeats=5):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return result, best


_S3_LABELS = {"ABC", "ACB", "BAC", "BCA", "CAB", "CBA"}

# (params, tag, witness labels, criterion that must fire for the C2 hats)
AUT_FIXTURES = (
    ((1, 1, 1), "S3", _S3_LABELS, None),
    ((3, 3, 3), "S3", _S3_LABELS, None),
    ((5, 5, 5), "S3", _S3_LABELS, None),
    ((15, 9, 21), "C2", {"ABC", "CBA"}, aut_fix_B),
    ((21, 9, 3), "C2", {"ABC", "ACB"}, aut_fix_A),
    ((15, 9, 3), "S3", _S3_LABELS, None),
    ((3, 7, 1), "C3", {"ABC", "BCA", "CAB"}, None),
    ((21, 15, 3), "C2", {"ABC", "BAC"}, aut_fix_C),
    ((5, 3, 1), "S3", _S3_LABELS, None),
    ((1, 3, 5), "C2", {"ABC", "CBA"}, aut_fix_B),
    ((1, 9, 5), "Trivial", {"ABC"}, None),
)


def test_criterion_01_automorphism_fixtures():
    for params, tag, labels, via in AUT_FIXTURES:
        h = Hat(*params)
        group, best = _elapsed(lambda: automorphism_group(h))
        assert group.tag == tag, params
        assert best < 0.001, f"{params}: {best * 1000:.3f} ms"
        assert {w[0] for w in group.witnesses} == labels, params
        assert len(group.witnesses) == group.order == len(labels), params
        if via is not None:
            assert via(h), params
    print(f"criterion 1: pass ({len(AUT_FIXTURES)} automorphism fixtures, each call < 1 ms)")


def test_criterion_02_isomorphism_fixtures():
    base = Hat(1, 3, 5)
    related = (
        (Hat(4, 3, 5), ("a",)),
        (Hat(7, 3, 5), ("b",)),
        (Hat(5, 15, 1), ("c", "d")),
        (Hat(11, 15, 1), ("e", "f")),
    )
    for other, cases in related:
        for case in cases:
            assert case in iso_case(base, other), (other, case)
        result = isomorphic(base.triangle(), other.triangle())
        assert result.isomorphic, other
        assert result.witness.is_unit()
        images = {apply(result.witness, v) for v in base.triangle().vertices}
        assert images == set(other.triangle().vertices), other

    h1, h2 = Hat(3, 27, 21), Hat(39, 27, 21)
    t1, t2 = h1.triangle(), h2.triangle()
    assert boundary_type(t1) == boundary_type(t2) == (3, 9, 21)
    assert twice_area(t1) == twice_area(t2) == D(21 * 27)
    result = isomorphic(h1.triangle(), h2.triangle())
    assert (result.isomorphic, result.case, result.witness) == (False, None, None)
    print("criterion 2: pass (4 isomorphic pairs with witnesses, 1 non-pair)")


def test_criterion_03_normalization_closed_forms():
    for m in range(1, 6, 2):
        for k in range(1, 10, 2):
            t = Triangle.of((0, 0), (m, k * m), (2 * m, 0))
            if k % 4 == 1:
                expected = Hat((1 + 2 * (k // 4)) * m, k * m, m)
            else:
                expected = Hat((5 + 6 * (k // 4)) * m, k * m, m)
            assert normalize(t).hat == expected, (m, k)
    assert normalize(Triangle.of((0, 0), (1, 3), (2, 0))).hat == Hat(5, 3, 1)
    assert normalize(Triangle.of((0, 0), (1, 1), (2, 0))).hat == Hat(1, 1, 1)
    print("criterion 3: pass (closed-form normal forms, odd m <= 5, odd k <= 9)")


def test_criterion_04_double_base_dichotomy():
    start = time.perf_counter()
    for m in range(1, 10, 2):
        for k in range(1, 12, 2):
            t = Triangle.of((0, 0), (m, k * m), (2 * m, 0))
            tag = automorphism_group(normalize(t).hat).tag
            expected = "S3" if k in (1, 3) else "C2"
            assert tag == expected, (m, k)
    took = time.perf_counter() - start
    assert took < 1.0, f"{took:.2f} s"
    print(f"criterion 4: pass (S3 iff k in {{1,3}}; {took:.2f} s)")


def test_criterion_05_census_pointed_counts():
    start = time.perf_counter()
    report = census(15, 15)
    took = time.perf_counter() - start
    assert len(report.rows) == 64
    for row in report.rows:
        assert row.pointed_classes == row.j, (row.j, row.m)
    assert took < 5.0, f"{took:.2f} s"
    print(f"criterion 5: pass (pointed classes == j on the 15x15 grid; {took:.2f} s)")


def test_criterion_06_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    for h in GRID_HATS:
        assert automorphism_group(h).order == oracle_aut_count(h.triangle()), h

    buckets = defaultdict(list)
    for h in GRID_HATS:
        buckets[h.j * h.m].append(h)
    pairs = 0
    for group in buckets.values():
        for a in range(len(group)):
            ta = group[a].triangle()
            for b in range(a + 1, len(group)):
                tb = group[b].triangle()
                verdict = isomorphic(ta, tb).isomorphic
                oracle = oracle_isomorphic(ta, tb) is not None
                assert verdict == oracle, (group[a], group[b])
                pairs += 1
    took = time.perf_counter() - start
    assert pairs == 4582
    assert took < 60.0, f"{took:.2f} s"
    print(
        f"criterion 6: pass ({len(GRID_HATS)} hats, {pairs} equal-area pairs, "
        f"zero disagreements; {took:.2f} s)"
    )


def test_criterion_07_orbit_stabilizer_identity():
    for h in GRID_HATS:
        triples = all_encoding_triples(h.triangle())
        assert len(triples) * automorphism_group(h).order == 6, h
    print(f"criterion 7: pass (|triples| x |Aut| = 6 for all {len(GRID_HATS)} hats)")


def test_criterion_08_metamorphic_invariance():
    rng = random.Random(20260816)
    start = time.perf_counter()
    for trial in range(1000):
        j = 2 * rng.randrange(16) + 1
        m = 2 * rng.randrange(16) + 1
        i = 2 * rng.randrange(j) + 1
        t = Hat(i, j, m).triangle()
        f = rand_unit_map(rng, max_factors=6)
        image = transformed(t, f)
        assert canonical_form(image) == canonical_form(t), trial
        assert boundary_types_equivalent(boundary_type(image), boundary_type(t))
        assert twice_area(image) == twice_area(t) * abs(det(f)), trial
    took = time.perf_counter() - start
    assert took < 10.0, f"{took:.2f} s"
    print(f"criterion 8: pass (1000 random unit-map trials; {took:.2f} s)")


def test_criterion_09_witness_validity():
    rng = random.Random(6180339)
    corpus = []  # (witness, source triangle)

    fixture_triangles = [
        Hat(1, 3, 5).triangle(),
        Triangle.of((0, 0), (1, 3), (2, 0)),
        Triangle.of((0, 0), (3, 9), (6, 0)),
        Triangle.of((3, -1), (10, 2), (8, -1)),
    ]
    for t in fixture_triangles:
        for roles in permutations((0, 1, 2)):
            hat, witness = normalize(t, roles)
            x, y, z = (t.vertices[k] for k in roles)
            assert apply(witness, x) == Point2(D(0), D(0))
            assert apply(witness, y) == Point2(D(hat.i), D(hat.j))
            assert apply(witness, z) == Point2(D(hat.m), D(0))
            assert hat.is_representative and 1 <= hat.i < 2 * hat.j
            corpus.append((witness, t))

    for params, *_ in AUT_FIXTURES:
        h = Hat(*params)
        vertices = h.triangle().vertices
        for label, witness in automorphism_group(h).witnesses:
            for k, target in enumerate(label):
                assert apply(witness, vertices[k]) == vertices["ABC".index(target)]
            corpus.append((witness, h.triangle()))

    for other in (Hat(4, 3, 5), Hat(7, 3, 5), Hat(5, 15, 1), Hat(11, 15, 1)):
        t1 = Hat(1, 3, 5).triangle()
        result = isomorphic(Hat(1, 3, 5).triangle(), other.triangle())
        images = {apply(result.witness, v) for v in t1.vertices}
        assert images == set(other.triangle().vertices)
        corpus.append((result.witness, t1))

    for witness, source in corpus:
        inverse = fraction_inverse(witness, source)
        assert inverse is not None  # every entry is dyadic
        for _ in range(100):
            p = rand_interior_point(rng, source)
            q = rand_interior_point(rng, source)
            assert apply(witness, midpoint(p, q)) == midpoint(apply(witness, p), apply(witness, q))
            assert apply(inverse, apply(witness, p)) == p
    print(f"criterion 9: pass ({len(corpus)} witnesses, 100 interior pairs each)")


def test_criterion_10_arithmetic_suites():
    checked = 0
    for n in range(1, 100, 2):
        for a in range(n):
            table = {}
            for x in range(n):
                table.setdefault(a * x % n, []).append(x)
            for b in range(n):
                expected = table.get(b, [])
                try:
                    sol = solve_congruence(a, b, n)
                except NoSolution:
                    got = []
                else:
                    got = list(range(sol.value, n, sol.modulus))
                assert got == expected, (a, b, n)
                checked += 1

    # iso_case's test of k by multiplication, against its class found by
    # search: some x with x * (side/n) = 1 (mod j/n) has k = anchor (mod l)
    cases = 0
    for j in range(1, 64, 2):
        for side in range(j):
            n = math.gcd(side, j)
            inverses = [x for x in range(j // n) if (x * (side // n) - 1) % (j // n) == 0]
            for m in (1, 3):
                l = m * j // n
                for case in "cdef":
                    h1 = Hat(side if case in "ce" else m - side, j, m)
                    anchors = {(x * m if case in "cd" else n - x * m) % l for x in inverses}
                    for k in range(l):
                        assert (case in iso_case(h1, Hat(k, l, n))) == (k in anchors), (h1, k, case)
                        cases += 1

    rng = random.Random(14142135)
    for _ in range(10_000):
        x = D(rng.randrange(-(2**30), 2**30), rng.randrange(-20, 21))
        y = D(rng.randrange(1, 2**30) * rng.choice([1, -1]), rng.randrange(-20, 21))
        assert (x * y) / y == x

    for _ in range(10_000):
        d = D(rng.randrange(-(2**50), 2**50), rng.randrange(-60, 61))
        assert parse_dyadic(format_dyadic(d)) == d
    print(f"criterion 10: pass ({checked} congruences, {cases} iso_case calls, "
          "2x10^4 round-trips)")


# Isomorphism types of hats with j*m = N, N = 1, 3, ..., 39.  The table and
# the formulas in criterion 11 were derived in this repo (by this pipeline
# and by Burnside's lemma over the pointed classes); they are not taken
# from the paper text, which the repo does not hold.
TYPE_COUNTS = (1, 2, 2, 3, 4, 3, 4, 6, 4, 5, 8, 5, 7, 9, 6, 7, 10, 10, 8, 12)


def _roots_mod(l, *polys):
    """The number of k mod l that are roots of every polynomial, by brute force."""
    return sum(all(p(k) % l == 0 for p in polys) for k in range(l))


def _cycle(k):
    return k * k - k + 1


def _square_minus_one(k):
    return k * k - 1


def test_criterion_11_isomorphism_types_by_area():
    # S3 acts on the sigma(N) pointed classes of area N by exchanging roles;
    # its orbits are the isomorphism types.  A transposition fixes d = tau(N)
    # classes (fix B: one odd i with j | 2i - m per divisor j), a 3-cycle
    # fixes c, the hats (mk, ml, m) with l = N/m^2 and l | k^2 - k + 1, and
    # all of S3 fixes s, those that also have l | k^2 - 1
    start = time.perf_counter()
    hats = 0
    counts = []
    for n in range(1, 200, 2):
        divisors = [j for j in range(1, n + 1, 2) if n % j == 0]
        sigma, d = sum(divisors), len(divisors)
        squares = [m for m in range(1, n + 1, 2) if n % (m * m) == 0]
        c = sum(_roots_mod(n // (m * m), _cycle) for m in squares)
        s = sum(_roots_mod(n // (m * m), _cycle, _square_minus_one) for m in squares)
        # both congruences give l | (k^2 - 1) - (k^2 - k + 1) = k - 2, so l | 3
        assert s == sum(n // (m * m) in (1, 3) for m in squares), n
        types = defaultdict(list)
        for j in divisors:
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, n // j)
                tri = h.triangle()
                assert all(j * m == n for _, j, m in role_triples(tri.scaled_coords())), h
                types[canonical_form(tri)].append(tri)
                hats += 1
        groups = defaultdict(int)
        orbits = 0
        for canonical, members in types.items():
            representative = Hat(*canonical).triangle()
            for tri in members:
                assert oracle_isomorphic(tri, representative) is not None, (tri, canonical)
            group = automorphism_group(Hat(*canonical))
            groups[group.tag] += 1
            orbits += 6 // group.order
        assert orbits == sigma, n
        assert len(types) * 6 == sigma + 3 * d + 2 * c, n
        assert groups["S3"] == s, n
        assert groups["C3"] * 2 == c - s, n
        assert groups["C2"] == d - s, n
        assert groups["Trivial"] * 6 == sigma - s - 2 * groups["C3"] - 3 * groups["C2"], n
        counts.append(len(types))
    took = time.perf_counter() - start
    assert hats == 12307
    assert tuple(counts[:20]) == TYPE_COUNTS
    print(f"criterion 11: pass ({hats} hats of odd area below 200; {took:.2f} s)")
