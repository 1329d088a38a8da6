"""End-to-end acceptance suite.

Ten criteria, one test each, so the verbose run shows one pass/fail line
per criterion.  Time limits are asserted where the contract pins them;
everything else is exact equality, no tolerances anywhere.
"""

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
    isomorphic_hats,
    normalize,
    oracle_isomorphic,
)
from dyhat.classify import aut_fix_A, aut_fix_B, aut_fix_C, iso_case
from dyhat.cli import format_dyadic, parse_dyadic
from dyhat.dyadic import solve_congruence
from dyhat.errors import NoSolution
from dyhat.geometry import Point2

from reference import (
    boundary_type,
    boundary_types_equivalent,
    midpoint,
    oracle_aut_count,
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


def test_criterion_01_automorphism_fixtures():
    # (params, tag, criterion that must fire for the C2 hats)
    fixtures = (
        ((1, 1, 1), "S3", None),
        ((3, 3, 3), "S3", None),
        ((5, 5, 5), "S3", None),
        ((15, 9, 21), "C2", aut_fix_B),
        ((21, 9, 3), "C2", aut_fix_A),
        ((15, 9, 3), "S3", None),
        ((3, 7, 1), "C3", None),
        ((21, 15, 3), "C2", aut_fix_C),
    )
    swap_labels = {aut_fix_B: "CBA", aut_fix_A: "ACB", aut_fix_C: "BAC"}
    for params, tag, via in fixtures:
        h = Hat(*params)
        group, best = _elapsed(lambda: automorphism_group(h))
        assert group.tag == tag, params
        assert best < 0.001, f"{params}: {best * 1000:.3f} ms"
        if via is not None:
            assert via(h), params
            labels = {w[0] for w in group.witnesses}
            assert labels == {"ABC", swap_labels[via]}, params
    print("criterion 1: pass (8 automorphism fixtures, each call < 1 ms)")


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
            assert iso_case(base, other, case), (other, case)
        result = isomorphic_hats(base, other)
        assert result.isomorphic, other
        assert result.witness.is_unit()
        images = {result.witness(v) for v in base.triangle().vertices}
        assert images == set(other.triangle().vertices), other

    h1, h2 = Hat(3, 27, 21), Hat(39, 27, 21)
    t1, t2 = h1.triangle(), h2.triangle()
    assert boundary_type(t1) == boundary_type(t2) == (3, 9, 21)
    assert twice_area(t1) == twice_area(t2) == D(21 * 27)
    result = isomorphic_hats(h1, h2)
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
                verdict = isomorphic_hats(group[a], group[b]).isomorphic
                oracle = oracle_isomorphic(ta, group[b].triangle()) is not None
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
        image = t.transformed(f)
        assert canonical_form(image) == canonical_form(t), trial
        assert boundary_types_equivalent(boundary_type(image), boundary_type(t))
        assert twice_area(image) == twice_area(t) * abs(f.linear.det()), trial
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
            assert witness(x) == Point2.of(0, 0)
            assert witness(y) == Point2.of(hat.i, hat.j)
            assert witness(z) == Point2.of(hat.m, 0)
            corpus.append((witness, t))

    for params in ((1, 1, 1), (15, 9, 21), (21, 9, 3), (21, 15, 3), (3, 7, 1), (15, 9, 3)):
        h = Hat(*params)
        vertices = h.triangle().vertices
        for label, witness in automorphism_group(h).witnesses:
            for k, target in enumerate(label):
                assert witness(vertices[k]) == vertices["ABC".index(target)]
            corpus.append((witness, h.triangle()))

    for other in (Hat(4, 3, 5), Hat(7, 3, 5), Hat(5, 15, 1), Hat(11, 15, 1)):
        t1 = Hat(1, 3, 5).triangle()
        result = isomorphic_hats(Hat(1, 3, 5), other)
        images = {result.witness(v) for v in t1.vertices}
        assert images == set(other.triangle().vertices)
        corpus.append((result.witness, t1))

    for witness, source in corpus:
        inverse = fraction_inverse(witness, source)
        assert inverse is not None  # every entry is dyadic
        for _ in range(100):
            p = rand_interior_point(rng, source)
            q = rand_interior_point(rng, source)
            assert witness(midpoint(p, q)) == midpoint(witness(p), witness(q))
            assert inverse(witness(p)) == p
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

    rng = random.Random(14142135)
    for _ in range(10_000):
        x = D(rng.randrange(-(2**30), 2**30), rng.randrange(-20, 21))
        y = D(rng.randrange(1, 2**30) * rng.choice([1, -1]), rng.randrange(-20, 21))
        assert (x * y) / y == x

    for _ in range(10_000):
        d = D(rng.randrange(-(2**50), 2**50), rng.randrange(-60, 61))
        assert parse_dyadic(format_dyadic(d)) == d
    print(f"criterion 10: pass ({checked} congruences, 2x10^4 round-trips)")
