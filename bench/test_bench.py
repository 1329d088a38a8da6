"""Self-tests of the benchmark: python -m pytest bench/test_bench.py

The generator must repeat per seed, and every checker must reject a
corrupted copy of a real dyhat answer.  Only the benchmark's copy of an
answer is corrupted, never dyhat.
"""

import json
import os
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import check  # noqa: E402
import dyhat  # noqa: E402
import dyhat.classify  # noqa: E402
import dyhat.cli  # noqa: E402
import dyhat.hats  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402


def _pairs(seed, n=40):
    return [p for quad in islice(gen.quad_stream(seed), n // 4) for p in quad]


def _triangle(tri):
    d = dyhat.DyadicRational
    return dyhat.Triangle.of(*[(d(*x), d(*y)) for x, y in tri])


def test_generator_repeats_per_seed():
    assert _pairs(7) == _pairs(7)
    assert _pairs(7) != _pairs(8)
    assert list(islice(gen.cli_stream(3), 20)) == list(islice(gen.cli_stream(3), 20))


def test_generator_holds_every_kind_of_pair():
    pairs = _pairs(11, 200)
    assert sum(p.positive for p in pairs) == sum(p.large for p in pairs) == 100
    for p in pairs:
        same = gen.odd_twice_area(p.t1) == gen.odd_twice_area(p.t2)
        assert same == p.positive


def test_unit_maps_have_power_of_two_determinant():
    rng = gen.random.Random(5)
    for size in (gen.SMALL, gen.LARGE):
        for _ in range(50):
            a, b, c, d, _, _ = gen.random_unit_map(rng, size)
            det = abs(a * d - b * c)
            assert det.numerator & (det.numerator - 1) == 0
            assert det.denominator & (det.denominator - 1) == 0


def test_dyadic_pairs_round_trip():
    for value in ((5, -11), (-3, -3), (7, 0), (0, 0), (-1, -256)):
        assert gen.to_dyadic(gen.to_fraction(value)) == value


@pytest.fixture(scope="module")
def positive_answer():
    pair = next(p for p in _pairs(3) if p.positive)
    result = dyhat.isomorphic(_triangle(pair.t1), _triangle(pair.t2))
    return pair, workload.witness_fractions(result.witness)


def test_iso_check_accepts_dyhat_answers():
    for pair in _pairs(3, 12):
        result = dyhat.isomorphic(_triangle(pair.t1), _triangle(pair.t2))
        witness = workload.witness_fractions(result.witness)
        assert check.check_iso(pair, result.isomorphic, witness) is None


@pytest.mark.parametrize("corrupt", [
    lambda w: (*w[:4], w[4] + 1, w[5]),                 # wrong translation
    lambda w: (w[0] + Fraction(1, 3), *w[1:]),          # non-dyadic entry
    lambda w: (3 * w[0], 3 * w[1], *w[2:]),             # det not +-2^k
    lambda w: (w[1], w[0], w[3], w[2], *w[4:]),         # wrong images
])
def test_iso_check_rejects_a_corrupted_witness(positive_answer, corrupt):
    pair, witness = positive_answer
    assert check.check_iso(pair, True, corrupt(witness)) is not None


def test_iso_check_rejects_wrong_verdicts(positive_answer):
    pair, witness = positive_answer
    assert check.check_iso(pair, False, None) is not None
    negative = next(p for p in _pairs(3) if not p.positive)
    assert check.check_iso(negative, True, witness) is not None
    assert check.check_iso(negative._replace(t2=negative.t1), False, None) is not None


def test_canon_check():
    tri = gen.random_triangle(gen.random.Random(9), gen.SMALL)
    triple = dyhat.canonical_form(_triangle(tri))
    i, j, m = triple.i, triple.j, triple.m
    assert check.check_canon(tri, f"{i} {j} {m}\n") is None
    for text in (f"{i + 1} {j} {m}", f"{i + 2 * j} {j} {m}", f"{i} {j} {m * 3}",
                 f"{i} {j}", "error"):
        assert check.check_canon(tri, text) is not None


def test_cli_witness_literals_parse_like_dyhat():
    for value in (dyhat.DyadicRational(5, -11), dyhat.DyadicRational(-3, -3),
                  dyhat.DyadicRational(7), dyhat.DyadicRational(0)):
        text = dyhat.cli.format_dyadic(value)
        assert check.parse_literal(text) == value.to_fraction()
    with pytest.raises(ValueError):
        check.parse_literal("1/2^")


@pytest.fixture(scope="module")
def census_rows():
    report = dyhat.census(check.CENSUS_MAX, check.CENSUS_MAX)
    assert report.ok
    return workload.census_rows(report)


def test_census_check(census_rows):
    assert check.check_census(census_rows, True) is None
    assert check.check_census(census_rows, False) is not None
    assert check.check_census(census_rows[:-1], True) is not None
    for column in (2, 3, 4, 8):
        rows = [list(row) for row in census_rows]
        rows[40][column] = not rows[40][column] if column == 8 else rows[40][column] + 2
        assert check.check_census(rows, True) is not None, column


def test_census_digest_matches_pooled_run(census_rows):
    pooled = workload.census_rows(
        dyhat.census(check.CENSUS_MAX, check.CENSUS_MAX, workers=2))
    assert check.census_digest(pooled) == check.census_digest(census_rows)


def test_wrappers_cover_every_namespace_and_are_removed():
    original = dyhat.hats.normalize
    tr = tracer.Tracer()
    with tr.installed():
        assert dyhat.classify.normalize is dyhat.hats.normalize is not original
        dyhat.isomorphic(dyhat.Hat(1, 3, 5).triangle(), dyhat.Hat(5, 15, 1).triangle())
    assert dyhat.classify.normalize is dyhat.hats.normalize is original
    names = Counter(s.name for s in tr.spans)
    assert names["classify.isomorphic"] == 1
    assert names["hats.normalize"] == 14
    assert names["hats.encoding_triples"] == 2
    own = tracer.self_times(tr.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == tr.spans[0].duration


def test_span_cost_is_positive():
    assert tracer.span_cost_ns(calls=2000, repeats=2) > 0


def test_counting_pass_restores_classes():
    init = dyhat.DyadicRational.__init__
    counts = Counter()
    with tracer.counting(counts):
        dyhat.DyadicRational(3) + dyhat.DyadicRational(5)
    assert dyhat.DyadicRational.__init__ is init
    assert counts["dyadic.constructed"] >= 3
    assert counts["dyadic.arith_ops"] >= 1


def test_layer_metrics_cover_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = workload.layer_metrics([], 1, 1, Counter())
    assert set(metrics) | {"trace.overhead_frac"} == names
    assert all(value == 0.0 for value in metrics.values())
