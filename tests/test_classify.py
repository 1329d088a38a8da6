"""Group assembly against the reference automorphism criteria, isomorphism
cases, census."""

import ast
import concurrent.futures
import hashlib
import math
import random
import sys
from collections import Counter, defaultdict
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from dyhat import (
    DyadicRational,
    EncodingTriple,
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
from dyhat.classify import GROUP_ORDER, IsoResult, iso_case
from dyhat.cli import parse_shape
from dyhat.errors import InconsistencyError, InvalidBounds, InvalidHat
from dyhat.hats import CANONICAL_KEY, hat_of
from dyhat import classify, cli, dyadic, hats
from dyhat.geometry import AffineMap
from dyhat.oracle import CORRESPONDENCES, realized_cases

import tutil
from reference import (
    GROUP_OF_CRITERIA,
    IDENTITY,
    aut_cycle,
    aut_fix_A,
    aut_fix_B,
    aut_fix_C,
    boundary_type,
    boundary_types_equivalent,
    closed_form_triples,
    criteria_row,
    fraction_solve,
    hat_by_inverse,
    iso_case_by_congruence,
    odd_gcd,
    transformed,
    twice_area,
    val2,
)
from tutil import _reachable_names

D = DyadicRational

FIXTURES = Path(__file__).parent / "fixtures"

# hat params -> (fix A, fix B, fix C, 3-cycle); every row checked by hand
CRITERIA_TABLE = {
    (15, 9, 21): (False, True, False, False),
    (21, 9, 3): (True, False, False, False),
    (21, 15, 3): (False, False, True, False),
    (3, 7, 1): (False, False, False, True),
    (1, 1, 1): (True, True, True, True),
    (15, 9, 3): (True, True, True, True),
    (5, 3, 1): (True, True, True, True),
    (1, 3, 5): (False, True, False, False),
    (1, 5, 1): (True, False, False, False),
    (1, 9, 5): (False, False, False, False),
}


def test_criteria_truth_table():
    for params, expected in CRITERIA_TABLE.items():
        h = Hat(*params)
        got = (aut_fix_A(h), aut_fix_B(h), aut_fix_C(h), aut_cycle(h))
        assert got == expected, params


def test_criteria_reject_even_i():
    for fn in (aut_fix_A, aut_fix_B, aut_fix_C, aut_cycle):
        with pytest.raises(InvalidHat):
            fn(Hat(4, 3, 5))


def test_trivial_group_witness_is_identity():
    group = automorphism_group(Hat(1, 9, 5))
    assert group.witnesses == (("ABC", IDENTITY),)


def test_automorphisms_are_the_self_isomorphisms_on_the_31_grid():
    # the four reference criteria share no code with iso_case or with the
    # oracle, so this checks both routes of automorphism_group from outside:
    # its witnesses, and so its labels, come from the oracle.  Odd i runs
    # over -2j+1..4j-1 and over -49..51, every i that tutil.rep_hats draws,
    # and each hat's triples and group meet the orbit-stabilizer identity
    for j, m in product(range(1, 32, 2), repeat=2):
        for i in range(min(-2 * j, -50) + 1, max(4 * j, 52), 2):
            h = Hat(i, j, m)
            tag, cases, labels = criteria_row(h)
            assert iso_case(h, h) == cases, h
            group = automorphism_group(h)
            assert (group.tag, tuple(label for label, _ in group.witnesses)) == (tag, labels), h
            assert len(all_encoding_triples(h.triangle())) * group.order == 6, h


_odd_large = st.integers(0, 2**199).map(lambda k: 2 * k + 1)
_TRIVIAL_I = 2 * 10**40 + 123457


@st.composite
def _large_family_hats(draw):
    """(hat, row): a hat of one of six families with odd M, L, K and J up to
    2**200, and the (tag, cases) row of the subgroup table that its family
    gives it, or None where a small parameter may give it a larger group."""
    M = draw(_odd_large)
    family = draw(st.sampled_from(["Trivial", "ab", "ac", "af", "C3", "S3"]))
    if family == "Trivial":
        # fix A, fix C and the cycle each need M | i, and fix B J | 2i - M
        J = draw(_odd_large)
        trivial = _TRIVIAL_I % M != 0 and (2 * _TRIVIAL_I - M) % J != 0
        return Hat(_TRIVIAL_I, J, M), ("Trivial", "a") if trivial else None
    if family == "ab":
        # 2i - M is J or 3J, and the other three criteria need M | J
        J = draw(_odd_large)
        i = (M + J) // 2
        return Hat(i if i % 2 else i + J, J, M), ("C2", "ab") if J % M else None
    if family == "S3":
        return Hat(5 * M, 3 * M, M), ("S3", "abcdef")
    if family == "C3":
        # K = 1 gives (M, M, M); the other criteria need K*K - K + 1 to
        # divide K - 2, 2K - 1 or K + 1, which it exceeds for K >= 3
        K = draw(_odd_large)
        return Hat(M * K, M * (K * K - K + 1), M), ("C3", "ade") if K >= 3 else None
    # each of the other three criteria reduces to L | 3
    L = draw(_odd_large)
    i = M * (2 * L - 1) if family == "ac" else M * (L + 2)
    return Hat(i, M * L, M), ("C2", family) if L >= 5 else None


@given(_large_family_hats())
def test_large_hats_get_the_group_of_the_reference_criteria(drawn):
    h, row = drawn
    tag, cases, labels = criteria_row(h)
    group = automorphism_group(h)
    assert (group.tag, tuple(label for label, _ in group.witnesses)) == (tag, labels)
    if row is not None:
        assert (tag, cases) == row


def test_automorphism_group_refuses_a_value_that_is_not_a_hat():
    tri = Hat(1, 3, 5).triangle()
    for value in (tri, (1, 3, 5), None):
        with pytest.raises(TypeError, match="h must be a Hat, got "):
            automorphism_group(value)
    # the refusals of a Hat are unchanged
    with pytest.raises(InvalidHat, match="representative hat"):
        automorphism_group(Hat(2, 3, 5))


def test_isomorphic_refuses_a_value_that_is_not_a_triangle():
    tri = Hat(1, 3, 5).triangle()
    # an EncodingTriple is not a Triangle, though it names a hat
    for value in (Hat(1, 3, 5), EncodingTriple(1, 3, 5), (1, 3, 5), None):
        with pytest.raises(TypeError, match="^t1 must be a Triangle, got "):
            isomorphic(value, tri)
        with pytest.raises(TypeError, match="^t2 must be a Triangle, got "):
            isomorphic(tri, value)
    with pytest.raises(TypeError, match="^t1 must be a Triangle, got Hat$"):
        isomorphic(Hat(1, 3, 5), Hat(1, 3, 5))


def test_lying_criterion_raises_inconsistency(monkeypatch):
    # Hat(1, 9, 5) has the trivial group; case tests that also find case b
    # claim a swap the oracle cannot realize
    monkeypatch.setattr("dyhat.classify.iso_case", lambda h1, h2: "ab")
    with pytest.raises(InconsistencyError, match="criteria and oracle disagree"):
        automorphism_group(Hat(1, 9, 5))
    # on an S3 hat, dropping case f names no subgroup at all
    monkeypatch.setattr("dyhat.classify.iso_case", lambda h1, h2: "abcde")
    with pytest.raises(InconsistencyError, match="no subgroup of S3"):
        automorphism_group(Hat(1, 1, 1))


def test_every_criteria_outcome_meets_the_subgroup_table(monkeypatch):
    # Hat(1, 1, 1) has the group S3.  Of the 64 case strings iso_case could
    # return, 58 name no subgroup and are refused before any solve, the five
    # subgroups other than S3 disagree with the oracle, and S3 holds
    solves = _count_calls(monkeypatch, classify, "realized_cases")
    rows = {cases for _, cases in GROUP_OF_CRITERIA.values()}
    outcomes = Counter()
    for held in product((False, True), repeat=6):
        cases = "".join(c.case for c, h in zip(CORRESPONDENCES, held) if h)
        monkeypatch.setattr(classify, "iso_case", lambda h1, h2, cases=cases: cases)
        solves.clear()
        if cases not in rows:
            with pytest.raises(InconsistencyError, match="no subgroup of S3"):
                automorphism_group(Hat(1, 1, 1))
            assert solves == [], cases
            outcomes["refused"] += 1
        elif cases != "abcdef":
            with pytest.raises(InconsistencyError, match="criteria and oracle disagree"):
                automorphism_group(Hat(1, 1, 1))
            assert len(solves) == 1, cases
            outcomes["disagree"] += 1
        else:
            assert automorphism_group(Hat(1, 1, 1)).tag == "S3"
            assert len(solves) == 1
            outcomes["S3"] += 1
    assert outcomes == {"refused": 58, "disagree": 5, "S3": 1}
    assert GROUP_ORDER == {"Trivial": 1, "C2": 2, "C3": 3, "S3": 6}
    # the key order of each census row, and of its JSON
    assert tuple(GROUP_ORDER) == ("Trivial", "C2", "C3", "S3")


def test_lying_case_test_raises_inconsistency(monkeypatch):
    monkeypatch.setattr("dyhat.classify.iso_case", lambda h1, h2: "")
    with pytest.raises(InconsistencyError, match="routes disagree"):
        isomorphic(Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle())


def test_lying_oracle_raises_inconsistency_both_ways(monkeypatch):
    # an oracle that denies an isomorphism the criteria find, and one that
    # claims an isomorphism where the criteria find none
    monkeypatch.setattr(classify, "oracle_isomorphic", lambda t1, t2: None)
    with pytest.raises(InconsistencyError):
        isomorphic(Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle())
    monkeypatch.setattr(classify, "oracle_isomorphic",
                        lambda t1, t2: ("a", CORRESPONDENCES[0], IDENTITY))
    with pytest.raises(InconsistencyError):
        isomorphic(Hat(3, 27, 21).triangle(), Hat(39, 27, 21).triangle())
    assert cli.run(["iso", "T 3 27 21", "T 39 27 21"]) == 5


def test_an_oracle_hit_under_another_case_raises_inconsistency(monkeypatch):
    # the oracle's real hits from Hat(1, 3, 5) to Hat(5, 15, 1) are cases
    # "c" and "d"; the first witness reported under case "a" agrees on
    # existence only
    t1, t2 = Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle()
    cases, corr, witness = oracle_isomorphic(t1, t2)
    assert (cases, corr.case) == ("cd", "c") and isomorphic(t1, t2).case == "c"
    monkeypatch.setattr(classify, "oracle_isomorphic",
                        lambda t1, t2: ("a", CORRESPONDENCES[0], witness))
    with pytest.raises(InconsistencyError, match=r"cases \['c', 'd'\], oracle cases \['a'\]$"):
        isomorphic(t1, t2)
    assert cli.run(["iso", "T 1 3 5", "T 5 15 1"]) == 5


def _without_d(found):
    """A route's answer with case "d" dropped: only the second letter of a
    pair realized by "c" and "d" changes."""
    return found.replace("d", "")


def test_a_case_route_that_drops_a_second_letter_raises_inconsistency(monkeypatch):
    # "c" and "d" both hold, so the first letter and the verdict are unchanged
    t1, t2 = Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle()
    real = classify.iso_case
    monkeypatch.setattr(classify, "iso_case", lambda h1, h2: _without_d(real(h1, h2)))
    with pytest.raises(InconsistencyError, match=r"cases \['c'\], oracle cases \['c', 'd'\]$"):
        isomorphic(t1, t2)
    assert cli.run(["iso", "T 1 3 5", "T 5 15 1"]) == 5


def test_an_oracle_that_drops_a_second_letter_raises_inconsistency(monkeypatch):
    t1, t2 = Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle()
    real = classify.oracle_isomorphic

    def lying(t1, t2):
        cases, corr, witness = real(t1, t2)
        return _without_d(cases), corr, witness

    monkeypatch.setattr(classify, "oracle_isomorphic", lying)
    with pytest.raises(InconsistencyError, match=r"cases \['c', 'd'\], oracle cases \['c'\]$"):
        isomorphic(t1, t2)
    assert cli.run(["iso", "T 1 3 5", "T 5 15 1"]) == 5


def _role_triples_with_a_wrong_strip(scaled):
    """hats.role_triples with the y parts divided by the power of two that
    the x parts share, not by their own: a faulty reduction that all three
    criteria routes read."""
    (x0, y0, x1, y1, x2, y2), _ = scaled
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
    odd = abs(ax * by - ay * bx)
    odd >>= val2(odd)
    k = val2(math.gcd(ax, bx))
    ax, bx, ay, by = ax >> k, bx >> k, ay >> k, by >> k
    h012, h210 = hats._edge_hats(odd, bx, by, ax, ay)
    h021, h120 = hats._edge_hats(odd, ax, ay, bx, by)
    h102, h201 = hats._edge_hats(odd, bx - ax, by - ay, -ax, -ay)
    return h012, h021, h102, h120, h201, h210


def test_a_faulty_reduction_is_caught_by_the_oracle(monkeypatch):
    """Line 9 of the pinned large pairs is isomorphic, and the x and y
    parts of its triangles share different powers of two: with the y parts
    stripped by the x parts' power, the three criteria routes agree on "not
    isomorphic", and the oracle, which sees every verdict, refutes them."""
    line = (FIXTURES / "iso_large_pairs.txt").read_text(encoding="utf-8").splitlines()[8]
    t1, t2 = map(parse_shape, line.split("|"))
    assert isomorphic(t1, t2).isomorphic
    monkeypatch.setattr(classify, "role_triples", _role_triples_with_a_wrong_strip)
    with pytest.raises(InconsistencyError, match=r"cases \[\], oracle cases \['e'\]$"):
        isomorphic(t1, t2)


def test_iso_case_fixtures():
    h = Hat(1, 3, 5)
    assert iso_case(h, Hat(4, 3, 5)) == "ab"
    assert iso_case(h, Hat(7, 3, 5)) == "ab"
    assert iso_case(h, Hat(5, 15, 1)) == "cd"
    assert iso_case(h, Hat(11, 15, 1)) == "ef"
    assert iso_case(h, Hat(3, 3, 5)) == ""
    assert iso_case(Hat(3, 27, 21), Hat(39, 27, 21)) == ""
    # n = 1 divides side 3 and j = 9, but gcd(3, 9) = 3: never "c" or "e"
    assert [iso_case(Hat(3, 9, 1), Hat(k, 9, 1)) for k in range(1, 18, 2)] == [
        "", "a", "", "b", "", "", "d", "f", ""
    ]
    # n = 3 divides m*j = 15 but not j = 5: only "a" and "b" can hold
    assert iso_case(Hat(3, 5, 3), Hat(3, 5, 3)) == "a"
    assert iso_case(Hat(3, 5, 3), Hat(5, 5, 3)) == "b"
    # n = 3 divides j = 3 but neither side, 5 nor 1 - 5: nothing holds
    assert iso_case(Hat(5, 3, 1), Hat(1, 1, 3)) == ""


@given(tutil.rep_hats)
def test_iso_case_a_is_reflexive(h):
    assert iso_case(h, h).startswith("a")


def test_isomorphic_hats_fixtures():
    got = isomorphic(Hat(1, 3, 5).triangle(), Hat(4, 3, 5).triangle())
    assert got.isomorphic and got.case == "a"
    got = isomorphic(Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle())
    assert got.isomorphic and got.case == "c"
    got = isomorphic(Hat(1, 3, 5).triangle(), Hat(11, 15, 1).triangle())
    assert got.isomorphic and got.case == "e"
    got = isomorphic(Hat(3, 27, 21).triangle(), Hat(39, 27, 21).triangle())
    assert (got.isomorphic, got.case, got.witness) == (False, None, None)


#: sha256 of the reprs below, recorded while a separate hat entry ran
#: iso_case on the hats as given, with triple sets of its own: isomorphic
#: on the hats' triangles must keep its verdicts and case letters.
CASE_DIGEST = "691df9962754539b3605cccd98444b19f9e3b47989f33626497a86f9b342a591"


def test_verdicts_and_case_letters_on_the_7_grid_are_unchanged():
    """isomorphic on the triangles of every ordered pair of equal-area hats
    with j, m <= 7 and i in -j..3j-1, of either parity (8,128 pairs)."""
    by_area = {}
    for j in range(1, 8, 2):
        for m in range(1, 8, 2):
            by_area.setdefault(j * m, []).extend(Hat(i, j, m) for i in range(-j, 3 * j))
    digest = hashlib.sha256()
    for hats_of_area in by_area.values():
        for h1, h2 in product(hats_of_area, repeat=2):
            result = isomorphic(h1.triangle(), h2.triangle())
            digest.update(
                repr((tuple(h1), tuple(h2), result.isomorphic, result.case)).encode())
    assert digest.hexdigest() == CASE_DIGEST



def test_iso_case_matches_the_congruence_reference_exhaustively():
    """Cases c to f, j, m <= 9, i in -2j..4j-1 and k in -l..2l-1, with the n
    and l each case forces, so that every call reaches the test on k."""
    calls = 0
    for j in range(1, 10, 2):
        for m in range(1, 10, 2):
            for i in range(-2 * j, 4 * j):
                h1 = Hat(i, j, m)
                for case in "cdef":
                    n = math.gcd(i if case in "ce" else m - i, j)
                    l = m * j // n
                    for k in range(-l, 2 * l):
                        h2 = Hat(k, l, n)
                        assert (case in iso_case(h1, h2)) == iso_case_by_congruence(h1, h2, case), (
                            h1, h2, case)
                        calls += 1
    assert calls == 239_400


@st.composite
def _forced_pairs(draw):
    """(h1, h2, case, in_class): h1 a tutil.shared_factor_hat of up to
    about 2**300, a role-exchanging case, and h2 with the n and l that case
    forces; its k is in the case's class when in_class is True, and else
    drawn in -l..2l-1."""
    i, j, m = h1 = tutil.shared_factor_hat(draw(st.randoms(use_true_random=False)), 100)
    case = draw(st.sampled_from("cdef"))
    side = i if case in "ce" else m - i
    n = math.gcd(side, j)
    l = m * j // n
    in_class = draw(st.booleans())
    if in_class:
        rest = pow(side // n, -1, j // n) * m + draw(st.integers(-3, 3)) * l
        k = rest if case in "cd" else n - rest
    else:
        k = draw(st.integers(-l, 2 * l - 1))
    return h1, Hat(k, l, n), case, in_class


@given(_forced_pairs())
@example((Hat(15, 45, 15), Hat(60, 45, 15), "c", True))  # n = 15, j/n = 3
@example((Hat(45, 45, 15), Hat(15, 15, 45), "c", True))  # n = j, so j/n = 1
@example((Hat(45, 45, 15), Hat(17, 15, 45), "e", False))
def test_iso_case_matches_the_congruence_reference_on_large_shared_factors(drawn):
    h1, h2, case, in_class = drawn
    got = case in iso_case(h1, h2)
    assert got == iso_case_by_congruence(h1, h2, case)
    if in_class:
        assert got


#: sha256 of isomorphic()'s verdict, case letter and witness integers on the
#: pairs below, recorded while the criteria solved a linear congruence and
#: the reduction divided by 2**v with an inverse modulo j.
LARGE_PAIR_DIGEST = "a98010cee4680e506d65d26117559999ffdb6146aeb03defc6bbd68b9f74895d"


def test_verdicts_cases_and_witnesses_on_large_pairs_are_unchanged():
    """2,000 seeded pairs of large triangles with power-of-two denominators,
    about half of them isomorphic, every case letter among them."""
    digest = hashlib.sha256()
    cases = Counter()
    for t1, t2 in tutil.large_iso_pairs(random.Random(2020), 2000):
        result = isomorphic(t1, t2)
        cases[result.case] += 1
        witness = result.witness and result.witness.scaled_coords()
        digest.update(repr((result.isomorphic, result.case, witness)).encode())
    assert set(cases) == {None, *(c.case for c in CORRESPONDENCES)}
    assert digest.hexdigest() == LARGE_PAIR_DIGEST


def test_isomorphic_takes_an_odd_modulus_inverse_only_in_the_reduction(monkeypatch):
    """One large pair whose case exchanges roles, each triangle with an edge
    that has v > 0 after role_triples divides out the powers of two that
    each axis shares: the six inverses modulo a number that is not a power
    of two are the Bezout rows of hats._edge_hats, one per stripped edge of
    each triangle, the others are its 2-adic steps, modulo powers of two,
    one per stripped edge with v > 0, and classify and dyadic take none."""
    calls = {}
    for module in (dyadic, hats, classify):
        def spy(*args, seen=calls.setdefault(module.__name__, [])):
            seen.append(args)
            return pow(*args)

        monkeypatch.setattr(module, "pow", spy, raising=False)
    t1, t2 = tutil.large_iso_pairs(random.Random(307), 5)[4]
    # on the stripped bases of role_triples, the edges 0-2, 0-1 and 1-2, the
    # Bezout row inverts modulo |y / gcd|, which is not a power of two
    bases, steps = [], []
    for t in (t1, t2):
        (x0, y0, x1, y1, x2, y2), _ = t.scaled_coords()
        ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x0, y2 - y0
        assert val2(ax * by - ay * bx) > 0
        k, l = val2(math.gcd(ax, bx)), val2(math.gcd(ay, by))
        ax, ay, bx, by = ax >> k, ay >> l, bx >> k, by >> l
        vs = []
        for x, y in [(bx, by), (ax, ay), (bx - ax, by - ay)]:
            g = math.gcd(x, y)
            assert abs(y // g) & (abs(y // g) - 1)
            bases.append(abs(y // g))
            vs.append(val2(g))
        assert any(vs)
        steps += [v for v in vs if v]
    for seen in calls.values():
        seen.clear()
    assert isomorphic(t1, t2).case in ("e", "f")
    inverses = [(name, args) for name, seen in calls.items() for args in seen if args[1] < 0]
    odd = [(name, modulus) for name, (_, _, modulus) in inverses if modulus & (modulus - 1)]
    assert odd == [("dyhat.hats", modulus) for modulus in bases]
    two = [(name, modulus) for name, (_, _, modulus) in inverses if not modulus & (modulus - 1)]
    assert two == [("dyhat.hats", 1 << v) for v in steps]
    assert calls["dyhat.classify"] == []
    assert [args for args in calls["dyhat.dyadic"] if args[1] < 0] == []


def test_isomorphic_on_self_gives_identity_witness():
    t = Hat(1, 9, 5).triangle()
    result = isomorphic(t, t)
    assert result.isomorphic and result.case == "a"
    assert result.witness == IDENTITY


def test_isomorphism_class_of_the_three_triples():
    hats = [Hat(1, 3, 5), Hat(5, 15, 1), Hat(11, 15, 1)]
    for h1, h2 in combinations(hats, 2):
        assert isomorphic(h1.triangle(), h2.triangle()).isomorphic
        assert isomorphic(h2.triangle(), h1.triangle()).isomorphic


@given(tutil.rep_hats, tutil.rep_hats)
@settings(max_examples=40)
def test_isomorphic_is_symmetric(h1, h2):
    t1, t2 = h1.triangle(), h2.triangle()
    assert isomorphic(t1, t2).isomorphic == isomorphic(t2, t1).isomorphic


@given(tutil.rep_hats, tutil.rep_hats)
@settings(max_examples=40)
def test_isomorphic_pairs_share_invariants(h1, h2):
    t1, t2 = h1.triangle(), h2.triangle()
    result = isomorphic(t1, t2)
    if result.isomorphic:
        assert twice_area(t1) == twice_area(t2)
        assert boundary_types_equivalent(boundary_type(t1), boundary_type(t2))


def _check_isomorphic(t1, t2):
    """isomorphic(t1, t2) against reference.fraction_solve over the six
    correspondences: the verdict is whether any is solved, the witness is
    the first solved map in CORRESPONDENCES order, and the case is its
    letter (vertex k of a triangle is vertex k of its hat, so two
    triangles realize the correspondences that their hats do)."""
    hits = [(corr.case, f) for corr in CORRESPONDENCES
            if (f := fraction_solve(t1, t2, corr.perm)) is not None]
    case, witness = hits[0] if hits else (None, None)
    assert isomorphic(t1, t2) == IsoResult(bool(hits), case, witness), (t1, t2)


def test_isomorphic_answers_on_the_15_grid():
    """Each representative hat with j, m <= 15 against a shuffled unit-map
    image of itself and against the hat two steps along in i."""
    rng = random.Random(12)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                t = Hat(i, j, m).triangle()
                image = transformed(t, tutil.rand_unit_map(rng))
                _check_isomorphic(Triangle(tuple(rng.sample(image.vertices, 3))), t)
                _check_isomorphic(t, Hat(i + 2, j, m).triangle())


@given(st.one_of(tutil.large_triangles, tutil.huge_triangles), tutil.unit_maps,
       st.one_of(tutil.large_triangles, tutil.huge_triangles))
@settings(max_examples=60, phases=tutil.UNSHRUNK)
def test_isomorphic_answers_on_large_coordinates(t, f, other):
    _check_isomorphic(t, transformed(t, f))
    _check_isomorphic(t, other)


def _count_calls(monkeypatch, module, name, calls=None):
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_role_reduction_per_triangle_and_every_route_runs(monkeypatch):
    # the one reduction under both of its bindings: classify's import, and
    # the hats global that all_encoding_triples and canonical_form look up
    reductions = _count_calls(monkeypatch, classify, "role_triples")
    _count_calls(monkeypatch, hats, "role_triples", reductions)
    cases = _count_calls(monkeypatch, classify, "iso_case")
    solves = _count_calls(monkeypatch, classify, "oracle_isomorphic")
    t1, t2 = Hat(1, 3, 5).triangle(), Hat(5, 15, 1).triangle()
    assert isomorphic(t1, t2).case == "c"
    assert reductions == [(t1.scaled_coords(),), (t2.scaled_coords(),)]
    assert cases == [((1, 3, 5), (5, 15, 1))]
    assert len(solves) == 1
    # the oracle sees a "not isomorphic" verdict too
    solves.clear()
    assert not isomorphic(Hat(3, 27, 21).triangle(), Hat(39, 27, 21).triangle()).isomorphic
    assert len(solves) == 1
    # a census hat is reduced once, from its stored pair and not from a
    # Triangle, and still gets its oracle solves: the Cramer pass tests
    # each correspondence from that pair to itself but the identity, which
    # holds untested
    reductions.clear()
    tested, _ = tutil.counted_pass(monkeypatch)
    assert census(5, 5).ok
    assert len(reductions) == 27
    # each a hat's stored pair, and never a Triangle
    assert not any(isinstance(s, Triangle) for (s,) in reductions)
    assert sorted(s for (s,) in reductions) == sorted(
        Hat(i, j, m).triangle().scaled_coords()
        for j in (1, 3, 5) for m in (1, 3, 5) for i in range(1, 2 * j, 2)
    )
    assert len(tested) == 5 * 27
    assert set(tested) == {
        (s, s, c.perm) for (s,) in reductions for c in CORRESPONDENCES[1:]
    }


def test_right_triangle_rule():
    # legs j and m give side types (j, gcd(j,m), m): all distinct forces a
    # trivial group, equal legs give the full group, anything else is C2
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            t = Triangle.of((0, 0), (0, j), (m, 0))
            tag = automorphism_group(normalize(t).hat).tag
            if len({j, math.gcd(j, m), m}) == 3:
                assert tag == "Trivial", (j, m)
            elif j == m:
                assert tag == "S3", (j, m)
            else:
                assert tag == "C2", (j, m)


def test_equilateral_boundary_hats_are_crooked():
    # boundary (m,m,m) with i != m forces i beyond the base, never inside
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, m)
                if boundary_type(h.triangle()) == (m, m, m) and i != m:
                    assert i > m, (i, j, m)


def test_distinct_side_types_force_trivial_group():
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(1, 2 * j, 2):
                h = Hat(i, j, m)
                r, s, t = boundary_type(h.triangle())
                if len({r, s, t}) == 3:
                    assert automorphism_group(h).tag == "Trivial", (i, j, m)


def test_census_small():
    report = census(5, 5)
    assert report.ok
    rows = {(row.j, row.m): row for row in report.rows}
    assert len(rows) == 9

    row = rows[(1, 1)]
    assert row.pointed_classes == 1
    assert row.isomorphism_classes == 1
    assert row.aut_counts["S3"] == 1

    row = rows[(3, 3)]
    assert row.pointed_classes == 3
    assert row.isomorphism_classes == 2
    assert row.aut_counts == {"Trivial": 2, "C2": 0, "C3": 0, "S3": 1}

    row = rows[(5, 1)]
    assert row.pointed_classes == 5
    assert row.isomorphism_classes == 2
    assert row.aut_counts == {"Trivial": 0, "C2": 5, "C3": 0, "S3": 0}

    row = rows[(3, 5)]
    assert row.pointed_classes == 3


def test_census_class_counts_are_the_least_triples_on_the_31_grid():
    # the census counts distinct orbits; by definition a class is labelled
    # by its least triple, so each cell has as many classes as least
    # triples, here built from the paper's formulas
    rows = census(31, 31).rows
    assert len(rows) == 256
    for row in rows:
        least = {min(closed_form_triples(Hat(i, row.j, row.m)), key=CANONICAL_KEY)
                 for i in range(1, 2 * row.j, 2)}
        assert row.isomorphism_classes == len(least), (row.j, row.m)


def test_isomorphism_classes_of_the_31_grid_by_transitivity():
    """Every representative hat with j, m <= 31, grouped by area and then by
    canonical_form: the oracle confirms each hat against its class's first
    hat and refutes every pair of distinct classes of one area, so
    canonical_form neither splits nor merges a class on this grid, and all
    equal-area pairs are decided by transitivity."""
    by_area = defaultdict(lambda: defaultdict(list))
    for j, m in product(range(1, 32, 2), repeat=2):
        for i in range(1, 2 * j, 2):
            tri = Hat(i, j, m).triangle()
            by_area[j * m][canonical_form(tri)].append(tri)
    classes = confirmed = refuted = 0
    for types in by_area.values():
        firsts = [members[0] for members in types.values()]
        for members in types.values():
            for tri in members[1:]:
                assert oracle_isomorphic(tri, members[0]) is not None, (tri, members[0])
                confirmed += 1
        for t1, t2 in combinations(firsts, 2):
            assert oracle_isomorphic(t1, t2) is None, (t1, t2)
            refuted += 1
        classes += len(firsts)
    assert (classes, confirmed, refuted) == (1956, 2140, 17618)


def test_census_tags_are_the_automorphism_group_tags_on_the_31_grid(monkeypatch):
    # the census decides each hat's group without automorphism_group: it
    # checks every representative hat once, on the integers that the hat's
    # own triangle stores, which it builds by hand and hands to both the
    # reduction and the self pass; its tag for each hat, and so each cell's
    # counts, are the reference criteria's
    checked = {}
    reduced = []
    self_cases = classify._self_cases
    reduce = classify.role_triples

    def recorded(h, scaled):
        h = Hat(*h)
        assert h not in checked and scaled == h.triangle().scaled_coords(), h
        assert scaled is reduced[-1], h
        cases = self_cases(h, scaled)
        checked[h] = classify._GROUP_OF_CASES[cases]
        return cases

    def recorded_reduction(scaled):
        reduced.append(scaled)
        return reduce(scaled)

    monkeypatch.setattr(classify, "_self_cases", recorded)
    monkeypatch.setattr(classify, "role_triples", recorded_reduction)
    report = census(31, 31)
    monkeypatch.undo()
    assert report.ok
    assert len(checked) == len(reduced) == 4096
    by_cell = {(row.j, row.m): Counter() for row in report.rows}
    for h, tag in checked.items():
        assert h.is_representative and 0 < h.i < 2 * h.j, h
        assert tag == criteria_row(h)[0], h
        by_cell[h.j, h.m][tag] += 1
    for row in report.rows:
        want = by_cell[row.j, row.m]
        assert sum(want.values()) == row.j, row
        assert row.aut_counts == {tag: want[tag] for tag in GROUP_ORDER}, row


def test_census_builds_no_dyadic_rational_and_skips_only_the_identity(monkeypatch):
    built = []
    init = DyadicRational.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    # AffineMap and Triangle are built through __init__ or from_scaled, and
    # every Triangle, a hat's too, stores itself through _store
    maps = _count_calls(monkeypatch, AffineMap, "__init__")
    from_scaled = AffineMap.from_scaled.__func__

    def counted_from_scaled(cls, *args):
        maps.append(args)
        return from_scaled(cls, *args)

    monkeypatch.setattr(AffineMap, "from_scaled", classmethod(counted_from_scaled))
    triangles = _count_calls(monkeypatch, Hat, "triangle")
    stored = _count_calls(monkeypatch, Triangle, "_store")
    reads = _count_calls(monkeypatch, Triangle, "scaled_coords")
    monkeypatch.setattr(DyadicRational, "__init__", counted_init)
    hats_built = _count_calls(monkeypatch, Hat, "__new__")
    # classify's Hat, called only on a path that raises; tuple.__new__(Hat,
    # ...) would bypass Hat.__new__, and it fails on this stand-in
    census_hats = _count_calls(monkeypatch, classify, "Hat")
    tested, hits = tutil.counted_pass(monkeypatch)
    letters = []
    realized = classify.realized_cases

    def counted_cases(scaled):
        found = realized(scaled)
        letters.extend(found)
        return found

    monkeypatch.setattr(classify, "realized_cases", counted_cases)
    assert census(15, 15).ok
    assert built == []
    # the cell works on each hat's integers: it builds no Hat at all
    assert hats_built == [] and census_hats == []
    # the five correspondences but the identity tested per hat; the
    # identity holds untested, and the letters are as many as before
    assert len(tested) == 5 * 512
    assert (0, 1, 2) not in {perm for _, _, perm in tested}
    assert len(hits) == 154
    assert len(letters) == 666 and letters.count("a") == 512
    # no triangle, no read of one and no witness map: the reduction and
    # the self pass read the stored pair that the cell builds by hand
    assert triangles == []
    assert stored == []
    assert maps == []
    assert reads == []
    # positive control: reading a witness's views does build dyadics
    normalize(Hat(5, 15, 1).triangle()).witness.linear
    assert len(built) == 4
    assert len(maps) == 1
    # the test's own Hat and the one normalize returns
    assert hats_built == [(Hat, 5, 15, 1)] * 2


def test_census_and_isomorphic_build_no_encoding_triple(monkeypatch):
    built = []
    new = EncodingTriple.__new__

    def counted_new(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(EncodingTriple, "__new__", counted_new)
    assert census(15, 15).ok
    for t1, t2 in tutil.large_iso_pairs(random.Random(21), 20):
        isomorphic(t1, t2)
    assert isomorphic(Hat(1, 3, 5).triangle(), Hat(11, 15, 1).triangle()).case == "e"
    assert built == []
    # positive control: the exports build one record per triple they return
    assert canonical_form(Hat(1, 3, 5).triangle()) == EncodingTriple(1, 3, 5)
    assert len(built) == 2
    assert len(all_encoding_triples(Hat(1, 3, 5).triangle())) == 3
    assert len(built) == 5


#: sha256 of the reprs below, recorded before Triangle and AffineMap were
#: stored as integers (when both held DyadicRational coordinates).
GRID_DIGEST = "da87552da372a8e1eb36e3620aebb6e7b6eb2a97351460658d823947049e79a7"


def test_results_on_the_15_grid_are_unchanged():
    """normalize (six roles), automorphism_group (odd i), oracle_isomorphic
    both ways against a seeded unit-map image with shuffled vertices, for
    every i in -2j..4j and j, m <= 15, then census(15, 15)."""
    digest = hashlib.sha256()
    rng = random.Random(6)
    for j in range(1, 16, 2):
        for m in range(1, 16, 2):
            for i in range(-2 * j, 4 * j + 1):
                hat = Hat(i, j, m)
                t = hat.triangle()
                for roles in permutations(range(3)):
                    digest.update(repr(normalize(t, roles)).encode())
                if i % 2:
                    digest.update(repr(automorphism_group(hat)).encode())
                image = transformed(t, tutil.rand_unit_map(rng))
                shuffled = Triangle(tuple(rng.sample(image.vertices, 3)))
                for found in (oracle_isomorphic(t, shuffled), oracle_isomorphic(shuffled, t)):
                    # the first hit and its map, the part that was pinned
                    digest.update(repr(found and found[1:]).encode())
    digest.update(repr(census(15, 15)).encode())
    assert digest.hexdigest() == GRID_DIGEST


def test_census_bounds_validation():
    with pytest.raises(InvalidBounds):
        census(4, 5)
    with pytest.raises(InvalidBounds):
        census(5, 0)
    with pytest.raises(InvalidBounds):
        census(5, 5, workers=0)
    # a bound or workers value that is not exactly an int, bool included
    for args in [(True, True), (15.0, 15), (15, 15.0), (5, 5, 1.5), (5, 5, True),
                 ("5", 5), (5, 5, None)]:
        with pytest.raises(InvalidBounds):
            census(*args)
    # an int keeps its message
    with pytest.raises(InvalidBounds, match=r"^j_max must be an odd positive integer, got 4$"):
        census(4, 5)
    with pytest.raises(InvalidBounds, match=r"^workers must be at least 1, got 0$"):
        census(5, 5, 0)


def test_census_workers_are_bounded_by_cpus(monkeypatch):
    classify = sys.modules["dyhat.classify"]
    pools = []

    # census imports the pool class when it runs pooled, so spy at its source
    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    # raising=False: a platform without the affinity call gets it here
    monkeypatch.setattr(classify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = census(3, 3)
    assert pools == []
    # the 3x3 grid's 8 hats are too few to pay for a pool: it runs serially
    # unless the threshold is lowered, as it is for the rest of this test
    assert census(3, 3, workers=10**6) == serial
    assert pools == []
    monkeypatch.setattr(classify, "MIN_POOLED_HATS", 0)
    assert census(3, 3, workers=10**6) == serial
    assert pools == [2]
    # one cell, or one CPU, leaves nothing to share: no pool at all
    assert census(1, 1, workers=10**6) == census(1, 1)
    # the CPUs the process may use count, not the machine's
    monkeypatch.setattr(classify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(classify.os, "sched_getaffinity", lambda pid: {0})
    assert census(3, 3, workers=10**6) == serial
    assert pools == [2]
    # with no affinity call, the machine's count, or one CPU when it is unknown
    monkeypatch.delattr(classify.os, "sched_getaffinity")
    assert census(3, 3, workers=10**6) == serial
    assert pools == [2, 2]
    monkeypatch.setattr(classify.os, "cpu_count", lambda: None)
    assert census(3, 3, workers=10**6) == serial
    assert pools == [2, 2]


# ------------------------------------ integer boundary and route independence


def _boundary_of_hat(i, j, m):
    """aut_cycle's boundary of (0,0), (i,j), (m,0), read off the integers."""
    return (odd_gcd(i, j), odd_gcd(m - i, j), m)


def test_integer_boundary_matches_boundary_type_exhaustively():
    for j in range(1, 32, 2):
        for m in range(1, 32, 2):
            for i in range(-2 * j, 4 * j + 1):
                h = Hat(i, j, m)
                expected = boundary_type(h.triangle())
                assert _boundary_of_hat(i, j, m) == expected, h
                if i % 2:
                    k, l = i // m, j // m
                    cycle = expected == (m, m, m) and (k * k - k + 1) % l == 0
                    assert aut_cycle(h) == cycle, h


_SOLVER_NAMES = {"solve_correspondence", "_solve_scaled"}


@pytest.mark.parametrize(
    "fn", [iso_case, hat_of],
    ids=lambda fn: fn.__name__,
)
def test_decision_routes_never_reach_the_solver(fn):
    assert not _reachable_names(fn) & _SOLVER_NAMES


def test_reachable_names_sees_the_solver_where_it_is_used():
    assert _SOLVER_NAMES <= _reachable_names(normalize)
    for fn in (oracle_isomorphic, realized_cases, classify._self_cases):
        assert "_solve_scaled" in _reachable_names(fn), fn.__name__


def _package_imports(module):
    """dyhat modules imported by module, directly or through one another."""
    src = Path(sys.modules["dyhat"].__file__).parent
    found, todo = set(), [module]
    while todo:
        tree = ast.parse((src / f"{todo.pop()}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("dyhat."):
                names = [node.module.split(".", 1)[1]]
            elif isinstance(node, ast.Import):
                names = [a.name.split(".", 1)[1] for a in node.names if a.name.startswith("dyhat.")]
            else:
                names = []
            for name in set(names) - found:
                found.add(name)
                todo.append(name)
    return found


def test_oracle_does_not_import_hats():
    imported = _package_imports("oracle")
    assert "geometry" in imported
    assert "hats" not in imported and "classify" not in imported


#: The routes that tests/reference.py checks, none of which it may use.
_CHECKED_ROUTES = {
    "role_triples", "_edge_hats", "hat_of", "normalize", "iso_case",
    "realized_cases", "solve_correspondence", "oracle_isomorphic", "_solve_scaled",
    "automorphism_group", "isomorphic", "census",
    "parse_dyadic", "parse_shape", "parse_hat", "parse_triangle", "format_dyadic",
}


def test_the_references_use_no_route_they_check():
    """Each name that tests/reference.py imports, or reads as an attribute,
    is none of the routes that the tests check against it."""
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert sorted(used & _CHECKED_ROUTES) == []
