"""Dyadic core: canonical forms, exact arithmetic, congruences.

Exact operations are cross-checked against stdlib Fraction, which plays the
role of the independent arithmetic oracle here.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from dyhat import DyadicRational
from dyhat.dyadic import (
    Residue,
    common_scale,
    egcd,
    odd_gcd,
    odd_part,
    solve_congruence,
    val2,
)
from dyhat.errors import (
    BothZero,
    DivisionByZero,
    NoSolution,
    NotDyadic,
    ZeroArgument,
)

import tutil
from reference import from_fraction


def test_canonical_form_on_construction():
    assert DyadicRational(4) == DyadicRational(1, 2)
    d = DyadicRational(12, -2)
    assert (d.num, d.exp) == (3, 0)
    z = DyadicRational(0, 5)
    assert (z.num, z.exp) == (0, 0)
    assert DyadicRational(-8, -3) == DyadicRational(-1)


def test_equality_is_fieldwise():
    assert DyadicRational(3, -3) == DyadicRational(3, -3)
    assert DyadicRational(3, -3) != DyadicRational(3, -2)
    assert hash(DyadicRational(6, -4)) == hash(DyadicRational(3, -3))
    assert DyadicRational(5) == 5
    assert DyadicRational(5, -1) != 2


def test_addition_examples():
    assert DyadicRational(3, -3) + DyadicRational(5, -1) == DyadicRational(23, -3)
    assert DyadicRational(1, -1) + DyadicRational(1, -1) == DyadicRational(1)
    x = DyadicRational(7, -2)
    assert x + DyadicRational(0) == x


def test_multiplication_examples():
    assert DyadicRational(5, -2) * DyadicRational(3, -1) == DyadicRational(15, -3)
    x = DyadicRational(-9, 4)
    assert x * DyadicRational(1) == x
    assert DyadicRational(5, -2) * DyadicRational(3, -1) == DyadicRational(15, -3)


def test_exact_division_examples():
    assert DyadicRational(9) / DyadicRational(3) == DyadicRational(3)
    assert DyadicRational(9, -1) / DyadicRational(3, 2) == DyadicRational(3, -3)
    with pytest.raises(NotDyadic):
        DyadicRational(1) / DyadicRational(3)
    with pytest.raises(DivisionByZero):
        DyadicRational(1) / DyadicRational(0)
    assert DyadicRational(0) / DyadicRational(7) == DyadicRational(0)


def test_val2_and_odd_part():
    assert val2(12) == 2
    assert val2(1) == 0
    assert val2(-24) == 3
    assert odd_part(24) == 3
    assert odd_part(-24) == -3
    assert odd_part(7) == 7
    with pytest.raises(ZeroArgument):
        val2(0)
    with pytest.raises(ZeroArgument):
        odd_part(0)


def test_odd_gcd():
    assert odd_gcd(15, 9) == 3
    assert odd_gcd(12, 18) == 3
    assert odd_gcd(0, 24) == 3
    assert odd_gcd(-15, 10) == 5
    assert odd_gcd(1, 999) == 1
    with pytest.raises(BothZero):
        odd_gcd(0, 0)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_egcd_identity(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert g >= 0
    if (a, b) != (0, 0):
        assert a % g == 0 and b % g == 0


def test_solve_congruence_examples():
    assert solve_congruence(1, 1, 3) == Residue(1, 3)
    assert solve_congruence(4, 2, 9) == Residue(5, 9)
    assert solve_congruence(3, 6, 9) == Residue(2, 3)
    with pytest.raises(NoSolution):
        solve_congruence(3, 1, 9)
    with pytest.raises(ValueError):
        solve_congruence(1, 1, 6)


@given(st.integers(0, 98), st.integers(0, 98), st.integers(0, 49))
def test_solve_congruence_against_brute_force(a, b, k):
    n = 2 * k + 1
    a, b = a % n, b % n
    brute = [x for x in range(n) if (a * x - b) % n == 0]
    try:
        sol = solve_congruence(a, b, n)
    except NoSolution:
        assert brute == []
        return
    assert brute == list(range(sol.value, n, sol.modulus))


@given(st.integers(-10**30, 10**30), st.integers(0, 300), st.integers(0, 10**6))
def test_integer_residue_matches_dyadic_mod_odd(n, k, half):
    # the residue hat_of computes on integers, n / 2**k mod an odd j: the
    # r in [0, j) with r * 2**k = n (mod j)
    j = 2 * half + 1
    r = n * pow(2, -k, j) % j
    assert 0 <= r < j and (r * 2**k - n) % j == 0


def test_residue_validation():
    with pytest.raises(ValueError):
        Residue(0, 4)
    with pytest.raises(ValueError):
        Residue(5, 3)
    with pytest.raises(ValueError):
        Residue(-1, 3)
    Residue(2, 7)


def test_common_scale():
    D = DyadicRational
    assert common_scale(D(3, -2), D(0), D(5, 1), D(-1, 0)) == ((3, 0, 40, -4), -2)
    assert common_scale(D(0), D(3, 2)) == ((0, 3), 2)
    assert common_scale(D(0), D(0)) == ((0, 0), 0)
    assert common_scale() == ((), 0)


@given(st.lists(tutil.dyadics, max_size=5))
def test_common_scale_reconstructs_its_values(values):
    ints, e = common_scale(*values)
    assert [DyadicRational(n, e) for n in ints] == values
    assert not any(ints) or any(n % 2 for n in ints)


def test_fraction_conversions():
    assert DyadicRational(3, -3).to_fraction() == Fraction(3, 8)
    assert from_fraction(Fraction(6, 4)) == DyadicRational(3, -1)
    with pytest.raises(NotDyadic):
        from_fraction(Fraction(1, 3))


@given(tutil.dyadics, tutil.dyadics)
def test_add_matches_fraction_oracle(x, y):
    assert (x + y).to_fraction() == x.to_fraction() + y.to_fraction()


@given(tutil.dyadics, tutil.dyadics)
def test_mul_matches_fraction_oracle(x, y):
    assert (x * y).to_fraction() == x.to_fraction() * y.to_fraction()


@given(tutil.dyadics, tutil.dyadics)
def test_sub_matches_fraction_oracle(x, y):
    assert (x - y).to_fraction() == x.to_fraction() - y.to_fraction()


@given(tutil.dyadics)
def test_canonical_invariant_holds_after_ops(x):
    for value in (x + x, x * x, -x, x - DyadicRational(1)):
        assert value.num == 0 or value.num % 2 == 1
        if value.num == 0:
            assert value.exp == 0


@given(tutil.dyadics, tutil.nonzero_dyadics)
def test_exact_div_round_trip(x, y):
    assert (x * y) / y == x


@given(tutil.dyadics, tutil.nonzero_dyadics)
def test_exact_div_agrees_with_fractions_when_defined(x, y):
    quotient = x.to_fraction() / y.to_fraction()
    den = quotient.denominator
    if den & (den - 1):
        with pytest.raises(NotDyadic):
            x / y
    else:
        assert (x / y).to_fraction() == quotient
