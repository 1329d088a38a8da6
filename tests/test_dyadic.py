"""Dyadic core: canonical forms, exact arithmetic, the congruence, odd gcd
and extended Euclid references.

Exact operations are cross-checked against stdlib Fraction, which plays the
role of the independent arithmetic oracle here.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from dyhat import DyadicRational
from dyhat.dyadic import common_scale
from dyhat.errors import DivisionByZero, DomainError, NotDyadic
from dyhat.hats import _edge_hats

import tutil
from reference import (
    BothZero, NoSolution, Residue, egcd, from_fraction, odd_gcd, odd_part, solve_congruence,
    val2,
)


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


@given(st.integers(-(2**70), 2**70), st.integers(0, 200))
@example(3, 0)
@example(-1, 0)
@example(0, 7)
def test_an_integral_value_hashes_like_its_int(num, exp):
    d, n = DyadicRational(num, exp), num << exp
    assert d == n and hash(d) == hash(n)
    assert d in {n} and n in {d}
    assert {n: "int"}[d] == "int" and {d: "dyadic"}[n] == "dyadic"


def test_a_huge_exponent_hashes_without_building_the_int():
    # num << exp would need 10**12 bits: the hash reduces 2**exp modulo the
    # hash modulus instead
    assert isinstance(hash(DyadicRational(1, 10**12)), int)
    assert DyadicRational(3) in {3} and DyadicRational(1, -1) not in {0, 1}


def test_addition_examples():
    assert DyadicRational(3, -3) + DyadicRational(5, -1) == DyadicRational(23, -3)
    assert DyadicRational(1, -1) + DyadicRational(1, -1) == DyadicRational(1)
    x = DyadicRational(7, -2)
    assert x + DyadicRational(0) == x


def test_a_value_that_is_not_exactly_an_int_is_refused():
    for num, exp, fault in (
        (1.5, 0, "int numerator, got float"),
        (Fraction(1, 2), 0, "int numerator, got Fraction"),
        (True, 0, "int numerator, got bool"),
        ("1", 0, "int numerator, got str"),
        (1, 0.5, "int exponent, got float"),
        (1, False, "int exponent, got bool"),
    ):
        with pytest.raises(NotDyadic, match=fault):
            DyadicRational(num, exp)


def test_a_bool_still_compares_and_computes_as_its_int():
    assert DyadicRational(1) == True  # noqa: E712
    assert DyadicRational(0) == False  # noqa: E712
    assert DyadicRational(1) != False  # noqa: E712
    assert DyadicRational(3, -1) + True == DyadicRational(5, -1)
    assert {DyadicRational(1): "one"}[True] == "one"


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
    with pytest.raises(ValueError):
        val2(0)
    with pytest.raises(ValueError):
        odd_part(0)


def test_odd_gcd():
    assert odd_gcd(15, 9) == 3
    assert odd_gcd(12, 18) == 3
    assert odd_gcd(0, 24) == 3
    assert odd_gcd(-15, 10) == 5
    assert odd_gcd(1, 999) == 1
    with pytest.raises(BothZero):
        odd_gcd(0, 0)


_egcd_ints = st.one_of(st.integers(-10**6, 10**6), st.integers(-(2**700), 2**700))


def _check_egcd(a, b):
    g, x, y = egcd(a, b)
    assert a * x + b * y == g
    assert g >= 0
    if (a, b) != (0, 0):
        assert a % g == 0 and b % g == 0
        assert math.gcd(a, b) == g


@given(_egcd_ints, _egcd_ints)
@example(0, 0)
@example(0, 12)
@example(0, -(2**700))
@example(12, 0)
@example(-(2**700) + 1, 0)
@example(35, -35)
@example(-(2**699), 2**699)
@example(91, 7)  # b divides a: one division ends the loop
@example(-(3**400), -(3**200))
def test_egcd_identity(a, b):
    _check_egcd(a, b)


@given(st.integers(1, 2**350), _egcd_ints, _egcd_ints)
def test_egcd_identity_with_a_large_common_factor(c, a, b):
    _check_egcd(c * a, c * b)


def test_solve_congruence_examples():
    assert solve_congruence(1, 1, 3) == Residue(1, 3)
    assert solve_congruence(4, 2, 9) == Residue(5, 9)
    assert solve_congruence(3, 6, 9) == Residue(2, 3)
    with pytest.raises(NoSolution):
        solve_congruence(3, 1, 9)
    assert issubclass(NoSolution, DomainError)
    with pytest.raises(ValueError):
        solve_congruence(1, 1, 6)


@given(st.integers(-(2**900), 2**900), st.integers(0, 700), st.integers(0, 2**900))
@example(-1, 700, 2**900 - 1)
def test_integer_residue_matches_dyadic_mod_odd(n, k, half):
    # the residue hat_of computes on integers, n / 2**k mod an odd j: the
    # r in [0, j) with r * 2**k = n (mod j), lifted to an odd i in 1..2j-1.
    # On the base (0, 0) -> (2**k, 0) the Bezout row is (1, 0) and m = 1,
    # so the apex (n, 1) gives the residue of n, divided by the 2-adic step.
    j = 2 * half + 1
    (i, jj, m), _ = _edge_hats(j, 1 << k, 0, n, 1)
    r = n * pow(2, -k, j) % j
    assert (jj, m) == (j, 1) and i % 2 == 1 and 1 <= i <= 2 * j - 1
    assert i % j == r and (r * 2**k - n) % j == 0


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
def test_exact_div_agrees_with_fractions_when_defined(x, y):
    quotient = x.to_fraction() / y.to_fraction()
    den = quotient.denominator
    if den & (den - 1):
        with pytest.raises(NotDyadic):
            x / y
    else:
        assert (x / y).to_fraction() == quotient
