"""Unit and property tests for Novikov field arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.novikov import NovikovSeries, T, as_series

ZERO = NovikovSeries(())
ONE = T(0)

exponents = st.fractions(min_value=-5, max_value=5, max_denominator=12)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def series(draw, max_terms=8):
    pairs = draw(st.lists(st.tuples(exponents, coeffs), max_size=max_terms))
    return NovikovSeries.from_terms(pairs)


def lead(s):
    """Least exponent of a nonzero series."""
    return s.terms[0][0]


def test_zero_and_one():
    assert ZERO.is_zero()
    assert ONE.terms == ((Fraction(0), Fraction(1)),)
    assert ONE + ZERO == ONE


def test_monomial_roundtrip():
    a = NovikovSeries.monomial(Fraction(3, 2), Fraction(-2, 3))
    assert a.inv() == NovikovSeries.monomial(Fraction(-3, 2), Fraction(-3, 2))
    assert a * a.inv() == ONE


def test_from_terms_merges_and_drops_zero():
    s = NovikovSeries.from_terms([(1, 2), (1, -2), (0, 3)])
    assert s.terms == ((Fraction(0), Fraction(3)),)


def test_val_of_sum_cancellation():
    s = T(1) - T(1) + T(2)
    assert s == T(2)


@given(series(), series(), series())
@settings(max_examples=100)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    assert a * ONE == a


@given(series(), series())
@settings(max_examples=100)
def test_val_submultiplicative(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert lead(a * b) == lead(a) + lead(b)
        assert (a + b).is_zero() or lead(a + b) >= min(lead(a), lead(b))


@given(series(max_terms=3), series(max_terms=1), st.integers(0, 4))
@settings(max_examples=100)
def test_powers_and_monomial_products(a, m, n):
    # m is zero or a monomial: the one-term product path must agree with
    # the general one, and powers with repeated products
    expanded = NovikovSeries.from_terms(
        (e1 + e2, c1 * c2) for e1, c1 in a.terms for e2, c2 in m.terms)
    assert a * m == m * a == expanded
    product = ONE
    for _ in range(n):
        product = product * a
    assert a ** n == product
    if not m.is_zero():
        assert m ** -n == m.inv() ** n and m ** -n * m ** n == ONE
    if len(a.terms) > 1 and n:
        with pytest.raises(ValueError):
            a ** -n


def test_multiterm_inverse_needs_truncation():
    # the field is exact, with no truncation order, so only monomials invert
    with pytest.raises(ValueError):
        (ONE + T(1)).inv()
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_str_stable():
    s = 2 * T(Fraction(1, 2)) - T(2) + as_series(3)
    assert str(s) == "3 + 2*T^1/2 - T^2"
