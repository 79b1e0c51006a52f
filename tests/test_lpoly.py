"""Laurent polynomial and monomial map tests."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.lpoly import LaurentPoly, MonomialMap
from tropmirror.novikov import T

VARS = ("x", "y", "z")

exps = st.tuples(*[st.integers(-3, 3)] * 3)
coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def polys(draw, max_terms=5):
    items = draw(st.lists(st.tuples(exps, coeffs), max_size=max_terms))
    return LaurentPoly(VARS, {e: c for e, c in items})


def test_constructors():
    p = LaurentPoly.var(VARS, "y")
    assert p.single_term() == ((0, 1, 0), T(0))
    assert LaurentPoly.zero(VARS).is_zero()
    assert LaurentPoly.constant(VARS, 0).is_zero()


@given(polys(), polys(), polys())
@settings(max_examples=80)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == LaurentPoly.zero(VARS)


def test_monomial_inverse_power():
    m = LaurentPoly.monomial(VARS, (1, -2, 0), T(Fraction(1, 2)))
    inv = m ** -1
    assert m * inv == LaurentPoly.constant(VARS, 1)
    with pytest.raises(ValueError):
        (m + LaurentPoly.var(VARS, "z")) ** -1


def test_mismatched_variable_sets_rejected():
    p = LaurentPoly.var(("x",), "x")
    q = LaurentPoly.var(("y",), "y")
    for op in (p.__add__, p.__mul__, p.__sub__, p.__eq__):
        with pytest.raises(ValueError):
            op(q)


def make_map():
    # x1 = x2^-1, y1 = T^2 * x2^3 * y2, z1 = T^-1 * z2
    return MonomialMap.build(
        ("x1", "y1", "z1"),
        ("x2", "y2", "z2"),
        {
            "x1": (1, {"x2": -1}),
            "y1": (T(2), {"x2": 3, "y2": 1}),
            "z1": (T(-1), {"z2": 1}),
        },
    )


def test_substitute_is_homomorphism():
    f = make_map()
    p = LaurentPoly(("x1", "y1", "z1"), {(1, 1, 1): T(1), (0, 2, 0): Fraction(3)})
    q = LaurentPoly(("x1", "y1", "z1"), {(-1, 0, 1): Fraction(1)})
    assert f.substitute(p * q) == f.substitute(p) * f.substitute(q)
    assert f.substitute(p + q) == f.substitute(p) + f.substitute(q)


def test_compose_and_identity():
    f = make_map()
    g = MonomialMap.build(
        ("x2", "y2", "z2"),
        ("x1", "y1", "z1"),
        {
            "x2": (1, {"x1": -1}),
            "y2": (T(-2), {"x1": 3, "y1": 1}),
            "z2": (T(1), {"z1": 1}),
        },
    )
    # g after f round-trips the x2-chart; f after g round-trips the x1-chart
    assert g.compose(f).is_identity()
    p = LaurentPoly(("x1", "y1", "z1"), {(2, 1, -1): T(5)})
    assert g.substitute(f.substitute(p)) == p
    h = f.compose(g)  # x1-chart -> x1-chart
    assert h.source == ("x1", "y1", "z1") and h.target == ("x1", "y1", "z1")
    assert h.is_identity()
