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
    p = LaurentPoly.monomial(VARS, (0, 1, 0))
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
        (m + LaurentPoly.monomial(VARS, (0, 0, 1))) ** -1


def test_mismatched_variable_sets_rejected():
    p = LaurentPoly.monomial(("x",), (1,))
    q = LaurentPoly.monomial(("y",), (1,))
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


# -- property tests against a reference that expands through LaurentPoly --


def reference_substitute(mm, p):
    """Pull p back term by term through LaurentPoly products and powers."""
    out = LaurentPoly.zero(mm.target)
    for exps, coeff in p.terms.items():
        term = LaurentPoly.constant(mm.target, coeff)
        for v, e in zip(p.variables, exps):
            if e:
                term = term * mm.image_of(v) ** e
        out = out + term
    return out


def reference_is_identity(mm):
    return set(mm.source) == set(mm.target) and all(
        mm.image_of(v) == LaurentPoly.monomial(mm.target, [int(t == v) for t in mm.target])
        for v in mm.source)


def outcome(f, *args):
    """(True, f(*args)), or (False, None) if it raises ValueError."""
    try:
        return True, f(*args)
    except ValueError:
        return False, None


monomial_units = st.builds(
    lambda c, a: c * T(a),
    st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool),
    st.fractions(min_value=-4, max_value=4, max_denominator=4))
units = st.one_of(
    monomial_units,
    st.builds(lambda u, w, a: u + w * T(a), monomial_units, monomial_units,
              st.fractions(min_value=1, max_value=3, max_denominator=2))
    .filter(lambda u: not u.is_zero()))


@st.composite
def maps(draw, source, target):
    """Random maps source -> target with one- or two-term units; when the
    variable sets agree, all but a drawn number of variables map to
    themselves."""
    moved = source[:draw(st.integers(0, 3))] if source == target else source
    table = {}
    for v in source:
        if v not in moved:
            table[v] = (1, {v: 1})
            continue
        row = (draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
               if draw(st.booleans()) else [int(t == v) for t in target])
        unit = draw(units) if draw(st.booleans()) else 1
        table[v] = (unit, dict(zip(target, row)))
    return MonomialMap.build(source, target, table)


S, M, N = ("a", "b", "c"), ("x", "y", "z"), ("u", "v", "w")


@st.composite
def polys_in(draw, variables, max_terms=4):
    items = draw(st.lists(st.tuples(exps, st.one_of(coeffs, monomial_units)),
                          max_size=max_terms))
    return LaurentPoly(variables, {e: c for e, c in items})


@given(maps(M, N), polys_in(M))
@settings(max_examples=150, deadline=None)
def test_substitute_matches_expansion(mm, p):
    # a negative power of a two-term unit raises in both
    (ok, got), (ref_ok, want) = outcome(mm.substitute, p), outcome(reference_substitute, mm, p)
    assert ok == ref_ok and (not ok or got == want)


@given(maps(S, M), maps(M, N))
@settings(max_examples=150, deadline=None)
def test_compose_matches_expansion(outer, inner):
    ok, got = outcome(outer.compose, inner)
    ref_ok, want = outcome(lambda: {v: reference_substitute(inner, outer.image_of(v))
                                    for v in outer.source})
    assert ok == ref_ok
    if ok:
        assert (got.source, got.target) == (S, N)
        assert all(got.image_of(v) == want[v] for v in S)


@given(maps(M, M))
@settings(max_examples=150, deadline=None)
def test_is_identity_matches_expansion(f):
    assert f.is_identity() == reference_is_identity(f)


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        MonomialMap.build(M, N, {"x": (0, {"u": 1}), "y": (1, {}), "z": (1, {})})
    with pytest.raises(ValueError):
        MonomialMap.build(M, N, {"x": (1, {"q": 1}), "y": (1, {}), "z": (1, {})})
