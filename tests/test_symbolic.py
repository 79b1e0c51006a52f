"""Property tests for the exact SymPoly kernel and the dg composition built on it."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.dgcat import DgMorphism, _random_conjugators, random_dg_morphism, random_dg_piece
from tropmirror.signs import sign_pow
from tropmirror.symbolic import AreaExp, SymPoly

ZERO = SymPoly.zero()
ONE = SymPoly.scalar(1)

# few symbols, variables and small exponents, so that terms collide and cancel
fractions = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)}))
areas = st.builds(
    AreaExp.of,
    st.dictionaries(st.sampled_from(["a", "b", "c"]), fractions, max_size=2),
    fractions)
monos = st.dictionaries(st.sampled_from(["x", "y", "z"]),
                        st.integers(min_value=-2, max_value=2), max_size=2)
monomials = st.builds(SymPoly.term, fractions.filter(bool), areas, monos)


def polys(max_terms=5):
    return st.lists(st.tuples(fractions, areas, monos), max_size=max_terms).map(
        lambda terms: sum((SymPoly.term(*t) for t in terms), ZERO))


def is_normal(x) -> bool:
    """A rational in normal form: an ``int``, or a ``Fraction`` that is not
    integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def assert_canonical(p: SymPoly):
    """The invariant the kernel keeps: canonical keys, nonzero normal scalars."""
    for (area, mono), scalar in p.terms.items():
        assert is_normal(scalar) and scalar != 0
        assert area.coeffs == tuple(sorted(area.coeffs))
        assert all(is_normal(c) and c for _, c in area.coeffs)
        assert is_normal(area.const)
        assert mono == tuple(sorted(mono))
        assert all(type(e) is int and e for _, e in mono)


@given(polys(), polys(), polys())
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == ZERO
    assert a - b == a + (-b)
    assert a * ONE == a and a + ZERO == a
    assert (a * ZERO).is_zero()


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_equality_is_vanishing_difference(a, b):
    assert (a == b) == (a - b).is_zero()
    assert a == a + b - b
    assert (a == a + ONE) is False


def test_equality_with_rationals():
    assert SymPoly.scalar(3) == 3
    assert SymPoly.scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert ZERO == 0
    assert SymPoly.var("x") != 1


def test_ring_operations_reject_strings():
    p = SymPoly.var("x")
    for op in (lambda: p * "1", lambda: "2" * p, lambda: p + "1", lambda: p == "1"):
        try:
            op()
        except TypeError:
            continue
        raise AssertionError("a string operand was coerced")


@given(polys(), polys(), fractions, st.dictionaries(st.sampled_from(["x", "y"]), monomials))
@settings(max_examples=100, deadline=None)
def test_every_operation_keeps_the_invariant(a, b, k, images):
    mixed = SymPoly.sum_of_products([(1, a, b), (-1, b, a), (1, a, a)])
    for result in (a + b, a - b, -a, a * b, a.scale(k), k * a, a * k,
                   a.substitute(images), SymPoly.sum_of_products([(1, a, b), (1, b, a)]), mixed):
        assert_canonical(result)
    assert mixed == a * a


def test_integral_results_come_back_as_ints():
    half, two = SymPoly.scalar(Fraction(1, 2)), SymPoly.scalar(2)
    for p in (half.scale(2), half * 2, half + half, half * two,
              SymPoly.sum_of_products([(1, half, two * two), (-1, half, two)]),
              SymPoly.term(Fraction(3, 1), AreaExp.of({"a": Fraction(4, 2)}, Fraction(2, 2)))):
        (scalar, area, _), = [p.single_term()]
        assert type(scalar) is int and scalar in (1, 3)
        assert all(type(c) is int for _, c in area.coeffs) and type(area.const) is int
    assert AreaExp.sym("a", Fraction(1, 2)).scale(2).coeffs == (("a", 1),)
    assert type(AreaExp.sym("a", Fraction(1, 2)).scale(2).coeffs[0][1]) is int
    for bad in (0.5, 1.0):
        try:
            SymPoly.scalar(bad)
        except TypeError:
            continue
        raise AssertionError("a float was taken as a scalar")


def test_int_scalars_stay_exact():
    three = SymPoly.term(3, AreaExp.sym("a"), {"x": 2})
    inverse = three.inv()
    assert inverse.single_term()[0] == Fraction(1, 3)
    assert type(inverse.single_term()[0]) is Fraction
    assert inverse * three == ONE and type((inverse * three).single_term()[0]) is int
    assert three.scale(Fraction(1, 3)) * inverse.scale(3) == ONE
    assert three.scale(-2).scale(Fraction(-1, 2)) == three
    rng = random.Random(3)
    piece = random_dg_piece(rng, "D", objects=3)
    for obj, (u, u_inv) in _random_conjugators(rng, piece).items():
        assert piece.equal(piece.compose(u, u_inv), piece.identity(obj))
        for g, col in u_inv.entries.items():
            (c, _, _), = [col[g].single_term()]
            assert is_normal(c) and c * u.entries[g][g].single_term()[0] == 1


@given(polys(), st.dictionaries(st.sampled_from(["a", "b", "c"]), fractions, min_size=3),
       areas)
@settings(max_examples=100, deadline=None)
def test_area_rewrites_keep_the_invariant(a, assignment, image):
    # the image of c must not mention c, or normalize would never finish
    substitutions = {"c": AreaExp.of({s: v for s, v in image.coeffs if s != "c"}, image.const)}
    assert_canonical(a.normalize(substitutions))
    instantiated = a.instantiate(assignment)
    assert_canonical(instantiated)
    assert all(not area.coeffs for area, _ in instantiated.terms)


@given(polys(), fractions)
@settings(max_examples=100, deadline=None)
def test_scale_is_multiplication_by_a_scalar(a, k):
    assert a.scale(k) == a * SymPoly.scalar(k) == SymPoly.scalar(k) * a


@given(polys(), st.dictionaries(st.sampled_from(["x", "y"]), monomials))
@settings(max_examples=100, deadline=None)
def test_substitute_is_a_ring_map(a, images):
    b = SymPoly.var("x") * SymPoly.var("z", -1)
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
    assert SymPoly.var("z").substitute(images) == SymPoly.var("z")


@given(st.dictionaries(st.sampled_from(["a", "b", "c"]), fractions, max_size=3), fractions)
@settings(max_examples=100, deadline=None)
def test_equal_areas_hash_equal(mapping, const):
    a = AreaExp.of(mapping, const)
    first = hash(a)  # cached from here on
    b = AreaExp.constant(const)
    for sym, c in reversed(list(mapping.items())):
        b = b + AreaExp.sym(sym, c)
    assert a == b
    assert hash(a) == first == hash(b) == hash((a.coeffs, a.const))
    assert hash(b) == hash(b)
    assert hash(a + AreaExp.constant(0)) == first
    assert a + AreaExp.constant(0) == a == AreaExp.constant(0) + a
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and "_hash" not in vars(copy)


def naive_compose(g, f):
    """g after f as a sum of SymPoly products, one product at a time."""
    entries = {}
    for a, col in f.entries.items():
        out = {}
        for b, c in col.items():
            for h, d in g.entries.get(b, {}).items():
                out[h] = out.get(h, SymPoly.zero()) + c * d
        out = {h: v for h, v in out.items() if not v.is_zero()}
        if out:
            entries[a] = out
    return entries


def naive_sum(terms):
    """sum sign * (g after f) over the (sign, g, f) of ``terms``, by SymPoly + and scale."""
    entries = {}
    for sign, g, f in terms:
        for a, col in naive_compose(g, f).items():
            out = entries.setdefault(a, {})
            for h, v in col.items():
                out[h] = out.get(h, SymPoly.zero()) + v.scale(sign)
    return {a: kept for a, col in entries.items()
            if (kept := {h: v for h, v in col.items() if not v.is_zero()})}


def times(f, c):
    """f with every entry multiplied by the polynomial c."""
    return DgMorphism(f.src, f.tgt, f.degree,
                      {a: {b: c * v for b, v in col.items()} for a, col in f.entries.items()})


@given(st.integers(min_value=0, max_value=10**6), polys(max_terms=3), polys(max_terms=3))
@settings(max_examples=100, deadline=None)
def test_fused_compose_matches_sum_of_products(seed, p, q):
    rng = random.Random(seed)
    piece = random_dg_piece(rng, "D", objects=3)
    o1, o2, o3 = sorted(piece.modules)
    f = random_dg_morphism(rng, piece, o1, o2, rng.choice([0, 1]))
    g = random_dg_morphism(rng, piece, o2, o3, rng.choice([0, 1]))
    if not p.is_zero() and not q.is_zero():
        # symbolic areas and Laurent monomials in the entries as well
        f, g = times(f, p), times(g, q)
    fused = piece.compose(g, f)
    reference = naive_compose(g, f)
    assert fused.entries == reference
    for col in fused.entries.values():
        for c in col.values():
            assert_canonical(c)
    assert fused.degree == piece._deg(f.degree + g.degree)

    # signed sums of composites of one shape: combine, d (d_tgt o f -
    # (-1)^{|f|} f o d_src) and a sum of identity composites
    f2 = random_dg_morphism(rng, piece, o1, o2, f.degree)
    g2 = random_dg_morphism(rng, piece, o2, o3, g.degree)
    d_src, d_tgt = (DgMorphism(o, o, 1, piece.module(o).d) for o in (o1, o2))
    ident = piece.identity(o2)
    for got, terms in (
            (piece.combine([(1, g, f), (-1, g2, f2), (-1, g, f2)]),
             [(1, g, f), (-1, g2, f2), (-1, g, f2)]),
            (piece.d(f), [(1, d_tgt, f), (-sign_pow(f.degree), f, d_src)]),
            (piece.combine([(1, ident, f), (-1, ident, f2), (1, ident, f)]),
             [(1, ident, f), (-1, ident, f2), (1, ident, f)])):
        assert got.entries == naive_sum(terms)
        for col in got.entries.values():
            for c in col.values():
                assert_canonical(c)
