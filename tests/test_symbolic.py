"""Property tests for the exact SymPoly kernel and the dg composition built on it."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror.dgcat import DgMorphism, random_dg_morphism, random_dg_piece
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


def assert_canonical(p: SymPoly):
    """The invariant the kernel keeps: canonical keys, nonzero Fraction scalars."""
    for (area, mono), scalar in p.terms.items():
        assert type(scalar) is Fraction and scalar != 0
        assert area.coeffs == tuple(sorted(area.coeffs))
        assert all(type(c) is Fraction and c for _, c in area.coeffs)
        assert type(area.const) is Fraction
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
    for result in (a + b, a - b, -a, a * b, a.scale(k), k * a, a * k,
                   a.substitute(images), SymPoly.sum_of_products([(a, b), (b, a)])):
        assert_canonical(result)


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


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([1, -1, 2, Fraction(-1, 3), 0]))
@settings(max_examples=50, deadline=None)
def test_rational_scale_cancels_its_negation(seed, k):
    rng = random.Random(seed)
    piece = random_dg_piece(rng, "D")
    o1, o2 = sorted(piece.modules)
    f = random_dg_morphism(rng, piece, o1, o2, 0)
    assert piece.add(piece.scale(f, k), piece.scale(f, -k)).is_zero()
