"""Tests for the dg/A-infinity layer: fiber products, transformations, functor."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tropmirror import ainf, cli, dgcat, mf
from tropmirror.signs import sign_pow
from tropmirror.symbolic import AreaExp, SymPoly


def scaled(f, c):
    """c * f for a ``DgMorphism`` f, entry by entry with ``SymPoly.scale``."""
    return dgcat.DgMorphism(f.src, f.tgt, f.degree,
                            {a: {b: v.scale(c) for b, v in col.items()}
                             for a, col in f.entries.items()})


def added(piece, *terms):
    """sum s * f over the (s, f) of ``terms``, as a ``combine`` of identity composites."""
    return piece.combine((s, piece.identity(f.tgt), f) for s, f in terms)


def ainf_m(piece):
    """The A.1 operations of a dg category: m1 = d, m2 from ``m2_term`` and
    m_{>=3} = 0, which is None here, as is any m with a None argument."""
    def m(args):
        if len(args) > 2 or None in args:
            return None
        if len(args) == 1:
            return piece.d(args[0])
        return piece.combine([dgcat.m2_term(1, *args)])
    return m


def relation_residual(piece, args):
    """The A-infinity relation sum_{i<=j} +-m(a_1, m(a_i..a_j), a_k) at a tuple."""
    m = ainf_m(piece)
    return added(piece, *((sign, out) for sign, c in
                          dgcat.contractions(args, [a.degree for a in args], m)
                          if (out := m(c)) is not None))


def equal_by_difference(piece, f, g):
    """The subtracting definition of equality: f - g vanishes."""
    return added(piece, (1, f), (-1, g)).is_zero()


def padded(piece, f, like):
    """``f`` with a zero entry wherever ``like`` has an entry and f has none,
    and an empty column for every source label f leaves out."""
    entries = {a: {} for a in piece.module(f.src).labels()}
    for source in (scaled(like, 0), f):  # scaling by 0 keeps the entries, all zero
        for a, col in source.entries.items():
            entries[a].update(col)
    return dgcat.DgMorphism(f.src, f.tgt, f.degree, entries)


def reordered(f):
    """``f`` with its columns and entries inserted in reverse order."""
    entries = {a: dict(reversed(col.items())) for a, col in reversed(f.entries.items())}
    return dgcat.DgMorphism(f.src, f.tgt, f.degree, entries)


def assert_equal_agrees(piece, candidates):
    for a in candidates:
        for b in candidates:
            assert piece.equal(a, b) == equal_by_difference(piece, a, b), (a, b)


class TestDgPieces:
    def test_random_pieces_are_valid(self):
        rng = random.Random(11)
        for _ in range(10):
            piece = dgcat.random_dg_piece(rng, "P", objects=2)
            assert piece.validate()["ok"]

    def test_morphism_degree_homogeneity_enforced(self):
        rng = random.Random(0)
        piece = dgcat.random_dg_piece(rng, "P", objects=1)
        obj = sorted(piece.modules)[0]
        g0 = piece.module(obj).labels()[0]
        with pytest.raises(ValueError):
            piece.morphism(obj, obj, 1, {g0: {g0: SymPoly.scalar(1)}})

    def test_ainf_from_dg_relations(self):
        rng = random.Random(3)
        for _ in range(20):
            piece = dgcat.random_dg_piece(rng, "P", objects=3)
            assert piece.validate()["ok"]
            names = sorted(piece.modules)
            # reversed chains: a_i in Hom(X_{i-1}, X_i) is a dg map X_i -> X_{i-1}
            f1 = dgcat.random_dg_morphism(rng, piece, names[1], names[0], rng.choice([0, 1]))
            f2 = dgcat.random_dg_morphism(rng, piece, names[2], names[1], rng.choice([0, 1]))
            f3 = dgcat.random_dg_morphism(rng, piece, names[0], names[2], rng.choice([0, 1]))
            for args in ([f1], [f1, f2], [f1, f2, f3]):
                assert relation_residual(piece, args).is_zero()
        # the same construction on homotopy fiber products
        for seed in range(20):
            hfp, _, (m1, m2, m3) = dgcat.random_hfp_instance(seed)
            for args in ([m1], [m2, m1], [m3, m2, m1]):
                assert relation_residual(hfp, args).is_zero()

    def test_mf_dg_piece_single_potential(self):
        mf0 = mf.transform_object(mf.winding_strip_model(0, exact=True), "L", "S1")
        mf1 = mf.transform_object(mf.winding_strip_model(1, exact=True), "L", "S1")
        piece = dgcat.mf_dg_piece([mf0, mf1])
        # curved objects: delta^2 = W id is nonzero, yet every Hom squares to 0
        assert piece.validate()["ok"]

    def test_equal_agrees_with_vanishing_difference(self):
        rng = random.Random(11)
        for _ in range(60):
            piece = dgcat.random_dg_piece(rng, "D")
            o1, o2 = sorted(piece.modules)
            deg = rng.choice([0, 1])
            f, g = (dgcat.random_dg_morphism(rng, piece, o1, o2, deg) for _ in range(2))
            total = added(piece, (1, f), (1, g))
            zero = piece.zero(o1, o2, deg)
            candidates = [f, g, total, added(piece, (1, total), (-1, g)),
                          padded(piece, f, g), reordered(f), scaled(f, 2),
                          scaled(f, 0), zero, padded(piece, zero, f)]
            assert_equal_agrees(piece, candidates)
            # zero entries, empty columns and insertion order do not matter
            assert piece.equal(padded(piece, f, g), reordered(f))
            assert piece.equal(scaled(f, 0), padded(piece, zero, g))
            for other in (dgcat.random_dg_morphism(rng, piece, o2, o1, deg),
                          piece.zero(o1, o1, deg), piece.zero(o1, o2, deg + 1)):
                with pytest.raises(ValueError):
                    piece.equal(f, other)
                with pytest.raises(ValueError):
                    equal_by_difference(piece, f, other)

    def test_equal_on_a_matrix_factorization_piece(self):
        model = mf.infinite_edge_model()
        obj = mf.transform_object(model, "L", "S")
        piece = dgcat.mf_dg_piece([obj])
        assert piece.mod2
        y, one, x, x2 = (mf.transform_morphism(model, f"P{i}", obj, obj) for i in (-1, 0, 1, 2))
        odd = [f for f in piece.basis_morphisms(obj.name, obj.name) if f.degree == 1]
        candidates = [y, one, x, x2, piece.compose(x, one), piece.compose(x, x),
                      scaled(x, Fraction(1, 2)), padded(piece, x, y), reordered(x2),
                      piece.identity(obj.name), scaled(one, 0),
                      piece.zero(obj.name, obj.name, 2)]
        assert_equal_agrees(piece, candidates)
        assert piece.equal(piece.compose(x, x), x2)
        assert piece.equal(piece.identity(obj.name), one)
        assert not piece.equal(x, y)
        assert odd
        with pytest.raises(ValueError):
            piece.equal(x, odd[0])
        with pytest.raises(ValueError):
            equal_by_difference(piece, x, odd[0])

    def test_mf_dg_piece_rejects_mixed_potentials(self):
        mf1 = mf.transform_object(mf.winding_strip_model(0, exact=True), "L", "S1")
        mf2 = mf.transform_object(mf.pants_strip_model(), "L", "S")
        with pytest.raises(ValueError):
            dgcat.mf_dg_piece([mf1, mf2])


def added_d(hfp, m):
    """The fiber-product differential as a sum of separately built composites."""
    third = added(hfp.D, (-1, hfp.D.d(m.gamma)),
                  (-1, hfp.D.compose(m.tgt.phi, hfp.G(m.mu))),
                  (1, hfp.D.compose(hfp.L(m.nu), m.src.phi)))
    return hfp.morphism(m.src, m.tgt, hfp.B.d(m.mu), hfp.C.d(m.nu), third, m.degree + 1)


def added_compose(hfp, m2, m1):
    """The fiber-product composition as a sum of separately built composites."""
    gamma = added(hfp.D, (1, hfp.D.compose(m2.gamma, hfp.G(m1.mu))),
                  (sign_pow(m2.degree), hfp.D.compose(hfp.L(m2.nu), m1.gamma)))
    return hfp.morphism(m1.src, m2.tgt, hfp.B.compose(m2.mu, m1.mu),
                        hfp.C.compose(m2.nu, m1.nu), gamma, m1.degree + m2.degree)


def listed_conjugators(rng, piece):
    """Each object's (u, u^{-1}) as drawn and built one object after another."""
    units = {}
    for obj, mod in piece.modules.items():
        entries, inv_entries, by_index = {}, {}, {}
        for g, _ in mod.basis:
            idx = g[len(obj) + 1:]
            if idx not in by_index:
                by_index[idx] = Fraction(rng.choice([1, 2, 3, -1, -2]))
            entries[g] = {g: SymPoly.scalar(by_index[idx])}
            inv_entries[g] = {g: SymPoly.scalar(1 / by_index[idx])}
        units[obj] = (dgcat.DgMorphism(obj, obj, 0, entries),
                      dgcat.DgMorphism(obj, obj, 0, inv_entries))
    return units


@pytest.mark.parametrize("category", ["DgPiece", "YonedaPiece", "HomotopyFiberProduct"])
def test_combine_of_no_terms_is_refused(category):
    piece = {"DgPiece": lambda: dgcat.random_dg_piece(random.Random(0)),
             "YonedaPiece": lambda: dgcat.YonedaPiece(dgcat.ModelOps(ainf.load_model("two_pants"))),
             "HomotopyFiberProduct": lambda: dgcat.random_hfp_instance(0)[0]}[category]()
    with pytest.raises(ValueError, match="combine needs at least one term"):
        piece.combine([])


class TestHomotopyFiberProduct:
    def test_combined_d_and_compose_match_the_added_formulas(self):
        for seed in range(25):
            hfp, _, mors = dgcat.random_hfp_instance(seed)
            for m in mors:
                assert hfp.equal(hfp.d(m), added_d(hfp, m))
                assert hfp.equal(hfp.d(hfp.d(m)), added_d(hfp, added_d(hfp, m)))
            for m2, m1 in ((mors[1], mors[0]), (mors[2], mors[1]), (mors[0], mors[2])):
                product = hfp.compose(m2, m1)
                assert hfp.equal(product, added_compose(hfp, m2, m1))
                assert hfp.equal(hfp.d(product), added_d(hfp, product))
                # a signed sum of two composites (a Leibniz right side) in one pass
                terms = ((1, hfp.d(m2), m1), (-1, m2, hfp.d(m1)))
                total = added(hfp, *((s, added_compose(hfp, b, a)) for s, b, a in terms))
                assert hfp.equal(hfp.combine(terms), total)

    def test_instances_keep_the_listed_conjugator_draws(self, monkeypatch):
        seen = []
        functor = dgcat.conjugation_functor
        monkeypatch.setattr(dgcat, "conjugation_functor",
                            lambda piece, units: seen.append(units) or functor(piece, units))
        for seed in range(25):
            hfp, objs, mors = dgcat.random_hfp_instance(seed)
            rng = random.Random(seed)
            D = dgcat.random_dg_piece(rng, "D", objects=3)
            units = listed_conjugators(rng, D)
            phis = [listed_conjugators(rng, D)[obj] for obj in sorted(D.modules)]
            for obj, (u, u_inv) in units.items():
                assert seen[-1][obj][0].entries == u.entries
                assert seen[-1][obj][1].entries == u_inv.entries
            for obj, (phi, _) in zip(objs, phis):
                assert obj.phi.entries == phi.entries
            # the morphisms come next in the same stream
            deg = rng.choice([0, 1])
            assert mors[0].degree == deg
            assert mors[0].mu.entries == dgcat.random_dg_morphism(
                rng, D, objs[0].M, objs[1].M, deg).entries

    # acceptance: axioms on >= 200 seeded random small instances
    @pytest.mark.parametrize("block", range(8))
    def test_axioms_on_random_instances(self, block):
        for seed in range(block * 25, (block + 1) * 25):
            report = dgcat.hfp_axiom_check(seed)
            assert report["ok"], report

    def test_compose_sign_mutant_is_caught(self, monkeypatch):
        def compose(self, m2, m1):
            # the (-1)^{i'} twist on L(nu') o gamma, negated
            gamma = added(self.D, (1, self.D.compose(m2.gamma, self.G(m1.mu))),
                          (-sign_pow(m2.degree), self.D.compose(self.L(m2.nu), m1.gamma)))
            return self.morphism(m1.src, m2.tgt, self.B.compose(m2.mu, m1.mu),
                                 self.C.compose(m2.nu, m1.nu), gamma, m1.degree + m2.degree)

        monkeypatch.setattr(dgcat.HomotopyFiberProduct, "compose", compose)
        failures = [dgcat.hfp_axiom_check(seed)["failures"] for seed in range(25)]
        assert all(failures)
        assert sum(any(f.startswith("leibniz") for f in fs) for fs in failures) >= 10

    def test_differential_sign_mutant_is_caught(self, monkeypatch):
        def d(self, m):
            # the L(nu) phi_1 term with its sign flipped
            third = added(self.D, (-1, self.D.d(m.gamma)),
                          (-1, self.D.compose(m.tgt.phi, self.G(m.mu))),
                          (-1, self.D.compose(self.L(m.nu), m.src.phi)))
            return self.morphism(m.src, m.tgt, self.B.d(m.mu), self.C.d(m.nu),
                                 third, m.degree + 1)

        monkeypatch.setattr(dgcat.HomotopyFiberProduct, "d", d)
        failures = [dgcat.hfp_axiom_check(seed)["failures"] for seed in range(25)]
        assert sum(bool(fs) for fs in failures) >= 20
        # only Leibniz sees this sign: d^2 = 0 holds with either sign of
        # L(nu) phi_1, because phi is closed of degree 0 and G, L are dg
        # functors, so the phi terms of d(d(m)) cancel in pairs
        assert all(f.startswith("leibniz") for fs in failures for f in fs)

    def test_combine_evaluates_no_functor_for_a_zero_gamma_factor(self):
        # gamma_b G(mu_a) vanishes when gamma_b = 0, and L(nu_b) gamma_a when
        # gamma_a = 0: neither functor is evaluated for such a term
        hfp, _, (m1, m2, _) = dgcat.random_hfp_instance(0)
        calls = []

        def counted(tag, F):
            return dgcat.DgFunctor(F.source, F.target, lambda f: calls.append(tag) or F(f))

        hfp.G, hfp.L = counted("G", hfp.G), counted("L", hfp.L)
        start, end = hfp.identity(m1.src), hfp.identity(m1.tgt)
        assert not m1.gamma.is_zero() and not m2.gamma.is_zero()
        for terms, evaluated, expected in (
                ([(1, end, m1)], ["L"], m1), ([(1, m1, start)], ["G"], m1),
                ([(1, m2, m1)], ["G", "L"], added_compose(hfp, m2, m1)),
                ([(1, start, start)], [], start)):
            calls.clear()
            assert hfp.equal(hfp.combine(terms), expected)
            assert calls == evaluated
        assert hfp.combine([(1, start, start)]).gamma == hfp.D.zero(m1.src.M, m1.src.N, -1)

    def test_d_reads_each_sign_of_d_from_d_terms(self, monkeypatch):
        # the sign of d lives only in DgPiece.d_terms: one call per component
        hfp, _, (m1, _, _) = dgcat.random_hfp_instance(0)
        calls = []
        d_terms = dgcat.DgPiece.d_terms
        monkeypatch.setattr(dgcat.DgPiece, "d_terms",
                            lambda self, f: calls.append(id(f)) or d_terms(self, f))
        hfp.d(m1)
        assert sorted(calls) == sorted(map(id, (m1.mu, m1.nu, m1.gamma)))

    def test_zero_yoneda_gamma_is_not_evaluated(self):
        # the Yoneda zero map reads as zero, so an identity composite of the
        # functor equation's fiber product calls no functor
        ops, alpha, _, _ = dgcat.iso_setup("two_pants")
        yon = dgcat.YonedaPiece(ops)
        calls = []
        counted = dgcat.DgFunctor(yon, yon, lambda f: calls.append(f) or f)
        hfp = dgcat.HomotopyFiberProduct(yon, yon, yon, counted, counted)
        pair = ops.hom_pair(alpha)
        start = hfp.identity(dgcat.HfpObject(pair, pair, yon.identity(pair)))
        assert start.gamma.is_zero() and not yon.identity(pair).is_zero()
        assert hfp.combine([(1, start, start)]).gamma.is_zero() and not calls

    def test_equal_checks_every_component_shape(self):
        hfp, _, (m1, _, _) = dgcat.random_hfp_instance(0)
        assert hfp.equal(m1, replace(m1, mu=reordered(m1.mu)))
        assert not m1.mu.is_zero()
        other_mu = scaled(m1.mu, 2)
        assert not hfp.equal(m1, replace(m1, mu=other_mu))
        # mu differs, and gamma or nu has the wrong shape: still a ValueError
        g = m1.gamma
        for bad in (replace(m1, mu=other_mu, gamma=hfp.D.zero(g.src, g.tgt, g.degree + 1)),
                    replace(m1, mu=other_mu, nu=hfp.C.zero(m1.nu.tgt, m1.nu.src, m1.nu.degree))):
            with pytest.raises(ValueError):
                hfp.equal(m1, bad)

    def test_non_invertible_phi_rejected(self):
        rng = random.Random(5)
        piece = dgcat.random_dg_piece(rng, "D", objects=1)
        obj = sorted(piece.modules)[0]
        hfp = dgcat.HomotopyFiberProduct(piece, piece, piece, dgcat.identity_functor(piece),
                                         dgcat.identity_functor(piece))
        with pytest.raises(ValueError, match="invertible"):
            hfp.object(obj, obj, piece.zero(obj, obj, 0), piece.identity(obj))
        # an invertible phi with a wrong candidate inverse fails the certificate
        phi = scaled(piece.identity(obj), 2)
        with pytest.raises(ValueError, match="invertible"):
            hfp.object(obj, obj, phi, piece.identity(obj))
        hfp.object(obj, obj, phi, scaled(piece.identity(obj), Fraction(1, 2)))

    def test_non_closed_phi_rejected(self):
        rng = random.Random(7)
        for _ in range(20):
            piece = dgcat.random_dg_piece(rng, "D", objects=1)
            obj = sorted(piece.modules)[0]
            phi = dgcat.random_dg_morphism(rng, piece, obj, obj, 0)
            if piece.d(phi).is_zero():
                continue
            hfp = dgcat.HomotopyFiberProduct(piece, piece, piece,
                                             dgcat.identity_functor(piece),
                                             dgcat.identity_functor(piece))
            with pytest.raises(ValueError, match="closed"):
                hfp.object(obj, obj, phi, piece.identity(obj))
            return
        pytest.skip("no non-closed candidate generated")


class TestModelOps:
    def test_formal_unit_action(self):
        model = ainf.load_model("two_pants")
        ops = dgcat.ModelOps(model)
        unit = ops.unit("L")
        x = ops.generator("X")  # odd endomorphism generator of L
        assert ops.m([unit, x]) == ops.clean(x)
        assert ops.m([x, unit]) == {"X": SymPoly.scalar(-1)}
        assert ops.m([unit, unit]) == ops.clean(unit)

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        first = ops.m([alpha, beta_n])
        expected = {g: str(c) for g, c in first.items()}
        # a result is read-only, so no mutation can reach the memo
        with pytest.raises(TypeError):
            first["v1"] = SymPoly.var("x")
        with pytest.raises(TypeError):
            first.pop("v2")
        with pytest.raises(TypeError):
            first["P1"] = SymPoly.scalar(5)
        assert {g: str(c) for g, c in ops.m([alpha, beta_n]).items()} == expected
        # a matrix-factorization morphism's entries, mutated as in test_mf
        model = mf.infinite_edge_model()
        obj = mf.transform_object(model, "L", "S")
        phi = mf.transform_morphism(model, "P1", obj, obj)
        before = {g: {h: str(c) for h, c in col.items()} for g, col in phi.entries.items()}
        phi.entries["A"]["A"] = SymPoly.var("y")
        again = mf.transform_morphism(model, "P1", obj, obj)
        assert {g: {h: str(c) for h, c in col.items()}
                for g, col in again.entries.items()} == before

    def test_repeated_call_does_not_recompute(self, monkeypatch):
        model = ainf.load_model("two_pants")
        calls = []
        table_m = model.deformed_m

        def counted(*args, **kwargs):
            calls.append(args)
            return table_m(*args, **kwargs)

        monkeypatch.setattr(model, "deformed_m", counted)
        ops = dgcat.ModelOps(model)
        alpha = ops.clean(model.element([("P4", 1), ("Q4", -1)]))
        first = ops.m([alpha])
        assert len(calls) == 1
        # equal inputs hit the memo whatever their insertion order
        assert ops.m([ops.clean(model.element([("Q4", -1), ("P4", 1)]))]) == first
        assert ops.m([alpha]) == first
        assert len(calls) == 1
        ops.m([ops.generator("P4")])
        assert len(calls) == 2

    def test_memo_key_ignores_insertion_order_and_keeps_scalars_apart(self):
        model = ainf.load_model("two_pants")
        ops = dgcat.ModelOps(model)
        one, x = SymPoly.scalar(1), SymPoly.var("x")
        forward, backward = one + x, x + one
        assert forward == backward and list(forward.terms) != list(backward.terms)
        element = dgcat._Element
        first = ops.m([element({"P4": forward, "Q4": -one})])
        again = ops.m([element({"Q4": -one, "P4": backward})])
        assert again == first and len(ops._m_memo) == 1
        half = ops.m([element({"P4": SymPoly.scalar(Fraction(1, 2))})])
        double = ops.m([element({"P4": SymPoly.scalar(2)})])
        assert len(ops._m_memo) == 3
        assert half and double != half
        # one generator with a one-term coefficient: the area and the scalar
        # each keep keys apart, and an equal input hits the memo
        k1, k2 = SymPoly.term(1, AreaExp.sym("k1")), SymPoly.term(1, AreaExp.sym("k2"))
        outs = [ops.m([element({"P4": c})]) for c in (k1, k2, k1.scale(-2), k1 * x, k1)]
        assert len(ops._m_memo) == 7
        assert outs[4] == outs[0]
        assert all(outs[i] != outs[j] for i in range(4) for j in range(i))

    def test_memo_key_is_order_free_and_separates_elements(self):
        model = ainf.load_model("two_pants")
        names = sorted(model.generators)
        rng = random.Random(18)

        def coefficient():
            total = SymPoly.zero()
            for _ in range(rng.randint(1, 3)):
                area = AreaExp.of({rng.choice(("k1", "k2", "k3")): rng.randint(-2, 2)},
                                  rng.randint(-1, 1))
                mono = {v: rng.randint(-1, 1) for v in rng.sample(("x", "y", "z"), 2)}
                total = total + SymPoly.term(Fraction(rng.randint(-3, 3) or 1,
                                                      rng.randint(1, 3)), area, mono)
            return total

        def neighbours(el):
            # copies that differ in one scalar, one area or one monomial
            g = rng.choice(sorted(el))
            (area, mono), s = rng.choice(sorted(el[g].terms.items(), key=str))
            rest = {k: v for k, v in el[g].terms.items() if k != (area, mono)}
            for changed in (SymPoly.term(s * 2, area, dict(mono)),
                            SymPoly.term(s, area + AreaExp.sym("k4"), dict(mono)),
                            SymPoly.term(s, area, {**dict(mono), "w": 1})):
                c = changed
                for (a, m), t in rest.items():
                    c = c + SymPoly.term(t, a, dict(m))
                yield {**el, g: c}

        elements = []
        for _ in range(300):
            el = {g: coefficient() for g in rng.sample(names, rng.randint(1, 3))}
            if rng.random() < 0.2:
                el[rng.choice(names)] = SymPoly.scalar(rng.choice((1, -2, Fraction(1, 2))))
            el = {g: c for g, c in el.items() if c.terms}
            if not el:
                continue
            key = dgcat._element_key(el)
            assert type(key) is frozenset
            assert dgcat._element_key(dict(reversed(el.items()))) == key
            # the same element built term by term in reversed order
            rebuilt = {g: sum((SymPoly.term(s, a, dict(m))
                               for (a, m), s in reversed(c.terms.items())), SymPoly.zero())
                       for g, c in reversed(el.items())}
            assert rebuilt == el and dgcat._element_key(rebuilt) == key
            for other in neighbours(el):
                assert other != el
                assert dgcat._element_key(other) != key
            elements += [el, rebuilt]
        # equal keys exactly when the elements are equal
        keys = [dgcat._element_key(el) for el in elements]
        for i in range(len(elements)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (elements[i] == elements[j])

    def test_sums_and_unit_parts_are_not_reduced_again(self, monkeypatch):
        # elements are reduced when they enter (clean); a sum of reduced
        # elements and a unit coefficient are used as they stand
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        comp = ops.m([alpha, beta_n])
        assert ops.unit_part(comp) is not None
        scaled = ops.clean({"P4": SymPoly.term(Fraction(1, 3), AreaExp.sym("k1"), {"x": 1})})
        calls = []
        substitute, normalize = ainf.CoordinateChange.substitute, ainf.AInfLocalModel.normalize
        monkeypatch.setattr(ainf.CoordinateChange, "substitute",
                            lambda self, p: calls.append("substitute") or substitute(self, p))
        monkeypatch.setattr(ainf.AInfLocalModel, "normalize",
                            lambda self, p: calls.append("normalize") or normalize(self, p))
        total = ops.combine([(1, alpha), (1, scaled), (-1, alpha), (1, scaled)])
        units = ops.combine([(1, comp), (-1, ops.unit(ops.hom_pair(comp)[0]))])
        obj, scalar = ops.unit_part(comp)
        assert not calls
        assert dict(total) == {"P4": scaled["P4"].scale(2)}
        assert not units and (obj, str(scalar)) == (ops.hom_pair(comp)[0], "1")
        assert ops.clean(total) == total
        assert calls  # clean reduces

    def test_clean_reduces_each_coefficient_once(self, monkeypatch):
        # CoordinateChange.substitute normalizes by the model's constraints
        # after it substitutes, so with a change clean does not normalize
        # first; without one it only normalizes
        ops, _, _, _ = dgcat.iso_setup("two_pants")
        plain = dgcat.ModelOps(ops.model)
        raw = {"P4": SymPoly.term(Fraction(1, 3), AreaExp.sym("ALtb"), {"x'": 1, "y": 1}),
               "P6": SymPoly.term(2, AreaExp.sym("ALb"), {"z'": 1})}
        two_pass = {g: ops.change.substitute(ops.model.normalize(c)) for g, c in raw.items()}
        normalized = {g: ops.model.normalize(c) for g, c in raw.items()}
        calls = []
        substitute, normalize = ainf.CoordinateChange.substitute, ainf.AInfLocalModel.normalize
        monkeypatch.setattr(ainf.CoordinateChange, "substitute",
                            lambda self, p: calls.append("substitute") or substitute(self, p))
        monkeypatch.setattr(ainf.AInfLocalModel, "normalize",
                            lambda self, p: calls.append("normalize") or normalize(self, p))
        assert dict(ops.clean(raw)) == two_pass
        assert calls == ["substitute", "substitute"]
        calls.clear()
        assert dict(plain.clean(raw)) == normalized
        assert calls == ["normalize", "normalize"]

    def test_memo_is_per_coordinate_change(self):
        model = ainf.load_model("two_pants")
        changed, alpha, beta_n, _ = dgcat.iso_setup(model)
        plain = dgcat.ModelOps(model)
        assert changed.model is plain.model

        def shown(el):
            return {g: str(c) for g, c in sorted(el.items())}

        # m1(alpha) before the coordinate change, as computed without a memo
        m1_plain = {
            "P1": "T^(4*k1 + 2*k2 + 2*k3 + k4) - 1*T^(k4 + k5 + k6)*x*x'",
            "P3": "T^(k2 + k4 + k6)*x*y - 1*T^(2*k1 + k2 + 2*k3 + k4)*y'",
            "P5": "T^(k3 + k4 + k5)*x'*z' - 1*T^(2*k1 + 2*k2 + k3 + k4)*z",
            "Q1": "T^(4*k1 + 2*k2 + 2*k3 + k4) - 1*T^(k4 + k5 + k6)*x*x'",
            "Q3": "T^(k2 + k4 + k6)*x*z - 1*T^(2*k1 + k2 + 2*k3 + k4)*z'",
            "Q5": "T^(k3 + k4 + k5)*x'*y' - 1*T^(2*k1 + 2*k2 + k3 + k4)*y",
        }
        for _ in range(2):
            assert shown(plain.m([alpha])) == m1_plain
            assert shown(changed.m([alpha])) == {}
            assert shown(plain.m([alpha, beta_n])) == {
                "v1": "1", "v2": "-1 + 2*T^(-4*k1 - 2*k2 - 2*k3 + k5 + k6)*x*x'"}
            assert shown(changed.m([alpha, beta_n])) == {"v1": "1", "v2": "1"}

    @pytest.mark.parametrize("name", ["two_pants", "circle_seidel"])
    def test_memo_agrees_with_a_fresh_memo_on_results_fed_back(self, name):
        ops, alpha, beta_n, _ = dgcat.iso_setup(name)
        model = ops.model
        rng = random.Random(19)
        scaled = [ops.clean({g.name: SymPoly.term(
                      rng.choice((1, -2, Fraction(1, 3))),
                      AreaExp.sym(rng.choice(("k1", "k2")), rng.randint(-1, 1)))})
                  for g in model.generators.values() if g.name not in ops.all_units]
        pool = [alpha, beta_n] + [ops.unit(obj) for obj in model.objects] + scaled
        seen = list(pool)
        for _ in range(150):
            inputs = [rng.choice(pool)]
            for _ in range(rng.randint(0, 2)):
                tail = ops.hom_pair(inputs[-1])[1]
                inputs.append(rng.choice([e for e in pool if ops.hom_pair(e)[0] == tail]))
            degree = sum(ops.degree(e) for e in inputs)
            out = ops.m(inputs)
            # copies with empty slots, through a memo that has seen nothing
            fresh = dgcat.ModelOps(model, ops.change).m([dgcat._Element(e) for e in inputs])
            assert out == fresh, [sorted(e) for e in inputs]
            assert type(out) is dgcat._Element
            seen.append(out)
            if not out:
                continue
            assert ops.degree(out) == (degree + len(inputs)) % 2  # |m_k| = 2 - k
            try:  # m2 reads a unit component only as a full unit multiple
                ops.unit_part(out)
            except ValueError:
                continue
            pool.append(out)
        filled = {"key": 0, "hom": 0, "deg": 0}
        for el in seen + list(ops._m_memo.values()):
            plain_el = dict(el)
            if el._key is not None:
                filled["key"] += 1
                assert el._key == dgcat._element_key(plain_el)
            if el._hom is not None:
                filled["hom"] += 1
                assert el._hom == ops.hom_pair(el) == model.hom_pair(plain_el)
            if el._deg is not None:
                filled["deg"] += 1
                degs = {model.generators[g].degree % 2 for g in plain_el}
                assert degs == {el._deg} and ops.degree(el) == el._deg
        assert min(filled.values()) > 10, filled

    def test_zero_and_mixed_elements_raise_on_every_call(self):
        model = ainf.load_model("two_pants")
        ops = dgcat.ModelOps(model)
        for zero in (ops.clean({}), ops.clean({"P4": SymPoly.zero()})):
            with pytest.raises(ValueError, match="zero element has no degree"):
                ops.degree(zero)
            with pytest.raises(ValueError, match="zero element has no Hom pair"):
                ops.hom_pair(zero)
        with pytest.raises(ValueError, match="zero element has no Hom pair"):
            model.hom_pair({})
        # a mixed element caches nothing, so it raises again on a second call
        two_homs = ops.clean(model.element([("P4", 1), ("P1r", 1)]))
        two_degrees = ops.clean(model.element([("P4", 1), ("P1", 1)]))
        for _ in range(2):
            with pytest.raises(ValueError, match="mixes Hom spaces"):
                ops.hom_pair(two_homs)
            with pytest.raises(ValueError, match="mixed degree"):
                ops.degree(two_degrees)
        assert ops.degree(two_homs) == 0 and ops.hom_pair(two_degrees) == ("Lt", "L")

    def test_plain_dicts_are_refused(self):
        # m, degree and hom_pair read an element's slots, which a plain dict lacks
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        plain = dict(alpha)
        for call in (lambda: ops.m([plain]), lambda: ops.m([plain, beta_n]),
                     lambda: ops.m([beta_n, plain]), lambda: ops.degree(plain),
                     lambda: ops.hom_pair(plain)):
            with pytest.raises(AttributeError):
                call()
        assert ops.hom_pair(alpha) == ops.model.hom_pair(plain)

    def test_table_closure_all_models(self):
        models = [ainf.load_model(name) for name in
                  ("seidel_pants", "two_pants", "isotopy_pair", "circle_seidel")]
        for model in models + [dgcat._two_circle_model()]:
            assert dgcat.model_ainf_check(model) == {"ok": True, "consumed": []}, model.name

    def test_entry_reading_an_output_is_not_certified(self):
        model = ainf.load_model("two_pants")
        # m2(P1, P1r) -> X' passes the degree rule and reads the output P1;
        # its own output X' is consumed too, as the deformation token of b
        extra = ainf.Entry(("P1", "P1r"), "X'", SymPoly.scalar(1))
        model = replace(model, entries=model.entries + [extra])
        assert dgcat.model_ainf_check(model) == {"ok": False, "consumed": ["P1", "X'"]}

    def test_strip_model_outputs_are_consumed(self):
        report = dgcat.model_ainf_check(mf.pants_strip_model())
        assert report == {"ok": False, "consumed": ["A", "B"]}


class TestYonedaEquivalence:
    def test_components_reject_elements_of_another_hom(self):
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        l0, l1 = ops.hom_pair(alpha)
        p = dgcat.YonedaFunctor(ops, l0).component((alpha,))
        assert p.src == (l1, l0)
        p(beta_n)  # beta~ lies in Hom(L1, L0)
        with pytest.raises(ValueError, match="evaluated on an element of Hom"):
            p(alpha)  # alpha lies in Hom(L0, L1)
        n01 = dgcat.nat_from_cocycle(ops, beta_n).component((), l0)
        with pytest.raises(ValueError, match="evaluated on an element of Hom"):
            n01(ops.unit(l1))

    def test_each_component_is_one_combine(self, monkeypatch):
        # a component of M1 or M2 is one signed sum, so once the table
        # products are memoized, evaluating it makes one ModelOps.combine
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        n01, n10 = dgcat.nat_from_cocycle(ops, beta_n), dgcat.nat_from_cocycle(ops, alpha)
        l0, l1 = ops.hom_pair(alpha)
        cases = [(dgcat.nat_M1(n01).component((alpha,)), ops.unit(l1)),
                 (dgcat.nat_M1(n10).component((beta_n,)), ops.unit(l0)),
                 (dgcat.nat_M2(n01, n10).component((alpha,)), beta_n),
                 (dgcat.nat_M2(n01, n10).component((), l0), ops.unit(l0))]
        calls = []
        combine = dgcat.ModelOps.combine
        monkeypatch.setattr(dgcat.ModelOps, "combine",
                            lambda self, terms: calls.append(terms) or combine(self, terms))
        for comp, bullet in cases:
            first = comp(bullet)
            calls.clear()
            assert comp(bullet) == first
            assert len(calls) == 1

    def test_two_pants_identities(self):
        report = dgcat.yoneda_equivalence_check("two_pants", arity_bound=2)
        idents = report["identities"]
        for tag in ("M1(N01)=0", "M1(N10)=0",
                    "M2(N01,N10)-id=M1(H0)", "M2(N10,N01)-id=M1(H1)",
                    "unit laws", "Lemma 12.2 chained isomorphism"):
            assert idents[tag]["ok"], (tag, idents[tag])
        assert report["ok"]

    @pytest.mark.parametrize("name", ["isotopy_pair", "circle_seidel"])
    def test_all_shipped_pairs(self, name):
        report = dgcat.yoneda_equivalence_check(name, arity_bound=2)
        assert report["ok"], report["identities"]


class TestGlobalFunctor:
    def test_conifold_two_chart_system(self):
        report = cli.SUITES["functor"](cli.RunConfig("verify"))
        assert report["certificate"]
        assert report["functor_equation_cases"] > 0
        assert not report["failures"], report["failures"][:3]
        assert report["ok"]

    def test_functor_equation_detects_wrong_connecting_map(self):
        # the Q1r half of two_pants' normalized beta is closed but no inverse of alpha
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        half = ops.clean({"Q1r": beta_n["Q1r"]})
        assert not ops.m([half])
        l0, l1 = ops.hom_pair(alpha)
        sides = {l0: ("p",), l1: ("q", "gamma")}
        arrows = dgcat.sector_elements(ops, alpha, beta_n)
        residuals = []
        for k in (1, 2):
            for chain, _, ck in dgcat.sector_tuples(ops, arrows, k):
                bullets = [(name, el, side) for (s, t), items in sorted(arrows.items())
                           if s == ck for name, el in items for side in sides[t]]
                residuals += dgcat.functor_equation_residuals(
                    ops, alpha, half, [el for _, el in chain], bullets)
        assert len(residuals) == 36
        # only the connecting component at (beta~; alpha) sees the missing P1r half
        assert [(name, side) for name, side, res in residuals if res] == [("alpha", "gamma")]

    @pytest.mark.parametrize("name", ["isotopy_pair", "circle_seidel"])
    def test_all_shipped_pairs_glue(self, name):
        report = dgcat.functor_equation_check(name, 2)
        assert report["ok"] and report["cases"] > 0, report["failures"][:3]

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("a1,a2", [(0, 0), (1, 0), (0, 2)])
    def test_gluemf_triple(self, m, a1, a2):
        report = mf.glue_edge(m, a1, a2)
        assert report["chain_map"]
        assert report["section_vanishing_order"] == a2 + m
        assert report["ok"]

    def test_failed_certificate_is_reported(self, monkeypatch):
        search = cli.tropical.covering_collection

        def failing(curve, atlas):
            charts, certificate = search(curve, atlas)
            return charts, {**certificate, "ok": False}

        monkeypatch.setattr(cli.tropical, "covering_collection", failing)
        report = cli.SUITES["functor"](cli.RunConfig("verify"))
        assert report["certificate"] is False and report["ok"] is False
        assert not report["failures"] and report["mf_triple"]

    def test_one_chart_degenerates_to_local_functor(self):
        report = dgcat.one_chart_degenerate_check()
        assert report["ok"], report


class TestFlop:
    def test_flop_check(self):
        report = dgcat.flop_check()
        failing = [k for k, v in report.items() if not v]
        assert not failing, failing
        assert report["w_preserved"] and report["gluings_intertwined"]
        assert report["d(Y)=(xx'-T^(d+d'))Zb"]
        assert report["alpha_closed_on_gluing_locus"]
        assert report["alpha_not_closed_off_locus"]

    def test_sign_ledger(self, monkeypatch):
        # flipping any two-circle strip fails some check, except the two
        # strips flagged sign_unknown, which no identity here constrains
        model = dgcat._two_circle_model()
        assert len(model.entries) == 12
        flagged = {(e.inputs, e.output) for e in model.entries if e.sign_unknown}
        assert flagged == {(("Xb", "Bx2"), "pt2"), (("Bxp1", "Xpb"), "pt1")}
        assert dgcat.flop_check()["unconstrained_signs"] == [
            "Bxp1 Xpb -> pt1", "Xb Bx2 -> pt2"]
        for i, entry in enumerate(model.entries):
            entries = list(model.entries)
            entries[i] = replace(entry, coeff=-entry.coeff)
            flipped = replace(model, entries=entries)
            monkeypatch.setattr(dgcat, "_two_circle_model", lambda: flipped)
            report = dgcat.flop_check()
            failing = [k for k, v in report.items() if not v]
            assert bool(failing) != entry.sign_unknown, (entry, failing)
