"""Tests for the dg/A-infinity layer: fiber products, transformations, functor."""

import random
from fractions import Fraction

import pytest

from tropmirror import ainf, dgcat, mf
from tropmirror.symbolic import SymPoly


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
            A = dgcat.ainf_from_dg(piece)
            names = sorted(piece.modules)
            # reversed chains: a_i in Hom(X_{i-1}, X_i) is a dg map X_i -> X_{i-1}
            f1 = dgcat.random_dg_morphism(rng, piece, names[1], names[0], rng.choice([0, 1]))
            f2 = dgcat.random_dg_morphism(rng, piece, names[2], names[1], rng.choice([0, 1]))
            f3 = dgcat.random_dg_morphism(rng, piece, names[0], names[2], rng.choice([0, 1]))
            for args in ([f1], [f1, f2], [f1, f2, f3]):
                assert A.relation_residual(args).is_zero()
        # the same construction on homotopy fiber products
        for seed in range(20):
            hfp, _, (m1, m2, m3) = dgcat.random_hfp_instance(seed)
            A = dgcat.AinfFromDg(hfp)
            for args in ([m1], [m2, m1], [m3, m2, m1]):
                assert A.relation_residual(args).is_zero()

    def test_mf_dg_piece_single_potential(self):
        mf0 = mf.transform_object(mf.winding_strip_model(0, exact=True), "L", "S1")
        mf1 = mf.transform_object(mf.winding_strip_model(1, exact=True), "L", "S1")
        piece = dgcat.mf_dg_piece([mf0, mf1])
        assert piece.validate()["ok"]
        # curved objects: delta^2 = W id is nonzero, yet every Hom squares to 0
        dgcat.ainf_from_dg(piece)

    def test_mf_dg_piece_rejects_mixed_potentials(self):
        mf1 = mf.transform_object(mf.winding_strip_model(0, exact=True), "L", "S1")
        mf2 = mf.transform_object(mf.pants_strip_model(exact=True), "L", "S")
        with pytest.raises(ValueError):
            dgcat.mf_dg_piece([mf1, mf2])


class TestHomotopyFiberProduct:
    # acceptance: axioms on >= 200 seeded random small instances
    @pytest.mark.parametrize("block", range(8))
    def test_axioms_on_random_instances(self, block):
        for seed in range(block * 25, (block + 1) * 25):
            report = dgcat.hfp_axiom_check(seed)
            assert report["ok"], report

    def test_non_invertible_phi_rejected(self):
        rng = random.Random(5)
        piece = dgcat.random_dg_piece(rng, "D", objects=1)
        obj = sorted(piece.modules)[0]
        hfp = dgcat.HomotopyFiberProduct(piece, piece, piece, dgcat.identity_functor(piece),
                                         dgcat.identity_functor(piece))
        with pytest.raises(ValueError, match="invertible"):
            hfp.object(obj, obj, piece.zero(obj, obj, 0), piece.identity(obj))
        # an invertible phi with a wrong candidate inverse fails the certificate
        phi = piece.scale(piece.identity(obj), 2)
        with pytest.raises(ValueError, match="invertible"):
            hfp.object(obj, obj, phi, piece.identity(obj))
        hfp.object(obj, obj, phi, piece.scale(piece.identity(obj), Fraction(1, 2)))

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
        x = {"X": SymPoly.scalar(1)}  # odd endomorphism generator of L
        assert ops.m([unit, x]) == ops.clean(x)
        assert ops.m([x, unit]) == {"X": SymPoly.scalar(-1)}
        assert ops.m([unit, unit]) == ops.clean(unit)

    def test_table_closure_all_models(self):
        for name in ("two_pants", "isotopy_pair", "circle_seidel"):
            model = ainf.load_model(name)
            report = dgcat.model_ainf_check(model, max_arity=2,
                                            sample_arities=(3,), samples=15, seed=1)
            assert report["ok"], report["failures"][:3]
            assert report["checked"] > 0


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
        report = dgcat.global_functor()
        assert report["certificate"]["ok"]
        assert all(report["checks"]["homotopy_identity"].values())
        fe = report["checks"]["functor_equation"]
        assert fe["ok"] and fe["cases"] > 0, fe["failures"][:3]
        assert report["ok"]

    def test_functor_equation_detects_wrong_connecting_map(self):
        # the Q1r half of two_pants' normalized beta is closed but no inverse of alpha
        ops, alpha, beta_n, _ = dgcat.iso_setup("two_pants")
        half = {"Q1r": beta_n["Q1r"]}
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
        report = dgcat.global_functor(model=name)
        assert report["ok"], report["checks"]["functor_equation"]["failures"][:3]

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("a1,a2", [(0, 0), (1, 0), (0, 2)])
    def test_gluemf_triple(self, m, a1, a2):
        report = dgcat.gluemf_triple(m, a1, a2)
        assert report["chain_map_up_to_sign"]
        assert report["potential_match"]
        assert report["entries_unit_monomials"]
        assert report["section_vanishing_order"] == a2 + m
        assert report["ok"]

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
