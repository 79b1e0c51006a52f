"""Tests for matrix factorizations, cokernels, gluing, and morphism transforms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror import mf
from tropmirror.ainf import random_area_assignment
from tropmirror.dgcat import mf_dg_piece
from tropmirror.symbolic import AreaExp, SymPoly
from tropmirror.tropical import conifold_curve, load_curve


def as_str(table):
    """A {generator: {generator: SymPoly}} table with printed coefficients."""
    return {g: {h: str(c) for h, c in col.items()} for g, col in table.items()}


def is_chain_map(phi, src, tgt):
    return mf_dg_piece([src, tgt]).d(phi).is_zero()


def face_with_edge(curve, edge_id):
    for point, nodes in curve.faces().items():
        if any(eid == edge_id for _, eid in nodes):
            return point
    raise AssertionError(f"no face touching {edge_id}")


class TestTransformObject:
    def test_pants_delta(self):
        obj = mf.transform_object(mf.pants_strip_model(), "L", "S")
        assert as_str(obj.delta) == {"A": {"B": "z"}, "B": {"A": "x*y"}}
        assert obj.potential == SymPoly.term(1, None, {"x": 1, "y": 1, "z": 1})

    def test_winding_zero_delta(self):
        obj = mf.transform_object(mf.winding_strip_model(0), "L", "S1")
        assert obj.entry("C0", "D0") == SymPoly.var("z1")
        assert obj.entry("D0", "C0") == SymPoly.term(1, AreaExp.sym("A"), {"x1": 1, "y1": 1})
        assert len(obj.generators) == 2

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_winding_delta_squares_to_potential(self, m):
        obj = mf.transform_object(mf.winding_strip_model(m), "L", "S1")
        ok, residual = mf.check_mf(obj)
        assert ok, residual
        assert len(obj.generators) == 4 * m + 2
        assert len(obj.odd) == len(obj.even)

    def test_delta_swaps_parities(self):
        obj = mf.transform_object(mf.winding_strip_model(2), "L", "S1")
        for g, col in obj.delta.items():
            for h in col:
                assert obj.parity[g] != obj.parity[h]

    def test_unknown_module_object_rejected(self):
        with pytest.raises(ValueError):
            mf.transform_object(mf.pants_strip_model(), "nope", "S")


class TestCheckMF:
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_numeric_identity_at_random_areas(self, m):
        model = mf.winding_strip_model(m)
        obj = mf.transform_object(model, "L", "S1")
        rng = random.Random(100 + m)
        for _ in range(10):
            ok, residual = mf.check_mf(obj, random_area_assignment(model, rng))
            assert ok, residual

    def test_sign_flip_fails(self):
        model = mf.winding_strip_model(1)
        obj = mf.transform_object(model, "L", "S1")
        obj.delta["C1"]["D0"] = -obj.delta["C1"]["D0"]
        ok, residual = mf.check_mf(obj)
        assert not ok
        assert residual
        rng = random.Random(101)
        for _ in range(10):
            ok, residual = mf.check_mf(obj, random_area_assignment(model, rng))
            assert not ok
            assert residual

    def test_zero_module_passes(self):
        empty = mf.MatrixFactorization(
            "empty", ("x", "y", "z"), (), {}, {}, SymPoly.var("x"))
        assert mf.check_mf(empty)[0]

    def test_shipped_models_pass_at_random_areas(self):
        rng = random.Random(11)
        cases = [
            (mf.pants_strip_model(exact=False), "L", "S"),
            (mf.winding_strip_model(1), "L", "S1"),
            (mf.winding_strip_model(2), "L", "S1"),
            (mf.nonadjacent_strip_model(), "L", "S"),
            (mf.infinite_edge_model(2), "L", "S"),
        ]
        for model, lag, ref in cases:
            obj = mf.transform_object(model, lag, ref)
            for _ in range(20):
                ok, residual = mf.check_mf(obj, random_area_assignment(model, rng))
                assert ok, (model.name, residual)


class TestCokernel:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_winding_cokernel(self, m):
        obj = mf.transform_object(mf.winding_strip_model(m), "L", "S1")
        cls = mf.cokernel_dsing(obj)
        nontrivial = cls.nontrivial()
        assert [s.generator for s in nontrivial] == ["D0"]
        assert nontrivial[0].ideal == ("z1",)
        trivial = [s for s in cls.summands if s.trivial]
        assert len(trivial) == m
        assert all(s.ideal == ("x1*y1*z1",) for s in trivial)

    def test_pants_cokernel(self):
        obj = mf.transform_object(mf.pants_strip_model(), "L", "S")
        cls = mf.cokernel_dsing(obj)
        assert [(s.generator, s.ideal, s.trivial) for s in cls.summands] == [
            ("B", ("z",), False)
        ]

    def test_nonadjacent_chart_is_trivial(self):
        obj = mf.transform_object(mf.nonadjacent_strip_model(), "L", "S")
        cls = mf.cokernel_dsing(obj)
        assert cls.summands and all(s.trivial for s in cls.summands)
        assert not cls.nontrivial()

    def test_stable_under_generator_permutation(self):
        obj = mf.transform_object(mf.winding_strip_model(2), "L", "S1")
        base = mf.cokernel_dsing(obj).ideal_multiset()
        rng = random.Random(5)
        for _ in range(5):
            order = list(obj.generators)
            rng.shuffle(order)
            shuffled = mf.MatrixFactorization(
                obj.name, obj.variables, tuple(order), dict(obj.parity),
                {g: dict(obj.delta.get(g, {})) for g in order},
                obj.potential, dict(obj.constraints))
            assert mf.cokernel_dsing(shuffled).ideal_multiset() == base

    def test_unsupported_shape_errors(self):
        bad = mf.MatrixFactorization(
            "bad", ("x", "y", "z"), ("A", "B"), {"A": 1, "B": 0},
            {"A": {"B": SymPoly.var("x") + SymPoly.var("y")},
             "B": {"A": SymPoly.zero()}},
            SymPoly.zero())
        with pytest.raises(ValueError):
            mf.cokernel_dsing(bad)


class TestSectionTrace:
    def test_single_edge_coefficient(self):
        obj = mf.transform_object(mf.winding_strip_model(1), "L", "S1")
        assert mf.section_vanishing_order(obj, 1, 0) == 1

    @given(m=st.integers(min_value=0, max_value=4), a2=st.integers(min_value=-3, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_trace_matches_winding_count(self, m, a2):
        obj = mf.transform_object(mf.winding_strip_model(m), "L", "S1")
        assert mf.section_vanishing_order(obj, m, a2) == a2 + m


class TestGlueObjects:
    def test_conifold_edge(self):
        curve = conifold_curve(2)  # a2 = 0 on the finite edge
        assert curve.a2("e") == 0
        face = face_with_edge(curve, "e")
        bundle = mf.glue_objects(curve, face, {"e": 1})
        assert bundle.coefficients == {"e": 1}
        assert not bundle.is_structure_sheaf

    def test_face_without_finite_edges_is_structure_sheaf(self):
        curve = load_curve("pair_of_pants")
        face = next(iter(curve.faces()))
        bundle = mf.glue_objects(curve, face, {})
        assert bundle.coefficients == {}
        assert bundle.is_structure_sheaf

    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_kp2_polytope_bundle(self, k):
        curve = load_curve("kp2")
        face = next(iter(curve.bounded_faces()))
        windings = {e: 3 * k - curve.a2(e) for e in ("e01", "e02", "e12")}
        bundle = mf.glue_objects(curve, face, windings)
        assert bundle.coefficients == {e: 3 * k for e in ("e01", "e02", "e12")}

    def test_mode_independence(self):
        curve = load_curve("kp2")
        face = next(iter(curve.bounded_faces()))
        windings = {"e01": 2, "e02": 0, "e12": 1}
        immersed = mf.glue_objects(curve, face, windings, exact=False)
        exact = mf.glue_objects(curve, face, windings, exact=True)
        assert immersed.coefficients == exact.coefficients

    def test_chart_mismatch_detected(self):
        curve = conifold_curve(2)
        face = face_with_edge(curve, "e")
        with pytest.raises(ValueError):
            mf.glue_objects(curve, face, {"e": 2}, models={"e": mf.winding_strip_model(1)})


class TestTransformMorphism:
    def test_endomorphism_table(self):
        model = mf.infinite_edge_model(3)
        obj = mf.transform_object(model, "L", "S")
        images = {
            "P0": "1", "P1": "x", "P2": "x^2", "P3": "x^3",
            "P-1": "y", "P-2": "y^2", "P-3": "y^3",
        }
        for name, image in images.items():
            phi = mf.transform_morphism(model, name, obj, obj)
            assert as_str(phi.entries) == {"A": {"A": image}, "B": {"B": image}}
            assert (phi.src, phi.tgt, phi.degree) == (obj.name, obj.name, 0)

    def test_same_face_table(self):
        model = mf.same_face_hom_model(3)
        src = mf.transform_object(model, "Lp", "S")
        tgt = mf.transform_object(model, "L", "S")
        for i in (1, 2, 3):
            phi = mf.transform_morphism(model, f"H{i}", src, tgt)
            image = "1" if i == 1 else f"x^{i-1}" if i > 2 else "x"
            assert as_str(phi.entries) == {"Ap": {"A": image}, "Bp": {"B": image}}

    def test_different_face_table(self):
        model = mf.different_face_hom_model(3)
        src = mf.transform_object(model, "Lp", "S")
        tgt = mf.transform_object(model, "L", "S")
        for i in (1, 2, 3):
            phi = mf.transform_morphism(model, f"H{i}", src, tgt)
            entries = phi.entries
            assert entries["Ap"]["A"] == SymPoly.var("x", i)
            assert entries["Bp"]["B"] == SymPoly.var("x", i - 1)

    def test_infinite_edge_q0(self):
        model = mf.infinite_edge_q_model()
        src = mf.transform_object(model, "L", "S")
        tgt = mf.transform_object(model, "Lp", "S")
        phi = mf.transform_morphism(model, "Q0", src, tgt)
        assert phi.entries["A"]["Bp"] in (SymPoly.scalar(1), SymPoly.scalar(-1))
        assert phi.entries["B"]["Ap"] in (SymPoly.var("x"), -SymPoly.var("x"))

    def test_closed_generators_are_chain_maps(self):
        model = mf.infinite_edge_model(2)
        obj = mf.transform_object(model, "L", "S")
        for i in range(-4, 5):
            assert is_chain_map(mf.transform_morphism(model, f"P{i}", obj, obj), obj, obj)
        sf = mf.same_face_hom_model(3)
        src, tgt = (mf.transform_object(sf, o, "S") for o in ("Lp", "L"))
        for i in (1, 2, 3):
            assert is_chain_map(mf.transform_morphism(sf, f"H{i}", src, tgt), src, tgt)
        df = mf.different_face_hom_model(3)
        src, tgt = (mf.transform_object(df, o, "S") for o in ("Lp", "L"))
        for i in (1, 2, 3):
            assert is_chain_map(mf.transform_morphism(df, f"H{i}", src, tgt), src, tgt)
        q = mf.infinite_edge_q_model()
        src, tgt = (mf.transform_object(q, o, "S") for o in ("L", "Lp"))
        assert is_chain_map(mf.transform_morphism(q, "Q0", src, tgt), src, tgt)

    def test_broken_strip_is_not_chain_map(self):
        model = mf.infinite_edge_model(2)
        obj = mf.transform_object(model, "L", "S")
        phi = mf.transform_morphism(model, "P1", obj, obj)
        phi.entries["A"]["A"] = SymPoly.var("y")
        assert not is_chain_map(phi, obj, obj)


class TestComposition:
    def test_all_low_compositions(self):
        model = mf.infinite_edge_model(3)
        for i in range(-3, 4):
            for j in range(-3, 4):
                assert mf.composition_check(model, i, j), (i, j)

    def test_pure_power_composition_is_exact(self):
        model = mf.infinite_edge_model(3)
        obj = mf.transform_object(model, "L", "S")
        piece = mf_dg_piece([obj])
        phi1 = mf.transform_morphism(model, "P1", obj, obj)
        phi2 = piece.compose(phi1, phi1)
        target = mf.transform_morphism(model, "P2", obj, obj)
        assert phi2.degree == target.degree
        assert as_str(phi2.entries) == as_str(target.entries)

    def test_mixed_composition_is_not_a_pure_power(self):
        model = mf.infinite_edge_model(3)
        obj = mf.transform_object(model, "L", "S")
        lhs = mf_dg_piece([obj]).compose(mf.transform_morphism(model, "P1", obj, obj),
                                         mf.transform_morphism(model, "P-1", obj, obj))
        assert lhs.entries["A"]["A"] == SymPoly.term(1, None, {"x": 1, "y": 1})
