"""Tests for tropical curves, dual fans, chart transitions, and coverings."""

import json
from fractions import Fraction
from importlib import resources
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmirror import tropical as tr
from tropmirror.lpoly import LaurentPoly, MonomialMap
from tropmirror.novikov import T

CURVES = ["pair_of_pants", "conifold", "kp2", "toriccyeg"]
ORIGIN = (Fraction(0), Fraction(0))


def pants_doc(**edits):
    doc = {
        "name": "test",
        "vertices": {"v": {"position": [0, 0], "edges": ["x", "y", "z"]}},
        "edges": {
            "x": {"ends": ["v"], "direction": [1, 0]},
            "y": {"ends": ["v"], "direction": [0, 1]},
            "z": {"ends": ["v"], "direction": [-1, -1]},
        },
    }
    for eid, d in edits.items():
        doc["edges"][eid]["direction"] = d
    return doc


def brute_force_place(curve, interval, charts, base, letter, prev_chart, shared):
    """Every shift of ``_shifts()`` in turn, each candidate checked for the
    shared-stratum overlap and then against every chart triple on every edge."""
    prev_iv = interval(prev_chart, shared)
    for h in tr._shifts():
        cand = base.deformed(letter, h)
        new_iv = interval(cand, shared)
        if new_iv is None or prev_iv is None:
            continue
        if max(new_iv[0], prev_iv[0]) >= min(new_iv[1], prev_iv[1]):
            continue
        trial = charts + [cand]
        if not any(triple_violations(trial, [interval(c, eid) for c in trial])
                   for eid in curve.edges):
            return cand
    return None


def triple_violations(charts, ivs):
    """Chart triples with a common point on a stratum, given their intervals,
    found by trying every triple: the reference for ``_OverlapTable.triples``."""
    items = [(c, iv) for c, iv in zip(charts, ivs) if iv is not None]
    bad = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            for k in range(j + 1, len(items)):
                lo = max(items[i][1][0], items[j][1][0], items[k][1][0])
                hi = min(items[i][1][1], items[j][1][1], items[k][1][1])
                if lo <= hi:
                    bad.append((items[i][0], items[j][0], items[k][0]))
    return bad


def certificate(curve, charts, interval):
    """The covering certificate of ``charts`` computed from scratch: the
    reference for ``_OverlapTable.certificate``."""
    strata = []
    ok = True
    for eid in sorted(curve.edges):
        ivs = [interval(c, eid) for c in charts]
        covered = tr._covers(ivs, tr.required_interval(curve, eid))
        triples = triple_violations(charts, ivs)
        ok = ok and covered and not triples
        strata.append({
            "edge": eid,
            "covered": covered,
            "intervals": [
                {"chart": c.label, "lo": tr._fmt_end(iv[0]), "hi": tr._fmt_end(iv[1])}
                for c, iv in zip(charts, ivs) if iv is not None
            ],
            "triple_overlaps": [[c.label for c in t] for t in triples],
        })
    return {"ok": ok, "strata": strata}


def pair_overlaps(curve, rows, interval, charts, vertex):
    """The charts' nonempty pairwise intersections on each edge stratum that
    ``vertex`` meets, or None when three charts already share a point, all
    computed from scratch: the reference for ``_OverlapTable``.

    A triple shares a point exactly when its last chart meets the
    intersection of the other two, so one pass in list order finds them all.
    """
    overlaps = {}
    for eid in curve.edges:
        ivs, pairs = [], []
        for chart in charts:
            iv = interval(chart, eid)
            if iv is None:
                continue
            if tr._meets(pairs, iv):
                return None
            pairs += [(max(lo, iv[0]), min(hi, iv[1])) for lo, hi in ivs
                      if max(lo, iv[0]) <= min(hi, iv[1])]
            ivs.append(iv)
        if pairs and rows[(vertex, eid)] is not None:
            overlaps[eid] = pairs
    return overlaps


def stratum_intervals(curve):
    """(chart, edge) -> stratum interval, straight from ``stratum_interval``."""
    rows = tr._stratum_rows(curve, tr.atlas(curve))
    return lambda chart, eid: tr.stratum_interval(chart, rows[(chart.vertex, eid)])


def overlap_table(curve, charts):
    """An ``_OverlapTable`` with ``charts`` added in turn."""
    table = tr._OverlapTable(curve, tr._stratum_rows(curve, tr.atlas(curve)))
    for chart in charts:
        table.add(chart)
    return table


def assert_table_matches_from_scratch(curve, charts):
    """After each chart is added, the ``_OverlapTable`` agrees with
    ``pair_overlaps``, with the triples of ``triple_violations`` and with
    the from-scratch ``certificate``."""
    rows = tr._stratum_rows(curve, tr.atlas(curve))
    table = tr._OverlapTable(curve, rows)
    interval = stratum_intervals(curve)
    for k, chart in enumerate(charts, 1):
        table.add(chart)
        placed = charts[:k]
        assert table.charts == placed
        for vertex in curve.vertices:
            assert table.at[vertex] == [c for c in placed if c.vertex == vertex]
        for eid in curve.edges:
            ivs = [interval(c, eid) for c in placed]
            assert table.intervals[eid] == [(n, iv) for n, iv in enumerate(ivs) if iv is not None]
            triples = triple_violations(placed, ivs)
            assert (eid in table.triples) == bool(triples)
            assert [tuple(placed[n] for n in t)
                    for t in sorted(table.triples.get(eid, ()))] == triples
        for vertex in curve.vertices:
            reference = pair_overlaps(curve, rows, interval, placed, vertex)
            if reference is None:
                assert table.triples
            else:
                assert not table.triples
                assert table.overlaps(vertex) == reference
        assert table.certificate() == certificate(curve, placed, interval)


def deformed_chart(vertex, *deformations):
    """``Chart(vertex)`` deformed by each (letter, shift) in turn."""
    chart = tr.Chart(vertex)
    for letter, shift in deformations:
        chart = chart.deformed(letter, shift)
    return chart


def covering(curve):
    return tr.covering_collection(curve, tr.atlas(curve))


def assert_same_search(curve):
    """The search agrees with one whose placements run ``brute_force_place``
    on the charts placed so far."""
    charts, cert = covering(curve)
    with mock.patch.object(tr, "_place", lambda placed, *rest:
                           brute_force_place(curve, placed.interval, placed.charts, *rest)):
        ref_charts, ref_cert = covering(curve)
    assert [c.label for c in charts] == [c.label for c in ref_charts]
    assert cert == ref_cert


def rescaled_curve(name, r):
    """A shipped curve with every vertex position multiplied by r > 0."""
    doc = json.loads(resources.files("tropmirror.curves").joinpath(f"{name}.json").read_text())
    for vertex in doc["vertices"].values():
        vertex["position"] = [str(Fraction(c) * r) for c in vertex["position"]]
    return tr.load_curve(doc)


# positive rescalings p/q of a curve, q <= 8, p/q <= 4
SCALES = st.integers(1, 8).flatmap(lambda q: st.integers(1, 4 * q).map(lambda p: Fraction(p, q)))


def conifold_document(k):
    curve = tr.conifold_curve(k)
    return {
        "name": curve.name,
        "vertices": {v.id: {"position": [str(p) for p in v.position], "edges": list(v.edges)}
                     for v in curve.vertices.values()},
        "edges": {e.id: {"ends": list(e.ends), "direction": list(e.direction),
                         **({"a1": e.a1} if e.finite else {})}
                  for e in curve.edges.values()},
        "anchor": curve.anchor,
    }


class TestValidation:
    @pytest.mark.parametrize("name", CURVES)
    def test_shipped_curves_load(self, name):
        curve = tr.load_curve(name)
        assert curve.name == name

    def test_unbalanced_vertex_rejected(self):
        with pytest.raises(tr.CurveValidationError) as exc:
            tr.load_curve(pants_doc(x=[2, 1]))
        assert any("unbalanced" in e for e in exc.value.errors)

    def test_non_primitive_direction_rejected(self):
        doc = pants_doc(x=[2, 0], y=[0, 2])
        doc["edges"]["z"]["direction"] = [-2, -2]
        with pytest.raises(tr.CurveValidationError) as exc:
            tr.load_curve(doc)
        assert sum("not primitive" in e for e in exc.value.errors) == 3

    def test_positivity_failure_rejected(self):
        doc = pants_doc()
        doc["vertices"]["v"]["position"] = [-1, -1]
        with pytest.raises(tr.CurveValidationError) as exc:
            tr.load_curve(doc)
        assert any("positivity" in e for e in exc.value.errors)

    def test_missing_a1_rejected(self):
        doc = {
            "name": "test",
            "vertices": {
                "v1": {"position": [0, 0], "edges": ["e", "y1", "z1"]},
                "v2": {"position": [0, 1], "edges": ["e", "y2", "z2"]},
            },
            "edges": {
                "e": {"ends": ["v1", "v2"], "direction": [0, 1]},
                "y1": {"ends": ["v1"], "direction": [-1, -1]},
                "z1": {"ends": ["v1"], "direction": [1, 0]},
                "y2": {"ends": ["v2"], "direction": [1, 1]},
                "z2": {"ends": ["v2"], "direction": [-1, 0]},
            },
        }
        with pytest.raises(tr.CurveValidationError) as exc:
            tr.load_curve(doc)
        assert any("missing a1" in e for e in exc.value.errors)

    def test_rational_displacement_is_printed_with_str(self):
        doc = json.loads(resources.files("tropmirror.curves").joinpath(
            "conifold.json").read_text())
        doc["vertices"]["v1"]["position"] = ["1/2", 1]
        doc["vertices"]["v2"]["position"] = [0, 0]
        with pytest.raises(tr.CurveValidationError) as exc:
            tr.load_curve(doc)
        assert exc.value.errors[0] == (
            "edge e: displacement (-1/2, -1) is not a positive multiple of "
            "direction (0, 1)")


class TestDualFan:
    def test_pair_of_pants_is_c3(self):
        fan = tr.dual_fan(tr.load_curve("pair_of_pants"))
        assert len(fan.cones) == 1
        assert len(fan.rays) == 3

    def test_conifold_is_resolved(self):
        fan = tr.dual_fan(tr.load_curve("conifold"))
        pts = {(r[0], r[1]) for r in fan.rays}
        assert pts == {(0, 0), (0, -1), (-1, 0), (-1, 1)}  # unit parallelogram
        assert len(fan.cones) == 2

    def test_kp2_rays(self):
        fan = tr.dual_fan(tr.load_curve("kp2"))
        assert set(fan.rays) == {(0, 0, 1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)}

    def test_toriccyeg_shape(self):
        curve = tr.load_curve("toriccyeg")
        fan = tr.dual_fan(curve)
        assert len(fan.rays) == 5
        assert len(fan.cones) == 5
        assert len(curve.bounded_faces()) == 2

    @pytest.mark.parametrize("name", CURVES)
    def test_calabi_yau_heights(self, name):
        fan = tr.dual_fan(tr.load_curve(name))
        assert all(r[2] == 1 for r in fan.rays)
        for cone in fan.cones.values():
            assert len(cone) == 3


class TestExactOffsets:
    def test_origin_vertex(self):
        curve = tr.load_curve("kp2")
        for eid in curve.vertices["v0"].edges:
            assert curve.exact_offset("v0", eid) == 0

    def test_displaced_vertex(self):
        curve = tr.load_curve("kp2")
        # e01 points (0,-1) at v1=(0,3); the outgoing leg w1=(-1,2) pays -6
        assert curve.exact_offset("v1", "e01") == 3
        assert curve.exact_offset("v1", "w1") == -6

    def test_offsets_sum_to_zero(self):
        curve = tr.load_curve("toriccyeg")
        for vid, v in curve.vertices.items():
            assert sum(curve.exact_offset(vid, e) for e in v.edges) == 0


class TestTransitions:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_conifold_family_gluing(self, k):
        curve = tr.conifold_curve(k)
        mm = tr.atlas(curve).maps[("e", "v1")]
        tgt = curve.chart_vars("v2")
        assert mm.image_of("v1.x") == LaurentPoly.monomial(tgt, [-1, 0, 0])
        assert mm.image_of("v1.y") == LaurentPoly.monomial(tgt, [k, 0, 1])
        assert mm.image_of("v1.z") == LaurentPoly.monomial(tgt, [2 - k, 1, 0])

    def test_conifold_a2_minus_a1(self):
        for k in range(4):
            curve = tr.conifold_curve(k)
            assert curve.a2("e") - curve.edges["e"].a1 == k - 2

    def test_infinite_edge_rejected(self):
        curve = tr.load_curve("kp2")
        with pytest.raises(ValueError):
            tr.transition_map(curve, "w0", exact=True)

    @pytest.mark.parametrize("name", CURVES)
    @pytest.mark.parametrize("exact", [True, False])
    def test_roundtrip_identity(self, name, exact):
        # the atlas's two orientations of each edge are mutually inverse; the
        # immersed transition inverts through the exact reverse between the
        # offset rescalings that absorb its area factors
        curve = tr.load_curve(name)
        atlas = tr.atlas(curve)
        for eid, e in curve.edges.items():
            if not e.finite:
                continue
            fwd = tr.transition_map(curve, eid, exact=exact)
            rev = atlas.maps[(eid, e.ends[0])]
            if exact:
                assert fwd == atlas.maps[(eid, e.ends[1])]
            else:
                rev = tr.offset_rescaling(curve, e.ends[0], sign=-1).compose(rev).compose(
                    tr.offset_rescaling(curve, e.ends[1], sign=1))
            assert fwd.compose(rev).is_identity()
            assert rev.compose(fwd).is_identity()

    @pytest.mark.parametrize("name", ["conifold", "kp2", "toriccyeg"])
    def test_offsets_absorb_area_factors(self, name):
        curve = tr.load_curve(name)
        atlas = tr.atlas(curve)
        for eid, e in curve.edges.items():
            if e.finite:
                assert tr.absorbs_offsets(curve, eid, atlas)

    def test_half_split_needs_explicit_rescaling(self):
        # splitting the edge area evenly, A_y = A_z = A/2, instead of
        # geometrically leaves factors that the exact offsets do not absorb
        curve = tr.load_curve("kp2")
        e = curve.edges["e01"]
        A, Ay = tr._split_area(curve, "e01")
        pairs = curve.pairing("e01")
        half_area = Fraction(A, 2)
        shift = {curve.var(e.ends[1], pairs["y"][1]): half_area - Ay,
                 curve.var(e.ends[1], pairs["z"][1]): Ay - half_area}
        imm = tr.transition_map(curve, "e01", exact=False)
        half = MonomialMap(imm.source, imm.target, tuple(
            unit * T(shift.get(v, 0)) for v, unit in zip(imm.source, imm.units)), imm.rows)
        rescaled = tr.offset_rescaling(curve, e.ends[1], sign=1).compose(half).compose(
            tr.offset_rescaling(curve, e.ends[0], sign=-1))
        exact = tr.transition_map(curve, "e01", exact=True)
        assert Ay != half_area and tr.absorbs_offsets(curve, "e01", tr.atlas(curve))
        assert any(rescaled.image_of(v) != exact.image_of(v) for v in rescaled.source)

    def test_immersed_factors(self):
        curve = tr.load_curve("kp2")
        mm = tr.transition_map(curve, "e01", exact=False)
        exps, unit = mm.image_of("v1.x").single_term()
        assert unit == T(-3) and exps == (-1, 0, 0)


def gauss_jordan_inverse(M):
    """Reference inverse over the rationals, by Gauss-Jordan elimination."""
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(M)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                aug[r] = [a - aug[r][col] * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@st.composite
def unimodular(draw):
    """Identity matrix under drawn row additions, swaps and sign flips."""
    M = [[int(i == j) for j in range(3)] for i in range(3)]
    for op, i, j, k in draw(st.lists(st.tuples(
            st.sampled_from("add swap flip".split()), st.integers(0, 2),
            st.integers(0, 2), st.integers(-3, 3)), max_size=8)):
        if op == "add" and i != j:
            M[i] = [a + k * b for a, b in zip(M[i], M[j])]
        elif op == "swap":
            M[i], M[j] = M[j], M[i]
        elif op == "flip":
            M[i] = [-a for a in M[i]]
    return M


class TestIntegerInverse:
    @given(unimodular())
    @settings(max_examples=200)
    def test_matches_gauss_jordan(self, M):
        inverse = tr._unimodular_inverse(M)
        assert inverse == gauss_jordan_inverse(M)
        assert all(type(x) is int for row in inverse for x in row)

    @pytest.mark.parametrize("rows", [
        ((1, 0, 0), (0, 1, 0), (1, 1, 0)),  # det 0
        ((2, 0, 0), (0, 1, 0), (0, 0, 1)),  # det 2
        ((1, 1, 0), (1, -1, 0), (0, 0, 1)),  # det -2
    ])
    def test_non_unimodular_map_rejected(self, rows):
        # the inverse the atlas takes of each exact map and chart matrix
        with pytest.raises(ValueError, match="not invertible over the integers"):
            tr._unimodular_inverse(rows)


class TestMatMul:
    @given(st.lists(st.lists(st.integers(-10**30, 10**30), min_size=3, max_size=3),
                    min_size=6, max_size=6))
    def test_matches_the_loop(self, entries):
        A, B = entries[:3], tuple(map(tuple, entries[3:]))
        expected = [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
                    for i in range(3)]
        assert tr._mat_mul(A, B) == expected


class TestCocycle:
    def test_trees_trivially_pass(self):
        for name in ("pair_of_pants", "conifold"):
            curve = tr.load_curve(name)
            report = tr.cocycle_check(curve, tr.atlas(curve))
            assert report["ok"] and report["cycles"] == []

    @pytest.mark.parametrize("name", ["kp2", "toriccyeg"])
    def test_shipped_curves_pass(self, name):
        # the cycles follow the breadth-first tree from the first vertex
        cycles = {"kp2": [["e01", "e02", "e12"]],
                  "toriccyeg": [["e12", "e13", "e23"], ["e24", "e12", "e13", "e35", "e45"]]}
        curve = tr.load_curve(name)
        report = tr.cocycle_check(curve, tr.atlas(curve))
        assert report["ok"]
        assert [c["edges"] for c in report["cycles"]] == cycles[name]

    def test_perturbed_a1_fails(self):
        curve = tr.load_curve("kp2", a1_overrides={"e01": 1})
        report = tr.cocycle_check(curve, tr.atlas(curve))
        assert not report["ok"]
        cyc = report["cycles"][0]
        assert "v1.x^-1*v1.y" in cyc["residual"]
        assert "v1.x*v1.z" in cyc["residual"]


class TestPotential:
    def test_single_chart(self):
        curve = tr.load_curve("pair_of_pants")
        w = tr.potential(curve, "v")
        assert w == LaurentPoly.monomial(curve.chart_vars("v"), (1, 1, 1))

    def test_conifold_pair(self):
        curve = tr.load_curve("conifold")
        mm = tr.atlas(curve).maps[("e", "v2")]
        assert mm.substitute(tr.potential(curve, "v2")) == tr.potential(curve, "v1")

    @pytest.mark.parametrize("name", CURVES)
    @pytest.mark.parametrize("mode", [("exact", 0), ("immersed", 0), ("immersed", 1)])
    def test_global_check(self, name, mode):
        # W glues in either mode and for every a1 gauge, although shifting
        # the gauge breaks the cocycle (test_perturbed_a1_fails)
        exact, shift = mode[0] == "exact", mode[1]
        curve = tr.load_curve(name)
        curve = tr.load_curve(name, a1_overrides={
            eid: e.a1 + shift for eid, e in curve.edges.items() if e.finite})
        report = tr.global_potential_check(curve, tr.atlas(curve), exact=exact)
        assert report["ok"]


class TestCovering:
    def test_pair_of_pants_single_chart(self):
        charts, cert = covering(tr.load_curve("pair_of_pants"))
        assert [c.label for c in charts] == ["S(v)"]
        assert cert["ok"]

    def test_conifold_finite_edge_gets_stretched_chart(self):
        # no bounded face borders the conifold's finite edge
        charts, cert = covering(tr.load_curve("conifold"))
        assert [c.label for c in charts] == ["S(v1)", "S(v2)", "S(v1)~x[3/2]"]
        assert cert["ok"]

    def test_kp2_collection(self):
        curve = tr.load_curve("kp2")
        charts, cert = covering(curve)
        assert cert["ok"]
        assert [c.label for c in charts] == [
            "S(v0)", "S(v1)", "S(v2)", "S(v1)~x[13/4]", "S(v2)~y[25/4]", "S(v0)~y[13/4]"]
        plain = [c for c in charts if not c.deformations]
        tilde = [c for c in charts if c.deformations]
        assert {c.vertex for c in plain} == {"v0", "v1", "v2"}
        assert {c.vertex for c in tilde} == {"v0", "v1", "v2"}
        # the v1 chart deforms along the edge toward v0 past the edge length
        (letter, shift), = next(
            c for c in tilde if c.vertex == "v1").deformations
        assert letter == "x"
        assert shift == Fraction(13, 4) > curve.affine_length("e01")

    def test_kp2_undeformed_charts_do_not_cover(self):
        curve = tr.load_curve("kp2")
        charts = [tr.Chart(v) for v in curve.vertices]
        cert = tr.covering_certificate(curve, charts, tr.atlas(curve))
        assert not cert["ok"]
        gaps = [s["edge"] for s in cert["strata"] if not s["covered"]]
        assert set(gaps) == {"e01", "e02", "e12"}

    def test_triple_overlap_detected(self):
        curve = tr.load_curve("kp2")
        charts = [tr.Chart("v0"), tr.Chart("v0"), tr.Chart("v0")]
        cert = tr.covering_certificate(curve, charts, tr.atlas(curve))
        assert not cert["ok"]
        assert any(s["triple_overlaps"] for s in cert["strata"])

    @pytest.mark.parametrize("specs", [
        # S(v1) and S(v2)~y[6] touch at 3 on e12
        [("v0",), ("v1",), ("v2",), ("v2", ("y", 6))],
        # a placed triple
        [("v0",), ("v0",), ("v0",), ("v1",), ("v2",)],
        # the S(v2) pair of test_candidate_meeting_a_placed_pair_is_rejected,
        # then a chart touching the S(v1) pair
        [("v0",), ("v1",), ("v2",), ("v1", ("x", Fraction(13, 4))), ("v2",),
         ("v2", ("y", Fraction(37, 4)))],
    ])
    def test_overlap_table_on_kp2_placements(self, specs):
        charts = [deformed_chart(*spec) for spec in specs]
        assert_table_matches_from_scratch(tr.load_curve("kp2"), charts)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), curve_case=st.one_of(
        st.just(("kp2", 1)), st.tuples(st.just("toriccyeg"), SCALES)))
    def test_overlap_table_on_random_placements(self, data, curve_case):
        curve = rescaled_curve(*curve_case)
        deformation = st.tuples(st.sampled_from(tr.LETTERS),
                                st.integers(0, 40).map(lambda n: Fraction(n, 4)))
        chart = st.builds(lambda vertex, deformations: deformed_chart(vertex, *deformations),
                          st.sampled_from(sorted(curve.vertices)),
                          st.lists(deformation, max_size=2))
        charts = data.draw(st.lists(chart, max_size=8))
        assert_table_matches_from_scratch(curve, charts)
        assert (tr.covering_certificate(curve, charts, tr.atlas(curve))
                == certificate(curve, charts, stratum_intervals(curve)))

    def test_four_charts_sharing_a_point_list_every_triple(self):
        # on e12, S(v1)~y[3] = [0, inf), S(v2)~y[6] = (-inf, 3],
        # S(v1)~y[2] = [1, inf) and S(v2)~y[5] = (-inf, 2] all hold [1, 2];
        # no other edge holds three of them
        curve = tr.load_curve("kp2")
        charts = [deformed_chart("v1", ("y", 3)), deformed_chart("v2", ("y", 6)),
                  deformed_chart("v1", ("y", 2)), deformed_chart("v2", ("y", 5))]
        a, b, c, d = (chart.label for chart in charts)
        cert = tr.covering_certificate(curve, charts, tr.atlas(curve))
        assert not cert["ok"]
        triples = {s["edge"]: s["triple_overlaps"] for s in cert["strata"]}
        assert triples.pop("e12") == [[a, b, c], [a, b, d], [a, c, d], [b, c, d]]
        assert not any(triples.values())
        assert_table_matches_from_scratch(curve, charts)

    @pytest.mark.parametrize("name", ["conifold", "kp2"])
    def test_collection_reads_one_certificate(self, name, monkeypatch):
        # the conifold needs a stretched chart, kp2 does not: either way the
        # certificate is read from the table once
        calls = []
        read = tr._OverlapTable.certificate
        monkeypatch.setattr(tr._OverlapTable, "certificate",
                            lambda table: calls.append(len(table.charts)) or read(table))
        charts, cert = covering(tr.load_curve(name))
        assert cert["ok"]
        assert calls == [len(charts)]

    def test_toriccyeg_collection(self):
        curve = tr.load_curve("toriccyeg")
        charts, cert = covering(curve)
        assert cert["ok"]
        assert [c.label for c in charts] == [
            "S(t5)", "S(t1)", "S(t4)", "S(t4)~y[17/4]", "S(t2)~z[21/4]", "S(t3)~y[19/3]",
            "S(t5)~x[17/2]", "S(t3)~y[19/3]~x[15/2]", "S(t1)~x[22/3]"]
        for c in charts:
            for _, shift in c.deformations:
                assert shift.denominator <= 4

    @pytest.mark.parametrize("name", CURVES)
    def test_search_stores_nothing_on_the_curve(self, name):
        curve = tr.load_curve(name)
        before = set(vars(curve))
        charts, _ = covering(curve)
        tr.covering_certificate(curve, charts, tr.atlas(curve))
        assert set(vars(curve)) == before

    @pytest.mark.parametrize("name", CURVES)
    def test_search_matches_brute_force_on_shipped_curves(self, name):
        assert_same_search(tr.load_curve(name))

    @settings(deadline=None)
    @given(name=st.sampled_from(["kp2", "toriccyeg"]), r=SCALES)
    def test_search_matches_brute_force_on_rescaled_curves(self, name, r):
        assert_same_search(rescaled_curve(name, r))

    @settings(deadline=None)
    @given(k=st.integers(-30, 30), gauge=st.integers(-3, 3))
    def test_search_matches_brute_force_on_conifolds(self, k, gauge):
        assert_same_search(tr.load_curve(conifold_document(k), a1_overrides={"e": gauge}))

    @pytest.mark.parametrize("name", ["kp2", "toriccyeg"])
    def test_shifts_outside_the_range_fail_the_overlap(self, name, monkeypatch):
        placements = []
        shift_range = tr._shift_range

        def record(rows, base, letter, prev_iv):
            bounds = shift_range(rows, base, letter, prev_iv)
            placements.append((rows, base, letter, prev_iv, bounds))
            return bounds

        monkeypatch.setattr(tr, "_shift_range", record)
        covering(tr.load_curve(name))
        assert placements
        outside = 0
        for rows, base, letter, prev_iv, (lo, hi) in placements:
            for h in tr._shifts():
                if lo <= h <= hi:
                    continue
                outside += 1
                iv = tr.stratum_interval(base.deformed(letter, h), rows)
                assert iv is None or max(iv[0], prev_iv[0]) >= min(iv[1], prev_iv[1]), \
                    (base.label, letter, h)
        assert outside

    @settings(deadline=None)
    @given(table=st.dictionaries(st.sampled_from(tr.LETTERS), st.tuples(
               st.integers(-2, 2), st.fractions(-6, 6, max_denominator=4))),
           deformations=st.lists(st.tuples(st.sampled_from(tr.LETTERS),
                                           st.fractions(0, 4, max_denominator=4)), max_size=2),
           letter=st.sampled_from(tr.LETTERS),
           prev=st.one_of(st.none(), st.tuples(
               st.one_of(st.just(tr.NEG_INF), st.fractions(-6, 6, max_denominator=4)),
               st.one_of(st.just(tr.POS_INF), st.fractions(-6, 6, max_denominator=4)))))
    def test_shift_range_is_exact(self, table, deformations, letter, prev):
        # synthetic stratum rows: every shift that overlaps lies in [L, U],
        # and every shift strictly inside overlaps
        rows = [(l, m, offset) for l, (m, offset) in sorted(table.items())]
        base = tr.Chart("v", tuple(deformations))
        lo, hi = tr._shift_range(rows, base, letter, prev)
        probes = {Fraction(k, 8) for k in range(-120, 121)}
        for end in (lo, hi):
            if end not in (tr.NEG_INF, tr.POS_INF):
                probes |= {end, end - Fraction(1, 64), end + Fraction(1, 64)}
        if lo < hi and tr.NEG_INF < lo and hi < tr.POS_INF:
            probes.add(Fraction(lo + hi, 2))
        for h in probes:
            iv = tr.stratum_interval(base.deformed(letter, h), rows)
            overlaps = (iv is not None and prev is not None
                        and max(iv[0], prev[0]) < min(iv[1], prev[1]))
            assert not overlaps or lo <= h <= hi, h
            assert overlaps or not lo < h < hi, h

    def test_candidate_meeting_a_placed_pair_is_rejected(self):
        curve = tr.load_curve("kp2")
        v0, v1, v2 = (tr.Chart(v) for v in ("v0", "v1", "v2"))
        # S(v2) placed twice: the pair shares (3, inf) on e02, and no third
        # placed chart meets it there
        placed = [v0, v1, v2, v1.deformed("x", Fraction(13, 4)), v2]
        table = overlap_table(curve, placed)
        interval = table.interval
        overlaps = table.overlaps("v2")
        assert not table.triples and (3, tr.POS_INF) in overlaps["e02"]
        cand = v2.deformed("y", Fraction(25, 4))
        prev_iv = interval(v1, "e12")
        # the candidate passes the shared-stratum overlap on e12 ...
        assert tr._admissible(interval, cand, prev_iv, "e12", {})
        # ... but meets the S(v2) pair on e02
        assert not tr._admissible(interval, cand, prev_iv, "e12", {"e02": overlaps["e02"]})
        assert not tr._admissible(interval, cand, prev_iv, "e12", overlaps)
        # every shift meets it, so the placement fails, as in the full walk
        assert tr._place(table, v2, "y", v1, "e12") is None
        assert brute_force_place(curve, interval, placed, v2, "y", v1, "e12") is None
        # without the second S(v2) the same walk places the kp2 chart
        table = overlap_table(curve, placed[:-1])
        assert (tr._place(table, v2, "y", v1, "e12")
                == brute_force_place(curve, interval, placed[:-1], v2, "y", v1, "e12")
                == cand)
        # a single common point is a triple overlap: on e12 S(v2)~y[37/4]
        # ends at 25/4, where the S(v1) pair's overlap begins
        overlaps = table.overlaps("v2")
        touching = v2.deformed("y", Fraction(37, 4))
        assert interval(touching, "e12") == (tr.NEG_INF, Fraction(25, 4))
        assert not tr._admissible(interval, touching, prev_iv, "e12", overlaps)
        assert tr._admissible(interval, v2.deformed("y", 9), prev_iv, "e12", overlaps)
        # and two placed charts that share one point make a pairwise intersection
        touching_pair = overlap_table(curve, [v0, v1, v2, v2.deformed("y", 6)])
        assert (3, 3) in touching_pair.overlaps("v1")["e12"]

    def test_placed_triple_rejects_every_candidate(self):
        curve = tr.load_curve("kp2")
        v0, v1, v2 = (tr.Chart(v) for v in ("v0", "v1", "v2"))
        placed = [v0, v0, v0, v1, v2]
        table = overlap_table(curve, placed)
        assert table.triples
        assert tr._place(table, v2, "y", v1, "e12") is None
        assert brute_force_place(curve, table.interval, placed, v2, "y", v1, "e12") is None


class TestConeImage:
    def test_undeformed_apexes(self):
        curve = tr.load_curve("kp2")
        atlas = tr.atlas(curve)
        apex = {
            v: tr.cone_image(curve, tr.Chart(v), atlas)["apex"]
            for v in curve.vertices
        }
        assert apex == {"v0": (0, 0), "v1": (-3, 0), "v2": (0, -3)}

    def test_deformation_translates_cone(self):
        curve = tr.load_curve("kp2")
        atlas = tr.atlas(curve)
        h = Fraction(13, 4)
        before = tr.cone_image(curve, tr.Chart("v1"), atlas)
        after = tr.cone_image(curve, tr.Chart("v1").deformed("x", h), atlas)
        assert after["rays"] == before["rays"]
        move = tuple(a - b for a, b in zip(after["apex"], before["apex"]))
        assert move == (h, 2 * h)


class TestDivisors:
    def test_kp2_divisor_coefficients(self):
        curve = tr.load_curve("kp2")
        finite = ["e01", "e02", "e12"]
        assert all(curve.a2(e) == 1 and curve.affine_length(e) == 3 for e in finite)
        for k in (-1, 0, 1, 2):
            windings = {e: 3 * k - 1 for e in finite}
            rows = tr.divisor_data(curve, ORIGIN, windings)
            assert [r["coefficient"] for r in rows] == [3 * k] * 3
            assert tr.line_bundle_degree(curve, ORIGIN, windings) == k

    def test_boundary_directions_are_ccw(self):
        curve = tr.load_curve("kp2")
        rows = tr.divisor_data(curve, ORIGIN, {e: 0 for e in ["e01", "e02", "e12"]})
        dirs = {r["edge"]: r["direction"] for r in rows}
        assert dirs == {"e01": (0, -1), "e02": (1, 0), "e12": (-1, 1)}

    def test_non_uniform_windings_have_no_degree(self):
        curve = tr.load_curve("kp2")
        w = {"e01": 2, "e02": 2, "e12": 5}
        assert tr.line_bundle_degree(curve, ORIGIN, w) is None


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-4, 8), a1=st.integers(-6, 6))
def test_conifold_properties(k, a1):
    curve = tr.conifold_curve(k)
    curve = tr.load_curve(
        {
            "name": "c",
            "vertices": {v.id: {"position": [str(p) for p in v.position],
                                "edges": list(v.edges)}
                         for v in curve.vertices.values()},
            "edges": {
                e.id: ({"ends": list(e.ends), "direction": list(e.direction), "a1": a1}
                       if e.finite else
                       {"ends": list(e.ends), "direction": list(e.direction)})
                for e in curve.edges.values()
            },
        }
    )
    assert curve.a2("e") - a1 == k - 2
    atlas = tr.atlas(curve)
    assert atlas.maps[("e", "v2")].compose(atlas.maps[("e", "v1")]).is_identity()
    assert tr.global_potential_check(curve, atlas, exact=False)["ok"]
    assert tr.absorbs_offsets(curve, "e", atlas)


def is_normal(x) -> bool:
    """A rational in normal form: an ``int``, or a ``Fraction`` that is not
    integral; never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def chart_rationals(curve):
    """(every exact rational the chart pipeline makes on ``curve``, every
    end of the covering charts' stratum intervals)."""
    atlas = tr.atlas(curve)
    charts, _ = tr.covering_collection(curve, atlas)
    finite = [eid for eid, e in sorted(curve.edges.items()) if e.finite]
    values = [c for v in curve.vertices.values() for c in v.position]
    values += [c for point in curve.faces() for c in point]
    values += [curve.exact_offset(vid, eid) for vid, v in curve.vertices.items() for eid in v.edges]
    values += [curve.affine_length(eid) for eid in finite]
    values += list(tr._shifts())
    values += [d for c in charts for d in c.deltas().values()]
    values += [shift for c in charts for _, shift in c.deformations]
    maps = list(atlas.maps.values())
    for eid in finite:
        e = curve.edges[eid]
        imm = tr.transition_map(curve, eid, exact=False)
        maps += [imm, tr.offset_rescaling(curve, e.ends[1], sign=1).compose(imm).compose(
            tr.offset_rescaling(curve, e.ends[0], sign=-1))]
        values += [x for c in imm.substitute(tr.potential(curve, e.ends[1])).terms.values()
                   for term in c.terms for x in term]
    values += [x for m in maps for unit in m.units for term in unit.terms for x in term]
    rows = tr._stratum_rows(curve, atlas)
    ends = [end for c in charts for eid in sorted(curve.edges)
            for iv in [tr.stratum_interval(c, rows[(c.vertex, eid)])] if iv is not None
            for end in iv]
    return values, ends


@settings(max_examples=30, deadline=None)
@given(case=st.one_of(st.integers(-30, 30),
                      st.tuples(st.sampled_from(["kp2", "toriccyeg"]), SCALES)))
def test_chart_rationals_are_in_normal_form(case):
    # conifold_curve(k) for an int case, else a rescaled shipped curve
    curve = tr.conifold_curve(case) if isinstance(case, int) else rescaled_curve(*case)
    values, ends = chart_rationals(curve)
    assert values and ends
    assert [v for v in values if not is_normal(v)] == []
    assert [v for v in ends if not (is_normal(v) or v in (tr.NEG_INF, tr.POS_INF))] == []
