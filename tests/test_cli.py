"""Tests for the command-line interface: reports, determinism, exit codes."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tropmirror import ainf, cli, tropical
from tropmirror.symbolic import SymPoly

# SHA-256 of outputs that must stay byte-identical: a deliberate format
# change re-records these.
GOLDEN_CONIFOLD_STRUCTURED = "fa19dd1fa2786b74d3a26762a2ecfbd80563d4e5c335211cba832267e794959f"
GOLDEN_PANTS_TEXT = "c6e2f0dedaffd242aa7432247e18238ad2e097c8f88a5cff4197071914a94a60"
GOLDEN_TORICCYEG_SVG = "aac3eb3d3add99c5c4bf5e06134abd6461842d362255f83609731e6ef72f3aa1"
GOLDEN_VERIFY_ALL_SEED_7 = "d382392f35eafb50cf1c1e3c95feac030f4d32823e96d428dced8a08002e1bce"
GOLDEN_MIRROR_STRUCTURED = {
    "pair_of_pants": "8727bc2b2d22a200f02ef5fab8d9c7f5a233adaec09858f6f12d73e65b8a87d2",
    "kp2": "c31138dd16c6d6919349d9778ea64c29686c764f57d98cd207ddd36c2848ebac",
    "toriccyeg": "d8447e46f0df8644048561a17a065b5700050e1afcc2ae227462403773ba196b",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=3),
    max_leaves=4)


@st.composite
def mutated_documents(draw):
    """A shipped curve document with one to three values replaced, deleted or
    nudged.  Each mutation walks down from the root and stops at a drawn
    depth, so the top-level keys are hit about as often as the leaves."""
    name = draw(st.sampled_from(["pair_of_pants", "conifold", "kp2", "toriccyeg"]))
    doc = json.loads(resources.files("tropmirror.curves").joinpath(f"{name}.json").read_text())
    for _ in range(draw(st.integers(1, 3))):
        owner, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (owner is None or draw(st.booleans())):
            owner = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            node = owner[key]
        if owner is None:
            continue
        op = draw(st.sampled_from(["replace", "delete", "nudge"]))
        if op == "delete":
            del owner[key]
        elif op == "nudge" and type(node) is int:
            owner[key] = node + draw(st.sampled_from([-2, -1, 1, 2]))
        else:
            owner[key] = draw(JSON_VALUES)
    return doc


class TestMirror:
    def test_pair_of_pants_is_c3(self, capsys):
        code, report = run_json(capsys, "mirror", "--curve", "pair_of_pants")
        assert code == 0 and report["ok"]
        assert report["charts"]["v"]["potential"] == "1*v.x*v.y*v.z"
        assert len(report["dual_fan"]["cones"]) == 1

    def test_kp2_six_chart_report(self, capsys):
        code, report = run_json(capsys, "mirror", "--curve", "kp2")
        assert code == 0 and report["ok"]
        assert len(report["covering"]["charts"]) == 6
        assert report["cocycle_check"]["ok"]
        assert report["potential_check"]["ok"]
        assert report["covering"]["certificate"]["ok"]

    def test_malformed_curve_exits_nonzero_with_errors(self, capsys, tmp_path):
        doc = {"name": "bad",
               "vertices": {"v": {"position": ["0", "0"],
                                  "edges": ["x", "y", "z"]}},
               "edges": {"x": {"ends": ["v"], "direction": [1, 0]},
                         "y": {"ends": ["v"], "direction": [0, 1]},
                         "z": {"ends": ["v"], "direction": [1, 1]}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "mirror", "--curve", str(path))
        assert code == 2
        assert not report["ok"]
        assert report["errors"]

    def test_rational_displacement_error_exits_2(self, capsys, tmp_path):
        doc = json.loads(resources.files("tropmirror.curves").joinpath(
            "conifold.json").read_text())
        doc["vertices"]["v1"]["position"] = ["1/2", 1]
        doc["vertices"]["v2"]["position"] = [0, 0]
        path = tmp_path / "rational.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "mirror", "--curve", str(path))
        assert code == 2 and report["ok"] is False
        assert ("edge e: displacement (-1/2, -1) is not a positive multiple of "
                "direction (0, 1)") in report["errors"]

    @pytest.mark.parametrize("kind", ["unknown_name", "bad_json", "bad_anchor_edge",
                                      "empty_object", "not_an_object",
                                      "vertex_without_position", "fractional_direction",
                                      "unknown_a1_key", "edge_key_a2", "edge_key_areas",
                                      "document_key_anchors", "vertex_key_colour",
                                      "anchor_key_edges", "no_edges", "name_not_string"])
    def test_unreadable_curve_exits_2_with_errors(self, capsys, tmp_path, kind):
        doc = {"name": "bad",
               "vertices": {"v": {"position": ["0", "0"],
                                  "edges": ["x", "y", "z"]}},
               "edges": {"x": {"ends": ["v"], "direction": [1, 0]},
                         "y": {"ends": ["v"], "direction": [0, 1]},
                         "z": {"ends": ["v"], "direction": [-1, -1]}},
               "anchor": {"edge": "x", "left": [0, 0]}}
        extra = ()
        if kind == "unknown_name":
            curve = "nosuchcurve"
        elif kind == "unknown_a1_key":
            curve = "conifold"
            extra = ("--a1", "nope=3")
        else:
            path = tmp_path / f"{kind}.json"
            if kind == "bad_json":
                path.write_text("{not json")
            elif kind == "empty_object":
                path.write_text("{}")
            elif kind == "not_an_object":
                path.write_text("[1]")
            else:
                if kind == "bad_anchor_edge":
                    doc["anchor"]["edge"] = "nope"
                elif kind == "fractional_direction":
                    doc["edges"]["x"]["direction"] = [1.5, 0]
                elif kind == "edge_key_a2":
                    doc["edges"]["x"]["a2"] = 1
                elif kind == "edge_key_areas":
                    doc["edges"]["x"]["areas"] = {"Ay": "1/2"}
                elif kind == "document_key_anchors":
                    # a misspelled anchor must not fall back to the default one
                    doc["anchors"] = doc.pop("anchor")
                elif kind == "vertex_key_colour":
                    doc["vertices"]["v"]["colour"] = "red"
                elif kind == "anchor_key_edges":
                    doc["anchor"]["edges"] = ["x"]
                elif kind == "no_edges":
                    # without an anchor the default one is the first edge
                    doc["edges"] = {}
                    del doc["anchor"]
                elif kind == "name_not_string":
                    doc["name"] = [1, 2]
                else:
                    del doc["vertices"]["v"]["position"]
                path.write_text(json.dumps(doc))
            curve = str(path)
        code, report = run_json(capsys, "mirror", "--curve", curve, *extra)
        assert code == 2
        assert report["ok"] is False
        assert isinstance(report["errors"], list) and report["errors"]
        assert all(isinstance(e, str) for e in report["errors"])
        named = {"bad_anchor_edge": "nope", "empty_object": "vertices",
                 "not_an_object": "JSON object", "vertex_without_position": "position",
                 "fractional_direction": "not an integer",
                 "unknown_a1_key": "nope",
                 "edge_key_a2": "edge x: malformed (unknown key 'a2'",
                 "edge_key_areas": "edge x: malformed (unknown key 'areas'",
                 "document_key_anchors": "curve document: malformed (unknown key 'anchors'",
                 "vertex_key_colour": "vertex v: malformed (unknown key 'colour'",
                 "anchor_key_edges": "anchor: malformed (unknown key 'edges'",
                 "no_edges": "curve: no edges",
                 "name_not_string": "'name' must be a string"}.get(kind, "")
        assert any(named in e for e in report["errors"])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=mutated_documents())
    def test_mutated_document_exits_2_or_reports(self, capsys, tmp_path, doc):
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "mirror", "--curve", str(path))
        if code == 2:
            assert report["ok"] is False and report["errors"]
        else:
            assert code == (0 if report["ok"] else 1)
            assert isinstance(report["curve"], str)

    def test_svg_artifacts(self, capsys, tmp_path, monkeypatch):
        # the report and cones.svg share one covering search and one atlas,
        # which builds one transition map per finite edge
        searches, builds, maps = [], [], []
        search, build, transition = (tropical.covering_collection, tropical.atlas,
                                     tropical.transition_map)
        monkeypatch.setattr(tropical, "covering_collection",
                            lambda *args: searches.append(args) or search(*args))
        monkeypatch.setattr(tropical, "atlas",
                            lambda curve: builds.append(curve) or build(curve))
        monkeypatch.setattr(tropical, "transition_map", lambda curve, eid, exact:
                            maps.append(eid) or transition(curve, eid, exact))
        out = tmp_path / "art"
        code, report = run_json(capsys, "mirror", "--curve", "kp2",
                                "--out", str(out))
        assert code == 0
        assert len(searches) == 1
        assert len(builds) == 1
        assert sorted(maps) == sorted(e for e, spec in report["edges"].items() if spec["finite"])
        for name in ("curve.svg", "fan.svg", "cones.svg"):
            text = (out / name).read_text()
            assert text.startswith("<svg ") and text.endswith("</svg>\n")


class TestTransform:
    # acceptance criterion 6: O_D(k) on the K_P2 face, k in {-1, 0, 1, 2}
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_kp2_line_bundle_annotation(self, capsys, k):
        # m^e = k n^e - a2^e with n = 3, a2 = 1 on all three edges
        m = 3 * k - 1
        windings = ",".join(f"{e}={m}" for e in ("e01", "e02", "e12"))
        code, report = run_json(capsys, "transform", "--curve", "kp2",
                                "--face", "0,0", "--windings", windings)
        assert code == 0 and report["ok"]
        coeffs = report["divisor"]["edges"]
        assert coeffs == {e: 3 * k for e in ("e01", "e02", "e12")}
        assert report["divisor"]["terms"] == [
            f"{3 * k}*{{z_{e}=0}}" for e in ("e01", "e02", "e12")]
        if k == 0:
            assert report["divisor"]["structure_sheaf"]
            assert report["annotation"] == "structure sheaf O_D"
        else:
            assert report["annotation"] == f"O_D({k})"

    def test_face_not_in_curve_errors(self, capsys):
        code, report = run_json(capsys, "transform", "--curve", "kp2",
                                "--face", "5,5", "--windings", "e01=0")
        assert code == 2
        assert report["errors"] == ["no face with dual point 5,5"]

    def test_missing_winding_errors(self, capsys):
        code, report = run_json(capsys, "transform", "--curve", "kp2",
                                "--face", "0,0", "--windings", "e01=0")
        assert code == 2
        assert "no winding for finite edge e02 of face 0,0" in report["errors"][0]

    def test_winding_for_no_edge_of_the_face_errors(self, capsys):
        code, report = run_json(capsys, "transform", "--curve", "kp2", "--face", "0,0",
                                "--windings", "e01=1,e02=1,e12=1,zz=3")
        assert code == 2 and not report["ok"]
        assert report["errors"] == ["winding 'zz': names no finite edge of face 0,0"]

    def test_zero_denominator_face_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transform", "--curve", "kp2", "--face", "1/0,0",
                      "--windings", "e01=0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "'1/0,0'" in err

    @pytest.mark.parametrize("change,error", [
        (lambda col: {g: -c for g, c in col.items()}, "gluing on edge e01 is not a chain map"),
        (lambda col: {g: c * SymPoly.var("x1") for g, c in col.items()},
         "traced vanishing order 4 on edge e01 disagrees with a2+m=3"),
    ], ids=["negated_column", "extra_power"])
    def test_failed_gluing_check_exits_1(self, capsys, monkeypatch, change, error):
        # a well-formed face and windings whose gluing fails its check: a
        # mathematical failure, not bad input
        column = cli.mf.finite_edge_column
        monkeypatch.setattr(cli.mf, "finite_edge_column", lambda *args: change(column(*args)))
        code, report = run_json(capsys, "transform", "--curve", "kp2", "--face", "0,0",
                                "--windings", "e01=2,e02=2,e12=2")
        assert code == 1 and report["ok"] is False
        assert report["errors"] == [error]

    def test_section_off_d0_exits_1(self, capsys, monkeypatch):
        # the winding-1 factorization for winding 2: the traced section does
        # not land on D0, a failed check like the two above
        one_turn = cli.mf.winding_strip_model(1, exact=True)
        monkeypatch.setattr(cli.mf, "winding_strip_model", lambda m, exact=False: one_turn)
        code, report = run_json(capsys, "transform", "--curve", "kp2", "--face", "0,0",
                                "--windings", "e01=2,e02=2,e12=2")
        assert code == 1 and report["ok"] is False
        assert report["errors"] == ["glued section does not land on D0: ['D3', 'D4']"]

    def test_unbounded_face_errors(self, capsys):
        code, report = run_json(capsys, "transform", "--curve", "conifold",
                                "--face", "0,0", "--windings", "e=1")
        assert code == 2
        assert report["errors"] == ["face 0,0 is not bounded"]

    def test_negative_face_is_given_with_equals(self, capsys):
        # "--face -1,-1" reads -1,-1 as an option; "--face=-1,-1" reaches the face lookup
        code, report = run_json(capsys, "transform", "--curve", "kp2", "--face=-1,-1",
                                "--windings", "e12=1")
        assert code == 2
        assert report["errors"] == ["face -1,-1 is not bounded"]


class TestFlags:
    # each subcommand registers only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["mirror", "--seed", "3", "--arity", "3"],
        ["verify", "flop", "--curve", "nosuch", "--a1", "nope=1", "--models", "/nonexistent"],
        # no subcommand has --models: --curve PATH names a curve document
        ["mirror", "--curve", "kp2", "--models", "/nonexistent"],
    ])
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mirror", "--curve", "kp2", "--a1", "e01=x"],
        ["transform", "--curve", "kp2", "--face", "0,0", "--windings", "e01=x"],
    ])
    def test_non_integer_value_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected key=integer, got 'e01=x'" in err
        assert "_parse_kv_ints" not in err

    def test_parser_is_built_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        for argv in (["mirror"], ["verify", "flop"], ["render", "--curve", "kp2"]):
            cli.parse_args(argv)
        assert len(built) == 5  # the top-level parser and its four subcommands

    def test_dict_defaults_are_not_shared(self):
        cfg = cli.parse_args(["transform", "--face", "0,0"])
        cfg.a1["e"], cfg.windings["e"] = 1, 2
        again = cli.parse_args(["transform", "--face", "0,0"])
        assert again.a1 == {} and again.windings == {}


class TestOutputDirectory:
    # a path that cannot be a directory is bad input: exit 2 before any work
    @pytest.mark.parametrize("argv", [
        ["mirror", "--curve", "kp2"],
        ["transform", "--curve", "kp2", "--face", "0,0", "--windings", "e01=2,e02=2,e12=2"],
        ["verify", "flop"],
        ["render", "--curve", "toriccyeg"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_through_a_regular_file_exits_2(self, capsys, tmp_path, argv, below):
        blocker = tmp_path / "report"
        blocker.write_text("not a directory\n")
        out = blocker / "sub" if below else blocker
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("tropmirror: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err
        assert blocker.read_text() == "not a directory\n"


class TestRepeatedKeys:
    @pytest.mark.parametrize("argv", [
        ["transform", "--curve", "kp2", "--face", "0,0",
         "--windings", "e01=2,e02=2,e12=2,e01=-1"],
        ["mirror", "--curve", "kp2", "--a1", "e01=0,e01=1"],
    ], ids=["windings", "a1"])
    def test_repeated_key_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "'e01' given twice" in err


class TestVerify:
    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "nosuchsuite"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'nosuchsuite'" in err

    def test_coordinate_changes_suite(self, capsys):
        code, report = run_json(capsys, "verify", "coordinate-changes")
        assert code == 0
        cases = report["suites"]["coordinate-changes"]["cases"]
        assert cases == {"section5": True, "section6": True, "section7": True,
                         "section6:a=0": True, "section6:a=2": True}

    @pytest.mark.parametrize("mutation", ["flip", "delete"])
    def test_potential_suite_catches_seidel_mutants(self, capsys, monkeypatch, mutation):
        # flipping or deleting any one Seidel triangle obstructs W = T^{A1} xyz
        load = ainf.load_model
        entries = load("seidel_pants").entries
        assert len(entries) == 8

        def seidel_key():
            code, report = run_json(capsys, "verify", "potential")
            suite = report["suites"]["potential"]
            assert code == (0 if suite["ok"] else 1)
            return suite["cases"]["seidel:W=T^A1*xyz"]

        assert seidel_key() is True
        for i, entry in enumerate(entries):
            mutant = (entries[:i] + [replace(entry, coeff=-entry.coeff)] + entries[i + 1:]
                      if mutation == "flip" else entries[:i] + entries[i + 1:])

            def mutated(name, spin=True, mutant=mutant):
                model = load(name, spin=spin)
                return replace(model, entries=mutant) if name == "seidel_pants" and spin else model

            monkeypatch.setattr(ainf, "load_model", mutated)
            assert seidel_key() is False, entry

    def test_all_suites_pass(self, capsys):
        code, out = run(capsys, "verify", "all", "--seed", "7", "--format", "structured")
        report = json.loads(out)
        assert code == 0, {k: v["ok"] for k, v in report["suites"].items()}
        assert report["ok"]
        assert set(report["suites"]) == set(cli.SUITE_ORDER)
        assert report["suites"]["fiberproduct"]["instances"] == 200
        assert sha256(out) == GOLDEN_VERIFY_ALL_SEED_7

    def test_raising_suite_fails_and_the_rest_run(self, capsys, monkeypatch):
        def inconsistent(cfg):
            raise ValueError("model data inconsistency")

        def unknown_generator(cfg):
            raise KeyError("unknown generator P9")

        monkeypatch.setattr(cli, "SUITE_ORDER", ("mf", "flop", "conifold"))
        monkeypatch.setitem(cli.SUITES, "mf", inconsistent)
        monkeypatch.setitem(cli.SUITES, "flop", unknown_generator)
        code, report = run_json(capsys, "verify", "all")
        assert code == 1 and report["ok"] is False
        assert report["suites"]["mf"] == {
            "ok": False, "error": "ValueError: model data inconsistency"}
        assert report["suites"]["flop"] == {
            "ok": False, "error": "KeyError: 'unknown generator P9'"}
        assert report["suites"]["conifold"]["ok"] is True

    def test_report_file_written(self, capsys, tmp_path):
        out = tmp_path / "reports"
        code, report = run_json(capsys, "verify", "flop", "--out", str(out))
        assert code == 0
        on_disk = json.loads((out / "verify-report.json").read_text())
        assert on_disk == report


class Str(str):
    pass


class Int(int):
    pass


class Dict(dict):
    pass


class List(list):
    pass


class Opaque:
    """A value ``json`` cannot encode, written through ``default=str``."""

    def __init__(self, tag):
        self.tag = tag

    def __str__(self):
        return f"<opaque {self.tag}>"


TEXT = st.text(max_size=4) | st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é€😀'), max_size=4)
REPORT_LEAVES = (
    TEXT | TEXT.map(Str)
    | st.integers() | st.integers(-2**200, 2**200) | st.integers().map(Int)
    | st.booleans() | st.none() | st.floats()
    | st.fractions() | st.builds(Opaque, TEXT))
REPORT_KEYS = TEXT | TEXT.map(Str)
# keys of other types mix only where ``sorted`` can order them
OTHER_KEYS = st.integers(-5, 5) | st.floats(allow_nan=False) | st.booleans() | st.integers().map(Int)
REPORTS = st.recursive(
    REPORT_LEAVES,
    lambda inner: (st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple)
                   | st.lists(inner, max_size=3).map(List)
                   | st.dictionaries(REPORT_KEYS, inner, max_size=3)
                   | st.dictionaries(REPORT_KEYS, inner, max_size=3).map(Dict)
                   | st.dictionaries(OTHER_KEYS | st.none(), inner, max_size=3)),
    max_leaves=12)


class TestStructuredWriter:
    @settings(max_examples=400)
    @given(report=REPORTS)
    def test_matches_json_dumps(self, report):
        # the golden bytes are those of this json.dumps call
        try:
            expected = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
        except TypeError as err:  # keys that sorted() cannot order, or None among others
            with pytest.raises(type(err)):
                cli._emit(cli.RunConfig("mirror", format="structured"), report)
            return
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._emit(cli.RunConfig("mirror", format="structured"), report)
        assert out.getvalue() == expected


# a warmed-up run of each leaves no garbage cycle behind
GC_COMMANDS = [
    ["mirror", "--curve", "kp2", "--format", "structured"],
    ["mirror", "--curve", "kp2"],
    ["transform", "--curve", "kp2", "--face", "0,0", "--windings", "e01=2,e02=2,e12=2"],
    ["verify", "morphisms"],
    ["verify", "functor", "--arity", "2"],
]


@pytest.mark.parametrize("argv", GC_COMMANDS, ids=" ".join)
def test_a_run_leaves_no_reference_cycles(capsys, argv):
    cli.main(argv)  # fills the module-level caches
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestGoldenStability:
    def test_mirror_report_bit_identical(self, capsys):
        digests = set()
        for _ in range(2):
            code, out = run(capsys, "mirror", "--curve", "conifold",
                            "--format", "structured")
            assert code == 0
            digests.add(sha256(out))
        assert digests == {GOLDEN_CONIFOLD_STRUCTURED}

    @pytest.mark.parametrize("name", sorted(GOLDEN_MIRROR_STRUCTURED))
    def test_shipped_mirror_reports_pinned(self, capsys, name):
        code, out = run(capsys, "mirror", "--curve", name, "--format", "structured")
        assert code == 0
        assert sha256(out) == GOLDEN_MIRROR_STRUCTURED[name]

    def test_render_svg_bit_identical(self, capsys, tmp_path):
        digests = set()
        for sub in ("a", "b"):
            out = tmp_path / sub
            code, _ = run(capsys, "render", "--curve", "toriccyeg",
                          "--out", str(out))
            assert code == 0
            digests.add(sha256((out / "curve.svg").read_text()
                               + (out / "fan.svg").read_text()
                               + (out / "cones.svg").read_text()))
        assert digests == {GOLDEN_TORICCYEG_SVG}

    def test_text_format_stable(self, capsys):
        code1, out1 = run(capsys, "mirror", "--curve", "pair_of_pants")
        code2, out2 = run(capsys, "mirror", "--curve", "pair_of_pants")
        assert code1 == code2 == 0
        assert {sha256(out1), sha256(out2)} == {GOLDEN_PANTS_TEXT}
        assert "potential_check.ok: True" in out1
