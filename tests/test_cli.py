"""Tests for the command-line interface: reports, determinism, exit codes."""

import hashlib
import json

import pytest

from tropmirror import cli

# SHA-256 of outputs that must stay byte-identical: a deliberate format
# change re-records these.
GOLDEN_CONIFOLD_STRUCTURED = "fa19dd1fa2786b74d3a26762a2ecfbd80563d4e5c335211cba832267e794959f"
GOLDEN_PANTS_TEXT = "c6e2f0dedaffd242aa7432247e18238ad2e097c8f88a5cff4197071914a94a60"
GOLDEN_TORICCYEG_SVG = "aac3eb3d3add99c5c4bf5e06134abd6461842d362255f83609731e6ef72f3aa1"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "structured")
    return code, json.loads(out)


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

    @pytest.mark.parametrize("kind", ["unknown_name", "bad_json", "bad_anchor_edge",
                                      "empty_object", "not_an_object",
                                      "vertex_without_position", "fractional_direction",
                                      "unknown_a1_key"])
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
                 "unknown_a1_key": "nope"}.get(kind, "")
        assert any(named in e for e in report["errors"])

    def test_svg_artifacts(self, capsys, tmp_path):
        out = tmp_path / "art"
        code, report = run_json(capsys, "mirror", "--curve", "kp2",
                                "--out", str(out))
        assert code == 0
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
        assert report["errors"]

    def test_missing_winding_errors(self, capsys):
        code, report = run_json(capsys, "transform", "--curve", "kp2",
                                "--face", "0,0", "--windings", "e01=0")
        assert code == 2


class TestFlags:
    # each subcommand registers only the flags it reads
    @pytest.mark.parametrize("argv", [
        ["mirror", "--seed", "3", "--arity", "3"],
        ["verify", "flop", "--curve", "nosuch", "--a1", "nope=1", "--models", "/nonexistent"],
    ])
    def test_flag_of_another_subcommand_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_unknown_suite_is_usage_error(self, capsys):
        code = cli.main(["verify", "nosuchsuite"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown suite" in err

    def test_fiberproduct_seed_7_deterministic(self, capsys):
        code1, rep1 = run_json(capsys, "verify", "fiberproduct", "--seed", "7")
        code2, rep2 = run_json(capsys, "verify", "fiberproduct", "--seed", "7")
        assert code1 == code2 == 0
        assert rep1 == rep2
        assert rep1["suites"]["fiberproduct"]["instances"] == 200

    def test_coordinate_changes_suite(self, capsys):
        code, report = run_json(capsys, "verify", "coordinate-changes")
        assert code == 0
        cases = report["suites"]["coordinate-changes"]["cases"]
        assert cases == {"section5": True, "section6": True, "section7": True}

    def test_all_suites_pass(self, capsys):
        code, report = run_json(capsys, "verify", "all", "--seed", "7")
        assert code == 0, {k: v["ok"] for k, v in report["suites"].items()}
        assert report["ok"]
        assert set(report["suites"]) == set(cli.SUITE_ORDER)

    def test_report_file_written(self, capsys, tmp_path):
        out = tmp_path / "reports"
        code, report = run_json(capsys, "verify", "flop", "--out", str(out))
        assert code == 0
        on_disk = json.loads((out / "verify-report.json").read_text())
        assert on_disk == report


class TestGoldenStability:
    def test_mirror_report_bit_identical(self, capsys):
        digests = set()
        for _ in range(2):
            code, out = run(capsys, "mirror", "--curve", "conifold",
                            "--format", "structured")
            assert code == 0
            digests.add(sha256(out))
        assert digests == {GOLDEN_CONIFOLD_STRUCTURED}

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
