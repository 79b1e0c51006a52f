"""Command-line entry points: ``tropmirror mirror|transform|verify|render``.

``mirror`` ingests a tropical curve document and reports charts, transition
maps, the glued potential, cocycle/potential checks and the covering
certificate, optionally rendering SVG diagrams.  ``transform`` computes the
divisor line bundle mirror to a Lagrangian around a face.  ``verify`` runs
the acceptance-criteria suites and exits nonzero on any failure.  ``render``
writes the curve/fan/cone diagrams.

Reports are deterministic for a fixed configuration: all collections are
emitted in sorted order, randomized suites derive every case from the
``--seed`` flag, and the structured (JSON) format is golden-file stable.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _json_str
from math import inf
from pathlib import Path

from . import ainf, dgcat, mf, tropical
from .symbolic import AreaExp, SymPoly
from .tropical import CurveValidationError


@dataclass
class RunConfig:
    """Parsed invocation; a fixed config yields bit-identical reports."""

    command: str
    curve: str = None
    face: tuple = None
    windings: dict = field(default_factory=dict)
    a1: dict = field(default_factory=dict)
    seed: int = 7
    arity: int = 2
    out: str = None
    format: str = "text"
    suite: str = "all"


def _parse_kv_ints(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        key, _, val = item.partition("=")
        if not _ or not key:
            raise argparse.ArgumentTypeError(f"expected key=value, got {item!r}")
        key = key.strip()
        if key in out:
            raise argparse.ArgumentTypeError(f"key {key!r} given twice in {text!r}")
        try:
            out[key] = int(val)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected key=integer, got {item!r}") from None
    return out


def _parse_face(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two coordinates, got {text!r}")
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected two rational coordinates, got {text!r}") from None


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; it holds no mutable default."""
    parser = argparse.ArgumentParser(
        prog="tropmirror",
        description="Mirror constructions for punctured Riemann surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", help="output directory for reports and SVG")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        return p

    def curve_input(p):
        p.add_argument("--curve", help="curve document: shipped name or JSON path")
        p.add_argument("--a1", type=_parse_kv_ints, default=argparse.SUPPRESS,
                       help="edge gauge overrides, e.g. e=1,f=0")
        return output(p)

    curve_input(sub.add_parser("mirror", help="construct the mirror of a curve"))

    p_trans = curve_input(sub.add_parser("transform", help="divisor line bundle of a face"))
    p_trans.add_argument("--face", type=_parse_face, required=True,
                         help="dual point of the face, e.g. 0,0; give a negative "
                              "first coordinate as --face=-1,-1")
    p_trans.add_argument("--windings", type=_parse_kv_ints, default=argparse.SUPPRESS,
                         help="winding integers per finite edge, e.g. e=2")

    p_verify = output(sub.add_parser("verify", help="run acceptance-criteria suites"))
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--arity", type=int, default=2, choices=(2, 3))
    p_verify.add_argument("suite", nargs="?", default="all", metavar="suite",
                          choices=SUITE_ORDER + ("all",),
                          help=f"one of: {', '.join(SUITE_ORDER)}, all")

    curve_input(sub.add_parser("render", help="write SVG diagrams of a curve"))
    return parser


def parse_args(argv) -> RunConfig:
    # flags a subcommand does not register, and --a1/--windings when absent,
    # keep the RunConfig defaults: a fresh dict per call
    return RunConfig(**vars(_parser().parse_args(argv)))


def _load_curve(cfg: RunConfig):
    return tropical.load_curve(cfg.curve or "pair_of_pants", a1_overrides=cfg.a1 or None)


# ---------------------------------------------------------------------------
# deterministic SVG rendering
# ---------------------------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             'viewBox="0 0 {w} {h}">\n')


def _fmt(x) -> str:
    return f"{float(x):.2f}"


def _scaled(points):
    """Map plane points into the 400 x 400 SVG canvas with a 40 margin."""
    size, margin = 400, 40
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, Fraction(1))
    scale = Fraction(size - 2 * margin) / span

    def to_svg(p):
        # flip y: SVG grows downward
        return (margin + (p[0] - lo_x) * scale,
                size - margin - (p[1] - lo_y) * scale)

    return to_svg


def curve_svg(curve) -> str:
    ends = {}  # edge -> far end: its second vertex, or 3/2 out along its ray
    for eid in sorted(curve.edges):
        e = curve.edges[eid]
        if e.finite:
            ends[eid] = curve.vertices[e.ends[1]].position
        else:
            p = curve.vertices[e.ends[0]].position
            d = e.direction
            norm = max(abs(d[0]), abs(d[1]), 1)
            ends[eid] = (p[0] + Fraction(3, 2) * Fraction(d[0], norm),
                         p[1] + Fraction(3, 2) * Fraction(d[1], norm))
    to_svg = _scaled([v.position for v in curve.vertices.values()] + list(ends.values()))
    lines = [_SVG_HEAD.format(w=400, h=400)]
    for eid, b in ends.items():
        e = curve.edges[eid]
        (x1, y1), (x2, y2) = to_svg(curve.vertices[e.ends[0]].position), to_svg(b)
        dash = "" if e.finite else ' stroke-dasharray="6,4"'
        lines.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                     f'y2="{_fmt(y2)}" stroke="black" stroke-width="2"{dash}/>\n')
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        lines.append(f'<text x="{_fmt(mx + 4)}" y="{_fmt(my - 4)}" '
                     f'font-size="12">{eid}</text>\n')
    for vid in sorted(curve.vertices):
        x, y = to_svg(curve.vertices[vid].position)
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="black"/>\n')
        lines.append(f'<text x="{_fmt(x + 6)}" y="{_fmt(y + 12)}" '
                     f'font-size="12">{vid}</text>\n')
    lines.append("</svg>\n")
    return "".join(lines)


def fan_svg(curve) -> str:
    """Rays of the dual fan projected to the first two coordinates."""
    fan = tropical.dual_fan(curve)
    pts = [(r[0], r[1]) for r in fan.rays] + [(Fraction(0), Fraction(0))]
    to_svg = _scaled(pts)
    ox, oy = to_svg((Fraction(0), Fraction(0)))
    lines = [_SVG_HEAD.format(w=400, h=400)]
    # shade each vertex cone as the triangle spanned by its rays
    for vid in sorted(fan.cones):
        rays = fan.cones[vid]
        coords = [to_svg((r[0], r[1])) for r in rays]
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
        lines.append(f'<polygon points="{path}" fill="#c8d8f0" '
                     f'stroke="none" opacity="0.6"/>\n')
    for r in fan.rays:
        x, y = to_svg((r[0], r[1]))
        lines.append(f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(x)}" '
                     f'y2="{_fmt(y)}" stroke="black" stroke-width="1.5"/>\n')
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="black"/>\n')
        lines.append(f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" font-size="11">'
                     f'({r[0]},{r[1]})</text>\n')
    lines.append("</svg>\n")
    return "".join(lines)


def cones_svg(curve, charts, atlas) -> str:
    """Cone images of the covering ``charts`` in the valuation plane (Sections 8/9).

    ``atlas`` is the one the covering search used.
    """
    images = [(c.label, tropical.cone_image(curve, c, atlas)) for c in charts]
    pts = []
    for _, img in images:
        apex = img["apex"]
        pts.append(apex)
        for ray in img["rays"]:
            pts.append((apex[0] + ray[0], apex[1] + ray[1]))
    to_svg = _scaled(pts or [(Fraction(0), Fraction(0))])
    lines = [_SVG_HEAD.format(w=400, h=400)]
    for label, img in images:
        ax, ay = to_svg(img["apex"])
        for ray in img["rays"]:
            bx, by = to_svg((img["apex"][0] + ray[0], img["apex"][1] + ray[1]))
            lines.append(f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" '
                         f'y2="{_fmt(by)}" stroke="black" stroke-width="1"/>\n')
        lines.append(f'<circle cx="{_fmt(ax)}" cy="{_fmt(ay)}" r="3" fill="black"/>\n')
        lines.append(f'<text x="{_fmt(ax + 5)}" y="{_fmt(ay + 12)}" '
                     f'font-size="10">{label}</text>\n')
    lines.append("</svg>\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit(cfg: RunConfig, report: dict) -> None:
    """Write ``report`` to stdout, and to ``--out`` when given.

    The structured text is byte for byte
    ``json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"``,
    built in one pass by ``_json_text``; the text format has one
    ``dotted.path: value`` line per leaf, from ``_text_lines``.
    """
    if cfg.format == "structured":
        chunks = []
        _json_text(report, "\n", chunks)
        text = "".join(chunks) + "\n"
    else:
        lines = []
        _text_lines("", report, lines)
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.out:
        suffix = "json" if cfg.format == "structured" else "txt"
        (Path(cfg.out) / f"{cfg.command}-report.{suffix}").write_text(text)


def _json_float(x: float) -> str:
    """A float as ``json`` writes it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    """The text ``json`` writes, in quotes, for a dict key."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value, newline: str, out: list) -> None:
    """Append the text ``json.dumps(value, indent=2, sort_keys=True,
    default=str)`` gives for ``value`` to ``out``; ``newline`` is a newline
    followed by the indent of the line ``value`` starts on.

    The type tests run in ``json.encoder``'s order, so subclasses of str,
    int, float, list, tuple and dict are written as ``json`` writes them,
    and any other value as the string ``str`` makes of it.
    """
    if isinstance(value, str):
        out.append(_json_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _json_text(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(f"{sep}{_json_str(_json_key(key))}: ")
            _json_text(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(_json_str(str(value)))


def _text_lines(prefix: str, value, out: list) -> None:
    """Append one ``path: value`` line per leaf of ``value`` to ``out``; a
    list of leaves makes one line, its items joined by commas."""
    if isinstance(value, dict):
        for k in sorted(value, key=str):
            _text_lines(f"{prefix}{k}." if prefix else f"{k}.", value[k], out)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            out.append(f"{prefix[:-1]}: {', '.join(str(v) for v in value)}")
        else:
            for i, v in enumerate(value):
                _text_lines(f"{prefix}{i}.", v, out)
    else:
        out.append(f"{prefix[:-1]}: {value}")


def _write_svgs(curve, charts, atlas, out_dir: Path) -> dict:
    """Write the curve, fan and covering-cone diagrams; returns {file name: path}."""
    artifacts = {}
    for name, text in (("curve.svg", curve_svg(curve)),
                       ("fan.svg", fan_svg(curve)),
                       ("cones.svg", cones_svg(curve, charts, atlas))):
        (out_dir / name).write_text(text)
        artifacts[name] = str(out_dir / name)
    return artifacts


def _config_echo(cfg: RunConfig) -> dict:
    return {"command": cfg.command, "curve": cfg.curve, "seed": cfg.seed,
            "arity": cfg.arity, "format": cfg.format,
            # always null: the report digests in bench/baseline.json hash this echo
            "truncation": None}


# ---------------------------------------------------------------------------
# mirror
# ---------------------------------------------------------------------------


def cmd_mirror(cfg: RunConfig, curve) -> int:
    report = {"config": _config_echo(cfg), "curve": curve.name}
    report["vertices"] = {
        vid: {"position": [str(c) for c in v.position], "edges": list(v.edges)}
        for vid, v in sorted(curve.vertices.items())}
    report["edges"] = {
        eid: {"ends": list(e.ends), "direction": list(e.direction),
              "finite": e.finite}
        for eid, e in sorted(curve.edges.items())}

    report["charts"] = {
        vid: {"variables": list(curve.chart_vars(vid)),
              "potential": str(tropical.potential(curve, vid))}
        for vid in sorted(curve.vertices)}
    atlas = tropical.atlas(curve)
    transitions = {}
    for eid, e in sorted(curve.edges.items()):
        if e.finite:
            # expresses the ends[1]-chart variables in the ends[0] chart
            mm = atlas.maps[(eid, e.ends[1])]
            transitions[eid] = {v: str(mm.image_of(v)) for v in mm.source}
    report["transitions"] = transitions

    cocycle = tropical.cocycle_check(curve, atlas)
    potential = tropical.global_potential_check(curve, atlas)
    report["cocycle_check"] = cocycle
    report["potential_check"] = potential

    charts, certificate = tropical.covering_collection(curve, atlas)
    report["covering"] = {"charts": [c.label for c in charts],
                          "certificate": certificate}

    fan = tropical.dual_fan(curve)
    report["dual_fan"] = {
        "rays": [[str(c) for c in r] for r in fan.rays],
        "cones": {vid: [[str(c) for c in r] for r in rays]
                  for vid, rays in sorted(fan.cones.items())}}

    report["ok"] = bool(cocycle["ok"] and potential["ok"] and certificate["ok"])

    if cfg.out:
        report["artifacts"] = _write_svgs(curve, charts, atlas, Path(cfg.out))

    _emit(cfg, report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def cmd_transform(cfg: RunConfig, curve) -> int:
    report = {"config": _config_echo(cfg), "curve": curve.name,
              "face": [str(c) for c in cfg.face],
              "windings": dict(sorted(cfg.windings.items()))}
    try:
        bundle = mf.glue_objects(curve, cfg.face, cfg.windings)
        data = tropical.divisor_data(curve, cfg.face, cfg.windings) \
            if bundle.coefficients else []
    except (ValueError, KeyError) as err:
        report["ok"] = False
        report["errors"] = [str(err)]
        _emit(cfg, report)
        # a gluing that fails its check is a mathematical failure, not bad input
        return 1 if isinstance(err, mf.GluingCheckFailed) else 2

    report["divisor"] = bundle.to_dict()
    report["divisor"]["terms"] = [
        f"{row['coefficient']}*{{z_{row['edge']}=0}}" for row in data]
    report["divisor_data"] = [
        {k: str(v) for k, v in row.items()} for row in data]
    k = tropical.line_bundle_degree(curve, cfg.face, cfg.windings) \
        if bundle.coefficients else None
    if bundle.is_structure_sheaf:
        report["annotation"] = "structure sheaf O_D"
    elif k is not None:
        report["annotation"] = f"O_D({k})"
    else:
        report["annotation"] = None
    report["ok"] = True
    _emit(cfg, report)
    return 0


# ---------------------------------------------------------------------------
# verify suites (the acceptance criteria)
# ---------------------------------------------------------------------------


def _suite_mf(cfg) -> dict:
    """Criterion 1: delta^2 = W Id at random rational areas, m in {0,1,2};
    on the Section 10.2 Hom models, delta^2 = W (checked on construction),
    Hom complexes with d^2 = 0 and chain-map generators."""
    rng = random.Random(cfg.seed)
    cases = {}
    for m in (0, 1, 2):
        model = mf.winding_strip_model(m)
        obj = mf.transform_object(model, "L", "S1")
        ok = all(mf.check_mf(obj, ainf.random_area_assignment(model, rng))[0]
                 for _ in range(10))
        w_expected = SymPoly.term(1, AreaExp.sym("A"),
                                  {"x1": 1, "y1": 1, "z1": 1})
        cases[f"m={m}"] = ok and obj.potential == w_expected
    for build, src, tgt in ((mf.same_face_hom_model, "Lp", "L"),
                            (mf.different_face_hom_model, "Lp", "L"),
                            (mf.infinite_edge_q_model, "L", "Lp")):
        model = build()
        pair = [mf.transform_object(model, o, "S") for o in (src, tgt)]
        piece = dgcat.mf_dg_piece(pair)
        cases[f"{model.name}:d^2=0"] = piece.validate()["ok"]
        for g in model.generators.values():
            if {g.source, g.target} == {src, tgt}:
                phi = mf.transform_morphism(model, g.name, *pair)
                cases[f"{model.name}:{g.name}"] = piece.d(phi).is_zero()
    return {"ok": all(cases.values()), "cases": cases}


def _suite_coordinate_changes(cfg) -> dict:
    """Criterion 2: the Section 5/6/7 coordinate changes, exactly, and the
    Section 6 ones of the twisted candidates x^{a-1} P4 - Q4, a in {0, 2}."""
    A = AreaExp.of
    T = SymPoly.term
    cases = {}

    change = dgcat.iso_change(ainf.load_model("isotopy_pair"))
    d = A({"k1": 2, "k5": 4, "k6": 2, "k7": 3})  # 2k1+k2-k5-k6-k7 eliminated
    cases["section5"] = (
        change.solved["x'"] == T(1, d.scale(2), {"x": 1})
        and change.solved["y'"] == T(1, -d, {"y": 1})
        and change.solved["z'"] == T(1, -d, {"z": 1}))

    # the twisted candidates x^{a-1} P4 - Q4; a = 1 is the one of Section 6
    model = ainf.load_model("two_pants")
    d = A({"k1": 4, "k2": 2, "k3": 2, "k5": -1, "k6": -1})
    e = A({"k1": 2, "k3": 2, "k6": -1})
    for a in (0, 1, 2):
        change = ainf.variant_isomorphism(model, a)
        cases["section6" if a == 1 else f"section6:a={a}"] = (
            change.solved["x'"] == T(1, d, {"x": -1})
            and change.solved["y'"] == T(1, -e, {"x": a, "y": 1})
            and change.solved["z'"] == T(1, -e, {"x": 2 - a, "z": 1}))

    change = dgcat.iso_change(ainf.load_model("circle_seidel"))
    d = A({"k7": 1, "k1": -1, "k2": -1, "k3": -1, "k4": -1, "k5": -1})
    h1 = A({"k7": 1, "k1": -2, "k2": -1})
    h2 = A({"k7": 1, "k4": -1, "k5": -2})
    cases["section7"] = (
        change.solved["x1"] == T(1, d, {"t": 1})
        and change.solved["y1"] == T(1, -h1, {"y0": 1})
        and change.solved["z1"] == T(1, -h2, {"z0": 1}))

    return {"ok": all(cases.values()), "cases": cases}


def _suite_isomorphism_units(cfg) -> dict:
    """Criterion 3: m2(alpha, beta) = T^k * unit, both orders."""
    T = SymPoly.term
    expected = {
        "isotopy_pair": T(1, AreaExp.of({"k1": 4, "k5": 8, "k6": 6, "k7": 7})),
        "two_pants": T(1, AreaExp.of({"k1": 4, "k2": 2, "k3": 2, "k4": 1})),
        "circle_seidel": T(1, AreaExp.sym("k7")),
    }
    cases = {}
    for name, scalar in expected.items():
        cases[name] = dgcat.iso_setup(name)[3] == scalar
    return {"ok": all(cases.values()), "cases": cases}


def _suite_potential(cfg) -> dict:
    """Criterion 4: W invariance under coordinate changes and globally, in
    exact and immersed mode with offsets absorbing the area factors; the
    Seidel W = T^{A1} xyz, xyz when exact, obstructed for trivial spin."""
    cases = {}
    pairs = {"isotopy_pair": ("L0", "L1"), "two_pants": ("L", "Lt"),
             "circle_seidel": ("C", "S1")}
    for name, (src, tgt) in pairs.items():
        model = ainf.load_model(name)
        cases[f"model:{name}"] = ainf.potential_invariance(
            model, src, tgt, dgcat.iso_change(model))
    for name in ("pair_of_pants", "conifold", "kp2", "toriccyeg"):
        curve = tropical.load_curve(name)
        atlas = tropical.atlas(curve)
        cases[f"curve:{name}"] = tropical.global_potential_check(curve, atlas)["ok"]
        cases[f"curve-immersed:{name}"] = tropical.global_potential_check(
            curve, atlas, exact=False)["ok"]
        cases[f"offsets:{name}"] = all(tropical.absorbs_offsets(curve, eid, atlas)
                                       for eid, e in curve.edges.items() if e.finite)
    seidel, xyz = ainf.load_model("seidel_pants"), {"x": 1, "y": 1, "z": 1}
    cases["seidel:W=T^A1*xyz"] = seidel.weak_mc_check("S") == (
        "potential", SymPoly.term(1, AreaExp.sym("A1"), xyz))
    cases["seidel:exact W=xyz"] = ainf.exact_reduce(seidel).weak_mc_check("S") == (
        "potential", SymPoly.term(1, None, xyz))
    cases["seidel:trivial spin obstructed"] = ainf.load_model(
        "seidel_pants", spin=False).weak_mc_check("S")[0] == "obstruction"
    return {"ok": all(cases.values()), "cases": cases}


def _suite_conifold(cfg) -> dict:
    """Criterion 5: the O(-k) + O(k-2) family gluing for k in {0,1,2,3}."""
    cases = {}
    for k in (0, 1, 2, 3):
        curve = tropical.conifold_curve(k)
        atlas = tropical.atlas(curve)
        # v1.x, v1.y, v1.z as exponent rows over the v2 chart's x, y, z
        cases[f"k={k}"] = (
            curve.a2("e") - curve.edges["e"].a1 == k - 2
            and atlas.maps[("e", "v1")].rows == ((-1, 0, 0), (k, 0, 1), (2 - k, 1, 0))
            and tropical.global_potential_check(curve, atlas)["ok"])
    return {"ok": all(cases.values()), "cases": cases}


def _summands(model, reference) -> list:
    """(generator, ideal, trivial) of each D^Sing summand of the path L."""
    cls = mf.cokernel_dsing(mf.transform_object(model, "L", reference))
    return [(s.generator, s.ideal, s.trivial) for s in cls.summands]


def _suite_divisor(cfg) -> dict:
    """Criterion 6: O_D(k) on the K_P2 face for k in {-1,0,1,2}, with the
    D^Sing cokernels of the strip factorizations and the Prop "glueMF_12"
    gluing: a chain map whose section vanishes to order a2 + m."""
    curve = tropical.load_curve("kp2")
    face = sorted(curve.bounded_faces())[0]
    finite = sorted(e for _, e in curve.faces()[face]
                    if curve.edges[e].finite)
    cases = {}
    for k in (-1, 0, 1, 2):
        windings = {}
        for eid in finite:
            n = curve.affine_length(eid)
            m = k * n - curve.a2(eid)
            if m != int(m):
                cases[f"k={k}"] = False
                break
            windings[eid] = int(m)
        else:
            bundle = mf.glue_objects(curve, face, windings)
            expected = {eid: k * curve.affine_length(eid) for eid in finite}
            cases[f"k={k}"] = (
                tropical.line_bundle_degree(curve, face, windings) == k
                and {e: Fraction(c) for e, c in bundle.coefficients.items()} == expected
                and bundle.is_structure_sheaf == (k == 0))
    trivial = ("x1*y1*z1",)
    for m in range(4):
        cases[f"cokernel:winding m={m}"] = _summands(mf.winding_strip_model(m), "S1") == (
            [("D0", ("z1",), False)] + [(f"D{2 * i}", trivial, True) for i in range(1, m + 1)])
    cases["cokernel:pants"] = _summands(mf.pants_strip_model(), "S") == [("B", ("z",), False)]
    cases["cokernel:nonadjacent"] = _summands(mf.nonadjacent_strip_model(), "S") == [
        ("B", ("x*y*z",), True)]
    for m in (0, 1, 2):
        for a1, a2 in ((0, 0), (1, 0), (0, 2)):
            cases[f"glued:m={m},a1={a1},a2={a2}"] = mf.glue_edge(m, a1, a2)["ok"]
    return {"ok": all(cases.values()), "cases": cases}


def _suite_fiberproduct(cfg) -> dict:
    """Criterion 7: hfp axioms on >= 200 seeded random instances."""
    base = cfg.seed * 1000
    failures = []
    for seed in range(base, base + 200):
        report = dgcat.hfp_axiom_check(seed)
        if not report["ok"]:
            failures.append({"seed": seed, "failures": report["failures"]})
    return {"ok": not failures, "instances": 200, "failures": failures}


def _suite_natural_transformations(cfg) -> dict:
    """Criterion 8: M1/M2 unit laws and the Lemma n0hptyeq identity; the
    Prop 13.2 functor equation of the pairs ``functor`` leaves out, its
    one-chart degeneration, and each curated table's A-infinity certificate."""
    cases = {}
    for name in ("two_pants", "isotopy_pair", "circle_seidel"):
        report = dgcat.yoneda_equivalence_check(name, arity_bound=cfg.arity)
        cases[name] = {tag: v["ok"] for tag, v in report["identities"].items()}
    cases["functor_equation"] = {name: dgcat.functor_equation_check(name, cfg.arity)["ok"]
                                 for name in ("isotopy_pair", "circle_seidel")}
    cases["one_chart"] = dgcat.one_chart_degenerate_check()["objects"]
    models = [ainf.load_model(name) for name in
              ("seidel_pants", "two_pants", "isotopy_pair", "circle_seidel")]
    cases["table_certificates"] = {model.name: dgcat.model_ainf_check(model)["ok"]
                                   for model in models + [dgcat._two_circle_model()]}
    ok = all(all(v.values()) for v in cases.values())
    return {"ok": ok, "cases": cases}


def _suite_functor(cfg) -> dict:
    """Criterion 9: the global functor of Theorem 4.5(3) on the two-chart
    system of the conifold, whose covering certificate of Assumption 4.7
    is required.  Over the two_pants model: (i) Lemma n0hptyeq, the
    homotopy invertibility of the connecting map N01(C), and (ii) the
    Prop 13.2 functor equation on the isomorphism sector.  On the
    factorization side: the Prop "glueMF_12" gluing at winding 0 on the
    conifold's finite edge."""
    curve = tropical.conifold_curve(2)
    charts, certificate = tropical.covering_collection(curve, tropical.atlas(curve))
    yoneda = dgcat.yoneda_equivalence_check("two_pants", arity_bound=cfg.arity)
    equation = dgcat.functor_equation_check("two_pants", cfg.arity)
    glued = mf.glue_edge(0, curve.edges["e"].a1, curve.a2("e"))
    return {"ok": certificate["ok"] and yoneda["ok"] and equation["ok"] and glued["ok"],
            "certificate": certificate["ok"],
            "charts": [c.label for c in charts],
            "functor_equation_cases": equation["cases"],
            "failures": equation["failures"],
            "mf_triple": glued["ok"]}


def _suite_flop(cfg) -> dict:
    """Criterion 10: flop pullback, gluing intertwining, two-circle table."""
    return dgcat.flop_check()


def _suite_morphisms(cfg) -> dict:
    """Criterion 11: Section 10.2 morphism tables and compositions."""
    model = mf.infinite_edge_model()
    obj = mf.transform_object(model, "L", "S")
    images = {"P0": "1", "P1": "x", "P2": "x^2", "P3": "x^3",
              "P-1": "y", "P-2": "y^2", "P-3": "y^3"}
    cases = {}
    for name, image in images.items():
        phi = mf.transform_morphism(model, name, obj, obj)
        entries = {g: {h: str(c) for h, c in col.items()} for g, col in phi.entries.items()}
        cases[name] = entries == {"A": {"A": image}, "B": {"B": image}}
    comp_ok = all(mf.composition_check(model, i, j)
                  for i in range(-3, 4) for j in range(-3, 4))
    cases["compositions |i|,|j|<=3"] = comp_ok
    return {"ok": all(cases.values()), "cases": cases}


def _suite_covering(cfg) -> dict:
    """Criterion 12: covering certificates for K_P2 and the toric CY example."""
    cases = {}
    for name in ("kp2", "toriccyeg"):
        curve = tropical.load_curve(name)
        charts, certificate = tropical.covering_collection(curve, tropical.atlas(curve))
        cases[name] = {"charts": [c.label for c in charts],
                       "ok": certificate["ok"]}
    return {"ok": all(v["ok"] for v in cases.values()), "cases": cases}


SUITES = {
    "mf": _suite_mf,
    "coordinate-changes": _suite_coordinate_changes,
    "isomorphism-units": _suite_isomorphism_units,
    "potential": _suite_potential,
    "conifold": _suite_conifold,
    "divisor": _suite_divisor,
    "fiberproduct": _suite_fiberproduct,
    "natural-transformations": _suite_natural_transformations,
    "functor": _suite_functor,
    "flop": _suite_flop,
    "morphisms": _suite_morphisms,
    "covering": _suite_covering,
}
SUITE_ORDER = tuple(SUITES)


def cmd_verify(cfg: RunConfig) -> int:
    names = SUITE_ORDER if cfg.suite == "all" else (cfg.suite,)
    report = {"config": _config_echo(cfg), "suites": {}}
    for name in names:
        # inconsistent model data raises inside a suite: that suite fails
        # with the error and the rest still run
        try:
            report["suites"][name] = SUITES[name](cfg)
        except (ValueError, KeyError) as err:
            report["suites"][name] = {"ok": False, "error": f"{type(err).__name__}: {err}"}
    report["ok"] = all(s["ok"] for s in report["suites"].values())
    _emit(cfg, report)
    return 0 if report["ok"] else 1


def cmd_render(cfg: RunConfig, curve) -> int:
    atlas = tropical.atlas(curve)
    charts, _ = tropical.covering_collection(curve, atlas)
    written = list(_write_svgs(curve, charts, atlas, Path(cfg.out or ".")).values())
    _emit(cfg, {"config": _config_echo(cfg), "curve": curve.name,
                "artifacts": written, "ok": True})
    return 0


CURVE_COMMANDS = {"mirror": cmd_mirror, "transform": cmd_transform,
                  "render": cmd_render}


def main(argv=None) -> int:
    """Exit 0 on success, 1 if a mathematical check failed, 2 on bad input
    or an ``--out`` directory that cannot be written."""
    cfg = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        if cfg.out:
            Path(cfg.out).mkdir(parents=True, exist_ok=True)
        if cfg.command == "verify":
            return cmd_verify(cfg)
        try:
            curve = _load_curve(cfg)
        except CurveValidationError as err:
            _emit(cfg, {"config": _config_echo(cfg), "ok": False,
                        "errors": list(err.errors)})
            return 2
        return CURVE_COMMANDS[cfg.command](cfg, curve)
    except OSError as err:
        where = f": {err.filename}" if err.filename else ""
        sys.stderr.write(f"tropmirror: {err.strerror or err}{where}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
