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
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import ainf, dgcat, mf, tropical
from .symbolic import AreaExp, SymPoly
from .tropical import CurveValidationError


@dataclass
class RunConfig:
    """Parsed invocation; a fixed config yields bit-identical reports."""

    command: str
    curve: str = None
    models: str = None
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
        out[key.strip()] = int(val)
    return out


def _parse_face(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two coordinates, got {text!r}")
    return tuple(Fraction(p.strip()) for p in parts)


def parse_args(argv) -> RunConfig:
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
        p.add_argument("--models", help="directory with curve/model JSON documents")
        p.add_argument("--a1", type=_parse_kv_ints, default={},
                       help="edge gauge overrides, e.g. e=1,f=0")
        return output(p)

    curve_input(sub.add_parser("mirror", help="construct the mirror of a curve"))

    p_trans = curve_input(sub.add_parser("transform", help="divisor line bundle of a face"))
    p_trans.add_argument("--face", type=_parse_face, required=True,
                         help="dual point of the face, e.g. 0,0")
    p_trans.add_argument("--windings", type=_parse_kv_ints, default={},
                         help="winding integers per finite edge, e.g. e=2")

    p_verify = output(sub.add_parser("verify", help="run acceptance-criteria suites"))
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--arity", type=int, default=2, choices=(2, 3))
    p_verify.add_argument("suite", nargs="?", default="all",
                          help=f"one of: {', '.join(SUITE_ORDER)}, all")

    curve_input(sub.add_parser("render", help="write SVG diagrams of a curve"))

    # flags a subcommand does not register keep the RunConfig defaults
    return RunConfig(**vars(parser.parse_args(argv)))


def _load_curve(cfg: RunConfig):
    name = cfg.curve or "pair_of_pants"
    if cfg.models:
        candidate = Path(cfg.models) / f"{name}.json"
        if candidate.exists():
            name = str(candidate)
    return tropical.load_curve(name, a1_overrides=cfg.a1 or None)


# ---------------------------------------------------------------------------
# deterministic SVG rendering
# ---------------------------------------------------------------------------

_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             'viewBox="0 0 {w} {h}">\n')


def _fmt(x) -> str:
    return f"{float(x):.2f}"


def _scaled(points, size=400, margin=40):
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
    pts = [v.position for v in curve.vertices.values()]
    for eid in sorted(curve.edges):
        e = curve.edges[eid]
        if not e.finite:
            p = curve.vertices[e.ends[0]].position
            d = e.direction
            norm = max(abs(d[0]), abs(d[1]), 1)
            pts.append((p[0] + Fraction(3, 2) * Fraction(d[0], norm),
                        p[1] + Fraction(3, 2) * Fraction(d[1], norm)))
    to_svg = _scaled(pts)
    lines = [_SVG_HEAD.format(w=400, h=400)]
    for eid in sorted(curve.edges):
        e = curve.edges[eid]
        a = curve.vertices[e.ends[0]].position
        if e.finite:
            b = curve.vertices[e.ends[1]].position
        else:
            d = e.direction
            norm = max(abs(d[0]), abs(d[1]), 1)
            b = (a[0] + Fraction(3, 2) * Fraction(d[0], norm),
                 a[1] + Fraction(3, 2) * Fraction(d[1], norm))
        (x1, y1), (x2, y2) = to_svg(a), to_svg(b)
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


def cones_svg(curve) -> str:
    """Chart cone images in the valuation plane (Section 8/9 pictures)."""
    matrices = tropical.chart_matrices(curve)
    charts, _ = dgcat.stretched_covering(curve)
    images = [(c.label, tropical.cone_image(curve, c, matrices=matrices))
              for c in charts]
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
    if cfg.format == "structured":
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    else:
        lines = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value, key=str):
                    walk(f"{prefix}{k}." if prefix else f"{k}.", value[k])
            elif isinstance(value, (list, tuple)):
                if all(not isinstance(v, (dict, list, tuple)) for v in value):
                    lines.append(f"{prefix[:-1]}: {', '.join(str(v) for v in value)}")
                else:
                    for i, v in enumerate(value):
                        walk(f"{prefix}{i}.", v)
            else:
                lines.append(f"{prefix[:-1]}: {value}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if cfg.out:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if cfg.format == "structured" else "txt"
        (out_dir / f"{cfg.command}-report.{suffix}").write_text(text)


def _write_svgs(curve, out_dir: Path) -> dict:
    """Write the curve, fan and cone diagrams; returns {file name: path}."""
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = {}
    for name, text in (("curve.svg", curve_svg(curve)),
                       ("fan.svg", fan_svg(curve)),
                       ("cones.svg", cones_svg(curve))):
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
    transitions = {}
    for eid in sorted(curve.edges):
        if not curve.edges[eid].finite:
            continue
        mm = tropical.transition_map(curve, eid)
        # expresses the ends[1]-chart variables in the ends[0] chart
        src = curve.chart_vars(curve.edges[eid].ends[1])
        transitions[eid] = {v: str(mm.image_of(v)) for v in src}
    report["transitions"] = transitions

    cocycle = tropical.cocycle_check(curve)
    potential = tropical.global_potential_check(curve)
    report["cocycle_check"] = cocycle
    report["potential_check"] = potential

    charts, certificate = dgcat.stretched_covering(curve)
    report["covering"] = {"charts": [c.label for c in charts],
                          "certificate": certificate}

    fan = tropical.dual_fan(curve)
    report["dual_fan"] = {
        "rays": [[str(c) for c in r] for r in fan.rays],
        "cones": {vid: [[str(c) for c in r] for r in rays]
                  for vid, rays in sorted(fan.cones.items())}}

    report["ok"] = bool(cocycle["ok"] and potential["ok"] and certificate["ok"])

    if cfg.out:
        report["artifacts"] = _write_svgs(curve, Path(cfg.out))

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
        bundle = mf.glue_objects(curve, cfg.face, cfg.windings, exact=True)
        data = tropical.divisor_data(curve, cfg.face, cfg.windings) \
            if bundle.coefficients else []
    except (ValueError, KeyError) as err:
        report["ok"] = False
        report["errors"] = [str(err)]
        _emit(cfg, report)
        return 2

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
    """Criterion 1: delta^2 = W Id at random rational areas, m in {0,1,2}."""
    rng = random.Random(cfg.seed)
    cases = {}
    for m in (0, 1, 2):
        model = mf.winding_strip_model(m)
        obj = mf.transform_object(model, "L", "S1")
        ok = all(mf.check_mf(obj, ainf.random_area_assignment(model, rng))[0]
                 for _ in range(10))
        w_expected = SymPoly.term(1, AreaExp.sym("A"),
                                  {"x1": 1, "y1": 1, "z1": 1})
        cases[f"m={m}"] = ok and (obj.potential - w_expected).is_zero()
    return {"ok": all(cases.values()), "cases": cases}


def _suite_coordinate_changes(cfg) -> dict:
    """Criterion 2: the Section 5/6/7 coordinate changes, exactly."""
    A = AreaExp.of
    T = SymPoly.term
    cases = {}

    model = ainf.load_model("isotopy_pair")
    change = ainf.solve_isomorphism(model, model.element([("P6", 1)]),
                                    ("x'", "y'", "z'"))
    d = A({"k1": 2, "k5": 4, "k6": 2, "k7": 3})  # 2k1+k2-k5-k6-k7 eliminated
    cases["section5"] = (
        change.solved["x'"] == T(1, d.scale(2), {"x": 1})
        and change.solved["y'"] == T(1, -d, {"y": 1})
        and change.solved["z'"] == T(1, -d, {"z": 1}))

    model = ainf.load_model("two_pants")
    change = ainf.solve_isomorphism(
        model, model.element([("P4", 1), ("Q4", -1)]), ("x'", "y'", "z'"))
    d = A({"k1": 4, "k2": 2, "k3": 2, "k5": -1, "k6": -1})
    e = A({"k1": 2, "k3": 2, "k6": -1})
    cases["section6"] = (
        change.solved["x'"] == T(1, d, {"x": -1})
        and change.solved["y'"] == T(1, -e, {"x": 1, "y": 1})
        and change.solved["z'"] == T(1, -e, {"x": 1, "z": 1}))

    model = ainf.load_model("circle_seidel")
    change = ainf.solve_isomorphism(
        model, model.element([("P1", 1), ("P2", 1)]), ("x1", "y1", "z1"))
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
        _, _, _, setup = dgcat.iso_setup(name)
        cases[name] = setup["scalar"] == scalar
    return {"ok": all(cases.values()), "cases": cases}


def _suite_potential(cfg) -> dict:
    """Criterion 4: W invariance under coordinate changes and globally."""
    cases = {}
    pairs = {"isotopy_pair": ("L0", "L1"), "two_pants": ("L", "Lt"),
             "circle_seidel": ("C", "S1")}
    for name, (src, tgt) in pairs.items():
        model = ainf.load_model(name)
        data = dgcat.ISO_DATA[name]
        change = ainf.solve_isomorphism(
            model, model.element(data["alpha"]), data["unknowns"])
        cases[f"model:{name}"] = ainf.potential_invariance(model, src, tgt, change)
    for name in ("pair_of_pants", "conifold", "kp2", "toriccyeg"):
        curve = tropical.load_curve(name)
        cases[f"curve:{name}"] = tropical.global_potential_check(curve)["ok"]
    return {"ok": all(cases.values()), "cases": cases}


def _suite_conifold(cfg) -> dict:
    """Criterion 5: the O(-k) + O(k-2) family gluing for k in {0,1,2,3}."""
    from .lpoly import LaurentPoly
    cases = {}
    for k in (0, 1, 2, 3):
        curve = tropical.conifold_curve(k)
        mm = tropical.transition_map(curve, "e", exact=True, reverse=True)
        tgt = curve.chart_vars("v2")
        cases[f"k={k}"] = (
            curve.a2("e") - curve.edges["e"].a1 == k - 2
            and mm.image_of("v1.x") == LaurentPoly.var(tgt, "v2.x", -1)
            and mm.image_of("v1.y") == LaurentPoly.monomial(tgt, [k, 0, 1])
            and mm.image_of("v1.z") == LaurentPoly.monomial(tgt, [2 - k, 1, 0])
            and tropical.global_potential_check(curve)["ok"])
    return {"ok": all(cases.values()), "cases": cases}


def _suite_divisor(cfg) -> dict:
    """Criterion 6: O_D(k) on the K_P2 face for k in {-1,0,1,2}."""
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
            bundle = mf.glue_objects(curve, face, windings, exact=True)
            expected = {eid: k * curve.affine_length(eid) for eid in finite}
            cases[f"k={k}"] = (
                tropical.line_bundle_degree(curve, face, windings) == k
                and {e: Fraction(c) for e, c in bundle.coefficients.items()} == expected
                and bundle.is_structure_sheaf == (k == 0))
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
    """Criterion 8: M1/M2 unit laws and the Lemma n0hptyeq identity."""
    cases = {}
    for name in ("two_pants", "isotopy_pair", "circle_seidel"):
        report = dgcat.yoneda_equivalence_check(name, arity_bound=cfg.arity)
        cases[name] = {tag: v["ok"] for tag, v in report["identities"].items()}
    ok = all(all(v.values()) for v in cases.values())
    return {"ok": ok, "cases": cases}


def _suite_functor(cfg) -> dict:
    """Criterion 9: Prop 13.2 functor equation on the two-chart system."""
    report = dgcat.global_functor(arity_bound=cfg.arity)
    return {"ok": report["ok"],
            "certificate": report["certificate"]["ok"],
            "charts": report["charts"],
            "functor_equation_cases": report["checks"]["functor_equation"]["cases"],
            "failures": report["checks"]["functor_equation"]["failures"],
            "mf_triple": report["mf_triple"]["ok"]}


def _suite_flop(cfg) -> dict:
    """Criterion 10: flop pullback, gluing intertwining, two-circle table."""
    return dgcat.flop_check()


def _suite_morphisms(cfg) -> dict:
    """Criterion 11: Section 10.2 morphism tables and compositions."""
    model = mf.infinite_edge_model(3)
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
        charts, certificate = tropical.covering_collection(tropical.load_curve(name))
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
    if cfg.suite != "all" and cfg.suite not in SUITES:
        sys.stderr.write(
            f"unknown suite {cfg.suite!r}; choose from: "
            f"{', '.join(SUITE_ORDER)}, all\n")
        return 2
    names = SUITE_ORDER if cfg.suite == "all" else (cfg.suite,)
    report = {"config": _config_echo(cfg), "suites": {}}
    for name in names:
        report["suites"][name] = SUITES[name](cfg)
    report["ok"] = all(s["ok"] for s in report["suites"].values())
    _emit(cfg, report)
    return 0 if report["ok"] else 1


def cmd_render(cfg: RunConfig, curve) -> int:
    written = list(_write_svgs(curve, Path(cfg.out or ".")).values())
    _emit(cfg, {"config": _config_echo(cfg), "curve": curve.name,
                "artifacts": written, "ok": True})
    return 0


CURVE_COMMANDS = {"mirror": cmd_mirror, "transform": cmd_transform,
                  "render": cmd_render}


def main(argv=None) -> int:
    cfg = parse_args(argv if argv is not None else sys.argv[1:])
    if cfg.command == "verify":
        return cmd_verify(cfg)
    try:
        curve = _load_curve(cfg)
    except CurveValidationError as err:
        _emit(cfg, {"config": _config_echo(cfg), "ok": False,
                    "errors": list(err.errors)})
        return 2
    return CURVE_COMMANDS[cfg.command](cfg, curve)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
