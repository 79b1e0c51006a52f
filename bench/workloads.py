"""Seeded workload plans for the tropmirror benchmark.

A plan is the list of cases one pass runs, plus the shipped models and
curve documents the pass loads before its first case.  Plans depend only on
the workload name, the seed and the data recorded in ``baseline.json``, so
the same seed gives the same inputs on every commit.  Nothing here imports
``tropmirror``: the program receives only the generated inputs.

Every case an input pool can produce has a report digest recorded from the
seed commit (``record.py``), which is why the pools are finite.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
BASELINE = BENCH / "baseline.json"
# Documents are written here and passed to ``mirror --curve`` as this
# relative path, which the report echoes; the recorded digests depend on it.
CHARTS_DIR = "bench/work/charts"

WORKLOADS = ("yoneda-a3", "hfp-random", "charts")
# Full passes a run makes even when they take longer than ``--seconds``.  A
# yoneda-a3 pass takes 15-25 s, and three passes keep one slow stretch of
# the machine from setting its median.  hfp-random and charts passes take
# 9-13 s and have 200 cases each for the latency percentiles; two passes
# keep one seed of all three workloads near two minutes.
MIN_PASSES = {"yoneda-a3": 3, "hfp-random": 2, "charts": 2}

# The pairs ``verify natural-transformations`` checks.  The benchmark calls
# ``dgcat.yoneda_equivalence_check`` on each directly, because the CLI report
# keeps only each identity's verdict and drops the count of tuples checked.
YONEDA_MODELS = ("two_pants", "isotopy_pair", "circle_seidel")
YONEDA_ARITY = 3

# hfp-random draws from the instances that ``verify fiberproduct --seed b``
# checks for b in 0..9 (instance seeds b*1000 .. b*1000+199).
HFP_BASES = range(10)
HFP_PER_PASS = 200

SHIPPED_CURVES = ("pair_of_pants", "conifold", "kp2", "toriccyeg")
CONIFOLD_KS = range(-30, 31)
CONIFOLD_GAUGES = range(-3, 4)
# Positive rationals in (0, 4] with denominator at most 8, except 1 (the
# shipped document itself).
SCALES = sorted({Fraction(p, q) for q in range(1, 9) for p in range(1, 4 * q + 1)}
                - {Fraction(1)})
CHARTS_PER_FAMILY = {"conifold": 60, "kp2": 70, "toriccyeg": 70}
# Windings m^e = k*n^e - a2^e on the one bounded face (dual point 0,0) of
# kp2, which make the glued bundle O_D(k).
KP2_FACE = "0,0"
KP2_WINDINGS = {-1: -4, 0: -1, 1: 2, 2: 5}


def cli_case(argv) -> dict:
    return {"key": " ".join(argv), "kind": "cli", "argv": list(argv)}


def yoneda_case(model: str) -> dict:
    return {"key": f"yoneda {model} arity {YONEDA_ARITY}", "kind": "yoneda",
            "model": model, "arity": YONEDA_ARITY}


def hfp_case(instance: int) -> dict:
    return {"key": f"hfp {instance}", "kind": "hfp", "instance": instance}


def hfp_pool() -> list:
    return [b * 1000 + i for b in HFP_BASES for i in range(HFP_PER_PASS)]


def _scale_tag(r: Fraction) -> str:
    return f"{r.numerator}_{r.denominator}"


def conifold_document(k: int) -> dict:
    """The document ``tropical.conifold_curve(k)`` builds (a2 - a1 = k - 2)."""
    d = k - 2
    return {
        "name": f"conifold_k{k}",
        "vertices": {
            "v1": {"position": [0, 0], "edges": ["e", "y1", "z1"]},
            "v2": {"position": [0, 1], "edges": ["e", "y2", "z2"]},
        },
        "edges": {
            "e": {"ends": ["v1", "v2"], "direction": [0, 1], "a1": 0},
            "y1": {"ends": ["v1"], "direction": [-1, -d - 2]},
            "z1": {"ends": ["v1"], "direction": [1, d + 1]},
            "y2": {"ends": ["v2"], "direction": [1, 1]},
            "z2": {"ends": ["v2"], "direction": [-1, 0]},
        },
        "anchor": {"edge": "e", "left": [0, 0]},
    }


def rescaled_document(name: str, r: Fraction) -> dict:
    """A shipped curve with every vertex position multiplied by r > 0."""
    path = ROOT / "src" / "tropmirror" / "curves" / f"{name}.json"
    doc = json.loads(path.read_text())
    doc["name"] = f"{name}_x{_scale_tag(r)}"
    for vertex in doc["vertices"].values():
        vertex["position"] = [str(Fraction(c) * r) for c in vertex["position"]]
    return doc


def _mirror_case(curve: str, a1: str = None) -> dict:
    argv = ["mirror", "--format", "structured", "--curve", curve]
    if a1 is not None:
        argv += ["--a1", a1]
    return cli_case(argv)


def _conifold_entry(k: int, gauge: int):
    path = f"{CHARTS_DIR}/conifold_k{k}.json"
    return f"conifold_k{k}", conifold_document(k), _mirror_case(path, f"e={gauge}")


def _rescaled_entry(name: str, r: Fraction):
    doc = rescaled_document(name, r)
    return doc["name"], doc, _mirror_case(f"{CHARTS_DIR}/{doc['name']}.json")


def fixed_chart_cases() -> list:
    cases = [_mirror_case(name) for name in SHIPPED_CURVES]
    for m in KP2_WINDINGS.values():
        cases.append(cli_case([
            "transform", "--format", "structured", "--curve", "kp2",
            "--face", KP2_FACE, "--windings", f"e01={m},e02={m},e12={m}"]))
    cases.append(cli_case(["verify", "morphisms", "--format", "structured"]))
    return cases


def charts_pool():
    """Every (document id, document, case) a charts pass can draw."""
    entries = [_conifold_entry(k, g) for k in CONIFOLD_KS for g in CONIFOLD_GAUGES]
    entries += [_rescaled_entry(name, r) for name in ("kp2", "toriccyeg") for r in SCALES]
    return entries


def charts_documents(seed: int) -> dict:
    """Seeded sweep of distinct curve documents: {document id: (document, case)}."""
    rng = random.Random(f"charts/{seed}")
    chosen = {}
    for k in sorted(rng.sample(list(CONIFOLD_KS), CHARTS_PER_FAMILY["conifold"])):
        doc_id, doc, case = _conifold_entry(k, rng.choice(CONIFOLD_GAUGES))
        chosen[doc_id] = (doc, case)
    for name in ("kp2", "toriccyeg"):
        for r in sorted(rng.sample(SCALES, CHARTS_PER_FAMILY[name])):
            doc_id, doc, case = _rescaled_entry(name, r)
            chosen[doc_id] = (doc, case)
    return chosen


def write_documents(documents: dict) -> None:
    out = ROOT / CHARTS_DIR
    out.mkdir(parents=True, exist_ok=True)
    for doc_id, (doc, _) in documents.items():
        (out / f"{doc_id}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text())


def hfp_instances(seed: int, work: dict) -> list:
    """200 pool instances, one from each of 200 equal-size strata of recorded work.

    Stratifying by the work each instance did at the seed commit keeps the
    total work of a pass nearly the same for every seed; the ten CLI bases
    differ by 17% in work among themselves.
    """
    pool = sorted(hfp_pool(), key=lambda s: (work[f"hfp {s}"], s))
    size = len(pool) // HFP_PER_PASS
    rng = random.Random(f"hfp-random/{seed}")
    return sorted(rng.choice(pool[i * size:(i + 1) * size]) for i in range(HFP_PER_PASS))


def plan(workload: str, seed: int, baseline: dict) -> dict:
    """Cases of one pass plus what the pass loads before its first case.

    For charts this also writes the generated documents into the checkout.
    """
    rng = random.Random(f"{workload}/order/{seed}")
    models, curves = [], []
    if workload == "yoneda-a3":
        models = list(YONEDA_MODELS)
        cases = [yoneda_case(model) for model in YONEDA_MODELS]
        cases.append(cli_case(["verify", "functor", "--arity", str(YONEDA_ARITY),
                               "--format", "structured"]))
    elif workload == "hfp-random":
        cases = [hfp_case(s) for s in hfp_instances(seed, baseline["work"])]
    elif workload == "charts":
        documents = charts_documents(seed)
        write_documents(documents)
        curves = list(SHIPPED_CURVES) + [f"{CHARTS_DIR}/{d}.json" for d in documents]
        cases = fixed_chart_cases() + [case for _, case in documents.values()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return {"workload": workload, "models": models, "curves": curves, "cases": cases}
