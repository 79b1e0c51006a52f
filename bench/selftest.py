"""Self-test of the benchmark's own machinery.

    python3 bench/selftest.py

Checks that the charts generator is sound and seeded (every document
loads, no two are equal, the same seed gives the same list), that the
hfp-random draw is seeded and stays inside the recorded pool, that the
metric names fit the naming rules and match ``BENCHMARK.json``, and that two
traced passes of each workload give identical call counts.  Exits 1 on
the first failed check.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tropmirror import tropical  # noqa: E402

SEEDS = range(5)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)
    print(f"ok  {message}")


def test_charts_generator() -> None:
    for seed in SEEDS:
        documents = workloads.charts_documents(seed)
        check(documents == workloads.charts_documents(seed),
              f"charts seed {seed}: the same seed gives the same documents")
        check(len(documents) + len(workloads.SHIPPED_CURVES) >= 200,
              f"charts seed {seed}: at least 200 documents")
        for doc_id, (doc, _) in documents.items():
            tropical.load_curve(doc)  # raises CurveValidationError if malformed
        check(True, f"charts seed {seed}: every document loads")
        bodies = {json.dumps({k: v for k, v in doc.items() if k != "name"}, sort_keys=True)
                  for doc, _ in documents.values()}
        check(len(bodies) == len(documents), f"charts seed {seed}: no two documents are equal")
    check(workloads.charts_documents(0) != workloads.charts_documents(1),
          "charts: different seeds give different documents")


def test_hfp_draw(baseline: dict) -> None:
    pool = set(workloads.hfp_pool())
    for seed in SEEDS:
        drawn = workloads.hfp_instances(seed, baseline["work"])
        check(drawn == workloads.hfp_instances(seed, baseline["work"])
              and len(set(drawn)) == workloads.HFP_PER_PASS and set(drawn) <= pool,
              f"hfp-random seed {seed}: 200 distinct recorded instances, reproducibly")


def test_metric_names() -> None:
    names = list(run.END_TO_END_UNITS) + list(run.per_layer_units())
    check(all(NAME.match(n) for n in names) and len(set(names)) == len(names),
          f"{len(names)} metric names are unique and well formed")
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.per_layer_units())):
        check({m["name"]: m["unit"] for m in spec[key]} == units,
              f"BENCHMARK.json {key} lists exactly the metrics the harness reports")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the harness's workloads")


def test_trace_determinism(workload: str, baseline: dict) -> None:
    bench = run.Run(workload, 0, baseline)
    try:
        first = bench.run_pass(trace=True)
        second = bench.run_pass(trace=True)
    finally:
        bench.cleanup()
    check(bench.correct(), f"{workload}: traced passes are correct")

    def counts(result):
        trace = result["trace"]
        calls = {name: total["calls"] for name, total in trace["totals"].items()}
        return calls, trace["counts"], trace["deformed_m_distinct"], trace["covering_kept"]

    check(counts(first) == counts(second), f"{workload}: two traced passes give identical calls")


def main() -> int:
    baseline = workloads.load_baseline()
    test_charts_generator()
    test_hfp_draw(baseline)
    test_metric_names()
    for workload in workloads.WORKLOADS:
        test_trace_determinism(workload, baseline)
    return 0


if __name__ == "__main__":
    sys.exit(main())
