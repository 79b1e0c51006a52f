"""tropmirror benchmark: time to a verdict on the paper's identities.

    python3 bench/run.py --workload yoneda-a3|hfp-random|charts|all
                         --seed N --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (``worker.py``), so no
in-process cache carries over between passes.  With ``--trace 0`` the run
first sets up a few times without running cases, then repeats passes until
the next one would end after ``--seconds`` (at least the workload's
``workloads.MIN_PASSES``), and reports the end-to-end metrics as medians
over set-ups, passes and cases.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics.  Every case must
give an ``ok`` verdict and a report whose SHA-256 matches the digest
recorded at the seed commit in ``baseline.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Every pass ends within this many seconds of the run's start, so a run
# exits well inside three minutes even when a pass hangs.
RUN_LIMIT_S = 170
# Set-up-only passes at the start of a run, besides the set-up of every pass.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "case_p50_ms": "ms",
    "case_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "cases_checked": "count",
}


def per_layer_units() -> dict:
    units = {}
    for mod, _, name in tracer.SPANS:
        units[f"{mod}.{name}.calls"] = "count"
        units[f"{mod}.{name}.self_s"] = "s"
    units["ainf.AInfLocalModel.deformed_m.distinct_ratio"] = "ratio"
    units["symbolic.AreaExp.hash.calls"] = "count"
    units["tropical.covering_collection.useful_ratio"] = "ratio"
    for suite in tracer.TRACED_SUITES:
        units[f"cli.SUITES.{suite}.s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Run:
    """Passes of one workload and seed, with their correctness verdicts."""

    def __init__(self, workload: str, seed: int, baseline: dict):
        self.workload = workload
        self.digests = baseline["digests"]
        self.plan = workloads.plan(workload, seed, baseline)
        workloads.WORK.mkdir(parents=True, exist_ok=True)
        self.stem = workloads.WORK / f"{workload}-seed{seed}"
        Path(f"{self.stem}.plan.json").write_text(json.dumps(self.plan))
        Path(f"{self.stem}.setup.plan.json").write_text(json.dumps(dict(self.plan, cases=[])))
        self.start = time.monotonic()
        self.passes = []
        self.setup_samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _spawn(self, plan: str, trace: bool = False) -> dict:
        """Run the worker on one plan file; add ``wall_s`` and, if it got that far, ``setup_s``."""
        result_path = Path(f"{self.stem}.result.json")
        result_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "worker.py"), f"{self.stem}.{plan}.json", str(result_path)]
        if trace:
            argv += ["--trace", f"{self.stem}.trace"]
        env = dict(os.environ, PYTHONHASHSEED="0")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.start)
        spawned = time.monotonic()
        try:
            subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=max(remaining, 1), check=True)
            result = json.loads(result_path.read_text())
        except (subprocess.SubprocessError, OSError, ValueError) as err:
            result = {"error": repr(err), "cases": []}
        result["wall_s"] = time.monotonic() - spawned
        if "first_case" in result:
            result["setup_s"] = result["first_case"] - spawned
            self.setup_samples.append(result["setup_s"])
        return result

    def run_setup(self) -> None:
        """A pass with no cases: one more set-up sample."""
        result = self._spawn("setup.plan")
        if "error" in result:
            self.problems.append(f"set-up did not finish: {result['error']}")
        self.problems += [f"setup: {e}" for e in result.get("setup_errors", [])]

    def run_pass(self, trace: bool = False) -> dict:
        result = self._spawn("plan", trace)
        self._judge(result)
        self.passes.append(result)
        if "setup_s" in result:
            print(f"{self.workload} pass {len(self.passes)}{' traced' if trace else ''}: "
                  f"setup {result['setup_s']:.3f} s, verdict {result['verdict_s']:.3f} s",
                  file=sys.stderr)
        return result

    def _judge(self, result: dict) -> None:
        cases = result["cases"]
        self.attempted += len(self.plan["cases"])
        self.failed += len(self.plan["cases"]) - len(cases)
        if "error" in result:
            self.problems.append(f"pass did not finish: {result['error']}")
        self.problems += [f"setup: {e}" for e in result.get("setup_errors", [])]
        for case in cases:
            if case["error"]:
                problem = f"raised\n{case['error']}"
            elif not case["ok"]:
                problem = "verdict not ok"
            elif case["digest"] != self.digests.get(case["key"]):
                problem = "report digest differs from the recorded one"
            else:
                continue
            self.failed += 1
            self.problems.append(f"{case['key']}: {problem}")

    def correct(self) -> bool:
        counts = {sum(c["checked"] for c in p["cases"]) for p in self.passes}
        return not self.problems and self.failed == 0 and len(counts) == 1

    def end_to_end(self) -> dict:
        done = [p for p in self.passes if "setup_s" in p]
        if not done:
            return dict.fromkeys(END_TO_END_UNITS, 0)
        # Each case's latency is its median over the run's passes, so a few
        # seconds of machine slowdown inside one pass do not move the
        # percentiles.
        runs = {}
        for p in done:
            for c in p["cases"]:
                runs.setdefault(c["key"], []).append(c["ms"])
        latencies = [statistics.median(ms) for ms in runs.values()]
        pct = statistics.quantiles(latencies, n=100, method="inclusive") \
            if len(latencies) > 1 else latencies * 99
        return {
            "setup_s": statistics.median(self.setup_samples),
            "verdict_s": statistics.median(p["verdict_s"] for p in done),
            "case_p50_ms": pct[49],
            "case_p95_ms": pct[94],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
            "cases_checked": min(sum(c["checked"] for c in p["cases"]) for p in done),
        }

    def measure(self, seconds: int) -> dict:
        for _ in range(SETUP_SAMPLES):
            self.run_setup()
        self.run_pass()
        while "setup_s" in self.passes[-1]:
            longest = max(p["wall_s"] for p in self.passes)
            short = len(self.passes) < workloads.MIN_PASSES[self.workload]
            limit = RUN_LIMIT_S if short else min(seconds, RUN_LIMIT_S)
            if time.monotonic() - self.start + longest > limit:
                break
            self.run_pass()
        return self.end_to_end()

    def per_layer(self) -> dict:
        plain = self.run_pass()
        traced = self.run_pass(trace=True)
        metrics = dict.fromkeys(per_layer_units(), 0)
        if "trace" not in traced or "verdict_s" not in plain:
            return metrics
        trace = traced["trace"]
        for name, total in trace["totals"].items():
            if name.startswith("cli.SUITES."):
                metrics[f"{name}.s"] = total["total_s"]
            else:
                metrics[f"{name}.calls"] = total["calls"]
                metrics[f"{name}.self_s"] = total["self_s"]
        calls = metrics["ainf.AInfLocalModel.deformed_m.calls"]
        if calls:
            metrics["ainf.AInfLocalModel.deformed_m.distinct_ratio"] = \
                trace["deformed_m_distinct"] / calls
        metrics["symbolic.AreaExp.hash.calls"] = trace["counts"].get("symbolic.AreaExp.hash", 0)
        if trace["covering_candidates"]:
            metrics["tropical.covering_collection.useful_ratio"] = \
                trace["covering_kept"] / trace["covering_candidates"]
        metrics["trace.overhead_ratio"] = traced["verdict_s"] / plain["verdict_s"]
        return metrics

    def cleanup(self) -> None:
        for suffix in (".plan.json", ".setup.plan.json", ".result.json"):
            Path(f"{self.stem}{suffix}").unlink(missing_ok=True)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, baseline: dict):
    run = Run(workload, seed, baseline)
    try:
        metrics = run.per_layer() if trace else run.measure(seconds)
    finally:
        run.cleanup()
    for problem in run.problems[:10]:
        print(f"FAILED {workload}: {problem}", file=sys.stderr)
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tropmirror" / "__init__.py").is_file():
        print(f"no tropmirror source tree under {ROOT}", file=sys.stderr)
        return 2

    baseline = workloads.load_baseline()
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in names:
        run, values = run_workload(workload, args.seed, args.seconds, bool(args.trace), baseline)
        correct = correct and run.correct()
        attempted += run.attempted
        failed += run.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in values.items():
            print(f"{workload:<11} {name:<52} {value:>14.6g} {units[name]}")
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
