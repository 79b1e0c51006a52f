"""Record report digests and per-case work from the current commit.

    python3 bench/record.py

Runs every case any seed can draw (the two Yoneda suites, the 2,000
fiber-product instances of ``verify fiberproduct --seed 0..9`` and the
whole charts document pool) and writes ``baseline.json``.  The hfp pool
runs traced so that each instance's span count can stratify the
``hfp-random`` draw.  Run it only at a commit whose reports are known to
be right: the benchmark fails every case whose report differs from it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

CHUNKS = 2  # one worker per core


def run_worker(plans, trace: bool) -> list:
    """Run each plan in its own worker, CHUNKS at a time; return all cases."""
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    jobs = []
    for i, plan in enumerate(plans):
        stem = workloads.WORK / f"record-{i}"
        Path(f"{stem}.plan.json").write_text(json.dumps(plan))
        argv = [sys.executable, str(workloads.BENCH / "worker.py"),
                f"{stem}.plan.json", f"{stem}.result.json"]
        if trace:
            argv += ["--trace", f"{stem}.trace"]
        jobs.append((stem, subprocess.Popen(argv, cwd=workloads.ROOT, env=env)))
    cases = []
    for stem, proc in jobs:
        if proc.wait() != 0:
            raise SystemExit(f"worker for {stem} exited with {proc.returncode}")
        result = json.loads(Path(f"{stem}.result.json").read_text())
        if result["setup_errors"]:
            raise SystemExit(f"setup failed: {result['setup_errors']}")
        cases += result["cases"]
    return cases


def _plan(cases, models=(), curves=()) -> dict:
    return {"models": list(models), "curves": list(curves), "cases": cases}


def main() -> int:
    yoneda = workloads.plan("yoneda-a3", 0, {})
    pool = workloads.charts_pool()
    workloads.write_documents({doc_id: (doc, case) for doc_id, doc, case in pool})
    charts = workloads.fixed_chart_cases() + [case for _, _, case in pool]
    hfp = [workloads.hfp_case(s) for s in workloads.hfp_pool()]

    cases = run_worker([yoneda, _plan(charts[0::2]), _plan(charts[1::2])], trace=False)
    cases += run_worker([_plan(hfp[i::CHUNKS]) for i in range(CHUNKS)], trace=True)

    bad = [c["key"] for c in cases if not c["ok"]]
    if bad:
        raise SystemExit(f"{len(bad)} cases are not ok, for example {bad[:5]}")
    baseline = {
        "digests": {c["key"]: c["digest"] for c in sorted(cases, key=lambda c: c["key"])},
        "work": {c["key"]: c["work"] for c in sorted(cases, key=lambda c: c["key"])
                 if c["work"] is not None},
    }
    workloads.BASELINE.write_text(json.dumps(baseline, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(baseline['digests'])} digests in {workloads.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
