"""One pass of a benchmark plan in a fresh interpreter.

    python3 bench/worker.py PLAN.json RESULT.json [--trace STEM]

Imports tropmirror from ``src/``, loads the plan's shipped models and curve
documents, then runs every case and records its latency, verdict, report
digest and checked count.  A case that raises is recorded as failed and
the pass goes on.  With ``--trace`` the tracer is installed before the
loads and its spans are written to STEM.spans and STEM.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _leaves(tree) -> int:
    if isinstance(tree, dict):
        return sum(_leaves(v) for v in tree.values())
    return 1


def checked_count(report: dict) -> int:
    """Identities, instances and documents one report says it checked."""
    if "identities" in report:
        # yoneda_equivalence_check counts the tuples it checks per identity;
        # the unit laws and Lemma 12.2 carry no count and count once each.
        return sum(v.get("cases", 1) for v in report["identities"].values())
    if "suites" not in report:
        return 1  # one curve document, face transform or hfp instance
    return sum(_leaves(suite.get("cases", {}))
               + suite.get("functor_equation_cases", 0)
               + suite.get("instances", 0)
               for suite in report["suites"].values())


def run_case(case: dict, cli, dgcat):
    """(verdict ok, structured report text) of one case."""
    if case["kind"] == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(case["argv"])
        text = out.getvalue()
        return code == 0 and json.loads(text).get("ok") is True, text
    if case["kind"] == "hfp":
        report = dgcat.hfp_axiom_check(case["instance"])
    else:
        report = dgcat.yoneda_equivalence_check(case["model"], arity_bound=case["arity"])
    text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    return report["ok"] is True, text


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    trace_stem = argv[3] if len(argv) > 3 and argv[2] == "--trace" else None
    plan = json.loads(Path(plan_path).read_text())

    sys.path.insert(0, str(ROOT / "src"))
    from tropmirror import ainf, cli, dgcat, tropical

    tracer = None
    if trace_stem:
        sys.path.insert(0, str(ROOT / "bench"))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    setup_errors = []
    for name in plan["models"]:
        try:
            ainf.load_model(name)
        except Exception as err:  # recorded; the run reports it as incorrect
            setup_errors.append(f"model {name}: {err!r}")
    for doc in plan["curves"]:
        try:
            tropical.load_curve(doc)
        except Exception as err:
            setup_errors.append(f"curve {doc}: {err!r}")

    first_case = time.monotonic()
    cases = []
    for case in plan["cases"]:
        spans_before = tracer.span_count() if tracer else 0
        start = time.perf_counter()
        try:
            ok, text = run_case(case, cli, dgcat)
            error = None
        except (Exception, SystemExit):
            ok, text, error = False, "", traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        checked = 0
        if text:
            checked = checked_count(json.loads(text))
        cases.append({
            "key": case["key"], "ok": ok, "ms": elapsed * 1e3, "error": error,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "checked": checked,
            "work": (tracer.span_count() - spans_before) if tracer else None,
        })
    last_verdict = time.monotonic()

    result = {
        "first_case": first_case,
        "verdict_s": last_verdict - first_case,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_errors": setup_errors,
        "cases": cases,
    }
    if tracer:
        tracer.uninstall()
        tracer.write(trace_stem)
        result["trace"] = {
            "totals": tracer.totals(),
            "counts": tracer.counts,
            "deformed_m_distinct": len(tracer.deformed_m_inputs),
            "covering_candidates": tracer.covering_candidates,
            "covering_kept": tracer.covering_kept,
        }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
