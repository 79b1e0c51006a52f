"""Spans around the public functions of each tropmirror layer.

The tracer is installed from the benchmark, not from the program: it
replaces each target function or method with a wrapper, and ``uninstall``
puts the originals back.  A span records its name, start, end and the span
that was open when it began; spans stay in memory until ``write``.  A
layer's self time is its span's duration minus the time its child spans
cover.  ``AreaExp.__hash__`` runs millions of times and ``Chart.deformed``
only feeds a ratio, so both are counted without spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, attribute path, metric name); metric names are <module>.<name>.
SPANS = (
    ("ainf", "AInfLocalModel.deformed_m", "AInfLocalModel.deformed_m"),
    ("ainf", "solve_isomorphism", "solve_isomorphism"),
    ("ainf", "CoordinateChange.substitute", "CoordinateChange.substitute"),
    ("ainf", "load_model", "load_model"),
    ("symbolic", "SymPoly.__mul__", "SymPoly.mul"),
    ("symbolic", "SymPoly.substitute", "SymPoly.substitute"),
    ("symbolic", "SymPoly.normalize", "SymPoly.normalize"),
    ("dgcat", "ModelOps.m", "ModelOps.m"),
    ("dgcat", "PreNatTransform.component", "PreNatTransform.component"),
    ("dgcat", "functor_equation_residuals", "functor_equation_residuals"),
    ("dgcat", "yoneda_equivalence_check", "yoneda_equivalence_check"),
    ("dgcat", "DgPiece.compose", "DgPiece.compose"),
    ("dgcat", "HomotopyFiberProduct.compose", "HomotopyFiberProduct.compose"),
    ("dgcat", "HomotopyFiberProduct.d", "HomotopyFiberProduct.d"),
    ("dgcat", "random_hfp_instance", "random_hfp_instance"),
    ("tropical", "covering_collection", "covering_collection"),
    ("tropical", "covering_certificate", "covering_certificate"),
    ("tropical", "stratum_interval", "stratum_interval"),
    ("tropical", "transition_map", "transition_map"),
    ("tropical", "cocycle_check", "cocycle_check"),
    ("tropical", "global_potential_check", "global_potential_check"),
    ("lpoly", "MonomialMap.substitute", "MonomialMap.substitute"),
    ("lpoly", "MonomialMap.compose", "MonomialMap.compose"),
    ("lpoly", "LaurentPoly.__mul__", "LaurentPoly.mul"),
    ("novikov", "NovikovSeries.__mul__", "NovikovSeries.mul"),
    ("mf", "check_mf", "check_mf"),
    ("mf", "transform_object", "transform_object"),
    ("mf", "glue_objects", "glue_objects"),
    ("mf", "composition_check", "composition_check"),
    ("cli", "main", "main"),
)
COUNTS = (
    ("symbolic", "AreaExp.__hash__", "AreaExp.hash"),
    ("tropical", "Chart.deformed", "Chart.deformed"),
)
TRACED_SUITES = ("functor", "morphisms")


def _freeze_poly(poly):
    # Plain tuples, so building the key never calls AreaExp.__hash__.
    return tuple(sorted(
        ((area.coeffs, area.const), mono, scalar)
        for (area, mono), scalar in poly.terms.items()))


def deformed_m_key(model, inputs, obj=None):
    """Canonical hashable form of one ``deformed_m`` call."""
    elements = tuple(
        tuple(sorted((g, _freeze_poly(c)) for g, c in element.items()))
        for element in inputs)
    return model.name, elements, obj


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.total_s = []
        self.counts = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.deformed_m_inputs = set()
        self.covering_candidates = 0
        self.covering_kept = 0
        self._stack = []
        self._patches = []

    # -- installation ---------------------------------------------------------

    def install(self):
        modules = {name.split(".", 1)[1]: module for name, module in sys.modules.items()
                   if name.startswith("tropmirror.")}
        for mod, path, name in SPANS:
            metric = f"{mod}.{name}"
            if metric == "ainf.AInfLocalModel.deformed_m":
                make = functools.partial(self._span, metric, self._on_deformed_m)
            elif metric == "tropical.covering_collection":
                make = functools.partial(self._covering_span, metric)
            else:
                make = functools.partial(self._span, metric, None)
            self._patch(modules, mod, path, make)
        for mod, path, name in COUNTS:
            self._patch(modules, mod, path, functools.partial(self._count, f"{mod}.{name}"))
        suites = modules["cli"].SUITES
        for suite in TRACED_SUITES:
            original = suites[suite]
            suites[suite] = self._span(f"cli.SUITES.{suite}", None, original)
            self._patches.append((suites, suite, original, True))

    def _patch(self, modules, mod, path, make):
        owner = modules[mod]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = vars(owner)[parts[-1]]
        wrapper = make(original)
        # operator aliases (__rmul__ = __mul__) and names imported into other
        # modules (dgcat's solve_isomorphism) must see the wrapper too
        for target in [owner] if isinstance(owner, type) else modules.values():
            for alias, value in list(vars(target).items()):
                if value is original:
                    setattr(target, alias, wrapper)
                    self._patches.append((target, alias, original, False))

    def uninstall(self):
        for owner, attr, original, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def _span(self, name, before, fn):
        nid = self._name_id(name)
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                span_start[idx] = start
                span_end[idx] = end
                calls[nid] += 1
                self_s[nid] += duration - frame[1]
                total_s[nid] += duration
                if stack:
                    stack[-1][1] += duration

        return wrapper

    def _covering_span(self, name, fn):
        """Span that also counts kept deformed charts and the candidates tried."""
        traced = self._span(name, None, fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tried = counts.get("tropical.Chart.deformed", 0)
            charts, certificate = traced(*args, **kwargs)
            self.covering_candidates += counts.get("tropical.Chart.deformed", 0) - tried
            self.covering_kept += sum(1 for c in charts if c.deformations)
            return charts, certificate

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_deformed_m(self, model, inputs, obj=None):
        self.deformed_m_inputs.add(deformed_m_key(model, inputs, obj))

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """{name: {"calls": n, "self_s": s, "total_s": s}}; recursion counts twice in total_s."""
        return {name: {"calls": calls, "self_s": self_s, "total_s": total_s}
                for name, calls, self_s, total_s
                in zip(self.names, self.calls, self.self_s, self.total_s)}

    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, stem) -> None:
        """Spans as four binary arrays in ``stem``.spans, described by ``stem``.json."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        with open(f"{stem}.spans", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "layout": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "clock": "time.perf_counter",
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump(header, fh, indent=1)
