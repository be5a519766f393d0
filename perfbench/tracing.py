"""Spans around calls into blowlab's five modules, recorded from outside.

Each traced function is rebound, for the length of a traced run, in the
module that looks it up at call time: ``pde`` and ``cli`` import ``phi``
by name, ``pde.run`` finds ``step`` and ``functionals`` through the
``pde`` globals, and ``cli`` reaches ``pde``, ``comparison`` and
``criticality`` through module attributes.  The package itself is not
changed.

A span is ``[name, start, end, parent index, counts]``.  Spans are kept
in memory and written out when the run ends; ``layer_metrics`` turns one
run's spans into the per-layer metrics.  Self time is a span's duration
minus the durations of its direct children (calls nest, one thread).

This module imports nothing outside the standard library, so the
orchestrator can aggregate spans without importing numpy or blowlab.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict


def _points(args, result):
    return {"points": getattr(args[0], "size", 1)}


def _nodes(args, result):
    return {"nodes": args[0].r.size}


def _ode_steps(args, result):
    return {"ode_steps": result.times.size - 1 if result is not None else 0}


def _cells(args, result):
    # From the grid shape: a wrapper per classify call would distort scan.
    return {"cells": len(result) * len(result[0]) if result else 0}


# (module, attribute, span name, counter of (args, result) -> counts)
TRACED = (
    ("blowlab.testfuncs", "phi", "testfuncs.phi", _points),
    ("blowlab.pde", "phi", "testfuncs.phi", _points),
    ("blowlab.cli", "phi", "testfuncs.phi", _points),
    ("blowlab.pde", "weighted_power_integral",
     "testfuncs.weighted_power_integral", None),
    ("blowlab.pde", "init_state", "pde.init_state", None),
    ("blowlab.pde", "step", "pde.step", _nodes),
    ("blowlab.pde", "functionals", "pde.functionals", None),
    ("blowlab.pde", "support_radius", "pde.support_radius", None),
    ("blowlab.pde", "run", "pde.run", None),
    ("blowlab.pde", "audit_inequalities", "pde.audit_inequalities", None),
    ("blowlab.comparison", "integrate_comparison",
     "comparison.integrate_comparison", _ode_steps),
    ("blowlab.criticality", "scan", "criticality.scan", _cells),
    ("blowlab.cli", "parse_config", "cli.parse_config", None),
    ("blowlab.cli", "run_experiment", "cli.run_experiment", None),
    ("blowlab.cli", "emit_region_svg", "cli.emit_region_svg", None),
)

# Root span the benchmark opens around a workload's operations.
OPS_SPAN = "bench.ops"


class Tracer:
    """Records nested spans; ``install`` rebinds TRACED, ``remove`` undoes it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, {}])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            rec = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(rec)
                if counter is not None:
                    rec[4] = counter(args, result)

        return traced

    def install(self):
        for module_name, attr, name, counter in TRACED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def remove(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def layer_metrics(spans, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced run (0 where a layer did no work).

    Durations are multiplied by ``scale``, the run's machine-speed factor.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += (end - start) * scale
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    ops_s = 0.0
    for i, (name, start, end, parent, cnt) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) * scale - child[i]
        for key, value in cnt.items():
            counts[key] += value
        if name == OPS_SPAN:
            ops_s += (end - start) * scale

    def per(num, den, unit):
        return num / den * unit if den else 0.0

    phi, wpi, step = ("testfuncs.phi", "testfuncs.weighted_power_integral",
                      "pde.step")
    ode, scan = "comparison.integrate_comparison", "criticality.scan"
    return {
        f"{phi}.calls": calls[phi],
        f"{phi}.points": counts["points"],
        f"{phi}.self_s": self_s[phi],
        f"{phi}.us_per_point": per(self_s[phi], counts["points"], 1e6),
        f"{wpi}.calls": calls[wpi],
        f"{wpi}.self_s": self_s[wpi],
        f"{wpi}.ms_per_call": per(self_s[wpi], calls[wpi], 1e3),
        f"{step}.calls": calls[step],
        f"{step}.node_updates": counts["nodes"],
        f"{step}.self_s": self_s[step],
        f"{step}.ns_per_node": per(self_s[step], counts["nodes"], 1e9),
        "pde.functionals.self_s": self_s["pde.functionals"],
        "pde.support_radius.self_s": self_s["pde.support_radius"],
        "pde.init_state.self_s": self_s["pde.init_state"],
        "pde.run.self_s": self_s["pde.run"],
        "pde.audit_inequalities.self_s": self_s["pde.audit_inequalities"],
        f"{ode}.calls": calls[ode],
        f"{ode}.self_s": self_s[ode],
        "comparison.ode_steps": counts["ode_steps"],
        f"{scan}.self_s": self_s[scan],
        "criticality.cells": counts["cells"],
        "criticality.cells_per_s": per(counts["cells"], self_s[scan], 1.0),
        "cli.parse_config.self_s": self_s["cli.parse_config"],
        "cli.run_experiment.self_s": self_s["cli.run_experiment"],
        "cli.emit_region_svg.self_s": self_s["cli.emit_region_svg"],
        # Share of the operations' time that the layer spans cover; the
        # rest is the benchmark's own loop between operations.
        "trace_attributed_frac": per(ops_s - self_s[OPS_SPAN], ops_s, 1.0),
    }
