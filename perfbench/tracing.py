"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` rebinds each traced function in every ``robust_recourse``
module namespace that holds it (``experiments``, ``tradeoff``, ``roar`` and
``solver`` import their own bindings), and ``Tracer.restore`` puts the
originals back. Nothing under ``src/`` changes.

Three kinds of wrapper, by how hot the function is:

* span: name, start, end, parent span and op id, kept in memory. The
  layer's self time is its span time minus the time of its child spans
  and timed calls.
* timed: call count and total time, no span (``models.mlp_forward`` runs
  a thousand times per surrogate fit). Its time is still taken out of the
  enclosing span's self time.
* counted: call count only (``adversary.best_response`` runs twice per
  ROAR iteration). Its time stays in the caller's self time.

``glm`` is not wrapped: its per-coordinate helpers are too hot to time
from outside and show up through their callers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

SPANNED = (
    "tradeoff.blended_recourse",
    "solver.optimal_robust_recourse",
    "solver.consistent_recourse",
    "solver.minimax_oracle",
    "roar.roar_recourse_batch",
    "roar.roar_recourse",
    "adversary.worst_case_shared_model",
    "surrogate.fit_local_linear",
    "models.train_logistic",
    "models.predict_label",
    "data.generate_synthetic",
    "svgplot.line_chart",
    "experiments.run_tradeoff_study",
    "experiments.run_validity_study",
    "experiments.oracle_check",
)
TIMED = ("models.mlp_forward",)
COUNTED = ("adversary.best_response",)

PACKAGE = "robust_recourse"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _grid_counters(args, kwargs) -> dict:
    """Grid points and bytes ``minimax_oracle`` scans, computed from its GridSpec.

    Base grid: ``round(2 * half_range / step) + 1`` points per free axis;
    each refinement level adds 51 per axis. Bytes count the float64 point
    matrix (d columns) and score matrix (one column per ball corner) the
    scan materialises for those points.
    """
    from robust_recourse import GridSpec

    query = _arg(args, kwargs, 0, "query")
    nbhd = _arg(args, kwargs, 1, "neighborhood")
    grid = (args[2] if len(args) > 2 else kwargs.get("grid")) or GridSpec()
    free = int((~query.immutable_mask).sum())
    step = grid.resolved_step(free or 1)
    per_axis = max(2, int(round(2.0 * grid.half_range / step)) + 1)
    points = per_axis**free + grid.refine_levels * 51**free
    corners = 2 ** (query.dim + (1 if nbhd.perturb_intercept else 0))
    return {"grid_points": points, "bytes_computed": points * (query.dim + corners) * 8}


def _observe(name, args, kwargs, result) -> dict:
    """Per-layer counters read from a call's arguments and result."""
    if name == "tradeoff.blended_recourse":
        beta = _arg(args, kwargs, 0, "tq").beta
        return {"interior_calls": int(0.0 < beta < 1.0)}
    if name == "solver.optimal_robust_recourse":
        return {"moves": len(result.trace), "saturated": int(result.saturated)}
    if name == "solver.minimax_oracle":
        return _grid_counters(args, kwargs)
    if name == "roar.roar_recourse_batch":
        return {"rows": int(np.shape(_arg(args, kwargs, 0, "x0s"))[0])}
    if name == "adversary.worst_case_shared_model":
        return {"points": int(np.atleast_2d(_arg(args, kwargs, 1, "recourses")).shape[0])}
    return {}


class Tracer:
    """In-memory spans and per-layer counters for one traced run."""

    def __init__(self):
        self.op_id = -1
        self.spans = []  # (span id, layer, start, end, parent span id, op id)
        self.durations = {name: [] for name in SPANNED}
        self.self_s = {name: 0.0 for name in SPANNED + TIMED}
        self.calls = {name: 0 for name in SPANNED + TIMED + COUNTED}
        self.counters = {}
        self._stack = []  # open spans: [span id, start, child seconds]
        self._bindings = []  # (module, attribute, original)
        self._wrappers = set()

    def set_op(self, op_id) -> None:
        self.op_id = op_id

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.spans.append((span_id, name, frame[1], end, parent, self.op_id))
                self.durations[name].append(duration)
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
            for key, value in _observe(name, args, kwargs, result).items():
                counter = f"{name}.{key}"
                self.counters[counter] = self.counters.get(counter, 0) + value
            return result

        return wrapper

    def _timed(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                if stack:
                    stack[-1][2] += duration
                self.self_s[name] += duration
                self.calls[name] += 1

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ------------------------------------------------

    def _modules(self):
        return [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        """Rebind every traced function in every package namespace holding it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        for names, make in ((SPANNED, self._span), (TIMED, self._timed), (COUNTED, self._counted)):
            for name in names:
                module_name, attr = name.split(".")
                original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                wrapper = make(name, original)
                self._wrappers.add(wrapper)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._bindings.append((module, key, original))
                            setattr(module, key, wrapper)

    def restore(self) -> None:
        """Put every original back and check that no wrapper is left bound."""
        for module, key, original in self._bindings:
            setattr(module, key, original)
        self._bindings = []
        left = [
            f"{module.__name__}.{key}"
            for module in self._modules()
            for key, value in vars(module).items()
            if any(value is w for w in self._wrappers)
        ]
        if left:
            raise RuntimeError(f"wrappers still bound after restore: {left}")

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """The per-layer metric values by name (times in the unit the name says)."""

        def pct(name, q, scale):
            d = self.durations[name]
            return float(np.percentile(d, q)) * scale if d else 0.0

        m = {}
        blend = "tradeoff.blended_recourse"
        m[f"{blend}.calls"] = self.calls[blend]
        m[f"{blend}.interior_calls"] = self.counters.get(f"{blend}.interior_calls", 0)
        m[f"{blend}.self_s"] = self.self_s[blend]
        m[f"{blend}.p50_us"] = pct(blend, 50, 1e6)
        m[f"{blend}.p99_us"] = pct(blend, 99, 1e6)
        robust = "solver.optimal_robust_recourse"
        m[f"{robust}.calls"] = self.calls[robust]
        m[f"{robust}.self_s"] = self.self_s[robust]
        m[f"{robust}.p50_us"] = pct(robust, 50, 1e6)
        m[f"{robust}.p99_us"] = pct(robust, 99, 1e6)
        m[f"{robust}.moves"] = self.counters.get(f"{robust}.moves", 0)
        m[f"{robust}.saturated"] = self.counters.get(f"{robust}.saturated", 0)
        for name in ("solver.consistent_recourse", "models.train_logistic", "models.predict_label"):
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
        oracle = "solver.minimax_oracle"
        m[f"{oracle}.calls"] = self.calls[oracle]
        m[f"{oracle}.self_s"] = self.self_s[oracle]
        m[f"{oracle}.p50_ms"] = pct(oracle, 50, 1e3)
        m[f"{oracle}.p99_ms"] = pct(oracle, 99, 1e3)
        m[f"{oracle}.grid_points"] = self.counters.get(f"{oracle}.grid_points", 0)
        m[f"{oracle}.bytes_computed"] = self.counters.get(f"{oracle}.bytes_computed", 0)
        batch = "roar.roar_recourse_batch"
        m[f"{batch}.calls"] = self.calls[batch]
        m[f"{batch}.self_s"] = self.self_s[batch]
        m[f"{batch}.rows"] = self.counters.get(f"{batch}.rows", 0)
        for name in ("roar.roar_recourse", "surrogate.fit_local_linear"):
            m[f"{name}.calls"] = self.calls[name]
            m[f"{name}.self_s"] = self.self_s[name]
            m[f"{name}.p50_ms"] = pct(name, 50, 1e3)
        shared = "adversary.worst_case_shared_model"
        m[f"{shared}.calls"] = self.calls[shared]
        m[f"{shared}.self_s"] = self.self_s[shared]
        m[f"{shared}.points"] = self.counters.get(f"{shared}.points", 0)
        m["adversary.best_response.calls"] = self.calls["adversary.best_response"]
        m["models.mlp_forward.calls"] = self.calls["models.mlp_forward"]
        m["models.mlp_forward.total_s"] = self.self_s["models.mlp_forward"]
        for name in (
            "data.generate_synthetic",
            "svgplot.line_chart",
            "experiments.run_tradeoff_study",
            "experiments.run_validity_study",
            "experiments.oracle_check",
        ):
            m[f"{name}.self_s"] = self.self_s[name]
        return m

    def write_spans(self, path: str) -> None:
        """Spans as JSON lines: id, layer, start, end, parent id, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
