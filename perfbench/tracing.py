"""Spans around the public functions of each avgsamp layer, installed from outside.

Each wrapped call records ``[name, start, end, parent, info]``: the parent
is the index of the enclosing span (-1 at the root) and ``info`` holds the
counts taken at that boundary.  Spans stay in memory until the run ends.

A function imported by name (``from .x import f``) has its own binding in
the importing module, so ``install`` rebinds every avgsamp module attribute
that holds the original object.  Methods are wrapped on their classes.
A target the package no longer has raises AttributeError, so a renamed
function shows as a broken trace and not as a layer that costs nothing.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import tracemalloc

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.sites: dict[str, list[str]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, info=None):
        """fn recording one span per call; info(args, result, raised) -> dict of counts."""

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            result, raised = None, True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if info is not None:
                    rec[4] = info(args, result, raised)

        traced.__wrapped__ = fn
        return traced

    def nested(self) -> bool:
        """Every span is closed and lies inside its parent's interval."""
        for name, start, end, parent, _ in self.spans:
            if end is None or end < start:
                return False
            if parent >= 0:
                p = self.spans[parent]
                if not (p[1] <= start and end <= p[2]):
                    return False
        return True


def _peak_memory(fn):
    """fn with tracemalloc running around each call; the peak goes into the result info."""

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        measured.peaks.append(peak)
        return result

    measured.peaks = []
    return measured


def _points(args, result, raised):
    x = np.asarray(args[1])
    return {"points": int(x.size)}


def _rows(args, result, raised):
    pts = np.asarray(args[1])
    return {"points": 1 if pts.ndim == 1 else int(pts.shape[0])}


def _grid_work(args, result, raised):
    return {"work": math.prod(len(ax) for ax in args[1]) * len(args[0].terms)}


def _nodes(args, result, raised):
    return {} if raised else {"nodes": int(len(result[0]))}


def _terms(args, result, raised):
    return {} if raised else {"terms": len(result.terms)}


def _acceptance(args, result, raised):
    return {} if raised else {"acceptance": float(result.acceptance_rate)}


def svd_flops(rows: int, cols: int) -> float:
    """Thin SVD with singular vectors, Golub-Van Loan R-SVD count: 6 m n^2 + 20 n^3, m >= n."""
    m, n = max(rows, cols), min(rows, cols)
    return 6.0 * m * n * n + 20.0 * n ** 3


def _solve(args, result, raised):
    rows, cols = args[0].entries.shape
    return {"flops": svd_flops(rows, cols), "full_rank": not raised}


#: (span name, module, class or None, attribute, info)
TARGETS = [
    ("piecewise.eval", "piecewise", "PiecewisePoly1D", "__call__", _points),
    ("piecewise.convolve_box", "piecewise", "PiecewisePoly1D", "convolve_box", None),
    ("quadrature.axis_rule", "quadrature", None, "axis_rule", _nodes),
    ("mixed_space.estimate_stability", "mixed_space", None, "estimate_stability", None),
    ("mixed_space.decay_constant", "mixed_space", None, "decay_constant", None),
    ("mixed_space.synthesize", "mixed_space", None, "synthesize", _terms),
    ("mixed_space.evaluate_grid", "mixed_space", "TensorFunction", "evaluate_grid", _grid_work),
    ("mixed_space.evaluate", "mixed_space", "TensorFunction", "evaluate", _rows),
    ("mixed_space.sup_norm", "mixed_space", None, "sup_norm", None),
    ("mixed_space.mixed_norm", "mixed_space", None, "mixed_norm", None),
    ("sampling.draw_samples", "sampling", None, "draw_samples", _acceptance),
    ("sampling.convolve", "sampling", None, "convolve", None),
    ("sampling.abs_integral", "sampling", None, "abs_integral", None),
    ("reconstruction.build_sample_matrix", "reconstruction", None, "build_sample_matrix", None),
    ("reconstruction.solve", "reconstruction", None, "solve", _solve),
    ("reconstruction.beta_tilde", "reconstruction", None, "beta_tilde", None),
    ("reconstruction.empirical_success", "reconstruction", None, "empirical_success", None),
    ("bounds.report", "bounds", None, "omega_class_report", None),
    ("bounds.report", "bounds", None, "mu_class_report", None),
    ("bounds.report", "bounds", None, "concentration_class_report", None),
    ("bounds.report", "bounds", None, "reconstruction_report", None),
    ("experiments.load_config", "experiments", None, "load_config", None),
    ("experiments.run_table", "experiments", None, "run_table", None),
    ("experiments.probability_sweep", "experiments", None, "probability_sweep", None),
    ("experiments.constants_report", "experiments", None, "constants_report", None),
]


def install(tracer: Tracer) -> list:
    """Wrap every target; returns the beta_tilde peak-memory list."""
    peaks = []
    for name, modname, clsname, attr, info in TARGETS:
        mod = importlib.import_module(f"avgsamp.{modname}")
        owner = getattr(mod, clsname) if clsname else mod
        original = getattr(owner, attr)
        fn = original
        if attr == "beta_tilde":
            fn = _peak_memory(original)
            peaks = fn.peaks
        traced = tracer.wrap(name, fn, info)
        setattr(owner, attr, traced)
        sites = tracer.sites.setdefault(name, [])
        sites.append(f"avgsamp.{modname}.{clsname + '.' if clsname else ''}{attr}")
        if clsname:
            continue
        for other_name, other in sorted(sys.modules.items()):
            if other is mod or not (other_name == "avgsamp" or other_name.startswith("avgsamp.")):
                continue
            for key, val in list(vars(other).items()):
                if val is original:
                    setattr(other, key, traced)
                    sites.append(f"{other_name}.{key}")
    return peaks


#: per-layer metric -> unit
UNITS = {
    "piecewise.eval_s": "s", "piecewise.eval_calls": "count", "piecewise.eval_points": "count",
    "piecewise.convolve_box_calls": "count",
    "quadrature.axis_rule_calls": "count", "quadrature.nodes": "count",
    "mixed_space.estimate_stability_s": "s", "mixed_space.decay_constant_s": "s",
    "mixed_space.synthesize_s": "s", "mixed_space.synthesize_terms": "count",
    "mixed_space.evaluate_grid_s": "s", "mixed_space.evaluate_grid_work": "count",
    "mixed_space.evaluate_s": "s", "mixed_space.evaluate_points": "count",
    "mixed_space.sup_norm_s": "s", "mixed_space.mixed_norm_s": "s",
    "mixed_space.mixed_norm_calls": "count",
    "sampling.draw_samples_s": "s", "sampling.draw_samples_calls": "count",
    "sampling.acceptance_rate": "ratio",
    "sampling.convolve_s": "s", "sampling.convolve_calls": "count",
    "sampling.abs_integral_s": "s",
    "reconstruction.build_sample_matrix_s": "s", "reconstruction.build_sample_matrix_calls": "count",
    "reconstruction.solve_s": "s", "reconstruction.solve_calls": "count",
    "reconstruction.svd_flops": "flop", "reconstruction.full_rank_ratio": "ratio",
    "reconstruction.beta_tilde_s": "s", "reconstruction.beta_tilde_peak_mb": "MB",
    "reconstruction.empirical_success_self_s": "s",
    "experiments.run_table_self_s": "s", "experiments.probability_sweep_self_s": "s",
    "bounds.report_s": "s", "bounds.report_calls": "count",
}


def layer_metrics(spans: list[list], peaks: list[int]) -> dict[str, float]:
    """Per-layer totals over all spans; every metric in UNITS, zero when not called."""
    dur, calls, child, info = {}, {}, [0.0] * len(spans), {}
    for name, start, end, parent, extra in spans:
        dur[name] = dur.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += end - start
        for key, val in (extra or {}).items():
            info.setdefault((name, key), []).append(val)
    self_s = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

    def total(name, key):
        return float(sum(info.get((name, key), [])))

    def mean(name, key):
        vals = info.get((name, key), [])
        return float(sum(vals) / len(vals)) if vals else 0.0

    solves = calls.get("reconstruction.solve", 0)
    return {
        "piecewise.eval_s": dur.get("piecewise.eval", 0.0),
        "piecewise.eval_calls": calls.get("piecewise.eval", 0),
        "piecewise.eval_points": total("piecewise.eval", "points"),
        "piecewise.convolve_box_calls": calls.get("piecewise.convolve_box", 0),
        "quadrature.axis_rule_calls": calls.get("quadrature.axis_rule", 0),
        "quadrature.nodes": total("quadrature.axis_rule", "nodes"),
        "mixed_space.estimate_stability_s": dur.get("mixed_space.estimate_stability", 0.0),
        "mixed_space.decay_constant_s": dur.get("mixed_space.decay_constant", 0.0),
        "mixed_space.synthesize_s": dur.get("mixed_space.synthesize", 0.0),
        "mixed_space.synthesize_terms": total("mixed_space.synthesize", "terms"),
        "mixed_space.evaluate_grid_s": dur.get("mixed_space.evaluate_grid", 0.0),
        "mixed_space.evaluate_grid_work": total("mixed_space.evaluate_grid", "work"),
        "mixed_space.evaluate_s": dur.get("mixed_space.evaluate", 0.0),
        "mixed_space.evaluate_points": total("mixed_space.evaluate", "points"),
        "mixed_space.sup_norm_s": dur.get("mixed_space.sup_norm", 0.0),
        "mixed_space.mixed_norm_s": dur.get("mixed_space.mixed_norm", 0.0),
        "mixed_space.mixed_norm_calls": calls.get("mixed_space.mixed_norm", 0),
        "sampling.draw_samples_s": dur.get("sampling.draw_samples", 0.0),
        "sampling.draw_samples_calls": calls.get("sampling.draw_samples", 0),
        "sampling.acceptance_rate": mean("sampling.draw_samples", "acceptance"),
        "sampling.convolve_s": dur.get("sampling.convolve", 0.0),
        "sampling.convolve_calls": calls.get("sampling.convolve", 0),
        "sampling.abs_integral_s": dur.get("sampling.abs_integral", 0.0),
        "reconstruction.build_sample_matrix_s": dur.get("reconstruction.build_sample_matrix", 0.0),
        "reconstruction.build_sample_matrix_calls": calls.get("reconstruction.build_sample_matrix", 0),
        "reconstruction.solve_s": dur.get("reconstruction.solve", 0.0),
        "reconstruction.solve_calls": solves,
        "reconstruction.svd_flops": total("reconstruction.solve", "flops"),
        "reconstruction.full_rank_ratio": (total("reconstruction.solve", "full_rank") / solves
                                           if solves else 0.0),
        "reconstruction.beta_tilde_s": dur.get("reconstruction.beta_tilde", 0.0),
        "reconstruction.beta_tilde_peak_mb": max(peaks, default=0) / 2 ** 20,
        "reconstruction.empirical_success_self_s": self_s.get("reconstruction.empirical_success", 0.0),
        "experiments.run_table_self_s": self_s.get("experiments.run_table", 0.0),
        "experiments.probability_sweep_self_s": self_s.get("experiments.probability_sweep", 0.0),
        "bounds.report_s": dur.get("bounds.report", 0.0),
        "bounds.report_calls": calls.get("bounds.report", 0),
    }
