"""Spans around calls into the library's public functions, and the per-layer
metrics computed from them.

Tracing is done from the benchmark's own files: while a traced pass runs,
``Tracer.patched()`` replaces the public functions each layer calls through
(module attributes and class methods) with wrappers that record a span
(name, start, end, parent) and exact work counts, and restores them after.
Spans stay in memory; the runner writes them out when it ends.

The ``.s`` metrics are self times, summed over one pass: a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from lightningpoly import analysis, approx, corners, geometry, kernels


def _build_counts(c, result, args, kwargs, data_calls):
    cfg = args[0]
    c["approx.build.far_poles"] += cfg.n_quad - cfg.n1
    c["approx.tail_degree"] += cfg.n2


def _eval_counts(c, result, args, kwargs, data_calls):
    self_, z = args[0], args[1]
    points = int(getattr(z, "size", 1))
    c["approx.eval.points"] += points
    c["approx.eval.pole_terms"] += points * self_.n_poles


def _sup_error_counts(c, result, args, kwargs, data_calls):
    c["analysis.sup_error.points"] += len(args[3])


def _agl_counts(c, result, args, kwargs, data_calls):
    c["kernels.agl.evals"] += result[2]


def _trapezoid_counts(c, result, args, kwargs, data_calls):
    c["kernels.trapezoid.terms"] += args[1].n_quad


def _solve_counts(c, result, args, kwargs, data_calls):
    cols = result.basis.n_columns
    c["corners.solve.rows"] += data_calls
    c["corners.solve.columns"] += cols
    c["corners.solve.lstsq_flops"] += 2 * data_calls * cols * cols


def _boundary_error_counts(c, result, args, kwargs, data_calls):
    c["corners.boundary_error.points"] += data_calls


def _harmonic_eval_counts(c, result, args, kwargs, data_calls):
    self_, z = args[0], args[1]
    c["corners.harmonic_eval.point_terms"] += int(getattr(z, "size", 1)) * self_.coeffs.size


# (owner, attribute, span name, count function); a span name is shared by
# functions that do the same job for different targets or callers
PATCHES = (
    (analysis, "run_sweep", "analysis.run_sweep", None),
    (analysis, "build_approximation", "approx.build", _build_counts),
    (analysis, "checked_sup_error", "analysis.checked_sup_error", None),
    (analysis, "sup_error", "analysis.sup_error", _sup_error_counts),
    (approx.RationalApprox, "eval", "approx.eval", _eval_counts),
    (analysis, "quadrature_error_curve", "analysis.quad_check", None),
    (analysis, "near_origin_check", "analysis.quad_check", None),
    (analysis, "truncated_integral", "kernels.reference", None),
    (analysis, "truncated_integral_log", "kernels.reference", None),
    (analysis, "trapezoid_rational", "kernels.trapezoid", _trapezoid_counts),
    (analysis, "trapezoid_rational_log", "kernels.trapezoid", _trapezoid_counts),
    (kernels, "adaptive_gauss_legendre", "kernels.agl", _agl_counts),
    (corners, "adaptive_gauss_legendre", "kernels.agl", _agl_counts),
    (corners, "cauchy_slit_integral", "corners.slit", None),
    (corners, "cauchy_slit_integral_log", "corners.slit", None),
    (corners, "plan_basis", "corners.plan_basis", None),
    (corners, "solve_dirichlet", "corners.solve", _solve_counts),
    (corners, "boundary_error", "corners.boundary_error", _boundary_error_counts),
    (corners.HarmonicSolution, "eval", "corners.harmonic_eval", _harmonic_eval_counts),
    (geometry.Edge, "point_at_arclength", "geometry.arclength", None),
    (geometry.Polygon, "contains", "geometry.contains", None),
)

# per-layer metric -> span names whose self times it sums
SELF_TIMES = {
    "approx.build.s": ("approx.build",),
    "approx.eval.s": ("approx.eval",),
    "analysis.tail_select.s": ("analysis.run_sweep",),
    "analysis.sup_error.s": ("analysis.sup_error", "analysis.checked_sup_error"),
    "analysis.quad_check.s": ("analysis.quad_check",),
    "kernels.agl.s": ("kernels.agl",),
    "kernels.reference.s": ("kernels.reference",),
    "kernels.trapezoid.s": ("kernels.trapezoid",),
    "corners.plan_basis.s": ("corners.plan_basis",),
    "corners.solve.s": ("corners.solve",),
    "corners.boundary_error.s": ("corners.boundary_error",),
    "corners.harmonic_eval.s": ("corners.harmonic_eval",),
    "corners.slit.s": ("corners.slit",),
    "geometry.arclength.s": ("geometry.arclength",),
    "geometry.contains.s": ("geometry.contains",),
}

# per-layer metric -> span name whose calls it counts
CALLS = {
    "approx.build.calls": "approx.build",
    "analysis.sup_error.calls": "analysis.sup_error",
    "kernels.agl.calls": "kernels.agl",
    "kernels.trapezoid.calls": "kernels.trapezoid",
    "corners.slit.calls": "corners.slit",
    "geometry.arclength.calls": "geometry.arclength",
    "geometry.contains.calls": "geometry.contains",
}

# exact work counts recorded by the count functions above
WORK_COUNTS = (
    "approx.build.far_poles", "approx.tail_degree", "approx.eval.points",
    "approx.eval.pole_terms", "analysis.sup_error.points", "kernels.agl.evals",
    "kernels.trapezoid.terms", "corners.solve.rows", "corners.solve.columns",
    "corners.solve.lstsq_flops", "corners.boundary_error.points",
    "corners.harmonic_eval.point_terms",
)

# count metrics that must repeat exactly between passes, runs and seeds
EXACT_COUNTS = tuple(CALLS) + WORK_COUNTS


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent index];
    the root span of each cell has parent -1."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.data_calls = 0
        self._stack = []

    def call(self, name, fn, args, kwargs, count=None):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        data_before = self.data_calls
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        if count is not None:
            count(self.counts, result, args, kwargs, self.data_calls - data_before)
        return result

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)
        return traced

    def _counting_data(self, resolve):
        # boundary data is resolved by name inside the solver; counting its
        # calls gives the exact collocation and check-grid sizes
        def resolve_counted(name):
            data = resolve(name)

            def counted(z):
                self.data_calls += 1
                return data(z)
            return counted
        return resolve_counted

    @contextmanager
    def patched(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in PATCHES]
        saved.append((corners, "builtin_boundary_data", corners.builtin_boundary_data))
        try:
            for owner, attr, name, count in PATCHES:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr], count))
            corners.builtin_boundary_data = self._counting_data(corners.builtin_boundary_data)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def layer_metrics(spans, counts) -> dict:
    """Per-layer values of one traced pass from its spans and counts."""
    self_time = Counter()
    n_calls = Counter()
    child_time = [0.0] * len(spans)
    sup_children = Counter()
    for name, start, end, parent in spans:
        n_calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
            if name == "analysis.sup_error":
                sup_children[parent] += 1
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] += (end - start) - child_time[i]
    out = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIMES.items()}
    out.update({metric: n_calls[name] for metric, name in CALLS.items()})
    out.update({metric: counts[metric] for metric in WORK_COUNTS})
    checked = [i for i, s in enumerate(spans) if s[0] == "analysis.checked_sup_error"]
    refined = sum(1 for i in checked if sup_children[i] >= 3)
    out["analysis.refine_ratio"] = refined / len(checked) if checked else 0.0
    return out
