"""The call shapes that the benchmark's tracer (perfbench/tracing.py) relies
on: it wraps public functions by name and reads their arguments by
position, e.g. the sup-norm grid as ``sup_error``'s args[3]."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from lightningpoly import analysis
from lightningpoly.approx import ApproxConfig, optimal_sigma
from lightningpoly.kernels import KernelConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _children(spans, parent):
    return [s[0] for s in spans if s[3] == parent]


def test_sweep_cell_counts_every_sup_norm_point():
    tracing = _load_tracing()
    alpha, beta = 0.5, 1.0
    sigma = optimal_sigma(alpha, beta)
    tracer = tracing.Tracer()
    with tracer.patched():  # a count function that fails raises out of its span
        (rec,) = analysis.run_sweep(alpha, beta, sigma, [9])
    spans = tracer.spans
    assert all(end >= start for _, start, end, _ in spans)
    (checked,) = [i for i, s in enumerate(spans) if s[0] == "analysis.checked_sup_error"]
    n_sup = _children(spans, checked).count("analysis.sup_error")
    assert n_sup in (2, 3)
    assert sum(s[0] == "analysis.sup_error" for s in spans) == n_sup
    cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=rec.n1, n2=rec.n2)
    want = sum(analysis.rate_grid(cfg, refine).size for refine in range(n_sup))
    metrics = tracing.layer_metrics(spans, tracer.counts)
    assert metrics["analysis.sup_error.points"] == want
    assert metrics["analysis.sup_error.calls"] == n_sup
    assert metrics["analysis.refine_ratio"] == (1.0 if n_sup == 3 else 0.0)


def test_quadrature_curve_counts_its_grid():
    tracing = _load_tracing()
    h = optimal_sigma(0.5, 1.0) ** 2 * 0.25
    cfg = KernelConfig(alpha=0.5, h=h, n_quad=max(2, math.ceil((2 * 6) ** 2 / h)))
    grid = analysis.arc_grid(1.0, n=7)
    tracer = tracing.Tracer()
    with tracer.patched():
        ((t, err),) = rows = analysis.quadrature_error_curve([cfg], "power", grid)
    spans = tracer.spans
    assert all(end >= start for _, start, end, _ in spans)
    (check,) = [i for i, s in enumerate(spans) if s[0] == "analysis.quad_check"]
    assert sorted(_children(spans, check)) == ["kernels.reference", "kernels.trapezoid"]
    metrics = tracing.layer_metrics(spans, tracer.counts)
    assert metrics["kernels.trapezoid.terms"] == cfg.n_quad
    assert metrics["kernels.agl.evals"] == rows[0].evaluations > 0
    assert t == cfg.T and np.isfinite(err)
