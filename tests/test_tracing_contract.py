"""The call shapes that the benchmark's tracer (perfbench/tracing.py) relies
on: it wraps public functions by name and reads their arguments by
position, e.g. the sup-norm grid as ``sup_error``'s args[3]."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from lightningpoly import analysis, corners
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
    # the refine=1 grid once, as its even half and the rest, and the
    # refine=2 grid when the two disagree
    want = sum(analysis.rate_grid(cfg, refine).size for refine in range(1, n_sup))
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


def test_laplace_cell_counts_rows_grid_and_eval_terms():
    # the solver's misfit is evaluated outside HarmonicSolution.eval, so
    # only boundary_error's one eval per edge counts point terms; boundary
    # data is one data(complex(z)) call per point, which the tracer counts
    tracing = _load_tracing()
    poly = corners.curvy_l_domain()
    tracer = tracing.Tracer()
    with tracer.patched():
        basis = corners.plan_basis(poly, 80, 4.0)
        sol = corners.solve_dirichlet(poly, "re2", basis)
        corners.boundary_error(sol, poly, "re2")
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    n_colloc = corners._collocation(poly, basis, 4)[0].size
    n_fine = sum(zs.size for _, _, zs in corners._edge_samples(poly, basis, 4, 64))
    assert (n_colloc, n_fine, basis.n_columns) == (715, 955, 215)
    assert metrics["corners.solve.rows"] == n_colloc
    assert metrics["corners.boundary_error.points"] == n_fine
    assert metrics["corners.harmonic_eval.point_terms"] == 205325 == n_fine * basis.n_columns
    names = [s[0] for s in tracer.spans]
    assert names.count("corners.harmonic_eval") == len(poly.edges)
