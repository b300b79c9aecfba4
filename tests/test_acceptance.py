"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from lightningpoly.analysis import (
    BoundContext,
    arc_grid,
    checked_sup_error,
    fit_rate,
    fit_slope_vs_t,
    near_origin_check,
    quadrature_error_curve,
    quadrature_error_envelope,
    run_sweep,
)
from lightningpoly.approx import (
    ApproxConfig,
    build_approximation,
    clustered_poles,
    optimal_sigma,
)
from lightningpoly.corners import (
    SlitIntegralSpec,
    boundary_error,
    cauchy_slit_integral,
    concave_quadrilateral,
    curvy_l_domain,
    plan_basis,
    singular_coefficient_check,
    solve_dirichlet,
)
from lightningpoly.geometry import ray_fan
from lightningpoly.kernels import (
    KernelConfig,
    identity_residual,
    quadrature_nodes,
    trapezoid_rational,
    truncated_integral,
)


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def _linear_fit(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    slope, intercept = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ np.array([slope, intercept])
    ss = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss == 0 else 1.0 - float(np.sum(resid**2)) / ss
    return slope, r2


def test_criterion_01_integral_identities():
    t0 = time.perf_counter()
    worst_pow = worst_log = 0.0
    for alpha in (0.25, 0.5, 0.8):
        for beta in (0.0, 1.0, 1.5):
            # geometric radii on a fan of rays, and the apex
            if beta == 0.0:
                radii, n_rays = 0.92 ** np.arange(200), 3
            else:
                radii, n_rays = 0.35 ** np.arange(20), 11
            grid = np.concatenate([ray_fan(beta, radii, n_rays), [0.0]])
            assert grid.size >= 200
            # each grid takes one batched call per representation
            worst_pow = max(worst_pow, float(np.max(identity_residual(grid, alpha, 1e-12))))
            worst_log = max(worst_log,
                            float(np.max(identity_residual(grid, alpha, 1e-12, log_weighted=True))))
    elapsed = time.perf_counter() - t0
    ok = worst_pow <= 1e-10 and worst_log <= 1e-9 and elapsed < 20.0
    _report(1, "integral representations", ok,
            f"max|power|={worst_pow:.2e} max|log|={worst_log:.2e} t={elapsed:.1f}s")


def test_criterion_02_rate_beta0():
    t0 = time.perf_counter()
    records = run_sweep(0.5, 0.0, optimal_sigma(0.5, 0.0), (9, 16, 25, 36, 49, 64))
    rho, r2 = fit_rate(records)
    elapsed = time.perf_counter() - t0
    target = 2 * math.pi * math.sqrt(0.5)
    ok = abs(rho - target) <= 0.15 * target and r2 >= 0.98 and elapsed < 60.0
    _report(2, "rate on the segment", ok,
            f"rho={rho:.3f} target={target:.3f} r2={r2:.4f} t={elapsed:.1f}s")


def test_criterion_03_rate_beta1():
    t0 = time.perf_counter()
    records = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0),
                        (9, 16, 25, 36, 49, 64, 81, 100))
    rho, r2 = fit_rate(records)
    elapsed = time.perf_counter() - t0
    ok = abs(rho - math.pi) <= 0.15 * math.pi and elapsed < 90.0
    _report(3, "rate on the half-disk", ok,
            f"rho={rho:.3f} target={math.pi:.3f} r2={r2:.4f} t={elapsed:.1f}s")


def test_criterion_04_sigma_optimality():
    s_opt = optimal_sigma(0.5, 1.0)
    errs = {}
    for name, sigma in (("opt", s_opt), ("half", s_opt / 2), ("double", 2 * s_opt)):
        rec = run_sweep(0.5, 1.0, sigma, (64,))[0]
        errs[name] = rec.sup_err
    floor = 1e-13
    ordering = (errs["opt"] <= errs["half"] and errs["opt"] <= errs["double"]
                and all(e > floor for e in errs.values()))
    branch_ok = True
    details = [f"err(opt)={errs['opt']:.2e} err(half)={errs['half']:.2e} "
               f"err(2x)={errs['double']:.2e}"]
    for sigma, label in ((s_opt / 2, "half"), (2 * s_opt, "double")):
        if sigma <= s_opt:
            predicted = sigma * 0.5
        else:
            predicted = math.pi * (s_opt / sigma) * math.sqrt(2 * 1 * 0.5)
        records = run_sweep(0.5, 1.0, sigma, (16, 36, 64, 100, 144))
        rho, _ = fit_rate(records)
        branch_ok &= abs(rho - predicted) <= 0.20 * predicted
        details.append(f"rho({label})={rho:.3f} vs {predicted:.3f}")
    _report(4, "sigma optimality and branches", ordering and branch_ok,
            "; ".join(details))


def test_criterion_05_log_target():
    records_pow = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0),
                            (9, 16, 25, 36, 49, 64, 81, 100))
    rho_pow, _ = fit_rate(records_pow)
    records_log = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0),
                            (9, 16, 25, 36, 49, 64, 81, 100), target="power_log")
    rho_log, _ = fit_rate(records_log)
    ratios = [r.sup_err / (math.sqrt(r.n) * math.exp(-rho_pow * math.sqrt(r.n)))
              for r in records_log if 1e-13 < r.sup_err < 1e-2]
    spread = max(ratios) / min(ratios)
    ok = abs(rho_log - rho_pow) <= 0.20 * rho_pow and spread <= 10.0
    _report(5, "log-target rate", ok,
            f"rho_log={rho_log:.3f} rho_pow={rho_pow:.3f} ratio spread={spread:.2f}")


def test_criterion_06_quadrature_error_curves():
    alpha = 0.5
    details = []
    ok = True
    for beta in (0.5, 1.0):
        grid = arc_grid(beta, n=21)
        s_opt = optimal_sigma(alpha, beta)
        for scale in (1 / math.sqrt(2), 1.0, math.sqrt(2)):
            sigma = s_opt * scale
            h = sigma**2 * alpha**2
            eta = s_opt / sigma
            predicted = min(1.0, eta**2)
            cfgs = [KernelConfig(alpha=alpha, h=h, n_quad=math.ceil((t * 2) ** 2 / h))
                    for t in (4, 6, 8, 10, 12, 14, 16, 18, 20)]
            slope = fit_slope_vs_t(quadrature_error_curve(cfgs, "power", grid))
            good = abs(slope - predicted) <= 0.20 * predicted
            ok &= good
            details.append(f"b={beta} s={scale:.2f}opt: {slope:.3f} vs {predicted}")
    _report(6, "quadrature error curves", ok, "; ".join(details))


def test_criterion_07_near_origin_uniformity():
    alpha, beta = 0.5, 1.0
    h = 2 * (2 - beta) * math.pi**2 * alpha
    rows = []
    for t in (5.0, 10.0, 15.0):
        cfg = KernelConfig(alpha=alpha, h=h, n_quad=math.ceil((t * 2) ** 2 / h))
        rows.append(near_origin_check(cfg, beta))
    pows = [r[0] for r in rows]
    logs = [r[1] for r in rows]
    spread_p = max(pows) / min(pows)
    spread_l = max(logs) / min(logs)
    ok = spread_p < 10.0 and spread_l < 10.0
    _report(7, "near-origin uniformity", ok,
            f"spread_power={spread_p:.2f} spread_log={spread_l:.2f}")


def test_criterion_08_envelope_inequality():
    rng = np.random.RandomState(20240811)
    checked = 0
    ok = True
    while checked < 1000:
        alpha = rng.uniform(0.15, 0.85)
        beta = rng.uniform(0.0, 1.9)
        eta = rng.uniform(0.4, 2.5)
        sigma = optimal_sigma(alpha, beta) / eta
        h = sigma**2 * alpha**2
        ctx0 = BoundContext.from_parameters(alpha, beta, h, T=1.0)
        t_want = ctx0.c0 * (1.0 + rng.uniform(0.05, 2.0))
        kappa = alpha / (1 - alpha)
        n_quad = math.ceil((t_want * (kappa + 1)) ** 2 / h)
        # a KernelConfig's T, from its parameters: at some of these T the
        # trapezoid's poles, out to e^(T/(1-alpha)), leave the double range,
        # so KernelConfig would reject them, while the envelope still holds
        T = math.sqrt(n_quad * h) / (kappa + 1.0)
        ctx = BoundContext.from_parameters(alpha, beta, h, T, n_quad=n_quad)
        u = rng.uniform(0.001, 0.999)
        x = math.exp(math.log(ctx.x_star) * (1 - u))
        q, lo, hi = quadrature_error_envelope(x, ctx)
        # algebraic inequality: no tolerance
        ok &= lo <= q <= hi
        checked += 1
    _report(8, "envelope inequality (1000 random triples)", ok, f"checked={checked}")


def test_criterion_09_slit_decomposition():
    worst = 0.0
    for k in (0, 1, 2):
        for alpha in (0.25, 0.3, 0.5, 0.75):
            p0_err, p1_err = singular_coefficient_check(k, alpha, 1.0)
            worst = max(worst, p0_err, p1_err)
    spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
    closed = 2 - 2 * math.sqrt(0.5) * math.atan(1 / math.sqrt(0.5))
    gap = abs(cauchy_slit_integral(spec, -0.5) - closed)
    ok = worst <= 1e-6 and gap <= 1e-9
    _report(9, "slit-integral decomposition", ok,
            f"max jump discrepancy={worst:.2e} closed-form gap={gap:.2e}")


def test_criterion_10_laplace_experiments():
    t0 = time.perf_counter()
    quad = concave_quadrilateral()
    ns = (40, 80, 120, 160)
    errs = []
    for n in ns:
        basis = plan_basis(quad, n, "global_opt")
        sol = solve_dirichlet(quad, "re2", basis)
        errs.append(boundary_error(sol, quad, "re2"))
    slope, r2 = _linear_fit(np.sqrt(ns), -np.log(errs))
    quad_ok = min(errs) <= 1e-6 and slope > 0 and r2 >= 0.9
    curvy = curvy_l_domain()
    finals = []
    for mode in (4.0, "global_opt"):
        basis = plan_basis(curvy, 120, mode)
        sol = solve_dirichlet(curvy, "re2", basis)
        finals.append(boundary_error(sol, curvy, "re2"))
    ratio = max(finals) / min(finals)
    elapsed = time.perf_counter() - t0
    ok = quad_ok and ratio <= 10.0 and elapsed < 300.0
    _report(10, "Laplace corner experiments", ok,
            f"final={min(errs):.2e} slope={slope:.3f} r2={r2:.3f} "
            f"curvy ratio={ratio:.2f} t={elapsed:.1f}s")


def test_criterion_11_property_suite_exact_invariants():
    # the full property suite is the module test files; re-assert the
    # exact-tolerance identities here
    ok = True
    details = []
    rng = np.random.RandomState(7)
    worst_equiv = 0.0
    for _ in range(20):
        cfg = ApproxConfig(alpha=float(rng.uniform(0.15, 0.85)),
                           beta=float(rng.uniform(0.0, 1.8)),
                           sigma=float(rng.uniform(1.0, 10.0)),
                           n1=int(rng.randint(2, 40)), n2=0)
        a = clustered_poles(cfg)
        b = quadrature_nodes(cfg, np.arange(1, cfg.n1 + 1))[1]
        worst_equiv = max(worst_equiv, float(np.max(np.abs(a - b) / np.abs(a))))
    ok &= worst_equiv <= 1e-13
    details.append(f"pole formula equivalence={worst_equiv:.2e}")

    cfg = KernelConfig(alpha=0.5, h=math.pi**2, n_quad=32)
    z = 0.6 * np.exp(0.7j)
    conj_gap = abs(trapezoid_rational(complex(z).conjugate(), cfg)
                   - trapezoid_rational(complex(z), cfg).conjugate())
    ti = truncated_integral(complex(z), cfg).value
    ti_c = truncated_integral(complex(z).conjugate(), cfg).value
    conj_gap = max(conj_gap, abs(ti_c - ti.conjugate()))
    ok &= conj_gap <= 1e-13
    details.append(f"conjugate symmetry={conj_gap:.2e}")

    base = ApproxConfig(alpha=0.4, beta=0.7, sigma=3.0, n1=7, n2=0)
    lam = 2.75
    scaled = ApproxConfig(alpha=0.4, beta=0.7, sigma=3.0, n1=7, n2=0, C=lam)
    scale_gap = float(np.max(np.abs(clustered_poles(scaled) - lam * clustered_poles(base))
                             / np.abs(clustered_poles(scaled))))
    ok &= scale_gap <= 1e-15
    details.append(f"C-scaling={scale_gap:.2e}")

    worst_edge = 0.0
    for alpha in (0.2, 0.5, 0.8):
        for beta in (0.0, 0.5, 1.0, 1.5):
            sub = optimal_sigma(alpha, beta) * alpha
            sup = math.pi * math.sqrt(2 * (2 - beta) * alpha)
            worst_edge = max(worst_edge, abs(sub - sup))
    ok &= worst_edge <= 1e-12
    details.append(f"rate branch agreement={worst_edge:.2e}")
    _report(11, "property-suite exact invariants", ok, "; ".join(details))
