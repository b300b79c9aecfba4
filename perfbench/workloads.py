"""Cell grids of the benchmark workloads and the checks on their outputs.

A *cell* is the smallest unit that yields a checked number; an *experiment*
is the group of cells one CLI invocation would run.  Each cell returns its
output row exactly as the CLI's CSV writer formats it (decimal-17 floats,
runtimes suppressed) together with the numbers its experiment's checks need.

The grids come from the README, ``scripts/run_*_experiments.py`` and the
acceptance criteria; they are fixed, and the benchmark seed only permutes the
order in which cells run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

from lightningpoly import analysis, corners
from lightningpoly.approx import optimal_sigma
from lightningpoly.kernels import KernelConfig

SQRT2 = math.sqrt(2.0)
SWEEP_N1_FIT = (9, 16, 25, 36, 49, 64, 81)
SWEEP_N1_VERIFY = (9, 16, 25, 36, 49, 64, 81, 100)
SWEEP_SIGMAS = (("opt/2", 0.5), ("opt", 1.0), ("2opt", 2.0))
QUADERR_T = (4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0)
NEARORIGIN_T = (5.0, 10.0, 15.0)
LAPLACE_N = (40, 80, 120, 160, 200, 240)

# pass thresholds of the CLI subcommands (cli.py defaults)
SWEEP_RATE_TOL, SWEEP_R2_MIN = 0.15, 0.9
QUADERR_SLOPE_TOL = 0.2
NEARORIGIN_SPREAD_MAX = 10.0
DECOMP_MAX = 1e-6
LAPLACE_FINAL_MAX = 1e-6


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class Cell:
    experiment: str
    run: Callable[[], tuple]  # () -> (csv row, payload for the checks)


@dataclass(frozen=True)
class Verdict:
    """Checked outcome of one experiment.

    ``headline_err`` feeds ``digits`` (None when the experiment has no error
    headline), ``rate_gaps`` the relative gaps between measured and predicted
    rates (None where the CLI's fit raises for too few points in the band),
    and ``cli_pass`` whether the CLI's own pass criteria hold.
    """

    headline_err: float | None
    rate_gaps: tuple
    cli_pass: bool


@dataclass(frozen=True)
class Experiment:
    name: str
    cells: tuple
    check: Callable[[list], Verdict]  # payloads in cell order -> Verdict


# ------------------------------------------------------------------ sweeps

def _sweep_experiment(alpha, beta, label, sigma, target, n1_list):
    name = f"sweep a={alpha} b={beta} sigma={label} target={target}"

    def cell(n1):
        def run():
            (rec,) = analysis.run_sweep(alpha, beta, sigma, [n1], target=target)
            rec = dataclasses.replace(rec, runtime_ms=0.0)
            return analysis.records_to_csv([rec]).splitlines()[1], rec
        return Cell(name, run)

    def check(records):
        predicted, _ = analysis.predicted_log_rate(sigma, alpha, beta, target)
        try:
            fitted, r2 = analysis.fit_rate(records)
        except ValueError:
            gap, ok = None, False
        else:
            gap = abs(fitted - predicted) / predicted
            ok = gap <= SWEEP_RATE_TOL and r2 >= SWEEP_R2_MIN
        return Verdict(max(records, key=lambda r: r.n1).sup_err, (gap,), ok)

    return Experiment(name, tuple(cell(n1) for n1 in n1_list), check)


def _sigmas(alpha, beta, factors):
    s_opt = optimal_sigma(alpha, beta)
    return [(label, s_opt * f) for label, f in factors]


def sweep_fit():
    return [_sweep_experiment(0.8, 1.5, label, sigma, "power", SWEEP_N1_FIT)
            for label, sigma in _sigmas(0.8, 1.5, SWEEP_SIGMAS)]


def sweep_verify():
    return [_sweep_experiment(0.25, beta, label, sigma, target, SWEEP_N1_VERIFY)
            for beta in (0.5, 1.5)
            for target in ("power", "power_log")
            for label, sigma in _sigmas(0.25, beta, SWEEP_SIGMAS)]


# -------------------------------------------------------------- quadrature

def _kernel_config(alpha, h, t):
    return KernelConfig(alpha=alpha, h=h,
                        n_quad=max(2, math.ceil((t / (1.0 - alpha)) ** 2 / h)))


def _quaderr_experiment(alpha, beta, target):
    name = f"quaderr a={alpha} b={beta} target={target}"
    grid = analysis.arc_grid(beta, n=31)
    s_opt = optimal_sigma(alpha, beta)
    sigmas = [s_opt / SQRT2, s_opt, s_opt * SQRT2]

    def cell(sigma, t):
        cfg = _kernel_config(alpha, sigma**2 * alpha**2, t)

        def run():
            ((t_row, err),) = analysis.quadrature_error_curve([cfg], target, grid)
            return f"{_fmt(sigma)},{_fmt(t_row)},{_fmt(err)}", (sigma, t_row, err)
        return Cell(name, run)

    def check(rows):
        gaps, ok, headline = [], True, 0.0
        for sigma in sigmas:
            curve = sorted((t, e) for s, t, e in rows if s == sigma)
            if not curve:
                continue
            headline = max(headline, curve[-1][1])
            predicted = min(1.0, (s_opt / sigma) ** 2)
            try:
                slope = analysis.fit_slope_vs_t(curve)
            except ValueError:
                gaps.append(None)
                ok = False
                continue
            gaps.append(abs(slope - predicted) / predicted)
            ok &= abs(slope - predicted) <= QUADERR_SLOPE_TOL * predicted
        return Verdict(headline, tuple(gaps), ok)

    return Experiment(name, tuple(cell(s, t) for s in sigmas for t in QUADERR_T), check)


def _nearorigin_experiment(alpha, beta):
    name = f"nearorigin a={alpha} b={beta}"
    h = 2.0 * (2.0 - beta) * math.pi**2 * alpha

    def cell(t):
        cfg = _kernel_config(alpha, h, t)

        def run():
            rp, rl = analysis.near_origin_check(cfg, beta)
            return f"{_fmt(cfg.T)},{_fmt(rp)},{_fmt(rl)}", (rp, rl)
        return Cell(name, run)

    def check(ratios):
        spreads = [max(r) / max(min(r), 1e-300) for r in zip(*ratios)]
        return Verdict(None, (), all(s < NEARORIGIN_SPREAD_MAX for s in spreads))

    return Experiment(name, tuple(cell(t) for t in NEARORIGIN_T), check)


def _decomp_experiment(k, alpha):
    name = f"decomp k={k} a={alpha:.6g}"

    def run():
        p0, p1 = corners.singular_coefficient_check(k, alpha, 1.0)
        return f"{k},{_fmt(alpha)},{_fmt(p0)},{_fmt(p1)}", max(p0, p1)

    def check(worst):
        return Verdict(worst[0], (), worst[0] <= DECOMP_MAX)

    return Experiment(name, (Cell(name, run),), check)


def quadrature():
    return ([_quaderr_experiment(a, b, target)
             for a, b, target in ((0.5, 1.0, "power"), (0.5, 1.0, "power_log"),
                                  (0.25, 1.5, "power"))]
            + [_nearorigin_experiment(a, b) for a, b in ((0.5, 1.0), (0.25, 1.5))]
            + [_decomp_experiment(k, a) for k in (0, 1, 2) for a in (0.25, 0.5, 2.0 / 3.0)])


# ----------------------------------------------------------------- laplace

def _laplace_experiment(domain, polygon, sigma_mode):
    name = f"laplace {domain} sigma={sigma_mode}"

    def cell(n):
        def run():
            basis = corners.plan_basis(polygon, n, sigma_mode)
            sol = corners.solve_dirichlet(polygon, "re2", basis)
            err = corners.boundary_error(sol, polygon, "re2")
            return (f"{n},{basis.n_columns},{_fmt(sol.residual_norm)},{_fmt(err)}",
                    err)
        return Cell(name, run)

    def check(errs):
        monotone = all(b <= 10.0 * a for a, b in zip(errs, errs[1:]))
        return Verdict(errs[-1], (), monotone and errs[-1] <= LAPLACE_FINAL_MAX)

    return Experiment(name, tuple(cell(n) for n in LAPLACE_N), check)


def laplace():
    domains = (("concave_quadrilateral", corners.concave_quadrilateral()),
               ("curvy_l_domain", corners.curvy_l_domain()))
    return [_laplace_experiment(name, poly, mode)
            for name, poly in domains for mode in (4.0, "global_opt")]


def build(workload: str, smoke: bool = False) -> list:
    """Experiments of one workload; ``smoke`` keeps the first two cells of
    each, for the reduced-size smoke test."""
    experiments = {"sweep-fit": sweep_fit, "sweep-verify": sweep_verify,
                   "quadrature": quadrature, "laplace": laplace}[workload]()
    if smoke:
        experiments = [dataclasses.replace(e, cells=e.cells[:2]) for e in experiments]
    return experiments
