"""Command-line driver: run approximation builds, rate sweeps, quadrature
error curves, near-origin checks, Laplace experiments, and slit-integral
decompositions, emitting deterministic CSV tables plus JSON summaries.

Exit codes: 0 all embedded assertions passed, 1 an assertion failed
(the failing metric is reported), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, corners
from .approx import ApproxConfig, _fmt, build_approximation, optimal_sigma, serialize
from .geometry import polygon_from_file
from .kernels import KernelConfig

__all__ = ["ExperimentConfig", "run", "main"]

COMMANDS = ("approx", "sweep", "quaderr", "nearorigin", "laplace", "decomp")


@dataclass
class ExperimentConfig:
    command: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")


def _parse_sigma(token: str, alpha: float, beta: float) -> float:
    t = str(token).strip().lower()

    def num(s: str) -> float:
        return math.sqrt(2.0) if s == "sqrt2" else float(s)

    if t == "opt":
        sigma = optimal_sigma(alpha, beta)
    elif t.startswith("opt*"):
        sigma = optimal_sigma(alpha, beta) * num(t[4:])
    elif t.startswith("opt/"):
        sigma = optimal_sigma(alpha, beta) / num(t[4:])
    else:
        sigma = float(t)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {token!r}")
    return sigma


def _finite(token, option: str) -> float:
    """``token`` as a float; NaN or infinity is an error naming the option."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{option} must be finite, got {token!r}")
    return value


def _parse_list(token, cast, option: str, what: str) -> list:
    """Comma list (or a list given to ``run``) of cast values; an empty list
    is an error naming the option."""
    if isinstance(token, (list, tuple)):
        values = [cast(v) for v in token]
    else:
        values = [cast(v) for v in str(token).split(",") if v.strip()]
    if not values:
        raise ValueError(f"{option} lists no {what}")
    return values


def _kernel_configs(alpha: float, C: float, h: float, t_list) -> list:
    """One trapezoid config per truncation T in ``t_list``: the fewest points
    n_quad (at least 2) with sqrt(n_quad*h)/(kappa+1) >= T.  alpha, h and
    every T are checked before they divide or round."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if not all(math.isfinite(t) for t in t_list):
        raise ValueError(f"T must be finite, got {t_list}")
    kap1 = 1.0 / (1.0 - alpha)
    return [KernelConfig(alpha=alpha, C=C, h=h, n_quad=max(2, math.ceil((t * kap1) ** 2 / h)))
            for t in t_list]


def _write(path, text: str):
    if path:
        Path(path).write_text(text)


def _emit_json(path, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _map_fn():
    threads = int(os.environ.get("LIGHTNING_THREADS", "1"))
    if threads > 1:
        pool = ThreadPoolExecutor(max_workers=threads)
        return lambda f, xs: list(pool.map(f, xs))
    return map


# --------------------------------------------------------------- commands

def _cmd_approx(p: dict) -> int:
    alpha, beta = float(p["alpha"]), float(p["beta"])
    sigma = _parse_sigma(p.get("sigma", "opt"), alpha, beta)
    n2 = p.get("n2")
    cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=int(p["n1"]),
                       n2=int(n2) if n2 is not None else None, C=float(p.get("C", 1.0)),
                       target=p.get("target", "power"))
    approx = build_approximation(cfg)
    err = analysis.checked_sup_error(approx, analysis.make_target(cfg.target, alpha), cfg)
    _write(p.get("out"), serialize(approx))
    rate, _ = analysis.predicted_log_rate(sigma, alpha, beta, cfg.target)
    _emit_json(p.get("json"), {
        "sup_err": err,
        "n1": cfg.n1,
        "n2": cfg.n2,
        "sigma": sigma,
        "predicted_rate": rate,
        "pass": bool(np.isfinite(err)),
    })
    return 0


def _cmd_sweep(p: dict) -> int:
    alpha, beta = float(p["alpha"]), float(p["beta"])
    sigma = _parse_sigma(p.get("sigma", "opt"), alpha, beta)
    n1_list = _parse_list(p["n1"], int, "--N1", "pole counts")
    if len(n1_list) < 4:
        raise ValueError(f"--N1 lists {len(n1_list)} pole counts; the rate fit needs >= 4")
    n2_mode = p.get("n2_mode", "auto")
    if n2_mode not in ("auto", "proportional"):
        n2_mode = int(n2_mode)
    target = p.get("target", "power")
    rate_tol = _finite(p.get("rate_tol", 0.15), "--rate-tol")
    r2_min = _finite(p.get("r2_min", 0.9), "--r2-min")
    records = analysis.run_sweep(alpha, beta, sigma, n1_list,
                                 C=float(p.get("C", 1.0)), target=target,
                                 n2_mode=n2_mode, map_fn=_map_fn())
    if not p.get("timings", False):
        records = [analysis.ConvergenceRecord(
            n1=r.n1, n2=r.n2, n=r.n, sup_err=r.sup_err,
            predicted_log_err=r.predicted_log_err, sigma=r.sigma, runtime_ms=0.0,
        ) for r in records]
    _write(p.get("csv"), analysis.records_to_csv(records))
    predicted, _ = analysis.predicted_log_rate(sigma, alpha, beta, target)
    try:
        fitted, r2 = analysis.fit_rate(records)
    except ValueError as exc:  # too few errors inside the band: a failed check
        fitted = r2 = None
        failure = f"sweep: {exc}"
    else:
        failure = f"sweep: fitted_rate {fitted:.4f} vs predicted {predicted:.4f} (r2={r2:.4f})"
    ok = fitted is not None and abs(fitted - predicted) <= rate_tol * predicted \
        and r2 >= r2_min
    _emit_json(p.get("json"), {
        "fitted_rate": fitted,
        "predicted_rate": predicted,
        "r2": r2,
        "pass": bool(ok),
    })
    if not ok:
        print(failure, file=sys.stderr)
    return 0 if ok else 1


def _cmd_quaderr(p: dict) -> int:
    alpha, beta = float(p["alpha"]), float(p["beta"])
    t_list = _parse_list(p.get("T", "4,6,8,10,12,14,16"), float, "--T", "truncations")
    if len(t_list) < 3:
        raise ValueError(f"--T lists {len(t_list)} truncations; the slope fit needs >= 3")
    target = p.get("target", "power")
    n_arc = int(p.get("arc_points", 31))
    if n_arc < 1:
        raise ValueError(f"--arc-points must be >= 1, got {n_arc}")
    grid = analysis.arc_grid(beta, n=n_arc)
    sigmas = _parse_list(p.get("sigma", "opt"), lambda t: _parse_sigma(t, alpha, beta),
                         "--sigma", "clustering parameters")
    lines = ["sigma,T,sup_err"]
    results = []
    for sigma in sigmas:
        cfgs = _kernel_configs(alpha, float(p.get("C", 1.0)), sigma**2 * alpha**2, t_list)
        rows = analysis.quadrature_error_curve(cfgs, target, grid)
        for t, e in rows:
            lines.append(f"{_fmt(sigma)},{_fmt(t)},{_fmt(e)}")
        eta = optimal_sigma(alpha, beta) / sigma
        predicted = min(1.0, eta**2)
        try:
            slope = analysis.fit_slope_vs_t(rows)
        except ValueError as exc:  # too few errors inside the band: a failed check
            print(f"quaderr: sigma {_fmt(sigma)}: {exc}", file=sys.stderr)
            slope = None
        results.append({
            "sigma": sigma,
            "slope": slope,
            "predicted": predicted,
            "pass": slope is not None and abs(slope - predicted) <= 0.2 * predicted,
            "quadrature_evaluations": sum(r.evaluations for r in rows),
        })
    _write(p.get("csv"), "\n".join(lines) + "\n")
    ok = all(r["pass"] for r in results)
    _emit_json(p.get("json"), {"curves": results, "pass": bool(ok)})
    bad = [r for r in results if r["slope"] is not None and not r["pass"]]
    if bad:
        print(f"quaderr: slope off prediction: {bad}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_nearorigin(p: dict) -> int:
    alpha, beta = float(p["alpha"]), float(p["beta"])
    h_tok = str(p.get("h", "opt")).strip().lower()
    h = 2.0 * (2.0 - beta) * math.pi**2 * alpha if h_tok == "opt" else float(h_tok)
    t_list = _parse_list(p.get("T", "5,10,15"), float, "--T", "truncations")
    lines = ["T,ratio_power,ratio_log"]
    ratios = []
    for cfg in _kernel_configs(alpha, float(p.get("C", 1.0)), h, t_list):
        check = analysis.near_origin_check(cfg, beta)
        rp, rl = check
        ratios.append((cfg.T, rp, rl, check.evaluations))
        lines.append(f"{_fmt(cfg.T)},{_fmt(rp)},{_fmt(rl)}")
    _write(p.get("csv"), "\n".join(lines) + "\n")
    rps = [r[1] for r in ratios]
    rls = [r[2] for r in ratios]
    spread_p = max(rps) / max(min(rps), 1e-300)
    spread_l = max(rls) / max(min(rls), 1e-300)
    ok = spread_p < 10.0 and spread_l < 10.0
    _emit_json(p.get("json"), {
        "rows": [{"T": t, "ratio_power": rp, "ratio_log": rl, "quadrature_evaluations": n}
                 for t, rp, rl, n in ratios],
        "spread_power": spread_p,
        "spread_log": spread_l,
        "pass": bool(ok),
    })
    if not ok:
        print(f"nearorigin: ratio spread power={spread_p:.2f} log={spread_l:.2f}",
              file=sys.stderr)
    return 0 if ok else 1


def _resolve_polygon(token: str):
    if token == "builtin:concave-quad":
        return corners.concave_quadrilateral()
    if token == "builtin:curvy-l":
        return corners.curvy_l_domain()
    return polygon_from_file(token)


def _cmd_laplace(p: dict) -> int:
    polygon = _resolve_polygon(str(p["polygon"]))
    data = str(p.get("data", "re2"))
    sig_tok = str(p.get("sigma", "opt")).strip().lower()
    if sig_tok == "opt":
        sigma_mode = "global_opt"
    elif sig_tok in ("per-corner", "per_corner"):
        sigma_mode = "per_corner"
    else:
        sigma_mode = float(sig_tok)
    n_list = _parse_list(p.get("N", "40,80,160"), int, "--N", "pole budgets")
    n2 = p.get("n2")
    weights = (_parse_list(p["weights"], lambda t: _finite(t, "--weights"), "--weights",
                           "corner weights")
               if p.get("weights") else None)
    final_req = _finite(p.get("final_err", 1e-6), "--final-err")
    lines = ["N,columns,residual_rms,boundary_sup_err"]
    errs = []
    sol = None
    for n in n_list:
        basis = corners.plan_basis(polygon, n, sigma_mode,
                                   n2=int(n2) if n2 is not None else None,
                                   corner_weights=weights)
        sol = corners.solve_dirichlet(polygon, data, basis,
                                      oversample=int(p.get("oversample", 4)))
        err = corners.boundary_error(sol, polygon, data,
                                     fine_factor=int(p.get("fine_factor", 4)))
        errs.append(err)
        lines.append(f"{n},{basis.n_columns},{_fmt(sol.residual_norm)},{_fmt(err)}")
    _write(p.get("csv"), "\n".join(lines) + "\n")
    if p.get("export") and sol is not None:
        _write(p["export"], corners.export_solution(sol))
    monotone = all(errs[i + 1] <= 10.0 * errs[i] for i in range(len(errs) - 1))
    ok = monotone and errs[-1] <= final_req
    _emit_json(p.get("json"), {
        "N": n_list,
        "boundary_err": errs,
        "final_err": errs[-1],
        "monotone_within_10x": bool(monotone),
        "pass": bool(ok),
    })
    if not ok:
        print(f"laplace: final err {errs[-1]:.3e} (required <= {final_req:.1e}), "
              f"monotone={monotone}", file=sys.stderr)
    return 0 if ok else 1


def _cmd_decomp(p: dict) -> int:
    k = int(p.get("k", 0))
    alpha = float(p["alpha"])
    w = float(p.get("W", 1.0))
    p0_err, p1_err = corners.singular_coefficient_check(k, alpha, w)
    cot = math.pi / math.tan(alpha * math.pi)
    ok = max(p0_err, p1_err) <= 1e-6
    _emit_json(p.get("json"), {
        "k": k,
        "alpha": alpha,
        "W": w,
        "P0": [-cot, -math.pi],
        "P0_discrepancy": p0_err,
        "P1_discrepancy": p1_err,
        "pass": bool(ok),
    })
    if not ok:
        print(f"decomp: discrepancy P0={p0_err:.3e} P1={p1_err:.3e}", file=sys.stderr)
    return 0 if ok else 1


_RUNNERS = {
    "approx": _cmd_approx,
    "sweep": _cmd_sweep,
    "quaderr": _cmd_quaderr,
    "nearorigin": _cmd_nearorigin,
    "laplace": _cmd_laplace,
    "decomp": _cmd_decomp,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        return _RUNNERS[config.command](config.parameters)
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


# ------------------------------------------------------------ arg parsing

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lightningpoly",
        description="Clustered-pole rational approximation experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="file of 'key = value' overrides")
        sp.add_argument("--csv", help="CSV output path")
        sp.add_argument("--json", help="JSON summary path (stdout if omitted)")

    sp = sub.add_parser("approx", help="build one approximant")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--sigma")
    sp.add_argument("--N1", dest="n1", required=True)
    sp.add_argument("--N2", dest="n2")
    sp.add_argument("--C")
    sp.add_argument("--target")
    sp.add_argument("--out", help="serialized approximant path")
    common(sp)

    sp = sub.add_parser("sweep", help="convergence-rate sweep over N1")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--sigma")
    sp.add_argument("--N1", dest="n1", required=True, help="comma list")
    sp.add_argument("--target")
    sp.add_argument("--n2-mode", dest="n2_mode")
    sp.add_argument("--C")
    sp.add_argument("--rate-tol", dest="rate_tol")
    sp.add_argument("--r2-min", dest="r2_min")
    sp.add_argument("--timings", action="store_true", default=None,
                    help="write real runtimes (breaks byte-reproducibility)")
    common(sp)

    sp = sub.add_parser("quaderr", help="trapezoid-vs-integral error curves")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--sigma", help="comma list; opt, opt*X, opt/X")
    sp.add_argument("--T", help="comma list")
    sp.add_argument("--target")
    sp.add_argument("--C")
    sp.add_argument("--arc-points", dest="arc_points")
    common(sp)

    sp = sub.add_parser("nearorigin", help="near-origin uniformity ratios")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta", required=True)
    sp.add_argument("--h")
    sp.add_argument("--T")
    sp.add_argument("--C")
    common(sp)

    sp = sub.add_parser("laplace", help="lightning Laplace solve")
    sp.add_argument("--polygon", required=True,
                    help="path, builtin:concave-quad, or builtin:curvy-l")
    sp.add_argument("--data")
    sp.add_argument("--sigma", help="opt, per-corner, or number")
    sp.add_argument("--N", help="comma list")
    sp.add_argument("--n2")
    sp.add_argument("--weights", help="per-corner multipliers")
    sp.add_argument("--oversample")
    sp.add_argument("--fine-factor", dest="fine_factor")
    sp.add_argument("--final-err", dest="final_err")
    sp.add_argument("--export", help="write final solution coefficients")
    common(sp)

    sp = sub.add_parser("decomp", help="slit-integral singular coefficients")
    sp.add_argument("--k")
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--W")
    common(sp)

    return ap


def _coerce(text: str):
    t = text.strip()
    for cast in (int, float):
        try:
            return cast(t)
        except ValueError:
            pass
    if t.lower() in ("true", "false"):
        return t.lower() == "true"
    return t


def _read_config_file(path, keys) -> dict:
    """The 'key = value' lines of a config file; each key must be one of
    ``keys``."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = _coerce(value)
    return out


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    # no option has a parser default (the runners hold them), so the flags
    # given are the non-None values; each wins over the config file, even
    # when it repeats the default
    params = {k: v for k, v in args.items() if v is not None}
    if args["config"]:
        try:
            params = {**_read_config_file(args["config"], args), **params}
        except (OSError, ValueError) as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
    command = params.pop("command")
    params.pop("config", None)
    return run(ExperimentConfig(command=command, parameters=params))


if __name__ == "__main__":
    sys.exit(main())
