"""Command-line driver: run approximation builds, rate sweeps, quadrature
error curves, near-origin checks, Laplace experiments, and slit-integral
decompositions, emitting deterministic CSV tables plus JSON summaries.

Exit codes: 0 all embedded assertions passed, 1 an assertion failed or the
run broke down (the failing metric or the error is reported), 2 invalid
configuration.  The code comes from the phase: each runner first validates,
parsing every option and building every config (any exception there exits
2), then returns its compute step, in which any exception is a failed run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis, corners
from .approx import (ApproxConfig, _fmt, build_approximation, optimal_sigma, optimal_step,
                     serialize)
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
        if num(t[4:]) == 0.0:
            raise ValueError(f"--sigma divides opt by zero, got {token!r}")
        sigma = optimal_sigma(alpha, beta) / num(t[4:])
    else:
        sigma = float(t)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {token!r}")
    if sigma <= 0.0:  # only h = sigma^2*alpha^2 is used: -3 would run as 3
        raise ValueError(f"sigma must be positive, got {token!r}")
    return sigma


def _finite(token, option: str) -> float:
    """``token`` as a float; NaN or infinity is an error naming the option."""
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{option} must be finite, got {token!r}")
    return value


def _parse_list(token, cast, option: str, what: str, repeats: bool = False) -> list:
    """Comma list (or a list given to ``run``) of cast values; an empty list,
    or unless ``repeats`` a value given twice, is an error naming the
    option.  A repeated sample would count twice in a rate or slope fit."""
    if isinstance(token, (list, tuple)):
        values = [cast(v) for v in token]
    else:
        values = [cast(v) for v in str(token).split(",") if v.strip()]
    if not values:
        raise ValueError(f"{option} lists no {what}")
    if not repeats and len(set(values)) < len(values):
        raise ValueError(f"{option} repeats a value, got {values}")
    return values


def _write(path, text: str):
    if path:
        Path(path).write_text(text)


def _report(p: dict, payload: dict, failure: str) -> int:
    """The exit-code contract of every runner: write the JSON summary to
    ``--json`` (stdout if omitted) and return 0 if ``payload["pass"]``;
    otherwise also print ``failure`` (when not empty) to stderr and
    return 1."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if p.get("json"):
        Path(p["json"]).write_text(text)
    else:
        sys.stdout.write(text)
    if payload["pass"]:
        return 0
    if failure:
        print(failure, file=sys.stderr)
    return 1


def _threads() -> int:
    """The sweep's worker count, LIGHTNING_THREADS (1 if unset)."""
    try:
        return int(os.environ.get("LIGHTNING_THREADS", "1"))
    except ValueError as exc:
        raise ValueError(f"LIGHTNING_THREADS must be an integer: {exc}") from None


# ---------------------------------------------------------------- commands

def _cmd_approx(p: dict):
    alpha, beta = float(p["alpha"]), float(p["beta"])
    sigma = _parse_sigma(p.get("sigma", "opt"), alpha, beta)
    n2 = p.get("n2")
    cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=int(p["n1"]),
                       n2=int(n2) if n2 is not None else None, C=float(p.get("C", 1.0)),
                       target=p.get("target", "power"))

    def compute():
        approx = build_approximation(cfg)
        err = analysis.checked_sup_error(approx, analysis.make_target(cfg.target, alpha), cfg)
        _write(p.get("out"), serialize(approx))
        rate, _ = analysis.predicted_log_rate(sigma, alpha, beta, cfg.target)
        return _report(p, {"sup_err": err, "n1": cfg.n1, "n2": cfg.n2, "sigma": sigma,
                           "predicted_rate": rate, "pass": bool(np.isfinite(err))},
                       f"approx: sup_err {err} is not finite")
    return compute


def _cmd_sweep(p: dict):
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
    C = float(p.get("C", 1.0))
    # every cell's config is checked here; run_sweep builds them again
    analysis.sweep_configs(alpha, beta, sigma, n1_list, C=C, target=target, n2_mode=n2_mode)
    threads = _threads()

    def compute():
        map_fn = ThreadPoolExecutor(threads).map if threads > 1 else map
        records = analysis.run_sweep(alpha, beta, sigma, n1_list, C=C, target=target,
                                     n2_mode=n2_mode, map_fn=map_fn)
        if not p.get("timings", False):
            records = [dataclasses.replace(r, runtime_ms=0.0) for r in records]
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
        return _report(p, {"fitted_rate": fitted, "predicted_rate": predicted, "r2": r2,
                           "pass": bool(ok)}, failure)
    return compute


def _cmd_quaderr(p: dict):
    alpha, beta = float(p["alpha"]), float(p["beta"])
    t_list = _parse_list(p.get("T", "4,6,8,10,12,14,16"), float, "--T", "truncations")
    if len(t_list) < 3:
        raise ValueError(f"--T lists {len(t_list)} truncations; the slope fit needs >= 3")
    target = p.get("target", "power")
    if target not in ("power", "power_log"):
        raise ValueError(f"--target must be power or power_log, got {target!r}")
    n_arc = int(p.get("arc_points", 31))
    if n_arc < 1:
        raise ValueError(f"--arc-points must be >= 1, got {n_arc}")
    s_opt = optimal_sigma(alpha, beta)
    grid = analysis.arc_grid(beta, n=n_arc)
    sigmas = _parse_list(p.get("sigma", "opt"), lambda t: _parse_sigma(t, alpha, beta),
                         "--sigma", "clustering parameters")
    C = float(p.get("C", 1.0))
    curves = [(sigma, [KernelConfig.from_truncation(alpha, t, sigma=sigma, C=C)
                       for t in t_list]) for sigma in sigmas]

    def compute():
        lines = ["sigma,T,sup_err"]
        results = []
        for sigma, cfgs in curves:
            rows = analysis.quadrature_error_curve(cfgs, target, grid)
            for t, e in rows:
                lines.append(f"{_fmt(sigma)},{_fmt(t)},{_fmt(e)}")
            predicted = min(1.0, (s_opt / sigma)**2)
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
        # a curve with too few points in the band has printed its own line
        bad = [r for r in results if r["slope"] is not None and not r["pass"]]
        return _report(p, {"curves": results, "pass": all(r["pass"] for r in results)},
                       f"quaderr: slope off prediction: {bad}" if bad else "")
    return compute


def _cmd_nearorigin(p: dict):
    alpha, beta = float(p["alpha"]), float(p["beta"])
    h_tok = str(p.get("h", "opt")).strip().lower()
    h = optimal_step(alpha, beta) if h_tok == "opt" else float(h_tok)
    t_list = _parse_list(p.get("T", "5,10,15"), float, "--T", "truncations")
    cfgs = [KernelConfig.from_truncation(alpha, t, h, C=float(p.get("C", 1.0)))
            for t in t_list]
    for cfg in cfgs:  # the scan's double range, and beta
        analysis.BoundContext.from_quadrature(cfg, beta)

    def compute():
        lines = ["T,ratio_power,ratio_log"]
        ratios = []
        for cfg in cfgs:
            check = analysis.near_origin_check(cfg, beta)
            rp, rl = check
            ratios.append((cfg.T, rp, rl, check.evaluations))
            lines.append(f"{_fmt(cfg.T)},{_fmt(rp)},{_fmt(rl)}")
        _write(p.get("csv"), "\n".join(lines) + "\n")
        spread_p = max(r[1] for r in ratios) / max(min(r[1] for r in ratios), 1e-300)
        spread_l = max(r[2] for r in ratios) / max(min(r[2] for r in ratios), 1e-300)
        return _report(p, {
            "rows": [{"T": t, "ratio_power": rp, "ratio_log": rl, "quadrature_evaluations": n}
                     for t, rp, rl, n in ratios],
            "spread_power": spread_p,
            "spread_log": spread_l,
            "pass": bool(spread_p < 10.0 and spread_l < 10.0),
        }, f"nearorigin: ratio spread power={spread_p:.2f} log={spread_l:.2f}")
    return compute


def _resolve_polygon(token: str):
    builtin = {"builtin:concave-quad": corners.concave_quadrilateral,
               "builtin:curvy-l": corners.curvy_l_domain}.get(token)
    return builtin() if builtin else polygon_from_file(token)


def _cmd_laplace(p: dict):
    polygon = _resolve_polygon(str(p["polygon"]))
    # resolved once: a file: table is parsed here, not once per solve and check
    data = corners.builtin_boundary_data(str(p.get("data", "re2")))
    sig_tok = str(p.get("sigma", "opt")).strip().lower()
    sigma_mode = {"opt": "global_opt", "per-corner": "per_corner",
                  "per_corner": "per_corner"}.get(sig_tok) or float(sig_tok)
    n_list = _parse_list(p.get("N", "40,80,160"), int, "--N", "pole budgets")
    n2 = p.get("n2")
    # per-corner weights may repeat
    weights = (_parse_list(p["weights"], lambda t: _finite(t, "--weights"), "--weights",
                           "corner weights", repeats=True)
               if p.get("weights") else None)
    final_req = _finite(p.get("final_err", 1e-6), "--final-err")
    oversample, fine_factor = int(p.get("oversample", 4)), int(p.get("fine_factor", 4))
    corners.check_oversample(oversample)
    corners.check_fine_factor(fine_factor)
    bases = [corners.plan_basis(polygon, n, sigma_mode, n2=int(n2) if n2 is not None else None,
                                corner_weights=weights) for n in n_list]

    def compute():
        lines = ["N,columns,residual_rms,boundary_sup_err"]
        errs = []
        for n, basis in zip(n_list, bases):
            try:
                sol = corners.solve_dirichlet(polygon, data, basis, oversample=oversample)
                err = corners.boundary_error(sol, polygon, data, fine_factor=fine_factor)
            except Exception as exc:  # a breakdown at this N fails the run, no CSV
                return _report(p, {"N": n_list, "boundary_err": errs, "failed_at_N": n,
                                   "error": str(exc), "pass": False},
                               f"laplace: solver failed at N={n}: {exc}")
            errs.append(err)
            lines.append(f"{n},{basis.n_columns},{_fmt(sol.residual_norm)},{_fmt(err)}")
        _write(p.get("csv"), "\n".join(lines) + "\n")
        if p.get("export"):
            _write(p["export"], corners.export_solution(sol))
        monotone = all(errs[i + 1] <= 10.0 * errs[i] for i in range(len(errs) - 1))
        return _report(p, {
            "N": n_list,
            "boundary_err": errs,
            "final_err": errs[-1],
            "monotone_within_10x": monotone,
            "pass": bool(monotone and errs[-1] <= final_req),
        }, f"laplace: final err {errs[-1]:.3e} (required <= {final_req:.1e}), "
           f"monotone={monotone}")
    return compute


def _cmd_decomp(p: dict):
    k = int(p.get("k", 0))
    alpha = float(p["alpha"])
    w = float(p.get("W", 1.0))
    corners.SlitIntegralSpec(k=k, alpha=alpha, W=w)  # singular_coefficient_check's spec

    def compute():
        p0_err, p1_err = corners.singular_coefficient_check(k, alpha, w)
        cot = math.pi / math.tan(alpha * math.pi)
        return _report(p, {"k": k, "alpha": alpha, "W": w, "P0": [-cot, -math.pi],
                           "P0_discrepancy": p0_err, "P1_discrepancy": p1_err,
                           "pass": bool(max(p0_err, p1_err) <= 1e-6)},
                       f"decomp: discrepancy P0={p0_err:.3e} P1={p1_err:.3e}")
    return compute


# each runner, and what its compute step reports when it raises
_RUNNERS = {
    "approx": (_cmd_approx, "approximation"),
    "sweep": (_cmd_sweep, "approximation"),
    "quaderr": (_cmd_quaderr, "reference quadrature"),
    "nearorigin": (_cmd_nearorigin, "reference quadrature"),
    "laplace": (_cmd_laplace, "solver"),
    "decomp": (_cmd_decomp, "reference quadrature"),
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code: 2 if its
    validation raises, else its compute step's code, and 1 with the JSON
    summary (and no CSV) if that raises."""
    p = config.parameters
    runner, work = _RUNNERS[config.command]
    try:
        for key in ("csv", "json", "out", "export"):  # written only after the work
            if p.get(key) and not Path(p[key]).parent.is_dir():
                raise ValueError(f"--{key}: {Path(p[key]).parent} is not a directory")
        compute = runner(p)
    except Exception as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    try:
        return compute()
    except Exception as exc:
        return _report(p, {"error": str(exc), "pass": False},
                       f"{config.command}: {work} failed: {exc}")


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
