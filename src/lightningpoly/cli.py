"""Command-line driver: run approximation builds, rate sweeps, quadrature
error curves, near-origin checks, Laplace experiments, and slit-integral
decompositions, emitting deterministic CSV tables plus JSON summaries.

Exit codes: 0 all embedded assertions passed, 1 an assertion failed or the
run broke down (the failing metric or the error is reported), 2 invalid
configuration.  The code comes from the phase: a run first validates, parsing
every option by its entry in _OPTIONS and building every config (any exception
there exits 2), then computes, where any exception is a failed run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, corners
from .approx import (TARGETS, ApproxConfig, _fmt, build_approximation, optimal_sigma,
                     optimal_step, serialize)
from .geometry import polygon_from_file
from .kernels import KernelConfig, check_parameters

__all__ = ["ExperimentConfig", "run", "main"]


@dataclass
class ExperimentConfig:
    command: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.command not in _RUNNERS:
            raise ValueError(f"unknown command {self.command!r}")


def _parse_sigma(token: str, alpha: float, beta: float) -> float:
    t = str(token).strip().lower()

    def num(s: str) -> float:
        return math.sqrt(2.0) if s == "sqrt2" else _real(s, "--sigma")

    if t == "opt":
        sigma = optimal_sigma(alpha, beta)
    elif t.startswith("opt*"):
        sigma = optimal_sigma(alpha, beta) * num(t[4:])
    elif t.startswith("opt/"):
        if num(t[4:]) == 0.0:
            raise ValueError(f"--sigma divides opt by zero, got {token!r}")
        sigma = optimal_sigma(alpha, beta) / num(t[4:])
    else:
        sigma = _real(t, "--sigma")
    return sigma  # checked by the config it builds


# ------------------------------------------------------------ option table
# Each parser takes the value given (text from a flag or a config file, or
# any value given to run) and the option's flag; an error names the flag.

def _parser(what: str, kind=None, words=()):
    """A word of ``words`` (a dict; any case) gives its value, else the text
    cast by ``kind`` (None: the words only); else "{flag} must be {what}".
    A value given to run is parsed as its text, as a flag's would be: 1.5 is
    no integer, and True is no number."""
    def parse(token, flag: str):
        text = str(token).strip().lower()
        try:
            return words[text] if text in words else kind(text)
        except (TypeError, ValueError):  # calling a kind of None raises TypeError
            raise ValueError(f"{flag} must be {what}, got {token!r}") from None
    return parse


def _words(*names):  # one of names, in any case
    return _parser(f"{', '.join(names[:-1])} or {names[-1]}", words=dict(zip(names, names)))


_real, _integer = _parser("a number", float), _parser("an integer", int)
_boolean = _parser("true or false", words={"true": True, "false": False})


def _given(token, flag: str):  # for a runner to parse with other options
    return token


def _checked(parse, ok, rule: str):
    """``parse``, then "{flag} {rule}" unless ``ok`` holds for the value."""
    def checked(token, flag: str):
        value = parse(token, flag)
        if not ok(value):
            raise ValueError(f"{flag} {rule}, got {value!r}")
        return value
    return checked


_finite = _checked(_real, math.isfinite, "must be finite")
# a tolerance of 0 or below fails every run
_tolerance = _checked(_finite, lambda x: x > 0.0, "must be > 0")


def _output(token, flag: str):
    """A path written after the work: its directory must exist before."""
    if token and not Path(token).parent.is_dir():
        raise ValueError(f"{flag}: {Path(token).parent} is not a directory")
    return token


def _list(cast, what: str, repeats: bool = False):
    """A comma list (or a list given to run) of ``cast`` values, not empty and,
    unless ``repeats``, with no value twice: it would count twice in a fit."""
    def parse(token, flag: str) -> list:
        items = token if isinstance(token, (list, tuple)) else str(token).split(",")
        values = [cast(v, flag) for v in items if str(v).strip()]
        if not values:
            raise ValueError(f"{flag} lists no {what}")
        if not repeats and len(set(values)) < len(values):
            raise ValueError(f"{flag} repeats a value, got {values}")
        return values
    return parse


class _Option(NamedTuple):
    key: str        # the run() and --config key
    flag: str
    default: object  # parsed like a given value; None: unset, _REQUIRED: must be given
    parse: Callable  # (value, flag) -> value
    help: str


_REQUIRED = object()


def _option(flag, default, parse, help="", key=None) -> _Option:
    return _Option(key or flag[2:].replace("-", "_"), flag, default, parse, help)


_ALPHA, _BETA = _option("--alpha", _REQUIRED, _real), _option("--beta", _REQUIRED, _real)
_SIGMA = _option("--sigma", "opt", _given)
_C = _option("--C", 1.0, _real)
_TARGET = _option("--target", "power", _words(*TARGETS))
_CSV = _option("--csv", None, _output, "CSV output path")
_JSON = _option("--json", None, _output, "JSON summary path (stdout if omitted)")

# every option of every subcommand: its flag, its default and its parser
_OPTIONS = {
    "approx": (
        _ALPHA, _BETA, _SIGMA, _option("--N1", _REQUIRED, _integer, key="n1"),
        _option("--N2", None, _integer, key="n2"), _C, _TARGET,
        _option("--out", None, _output, "serialized approximant path"), _CSV, _JSON),
    "sweep": (
        _ALPHA, _BETA, _SIGMA,
        _option("--N1", _REQUIRED, _list(_integer, "pole counts"), "comma list", key="n1"),
        _TARGET, _C, _option("--rate-tol", 0.15, _tolerance),
        # no fit has r^2 above 1
        _option("--r2-min", 0.9, _checked(_finite, lambda x: x <= 1.0, "must be <= 1")),
        _option("--timings", False, _boolean, "write real runtimes (breaks byte-reproducibility)"),
        _CSV, _JSON),
    "quaderr": (
        _ALPHA, _BETA,
        _option("--sigma", "opt", _given, "comma list; opt, opt*X, opt/X"),
        _option("--T", "4,6,8,10,12,14,16", _list(_real, "truncations"), "comma list"),
        _TARGET, _C,
        _option("--arc-points", 31, _checked(_integer, lambda n: n >= 1, "must be >= 1")),
        _CSV, _JSON),
    "nearorigin": (
        _ALPHA, _BETA, _option("--h", "opt", _parser("opt or a number", float, {"opt": "opt"})),
        _option("--T", "5,10,15", _list(_real, "truncations"), "comma list"),
        _C, _CSV, _JSON),
    "laplace": (
        _option("--polygon", _REQUIRED, _given, "path, builtin:concave-quad, or builtin:curvy-l"),
        _option("--data", "re2", _given),
        _option("--sigma", "opt", _parser("opt, per-corner or a number", float, {
            "opt": "global_opt", "per-corner": "per_corner", "per_corner": "per_corner"}),
                "opt, per-corner, or number"),
        _option("--N", "40,80,160", _list(_integer, "pole budgets"), "comma list"),
        _option("--n2", None, _integer),
        # per-corner weights may repeat
        _option("--weights", None, _list(_finite, "corner weights", repeats=True),
                "per-corner multipliers"),
        _option("--oversample", 4, _integer), _option("--fine-factor", 4, _integer),
        _option("--final-err", 1e-6, _tolerance),
        _option("--export", None, _output, "write final solution coefficients"), _CSV, _JSON),
    "decomp": (
        _option("--k", 0, _integer), _ALPHA, _option("--W", 1.0, _real), _CSV, _JSON),
}


def _resolve(command: str, given: dict) -> dict:
    """Every option of ``command``, parsed once: the given value, else its
    default.  A key that no option owns, or a required option not given, fails."""
    options = _OPTIONS[command]
    unknown = sorted(set(given) - {o.key for o in options})
    if unknown:
        raise ValueError(f"{command} has no option {', '.join(map(repr, unknown))}")
    p = {}
    for o in options:
        value = o.default if given.get(o.key) is None else given[o.key]
        if value is _REQUIRED:
            raise ValueError(f"{o.flag} is required")
        p[o.key] = None if value is None else o.parse(value, o.flag)
    return p


def _write(path, text: str):
    if path:
        Path(path).write_text(text)


def _report(p: dict, payload: dict, failure: str) -> int:
    """The exit-code contract of every runner: write the JSON summary to ``--json``
    (stdout if omitted); return 0 if it passed, else print ``failure`` (if any) and 1."""
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


# ---------------------------------------------------------------- commands

def _cmd_approx(p: dict):
    alpha, beta = p["alpha"], p["beta"]
    sigma = _parse_sigma(p["sigma"], alpha, beta)
    cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=p["n1"], n2=p["n2"], C=p["C"],
                       target=p["target"])

    def compute():
        approx = build_approximation(cfg)
        err = analysis.checked_sup_error(approx, cfg)
        _write(p["out"], serialize(approx))
        rate, _ = analysis.predicted_log_rate(sigma, alpha, beta, cfg.target)
        return _report(p, {"sup_err": err, "n1": cfg.n1, "n2": cfg.n2, "sigma": sigma,
                           "predicted_rate": rate, "pass": bool(np.isfinite(err))},
                       f"approx: sup_err {err} is not finite")
    return compute


def _cmd_sweep(p: dict):
    alpha, beta = p["alpha"], p["beta"]
    sigma = _parse_sigma(p["sigma"], alpha, beta)
    n1_list = p["n1"]
    if len(n1_list) < 4:
        raise ValueError(f"--N1 lists {len(n1_list)} pole counts; the rate fit needs >= 4")
    cells = {"C": p["C"], "target": p["target"]}
    # every cell's config is checked here; run_sweep builds them again
    analysis.sweep_configs(alpha, beta, sigma, n1_list, **cells)

    def compute():
        records = analysis.run_sweep(alpha, beta, sigma, n1_list, **cells)
        if not p["timings"]:
            records = [dataclasses.replace(r, runtime_ms=0.0) for r in records]
        _write(p["csv"], analysis.records_to_csv(records))
        predicted, _ = analysis.predicted_log_rate(sigma, alpha, beta, p["target"])
        try:
            fitted, r2 = analysis.fit_rate(records)
        except ValueError as exc:  # too few errors inside the band: a failed check
            fitted = r2 = None
            failure = f"sweep: {exc}"
        else:
            failure = f"sweep: fitted_rate {fitted:.4f} vs predicted {predicted:.4f} (r2={r2:.4f})"
        ok = fitted is not None and abs(fitted - predicted) <= p["rate_tol"] * predicted \
            and r2 >= p["r2_min"]
        return _report(p, {"fitted_rate": fitted, "predicted_rate": predicted, "r2": r2,
                           "pass": bool(ok)}, failure)
    return compute


def _cmd_quaderr(p: dict):
    alpha, beta = p["alpha"], p["beta"]
    if len(p["T"]) < 3:
        raise ValueError(f"--T lists {len(p['T'])} truncations; the slope fit needs >= 3")
    s_opt = optimal_sigma(alpha, beta)
    grid = analysis.arc_grid(beta, n=p["arc_points"])
    sigmas = _list(lambda t, _: _parse_sigma(t, alpha, beta),
                   "clustering parameters")(p["sigma"], "--sigma")
    curves = [(sigma, [KernelConfig.from_truncation(alpha, t, sigma=sigma, C=p["C"])
                       for t in p["T"]]) for sigma in sigmas]

    def compute():
        lines = ["sigma,T,sup_err"]
        results = []
        for sigma, cfgs in curves:
            rows = analysis.quadrature_error_curve(cfgs, p["target"], grid)
            for t, e in rows:
                lines.append(f"{_fmt(sigma)},{_fmt(t)},{_fmt(e)}")
            predicted = min(1.0, (s_opt / sigma)**2)
            try:
                slope = analysis.fit_slope_vs_t(rows)
            except ValueError as exc:  # too few errors inside the band: a failed check
                print(f"quaderr: sigma {_fmt(sigma)}: {exc}", file=sys.stderr)
                slope = None
            results.append({"sigma": sigma, "slope": slope, "predicted": predicted,
                            "pass": slope is not None and abs(slope - predicted) <= 0.2 * predicted,
                            "quadrature_evaluations": sum(r.evaluations for r in rows)})
        _write(p["csv"], "\n".join(lines) + "\n")
        # a curve with too few points in the band has printed its own line
        bad = [r for r in results if r["slope"] is not None and not r["pass"]]
        return _report(p, {"curves": results, "pass": all(r["pass"] for r in results)},
                       f"quaderr: slope off prediction: {bad}" if bad else "")
    return compute


def _cmd_nearorigin(p: dict):
    alpha, beta = p["alpha"], p["beta"]
    h = optimal_step(alpha, beta) if p["h"] == "opt" else p["h"]
    cfgs = [KernelConfig.from_truncation(alpha, t, h, C=p["C"]) for t in p["T"]]
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
        _write(p["csv"], "\n".join(lines) + "\n")
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


def _cmd_laplace(p: dict):
    builtin = {"builtin:concave-quad": corners.concave_quadrilateral,
               "builtin:curvy-l": corners.curvy_l_domain}.get(p["polygon"])
    polygon = builtin() if builtin else polygon_from_file(str(p["polygon"]))
    # resolved once: a file: table is parsed here, not once per solve and check
    data = corners.builtin_boundary_data(str(p["data"]))
    n_list, oversample, fine_factor = p["N"], p["oversample"], p["fine_factor"]
    check_parameters(oversample=oversample, fine_factor=fine_factor)
    bases = [corners.plan_basis(polygon, n, p["sigma"], n2=p["n2"], corner_weights=p["weights"])
             for n in n_list]
    for basis in bases:  # an oversized system exits 2 here, before any solve
        corners.check_system_size(basis, oversample)

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
        _write(p["csv"], "\n".join(lines) + "\n")
        if p["export"]:
            _write(p["export"], corners.export_solution(sol))
        monotone = all(errs[i + 1] <= 10.0 * errs[i] for i in range(len(errs) - 1))
        return _report(p, {"N": n_list, "boundary_err": errs, "final_err": errs[-1],
                           "monotone_within_10x": monotone,
                           "pass": bool(monotone and errs[-1] <= p["final_err"])},
                       f"laplace: final err {errs[-1]:.3e} (required <= {p['final_err']:.1e}), "
                       f"monotone={monotone}")
    return compute


_DECOMP_TOL = 1e-6  # the largest discrepancy decomp passes


def _cmd_decomp(p: dict):
    k, alpha, w = p["k"], p["alpha"], p["W"]
    # validates the spec; grows with k, and near an integer is above the gate at any k
    bound = max(corners.discrepancy_bound(k, alpha, w))
    if bound > _DECOMP_TOL:
        top = next(j for j in range(k + 1)
                   if max(corners.discrepancy_bound(j, alpha, w)) > _DECOMP_TOL) - 1
        where = (f"k={k} is beyond the check at alpha={alpha:g}, W={w:g}, which resolves "
                 f"k <= {top}" if top >= 0 else
                 f"alpha={alpha!r} is too near an integer for the check at k={k}, W={w:g}")
        raise ValueError(f"{where}: its discrepancy bound is {bound:.3g}, above "
                         f"{_DECOMP_TOL:g} (corners.discrepancy_bound)")
    p0 = corners._p0_constant(alpha)

    def compute():
        p0_err, p1_err = corners.singular_coefficient_check(k, alpha, w)
        return _report(p, {"k": k, "alpha": alpha, "W": w, "P0": [p0.real, p0.imag],
                           "P0_discrepancy": p0_err, "P1_discrepancy": p1_err,
                           "pass": bool(max(p0_err, p1_err) <= _DECOMP_TOL)},
                       f"decomp: discrepancy P0={p0_err:.3e} P1={p1_err:.3e}")
    return compute


# each runner, what its compute step reports when it raises, and its --help
_RUNNERS = {
    "approx": (_cmd_approx, "approximation", "build one approximant"),
    "sweep": (_cmd_sweep, "approximation", "convergence-rate sweep over N1"),
    "quaderr": (_cmd_quaderr, "reference quadrature", "trapezoid-vs-integral error curves"),
    "nearorigin": (_cmd_nearorigin, "reference quadrature", "near-origin uniformity ratios"),
    "laplace": (_cmd_laplace, "solver", "lightning Laplace solve"),
    "decomp": (_cmd_decomp, "reference quadrature", "slit-integral singular coefficients"),
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the exit code: 2 if _resolve or its validation
    raises, else its compute step's code, and 1 with the JSON summary (no CSV) if that raises."""
    runner, work, _ = _RUNNERS[config.command]
    try:
        p = _resolve(config.command, config.parameters)
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
    """The subcommands and flags of _OPTIONS; no flag has an argparse default,
    and none is required here: _resolve checks that, after any --config file."""
    ap = argparse.ArgumentParser(
        prog="lightningpoly",
        description="Clustered-pole rational approximation experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, _, text) in _RUNNERS.items():
        sp = sub.add_parser(command, help=text)
        for o in _OPTIONS[command]:
            shown = ("(required)" if o.default is _REQUIRED else
                     "" if o.default is None else f"(default: {o.default})")
            kwargs = {"action": "store_true", "default": None} if o.parse is _boolean else {}
            sp.add_argument(o.flag, dest=o.key,
                            help=" ".join(filter(None, (o.help, shown))) or None, **kwargs)
        sp.add_argument("--config", help="file of 'key = value' overrides")
    return ap


def _read_config_file(path) -> dict:
    """The 'key = value' lines of a config file, each value as its text; a
    key is an option's run() key, or the same with '-' for '_'."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command, config = args.pop("command"), args.pop("config")
    # a flag given wins over the config file, even when it repeats the default
    params = {k: v for k, v in args.items() if v is not None}
    if config:
        try:
            params = {**_read_config_file(config), **params}
        except (OSError, ValueError) as exc:
            print(f"invalid configuration: {exc}", file=sys.stderr)
            return 2
    return run(ExperimentConfig(command=command, parameters=params))


if __name__ == "__main__":
    sys.exit(main())
