"""Sup-norm error measurement, root-exponential rate fitting, and the
predicted error-bound evaluators used to compare theory against runs.

Sup norms are sampled, not certified: the sup over the measurement grid is
accepted only if the sup over the grid's even half is within 5% of it (a
finer grid is tried otherwise).  The grids cover only the sector's
boundary, and only its upper half for the plain targets, which suffices by
the maximum modulus principle and Schwarz reflection
(geometry.sector_boundary).  Rate fits exclude errors below 1e-13 (the
binary64 floor) and above 1e-2 (pre-asymptotic).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .approx import (
    ApproxConfig,
    RationalApprox,
    _fmt,
    _g_values,
    build_approximation,
    check_target,
    clustered_poles,
    ladder_tail,
    optimal_sigma,
)
from .geometry import chebyshev_radii, ray_fan, sector_boundary
from .kernels import (
    KernelConfig,
    PoleCollisionError,
    check_double_range,
    check_parameters,
    pole_collisions,
    power_values,
    trapezoid_rational,
    trapezoid_rational_log,
    truncated_integral,
    truncated_integral_log,
)

__all__ = [
    "ConvergenceRecord",
    "BoundContext",
    "make_target",
    "sup_error",
    "predicted_log_rate",
    "fit_rate",
    "quadrature_error_envelope",
    "quadrature_error_curve",
    "near_origin_check",
    "run_sweep",
    "sweep_configs",
    "rate_grid",
    "records_to_csv",
    "RATE_FIT_FLOOR",
    "RATE_FIT_CEILING",
]

RATE_FIT_FLOOR = 1e-13
RATE_FIT_CEILING = 1e-2

CSV_HEADER = "sigma,N1,N2,N,sup_err,predicted_log_err,runtime_ms"


@dataclass(frozen=True)
class ConvergenceRecord:
    n1: int
    n2: int
    sup_err: float
    predicted_log_err: float
    sigma: float
    runtime_ms: float

    def __post_init__(self):
        if self.sup_err < 0:
            raise ValueError("sup_err must be nonnegative")

    @property
    def n(self) -> int:
        return self.n1 + self.n2


def make_target(kind: str, alpha: float, g: Callable | None = None):
    """Vectorized target function for a target kind of TARGETS: z^alpha or
    z^alpha*log z (0 at z = 0), times g(z) when g is given."""
    check_target(kind)

    def target(zs):
        zs = np.asarray(zs, complex)
        out = power_values(zs, alpha, kind == "power_log")
        return out if g is None else _g_values(g, zs) * out

    return target


# the third slot is never read (callers pass None); it keeps zs the fourth
# positional argument, which perfbench/tracing.py counts as args[3]
def sup_error(approx: RationalApprox, target, _unused, zs: np.ndarray) -> float:
    """Max of |approx - target| over the points ``zs``.

    The grid is evaluated in one ``approx.eval`` call, which tests for pole
    collisions as it goes.  Only if it finds one is the grid's collision
    mask formed: colliding points are skipped with a warning, more than 1%
    skipped is an error, and the rest are evaluated.  The 1% is of this
    call's points, so checked_sup_error, which passes a grid as two parts,
    applies it to each part on its own.  ``target`` is a vectorized
    callable, such as make_target returns.
    """
    zs = np.asarray(zs, complex)
    try:
        values = approx.eval(zs)
    except PoleCollisionError:
        keep = ~pole_collisions(zs, approx.poles)
        n_skip = int(np.sum(~keep))
        warnings.warn(f"skipped {n_skip} grid points colliding with poles")
        if n_skip > 0.01 * zs.size:
            raise PoleCollisionError("more than 1% of grid points collide with poles")
        zs = zs[keep]
        values = approx.eval(zs)
    return float(np.max(np.abs(values - target(zs))))


def predicted_log_rate(sigma: float, alpha: float, beta: float, target: str):
    """(rate, p): error is predicted to decay like N^p * exp(-rate*sqrt(N)).

    rate = sigma*alpha for sigma <= sigma_opt, else pi*eta*sqrt(2*(2-beta)*alpha)
    with eta = sigma_opt/sigma; the log target carries a sqrt(N) prefactor
    on the subcritical branch.
    """
    check_target(target)
    check_parameters(sigma=sigma)
    s_opt = optimal_sigma(alpha, beta)
    if sigma <= s_opt:
        rate = sigma * alpha
        pref = 0.5 if target == "power_log" else 0.0
    else:
        eta = s_opt / sigma
        rate = math.pi * eta * math.sqrt(2.0 * (2.0 - beta) * alpha)
        pref = 0.0
    return rate, pref


def _band_fit(points, floor: float, ceiling: float, min_points: int, message: str):
    """Least-squares slope of -log(err) against x over the (x, err) points
    with floor < err < ceiling, with its r^2; fewer than ``min_points`` in
    the band raises ValueError(message)."""
    band = [(x, e) for x, e in points if floor < e < ceiling]
    if len(band) < min_points:
        raise ValueError(message)
    x = np.array([x for x, _ in band], float)
    y = -np.log([e for _, e in band])
    A = np.vstack([x, np.ones_like(x)]).T
    coef = np.linalg.lstsq(A, y, rcond=None)[0]
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(coef[0]), float(r2)


def fit_rate(records: Sequence[ConvergenceRecord], floor: float = RATE_FIT_FLOOR,
             ceiling: float = RATE_FIT_CEILING):
    """Least-squares slope rho of -log(sup_err) against sqrt(N) within the
    (floor, ceiling) error band, with its r^2."""
    return _band_fit([(math.sqrt(r.n), r.sup_err) for r in records], floor, ceiling, 4,
                     "insufficient span: need >= 4 records inside the error band")


# ------------------------------------------------------------- sweeps

def rate_grid(cfg: ApproxConfig, refine: int = 0, split: bool = False):
    """Sup-norm grid on the boundary of the unit sector
    (geometry.sector_boundary; the upper half for a plain target):
    geometric radii reaching below the innermost pole, plus Chebyshev radii
    that resolve the outer region where the error peaks, on the edge rays;
    8*(13*(refine + 1) - 1) + 1 points on the arc; and the apex.
    ``split=True`` returns it as sector_boundary's (even half, rest)."""
    p1 = abs(clustered_poles(cfg)[0])
    depth = int(math.log(max(p1, 1e-280)) / math.log(0.5)) + 4
    depth = min(max(depth, 40), 1400) * (refine + 1)
    ratio = 0.5 ** (1.0 / (refine + 1))
    radii = np.unique(np.concatenate([
        ratio ** np.arange(depth + 1),
        chebyshev_radii(192 * (refine + 1)),
    ]))
    return sector_boundary(cfg.beta, radii, 8 * (13 * (refine + 1) - 1) + 1,
                           upper_half=cfg.g is None, split=split)


def checked_sup_error(approx: RationalApprox, cfg: ApproxConfig) -> float:
    """Sup error against cfg's target (make_target) over the refine=1 grid,
    checked against its even half.

    The grid is evaluated once, as two sup_error calls: ``coarse`` is the
    sup over the even half (every other radius and arc point, and the
    apex), and ``fine`` the larger of that and the sup over the rest, a
    NaN in either part kept.  So ``fine`` is the sup over the whole grid
    and ``fine >= coarse``.  It is accepted when the half is within 5% of
    it; otherwise the refine=2 grid is evaluated and its sup returned.  Both
    drifts are against max(fine, RATE_FIT_FLOOR): below it, sups are noise."""
    target = make_target(cfg.target, cfg.alpha, cfg.g)
    half, rest = rate_grid(cfg, refine=1, split=True)
    coarse = sup_error(approx, target, None, half)
    fine = float(np.maximum(coarse, sup_error(approx, target, None, rest)))
    scale = max(fine, RATE_FIT_FLOOR)
    if fine - coarse > 0.05 * scale:
        finer = sup_error(approx, target, None, rate_grid(cfg, refine=2))
        if abs(finer - fine) > 0.05 * scale:
            warnings.warn("sup-norm estimate still drifting after two refinements")
        return finer
    return fine


def sweep_configs(alpha: float, beta: float, sigma: float, n1_list: Iterable[int],
                  C: float = 1.0, target: str = "power",
                  g: Callable | None = None) -> list[ApproxConfig]:
    """The config each run_sweep cell starts from, one per n1, with
    ApproxConfig's default n2; the cell's ladder (ladder_tail) sets its own."""
    return [ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1, C=C, target=target, g=g)
            for n1 in n1_list]


def run_sweep(alpha: float, beta: float, sigma: float, n1_list: Iterable[int],
              C: float = 1.0, target: str = "power",
              g: Callable | None = None) -> list[ConvergenceRecord]:
    """Build approximations across n1_list and record sup errors.

    Each cell's tail degree is the rung ladder_tail picks, an O(sqrt(n1))
    tail that keeps the rate fits clean.  The cells run in one thread, in
    turn, and the records come back sorted by n1.  Every cell's config
    (sweep_configs) is built before the first cell runs.  A cell whose sup
    error is not finite raises RuntimeError, as a non-finite tail value does.
    """
    rate, pref = predicted_log_rate(sigma, alpha, beta, target)

    def cell(cfg: ApproxConfig) -> ConvergenceRecord:
        t0 = time.perf_counter()
        cfg, tail = ladder_tail(cfg)
        approx = build_approximation(cfg, tail=tail)
        err = checked_sup_error(approx, cfg)
        if not math.isfinite(err):
            raise RuntimeError(f"sup error {err} at n1={cfg.n1} is not finite")
        n = cfg.n1 + cfg.n2
        pred = pref * math.log(n) - rate * math.sqrt(n)
        ms = (time.perf_counter() - t0) * 1e3
        return ConvergenceRecord(n1=cfg.n1, n2=cfg.n2, sup_err=err,
                                 predicted_log_err=pred, sigma=sigma, runtime_ms=ms)

    cfgs = sweep_configs(alpha, beta, sigma, n1_list, C=C, target=target, g=g)
    return sorted(map(cell, cfgs), key=lambda r: r.n1)


def records_to_csv(records: Sequence[ConvergenceRecord]) -> str:
    """CSV rows (decimal-17 floats, newline endings) sorted by (sigma, n1)."""
    rows = [CSV_HEADER]
    for r in sorted(records, key=lambda r: (r.sigma, r.n1)):
        rows.append(f"{_fmt(r.sigma)},{r.n1},{r.n2},{r.n},{_fmt(r.sup_err)},"
                    f"{_fmt(r.predicted_log_err)},{_fmt(r.runtime_ms)}")
    return "\n".join(rows) + "\n"


# ------------------------------------------------ predicted bound context

@dataclass(frozen=True)
class BoundContext:
    """Constants of the near-origin and envelope bounds for one quadrature
    setup: the smallest admissible lattice index M0, the collision-free
    offset delta0, the split radius x_star = C*exp((c0-T)/alpha), and the
    exponent function a0beta(x) = (2-beta)*alpha*pi*(T + alpha*log(x/C))."""

    alpha: float
    beta: float
    sigma: float
    C: float
    h: float
    T: float
    eta: float
    M0: int
    delta0: float
    c0: float
    x_star: float

    @classmethod
    def from_quadrature(cls, cfg: KernelConfig, beta: float) -> "BoundContext":
        return cls.from_parameters(cfg.alpha, beta, cfg.h, cfg.T, C=cfg.C,
                                   n_quad=cfg.n_quad)

    @classmethod
    def from_parameters(cls, alpha: float, beta: float, h: float, T: float,
                        C: float = 1.0, n_quad: int = 10_000) -> "BoundContext":
        s_opt = optimal_sigma(alpha, beta)  # checks alpha and beta first
        check_parameters(h=h, C=C)
        sigma = math.sqrt(h) / alpha
        rhs = max(
            h,
            math.sqrt(2.0) * alpha * math.pi,
            2.0 * math.sqrt(6.0) * alpha**2 * math.pi**2,
            alpha * math.pi * (math.sqrt((4.0 + beta) * alpha * math.pi / 2.0)
                               + (4.0 * h) ** 0.25) ** 2,
        )
        m0 = max(1, math.ceil((rhs / (alpha * math.pi)) ** 2 / h - 1e-12))
        while alpha * math.pi * math.sqrt(m0 * h) < rhs - 1e-12:
            m0 += 1
        delta0 = 0.0
        base = m0 * h + 0.25 * (2.0 - beta) ** 2 * alpha**2 * math.pi**2

        def on_lattice(c2):
            # only the j within 1e-9/h + 1 of c2/h can come within 1e-9
            reach = 1e-9 / h + 1.0
            js = range(max(1, math.ceil(c2 / h - reach)),
                       min(n_quad, math.floor(c2 / h + reach)) + 1)
            return any(abs(c2 - j * h) < 1e-9 for j in js)

        while on_lattice(base + delta0):
            delta0 += h * 1e-3
        c0 = math.sqrt(base + delta0)
        # near_origin_check scans down to 1e-8*min(x_star, 1): x_star and its
        # exponential factor must be doubles
        e = (c0 - T) / alpha
        lx = math.log(C) + e
        check_double_range(dict(T=T, alpha=alpha, C=C, h=h), min(e, lx), max(e, lx))
        x_star = C * math.exp(e)
        return cls(alpha=alpha, beta=beta, sigma=sigma, C=C, h=h, T=T,
                   eta=s_opt / sigma, M0=m0,
                   delta0=delta0, c0=c0, x_star=x_star)

    def a0beta(self, x: float) -> float:
        return (2.0 - self.beta) * self.alpha * math.pi * (self.T + self.alpha * math.log(x / self.C))


def quadrature_error_envelope(x: float, ctx: BoundContext):
    """(Q, lower, upper) for Q(x) = x^alpha / (e^{(2pi/h) a0beta(x)} - 1) on
    [x_star, 1]; the bounds are algebraic and hold without tolerance."""
    if not ctx.x_star <= x <= 1.0:
        raise ValueError("outside envelope validity")
    q = x**ctx.alpha / math.expm1(2.0 * math.pi / ctx.h * ctx.a0beta(x))
    eta2 = ctx.eta**2
    sqh = math.sqrt(ctx.h)
    at_one = 1.0 / math.expm1(eta2 * ctx.T)
    at_split = math.exp(sqh / 2.0 - ctx.T) / math.expm1(eta2 * sqh / 2.0)
    if ctx.eta >= 1.0:
        lower, upper = at_one, at_split
    else:
        lower = (1.0 - eta2) ** (1.0 - 1.0 / eta2) * math.exp(-ctx.T) / eta2
        upper = max(at_one, at_split)
    return q, lower, upper


# ------------------------------------------------ quadrature error curves

class EvaluatedPair(tuple):
    """The pair a quadrature check returns, which callers unpack as before,
    carrying in ``evaluations`` the integrand evaluations of its reference
    integrals."""

    def __new__(cls, first: float, second: float, evaluations: int):
        pair = super().__new__(cls, (first, second))
        pair.evaluations = evaluations
        return pair


def quadrature_error_curve(cfg_list: Sequence[KernelConfig], target: str,
                           grid: np.ndarray):
    """Rows (T, sup |I - trapezoid|) over the grid points, ordered by T, as
    EvaluatedPairs; each config integrates the whole grid in one batched
    reference call.  ``target`` is a target kind of TARGETS."""
    check_target(target)
    log = target == "power_log"
    reference = truncated_integral_log if log else truncated_integral
    trapezoid = trapezoid_rational_log if log else trapezoid_rational
    rows = []
    for cfg in cfg_list:
        ref = reference(grid, cfg)
        err = float(np.max(np.abs(ref.value - trapezoid(grid, cfg))))
        rows.append(EvaluatedPair(cfg.T, err, int(ref.evaluations.sum())))
    rows.sort(key=lambda r: r[0])
    return rows


def fit_slope_vs_t(rows, floor: float = RATE_FIT_FLOOR, ceiling: float = 1e-1):
    """Slope of -log(err) against T within the usable error band."""
    return _band_fit(rows, floor, ceiling, 3, "insufficient span for slope fit")[0]


def arc_grid(beta: float, n: int = 31) -> np.ndarray:
    """Points on the outer arc |z| = 1 of the unit sector."""
    return ray_fan(beta, [1.0], n)


def near_origin_check(cfg: KernelConfig, beta: float,
                      n_x: int = 14, n_theta: int = 5):
    """Max over [0, min(x_star, 1)] x [0, beta] (both half-planes) of
    |I - r|/e^{-T} and |I_log - r_log|/(T e^{-T}), as an EvaluatedPair:
    n_x geometric radii on the sector's fan of 2*n_theta - 1 rays.  Each
    target integrates all the points in one batched reference call.

    x_star exceeds 1 whenever c0 > T (unavoidable for small T since c0 is
    bounded below by the lattice constants), so the scan clips at the
    unit radius of the sector.
    """
    ctx = BoundContext.from_quadrature(cfg, beta)  # checks the scan's double range
    xm = min(ctx.x_star, 1.0)
    zs = ray_fan(beta, np.geomspace(xm * 1e-8, xm, n_x), 2 * n_theta - 1)
    ref_pow = truncated_integral(zs, cfg)
    ref_log = truncated_integral_log(zs, cfg)
    err_pow = np.abs(ref_pow.value - trapezoid_rational(zs, cfg))
    err_log = np.abs(ref_log.value - trapezoid_rational_log(zs, cfg))
    return EvaluatedPair(float(np.max(err_pow / math.exp(-cfg.T))),
                         float(np.max(err_log / (cfg.T * math.exp(-cfg.T)))),
                         int(ref_pow.evaluations.sum() + ref_log.evaluations.sum()))
