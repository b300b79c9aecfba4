"""Sup-norm error measurement, root-exponential rate fitting, and the
predicted error-bound evaluators used to compare theory against runs.

Sup norms are sampled, not certified: the measurement grid is refined once
and the value accepted only if it moved by less than 5% (another refinement
is tried otherwise).  The grids cover only the sector's boundary, its two
edge rays, its arc and the apex.  That suffices by the maximum modulus
principle: the poles and the branch cut of z^alpha lie on the negative
axis, outside the closed sector since beta < 2, and a prefactor target's g
is analytic on the closed sector, so the error e = r - g z^alpha (or
r - g z^alpha log z) is analytic inside and continuous up to the apex, and
its sup is attained on the boundary (as for the lightning Laplace
solver's boundary_error).

For the plain targets z^alpha and z^alpha log z the grids and the tail fit
keep only the upper half of that boundary.  The poles lie on the negative
real axis, their residues and the tail coefficients are real, and alpha is
real, so r(conj z) = conj r(z) and the targets reflect alike; by Schwarz
reflection |e(conj z)| = |e(z)|.  A prefactor target's g need not satisfy
g(conj z) = conj g(z), so those targets keep the whole boundary and a
complex tail fit.  Rate fits exclude errors below 1e-13 (the binary64
floor) and above 1e-2 (pre-asymptotic).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .approx import (
    TARGETS,
    ApproxConfig,
    RationalApprox,
    _chebyshev_radii,
    _fmt,
    _reflected_half,
    build_approximation,
    clustered_poles,
    fit_tail,
    optimal_sigma,
)
from .geometry import ray_fan
from .kernels import (
    KernelConfig,
    PoleCollisionError,
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
    n: int
    sup_err: float
    predicted_log_err: float
    sigma: float
    runtime_ms: float

    def __post_init__(self):
        if self.sup_err < 0:
            raise ValueError("sup_err must be nonnegative")
        if self.n != self.n1 + self.n2:
            raise ValueError("n must equal n1 + n2")


def make_target(kind: str, alpha: float, g: Callable | None = None):
    """Vectorized target function for a named approximation target:
    z^alpha or z^alpha*log z (0 at z = 0), times g(z) for a prefactor
    target."""
    if kind not in TARGETS:
        raise ValueError(f"unknown target {kind!r}")
    prefactor = kind.startswith("prefactor")
    if prefactor and g is None:
        raise ValueError("prefactor targets need g")
    log_like = kind.endswith("power_log")

    def target(zs):
        zs = np.asarray(zs, complex)
        out = power_values(zs, alpha, log_like)
        if prefactor:
            out = np.array([g(complex(w)) for w in zs.tolist()], complex) * out
        return out

    return target


# the third slot is never read (callers pass None); it keeps zs the fourth
# positional argument, which perfbench/tracing.py counts as args[3]
def sup_error(approx: RationalApprox, target, _unused, zs: np.ndarray) -> float:
    """Max of |approx - target| over the points ``zs``.

    The grid is evaluated in one ``approx.eval`` call, which tests for pole
    collisions as it goes.  Only if it finds one is the grid's collision
    mask formed: colliding points are skipped with a warning, more than 1%
    skipped is an error, and the rest are evaluated.  ``target`` is a
    vectorized callable, such as make_target returns.
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
    """(rate, prefactor_power): error is predicted to decay like
    N^prefactor_power * exp(-rate*sqrt(N)).

    rate = sigma*alpha for sigma <= sigma_opt, else pi*eta*sqrt(2*(2-beta)*alpha)
    with eta = sigma_opt/sigma; the log target carries a sqrt(N) prefactor
    on the subcritical branch.
    """
    s_opt = optimal_sigma(alpha, beta)
    if sigma <= s_opt:
        rate = sigma * alpha
        pref = 0.5 if target.endswith("power_log") else 0.0
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

def rate_grid(cfg: ApproxConfig, refine: int = 0) -> np.ndarray:
    """Sup-norm grid on the boundary of the unit sector: geometric radii
    reaching below the innermost pole, plus Chebyshev radii that resolve the
    outer region where the error peaks, on the two edge rays (the axis alone
    at beta = 0); 8*(13*(refine + 1) - 1) + 1 points on the arc; and the apex.

    No interior point is needed.  The poles lie on the negative axis, the
    branch cut of z^alpha too, beta < 2 keeps both outside the closed
    sector, and the g of a prefactor target is analytic on it.  So the error
    is analytic inside and continuous up to the apex, and by the maximum
    modulus principle its sup is on the edge rays or the arc.

    For the plain targets (cfg.g is None) only the points with Im z >= 0
    are kept: the upper edge ray, the arc angles in [0, beta*pi/2] and the
    apex.  The poles and residues are real, the tail coefficients are real
    and alpha is real, so r(conj z) = conj r(z) and z^alpha (and z^alpha
    log z) reflect the same way; by Schwarz reflection |e(conj z)| = |e(z)|
    and the lower half holds no larger error.  A prefactor target's g need
    not satisfy g(conj z) = conj g(z), so its grid keeps both halves."""
    p1 = abs(clustered_poles(cfg)[0])
    depth = int(math.log(max(p1, 1e-280)) / math.log(0.5)) + 4
    depth = min(max(depth, 40), 1400) * (refine + 1)
    ratio = 0.5 ** (1.0 / (refine + 1))
    radii = np.unique(np.concatenate([
        ratio ** np.arange(depth + 1),
        _chebyshev_radii(192 * (refine + 1)),
    ]))
    edges = ray_fan(cfg.beta, radii, 2)
    arc = ray_fan(cfg.beta, [1.0], 8 * (13 * (refine + 1) - 1) + 1)
    return _reflected_half(cfg, np.concatenate([edges, arc, [0.0]]))


def checked_sup_error(approx: RationalApprox, target, cfg: ApproxConfig) -> float:
    """Sup error with one grid refinement; accepted when the refinement
    moves the value by < 5%, otherwise refined once more."""
    coarse = sup_error(approx, target, None, rate_grid(cfg, refine=0))
    fine = sup_error(approx, target, None, rate_grid(cfg, refine=1))
    if abs(fine - coarse) > 0.05 * max(fine, 1e-300):
        finer = sup_error(approx, target, None, rate_grid(cfg, refine=2))
        if abs(finer - fine) > 0.05 * max(finer, 1e-300):
            warnings.warn("sup-norm estimate still drifting after two refinements")
        return finer
    return fine


def _auto_tail_config(alpha, beta, sigma, n1, C, target, g):
    """Tail degree for rate sweeps: smallest rung of an O(sqrt(n1)) ladder
    whose fit misfit is below the truncation error (or the float floor);
    keeps N = n1 + n2 close to n1 so fitted slopes stay comparable.

    Returns ``(cfg, tail)``: the chosen config and the ``fit_tail(cfg)``
    result of its rung, which ``build_approximation`` can reuse for the plain
    targets.  The rungs fit the plain remainder for every target,
    so for a prefactor target the tail only ranks the rungs.
    """
    T = sigma * alpha * math.sqrt(n1)
    goal = max(math.exp(-T) / 5.0, 1e-13)
    tried = []
    for k in (2.0, 3.0, 4.0, 6.0):
        n2 = math.ceil(k * math.sqrt(n1))
        cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1, n2=n2,
                           C=C, target=target, g=g)
        tail = fit_tail(cfg)
        tried.append((cfg, tail))
        if tail.validation_sup <= goal:
            return cfg, tail
    best = min(t.validation_sup for _, t in tried)
    return next((c, t) for c, t in tried if t.validation_sup <= 2.0 * best)


def run_sweep(alpha: float, beta: float, sigma: float, n1_list: Iterable[int],
              C: float = 1.0, target: str = "power", g: Callable | None = None,
              n2_mode="auto", map_fn=map) -> list[ConvergenceRecord]:
    """Build approximations across n1_list and record sup errors.

    n2_mode: "auto" (default, O(sqrt(n1)) tail for clean rate fits),
    "proportional" (ceil(1.3*n1), the efficient experiment default), or an
    int fixing n2.  ``map_fn`` may be an executor map for concurrent cells;
    records come back sorted by n1 regardless.
    """
    rate, pref = predicted_log_rate(sigma, alpha, beta, target)
    n1_list = list(n1_list)

    def cell(n1: int) -> ConvergenceRecord:
        t0 = time.perf_counter()
        tail = None
        if n2_mode == "auto":
            cfg, tail = _auto_tail_config(alpha, beta, sigma, n1, C, target, g)
            if g is not None:  # prefactor targets fit a g-corrected tail
                tail = None
        elif n2_mode == "proportional":
            cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1, C=C,
                               target=target, g=g)
        else:
            cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1,
                               n2=int(n2_mode), C=C, target=target, g=g)
        approx = build_approximation(cfg, tail=tail)
        err = checked_sup_error(approx, make_target(target, alpha, g), cfg)
        n = cfg.n1 + cfg.n2
        pred = pref * math.log(n) - rate * math.sqrt(n)
        ms = (time.perf_counter() - t0) * 1e3
        return ConvergenceRecord(n1=cfg.n1, n2=cfg.n2, n=n, sup_err=err,
                                 predicted_log_err=pred, sigma=sigma, runtime_ms=ms)

    records = list(map_fn(cell, n1_list))
    records.sort(key=lambda r: (r.sigma, r.n1))
    return records


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
        x_star = C * math.exp((c0 - T) / alpha)
        return cls(alpha=alpha, beta=beta, sigma=sigma, C=C, h=h, T=T,
                   eta=optimal_sigma(alpha, beta) / sigma, M0=m0,
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
    reference call."""
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
    ctx = BoundContext.from_quadrature(cfg, beta)
    xm = min(ctx.x_star, 1.0)
    zs = ray_fan(beta, np.geomspace(xm * 1e-8, xm, n_x), 2 * n_theta - 1)
    ref_pow = truncated_integral(zs, cfg)
    ref_log = truncated_integral_log(zs, cfg)
    err_pow = np.abs(ref_pow.value - trapezoid_rational(zs, cfg))
    err_log = np.abs(ref_log.value - trapezoid_rational_log(zs, cfg))
    return EvaluatedPair(float(np.max(err_pow / math.exp(-cfg.T))),
                         float(np.max(err_log / (cfg.T * math.exp(-cfg.T)))),
                         int(ref_pow.evaluations.sum() + ref_log.evaluations.sum()))
