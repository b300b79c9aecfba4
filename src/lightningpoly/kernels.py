"""Integral representations of z^alpha and z^alpha*log(z), truncated
reference integrals, and their trapezoidal discretizations.

The reference path substitutes y = C^alpha * e^t, after which the integrand
is smooth and decays exponentially in both directions; it is then integrated
with adaptive composite 15-point Gauss-Legendre panels.  The discrete path
evaluates the finite trapezoid sums whose nodes are exactly the clustered
poles of the rational scheme.  All arithmetic is binary64; the practical
accuracy floor is ~1e-13 relative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BranchCutError",
    "PoleCollisionError",
    "QuadratureNonConvergence",
    "KernelConfig",
    "QuadratureResult",
    "ref_power",
    "log_weight_constant",
    "adaptive_gauss_legendre",
    "identity_residual",
    "identity_residual_log",
    "truncated_integral",
    "truncated_integral_log",
    "trapezoid_rational",
    "trapezoid_rational_log",
    "tapered",
    "quadrature_nodes",
    "quadrature_poles",
    "log_weights",
    "pole_collisions",
]


class BranchCutError(ValueError):
    """z lies on the open negative real axis (the branch cut)."""


class PoleCollisionError(ValueError):
    """Evaluation point is numerically indistinguishable from a pole."""


class QuadratureNonConvergence(RuntimeError):
    """Adaptive quadrature ran out of budget; carries the partial estimate."""

    def __init__(self, message, partial=None, est_error=None):
        super().__init__(message)
        self.partial = partial
        self.est_error = est_error


@dataclass(frozen=True)
class KernelConfig:
    """Parameters of the truncated integral and its trapezoid rule.

    h is the quadrature step (h = sigma^2 * alpha^2 when derived from a
    clustering parameter sigma), n_quad the number of trapezoid points.
    """

    alpha: float
    C: float = 1.0
    h: float = math.pi**2
    n_quad: int = 64

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.C <= 0.0:
            raise ValueError("C must be positive")
        if self.h <= 0.0:
            raise ValueError("h must be positive")
        if self.n_quad < 1:
            raise ValueError("n_quad must be >= 1")
        t_min = (1.0 - self.alpha) * (2.0 * math.log(2.0) - math.log(self.C))
        if self.T < t_min:
            raise ValueError(
                f"truncation T={self.T:.6g} below validity threshold {t_min:.6g}; "
                "increase n_quad or h"
            )

    @property
    def kappa(self) -> float:
        return self.alpha / (1.0 - self.alpha)

    @property
    def T(self) -> float:
        return math.sqrt(self.n_quad * self.h) / (self.kappa + 1.0)


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    est_error: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.est_error):
            raise ValueError("est_error must be finite")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


def ref_power(z: complex, alpha: float) -> complex:
    """Principal-branch z^alpha (arg z in (-pi, pi]), with 0^alpha = 0."""
    z = complex(z)
    if z == 0:
        return 0j
    _check_off_cut(z)
    return cmath.exp(alpha * cmath.log(z))


def log_weight_constant(alpha: float, C: float) -> float:
    """Constant collecting the C- and alpha-dependence of the log-kernel
    correction: C^a*sin(a*pi)*log(C)/(a*pi) + C^a*cos(a*pi)/a."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if C <= 0.0:
        raise ValueError("C must be positive")
    Ca = C**alpha
    return Ca * math.sin(alpha * math.pi) * math.log(C) / (alpha * math.pi) \
        + Ca * math.cos(alpha * math.pi) / alpha


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_values(f, lo, hi):
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GL_NODES
    vals = np.asarray(f(nodes.ravel()), complex).reshape(lo.size, _GL_NODES.size)
    return 0.5 * (hi - lo) * (vals @ _GL_WEIGHTS)


def adaptive_gauss_legendre(f, a: float, b: float, tol: float,
                            max_panels: int = 32768):
    """Adaptive composite 15-point Gauss-Legendre on [a, b].

    ``f`` must accept a flat numpy array of points.  Panels whose bisection
    changes the estimate by more than their proportional share of ``tol``
    are split; the returned error estimate is the sum of accepted panel
    discrepancies.  Returns (value, est_error, evaluations).
    """
    if a == b:
        return 0j, 0.0, 1
    lo = np.array([a], float)
    hi = np.array([b], float)
    coarse = _panel_values(f, lo, hi)
    evals = 15
    total = 0j
    err = 0.0
    span = abs(b - a)
    for _ in range(60):  # rounds of bisection before giving up
        mid = 0.5 * (lo + hi)
        left = _panel_values(f, lo, mid)
        right = _panel_values(f, mid, hi)
        evals += 30 * lo.size
        fine = left + right
        perr = np.abs(fine - coarse)
        # proportional budget with a small absolute floor so that panels
        # much shorter than the rounding-limited scale can still be accepted
        ok = perr <= tol * ((hi - lo) / span + 1.0 / 1024.0)
        total += fine[ok].sum()
        err += float(perr[ok].sum())
        if ok.all():
            return total, err, evals
        keep = ~ok
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        if lo.size > max_panels:
            break
    partial = total + coarse.sum()
    raise QuadratureNonConvergence(
        "adaptive quadrature did not reach tolerance",
        partial=partial,
        est_error=err + float(np.abs(coarse).sum()),
    )


def _power_core(alpha: float, C: float, z: complex):
    """Stable z*C^a*e^t / (C*e^{t/a} + z) as a vectorized function of t."""
    kappa = alpha / (1.0 - alpha)
    Ca = C**alpha

    def core(t):
        t = np.asarray(t, float)
        out = np.empty(t.shape, complex)
        neg = t <= 0.0
        tn = t[neg]
        out[neg] = z * Ca * np.exp(tn) / (C * np.exp(tn / alpha) + z)
        tp = t[~neg]
        out[~neg] = z * Ca * np.exp(-tp / kappa) / (C + z * np.exp(-tp / alpha))
        return out

    return core


def _check_off_cut(z: complex):
    if z.imag == 0.0 and z.real < 0.0:
        raise BranchCutError("branch cut")


def _tail_cutoff(alpha: float, C: float, z: complex, tol: float,
                 log_weighted: bool) -> float:
    """Truncation T_inf so both tails of the t-integral stay below tol/10."""
    x = abs(z)
    phi = abs(cmath.phase(z))
    delta = 1.0 if math.cos(phi) >= 0.0 else abs(math.sin(phi))
    kappa = alpha / (1.0 - alpha)
    k_left = C**alpha / max(delta, 1e-12)
    k_right = math.sqrt(2.0) * kappa / C ** (1.0 - alpha)
    k = max(k_left, k_right, 1.0) * max(x, 1.0)
    t_inf = math.log(20.0 * k / tol)
    if log_weighted:
        # extra |t| factor in the integrand: iterate log(..) once more
        t_inf = math.log(20.0 * k * (1.0 + t_inf) / tol)
    t_min = (1.0 - alpha) * (2.0 * math.log(2.0) - math.log(C)) + 1.0
    return max(t_inf, t_min, 2.0)


def _integrand(alpha: float, C: float, z: complex, log_weighted: bool):
    """Integrand in t of the power representation, or of the log one with
    its chi term normalized so the target is z^alpha*log z for every C."""
    core = _power_core(alpha, C, z)
    if not log_weighted:
        factor = math.sin(alpha * math.pi) / (alpha * math.pi)
        return lambda t: factor * core(t)
    w_t = math.sin(alpha * math.pi) / (alpha**2 * math.pi)
    w_0 = log_weight_constant(alpha, C) / C**alpha
    return lambda t: (w_t * t + w_0) * core(t)


def _identity_residual(z, alpha: float, tol: float, log_weighted: bool) -> float:
    if not 1e-14 < tol < 1e-4:
        raise ValueError("tol must lie in (1e-14, 1e-4)")
    z = complex(z)
    if z == 0:
        return 0.0
    _check_off_cut(z)
    kappa = alpha / (1.0 - alpha)
    t_inf = _tail_cutoff(alpha, 1.0, z, tol, log_weighted)
    value, _, _ = adaptive_gauss_legendre(
        _integrand(alpha, 1.0, z, log_weighted), -t_inf, kappa * t_inf, tol=tol / 2
    )
    target = ref_power(z, alpha) * cmath.log(z) if log_weighted else ref_power(z, alpha)
    return abs(value - target)


def identity_residual(z: complex, alpha: float, tol: float) -> float:
    """|adaptive integral of the power representation - z^alpha|.

    The representation sin(a*pi)/(a*pi) * int_0^inf z/(y^{1/a}+z) dy is
    evaluated after the exponential substitution (C = 1) on a truncation
    interval wide enough that both tails are below tol/10.
    """
    return _identity_residual(z, alpha, tol, log_weighted=False)


def identity_residual_log(z: complex, alpha: float, tol: float) -> float:
    """|adaptive integral of the log representation - z^alpha*log z| (C=1)."""
    return _identity_residual(z, alpha, tol, log_weighted=True)


def _truncated(z, cfg: KernelConfig, log_weighted: bool) -> QuadratureResult:
    z = complex(z)
    if z == 0:
        return QuadratureResult(0j, 0.0, 1)
    _check_off_cut(z)
    tol = 1e-14 * max(1.0, cfg.C**cfg.alpha) * max(1.0, abs(z))
    if log_weighted:
        tol *= 1.0 + cfg.T
    value, est, evals = adaptive_gauss_legendre(
        _integrand(cfg.alpha, cfg.C, z, log_weighted), -cfg.T, cfg.kappa * cfg.T, tol=tol
    )
    return QuadratureResult(value, est, evals)


def truncated_integral(z: complex, cfg: KernelConfig) -> QuadratureResult:
    """High-accuracy value of the truncated power integral I(z).

    Computed in the t variable over [-T, kappa*T], where the integrand is
    smooth; satisfies I(z) = z^alpha + O(e^{-T}).
    """
    return _truncated(z, cfg, log_weighted=False)


def truncated_integral_log(z: complex, cfg: KernelConfig) -> QuadratureResult:
    """Truncated reference integral for z^alpha*log z.

    The chi-weighted term is normalized so the target is z^alpha*log z for
    every C (the trapezoid sum below is exactly its discretization);
    truncation error is O(T*e^{-T}).
    """
    return _truncated(z, cfg, log_weighted=True)


def tapered(n: int, sigma: float, L: float) -> np.ndarray:
    """The tapered ladder L*exp(-sigma*(sqrt(n)-sqrt(j))), j = 1..n, shared by
    the clustered poles, the corner poles and the boundary samples; the last
    entry is exactly L."""
    j = np.arange(1, n + 1)
    return L * np.exp(-sigma * (np.sqrt(n) - np.sqrt(j)))


def quadrature_nodes(cfg, j):
    """Trapezoid exponents s_j = sqrt(j*h) - T at the indices j and their
    poles -C*e^{s_j/alpha}; cfg is a KernelConfig or an ApproxConfig."""
    s = np.sqrt(j * cfg.h) - cfg.T
    return s, -cfg.C * np.exp(s / cfg.alpha)


def quadrature_poles(cfg: KernelConfig) -> np.ndarray:
    """All n_quad trapezoid nodes as poles -C*e^{(sqrt(jh)-T)/alpha}."""
    return quadrature_nodes(cfg, np.arange(1, cfg.n_quad + 1))[1]


def log_weights(alpha: float, C: float, h: float, T: float):
    """(w1, w2) of the log-target trapezoid weight w1 + w2*sqrt(h/j), which
    multiplies C^alpha*e^{s_j} at node j."""
    sin_a = math.sin(alpha * math.pi)
    w1 = h * sin_a / (2.0 * alpha**2 * math.pi)
    w2 = 0.5 * (log_weight_constant(alpha, C) / C**alpha
                - T * sin_a / (alpha**2 * math.pi))
    return w1, w2


def _near_poles(z, poles, diff) -> np.ndarray:
    """Boolean (points x poles) matrix: |z - p| < 1e-14*max(|z|, |p|, 1e-286),
    given the differences ``diff = z[..., None] - poles``.  The one
    definition of a pole collision; scale-relative, so stable evaluations at
    tiny |z| and |p| are not flagged.  Callers that divide by ``diff``
    anyway pass it in rather than forming it twice."""
    gap = np.abs(diff)
    near = gap < 1e-14 * np.abs(poles)
    near |= gap < 1e-14 * np.maximum(np.abs(z), 1e-286)[..., None]
    return near


def pole_collisions(z, poles) -> np.ndarray:
    """Mask of the points z that collide with some pole (see _near_poles)."""
    z = np.asarray(z, complex)
    return _near_poles(z, poles, z[..., None] - poles).any(axis=-1)


def _trapezoid_sum(z, poles, num, scale=None):
    """Sum over j of scale_j * (num_j*z/(z - p_j)) at a point or an array of
    points, added in ascending j (smallest magnitudes first; cumsum is
    sequential); z = 0 gives 0 since every term carries a factor z."""
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    if pole_collisions(flat, poles).any():
        raise PoleCollisionError("pole collision")
    col = flat[:, None]
    terms = num * col / (col - poles)
    if scale is not None:
        terms = scale * terms
    out = np.cumsum(terms, axis=1)[:, -1]
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def trapezoid_rational(z, cfg: KernelConfig):
    """Exact trapezoid sum r_{n_quad}(z) approximating z^alpha at a point
    (returns a complex) or an array of points (returns an array).

    Terms are added in ascending j (smallest magnitudes first).  z = 0
    returns 0 exactly since every term carries a factor z.
    """
    a = cfg.alpha
    j = np.arange(1, cfg.n_quad + 1)
    s, poles = quadrature_nodes(cfg, j)
    pref = math.sin(a * math.pi) / (2.0 * a * math.pi)
    weights = pref * np.sqrt(cfg.h / j) * cfg.C**a * np.exp(s)
    return _trapezoid_sum(z, poles, weights)


def trapezoid_rational_log(z, cfg: KernelConfig):
    """Exact trapezoid sum approximating z^alpha*log z, at a point or an
    array of points like trapezoid_rational."""
    j = np.arange(1, cfg.n_quad + 1)
    s, poles = quadrature_nodes(cfg, j)
    w1, w2 = log_weights(cfg.alpha, cfg.C, cfg.h, cfg.T)
    kernel = cfg.C**cfg.alpha * np.exp(s)
    return _trapezoid_sum(z, poles, kernel, w1 + w2 * np.sqrt(cfg.h / j))
