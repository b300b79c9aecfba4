"""Integral representations of z^alpha and z^alpha*log(z), truncated
reference integrals, and their trapezoidal discretizations.

The reference path substitutes y = C^alpha * e^t, after which the integrand
is smooth and decays exponentially in both directions; it is then integrated
with adaptive composite 15-point Gauss-Legendre panels.  The quadrature is
batched: one call integrates a whole grid of points, each with its own
interval, tolerance, panels and budget, in one shared loop of numpy passes,
so a point gets the panels and evaluation count it would get alone.  The
discrete path evaluates the finite trapezoid sums whose nodes are exactly
the clustered poles of the rational scheme, each as z times ``pole_sum``,
the library's one partial-fraction sum sum_j w_j/(z - p_j).  Every pole
lies on the real axis, so ``pole_sum`` works in real arithmetic on
x - p_j and y^2 and tests collisions only on the few points near the
axis, where one can occur; a call at scales where the squared distances
could leave binary64 keeps the complex quotient.  All arithmetic is
binary64; the practical accuracy floor is ~1e-13 relative.
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
    "power_values",
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
    "log_weights",
    "pole_collisions",
    "pole_sum",
]


class BranchCutError(ValueError):
    """z lies on the open negative real axis (the branch cut)."""


class PoleCollisionError(ValueError):
    """Evaluation point is numerically indistinguishable from a pole."""


class QuadratureNonConvergence(RuntimeError):
    """Adaptive quadrature ran out of budget; carries the partial estimates
    and error estimates of every point in the batch."""

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
        if not 0.0 < self.C < math.inf:
            raise ValueError("C must be positive and finite")
        if not 0.0 < self.h < math.inf:
            raise ValueError("h must be positive and finite")
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
    """Value, error estimate and integrand evaluations of a reference
    integral: scalars for one point, arrays of its shape for an array."""

    value: complex | np.ndarray
    est_error: float | np.ndarray
    evaluations: int | np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.est_error)):
            raise ValueError("est_error must be finite")
        if np.any(np.asarray(self.evaluations) <= 0):
            raise ValueError("evaluations must be positive")


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


def _panel_values(f, lo, hi, owner):
    nodes = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GL_NODES
    vals = f(nodes.ravel(), np.repeat(owner, _GL_NODES.size))
    vals = np.asarray(vals, complex).reshape(lo.size, _GL_NODES.size)
    return 0.5 * (hi - lo) * (vals @ _GL_WEIGHTS)


def adaptive_gauss_legendre(f, a, b, tol, max_panels: int = 32768):
    """Adaptive composite 15-point Gauss-Legendre on a batch of intervals.

    ``a``, ``b`` and ``tol`` are scalars or arrays (broadcast together), one
    entry per point k; ``f(t, k)`` takes flat arrays of nodes and of their
    owners' indices.  Each point keeps its own panels: a panel whose
    bisection changes its estimate by more than its proportional share of
    that point's ``tol`` is split, each point may hold at most
    ``max_panels`` panels, and splitting stops after 60 rounds.  Only the
    loop is shared, so every point gets the panels and evaluation count it
    would get alone, and its value up to rounding.  Intervals with a == b
    give 0 for one nominal evaluation.

    Returns (values, est_errors, evaluations, point_evaluations): per-point
    arrays, except ``evaluations``, the total as an int.  If some point
    runs out of budget, QuadratureNonConvergence carries per-point partial
    sums and error estimates.
    """
    a, b, tol = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, float)) for x in (a, b, tol)))
    n = a.size
    span = np.abs(b - a)
    value = np.zeros(n, complex)
    err = np.zeros(n)
    evals = np.ones(n, np.int64)
    failed = np.zeros(n, bool)
    owner = np.flatnonzero(a != b)
    lo, hi = a[owner], b[owner]
    coarse = _panel_values(f, lo, hi, owner)
    evals[owner] = 15
    for _ in range(60):  # rounds of bisection before giving up
        if owner.size == 0:
            break
        mid = 0.5 * (lo + hi)
        left = _panel_values(f, lo, mid, owner)
        right = _panel_values(f, mid, hi, owner)
        evals += 30 * np.bincount(owner, minlength=n)
        fine = left + right
        perr = np.abs(fine - coarse)
        # proportional budget with a small absolute floor so that panels
        # much shorter than the rounding-limited scale can still be accepted
        ok = perr <= tol[owner] * ((hi - lo) / span[owner] + 1.0 / 1024.0)
        _add_at(value, err, owner[ok], fine[ok], perr[ok])
        keep = ~ok
        owner = np.concatenate([owner[keep], owner[keep]])
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        # a point over its panel budget stops here with its partial sum
        failed |= np.bincount(owner, minlength=n) > max_panels
        out = failed[owner]
        _add_at(value, err, owner[out], coarse[out], np.abs(coarse[out]))
        owner, lo, hi, coarse = owner[~out], lo[~out], hi[~out], coarse[~out]
    failed[owner] = True  # still splitting after the last round
    _add_at(value, err, owner, coarse, np.abs(coarse))
    if failed.any():
        raise QuadratureNonConvergence(
            f"adaptive quadrature did not reach tolerance at {int(failed.sum())} "
            f"of {n} points",
            partial=value,
            est_error=err,
        )
    return value, err, int(evals.sum()), evals


def _add_at(value, err, owner, v, e):
    """value[owner] += v and err[owner] += e, summed per owner in panel
    order."""
    n = value.size
    value += np.bincount(owner, v.real, n) + 1j * np.bincount(owner, v.imag, n)
    err += np.bincount(owner, e, n)


def _power_core(alpha: float, C: float, z: np.ndarray):
    """Stable z_k*C^a*e^t / (C*e^{t/a} + z_k) as a vectorized function of
    the nodes t and their owners k, the indices into the points z."""
    kappa = alpha / (1.0 - alpha)
    Ca = C**alpha

    def core(t, k):
        zk = z[k]
        out = np.empty(t.shape, complex)
        neg = t <= 0.0
        tn, zn = t[neg], zk[neg]
        out[neg] = zn * Ca * np.exp(tn) / (C * np.exp(tn / alpha) + zn)
        tp, zp = t[~neg], zk[~neg]
        out[~neg] = zp * Ca * np.exp(-tp / kappa) / (C + zp * np.exp(-tp / alpha))
        return out

    return core


def _check_off_cut(z):
    """Raise BranchCutError if z, or any entry of an array z, lies on the
    open negative real axis."""
    if np.any((np.imag(z) == 0.0) & (np.real(z) < 0.0)):
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


def _integrand(alpha: float, C: float, z: np.ndarray, log_weighted: bool):
    """Integrand f(t, k) of the power representation at the point z[k], or
    of the log one with its chi term normalized so the target is
    z^alpha*log z for every C."""
    core = _power_core(alpha, C, z)
    if not log_weighted:
        factor = math.sin(alpha * math.pi) / (alpha * math.pi)
        return lambda t, k: factor * core(t, k)
    w_t = math.sin(alpha * math.pi) / (alpha**2 * math.pi)
    w_0 = log_weight_constant(alpha, C) / C**alpha
    return lambda t, k: (w_t * t + w_0) * core(t, k)


def power_values(z, alpha: float, log_weighted: bool = False) -> np.ndarray:
    """Principal z^alpha, or z^alpha*log z if ``log_weighted``, at an array
    of points; 0 at z = 0."""
    z = np.asarray(z, complex)
    out = np.zeros(z.shape, complex)
    nz = z != 0
    logs = np.log(z[nz])
    out[nz] = np.exp(alpha * logs) * logs if log_weighted else np.exp(alpha * logs)
    return out


def _identity_residual(z, alpha: float, tol: float, log_weighted: bool):
    if not 1e-14 < tol < 1e-4:
        raise ValueError("tol must lie in (1e-14, 1e-4)")
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    _check_off_cut(flat)
    kappa = alpha / (1.0 - alpha)
    t_inf = np.array([_tail_cutoff(alpha, 1.0, w, tol, log_weighted) for w in flat.tolist()])
    t_inf[flat == 0] = 0.0  # the empty interval integrates to exactly 0 = 0^alpha
    value = adaptive_gauss_legendre(
        _integrand(alpha, 1.0, flat, log_weighted), -t_inf, kappa * t_inf, tol / 2
    )[0]
    out = np.abs(value - power_values(flat, alpha, log_weighted))
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def identity_residual(z, alpha: float, tol: float):
    """|adaptive integral of the power representation - z^alpha| at a point
    (returns a float) or an array of points (returns an array).

    The representation sin(a*pi)/(a*pi) * int_0^inf z/(y^{1/a}+z) dy is
    evaluated after the exponential substitution (C = 1), each point on its
    own truncation interval, wide enough that both tails are below tol/10;
    all points share one batched quadrature.
    """
    return _identity_residual(z, alpha, tol, log_weighted=False)


def identity_residual_log(z, alpha: float, tol: float):
    """|adaptive integral of the log representation - z^alpha*log z| (C=1),
    at a point or an array of points like identity_residual."""
    return _identity_residual(z, alpha, tol, log_weighted=True)


def _truncated(z, cfg: KernelConfig, log_weighted: bool) -> QuadratureResult:
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    _check_off_cut(flat)
    tol = 1e-14 * max(1.0, cfg.C**cfg.alpha) * np.maximum(1.0, np.abs(flat))
    if log_weighted:
        tol *= 1.0 + cfg.T
    live = flat != 0  # z = 0 gets the empty interval, which gives exactly 0
    value, est, _, evals = adaptive_gauss_legendre(
        _integrand(cfg.alpha, cfg.C, flat, log_weighted),
        np.where(live, -cfg.T, 0.0), np.where(live, cfg.kappa * cfg.T, 0.0), tol
    )
    if zs.ndim == 0:
        return QuadratureResult(complex(value[0]), float(est[0]), int(evals[0]))
    return QuadratureResult(value.reshape(zs.shape), est.reshape(zs.shape),
                            evals.reshape(zs.shape))


def truncated_integral(z, cfg: KernelConfig) -> QuadratureResult:
    """High-accuracy value of the truncated power integral I(z) at a point,
    or at an array of points in one batched quadrature (the result then
    holds arrays).

    Computed in the t variable over [-T, kappa*T], where the integrand is
    smooth, to the tolerance 1e-14*max(1, C^alpha)*max(1, |z|) of each
    point; satisfies I(z) = z^alpha + O(e^{-T}).
    """
    return _truncated(z, cfg, log_weighted=False)


def truncated_integral_log(z, cfg: KernelConfig) -> QuadratureResult:
    """Truncated reference integral for z^alpha*log z, at a point or an
    array of points like truncated_integral.

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
    tiny |z| and |p| are not flagged."""
    gap = np.abs(diff)
    near = gap < 1e-14 * np.abs(poles)
    near |= gap < 1e-14 * np.maximum(np.abs(z), 1e-286)[..., None]
    return near


def _real_poles(poles) -> np.ndarray:
    """The poles as a float array; ValueError if one lies off the real axis."""
    p = np.asarray(poles)
    if np.iscomplexobj(p):
        if np.any(p.imag != 0.0):
            raise ValueError("poles must lie on the real axis")
        p = p.real
    return np.asarray(p, float)


# points per block of pole_sum and of the collision test
_BLOCK = 512


def pole_collisions(z, poles) -> np.ndarray:
    """Mask of the points z that collide with some real pole (see
    _near_poles).  A collision needs |Im z| <= |z - p| < 1e-14*max(|z|, |p|,
    1e-286), and |p| < |z|/(1 - 1e-14) then, so only points with
    |Im z| < 2e-14*max(|z|, 1e-286) are candidates; the exact rule runs on
    those alone, in blocks."""
    z = np.asarray(z, complex)
    p = _real_poles(poles)
    hit = np.zeros(z.shape, bool)
    cand = np.flatnonzero(np.abs(z.imag) < 2e-14 * np.maximum(np.abs(z), 1e-286))
    zc = z.ravel()[cand]
    for k in range(0, cand.size, _BLOCK):
        blk = zc[k:k + _BLOCK]
        hit.flat[cand[k:k + _BLOCK]] = _near_poles(blk, p, blk[:, None] - p).any(axis=1)
    return hit


def _real_form_sums(x, y2, poles, weights):
    """Rows sum_j w_j*(x - p_j)/d_j and sum_j w_j/d_j of one block, with real
    weights and d_j = (x - p_j)^2 + y^2 = |z - p_j|^2."""
    dx = x[:, None] - poles
    d = dx * dx
    d += y2[:, None]
    q = np.divide(weights, d, out=d)
    s = np.sum(q, axis=1)
    return np.sum(np.multiply(q, dx, out=dx), axis=1), s


def pole_sum(z, poles, weights) -> np.ndarray:
    """sum_j weights_j/(z - poles_j) at each point of the flat array z: the
    one partial-fraction sum, behind RationalApprox.eval, the trapezoid
    sums and the prefactor tail fit.

    The poles must be real (ValueError otherwise), so with z = x + iy and
    d_j = (x - p_j)^2 + y^2 the sum is, in real arithmetic,
    sum_j w_j*(x - p_j)/d_j - i*y*sum_j w_j/d_j; complex weights are split
    into their real and imaginary parts.  Each sum is a row sum over a
    block of 512 points, not a matrix product, so a point's value does not
    depend on the block it falls in: an array call is bit for bit its
    point calls.  Any collision (pole_collisions, run once on the few
    candidate points) raises PoleCollisionError before a division.

    A point that does not collide is only guaranteed |z - p| >=
    1e-14*|p|, so d_j can leave binary64 at extreme scales.  A call whose
    smallest |pole| is below 1e-140, or whose largest |z| or |pole| is
    above 1e150, keeps the complex quotient w_j/(z - p_j) instead.
    """
    z = np.asarray(z, complex)
    p = _real_poles(poles)
    w = np.asarray(weights)
    if pole_collisions(z, p).any():
        raise PoleCollisionError("pole collision")
    out = np.empty(z.shape, complex)
    abs_p = np.abs(p)
    wide = abs_p.min(initial=np.inf) < 1e-140 \
        or max(abs_p.max(initial=0.0), np.abs(z).max(initial=0.0)) > 1e150
    split = np.iscomplexobj(w) and np.any(w.imag != 0.0)
    for k in range(0, z.size, _BLOCK):
        blk = z[k:k + _BLOCK]
        if wide:
            diff = blk[:, None] - p
            out[k:k + _BLOCK] = np.sum(np.divide(w, diff, out=diff), axis=1)
            continue
        x, y = blk.real, blk.imag
        y2 = y * y
        re, s = _real_form_sums(x, y2, p, w.real)
        im = -y * s
        if split:  # (wr + i*wi)*(x - p - i*y)/d
            re_i, s_i = _real_form_sums(x, y2, p, w.imag)
            re += y * s_i
            im += re_i
        out.real[k:k + _BLOCK] = re
        out.imag[k:k + _BLOCK] = im
    return out


def _trapezoid(z, cfg: KernelConfig, log_weighted: bool):
    """z * pole_sum over the n_quad nodes with the power or the log-target
    node weights, at a point or an array of points; z = 0 gives 0."""
    j = np.arange(1, cfg.n_quad + 1)
    s, poles = quadrature_nodes(cfg, j)
    a = cfg.alpha
    if log_weighted:
        w1, w2 = log_weights(a, cfg.C, cfg.h, cfg.T)
        weights = cfg.C**a * np.exp(s) * (w1 + w2 * np.sqrt(cfg.h / j))
    else:
        pref = math.sin(a * math.pi) / (2.0 * a * math.pi)
        weights = pref * np.sqrt(cfg.h / j) * cfg.C**a * np.exp(s)
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    out = flat * pole_sum(flat, poles, weights)
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def trapezoid_rational(z, cfg: KernelConfig):
    """Exact trapezoid sum r_{n_quad}(z) approximating z^alpha at a point
    (returns a complex) or an array of points (returns an array).

    Evaluated as z * pole_sum(z, poles, w) with the node weights
    w_j = sin(alpha*pi)/(2*alpha*pi) * sqrt(h/j) * C^alpha*e^{s_j}; z = 0
    returns 0 exactly.
    """
    return _trapezoid(z, cfg, log_weighted=False)


def trapezoid_rational_log(z, cfg: KernelConfig):
    """Exact trapezoid sum approximating z^alpha*log z, at a point or an
    array of points like trapezoid_rational, with the log-target node
    weights (w1 + w2*sqrt(h/j)) * C^alpha*e^{s_j}."""
    return _trapezoid(z, cfg, log_weighted=True)
