"""Integral representations of z^alpha and z^alpha*log(z), truncated
reference integrals, and their trapezoidal discretizations.

The reference path substitutes y = C^alpha * e^t, after which the integrand
is smooth and decays exponentially in both directions, subtracts its two
poles nearest the real t axis in closed form (``_pole_subtracted``), and
integrates the rest with batched adaptive 15-point Gauss-Legendre panels
(``adaptive_gauss_legendre``).  The discrete path evaluates the finite
trapezoid sums whose nodes are exactly the clustered poles of the rational
scheme, each as z times ``pole_sum``, the library's one partial-fraction
sum.  The shared helpers live here too: the parameter rules
(``check_parameters``) and the double range (``check_double_range``),
``horner``, the one polynomial evaluation, and ``damped_lstsq``, the one
least-squares solver.  All arithmetic is binary64; the practical accuracy
floor is ~1e-13 relative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

__all__ = [
    "BranchCutError",
    "PoleCollisionError",
    "QuadratureNonConvergence",
    "KernelConfig",
    "QuadratureResult",
    "check_double_range",
    "check_parameters",
    "power_values",
    "log_weight_constant",
    "adaptive_gauss_legendre",
    "identity_residual",
    "truncated_integral",
    "truncated_integral_log",
    "trapezoid_rational",
    "trapezoid_rational_log",
    "tapered",
    "quadrature_nodes",
    "log_weights",
    "pole_collisions",
    "pole_sum",
    "horner",
    "damped_lstsq",
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


# The one double-range rule, in natural logs of magnitudes.  A magnitude
# is in range from 2.3e-300, a normal double with 1e8 to spare (a scan
# eight decades below it stays normal), up to e^600, which leaves e^108
# for the factors a pole, node or weight is then multiplied by.
_LOG_TINY = math.log(2.3e-300)
_LOG_HUGE = 600.0


def check_double_range(params: dict, low: float, high: float) -> None:
    """Raise ValueError naming the ``params`` (name: value) unless e^low and
    e^high lie in the double range: e^low >= 2.3e-300 and e^high <= e^600.
    A NaN fails.
    Configs pass the extreme exponents their arithmetic forms, so a
    parameter that leaves binary64 is rejected before any array is built."""
    if not (_LOG_TINY <= low and high <= _LOG_HUGE):
        named = ", ".join(f"{name}={value:.6g}" for name, value in params.items())
        raise ValueError(f"{named} leave the double-precision range "
                         f"(magnitudes from e^{low:.6g} to e^{high:.6g})")


# The scalar rules of the parameters by name, one definition each
_RULES = {
    "alpha": ("must lie in (0, 1)", lambda v: 0.0 < v < 1.0),
    "beta": ("must lie in [0, 2)", lambda v: 0.0 <= v < 2.0),
    **dict.fromkeys(("sigma", "C", "h", "W"),
                    ("must be positive and finite", lambda v: 0.0 < v < math.inf)),
    **{name: (f"must be >= {low}", lambda v, low=low: v >= low) for name, low in
       (("n1", 1), ("n2", 0), ("k", 0), ("oversample", 1), ("fine_factor", 4))},
}


def check_parameters(**values) -> None:
    """Raise ValueError, "{name} {rule}, got {value}", for the first value
    that breaks the rule of its name in _RULES; a NaN breaks every rule."""
    for name, value in values.items():
        rule, holds = _RULES[name]
        if not holds(value):
            raise ValueError(f"{name} {rule}, got {value}")


# the most trapezoid points, set by the memory of pole_sum's block: 512
# points by n_quad poles in two float64 temporaries (the differences and
# the squared distances) is 8 KiB per pole, so 2^17 poles take 1 GiB (the
# near-origin envelope checks reach 105,263 points)
_MAX_N_QUAD = 2**17


@dataclass(frozen=True)
class KernelConfig:
    """Parameters of the truncated integral and its trapezoid rule.

    h is the quadrature step (h = sigma^2 * alpha^2 when derived from a
    clustering parameter sigma), n_quad the number of trapezoid points, at
    most _MAX_N_QUAD.
    """

    alpha: float
    C: float = 1.0
    h: float = math.pi**2
    n_quad: int = 64

    def __post_init__(self):
        check_parameters(alpha=self.alpha, C=self.C, h=self.h)
        if not 1 <= self.n_quad <= _MAX_N_QUAD:
            raise ValueError(f"n_quad must lie in [1, {_MAX_N_QUAD}], got {self.n_quad}")
        t_min = (1.0 - self.alpha) * (2.0 * math.log(2.0) - math.log(self.C))
        if self.T < t_min:
            raise ValueError(
                f"truncation T={self.T:.6g} below validity threshold {t_min:.6g}; "
                "increase n_quad or h"
            )
        la, lc = math.log(self.alpha), math.log(self.C)
        s_1, s_n = (math.sqrt(j * self.h) - self.T for j in (1, self.n_quad))
        check_double_range(
            dict(alpha=self.alpha, C=self.C, h=self.h, n_quad=self.n_quad, T=self.T),
            # the innermost pole C*e^(s_1/alpha), h and the log weights' alpha^2
            min(lc + s_1 / self.alpha, math.log(self.h), 2.0 * la),
            # the outermost pole and the largest weight C^alpha*e^s_n*sqrt(h)
            max(lc + s_n / self.alpha, self.alpha * lc + s_n + 0.5 * math.log(self.h)))

    @classmethod
    def from_truncation(cls, alpha: float, T: float, h: float | None = None, *,
                        sigma: float | None = None, C: float = 1.0) -> "KernelConfig":
        """The config of truncation T: the fewest points n_quad (at least 2)
        with sqrt(n_quad*h)/(kappa+1) >= T, at the step h or at
        h = sigma^2*alpha^2 for a clustering parameter ``sigma``.  alpha,
        the step and T are checked before they divide or round, and the
        count against _MAX_N_QUAD before it is rounded to an integer."""
        check_parameters(alpha=alpha)
        if sigma is not None:
            check_parameters(sigma=sigma)
            # in logs first: sigma^2, alpha^2 and h must all be doubles
            ls, la = math.log(sigma), math.log(alpha)
            check_double_range(dict(sigma=sigma, alpha=alpha), min(2.0 * (ls + la), 2.0 * la),
                               max(2.0 * (ls + la), 2.0 * ls))
            h = sigma**2 * alpha**2
        check_parameters(h=h)
        if not math.isfinite(T):
            raise ValueError(f"T must be finite, got {T}")
        if not T > 0.0:  # n_quad squares T: -5 would run as 5
            raise ValueError(f"T must be positive, got {T}")
        t1 = T * (1.0 / (1.0 - alpha))
        try:
            n = t1**2 / h
        except OverflowError:
            n = math.inf
        if n > _MAX_N_QUAD:
            step = f"h={h:.6g}" if sigma is None else f"sigma={sigma:.6g}"
            raise ValueError(f"T={T:.6g} at {step} needs {n:.4g} trapezoid points, "
                             f"above the {_MAX_N_QUAD} that bound pole_sum's memory")
        return cls(alpha=alpha, C=C, h=h, n_quad=max(2, math.ceil(n)))

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
    check_parameters(alpha=alpha, C=C)
    Ca = C**alpha
    return Ca * math.sin(alpha * math.pi) * math.log(C) / (alpha * math.pi) \
        + Ca * math.cos(alpha * math.pi) / alpha


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


# panels per integrand call: 256 panels are 3,840 nodes, so each complex
# temporary of the integrand is about 61 KB and its working set stays in a
# 2 MB L2 cache.  On the benchmark's near-origin cells, blocks of 512 or
# 1024 panels were 17-22% slower, and one unblocked call per round 31%
# slower
_PANEL_BLOCK = 256


def _panel_values(f, lo, hi, owner):
    out = np.empty(lo.size, complex)
    for start in range(0, lo.size, _PANEL_BLOCK):
        blk = slice(start, start + _PANEL_BLOCK)
        half = 0.5 * (hi[blk] - lo[blk])
        nodes = 0.5 * (lo[blk] + hi[blk])[:, None] + half[:, None] * _GL_NODES
        vals = f(nodes.ravel(), np.repeat(owner[blk], _GL_NODES.size))
        vals = np.asarray(vals, complex).reshape(half.size, _GL_NODES.size)
        # einsum sums each row on its own, without BLAS: a gemv rounds a row
        # by its place in the batch, so a batched point could split a panel
        # that it accepts alone
        out[blk] = half * np.einsum("ij,j->i", vals, _GL_WEIGHTS)
    return out


def adaptive_gauss_legendre(f, a, b, tol, max_panels: int = 32768):
    """Adaptive composite 15-point Gauss-Legendre on a batch of intervals.

    ``a``, ``b`` and ``tol`` are scalars or arrays (broadcast together), one
    entry per point k; ``f(t, k)`` takes flat arrays of nodes and of their
    owners' indices.  Each point keeps its own panels: a panel whose
    bisection changes its estimate by more than its proportional share of
    that point's ``tol`` is split, each point may hold at most
    ``max_panels`` panels, and splitting stops after 60 rounds.  Only the
    loop is shared, so every point gets the panels, evaluation count and
    value it would get alone.  Intervals with a == b give 0 for one
    nominal evaluation.

    Each round evaluates both halves of every live panel, of every point,
    in one pass of calls on blocks of at most ``_PANEL_BLOCK`` panels, so
    ``f`` must be elementwise in (t, k): no value may depend on which other
    nodes share its call.

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
    failed = np.zeros(n, bool)
    owner = np.flatnonzero(a != b)
    lo, hi = a[owner], b[owner]
    coarse = _panel_values(f, lo, hi, owner)
    tested = []  # owners of the panels bisected, round by round
    for _ in range(60):  # rounds of bisection before giving up
        if owner.size == 0:
            break
        tested.append(owner)
        mid = 0.5 * (lo + hi)
        halves = _panel_values(f, np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                               np.concatenate([owner, owner]))
        left, right = halves[:owner.size], halves[owner.size:]
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
        if owner.size > max_panels:
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
    evals = np.where(a != b, 15, 1)  # the first panel, or the nominal evaluation
    if tested:
        evals += 30 * np.bincount(np.concatenate(tested), minlength=n)
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


def _weight(alpha: float, C: float, log_weighted: bool):
    """The factor w(t) of the core in the power integrand, a constant, or in
    the log one, w_t*t + w_0 with its chi term normalized so the target is
    z^alpha*log z for every C."""
    if not log_weighted:
        factor = math.sin(alpha * math.pi) / (alpha * math.pi)
        return lambda t: factor
    w_t = math.sin(alpha * math.pi) / (alpha**2 * math.pi)
    w_0 = log_weight_constant(alpha, C) / C**alpha
    return lambda t: w_t * t + w_0


def _integrand(alpha: float, C: float, z: np.ndarray, log_weighted: bool):
    """Integrand f(t, k) = w(t)*core(t, k) of the power or the log
    representation at the point z[k]."""
    core = _power_core(alpha, C, z)
    weight = _weight(alpha, C, log_weighted)
    return lambda t, k: weight(t) * core(t, k)


def _pole_subtracted(alpha: float, C: float, z: np.ndarray, a, b, tol, log_weighted: bool):
    """adaptive_gauss_legendre of _integrand over [a_k, b_k] at each point
    z_k, with the integrand's two poles nearest the real t axis subtracted
    and integrated in closed form: the same four results, and a
    QuadratureNonConvergence's partial sums include the closed form too.

    The core's simple poles, where C*e^{t/alpha} = -z, are
    t = alpha*(log(|z|/C) + i*theta) for theta = arg(-z) + 2*pi*m, with
    residues -alpha*|z|^alpha*e^{i*alpha*theta}; the two nearest the axis
    have theta_0 = arg(-z) and theta_1 = theta_0 - 2*pi*sign(theta_0).  The
    integrand's residue rho_k is the core's times w(t_k), and rho_k/(t -
    t_k) integrates over [a, b] to rho_k*[log(b - t_k) - log(a - t_k)],
    since Im t_k != 0 keeps the segment off the cut.  The sum of remainder
    and closed form is the integral unchanged; the quadrature refines only
    the remainder, which is free of the poles that otherwise narrow the
    integrand's strip of analyticity to |Im t| < alpha*(pi - |arg z|)."""
    a, b, tol = np.broadcast_arrays(a, b, tol)
    live = a != b  # z = 0 and the empty intervals: no pole, no term
    log_abs = np.log(np.abs(z[live]))
    theta = np.angle(-z[live])
    theta = np.stack([theta, theta - 2.0 * math.pi * np.sign(theta)])
    poles = np.full((2, z.size), 1j)
    poles[:, live] = alpha * (log_abs - math.log(C) + 1j * theta)
    rho = np.zeros((2, z.size), complex)
    rho[:, live] = -alpha * np.exp(alpha * (log_abs + 1j * theta))
    rho *= _weight(alpha, C, log_weighted)(poles)
    closed = np.sum(rho * (np.log(b - poles) - np.log(a - poles)), axis=0)
    f = _integrand(alpha, C, z, log_weighted)

    def remainder(t, k):
        out = f(t, k)
        for p, r in zip(poles, rho):
            out -= r[k] / (t - p[k])
        return out

    try:
        value, est, evals, per_point = adaptive_gauss_legendre(remainder, a, b, tol)
    except QuadratureNonConvergence as exc:
        exc.partial = exc.partial + closed
        raise
    return value + closed, est, evals, per_point


def power_values(z, alpha: float, log_weighted: bool = False) -> np.ndarray:
    """Principal z^alpha, or z^alpha*log z if ``log_weighted``, at an array
    of points; 0 at z = 0."""
    z = np.asarray(z, complex)
    out = np.zeros(z.shape, complex)
    nz = z != 0
    logs = np.log(z[nz])
    out[nz] = np.exp(alpha * logs) * logs if log_weighted else np.exp(alpha * logs)
    return out


def identity_residual(z, alpha: float, tol: float, log_weighted: bool = False):
    """|adaptive integral of the power representation - z^alpha|, or with
    ``log_weighted`` of the log one - z^alpha*log z, at a point (returns a
    float) or an array of points (returns an array).  The representation
    sin(a*pi)/(a*pi) * int_0^inf z/(y^{1/a}+z) dy, or its log twin, is taken
    after the exponential substitution (C = 1) on each point's truncation
    interval, wide enough that both tails are below tol/10, in one batched
    quadrature."""
    check_parameters(alpha=alpha)
    if not 1e-14 < tol < 1e-4:
        raise ValueError("tol must lie in (1e-14, 1e-4)")
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    _check_off_cut(flat)
    kappa = alpha / (1.0 - alpha)
    t_inf = np.array([_tail_cutoff(alpha, 1.0, w, tol, log_weighted) for w in flat.tolist()])
    t_inf[flat == 0] = 0.0  # the empty interval integrates to exactly 0 = 0^alpha
    value = _pole_subtracted(alpha, 1.0, flat, -t_inf, kappa * t_inf, tol / 2, log_weighted)[0]
    out = np.abs(value - power_values(flat, alpha, log_weighted))
    return float(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def _truncated(z, cfg: KernelConfig, log_weighted: bool) -> QuadratureResult:
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    _check_off_cut(flat)
    tol = 1e-14 * max(1.0, cfg.C**cfg.alpha) * np.maximum(1.0, np.abs(flat))
    if log_weighted:
        tol *= 1.0 + cfg.T
    live = flat != 0  # z = 0 gets the empty interval, which gives exactly 0
    value, est, _, evals = _pole_subtracted(
        cfg.alpha, cfg.C, flat, np.where(live, -cfg.T, 0.0),
        np.where(live, cfg.kappa * cfg.T, 0.0), tol, log_weighted)
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


def horner(coeffs, x) -> np.ndarray:
    """sum_k coeffs[k]*x**k at each point of the array x (0-d included) by
    Horner's rule: the library's one polynomial evaluation, behind the
    sweep's tail fits, RationalApprox.eval, the far-pole moments and the
    Laplace solution's polynomial part.

    It keeps the operations of numpy.polynomial.polynomial's polyval, and
    their order, c_n + x*0 and then c_k + acc*x, so its values are
    polyval's bit for bit, and an array call is its point calls, since each
    step is elementwise.  Its two buffers are allocated once per call, and
    each product goes to the one that is not its operand: numpy's complex
    multiply may round an in-place product on a one-element array
    differently from its vector loop, which would break that equality.
    """
    c = np.asarray(coeffs)
    x = np.asarray(x)
    out = np.empty(x.shape, np.result_type(x, c, 0.0))
    prod = np.empty_like(out)
    np.add(np.multiply(x, 0, out=prod), c[-1], out=out)
    for ck in c[-2::-1]:
        np.add(np.multiply(out, x, out=prod), ck, out=out)
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


def _back_substitute(R: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve the upper-triangular system R x = c 64 rows at a time, bottom
    up; ``np.linalg.solve`` on the whole triangle would spend an LU
    factorization on it, about 7% of the Laplace solver's flops."""
    x = c.copy()
    for hi in range(c.size, 0, -64):
        lo = max(hi - 64, 0)
        x[lo:hi] = np.linalg.solve(R[lo:hi, lo:hi], x[lo:hi] - R[lo:hi, hi:] @ x[hi:])
    return x


# geqrf by dtype: lapack_lite's factorizations, the ones np.linalg.qr runs
_GEQRF = {np.dtype(np.float64): lapack_lite.dgeqrf, np.dtype(np.complex128): lapack_lite.zgeqrf}


def _qr_r(a: np.ndarray) -> np.ndarray:
    """R of the Householder QR of ``a`` (m x n), which it overwrites:
    LAPACK's ``geqrf`` through ``numpy.linalg.lapack_lite``, the routine
    ``np.linalg.qr`` calls after copying its input twice, here on the
    caller's own array.  Returns the triangle of the top min(m, n) rows,
    the bytes of ``np.linalg.qr(a, mode="r")``.

    ``a`` must be a writeable, column-major float64 or complex128 array
    (LAPACK's layout); anything else raises ``ValueError`` before LAPACK
    sees it, since lapack_lite checks the dtype and C-contiguity of what
    it is given (the transpose here) but not the sizes.  An empty ``a``
    needs no LAPACK call.  lapack_lite holds the GIL through the call."""
    geqrf = _GEQRF.get(a.dtype) if isinstance(a, np.ndarray) else None
    if geqrf is None or a.ndim != 2 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("_qr_r factors a writeable column-major float64 or complex128 "
                         f"matrix, got {type(a).__name__} {getattr(a, 'dtype', '')} "
                         f"{getattr(a, 'shape', '')}")
    m, n = a.shape
    k = min(m, n)
    if k:
        tau, work = np.empty(k, a.dtype), np.empty(1, a.dtype)
        geqrf(m, n, a.T, max(m, 1), tau, work, -1, 0)  # the workspace query
        work = np.empty(max(1, n, int(work[0].real)), a.dtype)
        geqrf(m, n, a.T, max(m, 1), tau, work, work.size, 0)
    return np.triu(a[:k])


# columns of A per block of damped_lstsq's damping step
_DAMP_BLOCK = 192


def damped_lstsq(Ab: np.ndarray) -> np.ndarray:
    """Least-squares solution x of A x ~ b from ``Ab = [A b]`` (m x (n+1),
    real or complex) by damped Householder QR: the library's one solver.
    ``Ab`` is read, never written.

    An R-only QR reduces the unscaled ``[A b]`` to an (n+1)-row triangle
    ``[R c]``; the tall matrix is then released, and a caller's temporary
    ``[A b]`` as soon as it is copied, before the QR.  A's columns are
    scaled to unit norm on the triangle: Householder QR commutes with
    column scaling, |R e_j| = |A e_j|, and the R of A D is the R of A times
    D to columnwise rounding (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 19), so the scaling costs n x n work and no m x n
    temporary.  The damping step then reduces ``[R c; lam*I 0]``, which
    gives the x of ``min |A x - b|^2 + lam^2 |x|^2`` for the scaled A, as
    one QR of ``[A b; lam*I 0]`` would in exact arithmetic.
    ``lam = max(m, n) * eps`` is the default singular-value cutoff of
    ``np.linalg.lstsq``, relative to the unit-norm columns: a direction
    they resolve only below it is damped instead of fit, so a numerically
    rank-deficient basis (duplicate poles, a high-degree monomial tail)
    gives finite coefficients where an undamped QR would divide by
    rounding.  Raises ``RuntimeError`` if a column of A, or b, is not
    finite: a non-finite entry leaves its column of the triangle, and
    every column after it, non-finite.

    The damping rows are reduced one block of ``_DAMP_BLOCK`` columns at a
    time (Elden, BIT 1977): a block's R-only QR sees only its own rows of
    R, the triangle of fill that the blocks before it left in the trailing
    columns, and its own lam rows, and the fill it leaves comes out
    compressed to a triangle again.  One dense QR of the (2n+1) x (n+1)
    stack costs about 3.3 n^3 flops; blocks of width n/b cost about 2.0,
    1.6 and 1.5 n^3 for b = 2, 3 and 4, so past three blocks the flops fall
    little while each QR gets narrower.  192 columns give three blocks at
    n = 575 (the Laplace solve at N = 240); at n <= 192, as in every tail
    fit of the benchmark's sweeps, the step is the one dense QR of the
    whole stack.

    Both QRs factor in place (``_qr_r``): the first on one private
    column-major copy of ``[A b]``, in float64 or complex128 (an integer or
    float32 ``[A b]`` solves as its float64 cast), where ``np.linalg.qr``
    made two; each damping stack, built column-major for it, with no copy.
    LAPACK's ``geqrf`` through ``numpy.linalg.lapack_lite`` holds the GIL,
    so solves on Python threads do not overlap in the QR; BLAS threads
    still do.
    """
    m, n = Ab.shape[0], Ab.shape[1] - 1
    work = np.array(Ab, np.result_type(Ab.dtype, np.float64), order="F")
    del Ab  # a caller's temporary dies here, before the QR
    R = _qr_r(work)
    del work  # and the tall array before the damping step
    norms = np.linalg.norm(R[:, :n], axis=0)
    if not np.all(np.isfinite(norms)):
        raise RuntimeError("design matrix is not finite")
    if not np.all(np.isfinite(R[:, n])):
        raise RuntimeError("right-hand side is not finite")
    norms[norms == 0.0] = 1.0
    R[:, :n] /= norms
    lam = max(m, n) * np.finfo(float).eps
    T = np.zeros((n, n + 1), R.dtype)
    fill = R[:0]
    for lo in range(0, n, _DAMP_BLOCK):
        hi = min(lo + _DAMP_BLOCK, n)
        # the last block also takes R's last row: one block is the whole stack
        own = R[lo:hi, lo:] if hi < n else R[lo:, lo:]
        top = own.shape[0] + fill.shape[0]
        stack = np.zeros((top + hi - lo, n + 1 - lo), R.dtype, order="F")
        stack[:own.shape[0]] = own
        stack[own.shape[0]:top] = fill
        np.fill_diagonal(stack[top:], lam)
        Rb = _qr_r(stack)
        T[lo:hi, lo:] = Rb[:hi - lo]
        fill = Rb[hi - lo:, hi - lo:]
    return _back_substitute(T[:, :n], T[:, n]) / norms
