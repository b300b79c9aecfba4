"""Construction of the rational-plus-polynomial approximation.

The approximant is a partial-fraction sum over tapered exponentially
clustered poles on the negative real axis plus a low-degree polynomial tail.
Residues are explicit; the tail is fit by least squares to the analytic
remainder (far quadrature poles plus constants), which is evaluated in a
cancellation-free combined form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ray_fan
from .kernels import log_weights, pole_sum, quadrature_nodes, tapered

__all__ = [
    "ApproxConfig",
    "RationalApprox",
    "TailFit",
    "optimal_sigma",
    "clustered_poles",
    "residues_power",
    "residues_power_log",
    "fit_tail",
    "build_approximation",
    "serialize",
    "deserialize",
]

TARGETS = ("power", "power_log", "prefactor_power", "prefactor_power_log")


def _sigma_opt(alpha: float, beta: float) -> float:
    """sqrt(2*(2-beta))*pi/sqrt(alpha), the one definition of the optimal
    clustering parameter: for the sector, and for each corner of a polygon,
    whose exponent alpha_k = 1/beta_k may exceed 1 (corners.plan_basis)."""
    return math.sqrt(2.0 * (2.0 - beta)) * math.pi / math.sqrt(alpha)


def optimal_sigma(alpha: float, beta: float) -> float:
    """Clustering parameter sqrt(2*(2-beta))*pi/sqrt(alpha), the fastest
    choice on a sector of half-opening beta*pi/2."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 0.0 <= beta < 2.0:
        raise ValueError("beta must lie in [0, 2)")
    return _sigma_opt(alpha, beta)


@dataclass(frozen=True)
class ApproxConfig:
    """All knobs of one approximation build.

    n2 defaults to ceil(1.3*n1), the experimentally efficient tail degree;
    rate-verification sweeps use smaller tails (see analysis.run_sweep).
    Derived quantities: h = sigma^2*alpha^2, kappa = alpha/(1-alpha),
    truncation T = sigma*alpha*sqrt(n1), and the quadrature term count
    n_quad paired with n1 through n1 = ceil(n_quad/(kappa+1)^2).
    """

    alpha: float
    beta: float
    sigma: float
    n1: int
    C: float = 1.0
    n2: int | None = None  # None means the ceil(1.3*n1) default
    target: str = "power"
    g: Callable | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 <= self.beta < 2.0:
            raise ValueError("beta must lie in [0, 2)")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not 0.0 < self.C < math.inf:
            raise ValueError("C must be positive and finite")
        if self.n1 < 1:
            raise ValueError("n1 must be >= 1")
        if self.n2 is None:
            object.__setattr__(self, "n2", math.ceil(1.3 * self.n1))
        if self.n2 < 0:
            raise ValueError("n2 must be >= 0")
        if self.n2 > 120:
            raise ValueError("tail degree capped at 120 for conditioning control")
        if self.target not in TARGETS:
            raise ValueError(f"unknown target {self.target!r}")
        if self.target.startswith("prefactor") != (self.g is not None):
            raise ValueError("prefactor targets require g; plain targets forbid it")
        if self.T / (1.0 - self.alpha) > 600.0:
            raise ValueError("parameters exceed the double-precision range")

    @property
    def h(self) -> float:
        return self.sigma**2 * self.alpha**2

    @property
    def kappa(self) -> float:
        return self.alpha / (1.0 - self.alpha)

    @property
    def T(self) -> float:
        return self.sigma * self.alpha * math.sqrt(self.n1)

    @property
    def n_quad(self) -> int:
        # largest integer count consistent with n1 = ceil(n_quad/(kappa+1)^2)
        ratio = (self.kappa + 1.0) ** 2
        n = int(math.floor(self.n1 * ratio + 1e-9))
        while math.ceil(n / ratio - 1e-12) > self.n1:
            n -= 1
        return n

    @property
    def log_like(self) -> bool:
        return self.target.endswith("power_log")


def clustered_poles(cfg: ApproxConfig) -> np.ndarray:
    """The n1 tapered poles -C*exp(-sigma*(sqrt(n1)-sqrt(j))); the last one
    is exactly -C."""
    return -tapered(cfg.n1, cfg.sigma, cfg.C)


def residues_power(cfg: ApproxConfig) -> np.ndarray:
    """Residues sqrt(h)*p_j*|p_j|^alpha*sin(alpha*pi)/(2*sqrt(j)*alpha*pi);
    all real and negative."""
    a = cfg.alpha
    p = clustered_poles(cfg)
    j = np.arange(1, cfg.n1 + 1)
    return math.sqrt(cfg.h) * p * np.abs(p)**a * math.sin(a * math.pi) \
        / (2.0 * np.sqrt(j) * a * math.pi)


def residues_power_log(cfg: ApproxConfig) -> np.ndarray:
    """Residues of the log-target scheme: the plain h-weighted part plus the
    sqrt(h/j)-weighted correction carrying chi and T."""
    p = clustered_poles(cfg)
    j = np.arange(1, cfg.n1 + 1)
    w1, w2 = log_weights(cfg.alpha, cfg.C, cfg.h, cfg.T)
    return (w1 + w2 * np.sqrt(cfg.h / j)) * p * np.abs(p)**cfg.alpha


# the near/far split of _remainder_values: far poles within
# _NEAR_RADIUS*max(1, max|z|) are summed directly, the rest as _MOMENTS moments
_NEAR_RADIUS = 16.0
_MOMENTS = 15


def _remainder_values(cfg: ApproxConfig, zs: np.ndarray) -> np.ndarray:
    """The analytic remainder (far poles folded with their constants, plus
    the near-pole constant sum), in the cancellation-free form where each
    far term w_j*z/(z - p_j) is ~ |p_j|^(alpha-1)*z.

    Far poles closer than 16*max(1, max|z|) are summed directly.  The rest
    have |z/p| <= 1/16, so z/(z - p) = -sum_k (z/p)^k and their part is the
    polynomial -z*sum_k m_k z^(k-1) in the moments m_k = sum_j w_j p_j^-k,
    k = 1..15.  Cut after 15 terms, the series is off by under 1e-18 of
    each term, far below rounding (the far-field expansion of Greengard and
    Rokhlin, and the Runge step by which the paper bounds the tail).
    """
    a = cfg.alpha
    zs = np.asarray(zs, complex)
    j_far = np.arange(cfg.n1 + 1, cfg.n_quad + 1)
    _, far = quadrature_nodes(cfg, j_far)
    j_near = np.arange(1, cfg.n1 + 1)
    p_near_mag = np.abs(clustered_poles(cfg))**a
    far_mag = np.abs(far)**a
    if cfg.log_like:
        w1, w2 = log_weights(cfg.alpha, cfg.C, cfg.h, cfg.T)
        c_near = w1 * p_near_mag.sum() + w2 * np.sum(np.sqrt(cfg.h / j_near) * p_near_mag)
        fw = w1 + w2 * np.sqrt(cfg.h / j_far)
    else:
        pref = math.sin(a * math.pi) / (2.0 * a * math.pi)
        c_near = pref * np.sum(np.sqrt(cfg.h / j_near) * p_near_mag)
        fw = pref * np.sqrt(cfg.h / j_far)
    weights = fw * far_mag
    close = np.abs(far) < _NEAR_RADIUS * np.max(np.abs(zs), initial=1.0)
    direct = zs[:, None] / (zs[:, None] - far[close]) @ weights[close]
    inv = 1.0 / far[~close]
    moments = (weights[~close] * inv) @ np.vander(inv, _MOMENTS, increasing=True)
    return direct - zs * _poly_eval(moments, zs, 1.0) + c_near


def _chebyshev_radii(n: int) -> np.ndarray:
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(math.pi * (k + 0.5) / n))


def _fit_points(cfg: ApproxConfig, fine: bool) -> np.ndarray:
    """Deterministic sample set on the boundary of the unit sector: a few
    points per pole scale near the apex and Chebyshev radii toward |z| = 1
    (which keeps the polynomial fit well posed at high degree), on the two
    edge rays (the axis alone at beta = 0), then the arc and the apex.

    The remainder being fit is analytic on the closed sector (its far poles
    lie on the negative axis and beta < 2), and so is the misfit of a
    polynomial to it, or to a prefactor target's remainder when g is
    analytic there.  By the maximum modulus principle the misfit's sup is
    on the edge rays or the arc, so interior points add nothing.

    For the plain targets only the upper half is kept (_reflected_half): the
    remainder obeys f(conj z) = conj f(z), since the far poles and their
    weights are real and alpha is real, so a polynomial with real
    coefficients (as fit_tail fits) has the same misfit at z and at conj z.
    A prefactor target's g need not reflect that way, so its set keeps both
    halves."""
    mags = np.abs(clustered_poles(cfg))
    mults = (0.6, 0.9, 1.1, 1.4) if fine else (0.75, 1.0, 1.25)
    radii = np.outer(mags, mults).ravel()
    lo = max(mags.min() * 0.5, 1e-17)
    n_cheb = (6 if fine else 4) * (cfg.n2 + 1)
    radii = np.concatenate([
        radii,
        np.geomspace(lo, 1.0, 65 if fine else 33),
        _chebyshev_radii(max(n_cheb, 48)),
    ])
    radii = np.unique(np.clip(radii, lo, 1.0))
    pts = ray_fan(cfg.beta, radii, 2)
    n_arc = (4 if fine else 2) * (cfg.n2 + 1)
    if cfg.beta > 0:
        pts = np.concatenate([pts, ray_fan(cfg.beta, [1.0], max(n_arc, 64))])
    return _reflected_half(cfg, np.concatenate([pts, [0.0]]))


def _reflected_half(cfg: ApproxConfig, pts: np.ndarray) -> np.ndarray:
    """The points of a sector sample set that a config's tail fit and sup
    norm need: those with Im z >= 0 for a plain target (cfg.g is None),
    whose error e obeys |e(conj z)| = |e(z)| by Schwarz reflection, and all
    of them for a prefactor target, whose g need not satisfy
    g(conj z) = conj g(z).

    A point within rounding of the axis is put on it first.  The middle
    angle of an odd fan, such as the rate grid's arc, is 0 only up to a few
    ulps of beta*pi/2, and at beta = 1.1 it rounds below the axis: without
    the snap the half would lose z = 1, which can hold the sup."""
    if cfg.g is not None:
        return pts
    pts = np.where(np.abs(pts.imag) <= 1e-15 * np.abs(pts.real), pts.real + 0j, pts)
    return pts[pts.imag >= 0]


def _poly_lstsq(zs, values, degree, real=False):
    """Least-squares monomial coefficients of a degree-``degree`` fit to
    ``values`` at ``zs``, solved with unit-norm columns.

    ``real=True`` takes ``zs`` as the Im z >= 0 half of a set closed under
    conjugation, with values obeying f(conj z) = conj f(z), and fits real
    coefficients: the rows [Re V; Im V] against [Re y; Im y], with the rows
    of points on the axis weighted by 1/sqrt(2).  That objective is half
    the complex one over the whole set, so it has the same minimiser.  The
    Im rows of points on the axis are zero and are left out."""
    zs = np.asarray(zs, complex)
    V = np.vander(zs, degree + 1, increasing=True)
    if V.shape[0] < V.shape[1]:
        raise ValueError("increase sampling or reduce N2 (rank-deficient fit)")
    y = np.asarray(values, complex)
    if real:
        axis = zs.imag == 0.0
        w = np.where(axis, math.sqrt(0.5), 1.0)
        V = np.concatenate([V.real * w[:, None], V[~axis].imag])
        y = np.concatenate([y.real * w, y[~axis].imag])
    norms = np.linalg.norm(V, axis=0)
    norms[norms == 0.0] = 1.0
    c, _, _, _ = np.linalg.lstsq(V / norms, y, rcond=None)
    return c / norms


def _poly_eval(coeffs, zs, scale):
    return np.polynomial.polynomial.polyval(np.asarray(zs, complex) / scale, coeffs)


@dataclass(frozen=True)
class TailFit:
    """Polynomial tail (monomial coefficients in z) with its misfit on the
    fit points and on the finer validation points."""

    coeffs: np.ndarray
    fit_rms: float
    validation_sup: float


def fit_tail(cfg: ApproxConfig, values_fn=None) -> TailFit:
    """Degree-n2 least-squares polynomial fit to ``values_fn`` (default: the
    analytic remainder) over clustered samples of the unit sector's boundary.

    For the plain targets the samples are the upper half of the boundary
    (see _fit_points) and the coefficients are real.  ``fit_rms`` is still
    the RMS over the whole boundary: a point on the axis counts once, any
    other point twice, for itself and its mirror image."""
    values_fn = values_fn or (lambda zs: _remainder_values(cfg, zs))
    real = cfg.g is None
    zs = _fit_points(cfg, fine=False)
    y = values_fn(zs)
    coeffs = _poly_lstsq(zs, y, cfg.n2, real=real)
    resid = _poly_eval(coeffs, zs, 1.0) - y
    counts = np.where(zs.imag == 0.0, 1.0, 2.0) if real else None
    rms = float(np.sqrt(np.average(np.abs(resid) ** 2, weights=counts)))
    zv = _fit_points(cfg, fine=True)
    sup = float(np.max(np.abs(_poly_eval(coeffs, zv, 1.0) - values_fn(zv))))
    return TailFit(coeffs=coeffs, fit_rms=rms, validation_sup=sup)


@dataclass(frozen=True, eq=False)
class RationalApprox:
    """Evaluable partial fractions plus polynomial tail.

    Immutable; evaluation is safe from concurrent callers.
    """

    poles: np.ndarray
    residues: np.ndarray
    tail_coeffs: np.ndarray
    basis_scale: float

    def __post_init__(self):
        p = np.asarray(self.poles, complex).ravel()
        r = np.asarray(self.residues, complex).ravel()
        t = np.asarray(self.tail_coeffs, complex).ravel()
        if p.size != r.size:
            raise ValueError("poles and residues must pair up")
        if np.any(p.imag != 0.0):
            raise ValueError("poles must lie on the negative real axis")
        # natural index order of the tapered formula: p_1 nearest the origin,
        # magnitudes strictly growing to |p_n1| = C
        if p.size and not (np.all(np.diff(p.real) < 0) and np.all(p.real < 0)):
            raise ValueError("poles must be negative with strictly growing magnitude")
        if not (np.all(np.isfinite(r.view(float))) and np.all(np.isfinite(t.view(float)))):
            raise ValueError("non-finite coefficients")
        for name, arr in (("poles", p), ("residues", r), ("tail_coeffs", t)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_poles(self) -> int:
        return int(self.poles.size)

    def eval(self, z):
        """Evaluate at a complex point (returns a complex) or an array of
        points: the partial fractions by kernels.pole_sum, which raises
        PoleCollisionError on any collision, then the Horner tail."""
        zs = np.asarray(z, complex)
        flat = zs.ravel()
        out = pole_sum(flat, self.poles, self.residues)
        out += _poly_eval(self.tail_coeffs, flat, self.basis_scale)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)

    __call__ = eval


def build_approximation(cfg: ApproxConfig, *, tail: TailFit | None = None) -> RationalApprox:
    """Build the full approximant for cfg.target on the unit sector.

    ``tail`` is a ``fit_tail(cfg)`` result the caller already holds (a rate
    sweep fits it while choosing n2); it is used as is instead of being fit
    again.  Only the ``power`` and ``power_log`` targets take one: the
    prefactor targets fit their own g-corrected tail.
    """
    if tail is not None:
        if cfg.target not in ("power", "power_log"):
            raise ValueError("prefactor targets fit their own g-corrected tail")
        if tail.coeffs.size != cfg.n2 + 1:
            raise ValueError("tail does not match the config")
    poles = clustered_poles(cfg)
    base_res = residues_power_log(cfg) if cfg.log_like else residues_power(cfg)
    if cfg.target in ("power", "power_log"):
        residues = base_res
        if tail is None:
            tail = fit_tail(cfg)
    else:
        gp = np.array([cfg.g(complex(p)) for p in poles.tolist()], complex)
        residues = gp * base_res

        def corrected(zs):
            zs = np.asarray(zs, complex)
            gz = np.array([cfg.g(complex(w)) for w in zs.tolist()], complex)
            near = pole_sum(zs, poles, base_res)
            folded = pole_sum(zs, poles, residues)
            return gz * (near + _remainder_values(cfg, zs)) - folded

        tail = fit_tail(cfg, values_fn=corrected)
    return RationalApprox(
        poles=poles,
        residues=residues,
        tail_coeffs=tail.coeffs,
        basis_scale=1.0,
    )


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _fmt(c.real)
    return f"({_fmt(c.real)}{c.imag:+.17g}j)"


def serialize(approx: RationalApprox) -> str:
    """Text form: 'pole re im' / 'residue re im' lines, one 'tail c0 c1 ...'
    line, and 'scale s'.  Decimal-17 fields round-trip doubles exactly."""
    lines = [f"pole {_fmt(p.real)} {_fmt(p.imag)}" for p in approx.poles.tolist()]
    lines += [f"residue {_fmt(r.real)} {_fmt(r.imag)}" for r in approx.residues.tolist()]
    lines.append("tail " + " ".join(_fmt_coeff(c) for c in approx.tail_coeffs.tolist()))
    lines.append(f"scale {_fmt(approx.basis_scale)}")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> RationalApprox:
    poles, residues, tail, scale = [], [], [0j], 1.0
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind == "pole":
            re_s, im_s = rest.split()
            poles.append(complex(float(re_s), float(im_s)))
        elif kind == "residue":
            re_s, im_s = rest.split()
            residues.append(complex(float(re_s), float(im_s)))
        elif kind == "tail":
            tail = [complex(tok) for tok in rest.split()]
        elif kind == "scale":
            scale = float(rest)
        else:
            raise ValueError(f"unknown record {kind!r}")
    return RationalApprox(
        poles=np.array(poles, complex),
        residues=np.array(residues, complex),
        tail_coeffs=np.array(tail, complex),
        basis_scale=scale,
    )
