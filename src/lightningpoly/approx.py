"""Construction of the rational-plus-polynomial approximation.

The approximant is a partial-fraction sum over tapered exponentially
clustered poles on the negative real axis plus a low-degree polynomial tail.
Residues are explicit; the tail is fit by least squares to the analytic
remainder (far quadrature poles plus constants), which is evaluated in a
cancellation-free combined form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .geometry import chebyshev_radii, sector_boundary
from .kernels import (_MAX_N_QUAD, _real_poles, check_double_range, check_parameters,
                      damped_lstsq, horner, log_weights, pole_sum, quadrature_nodes, tapered)

__all__ = [
    "check_target",
    "ApproxConfig",
    "RationalApprox",
    "TailFit",
    "optimal_sigma",
    "optimal_step",
    "clustered_poles",
    "residues",
    "fit_tail",
    "tail_fits",
    "ladder_tail",
    "build_approximation",
    "serialize",
    "deserialize",
]

# the target kinds z^alpha and z^alpha*log z; a config's g multiplies either
TARGETS = ("power", "power_log")
# the largest tail degree, set by the fit matrix's memory, which grows as n2^2:
# alpha = 0.5, beta = 1, sigma = opt, n1 = 100 builds at a peak RSS of 80 MB at
# n2 = 500 and 218 MB at n2 = 1000 (0.7 s); the damped solve converges at any degree
_MAX_N2 = 1000


def check_target(kind) -> None:
    """The one check of a target kind against TARGETS."""
    if kind not in TARGETS:
        raise ValueError(f"unknown target {kind!r}")


def _sigma_opt(alpha: float, beta: float) -> float:
    """sqrt(2*(2-beta))*pi/sqrt(alpha), the one definition of the optimal
    clustering parameter: for the sector, and for each corner of a polygon,
    whose exponent alpha_k = 1/beta_k may exceed 1 (corners.plan_basis)."""
    return math.sqrt(2.0 * (2.0 - beta)) * math.pi / math.sqrt(alpha)


def optimal_sigma(alpha: float, beta: float) -> float:
    """Clustering parameter sqrt(2*(2-beta))*pi/sqrt(alpha), the fastest
    choice on a sector of half-opening beta*pi/2."""
    check_parameters(alpha=alpha, beta=beta)
    return _sigma_opt(alpha, beta)


def optimal_step(alpha: float, beta: float) -> float:
    """The trapezoid step sigma_opt^2*alpha^2 of optimal_sigma, written
    2*(2-beta)*pi^2*alpha without its square roots; checks alpha and beta
    as optimal_sigma does."""
    optimal_sigma(alpha, beta)
    return 2.0 * (2.0 - beta) * math.pi**2 * alpha


@dataclass(frozen=True)
class ApproxConfig:
    """All knobs of one approximation build.

    The target is z^alpha ("power") or z^alpha*log z ("power_log"), times
    g(z) when g is given (a prefactor target; g is called on one complex
    point at a time).

    n2 defaults to ceil(1.3*n1), the experimentally efficient tail degree,
    at most _MAX_N2; rate sweeps use smaller tails (see ladder_tail).
    Derived quantities: h = sigma^2*alpha^2, kappa = alpha/(1-alpha),
    truncation T = sigma*alpha*sqrt(n1), and the quadrature term count
    n_quad paired with n1 through n1 = ceil(n_quad/(kappa+1)^2), at most
    kernels._MAX_N_QUAD.  The poles, h and the residues must stay in the
    double range (kernels.check_double_range).
    """

    alpha: float
    beta: float
    sigma: float
    n1: int
    C: float = 1.0
    n2: int | None = None  # None means the min(ceil(1.3*n1), _MAX_N2) default
    target: str = "power"
    g: Callable | None = None

    def __post_init__(self):
        check_parameters(alpha=self.alpha, beta=self.beta, sigma=self.sigma, C=self.C,
                         n1=self.n1)
        if self.n2 is None:
            object.__setattr__(self, "n2", min(math.ceil(1.3 * self.n1), _MAX_N2))
        check_parameters(n2=self.n2)
        if self.n2 > _MAX_N2:
            raise ValueError(f"n2={self.n2}: tail degree capped at {_MAX_N2} to bound "
                             "the fit matrix's memory")
        check_target(self.target)
        la, ls, lc = math.log(self.alpha), math.log(self.sigma), math.log(self.C)
        check_double_range(
            dict(alpha=self.alpha, sigma=self.sigma, C=self.C, n1=self.n1),
            # the innermost pole, h = (sigma*alpha)^2 and the log weights' alpha^2
            min(lc - self.sigma * (math.sqrt(self.n1) - 1.0), 2.0 * (ls + la), 2.0 * la),
            # the outermost far pole and the outermost residue, about sqrt(h)*C^(1+alpha)
            max(lc + self.T / (1.0 - self.alpha), ls + la + (1.0 + self.alpha) * lc))
        if self.n_quad > _MAX_N_QUAD:  # n1 <= n_quad, so this bounds n1 as well
            raise ValueError(f"alpha={self.alpha:.6g} and n1={self.n1} ask for {self.n_quad} "
                             f"quadrature poles, above the {_MAX_N_QUAD} that bound their memory")

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
        return self.target == "power_log"


def clustered_poles(cfg: ApproxConfig) -> np.ndarray:
    """The n1 tapered poles -C*exp(-sigma*(sqrt(n1)-sqrt(j))); the last one
    is exactly -C."""
    return -tapered(cfg.n1, cfg.sigma, cfg.C)


def residues(cfg: ApproxConfig) -> np.ndarray:
    """Residues of cfg's target kind, before any prefactor g; all real.  For
    z^alpha, sqrt(h)*p_j*|p_j|^alpha*sin(alpha*pi)/(2*sqrt(j)*alpha*pi), all
    negative; for z^alpha*log z, the plain h-weighted part plus the
    sqrt(h/j)-weighted correction carrying chi and T."""
    a = cfg.alpha
    p = clustered_poles(cfg)
    j = np.arange(1, cfg.n1 + 1)
    if cfg.log_like:
        w1, w2 = log_weights(a, cfg.C, cfg.h, cfg.T)
        return (w1 + w2 * np.sqrt(cfg.h / j)) * p * np.abs(p)**a
    return math.sqrt(cfg.h) * p * np.abs(p)**a * math.sin(a * math.pi) \
        / (2.0 * np.sqrt(j) * a * math.pi)


# the near/far split of _remainder_values: far poles within
# _NEAR_RADIUS*max(1, max|z|) are summed directly, in blocks of points of at
# most _BLOCK_ENTRIES (points x poles) entries (16 MiB per complex matrix),
# the rest as _MOMENTS moments
_NEAR_RADIUS = 16.0
_BLOCK_ENTRIES = 2**20
_MOMENTS = 15


def _remainder_values(cfg: ApproxConfig, zs: np.ndarray) -> np.ndarray:
    """The analytic remainder (far poles folded with their constants, plus
    the near-pole constant sum), in the cancellation-free form where each
    far term w_j*z/(z - p_j) is ~ |p_j|^(alpha-1)*z.

    Far poles closer than 16*max(1, max|z|) are summed directly, as one
    matrix product per block of points; a block holds at most 2^20 (points
    x poles) entries, so at alpha near 1 and a small sigma, where nearly
    all of up to 2^17 far poles are close, memory stays bounded.  The rest
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
    far_c, w_c = far[close], weights[close]
    rows = max(1, _BLOCK_ENTRIES // max(far_c.size, 1))
    direct = np.empty(zs.size, complex)
    for start in range(0, zs.size, rows):
        z = zs[start:start + rows, None]
        direct[start:start + rows] = z / (z - far_c) @ w_c
    inv = 1.0 / far[~close]
    moments = (weights[~close] * inv) @ np.vander(inv, _MOMENTS, increasing=True)
    return direct - zs * horner(moments, zs) + c_near


# the multipliers k of a rate sweep's tail-degree ladder, whose rungs are
# n2 = ceil(k*sqrt(n1)) (ladder_tail); the top one also sizes the fit sets
# (_fit_points)
_LADDER = (2.0, 3.0, 4.0, 6.0)


def _ladder_degrees(n1: int) -> list[int]:
    """The tail degrees ceil(k*sqrt(n1)) of the ladder's rungs, lowest first."""
    return [math.ceil(k * math.sqrt(n1)) for k in _LADDER]


def _fit_points(cfg: ApproxConfig, fine: bool) -> np.ndarray:
    """Deterministic samples of the unit sector's boundary
    (geometry.sector_boundary; the upper half for a plain target), sized by
    the tail's degree: on each edge ray 2*size Chebyshev radii of [0, 1]
    (4*size for the validation set; at least 48), clustered toward both
    ends, which keep the polynomial fit well posed at high degree, and the
    radius 1, the set's one z = 1 at beta = 0, where there is no arc; and
    as many arc points (at least 64).  Two samples per unknown on each ray
    and on the arc keep the least-squares fit well determined, and the
    validation set, twice as fine, bounds the misfit between them: on a set
    eight times as fine it stays within 1.5x of validation_sup, or at the
    float floor.

    No radius lies below half the innermost pole's magnitude (smaller
    Chebyshev radii are clipped to it).  The tail fits the far-pole
    remainder (or the g-corrected one, _tail_values), which is analytic
    near the closed sector: its nearest singularity is the innermost far
    pole, at -C*exp(sigma*(sqrt(n1 + 1) - sqrt(n1))), beyond -C.  By
    Runge's theorem its best polynomial converges at a rate set by that
    distance, not by the near poles' scales.  Radii at those scales, down to
    about 1e-13, would give Vandermonde rows equal to [1, 0, ..., 0] to
    rounding, which tell the fit nothing.

    The counts grow with size = max(n2, ceil(6*sqrt(n1))) + 1, the larger
    of the config's degree and the ladder's top rung, not with n2 alone.
    So every rung of a sweep cell's ladder shares one fit set and one
    validation set (tail_fits builds them once), and a fresh fit_tail from
    the rung a sweep chose sees those same sets: a sweep record equals a
    fresh build from its config."""
    lo = max(np.abs(clustered_poles(cfg)).min() * 0.5, 1e-17)
    size = max(cfg.n2, _ladder_degrees(cfg.n1)[-1]) + 1
    n = (4 if fine else 2) * size
    radii = np.unique(np.clip(np.append(chebyshev_radii(max(n, 48)), 1.0), lo, 1.0))
    return sector_boundary(cfg.beta, radii, max(n, 64), upper_half=cfg.g is None)


def _poly_lstsq(zs, values, degree, real=False):
    """Least-squares monomial coefficients of a degree-``degree`` fit to
    ``values`` at ``zs``, by kernels.damped_lstsq on ``[V y]``.

    ``real=True`` takes ``zs`` as the Im z >= 0 half of a set closed under
    conjugation, with values obeying f(conj z) = conj f(z), and fits real
    coefficients: the rows [Re V; Im V] against [Re y; Im y], with the rows
    of points on the axis weighted by 1/sqrt(2).  That objective is half
    the complex one over the whole set, so it has the same minimiser.  The
    Im rows of points on the axis are zero and are left out.

    ``[V y]`` is written once, column-major: damped_lstsq factors one
    column-major copy of it in place, which a column-major ``[V y]`` fills
    without a transpose."""
    zs, y = np.asarray(zs, complex), np.asarray(values, complex)
    m, n = zs.size, degree + 1
    if m < n:
        raise ValueError("increase sampling or reduce N2 (rank-deficient fit)")
    V = np.vander(zs, n, increasing=True)
    if not real:
        Vy = np.empty((m, n + 1), complex, order="F")
        Vy[:, :n], Vy[:, n] = V, y
        return damped_lstsq(Vy)
    off = zs.imag != 0.0
    w = np.where(off, 1.0, math.sqrt(0.5))
    Vy = np.empty((m + np.count_nonzero(off), n + 1), order="F")
    np.multiply(V.real, w[:, None], out=Vy[:m, :n])
    np.multiply(y.real, w, out=Vy[:m, n])
    Vy[m:, :n], Vy[m:, n] = V.imag[off], y.imag[off]
    return damped_lstsq(Vy)


@dataclass(frozen=True)
class TailFit:
    """Polynomial tail (monomial coefficients in z) with its misfit on the
    fit points and on the finer validation points."""

    coeffs: np.ndarray
    fit_rms: float
    validation_sup: float


def _g_values(g, zs) -> np.ndarray:
    """g at each point of ``zs``, one scalar call per point."""
    return np.array([g(complex(w)) for w in np.asarray(zs).tolist()], complex)


def _residues(cfg: ApproxConfig):
    """(base, residues): the kind's residues (residues), and the
    approximant's, which are the base ones times g(p_j) for a prefactor target."""
    base = residues(cfg)
    return base, (base if cfg.g is None else _g_values(cfg.g, clustered_poles(cfg)) * base)


def _tail_values(cfg: ApproxConfig, zs) -> np.ndarray:
    """What the tail fits: the remainder, and for a prefactor target
    g(z)*(near + remainder) - folded, where near and folded are the pole
    sums of the base and of the approximant's residues (_residues)."""
    remainder = _remainder_values(cfg, zs)
    if cfg.g is None:
        return remainder
    zs, poles = np.asarray(zs, complex), clustered_poles(cfg)
    base, residues = _residues(cfg)
    near = pole_sum(zs, poles, base)
    return _g_values(cfg.g, zs) * (near + remainder) - pole_sum(zs, poles, residues)


def tail_fits(cfg: ApproxConfig, degrees):
    """Lazily yield one least-squares polynomial fit to _tail_values per
    degree in ``degrees``, over clustered samples of the unit sector's
    boundary.

    The fit and validation sets (_fit_points) and the values on both (one
    _tail_values call on the two sets joined, which must be finite) are
    made once, before the first fit.  Each degree then has its own monomial
    basis and damped least squares (_poly_lstsq), and its tail is evaluated
    once, on the two sets joined; Horner's rule is elementwise, so each
    set's misfit is the one it would have alone.  A consumer that stops
    early, as the rate sweep's ladder does, pays for no later fit and
    builds no larger basis.

    For the plain targets the samples are the upper half of the boundary
    (see _fit_points) and the coefficients are real.  ``fit_rms`` is still
    the RMS over the whole boundary: a point on the axis counts once, any
    other point twice, for itself and its mirror image."""
    real = cfg.g is None
    zs = _fit_points(cfg, fine=False)
    z_all = np.concatenate([zs, _fit_points(cfg, fine=True)])
    y_all = _tail_values(cfg, z_all)
    if not np.all(np.isfinite(y_all)):
        raise RuntimeError("tail values are not finite")
    y = y_all[:zs.size]
    counts = np.where(zs.imag == 0.0, 1.0, 2.0) if real else np.ones(zs.size)
    for n2 in degrees:
        coeffs = _poly_lstsq(zs, y, n2, real=real)
        miss_all = np.abs(horner(coeffs, z_all) - y_all)
        miss, miss_v = miss_all[:zs.size], miss_all[zs.size:]
        rms = float(np.sqrt((miss ** 2 * counts).sum() / counts.sum()))
        yield TailFit(coeffs=coeffs, fit_rms=rms, validation_sup=float(np.max(miss_v)))


def fit_tail(cfg: ApproxConfig) -> TailFit:
    """The degree-n2 tail fit of tail_fits.  Its sets are sized by the
    larger of n2 and the ladder's top rung (_fit_points), so on any rung's
    config it equals the fit a rate sweep's ladder made for that rung."""
    return next(tail_fits(cfg, [cfg.n2]))


def ladder_tail(cfg: ApproxConfig):
    """Tail degree for rate sweeps: smallest rung n2 = ceil(k*sqrt(n1)),
    k in _LADDER (2, 3, 4, 6), whose fit misfit is below the truncation
    error (or the float floor); keeps N = n1 + n2 close to n1 so fitted
    slopes stay comparable.  Each rung is ``cfg`` with its own n2; the fits
    take the lowest rung's, whose sets (_fit_points) every rung shares.

    The rungs are the degrees of one tail_fits generator, which is consumed
    only up to the rung that passes: the fit points and the tail values on
    them are made once per cell, not once per rung.

    Returns ``(cfg, tail)``: the chosen rung's config and its tail, which
    equals ``fit_tail(cfg)`` and which ``build_approximation`` reuses for
    every target.  NaN misfits that leave no rung within 2x of the best
    give the top rung, so no StopIteration escapes into a caller's map.
    """
    goal = max(math.exp(-cfg.T) / 5.0, 1e-13)
    degrees = _ladder_degrees(cfg.n1)
    tried = []
    # each rung's config checks its n2 cap before zip asks for the rung's fit
    rungs = (replace(cfg, n2=n2) for n2 in degrees)
    for rung, tail in zip(rungs, tail_fits(replace(cfg, n2=degrees[0]), degrees)):
        tried.append((rung, tail))
        if tail.validation_sup <= goal:
            return rung, tail
    best = min(t.validation_sup for _, t in tried)
    return next(((c, t) for c, t in tried if t.validation_sup <= 2.0 * best), tried[-1])


@dataclass(frozen=True, eq=False)
class RationalApprox:
    """Evaluable partial fractions plus polynomial tail.

    Immutable; evaluation is safe from concurrent callers.
    """

    poles: np.ndarray
    residues: np.ndarray
    tail_coeffs: np.ndarray

    def __post_init__(self):
        p = _real_poles(self.poles).ravel()
        r = np.asarray(self.residues, complex).ravel()
        t = np.asarray(self.tail_coeffs, complex).ravel()
        if p.size != r.size:
            raise ValueError("poles and residues must pair up")
        # natural index order of the tapered formula: p_1 nearest the origin,
        # magnitudes strictly growing to |p_n1| = C
        if p.size and not (np.all(np.diff(p) < 0) and np.all(p < 0)):
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
        PoleCollisionError on any collision, then the tail's Horner sum in z."""
        zs = np.asarray(z, complex)
        flat = zs.ravel()
        out = pole_sum(flat, self.poles, self.residues)
        out += horner(self.tail_coeffs, flat)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)

    __call__ = eval


def build_approximation(cfg: ApproxConfig, *, tail: TailFit | None = None) -> RationalApprox:
    """Build the full approximant for cfg.target on the unit sector.

    ``tail`` is a ``fit_tail(cfg)`` result the caller already holds (a rate
    sweep fits it while choosing n2), for any target; it is used as is
    instead of being fit again.
    """
    if tail is None:
        tail = fit_tail(cfg)
    elif tail.coeffs.size != cfg.n2 + 1:
        raise ValueError("tail does not match the config")
    return RationalApprox(poles=clustered_poles(cfg), residues=_residues(cfg)[1],
                          tail_coeffs=tail.coeffs)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_coeff(c: complex) -> str:
    if c.imag == 0.0:
        return _fmt(c.real)
    return f"({_fmt(c.real)}{c.imag:+.17g}j)"


def serialize(approx: RationalApprox) -> str:
    """Text form: 'pole re im' / 'residue re im' lines, one 'tail c0 c1 ...'
    line, and 'scale 1'.  Decimal-17 fields round-trip doubles exactly."""
    lines = [f"pole {_fmt(p.real)} {_fmt(p.imag)}" for p in approx.poles.tolist()]
    lines += [f"residue {_fmt(r.real)} {_fmt(r.imag)}" for r in approx.residues.tolist()]
    lines.append("tail " + " ".join(_fmt_coeff(c) for c in approx.tail_coeffs.tolist()))
    lines.append("scale 1")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> RationalApprox:
    records, tail = {"pole": [], "residue": []}, [0j]
    for line in filter(None, map(str.strip, text.splitlines())):
        kind, _, rest = line.partition(" ")
        if kind in records:
            re_s, im_s = rest.split()
            records[kind].append(complex(float(re_s), float(im_s)))
        elif kind == "tail":
            tail = [complex(tok) for tok in rest.split()]
        elif kind == "scale":  # the tail is a polynomial in z, unscaled
            if rest.strip() not in ("1", "1.0"):
                raise ValueError(f"record {line!r}: only scale 1 is supported")
        else:
            raise ValueError(f"unknown record {kind!r}")
    return RationalApprox(poles=np.array(records["pole"], complex),
                          residues=np.array(records["residue"], complex),
                          tail_coeffs=np.array(tail, complex))
