"""Lightning Laplace solver on polygonal corner domains and a numerical
laboratory for the Cauchy slit-integral decomposition behind it.

The solver represents a harmonic function as the real part of partial
fractions over poles clustered along exterior corner bisectors plus a scaled
polynomial, and fits Dirichlet data by weighted least squares on boundary
collocation points clustered like the poles.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Polygon, interior_angles, resolve_corner_exponents
from .approx import _fmt, _fmt_coeff, _sigma_opt
from .kernels import (adaptive_gauss_legendre, check_double_range, check_parameters,
                      damped_lstsq, horner, power_values, tapered)

__all__ = [
    "CornerBasis",
    "HarmonicSolution",
    "SlitIntegralSpec",
    "plan_basis",
    "solve_dirichlet",
    "check_system_size",
    "boundary_error",
    "cauchy_slit_integral",
    "cauchy_slit_integral_log",
    "singular_coefficient_check",
    "discrepancy_bound",
    "builtin_boundary_data",
    "concave_quadrilateral",
    "curvy_l_domain",
    "export_solution",
]


# ---------------------------------------------------------------- bases

@dataclass(frozen=True, eq=False)
class CornerBasis:
    """Pole groups along exterior bisectors plus a global polynomial.

    ``poles[k]`` holds the tapered poles of corner k, distances
    L_k * exp(-sigma_k*(sqrt(n_k)-sqrt(j))) from the vertex along the
    exterior bisector (L_k = half the shorter adjacent edge).
    """

    sigmas: tuple
    poles: tuple           # tuple of complex arrays
    degree: int
    center: complex
    scale: float

    @property
    def counts(self) -> tuple:
        return tuple(pk.size for pk in self.poles)

    @property
    def n_columns(self) -> int:
        return 2 * sum(self.counts) + 2 * self.degree + 1


def _corner_rays(polygon: Polygon):
    """Interior angles beta_k (units of pi) and the unit direction of the
    exterior bisector at each corner, along which its poles are placed."""
    m = len(polygon.vertices)
    if polygon.orientation() != 1:
        raise ValueError("plan_basis requires counterclockwise vertices")
    betas = interior_angles(polygon)
    dirs = []
    for k in range(m):
        t_out = complex(polygon.edges[k].tangent(0.0))
        base = cmath.phase(t_out)
        interior_bisector = base + betas[k] * math.pi / 2
        dirs.append(cmath.exp(1j * (interior_bisector + math.pi)))
    return betas, dirs


# the most poles of a basis, set by the memory of the least-squares design:
# [A b] has 2 columns per pole and, at the default oversample 4, about 8
# rows per pole, so 2^11 poles make a [A b] of about 512 MiB
_MAX_POLES = 2**11


def plan_basis(polygon: Polygon, N: int, sigma_mode="global_opt",
               n2: int | None = None, corner_weights=None) -> CornerBasis:
    """Lay out clustered poles for every corner.

    sigma_mode: "global_opt" uses one sigma from (max beta_k, min alpha_k);
    "per_corner" gives each corner sqrt(2*(2-beta_k))*pi/sqrt(alpha_k); a
    float fixes sigma directly.  N is the total pole budget, split evenly
    over corners (so each count grows in proportion to N); corner_weights
    optionally scales individual corners down, e.g. at weakly singular
    small angles.
    """
    m = len(polygon.vertices)
    if N < 4 * m:
        raise ValueError("N must be at least 4 poles per corner (N >= 4m)")
    betas, dirs = _corner_rays(polygon)
    if np.max(betas) >= 2.0 - 1e-9:
        raise ValueError("unsupported angle (slit corner with beta -> 2)")
    alphas = [a for a, _ in resolve_corner_exponents(polygon)]
    if sigma_mode == "global_opt":
        sigmas = [_sigma_opt(min(alphas), float(np.max(betas)))] * m
    elif sigma_mode == "per_corner":
        sigmas = [_sigma_opt(a, b) for a, b in zip(alphas, betas)]
    else:
        sigma = float(sigma_mode)
        check_parameters(sigma=sigma)
        sigmas = [sigma] * m
    weights = list(corner_weights) if corner_weights is not None else [1.0] * m
    if len(weights) != m:
        raise ValueError(f"corner_weights has {len(weights)} entries for {m} corners")
    if not all(w >= 0.0 for w in weights):  # max(4, .) below would hide a negative one
        raise ValueError(f"corner_weights must be >= 0, got {weights}")
    counts = [max(4, int(round(N / m * w))) for w in weights]
    if sum(counts) > _MAX_POLES:
        raise ValueError(f"N={N} and corner_weights={weights} ask for {sum(counts)} poles, "
                         f"above the {_MAX_POLES} that bound the design matrix's memory")
    edge_len = [e.length() for e in polygon.edges]
    poles = []
    for k in range(m):
        d = tapered(counts[k], sigmas[k], 0.5 * min(edge_len[k - 1], edge_len[k]))
        pk = np.asarray(polygon.vertices[k] + d * dirs[k])
        pk.flags.writeable = False
        poles.append(pk)
    domain_scale = max(abs(v) for v in polygon.vertices) or 1.0
    for k in range(m):
        # bisector poles must stay off the domain; probe only poles far
        # enough from the vertex for the winding test to resolve
        for probe in (poles[k][counts[k] // 2], poles[k][-1]):
            if abs(probe - polygon.vertices[k]) < 1e-8 * domain_scale:
                continue
            if polygon.contains(probe):
                raise ValueError(f"pole ray at corner {k} enters the domain")
    center = complex(np.mean(np.asarray(polygon.vertices)))
    scale = max(abs(v - center) for v in polygon.vertices)
    if n2 is None:
        n2 = max(8, math.ceil(3.0 * math.sqrt(N)))
    check_parameters(n2=n2)
    return CornerBasis(
        sigmas=tuple(sigmas),
        poles=tuple(poles),
        degree=n2,
        center=center,
        scale=scale,
    )


# ---------------------------------------------------------------- solver

@dataclass(frozen=True, eq=False)
class HarmonicSolution:
    """Real least-squares solution u(z) = Re(rational + polynomial).

    Harmonic everywhere inside the domain since every basis function is the
    real part of a function analytic there.
    """

    basis: CornerBasis
    coeffs: np.ndarray     # real vector, column order of _weighted_system
    residual_norm: float

    def eval(self, z):
        zs = np.asarray(z, complex)
        out = _harmonic_values(self.basis, self.coeffs, zs.ravel())
        return out.reshape(zs.shape) if zs.shape else float(out[0])

    __call__ = eval


def _folded(basis: CornerBasis, coeffs: np.ndarray):
    """(residues of each corner, tail tau_0..tau_degree) from the real coefficients
    in _weighted_system's column order: each Re, Im pair (a, b) is a - i*b, as
    Re((a - i*b) f) = a Re f + b Im f, its Im part -b with signed zeros kept."""
    n = sum(basis.counts)
    folded = np.delete(coeffs, 2 * n).view(complex).conj()  # tau_0 has no Im column
    return (np.split(folded[:n], np.cumsum(basis.counts)[:-1]),
            np.concatenate([coeffs[2 * n:2 * n + 1], folded[n:]]))


def _harmonic_values(basis: CornerBasis, coeffs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """u at the flat array zs without a design matrix: Re of the partial
    fractions sum_j r_j/(z - p_j), one corner at a time, plus the polynomial
    sum_k tau_k w^k by Horner's rule, w = (z - center)/scale, with the
    complex coefficients of _folded.  einsum sums each point's row on its
    own, without BLAS, so an array evaluation is bit for bit its point
    evaluations (as in kernels._panel_values)."""
    residues, taus = _folded(basis, coeffs)
    out = np.zeros(zs.size)
    for pk, res in zip(basis.poles, residues):
        out += np.einsum("ij,j->i", 1.0 / (zs[:, None] - pk), res).real
    w = (zs - basis.center) / basis.scale
    out += horner(taus, w).real
    return out


def _tapered_ends(polygon: Polygon, basis: CornerBasis, factor: int):
    """Per edge, yield (edge, length, ends): for the corner at each end,
    (corner, arclengths) of ``factor`` times its pole count of tapered
    distances from that end (half the edge length at most)."""
    m = len(polygon.vertices)
    for e_idx, e in enumerate(polygon.edges):
        length = e.length()
        ends = []
        for corner, from_end in ((e_idx, False), ((e_idx + 1) % m, True)):
            d = tapered(factor * basis.counts[corner], basis.sigmas[corner], 0.5 * length)
            ends.append((corner, length - d if from_end else d))
        yield e, length, ends


def _edge_samples(polygon: Polygon, basis: CornerBasis, factor: int, n_fill: int):
    """Per edge, yield (length, arclengths, points): the tapered samples of
    both ends (_tapered_ends), plus ``n_fill`` uniformly spaced interior
    samples; samples that round onto one another are merged."""
    for e, length, ends in _tapered_ends(polygon, basis, factor):
        fill = np.linspace(0.0, length, n_fill + 2)[1:-1]
        s = np.unique(np.concatenate([fill] + [d for _, d in ends]))
        yield length, s, e.point_at_arclength(s)


def _merged_samples(polygon: Polygon, basis: CornerBasis, factor: int) -> str:
    """The corners whose tapered samples round onto one another, which
    _edge_samples merges, as "N at corner k (sigma s)" items."""
    merged = [0] * len(basis.counts)
    for _, _, ends in _tapered_ends(polygon, basis, factor):
        for corner, d in ends:
            merged[corner] += d.size - np.unique(d).size
    return ", ".join(f"{n} at corner {k} (sigma {basis.sigmas[k]:g})"
                     for k, n in enumerate(merged) if n)


def _collocation(polygon: Polygon, basis: CornerBasis, oversample: int):
    """Boundary samples clustered toward each corner like its poles, plus a
    uniform fill; returns (points, sqrt-spacing weights)."""
    pts, wts = [], []
    for length, s, zs in _edge_samples(polygon, basis, oversample, 4 * oversample):
        pts.append(zs)
        gaps_lo = np.diff(s, prepend=0.0)
        gaps_hi = np.diff(s, append=length)
        wts.append(np.sqrt(0.5 * (gaps_lo + gaps_hi)))
    return np.concatenate(pts), np.concatenate(wts)


# collocation points per block of _weighted_system's reciprocals
_ROW_BLOCK = 128


def _weighted_system(zs, w, basis: CornerBasis, rhs) -> np.ndarray:
    """The weighted ``[A b]`` of the collocation fit, column-major (LAPACK's
    layout), for damped_lstsq to own and free.  A's columns are Re and Im of
    1/(z - p) for each pole in corner order, then Re w^0 and Re, Im of w^k
    for k = 1..degree, w = (z - center)/scale.  Each column is written
    weighted, in one pass, through the row-major view of the transpose (one
    contiguous row per column); each entry rounds once, as Re(1/(z - p))*w,
    so no design temporary, copy or weighting pass is needed.

    The reciprocals are taken one corner and one block of points at a time:
    whole-corner temporaries (1.7 MB at N = 240) left freed heap that the
    QR's full-size copy of ``[A b]`` could not reuse, which raised the peak
    RSS."""
    Ab = np.empty((zs.size, basis.n_columns + 1), order="F")
    cols = Ab.T
    row = 0
    # a pole on a collocation point divides by zero; the norms report it
    with np.errstate(divide="ignore", invalid="ignore"):
        for pk in basis.poles:
            re, im = cols[row:row + 2 * pk.size:2], cols[row + 1:row + 2 * pk.size:2]
            for lo in range(0, zs.size, _ROW_BLOCK):
                hi = lo + _ROW_BLOCK
                f = zs[lo:hi] - pk[:, None]
                np.divide(1.0, f, out=f)
                np.multiply(f.real, w[lo:hi], out=re[:, lo:hi])
                np.multiply(f.imag, w[lo:hi], out=im[:, lo:hi])
            row += 2 * pk.size
    cols[row] = w
    wz = (zs - basis.center) / basis.scale
    pw = np.ones_like(zs)
    for k in range(row + 1, basis.n_columns, 2):
        pw = pw * wz
        np.multiply(pw.real, w, out=cols[k])
        np.multiply(pw.imag, w, out=cols[k + 1])
    np.multiply(rhs, w, out=cols[-1])
    return Ab


# the most bytes of a weighted [A b], the largest that _MAX_POLES admits at
# the default oversample 4, so that no run with oversample <= 4 is refused:
# 4 poles a corner at least give at most _MAX_POLES/4 corners, so
# check_system_size's row bound is at most 12*_MAX_POLES there, and the 3x
# collocation rule leaves at most a third of the rows as columns
# (24,576 x 8,193 entries, 1.5 GiB)
_MAX_SYSTEM_BYTES = 8 * (12 * _MAX_POLES) * (4 * _MAX_POLES + 1)


def check_system_size(basis: CornerBasis, oversample: int) -> None:
    """Raise ``ValueError`` if the weighted ``[A b]`` of a solve at this
    ``oversample`` could pass ``_MAX_SYSTEM_BYTES``.  Its rows are at most
    what _collocation draws before merging: per edge, ``oversample`` times
    its two corners' pole counts plus 4 (the uniform fill), which sums to
    oversample*(2*poles + 4*corners)."""
    check_parameters(oversample=oversample)
    rows = oversample * (2 * sum(basis.counts) + 4 * len(basis.counts))
    size = 8 * rows * (basis.n_columns + 1)
    if size > _MAX_SYSTEM_BYTES:
        raise ValueError(f"oversample={oversample} asks for a least-squares system of up to "
                         f"{rows} x {basis.n_columns + 1} entries ({size / 2**30:.3g} GiB) for "
                         f"{sum(basis.counts)} poles, above the "
                         f"{_MAX_SYSTEM_BYTES / 2**30:.3g} GiB that bound its memory")


def solve_dirichlet(polygon: Polygon, boundary_data, basis: CornerBasis,
                    oversample: int = 4) -> HarmonicSolution:
    """Weighted least-squares fit of Dirichlet data over clustered boundary
    collocation by kernels.damped_lstsq.  Raises ``RuntimeError`` on a
    numerical breakdown: a pole that rounds onto a collocation point makes
    the design non-finite, and data that is not finite there makes the
    right-hand side non-finite.  A system past ``check_system_size``'s
    bound raises ``ValueError`` before any sample is drawn."""
    check_system_size(basis, oversample)
    data = builtin_boundary_data(boundary_data) if isinstance(boundary_data, str) else boundary_data
    zs, w = _collocation(polygon, basis, oversample)
    if zs.size < 3 * basis.n_columns:
        merged = _merged_samples(polygon, basis, oversample)
        raise ValueError("collocation count below 3x coefficient count; " + (
            f"tapered samples round onto one another and merge: {merged}" if merged
            else "raise oversample"))
    rhs = np.asarray([data(complex(z)) for z in zs.tolist()], float)
    try:
        coeffs = damped_lstsq(_weighted_system(zs, w, basis, rhs))
    except RuntimeError as exc:
        if str(exc).startswith("design matrix"):
            raise RuntimeError(f"{exc} (a pole lies on a collocation point)") from None
        raise
    misfit = _harmonic_values(basis, coeffs, zs) - rhs
    rms = float(np.sqrt(np.mean(misfit**2)))
    if not np.all(np.isfinite(coeffs)):
        raise RuntimeError(f"least squares failed; achieved residual {rms:.3e}")
    return HarmonicSolution(basis=basis, coeffs=coeffs, residual_norm=rms)


def boundary_error(sol: HarmonicSolution, polygon: Polygon, boundary_data,
                   fine_factor: int = 4) -> float:
    """Sup |u - g| over boundary samples drawn by the collocation rule
    (_edge_samples): per edge, ``fine_factor`` times each end corner's pole
    count of tapered distances, plus ``16*fine_factor`` uniform ones.  At
    the defaults (``fine_factor`` 4, ``solve_dirichlet``'s oversample 4)
    the tapered samples are the collocation points themselves and only
    the uniform fill is denser, 64 points per edge against 16: on the curvy
    L at N = 80, 635 of the 955 samples are collocation points.  By the
    maximum principle the sup bounds the interior error of the harmonic
    mismatch (rationale, not asserted here)."""
    check_parameters(fine_factor=fine_factor)
    data = builtin_boundary_data(boundary_data) if isinstance(boundary_data, str) else boundary_data
    sup = 0.0
    for _, _, zs in _edge_samples(polygon, sol.basis, fine_factor, 16 * fine_factor):
        g = np.asarray([data(complex(z)) for z in zs.tolist()], float)
        sup = max(sup, float(np.max(np.abs(sol.eval(zs) - g))))
    return sup


def builtin_boundary_data(name: str) -> Callable[[complex], float]:
    table = {
        "re2": lambda z: z.real**2,
        "rez": lambda z: z.real,
        "const1": lambda z: 1.0,
    }
    if name in table:
        return table[name]
    if name.startswith("file:"):
        return _tabulated_data(name[5:])
    raise ValueError(f"unknown boundary data {name!r}")


def _tabulated_data(path):
    """Tabulated samples: lines 're im value', at least one and all finite;
    nearest-sample lookup.  A malformed table raises a ValueError that
    names the file."""
    try:
        with warnings.catch_warnings():
            # an empty table is reported below, with the path
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"boundary data {path}: {exc}") from None
    if rows.shape[0] == 0:
        raise ValueError(f"boundary data {path}: no 're im value' lines")
    if rows.shape[1] != 3:
        raise ValueError(f"boundary data {path}: {rows.shape[1]} columns, "
                         "needs 3 ('re im value')")
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"boundary data {path}: values are not finite")
    zs = rows[:, 0] + 1j * rows[:, 1]
    vals = rows[:, 2]

    def data(z: complex) -> float:
        return float(vals[np.argmin(np.abs(zs - z))])

    return data


# ------------------------------------------------------- slit integrals

_SLIT_TOL = 1e-13  # the slit integrals' tolerance, relative to their scale W^(k+alpha)
_OFFSETS = np.array([1e-3, 1e-4, 1e-5])  # eps/W of singular_coefficient_check's x +- i*eps


@dataclass(frozen=True)
class SlitIntegralSpec:
    """Integral of zeta^(k+alpha)/(zeta - z) over the slit [0, W]."""

    k: int
    alpha: float
    W: float = 1.0

    def __post_init__(self):
        check_parameters(k=self.k, alpha=self.alpha, W=self.W)
        if abs((self.k + self.alpha) - round(self.k + self.alpha)) < 1e-12:
            raise ValueError("k + alpha must be non-integer")
        # the points scale with W and the integral with W^(k+alpha): W, the
        # tolerance _SLIT_TOL*W^(k+alpha) and the value W^(k+alpha)*(1 + |log W|)
        # must stay in range
        log_w = math.log(self.W)
        log_scale = (self.k + self.alpha) * log_w
        check_double_range(dict(W=self.W, k=self.k, alpha=self.alpha),
                           min(log_w, log_scale + math.log(_SLIT_TOL)),
                           max(log_w, log_scale + math.log1p(abs(log_w))))


def _slit_integral(spec: SlitIntegralSpec, z, log_weighted: bool):
    """Adaptive-quadrature value of the slit integral with density
    zeta^(k+alpha), times log(zeta) if ``log_weighted``; accuracy ~1e-11.
    At a point it returns a complex; at an array of points, an array from
    one batched quadrature.

    Within 0.05*W of the slit the density's analytic continuation D(z)
    (z^s or z^s*log z, principal branch, s = k + alpha) is subtracted and
    its integral D(z)*[log(W - z) - log(-z)] added in closed form.  The
    split is exact for any constant, since it subtracts and adds back the
    same multiple of the Cauchy kernel; D(z) is the constant that makes the
    integrand the divided difference (D(zeta) - D(z))/(zeta - z), analytic
    around z, so the quadrature sees no pole however close z is to the
    slit.  -z is formed as 0 - z, so its imaginary part has the signed
    zero of W - z's and, at a real z past W, both logs take the same side
    of their cut.  z = 0 is the removable limit.

    The tolerances follow the integral's scale, so they are relative at
    any W: _SLIT_TOL*W^s (times 1 + |log W| for the log density) within
    0.05*W of the slit, where the integral is of order W^s, and that times
    W/dist beyond, where it is of order W^(s+1)/dist.
    """
    zs = np.asarray(z, complex)
    flat = zs.ravel()
    s = spec.k + spec.alpha
    W = spec.W
    dist = np.abs(flat - np.clip(flat.real, 0.0, W))
    live = flat != 0
    if np.any(live & (dist < 1e-10 * W)):
        raise ValueError("too close to slit")
    scale = W**s * (1.0 + abs(math.log(W)) if log_weighted else 1.0)
    # within 0.05*W of the slit, subtract the density's continuation g = D(z)
    # and add its integral in closed form
    near = live & (dist < 0.05 * W)
    g = np.zeros(flat.size, complex)
    g[near] = power_values(flat[near], s, log_weighted)
    tol = np.full(flat.size, _SLIT_TOL * scale)
    far = live & ~near
    tol[far] /= dist[far] / W

    def density(zeta):
        if not log_weighted:
            return zeta**s
        out = np.zeros(np.shape(zeta), complex)
        nz = zeta != 0
        zt = np.asarray(zeta)[nz]
        out[nz] = zt**s * np.log(zt)
        return out

    def f(u, k):
        # zeta = W*u^4 grading smooths the zeta^alpha endpoint; the kernel
        # is taken in zeta/W, so no product reaches W^(s+1)
        t = u**4
        return 4.0 * u**3 * (density(W * t) - g[k]) / (t - flat[k] / W)

    value = adaptive_gauss_legendre(f, 0.0, np.where(live, 1.0, 0.0), tol)[0]
    zn = flat[near]
    value[near] += g[near] * (np.log(W - zn) - np.log(0.0 - zn))
    value[~live] = W**s * (math.log(W) * s - 1.0) / s**2 if log_weighted else W**s / s
    return complex(value[0]) if zs.ndim == 0 else value.reshape(zs.shape)


def cauchy_slit_integral(spec: SlitIntegralSpec, z):
    """Adaptive-quadrature value of the slit integral at a point or an array
    of points, accuracy ~1e-11; z = 0 is the removable limit
    W^(k+alpha)/(k+alpha)."""
    return _slit_integral(spec, z, log_weighted=False)


def cauchy_slit_integral_log(spec: SlitIntegralSpec, z):
    """Same slit integral with an extra log(zeta) weight in the density."""
    return _slit_integral(spec, z, log_weighted=True)


def _branch_angle(alpha: float) -> float:
    """pi*(alpha - round(alpha)), the difference exact by Sterbenz's lemma:
    cot(pi*alpha) taken at it sees no rounding of pi*alpha near an integer."""
    return math.pi * (alpha - round(alpha))


def _p0_constant(alpha: float) -> complex:
    theta = _branch_angle(alpha)  # -pi*cot(pi*alpha) - i*pi
    return complex(-math.pi * math.cos(theta) / math.sin(theta), -math.pi)


def singular_coefficient_check(k: int, alpha: float, W: float):
    """Verify the singular coefficients of the slit decomposition.

    Measures the jump of the integral across the slit at x = W/2 by
    Richardson-extrapolating evaluations at x +- i*eps, and compares with
    the jump predicted by z^(k+alpha)*P0 (resp. P1) under the branch with
    arg z in (-2*pi, 0), the convention that keeps the remainder
    single-valued.  Returns discrepancies relative to the singular scale.
    The predictions x^s*P0*(phase - 1) and x^s*(phase*P1(L - 2*pi*i) - P1(L)),
    L = log x, P1(L) = P0*L + pi^2*csc^2(pi*alpha), phase = e^(-2*pi*i*s), take
    phase - 1 = -2i*sin(theta)*e^(-i*theta), theta = _branch_angle(alpha), and
    P1(L - 2*pi*i) - P1(L) = -2*pi*i*P0: no difference of csc^2-sized numbers."""
    spec = SlitIntegralSpec(k=k, alpha=alpha, W=W)
    s = k + alpha
    x = W / 2
    eps = _OFFSETS * W

    def richardson(vals):
        # Neville elimination of the O(eps) and O(eps^2) terms at eps -> 0,
        # in eps/W, so no product reaches W^(s+1)
        v, e = list(vals), _OFFSETS
        for level in range(1, len(v)):
            for i in range(len(v) - level):
                v[i] = (e[i] * v[i + 1] - e[i + level] * v[i]) / (e[i] - e[i + level])
        return v[0]

    # each density's six evaluations x +- i*eps share one batched quadrature
    zs = np.concatenate([x + 1j * eps, x - 1j * eps])
    above, below = np.split(cauchy_slit_integral(spec, zs), 2)
    jump_pow = richardson(above - below)
    above, below = np.split(cauchy_slit_integral_log(spec, zs), 2)
    jump_log = richardson(above - below)
    theta = _branch_angle(alpha)
    sn, p0, log_x = math.sin(theta), _p0_constant(alpha), math.log(x)
    phase_m1, csc = -2.0 * sn * complex(sn, math.cos(theta)), math.pi / sn
    pred_pow = x**s * p0 * phase_m1
    pred_log = x**s * (phase_m1 * (p0 * (log_x - 2j * math.pi) + csc * csc) - 2j * math.pi * p0)
    scale_pow = 2 * math.pi * x**s
    scale_log = scale_pow * (1.0 + abs(log_x))
    return (abs(jump_pow - pred_pow) / scale_pow,
            abs(jump_log - pred_log) / scale_log)


def discrepancy_bound(k: int, alpha: float, W: float) -> tuple:
    """Bounds on the parts of singular_coefficient_check's (P0, P1) discrepancies
    that grow with k or near an integer s = k + alpha, in closed form, without
    quadrature.  At x = W/2 the power density's integral is F(x +- i*eps) =
    H(x +- i*eps) +- i*pi*(x +- i*eps)^s, where H(z) = W^s*(-pi*cot(pi*s)*u^s +
    sum_m u^m/(s - m)), u = z/W, is analytic at x; the log density's H is W^s times
    log W times that bracket plus its s-derivative.  The i*pi terms are even in eps,
    so Neville's extrapolation through the offsets e_i = eps_i/W leaves
    e_0*e_1*e_2*W^3*|H'''(x)|/3 of the jump (the next term is under 1e-3 of it), and
    each integral's tolerance, _SLIT_TOL*W^s (times 1 + |log W|), reaches the jump at
    most 2*sum|L_i| times, L_i the extrapolation's weights.  Against the check's
    scales, 2*pi*x^s (times 1 + |log x|), both terms grow as 2^s.  H''' is taken at
    t = n + d (n = k + round(alpha), d = alpha - round(alpha)), where its cot and
    1/(t - n) terms cancel without the rounding of k + alpha.  The P1 bound adds
    the predicted log jump's rounding: of its parts -2*pi*c and 2*pi*c, c =
    pi*cos(theta)/sin(theta) (the phase's -2*sin*cos times pi^2/sin^2, and
    -2*pi*i*P0's), one function of the computed sine and cosine, formed in 7 and 3
    roundings, at most gamma_10*2*pi*|c| is left, gamma_n = n*u/(1 - n*u) and
    u = 2^-53; at W = 1 it is above 1e-6 within 6.6e-10 of an integer s."""
    SlitIntegralSpec(k=k, alpha=alpha, W=W)  # checks k, alpha and W
    s, e = k + alpha, _OFFSETS.tolist()
    try:
        grow = 2.0**s
    except OverflowError:
        return math.inf, math.inf
    n, d = k + round(alpha), complex(alpha - round(alpha), 1e-30)  # t = s + i*1e-30 is n + d
    m = np.arange(3, k + 61)  # the series' terms in H''', to rounding
    # W^(3-s)*H'''(x) of the density zeta^t at t = s + i*1e-30: its imaginary
    # part is 1e-30 times the s-derivative, to rounding (a complex step)
    h3 = -math.pi / cmath.tan(math.pi * d) * math.prod(n - i + d for i in range(3)) \
        * 0.5**(n - 3 + d) + complex(np.sum(m * (m - 1.0) * (m - 2.0) * 0.5**(m - 3)
                                            / ((n - m) + d)))
    rem = math.prod(e) * grow / 3.0
    tol = 2.0 * _SLIT_TOL * grow * sum(
        abs(math.prod(e[j] / (e[j] - e[i]) for j in range(3) if j != i)) for i in range(3))
    rounding = 2.0 * math.pi * 10 * 2.0**-53 / (1 - 10 * 2.0**-53) * abs(_p0_constant(alpha).real)
    log_w, log_x = math.log(W), math.log(W / 2)
    return ((rem * abs(h3.real) + tol) / (2.0 * math.pi),
            (rem * abs(log_w * h3.real + h3.imag * 1e30) + tol * (1.0 + abs(log_w)) + rounding)
            / (2.0 * math.pi * (1.0 + abs(log_x))))


# --------------------------------------------------------- example domains

def concave_quadrilateral() -> Polygon:
    """Quadrilateral with one reflex corner at 4+6i."""
    return Polygon.from_vertices([2 + 4j, 8 + 4j, 4 + 6j, 2 + 10j])


def curvy_l_domain() -> Polygon:
    """Five-corner domain whose curved edges carve an L-shaped profile;
    tangent-preserving bulges keep the corner angles of the straight chords
    (largest is 3pi/4)."""
    return Polygon.from_vertices(
        [0.0, 2.0, 2.0 + 1.0j, 1.0 + 2.0j, 2.0j],
        bulges=[0.0, -0.06, 0.12, -0.06, 0.0],
    )


def export_solution(sol: HarmonicSolution) -> str:
    """Coefficient listing in the rational-approximation text format with
    'corner k' group headers; the residues and tail are _folded's."""
    residues, taus = _folded(sol.basis, sol.coeffs)
    lines = []
    for k, (pk, res) in enumerate(zip(sol.basis.poles, residues)):
        lines.append(f"corner {k}")
        lines += [f"pole {_fmt(p.real)} {_fmt(p.imag)}" for p in pk.tolist()]
        lines += [f"residue {_fmt(r.real)} {_fmt(r.imag)}" for r in res.tolist()]
    center = sol.basis.center
    lines.append(f"center {_fmt(center.real)} {_fmt(center.imag)}")
    lines.append("tail " + " ".join(_fmt_coeff(t) for t in taus.tolist()))
    lines.append(f"scale {_fmt(sol.basis.scale)}")
    return "\n".join(lines) + "\n"
