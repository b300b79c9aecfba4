import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningpoly import kernels
from lightningpoly.geometry import ray_fan
from lightningpoly.kernels import (
    BranchCutError,
    KernelConfig,
    PoleCollisionError,
    QuadratureNonConvergence,
    adaptive_gauss_legendre,
    identity_residual,
    identity_residual_log,
    log_weight_constant,
    power_values,
    quadrature_nodes,
    trapezoid_rational,
    trapezoid_rational_log,
    truncated_integral,
    truncated_integral_log,
)

CFG64 = KernelConfig(alpha=0.5, C=1.0, h=math.pi**2, n_quad=64)


class TestPowerValues:
    def test_square_root(self):
        assert power_values(4.0, 0.5) == 2.0

    def test_principal_branch_at_i(self):
        assert abs(power_values(1j, 0.5) - cmath.exp(1j * math.pi / 4)) < 1e-15

    def test_identity_at_one(self):
        for a in (0.1, 0.5, 0.9):
            assert power_values(1.0, a) == 1.0

    def test_zero(self):
        assert power_values(0.0, 0.3) == 0.0


class TestLogWeightConstant:
    def test_value_at_half_and_unit_scale(self):
        assert log_weight_constant(0.5, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_quarter(self):
        assert log_weight_constant(0.25, 1.0) == pytest.approx(2 * math.sqrt(2), rel=1e-14)

    def test_scale_e(self):
        assert log_weight_constant(0.5, math.e) == pytest.approx(
            2 * math.sqrt(math.e) / math.pi, rel=1e-14)


class TestAdaptiveQuadrature:
    def test_exponential(self):
        val, est, evals, per_point = adaptive_gauss_legendre(
            lambda t, k: np.exp(t), 0.0, 1.0, tol=1e-13)
        assert abs(val[0] - (math.e - 1)) < 1e-13
        assert type(evals) is int and evals > 0 and est[0] < 1e-12
        assert per_point.tolist() == [evals]

    def test_empty_interval(self):
        assert adaptive_gauss_legendre(lambda t, k: np.exp(t), 2.0, 2.0, tol=1e-10)[0][0] == 0

    def test_non_convergence_carries_partial(self):
        def nasty(t, k):
            return np.abs(t - 1 / 3) ** -0.95

        with pytest.raises(QuadratureNonConvergence) as err:
            adaptive_gauss_legendre(nasty, 0.0, 1.0, tol=1e-13, max_panels=64)
        assert err.value.partial is not None

    def test_points_keep_their_own_intervals_and_tolerances(self):
        # f(t, k) = (k+1)*e^t: point k integrates its own scaled exponential
        a = np.array([0.0, -1.0, 0.5])
        b = np.array([1.0, 2.0, 3.0])
        tol = np.array([1e-13, 1e-8, 1e-12])
        val, est, evals, per_point = adaptive_gauss_legendre(
            lambda t, k: (k + 1) * np.exp(t), a, b, tol)
        want = (np.arange(3) + 1) * (np.exp(b) - np.exp(a))
        assert np.all(np.abs(val - want) <= 10 * tol * np.maximum(1.0, np.abs(want)))
        assert evals == int(per_point.sum())
        for i in range(3):
            alone = adaptive_gauss_legendre(lambda t, k: (i + 1) * np.exp(t),
                                            a[i], b[i], tol[i])
            assert alone[2] == per_point[i]

    def test_panel_budget_is_per_point(self):
        # one point needs at most 2 live panels; four together hold 8
        def f(t, k):
            return 1.0 / (t + 0.01)

        with pytest.raises(QuadratureNonConvergence):
            adaptive_gauss_legendre(f, 0.0, 1.0, 1e-12, max_panels=1)
        val = adaptive_gauss_legendre(f, np.zeros(4), 1.0, 1e-12, max_panels=2)[0]
        assert np.all(np.abs(val - math.log(101.0)) < 1e-11)

    def test_empty_intervals_in_a_batch_give_zero(self):
        val, est, evals, per_point = adaptive_gauss_legendre(
            lambda t, k: np.exp(t), [0.0, 2.0, -1.0], [1.0, 2.0, -1.0], 1e-12)
        assert val[1] == 0 and val[2] == 0 and est[1] == 0 and est[2] == 0
        assert per_point[1] == per_point[2] == 1
        assert abs(val[0] - (math.e - 1)) < 1e-12

    def test_one_unconvergeable_point_in_a_batch(self):
        # point 1 has a nonintegrable-in-practice spike; points 0 and 2 converge
        def f(t, k):
            return np.where(k == 1, np.abs(t - 1 / 3) ** -0.95, np.exp(t))

        with pytest.raises(QuadratureNonConvergence) as err:
            adaptive_gauss_legendre(f, 0.0, [1.0, 1.0, 2.0], 1e-13, max_panels=64)
        partial = err.value.partial
        assert partial.shape == (3,) and np.all(np.isfinite(partial))
        assert abs(partial[0] - (math.e - 1)) < 1e-13
        assert abs(partial[2] - (math.e**2 - 1)) < 1e-12
        assert err.value.est_error[1] > 0


class TestIdentityResidual:
    def test_at_one(self):
        assert identity_residual(1.0, 0.5, 1e-12) <= 1e-10

    def test_at_zero(self):
        assert identity_residual(0.0, 0.5, 1e-10) == 0.0

    def test_off_axis(self):
        z = 0.3 * cmath.exp(1j * 0.75 * math.pi * 0.9)
        assert identity_residual(z, 0.7, 1e-12) <= 1e-10

    def test_log_variant(self):
        assert identity_residual_log(0.5 + 0.2j, 0.4, 1e-12) <= 1e-10

    def test_tol_range(self):
        with pytest.raises(ValueError):
            identity_residual(1.0, 0.5, 1e-3)
        with pytest.raises(ValueError):
            identity_residual(1.0, 0.5, 1e-15)

    def test_branch_cut(self):
        with pytest.raises(BranchCutError):
            identity_residual(-0.5, 0.5, 1e-10)

    def test_array_matches_points(self):
        zs = np.array([0.0, 1.0, 0.3 * cmath.exp(0.6j), 2.0 - 1.5j, 1e-9j])
        for fn in (identity_residual, identity_residual_log):
            got = fn(zs, 0.6, 1e-12)
            assert got.shape == zs.shape and got[0] == 0.0
            alone = np.array([fn(z, 0.6, 1e-12) for z in zs.tolist()])
            assert np.all(np.abs(got - alone) <= 1e-15)
            assert np.all(got <= 1e-10)

    def test_branch_cut_point_in_array(self):
        with pytest.raises(BranchCutError):
            identity_residual_log(np.array([0.5, -0.25, 1j]), 0.5, 1e-10)


class TestTruncatedIntegral:
    def test_zero(self):
        out = truncated_integral(0.0, CFG64)
        assert out.value == 0 and out.evaluations > 0

    def test_error_scale_at_one(self):
        out = truncated_integral(1.0, CFG64)
        assert abs(out.value - 1.0) <= 3 * math.exp(-CFG64.T)
        assert out.est_error <= 1e-13 * max(1.0, abs(out.value))

    def test_conjugate_symmetry(self):
        z = 0.7 * cmath.exp(0.4j)
        a = truncated_integral(z, CFG64).value
        b = truncated_integral(z.conjugate(), CFG64).value
        assert abs(b - a.conjugate()) < 1e-13

    def test_log_zero_and_one(self):
        cfg = KernelConfig(alpha=0.5, C=1.0, h=math.pi**2, n_quad=100)
        assert truncated_integral_log(0.0, cfg).value == 0
        out = truncated_integral_log(1.0, cfg)
        assert abs(out.value) <= 3 * cfg.T * math.exp(-cfg.T)

    def test_log_closed_form_at_half(self):
        cfg = KernelConfig(alpha=0.5, C=1.0, h=math.pi**2, n_quad=100)
        target = math.sqrt(0.5) * math.log(0.5)
        out = truncated_integral_log(0.5, cfg)
        assert abs(out.value - target) <= 3 * cfg.T * math.exp(-cfg.T)

    def test_doubling_nquad_never_hurts(self):
        # T strictly increases and the truncation error keeps shrinking
        z = 0.8 * cmath.exp(0.3j)
        prev_t, prev_err = -1.0, None
        for n in (16, 32, 64, 128):
            cfg = KernelConfig(alpha=0.5, C=1.0, h=math.pi**2, n_quad=n)
            assert cfg.T > prev_t
            err = abs(truncated_integral(z, cfg).value - power_values(z, 0.5))
            if prev_err is not None:
                assert err <= 10 * prev_err
            prev_t, prev_err = cfg.T, err

    def test_branch_cut_point_in_batch(self):
        zs = np.array([0.5, 0.2 + 0.1j, -0.3, 1j])
        for fn in (truncated_integral, truncated_integral_log):
            with pytest.raises(BranchCutError):
                fn(zs, CFG64)

    def test_non_convergence_in_batch_carries_partials(self, monkeypatch):
        # a budget of one panel per point: neither nonzero point converges,
        # and the error carries a partial sum for every point in the batch
        tight = functools.partial(kernels.adaptive_gauss_legendre, max_panels=1)
        monkeypatch.setattr(kernels, "adaptive_gauss_legendre", tight)
        with pytest.raises(QuadratureNonConvergence) as err:
            truncated_integral(np.array([0.0, 0.5, 3.0 + 2.0j]), CFG64)
        partial = err.value.partial
        assert partial.shape == (3,) and partial[0] == 0
        assert abs(partial[2] - power_values(3.0 + 2.0j, 0.5)) < 1e-3

    def test_array_keeps_shape(self):
        zs = np.array([[0.0, 1.0], [0.3j, 2.0 - 1.0j]])
        out = truncated_integral_log(zs, CFG64)
        assert out.value.shape == out.est_error.shape == out.evaluations.shape == zs.shape
        assert out.value[0, 0] == 0 and out.evaluations[0, 0] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KernelConfig(alpha=1.2, C=1.0, h=1.0, n_quad=4)
        with pytest.raises(ValueError, match="truncation"):
            KernelConfig(alpha=0.5, C=1e-4, h=1.0, n_quad=1)


def _one_point_agl(f, a, b, tol, max_panels=32768):
    """The one-point adaptive Gauss-Legendre loop that the batched kernel
    replaced, kept as the reference for its per-point results."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def panels(lo, hi):
        t = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * nodes
        vals = np.asarray(f(t.ravel()), complex).reshape(lo.size, nodes.size)
        return 0.5 * (hi - lo) * (vals @ weights)

    lo, hi = np.array([a], float), np.array([b], float)
    coarse = panels(lo, hi)
    evals, total, span = 15, 0j, abs(b - a)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        left, right = panels(lo, mid), panels(mid, hi)
        evals += 30 * lo.size
        fine = left + right
        ok = np.abs(fine - coarse) <= tol * ((hi - lo) / span + 1.0 / 1024.0)
        total += fine[ok].sum()
        if ok.all():
            return total, evals
        keep = ~ok
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        if lo.size > max_panels:
            break
    raise QuadratureNonConvergence("reference did not converge")


_RADII = st.one_of(st.just(0.0), st.floats(1e-12, 1e-8), st.floats(1e-6, 1.0),
                  st.floats(1.0, 5.0))


class TestBatchedReferences:
    """One batched reference call equals one call per point: each point's
    panels and evaluation count are its own, and values agree to rounding."""

    @given(alpha=st.floats(0.1, 0.9), C=st.floats(0.5, 2.0), h=st.floats(0.5, 12.0),
           T=st.floats(3.0, 12.0), log=st.booleans(),
           polar=st.lists(st.tuples(_RADII, st.floats(-3.0, 3.0)), max_size=5),
           tiny=st.floats(1e-12, 1e-8), big=st.floats(1.0, 5.0),
           angle=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_points_alone(self, alpha, C, h, T, log, polar, tiny, big, angle):
        kappa = alpha / (1.0 - alpha)
        cfg = KernelConfig(alpha=alpha, C=C, h=h,
                           n_quad=max(2, math.ceil((T * (kappa + 1)) ** 2 / h)))
        zs = np.array([0.0, tiny * cmath.exp(1j * angle), big * cmath.exp(-1j * angle)]
                      + [r * cmath.exp(1j * th) for r, th in polar])
        fn = truncated_integral_log if log else truncated_integral
        batch = fn(zs, cfg)
        for z, v, n in zip(zs.tolist(), batch.value.tolist(), batch.evaluations.tolist()):
            alone = fn(z, cfg)
            assert n == alone.evaluations
            assert abs(v - alone.value) <= 1e-15 * max(1.0, abs(alone.value))
        assert batch.value[0] == 0

    @pytest.mark.parametrize("alpha,C,log", [(0.5, 1.0, False), (0.25, 1.7, True),
                                             (0.8, 0.6, False)])
    def test_batch_equals_one_point_loop(self, alpha, C, log):
        cfg = KernelConfig(alpha=alpha, C=C, h=4.0, n_quad=90)
        zs = np.concatenate([np.exp(1j * np.linspace(-2.5, 2.5, 9)),
                             np.geomspace(1e-9, 3.0, 7) * np.exp(0.7j)])
        tol = 1e-14 * np.maximum(1.0, np.abs(zs))
        f = kernels._integrand(alpha, C, zs, log)
        value, _, evals, per_point = adaptive_gauss_legendre(
            f, -cfg.T, cfg.kappa * cfg.T, tol)
        assert evals == int(per_point.sum())
        for k in range(zs.size):
            ref, ref_evals = _one_point_agl(lambda t: f(t, np.full(t.size, k)),
                                            -cfg.T, cfg.kappa * cfg.T, tol[k])
            assert per_point[k] == ref_evals
            assert abs(value[k] - ref) <= 1e-15 * max(1.0, abs(ref))


def _trapezoid_oracle(z, alpha, C, h, n_quad):
    """Literal term-by-term translation of the trapezoid sum."""
    kappa = alpha / (1 - alpha)
    T = math.sqrt(n_quad * h) / (kappa + 1)
    total = 0j
    for j in range(1, n_quad + 1):
        s = math.sqrt(j * h) - T
        total += (math.sin(alpha * math.pi) / (2 * alpha * math.pi)) * h \
            / math.sqrt(j * h) * z * C**alpha * math.exp(s) \
            / (C * math.exp(s / alpha) + z)
    return total


def _trapezoid_log_oracle(z, alpha, C, h, n_quad):
    kappa = alpha / (1 - alpha)
    T = math.sqrt(n_quad * h) / (kappa + 1)
    chi = log_weight_constant(alpha, C)
    total = 0j
    for j in range(1, n_quad + 1):
        s = math.sqrt(j * h) - T
        kernel_full = z * C**alpha * math.exp(s) / (C * math.exp(s / alpha) + z)
        kernel_bare = z * math.exp(s) / (C * math.exp(s / alpha) + z)
        total += h * math.sin(alpha * math.pi) / (2 * alpha**2 * math.pi) * kernel_full
        total += 0.5 * (chi - T * math.sin(alpha * math.pi) * C**alpha
                        / (alpha**2 * math.pi)) * math.sqrt(h / j) * kernel_bare
    return total


class TestTrapezoidSums:
    def test_zero(self):
        # exactly 0, also after a sum of many nonzero terms at C != 1
        for C, n_quad in ((1.0, 4), (1.7, 200)):
            cfg = KernelConfig(alpha=0.5, C=C, h=math.pi**2, n_quad=n_quad)
            assert trapezoid_rational(0.0, cfg) == 0
            assert trapezoid_rational_log(0.0, cfg) == 0

    def test_four_term_oracle(self):
        cfg = KernelConfig(alpha=0.5, C=1.0, h=math.pi**2, n_quad=4)
        lib = trapezoid_rational(1.0, cfg)
        ora = _trapezoid_oracle(1.0, 0.5, 1.0, math.pi**2, 4)
        assert abs(lib - ora) <= 1e-15 * max(1.0, abs(ora))

    def test_log_small_oracle(self):
        cfg = KernelConfig(alpha=0.4, C=1.3, h=4.0, n_quad=6)
        lib = trapezoid_rational_log(0.8 + 0.1j, cfg)
        ora = _trapezoid_log_oracle(0.8 + 0.1j, 0.4, 1.3, 4.0, 6)
        assert abs(lib - ora) <= 1e-13 * max(1.0, abs(ora))

    @given(st.floats(0.05, 0.95), st.floats(-1.4, 1.4))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry(self, radius, angle):
        z = radius * cmath.exp(1j * angle)
        cfg = KernelConfig(alpha=0.6, C=1.0, h=2.0, n_quad=24)
        assert trapezoid_rational(z.conjugate(), cfg) == trapezoid_rational(z, cfg).conjugate()
        assert trapezoid_rational_log(z.conjugate(), cfg) == \
            trapezoid_rational_log(z, cfg).conjugate()

    def test_pole_collision(self):
        cfg = KernelConfig(alpha=0.5, C=1.0, h=math.pi**2, n_quad=8)
        z = complex(quadrature_nodes(cfg, np.arange(1, cfg.n_quad + 1))[1][3])
        with pytest.raises(PoleCollisionError):
            trapezoid_rational(z, cfg)
        with pytest.raises(PoleCollisionError):
            trapezoid_rational_log(z, cfg)

    def test_grid_matches_scalar(self):
        # an array call is bit-for-bit the per-point calls, shape kept
        zs = np.array([[0.0, 1.0, 0.3 + 0.2j], [0.9j, 1e-9 - 3e-9j, 0.02 + 0.6j]])
        for C in (1.0, 1.7):
            cfg = KernelConfig(alpha=0.5, C=C, h=math.pi**2, n_quad=150)
            for fn in (trapezoid_rational, trapezoid_rational_log):
                grid = fn(zs, cfg)
                assert grid.shape == zs.shape
                assert grid.tolist() == [[fn(z, cfg) for z in row] for row in zs.tolist()]

def _sector_points(beta, n_ray, n_arc, ratio):
    """Geometric radii ratio**0..ratio**n_ray on a fan of 2*n_arc + 1 rays,
    and the apex."""
    return np.concatenate([ray_fan(beta, ratio ** np.arange(n_ray + 1), 2 * n_arc + 1), [0.0]])


class TestRepresentationIdentities:
    """Reduced grid version of the full acceptance identity check."""

    @pytest.mark.parametrize("alpha,beta", [(0.25, 1.0), (0.8, 1.5)])
    def test_power_identity_on_grid(self, alpha, beta):
        grid = _sector_points(beta, n_ray=6, n_arc=3, ratio=0.3)
        for z in grid.tolist():
            assert identity_residual(z, alpha, 1e-12) <= 1e-10

    def test_log_identity_sample(self):
        grid = _sector_points(1.0, n_ray=5, n_arc=2, ratio=0.3)
        for z in grid.tolist():
            assert identity_residual_log(z, 0.5, 1e-12) <= 1e-9
