import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightningpoly import kernels
from lightningpoly.analysis import BoundContext
from lightningpoly.geometry import ray_fan
from lightningpoly.kernels import (
    BranchCutError,
    KernelConfig,
    PoleCollisionError,
    QuadratureNonConvergence,
    _DAMP_BLOCK,
    _back_substitute,
    _qr_r,
    adaptive_gauss_legendre,
    check_double_range,
    damped_lstsq,
    horner,
    identity_residual,
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
        assert identity_residual(0.5 + 0.2j, 0.4, 1e-12, log_weighted=True) <= 1e-10

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
        for log in (False, True):
            got = identity_residual(zs, 0.6, 1e-12, log)
            assert got.shape == zs.shape and got[0] == 0.0
            alone = np.array([identity_residual(z, 0.6, 1e-12, log) for z in zs.tolist()])
            assert np.all(np.abs(got - alone) <= 1e-15)
            assert np.all(got <= 1e-10)

    def test_branch_cut_point_in_array(self):
        with pytest.raises(BranchCutError):
            identity_residual(np.array([0.5, -0.25, 1j]), 0.5, 1e-10, log_weighted=True)


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


class TestDoubleRange:
    def test_rule_bounds(self):
        check_double_range({"p": 1.0}, math.log(2.3e-300), 600.0)
        for low, high in [(math.log(2.2e-300), 0.0), (0.0, 600.001), (math.nan, 0.0),
                          (0.0, math.nan)]:
            with pytest.raises(ValueError, match="^p=2, q=3 leave the double-precision range"):
                check_double_range({"p": 2.0, "q": 3}, low, high)

    @pytest.mark.parametrize("kw, reason", [
        # the outermost pole e^(T/(1 - alpha)) = e^800
        (dict(alpha=0.5, h=math.pi**2, n_quad=64846), "n_quad=64846, T=400.001 leave"),
        # the innermost pole e^((sqrt(h) - T)/alpha) = e^-794
        (dict(alpha=0.25, h=2.4674, n_quad=28821), "double-precision range"),
        # the outermost pole times C = 1e300
        (dict(alpha=0.5, C=1e300, h=math.pi**2, n_quad=11), "C=1e\\+300"),
        (dict(alpha=0.5, h=math.pi**2, n_quad=2**17 + 1), "n_quad must lie in \\[1, 131072\\]"),
    ])
    def test_config_leaving_the_range_or_the_work_cap_is_rejected(self, kw, reason):
        with pytest.raises(ValueError, match=reason):
            KernelConfig(**kw)

    @given(alpha=st.floats(0.05, 0.95), h=st.floats(0.05, 20.0), T=st.floats(1.4, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_from_truncation_is_the_count_rule(self, alpha, h, T):
        try:
            cfg = KernelConfig.from_truncation(alpha, T, h)
        except ValueError as exc:  # the work cap, or the range of the config
            assert "trapezoid points" in str(exc) or "double-precision" in str(exc)
            return
        assert cfg.n_quad == max(2, math.ceil((T * (1.0 / (1.0 - alpha))) ** 2 / h))
        assert cfg.T >= T * (1.0 - 1e-12) and cfg.h == h

    def test_from_truncation_by_sigma_is_its_step(self):
        sigma, alpha = 3.7, 0.4
        assert KernelConfig.from_truncation(alpha, 9.0, sigma=sigma) == \
            KernelConfig.from_truncation(alpha, 9.0, sigma**2 * alpha**2)

    @pytest.mark.parametrize("args, kw, reason", [
        ((0.5, 4.0), dict(sigma=1e300), "sigma=1e\\+300, alpha=0.5 leave"),
        ((0.5, 4.0), dict(sigma=1e-200), "sigma=1e-200, alpha=0.5 leave"),
        # sigma^2*alpha^2 is a double, alpha^2 is not
        ((1e-162, 4.0), dict(sigma=6.3e81), "sigma=6.3e\\+81, alpha=1e-162 leave"),
        ((0.5, 4.0), dict(sigma=6.28e-5),
         "T=4 at sigma=6.28e-05 needs 6.4\\d+e\\+10 trapezoid points"),
        ((0.5, 5.0, 1e-300), {}, "T=5 at h=1e-300 needs 1e\\+302 trapezoid points"),
        ((0.5, 1e200, 1.0), {}, "T=1e\\+200 at h=1 needs inf trapezoid points"),
        ((0.5, -5.0, 1.0), {}, "T must be positive, got -5.0"),
        ((0.5, math.nan, 1.0), {}, "T must be finite, got nan"),
        ((0.5, 4.0, 0.0), {}, "h must be positive and finite"),
    ])
    def test_from_truncation_rejects_before_forming_the_count(self, args, kw, reason):
        with pytest.raises(ValueError, match=reason):
            KernelConfig.from_truncation(*args, **kw)


def _one_point_agl(f, a, b, tol, max_panels=32768):
    """The one-point adaptive Gauss-Legendre loop that the batched kernel
    replaced, kept as the reference for its per-point results.  Its panels
    are summed row by row, as the kernel sums them: a BLAS gemv rounds a
    row by its place in the array, which can change a split decision."""
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def panels(lo, hi):
        t = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * nodes
        vals = np.asarray(f(t.ravel()), complex).reshape(lo.size, nodes.size)
        return 0.5 * (hi - lo) * np.einsum("ij,j->i", vals, weights)

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
    panels, evaluation count and value are its own, bit for bit."""

    @given(alpha=st.floats(0.1, 0.9), C=st.floats(0.5, 2.0), h=st.floats(0.5, 12.0),
           T=st.floats(3.0, 12.0), log=st.booleans(),
           polar=st.lists(st.tuples(_RADII, st.floats(-3.0, 3.0)), max_size=5),
           tiny=st.floats(1e-12, 1e-8), big=st.floats(1.0, 5.0),
           angle=st.floats(-3.0, 3.0))
    # a BLAS gemv over the panels rounded z = 2.82's rows by their place in
    # the batch, which split a panel that the one-point call accepts (285
    # against 225 evaluations)
    @example(alpha=0.6672690414008335, C=0.9406331275267154, h=1.0, T=7.609375, log=True,
             polar=[(1.0, 0.0)], tiny=1e-10, big=2.820347886534932, angle=0.0)
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
            assert (n, v) == (alone.evaluations, alone.value)
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

    @pytest.mark.parametrize("fn", [truncated_integral, truncated_integral_log])
    def test_many_points_equal_their_solo_calls(self, fn, monkeypatch):
        # near_origin_check's fan at T = 15 (alpha = 0.5, beta = 1): 126
        # points, so a round fills a whole block of panels and goes on into
        # the next
        alpha, beta = 0.5, 1.0
        h = 2.0 * (2.0 - beta) * math.pi**2 * alpha
        cfg = KernelConfig(alpha=alpha, h=h, n_quad=math.ceil((15.0 / (1.0 - alpha)) ** 2 / h))
        xm = min(BoundContext.from_quadrature(cfg, beta).x_star, 1.0)
        zs = ray_fan(beta, np.geomspace(xm * 1e-8, xm, 14), 9)
        assert zs.size == 126
        sizes = []
        integrand = kernels._integrand

        def counted(*args):
            f = integrand(*args)
            return lambda t, k: sizes.append(t.size) or f(t, k)

        monkeypatch.setattr(kernels, "_integrand", counted)
        batch = fn(zs, cfg)
        assert max(sizes) == kernels._PANEL_BLOCK * kernels._GL_NODES.size
        for z, v, e, n in zip(zs.tolist(), batch.value.tolist(), batch.est_error.tolist(),
                              batch.evaluations.tolist()):
            alone = fn(z, cfg)
            assert (n, v, e) == (alone.evaluations, alone.value, alone.est_error)


class TestPoleSubtraction:
    """The reference integrals subtract the integrand's two poles nearest
    the real t axis and add their integrals in closed form; the
    unsubtracted integrand under the same quadrature is the reference."""

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("log", [False, True])
    def test_agrees_with_the_unsubtracted_integrand(self, alpha, log):
        # arg z within 1e-3 of the edges of the beta = 1.9 sector: the
        # nearest pole lies alpha*(0.05*pi +- 1e-3) off the real axis
        edge = 1.9 * math.pi / 2
        angles = np.array([edge - 1e-3, edge, edge + 1e-3])
        zs = (np.geomspace(1e-10, 3.0, 6)[:, None]
              * np.exp(1j * np.concatenate([angles, -angles]))).ravel()
        fn = truncated_integral_log if log else truncated_integral
        subtracted = reference = 0
        for C in (0.3, 1.0, 2.5):
            cfg = KernelConfig.from_truncation(alpha, 8.0, 2.0, C=C)
            got = fn(zs, cfg)
            tol = 1e-14 * max(1.0, C**alpha) * np.maximum(1.0, np.abs(zs))
            if log:
                tol *= 1.0 + cfg.T
            value, _, evals, _ = adaptive_gauss_legendre(
                kernels._integrand(alpha, C, zs, log), -cfg.T, cfg.kappa * cfg.T, tol)
            assert np.all(np.abs(got.value - value) <= tol), (C, np.abs(got.value - value) / tol)
            subtracted += int(got.evaluations.sum())
            reference += evals
        assert subtracted < reference

    def test_identity_residual_near_the_cut(self):
        # arg z = pi - 0.05: the nearest pole lies 0.025 off the real t axis
        zs = np.geomspace(1e-6, 3.0, 5) * np.exp(1j * (math.pi - 0.05))
        assert np.all(identity_residual(zs, 0.5, 1e-10) <= 1e-10)
        assert np.all(identity_residual(zs, 0.5, 1e-10, log_weighted=True) <= 1e-10)


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
            assert identity_residual(z, 0.5, 1e-12, log_weighted=True) <= 1e-9


class TestHorner:
    """kernels.horner is np.polynomial.polynomial.polyval bit for bit: a
    product in place, or with its operands swapped, rounds differently."""

    @staticmethod
    def _case(seed, degree, complex_coeffs):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-6, 6, degree + 1)
        if complex_coeffs:
            c = c + 1j * rng.standard_normal(degree + 1)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        x *= 10.0 ** rng.uniform(-2, 1)
        # signed zeros and points on the axes
        x[:6] = [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), -1.5, 2.5j]
        return c, x

    @pytest.mark.parametrize("complex_coeffs", [False, True])
    @pytest.mark.parametrize("degree", [0, 1, 7, 40])
    def test_equals_polyval_on_arrays_points_and_0d(self, degree, complex_coeffs):
        polyval = np.polynomial.polynomial.polyval
        c, x = self._case(degree, degree, complex_coeffs)
        got = horner(c, x)
        assert got.dtype == complex and got.shape == x.shape
        assert got.tobytes() == polyval(x, c).tobytes()
        for k in range(x.size):
            one = x[k:k + 1]
            assert horner(c, one).tobytes() == polyval(one, c).tobytes() \
                == got[k:k + 1].tobytes()
            point = horner(c, np.asarray(x[k]))
            assert point.shape == ()
            assert point.tobytes() == np.asarray(polyval(np.asarray(x[k]), c)).tobytes()

    @pytest.mark.parametrize("degree", [0, 3])
    def test_non_finite_points_propagate_as_in_polyval(self, degree):
        # polyval starts from c_n + x*0, which is NaN at an infinite x
        c, _ = self._case(degree, degree, True)
        x = np.array([complex(np.inf, 0.0), complex(0.0, -np.inf), complex(np.nan, 1.0), 1j])
        with np.errstate(invalid="ignore", over="ignore"):
            got = horner(c, x)
            assert got.tobytes() == np.polynomial.polynomial.polyval(x, c).tobytes()
        assert np.isnan(got[:3]).all()

    def test_real_points_and_coefficients_stay_real(self):
        c = np.array([1.0, -2.0, 0.5])
        x = np.linspace(-3.0, 3.0, 13)
        got = horner(c, x)
        assert got.dtype == float
        assert got.tobytes() == np.polynomial.polynomial.polyval(x, c).tobytes()


class TestQrR:
    """R from geqrf factoring the caller's array in place, the bytes of
    np.linalg.qr(mode="r"), which copies its input twice."""

    @staticmethod
    def _matrix(shape, complex_, order, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(shape)
        if complex_:
            a = a + 1j * rng.standard_normal(shape)
        return np.array(a, order=order)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("shape", [(40, 12), (12, 12), (7, 19), (30, 1), (1, 30)])
    def test_bytes_of_np_linalg_qr(self, shape, complex_, order):
        a = self._matrix(shape, complex_, order)
        want = np.linalg.qr(a, mode="r")
        got = _qr_r(np.asfortranarray(a))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [_DAMP_BLOCK + 1, 2 * _DAMP_BLOCK + 17])
    def test_damping_stacks_keep_their_bytes(self, n, complex_, monkeypatch):
        # every matrix damped_lstsq factors: [A b], then each block's stack
        seen = []

        def recording(a):
            seen.append(a.copy(order="F"))
            return _qr_r(a)

        monkeypatch.setattr(kernels, "_qr_r", recording)
        damped_lstsq(self._matrix((3 * n, n + 1), complex_, "F", seed=n))
        assert len(seen) == 1 + math.ceil(n / _DAMP_BLOCK)
        for a in seen:
            for source in (a, np.ascontiguousarray(a)):
                want = np.linalg.qr(source, mode="r")
                assert _qr_r(np.asfortranarray(source)).tobytes() == want.tobytes()

    @staticmethod
    def _no_lapack(monkeypatch):
        def refuse(*args):
            raise AssertionError("geqrf was called")
        monkeypatch.setattr(kernels, "_GEQRF", {
            np.dtype(np.float64): refuse, np.dtype(np.complex128): refuse})

    @pytest.mark.parametrize("make", [
        lambda a: np.ascontiguousarray(a),             # row-major
        lambda a: np.asfortranarray(a, np.float32),    # not float64 or complex128
        lambda a: np.asfortranarray(a)[:, ::2],        # a strided view
        lambda a: np.asfortranarray(a)[::2],
        lambda a: np.asfortranarray(a, ">f8"),         # byte-swapped
        lambda a: np.asfortranarray(a)[None],          # not 2-D
        lambda a: np.asfortranarray(a).tolist(),       # not an array
    ])
    def test_rejected_before_lapack(self, make, monkeypatch):
        self._no_lapack(monkeypatch)
        with pytest.raises(ValueError, match="writeable column-major float64 or complex128"):
            _qr_r(make(self._matrix((9, 4), False, "F")))

    def test_read_only_rejected(self, monkeypatch):
        self._no_lapack(monkeypatch)
        a = self._matrix((9, 4), True, "F")
        a.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            _qr_r(a)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_without_lapack(self, shape, complex_, monkeypatch):
        a = self._matrix(shape, complex_, "F")
        want = np.linalg.qr(a, mode="r")
        self._no_lapack(monkeypatch)
        got = _qr_r(a)
        assert got.dtype == want.dtype and got.shape == want.shape


class TestDampedLstsq:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_back_substitution_matches_a_dense_solve(self, n):
        rng = np.random.default_rng(n)
        R = np.triu(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        c = rng.standard_normal(n)
        np.testing.assert_allclose(_back_substitute(R, c), np.linalg.solve(R, c),
                                   rtol=1e-12, atol=1e-12)

    @staticmethod
    def _system(rng, m, n, complex_):
        A = rng.standard_normal((m, n)) * np.logspace(0, 3, n)
        b = rng.standard_normal(m)
        if complex_:
            A = A + 1j * rng.standard_normal((m, n)) * np.logspace(0, 3, n)
            b = b + 1j * rng.standard_normal(m)
        return A, b

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("m,n", [(5, 1), (40, 12), (300, 70), (600, 150)])
    def test_full_rank_matches_lstsq(self, m, n, complex_):
        A, b = self._system(np.random.default_rng(m + n), m, n, complex_)
        x = damped_lstsq(np.column_stack([A, b]))
        assert np.iscomplexobj(x) == complex_
        np.testing.assert_allclose(x, np.linalg.lstsq(A, b, rcond=None)[0],
                                   rtol=1e-9, atol=0)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_duplicated_columns_stay_finite(self, seed, complex_):
        # every column twice: exactly rank deficient, singular for an
        # undamped QR; the damping rows keep the fit finite.  The pairs
        # carry cancelling coefficients near 1e10, so evaluating the
        # residual rounds at about eps*1e10 of it: hence the 1e-5 slack
        A, b = self._system(np.random.default_rng(seed), 200, 30, complex_)
        AA = np.column_stack([A, A])
        x = damped_lstsq(np.column_stack([AA, b]))
        assert np.all(np.isfinite(x.view(float)))
        ref = np.linalg.lstsq(AA, b, rcond=None)[0]
        resid = np.linalg.norm(AA @ x - b)
        assert resid <= np.linalg.norm(AA @ ref - b) * (1 + 1e-5)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_row_and_column_major_agree(self, complex_):
        A, b = self._system(np.random.default_rng(7), 400, 90, complex_)
        Ab = np.column_stack([A, b])
        x_c = damped_lstsq(np.array(Ab, order="C"))
        x_f = damped_lstsq(np.array(Ab, order="F"))
        np.testing.assert_allclose(x_f, x_c, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_duplicated_columns_finite_in_both_layouts(self, complex_):
        A, b = self._system(np.random.default_rng(11), 200, 30, complex_)
        Ab = np.column_stack([A, A, b])
        for order in ("C", "F"):
            assert np.all(np.isfinite(damped_lstsq(np.array(Ab, order=order)).view(float)))

    # the damping step by column blocks, checked above one block's width
    @staticmethod
    def _scaled(A, b):
        norms = np.linalg.norm(A, axis=0)
        lam = max(A.shape) * np.finfo(float).eps
        return A / norms, norms, lam

    @classmethod
    def _one_dense_qr(cls, A, b):
        """The damped fit as one QR of [A b; lam*I 0], A's columns scaled
        to unit norm as the kernel scales them."""
        As, norms, lam = cls._scaled(A, b)
        m, n = A.shape
        stack = np.zeros((m + n, n + 1), np.result_type(A, b))
        stack[:m, :n], stack[:m, n] = As, b
        stack[m:, :n] = lam * np.eye(n)
        R = np.linalg.qr(stack, mode="r")
        return _back_substitute(R[:n, :n], R[:n, n]) / norms

    @staticmethod
    def _dense_damping(Ab):
        """The kernel with its damping step as one dense QR of the whole
        stack [R c; lam*I 0], R's columns scaled to unit norm as the
        kernel scales them."""
        m, n = Ab.shape[0], Ab.shape[1] - 1
        R = np.linalg.qr(Ab, mode="r")
        norms = np.linalg.norm(R[:, :n], axis=0)
        R[:, :n] /= norms
        damped = np.zeros((R.shape[0] + n, n + 1), R.dtype, order="F")
        damped[:R.shape[0]] = R
        np.fill_diagonal(damped[R.shape[0]:], max(m, n) * np.finfo(float).eps)
        R = np.linalg.qr(damped, mode="r")
        return _back_substitute(R[:n, :n], R[:n, n]) / norms

    @staticmethod
    def _duplicated_objective(A, b, x, norms, lam):
        # |[A A] x - b|^2 + lam^2 |D x|^2 with D the column norms; each pair
        # sum x_j + x_(j+k) cancels to within a factor 2, so it is exact
        # (Sterbenz), and the residual does not round at the pairs' 1e10 size
        k = A.shape[1]
        s = x[:k] + x[k:]
        return np.linalg.norm(A @ s - b) ** 2 + lam**2 * np.linalg.norm(norms * x) ** 2

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [_DAMP_BLOCK + 1, 2 * _DAMP_BLOCK + 17])
    def test_blocked_damping_matches_lstsq(self, n, complex_):
        A, b = self._system(np.random.default_rng(n), 3 * n, n, complex_)
        x = damped_lstsq(np.column_stack([A, b]))
        np.testing.assert_allclose(x, np.linalg.lstsq(A, b, rcond=None)[0],
                                   rtol=1e-10, atol=0)
        As, norms, lam = self._scaled(A, b)
        J = [np.linalg.norm(As @ (norms * v) - b) ** 2 + lam**2 * np.linalg.norm(norms * v) ** 2
             for v in (x, self._one_dense_qr(A, b))]
        assert J[0] == pytest.approx(J[1], rel=1e-12)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_blocked_damping_of_duplicated_columns(self, seed, complex_):
        # 2k > _DAMP_BLOCK columns, every one twice.  The blocks solve the
        # damped problem of the same triangle as one dense QR of the stack
        # does, to rounding (measured: at most 5e-12 relative); against one
        # QR of [A b; lam*I 0], both solutions sit about 1e-6 above the
        # damped minimum (the null-space bound |c2|/(2 lam)), hence 1e-5
        k = _DAMP_BLOCK // 2 + 30
        A, b = self._system(np.random.default_rng(seed), 500, k, complex_)
        Ab = np.column_stack([A, A, b])
        x = damped_lstsq(Ab)
        assert np.all(np.isfinite(x.view(float)))
        _, norms, lam = self._scaled(Ab[:, :-1], b)
        J = self._duplicated_objective(A, b, x, norms, lam)
        J_dense = self._duplicated_objective(A, b, self._dense_damping(Ab), norms, lam)
        J_one = self._duplicated_objective(A, b, self._one_dense_qr(Ab[:, :-1], b), norms, lam)
        assert J == pytest.approx(J_dense, rel=1e-10)
        assert J == pytest.approx(J_one, rel=1e-5)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n", [1, 70, _DAMP_BLOCK])
    def test_one_block_is_the_dense_damping(self, n, complex_):
        # at n <= _DAMP_BLOCK the step is the one dense QR of the stack, on
        # the same array: bytes-equal, duplicated columns included
        A, b = self._system(np.random.default_rng(n), 3 * n + 5, (n + 1) // 2, complex_)
        Ab = np.column_stack([A, A, b])[:, -(n + 1):]
        x = damped_lstsq(np.array(Ab, order="F"))
        assert x.tobytes() == self._dense_damping(np.array(Ab, order="F")).tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_column_raises(self, bad):
        # a column of A, then b
        for col, what in ((2, "design matrix"), (5, "right-hand side")):
            Ab = np.random.default_rng(3).standard_normal((50, 6))
            Ab[17, col] = bad
            with pytest.raises(RuntimeError, match=f"{what} is not finite"):
                damped_lstsq(Ab)

    @pytest.mark.parametrize("cast", [
        lambda Ab: Ab.astype(np.float32),
        lambda Ab: np.round(4.0 * Ab).astype(np.int64),
    ])
    def test_other_dtypes_solve_as_their_float64_cast(self, cast):
        A, b = self._system(np.random.default_rng(5), 60, 8, False)
        Ab = cast(np.column_stack([A, b]))
        x = damped_lstsq(Ab)
        assert x.dtype == np.float64
        assert x.tobytes() == damped_lstsq(Ab.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [12, _DAMP_BLOCK + 1])
    def test_argument_is_left_alone(self, n, order, complex_):
        # the columns are scaled on the triangle, not on [A b]
        A, b = self._system(np.random.default_rng(n), 3 * n, n, complex_)
        Ab = np.array(np.column_stack([A, b]), order=order)
        before = Ab.tobytes()
        damped_lstsq(Ab)
        assert Ab.tobytes() == before
