import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningpoly import approx
from lightningpoly.approx import (
    ApproxConfig,
    RationalApprox,
    build_approximation,
    clustered_poles,
    deserialize,
    fit_tail,
    optimal_sigma,
    residues_power,
    residues_power_log,
    serialize,
)
from lightningpoly.kernels import (
    KernelConfig,
    PoleCollisionError,
    _near_poles,
    log_weight_constant,
    log_weights,
    pole_collisions,
    pole_sum,
    quadrature_nodes,
    trapezoid_rational,
    trapezoid_rational_log,
)


class TestOptimalSigma:
    def test_quarter_on_segment(self):
        assert optimal_sigma(0.25, 0.0) == pytest.approx(4 * math.pi, rel=1e-15)

    def test_half_on_half_plane(self):
        assert optimal_sigma(0.5, 1.0) == pytest.approx(2 * math.pi, rel=1e-15)

    def test_half_on_segment(self):
        assert optimal_sigma(0.5, 0.0) == pytest.approx(2 * math.sqrt(2) * math.pi, rel=1e-15)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            optimal_sigma(0.0, 0.5)
        with pytest.raises(ValueError):
            optimal_sigma(0.5, 2.0)


class TestApproxConfig:
    # the config is the one place a build checks the sector's beta
    @pytest.mark.parametrize("change,reason", [
        ({"beta": 2.0}, "beta must lie in"),
        ({"beta": -0.1}, "beta must lie in"),
        ({"beta": math.nan}, "beta must lie in"),
        ({"alpha": 0.0}, "alpha must lie in"),
        ({"alpha": 1.0}, "alpha must lie in"),
        ({"sigma": 0.0}, "sigma must be positive"),
        ({"sigma": math.inf}, "sigma must be positive"),
        ({"C": 0.0}, "C must be positive"),
        ({"n1": 0}, "n1 must be"),
        ({"n2": -1}, "n2 must be"),
        ({"n2": 121}, "tail degree capped"),
        ({"target": "cube"}, "unknown target"),
        ({"target": "prefactor_power"}, "prefactor targets require g"),
        ({"g": cmath.exp}, "prefactor targets require g"),
        ({"sigma": 1000.0}, "double-precision range"),
    ])
    def test_validation(self, change, reason):
        kw = dict(alpha=0.5, beta=1.0, sigma=3.0, n1=4, n2=0)
        ApproxConfig(**kw)
        with pytest.raises(ValueError, match=reason):
            ApproxConfig(**{**kw, **change})


class TestPoles:
    def test_last_pole_exactly_minus_c(self):
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=4, n2=0)
        p = clustered_poles(cfg)
        assert p[-1] == -1.0
        assert p[0] == pytest.approx(-math.exp(-2 * (math.sqrt(4) - 1)), rel=1e-15)

    def test_single_pole(self):
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=3.0, C=0.5, n1=1, n2=0)
        np.testing.assert_array_equal(clustered_poles(cfg), [-0.5])

    @given(st.floats(0.15, 0.85), st.floats(1.0, 12.0), st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_formula_equivalence(self, alpha, sigma, n1):
        # tapered form vs quadrature-node form of the same poles
        cfg = ApproxConfig(alpha=alpha, beta=0.5, sigma=sigma, n1=n1, n2=0)
        a = clustered_poles(cfg)
        b = quadrature_nodes(cfg, np.arange(1, cfg.n1 + 1))[1]
        assert np.max(np.abs(a - b) / np.abs(a)) <= 1e-13

    def test_scaling_in_c(self):
        base = ApproxConfig(alpha=0.4, beta=0.7, sigma=3.0, n1=7, n2=0)
        scaled = ApproxConfig(alpha=0.4, beta=0.7, sigma=3.0, n1=7, n2=0, C=3.5)
        pa, pb = clustered_poles(base), clustered_poles(scaled)
        assert np.max(np.abs(pb - 3.5 * pa) / np.abs(pb)) <= 1e-15

    def test_eta_ratio(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=math.pi, n1=4, n2=0)
        assert optimal_sigma(0.5, 1.0) / cfg.sigma == pytest.approx(2.0, rel=1e-15)
        assert cfg.h == pytest.approx(math.pi**2 / 4, rel=1e-15)

    def test_n_quad_consistency(self):
        for alpha in (0.3, 0.5, 0.62, 0.8):
            for n1 in (1, 5, 10, 36):
                cfg = ApproxConfig(alpha=alpha, beta=0.0, sigma=2.0, n1=n1, n2=0)
                ratio = (cfg.kappa + 1.0) ** 2
                assert math.ceil(cfg.n_quad / ratio - 1e-12) == n1


class TestResidues:
    def test_all_negative(self):
        cfg = ApproxConfig(alpha=0.37, beta=0.9, sigma=5.0, n1=9, n2=0)
        r = residues_power(cfg)
        assert np.all(r.real < 0) and np.all(r.imag == 0)

    def test_hand_value_last_index(self):
        # alpha=1/2, sigma=2 so h=1, C=1, n1=4: a_4 = -1/(2*pi)
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=4, n2=0)
        r = residues_power(cfg)
        assert r[-1] == pytest.approx(-1.0 / (2 * math.pi), rel=1e-14)

    def test_scaling_in_c(self):
        cfg1 = ApproxConfig(alpha=0.5, beta=0.5, sigma=3.0, n1=6, n2=0)
        cfg2 = ApproxConfig(alpha=0.5, beta=0.5, sigma=3.0, n1=6, n2=0, C=2.0)
        np.testing.assert_allclose(residues_power(cfg2),
                                   2.0 ** 1.5 * residues_power(cfg1), rtol=1e-13)

    def test_log_residues_two_term_oracle(self):
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=2, n2=0,
                           target="power_log")
        got = residues_power_log(cfg)
        a, h, T, C = 0.5, 1.0, 2.0 * 0.5 * math.sqrt(2), 1.0
        chi = log_weight_constant(a, C)
        for idx, j in enumerate((1, 2)):
            p = -C * math.exp(-2.0 * (math.sqrt(2) - math.sqrt(j)))
            w1 = h * math.sin(a * math.pi) / (2 * a**2 * math.pi)
            w2 = 0.5 * (chi / C**a - T * math.sin(a * math.pi) / (a**2 * math.pi))
            expected = (w1 + w2 * math.sqrt(h / j)) * p * abs(p)**a
            assert got[idx] == pytest.approx(expected, rel=1e-13)
        assert np.all(got.imag == 0)


class TestFitTail:
    def test_constant_remainder_single_coefficient(self):
        # with the far sum empty the remainder is the near-pole constant
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=3, n2=0)
        pref = math.sin(0.5 * math.pi) / (2 * 0.5 * math.pi)
        j = np.arange(1, 4)
        mags = np.abs(clustered_poles(cfg)) ** 0.5
        const = pref * np.sum(np.sqrt(cfg.h / j) * mags)

        def values(zs):
            return np.full(np.shape(zs), const, complex)

        tail = fit_tail(cfg, values_fn=values)
        assert tail.coeffs.size == 1
        assert tail.coeffs[0] == pytest.approx(const, rel=1e-12)

    def test_misfit_decreases_with_degree(self):
        sups = []
        for n2 in (2, 6, 10, 16, 24):
            cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0),
                               n1=20, n2=n2)
            sups.append(fit_tail(cfg).validation_sup)
        for lo, hi in zip(sups[1:], sups[:-1]):
            assert lo <= 10 * hi
        assert sups[-1] < sups[0] * 1e-3

    def test_spec_point_reaches_1e10(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=36)
        assert cfg.n2 == 47
        tail = fit_tail(cfg)
        assert tail.validation_sup <= 1e-10
        assert tail.validation_sup <= 50 * max(tail.fit_rms, 1e-16)

    def test_rank_deficient_raises(self):
        from lightningpoly.approx import _poly_lstsq
        zs = np.array([0.1, 0.5, 0.9], complex)
        with pytest.raises(ValueError, match="reduce N2"):
            _poly_lstsq(zs, zs**0.5, degree=5)


def _remainder_one_shot(cfg, zs):
    """The far-pole remainder as one (points x far poles) matrix product."""
    a = cfg.alpha
    j_far = np.arange(cfg.n1 + 1, cfg.n_quad + 1)
    _, far = quadrature_nodes(cfg, j_far)
    j_near = np.arange(1, cfg.n1 + 1)
    p_near_mag = np.abs(clustered_poles(cfg)) ** a
    if cfg.log_like:
        w1, w2 = log_weights(a, cfg.C, cfg.h, cfg.T)
        c_near = w1 * p_near_mag.sum() + w2 * np.sum(np.sqrt(cfg.h / j_near) * p_near_mag)
        fw = w1 + w2 * np.sqrt(cfg.h / j_far)
    else:
        pref = math.sin(a * math.pi) / (2.0 * a * math.pi)
        c_near = pref * np.sum(np.sqrt(cfg.h / j_near) * p_near_mag)
        fw = pref * np.sqrt(cfg.h / j_far)
    return zs[:, None] / (zs[:, None] - far) @ (fw * np.abs(far) ** a) + c_near


def _one_shot_pole_sum(zs, poles, weights):
    """sum_j w_j/(z - p_j) as one (points x poles) quotient matrix."""
    return np.sum(weights / (np.asarray(zs, complex)[:, None] - poles), axis=1)


# pole_sum's real-axis form rounds differently from the complex quotient;
# this bound on the gap is fixed from the dtype, not fitted to the results
_SUM_TOL = 8 * np.finfo(float).eps


def _assert_near_one_shot(got, zs, poles, weights, extra=0.0):
    """|got - one-shot sum| <= 8*eps*(sum_j |w_j/(z - p_j)| + extra) at
    every point; ``extra`` holds magnitudes added after the sum."""
    zs = np.asarray(zs, complex)
    scale = np.sum(np.abs(weights / (zs[:, None] - poles)), axis=1) + extra
    gap = np.abs(got - _one_shot_pole_sum(zs, poles, weights))
    assert np.all(gap <= _SUM_TOL * scale), np.max(gap / scale) / _SUM_TOL


def _sector_points(beta, n):
    half = beta * math.pi / 2
    radii = np.geomspace(1e-9, 1.0, max(1, n // 7 + 1))
    pts = (radii[:, None] * np.exp(1j * np.linspace(-half, half, 7))).ravel()
    return pts[:n]


class TestRemainderValues:
    @pytest.mark.parametrize("target", ["power", "power_log"])
    @pytest.mark.parametrize("C", [1.0, 1.7])
    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_near_fractions_plus_remainder_is_trapezoid_sum(self, target, C, alpha):
        cfg = ApproxConfig(alpha=alpha, beta=1.5, sigma=optimal_sigma(alpha, 1.5),
                           n1=16, C=C, target=target)
        kcfg = KernelConfig(alpha=alpha, C=C, h=cfg.h, n_quad=cfg.n_quad)
        assert abs(kcfg.T - cfg.T) < 1e-12
        zs = _sector_points(1.5, 140)
        res = residues_power_log(cfg) if cfg.log_like else residues_power(cfg)
        got = _one_shot_pole_sum(zs, clustered_poles(cfg), res) \
            + approx._remainder_values(cfg, zs)
        trap = trapezoid_rational_log if cfg.log_like else trapezoid_rational
        ref = trap(zs, kcfg)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("alpha, target, C, sigma, n1, all_close", [
        *[(alpha, target, C, None, 16, None) for alpha in (0.25, 0.5, 0.8)
          for target in ("power", "power_log") for C in (1.0, 1.7)],
        pytest.param(0.25, "power", 1.0, 2.0, 9, True, id="every-far-pole-close"),
        pytest.param(0.8, "power_log", 20.0, None, 16, False, id="no-far-pole-close"),
    ])
    def test_close_sum_plus_moments_equals_one_shot_product(self, alpha, target, C,
                                                           sigma, n1, all_close):
        cfg = ApproxConfig(alpha=alpha, beta=1.5, sigma=sigma or optimal_sigma(alpha, 1.5),
                           n1=n1, C=C, target=target)
        if all_close is not None:  # the split on the unit sector
            _, far = quadrature_nodes(cfg, np.arange(cfg.n1 + 1, cfg.n_quad + 1))
            close = np.abs(far) < approx._NEAR_RADIUS
            assert far.size and (close.all() if all_close else not close.any())
        for radius in (1.0, 5.0):  # the unit sector, and points out to |z| = 5
            zs = radius * _sector_points(1.5, 140)
            ref = _remainder_one_shot(cfg, zs)
            got = approx._remainder_values(cfg, zs)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.1, 0.85), beta=st.floats(0.0, 1.9),
           sigma_factor=st.floats(0.3, 2.5), n1=st.integers(1, 30),
           C=st.floats(0.2, 30.0), radius=st.floats(0.01, 5.0),
           target=st.sampled_from(["power", "power_log"]))
    def test_remainder_matches_one_shot_product(self, alpha, beta, sigma_factor, n1, C,
                                                radius, target):
        # T/(1 - alpha) stays below ApproxConfig's 600 over these ranges
        cfg = ApproxConfig(alpha=alpha, beta=beta,
                           sigma=sigma_factor * optimal_sigma(alpha, beta),
                           n1=n1, C=C, target=target)
        zs = radius * _sector_points(beta, 50)
        ref = _remainder_one_shot(cfg, zs)
        got = approx._remainder_values(cfg, zs)
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_no_far_poles_gives_near_constant(self):
        cfg = ApproxConfig(alpha=0.1, beta=1.0, sigma=20.0, n1=3, n2=0)
        assert cfg.n_quad == cfg.n1
        pref = math.sin(0.1 * math.pi) / (2 * 0.1 * math.pi)
        j = np.arange(1, 4)
        const = pref * np.sum(np.sqrt(cfg.h / j) * np.abs(clustered_poles(cfg)) ** 0.1)
        zs = _sector_points(1.0, 30)
        np.testing.assert_array_equal(approx._remainder_values(cfg, zs),
                                      np.full(zs.shape, const, complex))


class TestBuildAndEval:
    def test_smallest_instance(self):
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=1, n2=0)
        ap = build_approximation(cfg)
        assert ap.n_poles == 1 and ap.tail_coeffs.size == 1
        assert np.isfinite(abs(ap.eval(0.5)))

    def test_segment_rate_value(self):
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=optimal_sigma(0.5, 0.0), n1=16)
        ap = build_approximation(cfg)
        xs = np.linspace(0, 1, 4001) ** 2
        err = np.max(np.abs(ap.eval(xs) - np.sqrt(xs)))
        predicted = math.exp(-2 * math.pi * math.sqrt(0.5 * 16))
        assert predicted / 100 <= err <= predicted * 100

    def test_matches_full_trapezoid_sum(self):
        # the built object reproduces the full quadrature sum to O(e^-T)
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=16)
        ap = build_approximation(cfg)
        kcfg = KernelConfig(alpha=0.5, C=1.0, h=cfg.h, n_quad=cfg.n_quad)
        assert abs(kcfg.T - cfg.T) < 1e-12
        zs = 0.97 * np.exp(1j * np.linspace(-math.pi / 2, math.pi / 2, 41))
        gap = np.max(np.abs(ap.eval(zs) - trapezoid_rational(zs, kcfg)))
        assert gap <= 100 * math.exp(-cfg.T)

    def test_prefactor_one_reduces_to_power(self):
        base = ApproxConfig(alpha=0.4, beta=1.0, sigma=5.0, n1=10)
        pre = ApproxConfig(alpha=0.4, beta=1.0, sigma=5.0, n1=10,
                           target="prefactor_power", g=lambda z: 1.0)
        a1 = build_approximation(base)
        a2 = build_approximation(pre)
        np.testing.assert_array_equal(a1.poles, a2.poles)
        np.testing.assert_allclose(a2.residues, a1.residues, rtol=1e-13)
        scale = np.max(np.abs(a1.tail_coeffs))
        np.testing.assert_allclose(a2.tail_coeffs, a1.tail_coeffs,
                                   rtol=1e-13, atol=1e-13 * scale)

    def test_prefactor_exponential(self):
        beta = 1.0
        cfgp = ApproxConfig(alpha=0.5, beta=beta, sigma=optimal_sigma(0.5, beta), n1=16)
        cfgg = ApproxConfig(alpha=0.5, beta=beta, sigma=optimal_sigma(0.5, beta), n1=16,
                            target="prefactor_power", g=cmath.exp)
        ap = build_approximation(cfgp)
        ag = build_approximation(cfgg)
        th = np.linspace(-math.pi / 2, math.pi / 2, 31)
        zs = np.concatenate([r * np.exp(1j * th) for r in (1.0, 0.6, 0.2, 1e-3)])
        err_p = np.max(np.abs(ap.eval(zs) - zs**0.5))
        err_g = np.max(np.abs(ag.eval(zs) - np.exp(zs) * zs**0.5))
        assert err_g <= 10 * err_p * math.e

    def test_root_exponential_for_every_sigma(self):
        s_opt = optimal_sigma(0.5, 1.0)
        for sigma in (0.5 * s_opt, s_opt, 2.0 * s_opt):
            errs = []
            for n1 in (4, 9, 16, 25):
                cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=sigma, n1=n1)
                ap = build_approximation(cfg)
                th = np.linspace(-math.pi / 2, math.pi / 2, 21)
                zs = np.concatenate([r * np.exp(1j * th) for r in (1.0, 0.7, 0.3, 1e-2, 1e-5)])
                errs.append(np.max(np.abs(ap.eval(zs) - zs**0.5)))
            slope = np.polyfit(np.sqrt([4, 9, 16, 25]), np.log(errs), 1)[0]
            assert slope < 0

    @pytest.mark.parametrize("target", ["power", "power_log"])
    def test_given_tail_gives_the_same_approximant(self, target):
        cfg = ApproxConfig(alpha=0.8, beta=1.5, sigma=optimal_sigma(0.8, 1.5), n1=16,
                           n2=9, target=target)
        reused = build_approximation(cfg, tail=fit_tail(cfg))
        fresh = build_approximation(cfg)
        for field in ("poles", "residues", "tail_coeffs"):
            np.testing.assert_array_equal(getattr(reused, field), getattr(fresh, field))
        assert reused.basis_scale == fresh.basis_scale

    def test_tail_rejected_for_prefactor_target(self):
        plain = ApproxConfig(alpha=0.5, beta=1.0, sigma=5.0, n1=9, n2=6)
        pre = ApproxConfig(alpha=0.5, beta=1.0, sigma=5.0, n1=9, n2=6,
                           target="prefactor_power", g=cmath.exp)
        with pytest.raises(ValueError, match="prefactor"):
            build_approximation(pre, tail=fit_tail(plain))

    def test_tail_of_another_degree_rejected(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=5.0, n1=9, n2=6)
        other = ApproxConfig(alpha=0.5, beta=1.0, sigma=5.0, n1=9, n2=7)
        with pytest.raises(ValueError, match="tail"):
            build_approximation(cfg, tail=fit_tail(other))

    def test_eval_single_pole(self):
        ap = RationalApprox(poles=np.array([-1.0 + 0j]), residues=np.array([1.0 + 0j]),
                            tail_coeffs=np.array([0j]), basis_scale=1.0)
        assert ap.eval(0.0) == 1.0

    def test_eval_tail_only_horner(self):
        ap = RationalApprox(poles=np.empty(0, complex), residues=np.empty(0, complex),
                            tail_coeffs=np.array([2.0 + 0j, 3.0 + 0j]), basis_scale=1.0)
        assert ap.eval(2.0) == 8.0

    def test_eval_conjugate_symmetry(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=6.0, n1=8)
        ap = build_approximation(cfg)
        z = 0.4 + 0.3j
        assert abs(ap.eval(z.conjugate()) - ap.eval(z).conjugate()) < 1e-13

    def test_array_eval_matches_point_calls(self):
        # more points than one 1024-point evaluation block
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=36)
        ap = build_approximation(cfg)
        th = np.linspace(-math.pi / 2, math.pi / 2, 25)
        zs = (np.geomspace(1e-8, 1.0, 50)[:, None] * np.exp(1j * th)).reshape(2, -1)
        vals = ap.eval(zs)
        assert vals.shape == zs.shape
        assert vals.tolist() == [[ap.eval(z) for z in row] for row in zs.tolist()]

    @pytest.mark.parametrize("target", ["power", "power_log"])
    def test_eval_equals_partial_fractions_plus_tail(self, target):
        # five 512-point blocks, the last one partial
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=36,
                           target=target)
        ap = build_approximation(cfg)
        zs = _sector_points(1.0, 2500)
        assert zs.size > 2048
        vals = ap.eval(zs)
        tail = approx._poly_eval(ap.tail_coeffs, zs, ap.basis_scale)
        _assert_near_one_shot(vals - tail, zs, ap.poles, ap.residues, extra=np.abs(vals))

    def test_eval_pole_collision(self):
        ap = RationalApprox(poles=np.array([-1.0 + 0j]), residues=np.array([1.0 + 0j]),
                            tail_coeffs=np.array([0j]), basis_scale=1.0)
        with pytest.raises(PoleCollisionError):
            ap.eval(-1.0 + 1e-16j)

    def test_pole_ordering_enforced(self):
        with pytest.raises(ValueError):
            RationalApprox(poles=np.array([-1.0 + 0j, -2.0 + 0j, -1.5 + 0j]),
                           residues=np.ones(3, complex),
                           tail_coeffs=np.array([0j]), basis_scale=1.0)


# +-10^e with e in [-16, -12]: relative offsets around a collision window
_SIGNED_TINY = st.builds(lambda e, neg: -(10.0**e) if neg else 10.0**e,
                         st.floats(-16.0, -12.0), st.booleans())


def _pole_sum_case(target):
    """Poles of an n1 = 36 build, with its real residues and the complex
    ones of a prefactor build."""
    cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=36,
                       target=target)
    res = residues_power_log(cfg) if cfg.log_like else residues_power(cfg)
    poles = clustered_poles(cfg)
    return poles, (res, (1.0 + 0.5j - 0.1 * poles) * res)


class TestPoleSum:
    @pytest.mark.parametrize("n", [1, 511, 512, 513, 2500])
    @pytest.mark.parametrize("target", ["power", "power_log"])
    def test_near_one_shot_sum(self, n, target):
        poles, weights = _pole_sum_case(target)
        zs = _sector_points(1.0, n)
        for w in weights:
            _assert_near_one_shot(pole_sum(zs, poles, w), zs, poles, w)

    @pytest.mark.parametrize("target", ["power", "power_log"])
    def test_near_one_shot_sum_on_and_near_the_axis(self, target):
        poles, weights = _pole_sum_case(target)
        p = poles[::5]
        near = np.concatenate([p * (1 + 1e-12), p * (1 - 3e-13) + 1e-13j * np.abs(p),
                               p - 2e-12j * np.abs(p)])
        zs = np.concatenate([[0.0], np.geomspace(1e-12, 2.0, 40), -np.geomspace(1e-9, 2.0, 9),
                             near, near.conjugate()])
        for w in weights:
            _assert_near_one_shot(pole_sum(zs, poles, w), zs, poles, w)

    @pytest.mark.parametrize("inner, outer, wide", [
        (2e-140, 1.0, False),
        (5e-141, 1.0, True),
        (1e-3, 9e149, False),
        (1e-3, 2e150, True),
    ])
    def test_both_sides_of_the_range_check(self, inner, outer, wide):
        # poles from ``inner`` to 1, or points out to ``outer``: the real
        # form inside the range, the complex quotient, bit for bit, outside
        poles = -np.geomspace(inner, 1.0, 12)
        zs = np.concatenate([poles * (1 + 1e-13) + 1e-13j * np.abs(poles),
                             poles * (1 - 1e-12), [0.0, 0.5 + 0.25j],
                             outer * np.exp(1j * np.linspace(-1.5, 1.5, 7))])
        for w in (np.abs(poles) ** 1.25, (0.5 - 2j) * np.abs(poles) ** 1.25):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = pole_sum(zs, poles, w)
            if wide:
                np.testing.assert_array_equal(got, _one_shot_pole_sum(zs, poles, w))
            else:
                _assert_near_one_shot(got, zs, poles, w)

    @pytest.mark.parametrize("n", [511, 512, 513, 1025])
    def test_array_matches_point_calls(self, n):
        poles, weights = _pole_sum_case("power")
        zs = _sector_points(1.0, n)
        for w in weights:
            got = pole_sum(zs, poles, w)
            assert got.tolist() == [pole_sum(zs[k:k + 1], poles, w)[0] for k in range(n)]

    def test_pole_off_the_axis_rejected(self):
        with pytest.raises(ValueError, match="real axis"):
            pole_sum(np.array([0.5j]), np.array([-1.0, -2.0 + 1e-300j]), np.ones(2))
        with pytest.raises(ValueError, match="real axis"):
            RationalApprox(poles=np.array([-1.0 + 1e-3j]), residues=np.ones(1, complex),
                           tail_coeffs=np.array([0j]), basis_scale=1.0)
        with pytest.raises(ValueError, match="real axis"):
            deserialize("pole -1 0.001\nresidue 1 0\ntail 0\nscale 1\n")

    @settings(max_examples=200, deadline=None)
    @given(log_p=st.floats(-280.0, 10.0),
           t=st.lists(_SIGNED_TINY, min_size=4, max_size=4),
           s=st.lists(st.one_of(st.just(0.0), _SIGNED_TINY), min_size=4, max_size=4))
    def test_collision_verdict_matches_full_matrix(self, log_p, t, s):
        mag = 10.0**log_p
        poles = -mag * np.array([0.25, 1.0, 3.0])
        zs = np.array([-mag * (1 + ti) + 1j * si * mag for ti, si in zip(t, s)]
                      + [0.5 + 0.5j])
        full = _near_poles(zs, poles, zs[:, None] - poles).any(axis=1)
        np.testing.assert_array_equal(pole_collisions(zs, poles), full)
        if full.any():
            with pytest.raises(PoleCollisionError):
                pole_sum(zs, poles, np.ones(3))
        else:
            assert np.all(np.isfinite(pole_sum(zs, poles, np.ones(3))))

    def test_collision_in_third_block_raises(self):
        poles = np.array([-2.0, -1.0, -0.5])
        zs = np.full(2500, 0.5 + 0.1j)
        zs[2048 + 7] = -1.0 + 1e-16j
        assert np.all(np.isfinite(pole_sum(zs[:2048], poles, np.ones(3))))
        with pytest.raises(PoleCollisionError):
            pole_sum(zs, poles, np.ones(3))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        cfg = ApproxConfig(alpha=0.37, beta=0.8, sigma=4.4, n1=9)
        ap = build_approximation(cfg)
        text = serialize(ap)
        back = deserialize(text)
        assert np.array_equal(back.poles, ap.poles)
        assert np.array_equal(back.residues, ap.residues)
        assert np.array_equal(back.tail_coeffs, ap.tail_coeffs)
        assert back.basis_scale == ap.basis_scale
        assert serialize(back) == text

    def test_complex_tail_tokens(self):
        ap = RationalApprox(poles=np.array([-0.5 + 0j]), residues=np.array([0.25 - 0.125j]),
                            tail_coeffs=np.array([1 / 3 + 0j, 0.1 - 0.7j]),
                            basis_scale=2.0)
        back = deserialize(serialize(ap))
        assert np.array_equal(back.tail_coeffs, ap.tail_coeffs)
        assert np.array_equal(back.residues, ap.residues)

    def test_unknown_record(self):
        with pytest.raises(ValueError, match="unknown record"):
            deserialize("pole -1 0\nresidue 1 0\nblob 3\n")
