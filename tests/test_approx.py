import cmath
import math
import tracemalloc

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
    residues,
    serialize,
)
from lightningpoly.kernels import (
    KernelConfig,
    PoleCollisionError,
    _near_poles,
    horner,
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
        ({"n2": 1001}, "tail degree capped at 1000"),
        ({"target": "cube"}, "unknown target"),
        # g multiplies a target kind; it is not a kind of its own
        ({"target": "prefactor_power", "g": cmath.exp}, "unknown target"),
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
        r = residues(cfg)
        assert np.all(r.real < 0) and np.all(r.imag == 0)

    def test_hand_value_last_index(self):
        # alpha=1/2, sigma=2 so h=1, C=1, n1=4: a_4 = -1/(2*pi)
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=4, n2=0)
        r = residues(cfg)
        assert r[-1] == pytest.approx(-1.0 / (2 * math.pi), rel=1e-14)

    def test_scaling_in_c(self):
        cfg1 = ApproxConfig(alpha=0.5, beta=0.5, sigma=3.0, n1=6, n2=0)
        cfg2 = ApproxConfig(alpha=0.5, beta=0.5, sigma=3.0, n1=6, n2=0, C=2.0)
        np.testing.assert_allclose(residues(cfg2),
                                   2.0 ** 1.5 * residues(cfg1), rtol=1e-13)

    def test_log_residues_two_term_oracle(self):
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=2, n2=0,
                           target="power_log")
        got = residues(cfg)
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
    def test_constant_remainder_single_coefficient(self, monkeypatch):
        # with the far sum empty the remainder is the near-pole constant
        cfg = ApproxConfig(alpha=0.5, beta=0.0, sigma=2.0, n1=3, n2=0)
        pref = math.sin(0.5 * math.pi) / (2 * 0.5 * math.pi)
        j = np.arange(1, 4)
        mags = np.abs(clustered_poles(cfg)) ** 0.5
        const = pref * np.sum(np.sqrt(cfg.h / j) * mags)

        def values(cfg, zs):
            return np.full(np.shape(zs), const, complex)

        monkeypatch.setattr(approx, "_tail_values", values)
        tail = fit_tail(cfg)
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

    @pytest.mark.parametrize("target,beta,prefactor", [("power", 1.5, False),
                                                       ("power_log", 0.5, False),
                                                       ("power", 1.0, True)])
    def test_joined_evaluation_keeps_each_sets_misfit(self, target, beta, prefactor):
        # each rung's tail is evaluated once on the fit and validation sets
        # joined; Horner is elementwise, so both misfits keep their bytes,
        # and the RMS is np.average's, weighted on the upper half only
        g = (lambda z: 1.0 + z) if prefactor else None
        cfg = ApproxConfig(alpha=0.8, beta=beta, sigma=optimal_sigma(0.8, beta),
                           n1=49, target=target, g=g)
        zs = approx._fit_points(cfg, fine=False)
        zv = approx._fit_points(cfg, fine=True)
        y, yv = np.split(approx._tail_values(cfg, np.concatenate([zs, zv])), [zs.size])
        counts = np.where(zs.imag == 0.0, 1.0, 2.0) if g is None else None
        degrees = approx._ladder_degrees(cfg.n1)
        for fit in approx.tail_fits(cfg, degrees):
            resid = horner(fit.coeffs, zs) - y
            rms = float(np.sqrt(np.average(np.abs(resid) ** 2, weights=counts)))
            sup = float(np.max(np.abs(horner(fit.coeffs, zv) - yv)))
            assert (fit.fit_rms, fit.validation_sup) == (rms, sup)

    @staticmethod
    def _old_poly_system(zs, values, degree, real):
        """[V y] as _poly_lstsq built it through column_stack and concatenate."""
        Vy = np.column_stack([np.vander(zs, degree + 1, increasing=True), values])
        if real:
            axis = zs.imag == 0.0
            w = np.where(axis, math.sqrt(0.5), 1.0)
            Vy = np.concatenate([Vy.real * w[:, None], Vy[~axis].imag])
        return Vy

    @pytest.mark.parametrize("target,beta,prefactor", [("power", 1.5, False),
                                                       ("power_log", 0.5, False),
                                                       ("power", 1.0, True)])
    def test_poly_system_is_column_major_and_unchanged(self, target, beta, prefactor,
                                                       monkeypatch):
        # every set holds points on the axis (the apex, and z = 1 for the
        # upper half); the prefactor target fits the complex [V y]
        g = (lambda z: 1.0 + z) if prefactor else None
        cfg = ApproxConfig(alpha=0.8, beta=beta, sigma=optimal_sigma(0.8, beta), n1=25,
                           target=target, g=g)
        zs = approx._fit_points(cfg, fine=False)
        real = g is None
        assert np.any(zs.imag == 0.0)
        y = approx._tail_values(cfg, zs)
        seen = []
        monkeypatch.setattr(approx, "damped_lstsq", lambda Ab: seen.append(Ab) or Ab[0, :-1])
        for degree in approx._ladder_degrees(cfg.n1):
            approx._poly_lstsq(zs, y, degree, real=real)
            Ab = seen.pop()
            assert Ab.flags.f_contiguous and np.iscomplexobj(Ab) != real
            old = self._old_poly_system(zs, y, degree, real)
            assert Ab.shape == old.shape and Ab.tobytes("F") == old.tobytes("F")

    @pytest.mark.parametrize("fine", [False, True])
    def test_fit_radii_are_clipped_chebyshev_radii(self, fine, monkeypatch):
        # every radius is a Chebyshev radius of [0, 1] (2*size of them, or
        # 4*size for the validation set, at least 48) clipped below at lo,
        # half the innermost pole's magnitude, or 1; as many arc points, at
        # least 64.  At n1 = 1, lo = C/2, so C sweeps lo over [1e-17, 0.5]
        seen = []
        monkeypatch.setattr(approx, "sector_boundary",
                            lambda beta, radii, n_arc, upper_half: seen.append((radii, n_arc)))
        rng = np.random.default_rng(17)
        cases = [(1, 0, 2.0 * lo) for lo in 10.0 ** rng.uniform(-17, math.log10(0.5), 100)]
        cases += [(n1, n2, 1.0) for n1, n2 in ((9, 0), (36, 12), (81, 60), (400, 130))]
        for n1, n2, C in cases:
            cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=2.0, n1=n1, n2=n2, C=C)
            approx._fit_points(cfg, fine)
            radii, n_arc = seen.pop()
            lo = max(np.abs(clustered_poles(cfg)).min() / 2, 1e-17)
            n = (4 if fine else 2) * (max(n2, math.ceil(6 * math.sqrt(n1))) + 1)
            cheb = approx.chebyshev_radii(max(n, 48))
            clipped = [lo] if np.any(cheb < lo) else []
            assert n_arc == max(n, 64)
            assert np.all(np.diff(radii) > 0)
            assert radii.tolist() == sorted([*clipped, *cheb[cheb > lo].tolist(), 1.0])

    def test_chosen_rung_holds_its_misfit_on_a_dense_boundary(self):
        # the fit sets hold two samples per unknown on each ray and the arc;
        # between them the chosen rung's misfit must stay within 1.5x of its
        # validation_sup, or at the float floor: checked on 16*size Chebyshev
        # radii, 400 log-spaced radii and 16*size arc points
        gs = (cmath.exp, lambda z: 1.0 / (z + 1.5), lambda z: 1.0 / (z - 1.2))
        rng = np.random.default_rng(30)
        for _ in range(100):
            alpha, beta = rng.uniform(0.15, 0.85), rng.uniform(0.0, 1.9)
            sigma = optimal_sigma(alpha, beta) * 2.0 ** rng.uniform(-1.0, 1.0)
            # kinds 0 and 1 are the plain targets, 2 and 3 the same times a g
            n1, kind = int(rng.integers(4, 65)), int(rng.integers(4))
            target = approx.TARGETS[kind % 2]
            g = gs[rng.integers(3)] if kind >= 2 else None
            cfg, tail = approx.ladder_tail(ApproxConfig(alpha=alpha, beta=beta, sigma=sigma,
                                                        n1=n1, target=target, g=g))
            size = max(cfg.n2, math.ceil(6 * math.sqrt(n1))) + 1
            lo = max(np.abs(clustered_poles(cfg)).min() / 2, 1e-17)
            radii = np.unique(np.concatenate([approx.chebyshev_radii(16 * size),
                                              np.geomspace(lo, 1.0, 400), [1.0]]))
            zs = approx.sector_boundary(beta, radii, 16 * size, upper_half=g is None)
            miss = np.max(np.abs(horner(tail.coeffs, zs) - approx._tail_values(cfg, zs)))
            assert miss <= max(1.5 * tail.validation_sup, 1e-13), (cfg, miss, tail)

    @pytest.mark.parametrize("prefactor", [False, True])
    def test_fit_set_sizes_do_not_depend_on_n1(self, prefactor):
        # at n2 = 60 > 6*sqrt(81) the sets are sized by n2 alone: 2*61
        # (4*61) Chebyshev radii and the radius 1 per edge ray, 2*61 (4*61)
        # arc points and the apex, whatever the pole count; each innermost
        # pole here lies below every Chebyshev radius, so none merge
        g = (lambda z: 1.0 + z) if prefactor else None
        for n1 in (9, 16, 25, 36, 49, 64, 81):
            cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=n1,
                               n2=60, g=g)
            for fine, n_cheb, n_arc in ((False, 2 * 61, 2 * 61), (True, 4 * 61, 4 * 61)):
                assert abs(clustered_poles(cfg)[0]) / 2 < approx.chebyshev_radii(n_cheb)[0]
                n_radii = n_cheb + 1
                want = (n_radii + n_arc // 2 + 1) if g is None else (2 * n_radii + n_arc + 1)
                assert approx._fit_points(cfg, fine).size == want

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
        res = residues(cfg)
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

    def test_close_poles_summed_in_bounded_blocks(self):
        # at alpha = 0.99 and sigma = 0.01 nearly all of 90,000 far poles are
        # close: one (points x poles) matrix of the fit and validation
        # points would peak at about 640 MiB
        cfg = ApproxConfig(alpha=0.99, beta=1.0, sigma=0.01, n1=9)
        zs = np.concatenate([approx._fit_points(cfg, fine) for fine in (False, True)])
        tracemalloc.start()
        try:
            got = approx._remainder_values(cfg, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, peak / 2**20
        assert np.all(np.isfinite(got))

    def test_one_block_on_a_benchmark_cell_keeps_the_unblocked_bytes(self, monkeypatch):
        # the benchmark's largest close-pole matrix: alpha = 0.8, beta = 1.5,
        # sigma_opt/2, n1 = 81, on the fit and validation points joined
        cfg = ApproxConfig(alpha=0.8, beta=1.5, sigma=optimal_sigma(0.8, 1.5) / 2, n1=81)
        zs = np.concatenate([approx._fit_points(cfg, fine) for fine in (False, True)])
        got = approx._remainder_values(cfg, zs)
        monkeypatch.setattr(approx, "_BLOCK_ENTRIES", 2**62)  # one block, whatever the size
        assert got.tobytes() == approx._remainder_values(cfg, zs).tobytes()
        monkeypatch.setattr(approx, "_BLOCK_ENTRIES", 1000)  # many blocks, a few rows each
        np.testing.assert_allclose(approx._remainder_values(cfg, zs), got, rtol=1e-14, atol=0)

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
        pre = ApproxConfig(alpha=0.4, beta=1.0, sigma=5.0, n1=10, g=lambda z: 1.0)
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
                            g=cmath.exp)
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

    @pytest.mark.parametrize("target, g", [
        ("power", None), ("power_log", None), ("power", cmath.exp),
    ])
    def test_given_tail_gives_the_same_approximant(self, target, g):
        cfg = ApproxConfig(alpha=0.8, beta=1.5, sigma=optimal_sigma(0.8, 1.5), n1=16,
                           n2=9, target=target, g=g)
        reused = build_approximation(cfg, tail=fit_tail(cfg))
        fresh = build_approximation(cfg)
        for field in ("poles", "residues", "tail_coeffs"):
            np.testing.assert_array_equal(getattr(reused, field), getattr(fresh, field))

    def test_tail_of_another_degree_rejected(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=5.0, n1=9, n2=6)
        other = ApproxConfig(alpha=0.5, beta=1.0, sigma=5.0, n1=9, n2=7)
        with pytest.raises(ValueError, match="tail"):
            build_approximation(cfg, tail=fit_tail(other))

    def test_eval_single_pole(self):
        ap = RationalApprox(poles=np.array([-1.0 + 0j]), residues=np.array([1.0 + 0j]),
                            tail_coeffs=np.array([0j]))
        assert ap.eval(0.0) == 1.0

    def test_eval_tail_only_horner(self):
        ap = RationalApprox(poles=np.empty(0, complex), residues=np.empty(0, complex),
                            tail_coeffs=np.array([2.0 + 0j, 3.0 + 0j]))
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
        tail = horner(ap.tail_coeffs, zs)
        _assert_near_one_shot(vals - tail, zs, ap.poles, ap.residues, extra=np.abs(vals))

    def test_eval_pole_collision(self):
        ap = RationalApprox(poles=np.array([-1.0 + 0j]), residues=np.array([1.0 + 0j]),
                            tail_coeffs=np.array([0j]))
        with pytest.raises(PoleCollisionError):
            ap.eval(-1.0 + 1e-16j)

    def test_pole_ordering_enforced(self):
        with pytest.raises(ValueError):
            RationalApprox(poles=np.array([-1.0 + 0j, -2.0 + 0j, -1.5 + 0j]),
                           residues=np.ones(3, complex),
                           tail_coeffs=np.array([0j]))

    @pytest.mark.parametrize("poles", [np.array([-1.0 + 0j, -2.0 + 0j]),
                                       np.array([-1.0, -2.0])])
    def test_stored_poles_are_read_only_floats(self, poles):
        ap = RationalApprox(poles=poles, residues=np.ones(2, complex),
                            tail_coeffs=np.array([0j]))
        assert ap.poles.dtype == np.float64
        assert ap.poles.tolist() == [-1.0, -2.0]
        with pytest.raises(ValueError):
            ap.poles[0] = -3.0


# +-10^e with e in [-16, -12]: relative offsets around a collision window
_SIGNED_TINY = st.builds(lambda e, neg: -(10.0**e) if neg else 10.0**e,
                         st.floats(-16.0, -12.0), st.booleans())


def _pole_sum_case(target):
    """Poles of an n1 = 36 build, with its real residues and the complex
    ones of a prefactor build."""
    cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=36,
                       target=target)
    res = residues(cfg)
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
        # one rule, kernels._real_poles, for the sum and the approximant
        rule = "^poles must lie on the real axis$"
        with pytest.raises(ValueError, match=rule):
            pole_sum(np.array([0.5j]), np.array([-1.0, -2.0 + 1e-300j]), np.ones(2))
        with pytest.raises(ValueError, match=rule):
            RationalApprox(poles=np.array([-1.0, -2.0 + 1e-300j]), residues=np.ones(2, complex),
                           tail_coeffs=np.array([0j]))
        with pytest.raises(ValueError, match=rule):
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
        assert serialize(back) == text

    def test_complex_tail_tokens(self):
        ap = RationalApprox(poles=np.array([-0.5 + 0j]), residues=np.array([0.25 - 0.125j]),
                            tail_coeffs=np.array([1 / 3 + 0j, 0.1 - 0.7j]))
        text = serialize(ap)
        back = deserialize(text)
        assert np.array_equal(back.poles, ap.poles)
        assert np.array_equal(back.tail_coeffs, ap.tail_coeffs)
        assert np.array_equal(back.residues, ap.residues)
        assert serialize(back) == text

    @pytest.mark.parametrize("scale", ["scale 1\n", "scale 1.0\n", ""])
    def test_unit_or_missing_scale_accepted(self, scale):
        ap = deserialize("pole -1 0\nresidue 0.5 0\ntail 2 3\n" + scale)
        assert ap.eval(1.0) == 0.25 + 5.0
        assert serialize(ap).endswith("tail 2 3\nscale 1\n")

    @pytest.mark.parametrize("value", ["2", "nan", "-1", "one"])
    def test_other_scale_rejected(self, value):
        with pytest.raises(ValueError, match=f"record 'scale {value}'"):
            deserialize(f"pole -1 0\nresidue 0.5 0\ntail 2 3\nscale {value}\n")

    def test_unknown_record(self):
        with pytest.raises(ValueError, match="unknown record"):
            deserialize("pole -1 0\nresidue 1 0\nblob 3\n")
