import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightningpoly import analysis
from lightningpoly.analysis import (
    CSV_HEADER,
    BoundContext,
    ConvergenceRecord,
    _auto_tail_config,
    arc_grid,
    checked_sup_error,
    fit_rate,
    fit_slope_vs_t,
    make_target,
    near_origin_check,
    predicted_log_rate,
    quadrature_error_curve,
    quadrature_error_envelope,
    rate_grid,
    records_to_csv,
    run_sweep,
    sup_error,
)
from lightningpoly.approx import (
    ApproxConfig,
    _chebyshev_radii,
    _fit_points,
    _poly_eval,
    _remainder_values,
    RationalApprox,
    build_approximation,
    clustered_poles,
    deserialize,
    fit_tail,
    optimal_sigma,
    serialize,
)
from lightningpoly.geometry import ray_fan
from lightningpoly.kernels import (
    KernelConfig,
    PoleCollisionError,
    quadrature_nodes,
    trapezoid_rational,
    trapezoid_rational_log,
)


def _record(n1, n2, err, sigma=1.0):
    return ConvergenceRecord(n1=n1, n2=n2, n=n1 + n2, sup_err=err,
                             predicted_log_err=0.0, sigma=sigma, runtime_ms=0.0)


def _sector_points(beta, n_ray, n_arc, ratio):
    """Geometric radii ratio**0..ratio**n_ray on a fan of 2*n_arc + 1 rays,
    and the apex."""
    return np.concatenate([ray_fan(beta, ratio ** np.arange(n_ray + 1), 2 * n_arc + 1), [0.0]])


class TestSupError:
    def setup_method(self):
        self.cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=9)
        self.approx = build_approximation(self.cfg)
        self.grid = _sector_points(1.0, 30, 6, 0.5)

    def test_self_comparison_after_round_trip(self):
        clone = deserialize(serialize(self.approx))
        target = lambda zs: clone.eval(zs)
        assert sup_error(self.approx, target, None, self.grid) == 0.0

    def test_constant_shift(self):
        target = lambda zs: self.approx.eval(zs) + 0.125
        assert sup_error(self.approx, target, None, self.grid) == pytest.approx(0.125)

    def test_sector_rate_spec_point(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=36)
        approx = build_approximation(cfg)
        err = checked_sup_error(approx, make_target("power", 0.5), cfg)
        predicted = math.exp(-6 * math.pi)
        assert predicted / 100 <= err <= predicted * 100

    def test_v_subset_error_never_larger(self):
        sector = _sector_points(1.0, 40, 8, 0.5)
        vgrid = np.concatenate([ray_fan(1.0, 0.5 ** np.arange(41), 2), [0.0]])
        target = make_target("power", 0.5)
        e_s = sup_error(self.approx, target, None, sector)
        e_v = sup_error(self.approx, target, None, vgrid)
        assert e_v <= e_s + 1e-18


class TestPredictedLogRate:
    def test_stahl_matching_boundary(self):
        rate, pref = predicted_log_rate(4 * math.pi, 0.25, 0.0, "power")
        assert rate == pytest.approx(math.pi, rel=1e-14)
        assert pref == 0.0

    def test_subcritical_branch(self):
        rate, _ = predicted_log_rate(math.pi, 0.5, 1.0, "power")
        assert rate == pytest.approx(math.pi / 2, rel=1e-14)

    def test_supercritical_branch(self):
        rate, _ = predicted_log_rate(4 * math.pi, 0.5, 1.0, "power")
        assert rate == pytest.approx(math.pi / 2, rel=1e-14)

    def test_log_prefactor_power(self):
        _, pref = predicted_log_rate(math.pi, 0.5, 1.0, "power_log")
        assert pref == 0.5
        _, pref = predicted_log_rate(4 * math.pi, 0.5, 1.0, "power_log")
        assert pref == 0.0

    @given(st.floats(0.05, 0.95), st.floats(0.0, 1.95))
    @settings(max_examples=50, deadline=None)
    def test_branch_continuity_at_optimum(self, alpha, beta):
        s_opt = optimal_sigma(alpha, beta)
        sub = s_opt * alpha
        sup = math.pi * 1.0 * math.sqrt(2 * (2 - beta) * alpha)
        assert abs(sub - sup) < 1e-12 * max(1.0, sub)


class TestFitRate:
    def test_synthetic_exact(self):
        records = [_record(n, 0, math.exp(-3 * math.sqrt(n))) for n in (16, 25, 36, 49)]
        rho, r2 = fit_rate(records)
        assert rho == pytest.approx(3.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_absorbed(self):
        records = [_record(n, 0, 5 * math.exp(-3 * math.sqrt(n))) for n in (16, 25, 36, 49)]
        rho, _ = fit_rate(records)
        assert rho == pytest.approx(3.0, abs=1e-12)

    @given(st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_positive_scale_invariance(self, c):
        base = [_record(n, 0, math.exp(-2 * math.sqrt(n))) for n in (16, 25, 36, 49, 64)]
        scaled = [_record(r.n1, 0, c * r.sup_err) for r in base]
        lo = [r for r in scaled if 1e-13 < r.sup_err < 1e-2]
        if len(lo) < 4:
            return
        rho_a, _ = fit_rate(base, floor=0.0, ceiling=math.inf)
        rho_b, _ = fit_rate(scaled, floor=0.0, ceiling=math.inf)
        assert rho_b == pytest.approx(rho_a, rel=1e-9)

    def test_insufficient_span(self):
        records = [_record(n, 0, 1e-1) for n in (16, 25, 36, 49)]
        with pytest.raises(ValueError, match="insufficient span"):
            fit_rate(records)

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            ConvergenceRecord(n1=4, n2=4, n=9, sup_err=1.0,
                              predicted_log_err=0.0, sigma=1.0, runtime_ms=0.0)


class TestEnvelope:
    @staticmethod
    def _context(alpha, beta, eta, t_factor):
        sigma = optimal_sigma(alpha, beta) / eta
        h = sigma**2 * alpha**2
        ctx0 = BoundContext.from_parameters(alpha, beta, h, T=1.0)
        t_want = ctx0.c0 * (1.0 + t_factor)
        kappa = alpha / (1 - alpha)
        n_quad = math.ceil((t_want * (kappa + 1)) ** 2 / h)
        cfg = KernelConfig(alpha=alpha, C=1.0, h=h, n_quad=n_quad)
        return BoundContext.from_quadrature(cfg, beta)

    def test_bounds_hold_at_sample_point(self):
        ctx = self._context(0.5, 1.0, 1.0, 0.5)
        x = max(ctx.x_star, 0.7)
        q, lo, hi = quadrature_error_envelope(x, ctx)
        assert lo <= q <= hi

    def test_boundary_value_at_one(self):
        ctx = self._context(0.5, 1.0, 1.0, 0.8)
        q, lo, hi = quadrature_error_envelope(1.0, ctx)
        assert q == pytest.approx(1.0 / math.expm1(ctx.eta**2 * ctx.T), rel=1e-12)
        assert lo <= q * (1 + 1e-12)

    def test_outside_validity(self):
        ctx = self._context(0.5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError, match="outside envelope validity"):
            quadrature_error_envelope(ctx.x_star / 2, ctx)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_admissible_triples(self, seed):
        rng = np.random.RandomState(seed)
        alpha = rng.uniform(0.15, 0.85)
        beta = rng.uniform(0.0, 1.9)
        eta = rng.uniform(0.4, 2.5)
        ctx = self._context(alpha, beta, eta, rng.uniform(0.05, 2.0))
        u = rng.uniform(0.001, 0.999)
        x = math.exp(math.log(ctx.x_star) * (1 - u))  # log-uniform in [x*, 1]
        q, lo, hi = quadrature_error_envelope(x, ctx)
        assert lo <= q <= hi

    def test_delta0_collision_rule(self):
        # beta chosen so M0*h + quarter-term is an exact lattice multiple
        alpha, h = 0.5, 1.0
        beta = 2.0 - 4.0 / math.pi
        cfg = KernelConfig(alpha=alpha, C=1.0, h=h, n_quad=400)
        ctx = BoundContext.from_quadrature(cfg, beta)
        assert ctx.delta0 > 0.0
        gaps = [abs(ctx.c0**2 - j * h) for j in range(1, cfg.n_quad + 1)]
        assert min(gaps) >= 1e-9


def _full_scan_constants(alpha, beta, h, T, C=1.0, n_quad=10_000):
    """(M0, delta0, c0, x_star) with delta0 found by testing every lattice
    index j = 1..n_quad, vectorized: the reference the windowed test in
    BoundContext.from_parameters must reproduce bit for bit."""
    rhs = max(h, math.sqrt(2.0) * alpha * math.pi,
              2.0 * math.sqrt(6.0) * alpha**2 * math.pi**2,
              alpha * math.pi * (math.sqrt((4.0 + beta) * alpha * math.pi / 2.0)
                                 + (4.0 * h) ** 0.25) ** 2)
    m0 = max(1, math.ceil((rhs / (alpha * math.pi)) ** 2 / h - 1e-12))
    while alpha * math.pi * math.sqrt(m0 * h) < rhs - 1e-12:
        m0 += 1
    base = m0 * h + 0.25 * (2.0 - beta) ** 2 * alpha**2 * math.pi**2
    lattice = np.arange(1, n_quad + 1) * h
    delta0 = 0.0
    while np.any(np.abs(base + delta0 - lattice) < 1e-9):
        delta0 += h * 1e-3
    c0 = math.sqrt(base + delta0)
    return m0, delta0, c0, C * math.exp((c0 - T) / alpha)


def _constants(ctx):
    return ctx.M0, ctx.delta0, ctx.c0, ctx.x_star


class TestLatticeOffset:
    def test_equals_full_scan_on_criterion_8_triples(self):
        rng = np.random.RandomState(20240811)  # the draws of acceptance criterion 8
        for _ in range(1000):
            alpha = rng.uniform(0.15, 0.85)
            beta = rng.uniform(0.0, 1.9)
            eta = rng.uniform(0.4, 2.5)
            h = (optimal_sigma(alpha, beta) / eta) ** 2 * alpha**2
            ctx0 = BoundContext.from_parameters(alpha, beta, h, T=1.0)
            assert _constants(ctx0) == _full_scan_constants(alpha, beta, h, 1.0)
            t_want = ctx0.c0 * (1.0 + rng.uniform(0.05, 2.0))
            kappa = alpha / (1 - alpha)
            cfg = KernelConfig(alpha=alpha, h=h,
                               n_quad=math.ceil((t_want * (kappa + 1)) ** 2 / h))
            ctx = BoundContext.from_quadrature(cfg, beta)
            assert _constants(ctx) == _full_scan_constants(alpha, beta, h, cfg.T,
                                                           n_quad=cfg.n_quad)
            rng.uniform(0.001, 0.999)  # criterion 8's sample point

    @pytest.mark.parametrize("alpha,h,offset", [
        (0.5, 1.0, 0.0), (0.5, 0.3, 4e-10), (0.5, 2.0, -7e-10), (0.3, 0.2, 9e-10),
        (0.7, 1.5, -2e-10), (0.5, 1.0, 2e-9), (0.3, 0.2, -3e-9),
    ])
    def test_equals_full_scan_near_a_lattice_point(self, alpha, h, offset):
        # a quarter term (2-beta)^2*alpha^2*pi^2/4 of h + offset puts
        # M0*h + quarter at `offset` from the lattice point (M0+1)*h
        beta = 2.0 - 2.0 * math.sqrt(h + offset) / (alpha * math.pi)
        assert 0.0 <= beta < 2.0
        want = _full_scan_constants(alpha, beta, h, 2.0)
        assert _constants(BoundContext.from_parameters(alpha, beta, h, T=2.0)) == want
        assert (want[1] > 0.0) == (abs(offset) < 1e-9)


class TestQuadratureCurves:
    def test_slopes_at_and_above_optimum(self):
        alpha, beta = 0.5, 1.0
        grid = arc_grid(beta, n=15)
        s_opt = optimal_sigma(alpha, beta)
        slopes = []
        for scale in (1.0, 1.2, 1.5):
            sigma = s_opt * scale
            h = sigma**2 * alpha**2
            cfgs = [KernelConfig(alpha=alpha, h=h, n_quad=math.ceil((t * 2) ** 2 / h))
                    for t in (5, 8, 11, 14, 17)]
            rows = quadrature_error_curve(cfgs, "power", grid)
            assert [r[0] for r in rows] == sorted(r[0] for r in rows)
            slopes.append(fit_slope_vs_t(rows))
        eta2 = [1.0, 1 / 1.2**2, 1 / 1.5**2]
        for got, want in zip(slopes, eta2):
            assert abs(got - want) <= 0.2 * want
        assert slopes[0] >= slopes[1] >= slopes[2]

    def test_log_target_bounded_prefactor(self):
        alpha, beta = 0.5, 1.0
        grid = arc_grid(beta, n=11)
        sigma = optimal_sigma(alpha, beta)
        h = sigma**2 * alpha**2
        cfgs = [KernelConfig(alpha=alpha, h=h, n_quad=math.ceil((t * 2) ** 2 / h))
                for t in (5, 8, 11, 14)]
        rows = quadrature_error_curve(cfgs, "power_log", grid)
        ratios = [e / (t * math.exp(-t)) for t, e in rows]
        assert max(ratios) / min(ratios) < 10.0


class TestNearOrigin:
    def test_zero_point_is_exact(self):
        cfg = KernelConfig(alpha=0.5, h=math.pi**2, n_quad=40)
        from lightningpoly.kernels import trapezoid_rational, truncated_integral
        assert truncated_integral(0.0, cfg).value == 0
        assert trapezoid_rational(0.0, cfg) == 0

    def test_ratios_finite_and_stable(self):
        alpha, beta = 0.5, 1.0
        h = 2 * (2 - beta) * math.pi**2 * alpha
        ratios = []
        for t in (5.0, 10.0):
            cfg = KernelConfig(alpha=alpha, h=h, n_quad=math.ceil((t * 2) ** 2 / h))
            ratios.append(near_origin_check(cfg, beta, n_x=8, n_theta=3))
        (p1, l1), (p2, l2) = ratios
        assert max(p1, p2) / min(p1, p2) < 10
        assert max(l1, l2) / min(l1, l2) < 10


class TestSweepAndCsv:
    def test_sweep_records_and_csv_schema(self):
        records = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0), [9, 16])
        assert [r.n1 for r in records] == [9, 16]
        for r in records:
            assert r.n == r.n1 + r.n2
            assert r.sup_err > 0
            assert r.runtime_ms >= 0
        text = records_to_csv(records)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert text.endswith("\n") and "\r" not in text

    def test_sweep_proportional_mode(self):
        records = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0), [9], n2_mode="proportional")
        assert records[0].n2 == math.ceil(1.3 * 9)

    def test_sweep_fixed_mode(self):
        records = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0), [9], n2_mode=7)
        assert records[0].n2 == 7

    @pytest.mark.parametrize("target, g", [("power", None), ("power_log", None),
                                           ("prefactor_power", cmath.exp)])
    def test_auto_sweep_equals_fresh_build(self, target, g):
        # the sweep reuses the ladder's tail for plain targets; a fresh build
        # from the chosen config must give the same record
        alpha, beta, n1 = 0.8, 1.5, 16
        sigma = optimal_sigma(alpha, beta)
        (rec,) = run_sweep(alpha, beta, sigma, [n1], target=target, g=g)
        cfg, tail = _auto_tail_config(alpha, beta, sigma, n1, 1.0, target, g)
        assert tail.coeffs.size == cfg.n2 + 1
        approx = build_approximation(cfg)
        err = checked_sup_error(approx, make_target(target, alpha, g), cfg)
        assert (rec.n1, rec.n2, rec.sup_err) == (cfg.n1, cfg.n2, err)

    @pytest.mark.parametrize("alpha, beta, target, sigma_factor, n1, rungs", [
        (0.8, 1.5, "power", 1.0, 16, 4),
        (0.8, 1.5, "power_log", 1.0, 9, 4),
        (0.8, 1.5, "power_log", 0.5, 16, 3),
        (0.25, 0.5, "power_log", 1.0, 36, 1),
        (0.25, 1.5, "power", 2.0, 49, 3),
    ])
    def test_ladder_climbs_the_expected_rungs(self, monkeypatch, alpha, beta, target,
                                              sigma_factor, n1, rungs):
        sigma = sigma_factor * optimal_sigma(alpha, beta)
        n2s = []
        fit = analysis.fit_tail
        monkeypatch.setattr(analysis, "fit_tail",
                            lambda cfg, values_fn=None: (n2s.append(cfg.n2),
                                                         fit(cfg, values_fn))[1])
        _auto_tail_config(alpha, beta, sigma, n1, 1.0, target, None)
        assert len(n2s) == rungs

    def test_rate_grid_reaches_below_innermost_pole(self):
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=25)
        grid = rate_grid(cfg)
        p1 = abs(clustered_poles(cfg)[0])
        nz = np.abs(grid[grid != 0])
        assert nz.min() < p1
        assert np.isclose(nz.max(), 1.0)
        assert 0.0 in grid

    def test_rate_grid_is_deterministic_and_fresh_per_call(self):
        cfg = ApproxConfig(alpha=0.3, beta=0.7, sigma=4.0, n1=15, target="power_log")
        a, b = rate_grid(cfg, 1), rate_grid(cfg, 1)
        assert a is not b and np.array_equal(a, b)
        a[:] = 2.0
        assert np.array_equal(rate_grid(cfg, 1), b)

    @given(st.floats(0.1, 0.9), st.floats(0.0, 1.95), st.floats(0.5, 12.0),
           st.integers(1, 25), st.integers(0, 30))
    @example(0.5, 1.1, 4.0, 9, 4)  # the middle arc angle rounds below the axis
    @settings(max_examples=20, deadline=None)
    def test_sample_points_stay_in_unit_sector(self, alpha, beta, sigma, n1, n2):
        # every point lies on the sector's boundary: the apex, the arc or an
        # edge ray (the segment [0, 1] at beta = 0); a plain target keeps the
        # upper half, Im z >= 0, with the odd arc's middle point z = 1, and a
        # prefactor target both edges
        cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1, n2=n2)
        pre = _prefactor_twin(cfg)
        half = beta * math.pi / 2

        def point_sets(c):
            return ([_fit_points(c, fine) for fine in (False, True)]
                    + [rate_grid(c, refine) for refine in (0, 1, 2)])

        for k, (zs, full) in enumerate(zip(point_sets(cfg), point_sets(pre))):
            assert np.all(zs.imag >= 0)
            upper = full[full.imag > 1e-15 * np.abs(full.real)]
            assert np.all(np.isin(upper, zs))
            assert np.all(np.isin(zs, upper) | (zs.imag == 0))
            if k >= 2:
                assert 1.0 in zs
            if beta > 0.0:
                for edge in (-half, half):
                    assert np.any((np.abs(np.angle(full) - edge) <= 1e-12) & (full != 0))
            for pts in (zs, full):
                assert _in_unit_sector(beta, pts).all()
                on_edge = np.abs(np.abs(np.angle(pts)) - half) <= 1e-12
                on_arc = np.abs(np.abs(pts) - 1.0) <= 1e-12
                assert (on_edge | on_arc | (np.abs(pts) <= 1e-12)).all()
                if beta == 0.0:
                    assert np.all(pts.imag == 0.0)
                    assert np.all((pts.real >= 0) & (pts.real <= 1))


def _in_unit_sector(beta, zs, tol=1e-12):
    """Whether each point lies in |arg z| <= beta*pi/2, |z| <= 1, up to tol."""
    r = np.abs(zs)
    return (r <= tol) | ((r <= 1 + tol) & (np.abs(np.angle(zs)) <= beta * math.pi / 2 + tol))


def _prefactor_twin(cfg):
    """cfg with a prefactor target, whose grids and fit points keep both
    halves of the boundary."""
    return dataclasses.replace(cfg, target="prefactor_" + cfg.target, g=cmath.exp)


def _full_boundary_complex_tail(cfg):
    """The plain remainder's tail fit as complex coefficients over both
    halves of the boundary: the fit that the real upper-half fit replaced."""
    zs = _fit_points(_prefactor_twin(cfg), fine=False)
    V = np.vander(zs, cfg.n2 + 1, increasing=True)
    norms = np.linalg.norm(V, axis=0)
    c = np.linalg.lstsq(V / norms, _remainder_values(cfg, zs), rcond=None)[0]
    return c / norms


_GRID_ALPHAS = [0.25, 0.5, 0.8]
_GRID_BETAS = [0.0, 0.5, 1.0, 1.5, 1.9]


def _grid_configs(alpha, beta, targets):
    for factor in (0.5, 1.0, 2.0):
        sigma = factor * optimal_sigma(alpha, beta)
        for target, g in targets:
            for n1 in (16, 49):
                yield ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1,
                                   target=target, g=g)


def _fan_grid(cfg, refine):
    """The sector grid with interior rays that the boundary rate grid
    replaced: the same radii on a fan of 13*(refine + 1) rays, and the apex."""
    p1 = abs(clustered_poles(cfg)[0])
    depth = int(math.log(max(p1, 1e-280)) / math.log(0.5)) + 4
    depth = min(max(depth, 40), 1400) * (refine + 1)
    ratio = 0.5 ** (1.0 / (refine + 1))
    radii = np.unique(np.concatenate([ratio ** np.arange(depth + 1),
                                      _chebyshev_radii(192 * (refine + 1))]))
    return np.concatenate([ray_fan(cfg.beta, radii, 13 * (refine + 1)), [0.0]])


class TestBoundaryGrid:
    @pytest.mark.parametrize("beta", _GRID_BETAS)
    @pytest.mark.parametrize("alpha", _GRID_ALPHAS)
    def test_interior_rays_never_exceed_the_boundary(self, alpha, beta):
        # maximum modulus: the error is analytic inside the sector, so no
        # point of the interior-ray fan exceeds the boundary grid's sup
        targets = (("power", None), ("power_log", None), ("prefactor_power", cmath.exp))
        for cfg in _grid_configs(alpha, beta, targets):
            f = make_target(cfg.target, alpha, cfg.g)
            approx = build_approximation(cfg)
            for refine in (0, 1):
                boundary = sup_error(approx, f, None, rate_grid(cfg, refine))
                fan = sup_error(approx, f, None, _fan_grid(cfg, refine))
                assert fan <= boundary + 1e-13, (cfg, refine)

    @pytest.mark.parametrize("beta", _GRID_BETAS)
    @pytest.mark.parametrize("alpha", _GRID_ALPHAS)
    def test_plain_tails_are_real_and_the_lower_half_adds_nothing(self, alpha, beta):
        # Schwarz reflection: real poles, residues and tail give
        # |e(conj z)| = |e(z)| bit for bit, so mirroring the upper half of
        # the grid leaves the sup unchanged
        for cfg in _grid_configs(alpha, beta, (("power", None), ("power_log", None))):
            f = make_target(cfg.target, alpha)
            approx = build_approximation(cfg)
            assert np.all(approx.tail_coeffs.imag == 0.0), cfg
            for refine in (0, 1):
                zs = rate_grid(cfg, refine)
                mirrored = np.concatenate([zs, zs[zs.imag > 0].conj()])
                assert (sup_error(approx, f, None, mirrored)
                        == sup_error(approx, f, None, zs)), (cfg, refine)

    @pytest.mark.parametrize("beta", _GRID_BETAS)
    @pytest.mark.parametrize("alpha", _GRID_ALPHAS)
    def test_real_half_fit_matches_full_boundary_complex_fit(self, alpha, beta):
        for cfg in _grid_configs(alpha, beta, (("power", None), ("power_log", None))):
            tail = fit_tail(cfg)
            assert not np.iscomplexobj(tail.coeffs)
            zv = _fit_points(cfg, fine=True)
            y = _remainder_values(cfg, zv)
            gap = np.abs(_poly_eval(tail.coeffs, zv, 1.0)
                         - _poly_eval(_full_boundary_complex_tail(cfg), zv, 1.0))
            assert gap.max() <= 1e-12 * np.abs(y).max(), cfg


class TestDiagnosticsAndSkips:
    def test_sup_error_skips_and_errors(self):
        approx = deserialize("pole -1 0\nresidue 1 0\ntail 0\nscale 1\n")
        near_pole = -1.0 + 1e-16j
        ok_points = (0.5 + 0.1j) * np.ones(300)
        grid = np.concatenate([[near_pole], ok_points])
        with pytest.warns(UserWarning, match="skipped 1"):
            sup_error(approx, lambda zs: np.zeros_like(zs), None, grid)
        tiny = np.array([near_pole, 0.5 + 0j])
        with pytest.warns(UserWarning):
            with pytest.raises(Exception, match="1%"):
                sup_error(approx, lambda zs: np.zeros_like(zs), None, tiny)

    def test_collision_rule_shared_by_sums_eval_and_sup_error(self):
        # alpha = 0.1 and T ~ 68 put the innermost node near 1e-291, where
        # the absolute 1e-300 floor of the collision window decides
        cfg = KernelConfig(alpha=0.1, C=1.0, h=1.0, n_quad=5700)
        poles = quadrature_nodes(cfg, np.arange(1, cfg.n_quad + 1))[1]
        approx = RationalApprox(poles=poles, residues=np.ones(poles.size),
                                tail_coeffs=np.zeros(1), basis_scale=1.0)
        safe = np.full(100, 0.5 + 0.1j)
        assert 1e-292 < abs(poles[0]) < 1e-289
        for p in (poles[0], poles[np.argmin(np.abs(np.log(np.abs(poles))))]):
            window = max(1e-14 * abs(p), 1e-300)
            for factor, collides in ((0.5, True), (2.0, False)):
                z = complex(p, factor * window)
                grid = np.concatenate([[z], safe])
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    sup_error(approx, lambda zs: np.zeros_like(zs), None, grid)
                assert any("skipped 1" in str(w.message) for w in caught) == collides
                for fn in (lambda: trapezoid_rational(z, cfg),
                           lambda: trapezoid_rational_log(z, cfg),
                           lambda: approx.eval(z)):
                    if collides:
                        with pytest.raises(PoleCollisionError):
                            fn()
                    else:
                        assert np.isfinite(abs(fn()))

    def test_threaded_sweep_matches_sequential(self):
        from concurrent.futures import ThreadPoolExecutor
        sigma = optimal_sigma(0.5, 1.0)
        seq = run_sweep(0.5, 1.0, sigma, [9, 16, 25])
        with ThreadPoolExecutor(max_workers=3) as pool:
            par = run_sweep(0.5, 1.0, sigma, [9, 16, 25],
                            map_fn=lambda f, xs: list(pool.map(f, xs)))
        assert [r.sup_err for r in par] == [r.sup_err for r in seq]
        assert [r.n2 for r in par] == [r.n2 for r in seq]

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError, match="capped at 120"):
            ApproxConfig(alpha=0.5, beta=0.0, sigma=4.0, n1=4, n2=121)
