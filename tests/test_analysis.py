import cmath
import dataclasses
import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightningpoly import analysis
from lightningpoly import approx as approx_module
from lightningpoly.analysis import (
    CSV_HEADER,
    BoundContext,
    ConvergenceRecord,
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
    _fit_points,
    _remainder_values,
    RationalApprox,
    build_approximation,
    clustered_poles,
    deserialize,
    fit_tail,
    ladder_tail,
    optimal_sigma,
    serialize,
)
from lightningpoly.geometry import chebyshev_radii, ray_fan, sector_boundary
from lightningpoly.kernels import (
    KernelConfig,
    PoleCollisionError,
    horner,
    quadrature_nodes,
    trapezoid_rational,
    trapezoid_rational_log,
)


def _record(n1, n2, err, sigma=1.0):
    return ConvergenceRecord(n1=n1, n2=n2, sup_err=err,
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
        err = checked_sup_error(approx, cfg)
        predicted = math.exp(-6 * math.pi)
        assert predicted / 100 <= err <= predicted * 100

    def test_v_subset_error_never_larger(self):
        sector = _sector_points(1.0, 40, 8, 0.5)
        vgrid = np.concatenate([ray_fan(1.0, 0.5 ** np.arange(41), 2), [0.0]])
        target = make_target("power", 0.5)
        e_s = sup_error(self.approx, target, None, sector)
        e_v = sup_error(self.approx, target, None, vgrid)
        assert e_v <= e_s + 1e-18


class TestMakeTarget:
    @pytest.mark.parametrize("kind", ["power", "power_log"])
    def test_g_multiplies_each_kind(self, kind):
        # make_target("power", alpha, g) once dropped g without a word
        zs = ray_fan(1.5, [1e-3, 0.3, 1.0], 7)
        want = np.exp(zs) * zs**0.5 * (np.log(zs) if kind == "power_log" else 1.0)
        np.testing.assert_allclose(make_target(kind, 0.5, cmath.exp)(zs), want, rtol=1e-14)


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

    def test_unknown_target_raises(self):
        # "cube" once got the power target's rate (1.5, 0.0)
        with pytest.raises(ValueError, match="unknown target 'cube'"):
            predicted_log_rate(3.0, 0.5, 1.0, "cube")

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
        # N is n1 + n2 by construction; a negative sup_err is still rejected
        assert _record(4, 5, 1.0).n == 9
        assert dataclasses.replace(_record(4, 5, 1.0), n2=7).n == 11
        with pytest.raises(ValueError, match="nonnegative"):
            _record(4, 4, -1.0)


class TestEnvelope:
    @staticmethod
    def _context(alpha, beta, eta, t_factor):
        sigma = optimal_sigma(alpha, beta) / eta
        h = sigma**2 * alpha**2
        ctx0 = BoundContext.from_parameters(alpha, beta, h, T=1.0)
        t_want = ctx0.c0 * (1.0 + t_factor)
        kappa = alpha / (1 - alpha)
        n_quad = math.ceil((t_want * (kappa + 1)) ** 2 / h)
        # a KernelConfig's T, from its parameters: at some of these T the
        # trapezoid's poles leave the double range and KernelConfig rejects them
        T = math.sqrt(n_quad * h) / (kappa + 1.0)
        return BoundContext.from_parameters(alpha, beta, h, T, n_quad=n_quad)

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
            # a KernelConfig's T and n_quad, from its parameters: at some of
            # these T its poles leave the double range and KernelConfig
            # rejects them
            n_quad = math.ceil((t_want * (kappa + 1)) ** 2 / h)
            T = math.sqrt(n_quad * h) / (kappa + 1.0)
            ctx = BoundContext.from_parameters(alpha, beta, h, T, n_quad=n_quad)
            assert _constants(ctx) == _full_scan_constants(alpha, beta, h, T, n_quad=n_quad)
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


    @pytest.mark.parametrize("target", ["cube", "prefactor_power_log"])
    def test_unknown_target_raises(self, target):
        # any target but power_log once ran as power
        cfgs = [KernelConfig.from_truncation(0.5, t, sigma=optimal_sigma(0.5, 1.0))
                for t in (4, 6)]
        with pytest.raises(ValueError, match=f"unknown target '{target}'"):
            quadrature_error_curve(cfgs, target, arc_grid(1.0, n=3))


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

    @pytest.mark.parametrize("alpha, beta, sigma_factor, n1, target, g", [
        (0.8, 1.5, 1.0, 16, "power", None),
        (0.8, 1.5, 1.0, 16, "power_log", None),
        (0.8, 1.5, 1.0, 16, "power", cmath.exp),
        # the ladder stops below its top rung: n2 = 28 of 42, and 12 of 36
        (0.8, 1.5, 0.5, 49, "power", None),
        (0.25, 0.5, 1.0, 36, "power_log", None),
    ])
    def test_auto_sweep_equals_fresh_build(self, alpha, beta, sigma_factor, n1, target, g):
        # the sweep reuses the ladder's tail for every target; a fresh build
        # from the chosen config must give the same record
        sigma = sigma_factor * optimal_sigma(alpha, beta)
        (rec,) = run_sweep(alpha, beta, sigma, [n1], target=target, g=g)
        given = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1, target=target, g=g)
        cfg, tail = ladder_tail(given)
        np.testing.assert_array_equal(fit_tail(cfg).coeffs, tail.coeffs)
        # the ladder sets n2 itself: the n2 it is handed moves nothing
        for n2 in (0, 1, cfg.n2, 1000):
            cfg_n2, tail_n2 = ladder_tail(dataclasses.replace(given, n2=n2))
            assert cfg_n2 == cfg
            np.testing.assert_array_equal(tail_n2.coeffs, tail.coeffs)
            assert (tail_n2.fit_rms, tail_n2.validation_sup) == \
                (tail.fit_rms, tail.validation_sup)
        approx = build_approximation(cfg)
        err = checked_sup_error(approx, cfg)
        assert (rec.n1, rec.n2, rec.sup_err) == (cfg.n1, cfg.n2, err)

    # sha256 of serialize(build_approximation(...)) at n1 = 16 and of the
    # zero-runtime records_to_csv(run_sweep(...)) over n1 = 9, 16, 25, at
    # alpha = 0.5, beta = 1, sigma_opt and g = exp: the bytes these builds
    # gave when a prefactor target had names of its own (prefactor_power,
    # prefactor_power_log); recorded with numpy 2.4 and its OpenBLAS 0.3.31
    # on x86-64, whose rounding the bytes depend on
    _PREFACTOR_PINS = {
        "power": ("3ddfbc4033d53566893ef67e40a171145cac072a3d44ebfa4f13db9937c36840",
                  "240fa936f997a2f01ca42fa0f2862081da778890a62b4a32f7e6945148c64a7e"),
        "power_log": ("d36568a7ef415821dd0221d569d2efae0dfb30dd5fded1a065512953533668c5",
                      "bfa66f9c24b8453765cd5ea12c237735811c87a03dcd42140fd4843f17277a32"),
    }

    @pytest.mark.parametrize("target", ["power", "power_log"])
    def test_prefactor_bytes_are_pinned(self, target):
        sigma = optimal_sigma(0.5, 1.0)
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=sigma, n1=16, target=target, g=cmath.exp)
        records = run_sweep(0.5, 1.0, sigma, [9, 16, 25], target=target, g=cmath.exp)
        csv = records_to_csv([dataclasses.replace(r, runtime_ms=0.0) for r in records])
        digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                        for text in (serialize(build_approximation(cfg)), csv))
        assert digests == self._PREFACTOR_PINS[target]

    _LADDER_CASES = [
        (0.8, 1.5, "power", None, 1.0, 16, 4),
        (0.8, 1.5, "power_log", None, 1.0, 9, 4),
        (0.8, 1.5, "power_log", None, 0.5, 16, 3),
        (0.25, 0.5, "power_log", None, 1.0, 36, 1),
        (0.25, 1.5, "power", None, 2.0, 49, 3),
        # the ladder ranks the g-corrected tail, which passes a rung below
        # the plain remainder's 4
        (0.8, 1.5, "power", cmath.exp, 1.0, 16, 3),
    ]

    @pytest.mark.parametrize("alpha, beta, target, g, sigma_factor, n1, rungs", _LADDER_CASES)
    def test_ladder_climbs_the_expected_rungs(self, monkeypatch, alpha, beta, target, g,
                                              sigma_factor, n1, rungs):
        sigma = sigma_factor * optimal_sigma(alpha, beta)
        consumed = []
        fits = approx_module.tail_fits

        def counted(cfg, degrees):
            for tail in fits(cfg, degrees):
                consumed.append(tail)
                yield tail

        monkeypatch.setattr(approx_module, "tail_fits", counted)
        cfg, tail = ladder_tail(ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1,
                                             target=target, g=g))
        assert len(consumed) == rungs
        assert tail.coeffs.size == cfg.n2 + 1

    @pytest.mark.parametrize("alpha, beta, target, g, sigma_factor, n1, rungs", _LADDER_CASES)
    def test_one_fit_set_and_remainder_per_sweep_cell(self, monkeypatch, alpha, beta, target, g,
                                                      sigma_factor, n1, rungs):
        # whatever number of rungs a cell climbs, and for every target, it
        # builds the fit and validation sets once each, evaluates the
        # remainder once and solves one least-squares problem per rung: the
        # approximant keeps the ladder's tail
        calls = {"_fit_points": 0, "_remainder_values": 0, "_poly_lstsq": 0}
        for name in calls:
            original = getattr(approx_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(approx_module, name, counted)
        run_sweep(alpha, beta, sigma_factor * optimal_sigma(alpha, beta), [n1],
                  target=target, g=g)
        assert calls == {"_fit_points": 2, "_remainder_values": 1, "_poly_lstsq": rungs}

    def test_non_finite_tail_values_raise(self):
        # g is NaN at one validation point of the n1 = 16 cell only, so the
        # misfit of every rung would be NaN: the sweep must raise, not lose
        # the cell (and the cells after it) to a StopIteration that map
        # takes for the end of its input
        cfg = ApproxConfig(alpha=0.8, beta=1.5, sigma=optimal_sigma(0.8, 1.5), n1=16,
                           g=cmath.exp)
        fit = set(_fit_points(cfg, fine=False).tolist())
        bad = next(z for z in _fit_points(cfg, fine=True).tolist()
                   if z.imag > 0 and z not in fit)

        def g(z):
            return complex("nan") if z == bad else cmath.exp(z)

        with pytest.raises(RuntimeError, match="tail values are not finite") as seq:
            run_sweep(0.8, 1.5, cfg.sigma, [9, 16, 25], g=g)
        # single-cell sweeps on concurrent workers: only the n1 = 16 cell
        # raises, with the sequential sweep's error
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run_sweep, 0.8, 1.5, cfg.sigma, [n1], g=g)
                       for n1 in (9, 16, 25)]
        errors = [f.exception() for f in futures]
        assert errors[0] is None and errors[2] is None
        assert type(errors[1]) is RuntimeError and str(errors[1]) == str(seq.value)

    def test_non_finite_sup_error_raises(self):
        # g is NaN at one refine=1 sup-norm point that neither fit set
        # holds, so the tail fit succeeds; the sweep used to record the cell
        # as the row "6.2831853071795862,9,9,18,nan,..."
        cfg = ApproxConfig(alpha=0.5, beta=1.0, sigma=optimal_sigma(0.5, 1.0), n1=9,
                           g=cmath.exp)
        fits = {z for fine in (False, True) for z in _fit_points(cfg, fine).tolist()}
        bad = next(z for z in rate_grid(cfg, 1).tolist() if z not in fits)

        def g(z):
            return complex("nan") if z == bad else cmath.exp(z)

        with pytest.raises(RuntimeError, match="sup error nan at n1=9 is not finite"):
            run_sweep(0.5, 1.0, cfg.sigma, [9], g=g)

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
    @example(0.5, 0.0, 4.0, 9, 4)  # no arc: z = 1 once, from the axis
    @settings(max_examples=20, deadline=None)
    def test_sample_points_stay_in_unit_sector(self, alpha, beta, sigma, n1, n2):
        # every point lies on the sector's boundary: the apex, the arc or an
        # edge ray (the segment [0, 1] at beta = 0, with z = 1 once and no
        # arc); a plain target keeps the upper half, Im z >= 0, with the odd
        # arc's middle point z = 1, and a prefactor target both edges
        cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=sigma, n1=n1, n2=n2)
        pre = _prefactor_twin(cfg)
        half = beta * math.pi / 2

        def point_sets(c):
            return ([_fit_points(c, fine) for fine in (False, True)]
                    + [rate_grid(c, refine) for refine in (0, 1, 2)]
                    + [sector_boundary(beta, [0.25, 1.0], 2 * n1 + 1, c.g is None)])

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
                    assert np.count_nonzero(pts == 1.0) == 1


def _in_unit_sector(beta, zs, tol=1e-12):
    """Whether each point lies in |arg z| <= beta*pi/2, |z| <= 1, up to tol."""
    r = np.abs(zs)
    return (r <= tol) | ((r <= 1 + tol) & (np.abs(np.angle(zs)) <= beta * math.pi / 2 + tol))


def _prefactor_twin(cfg):
    """cfg times the prefactor g = exp, whose grids and fit points keep both
    halves of the boundary."""
    return dataclasses.replace(cfg, g=cmath.exp)


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
                                      chebyshev_radii(192 * (refine + 1))]))
    return np.concatenate([ray_fan(cfg.beta, radii, 13 * (refine + 1)), [0.0]])


class TestBoundaryGrid:
    @pytest.mark.parametrize("beta", _GRID_BETAS)
    @pytest.mark.parametrize("alpha", _GRID_ALPHAS)
    def test_interior_rays_never_exceed_the_boundary(self, alpha, beta):
        # maximum modulus: the error is analytic inside the sector, so no
        # point of the interior-ray fan exceeds the boundary grid's sup
        targets = (("power", None), ("power_log", None), ("power", cmath.exp))
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
            gap = np.abs(horner(tail.coeffs, zv) - horner(_full_boundary_complex_tail(cfg), zv))
            assert gap.max() <= 1e-12 * np.abs(y).max(), cfg


_NESTED_CONFIGS = [
    pytest.param(0.5, 1.0, None, id="plain"),
    pytest.param(0.8, 1.5, cmath.exp, id="prefactor"),  # both halves of the boundary
    pytest.param(0.5, 0.0, None, id="no-arc"),
]


def _spiked(approx, z0, spike):
    """A target equal to approx.eval except at z0, where it is off by spike."""
    return lambda zs: approx.eval(zs) + np.where(zs == z0, spike, 0.0)


class TestNestedDriftCheck:
    # checked_sup_error measures the refine=1 grid once, as its even half
    # and the rest, and compares the half's sup with the whole's

    def _setup(self, alpha, beta, g):
        cfg = ApproxConfig(alpha=alpha, beta=beta, sigma=optimal_sigma(alpha, beta), n1=16,
                           g=g)
        return cfg, build_approximation(cfg)

    @pytest.mark.parametrize("alpha, beta, g", _NESTED_CONFIGS)
    def test_half_and_rest_partition_the_grid(self, alpha, beta, g):
        cfg, _ = self._setup(alpha, beta, g)
        whole = rate_grid(cfg, 1)
        half, rest = rate_grid(cfg, 1, split=True)
        assert np.intersect1d(half, rest).size == 0
        assert np.array_equal(np.sort(np.concatenate([half, rest])), np.sort(whole))
        assert 0.0 in half and 1.0 in half
        assert abs(half.size - rest.size) <= 0.02 * whole.size

    @pytest.mark.parametrize("alpha, beta, g", _NESTED_CONFIGS)
    def test_no_drift_returns_the_whole_grids_sup(self, alpha, beta, g):
        cfg, approx = self._setup(alpha, beta, g)
        f = make_target(cfg.target, alpha, g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = checked_sup_error(approx, cfg)
        assert err == sup_error(approx, f, None, rate_grid(cfg, 1))

    def test_drift_in_the_rest_refines_again(self, monkeypatch):
        cfg, approx = self._setup(0.5, 1.0, None)
        _, rest = rate_grid(cfg, 1, split=True)
        z0 = rest[rest.size // 2]
        finer_grid = rate_grid(cfg, 2)
        assert z0 not in finer_grid
        target = _spiked(approx, z0, 0.25)
        monkeypatch.setattr(analysis, "make_target", lambda *args: target)
        with pytest.warns(UserWarning, match="still drifting after two refinements"):
            err = checked_sup_error(approx, cfg)
        assert err == sup_error(approx, target, None, finer_grid) == 0.0

    @pytest.mark.parametrize("sups, refined", [
        # the half, whole and refine=2 sups of the alpha = 0.5, beta = 1,
        # sigma = opt cell at n1 = 196: rounding noise, below RATE_FIT_FLOOR
        ((3.51e-16, 3.72e-16, 4.00e-16), False),
        ((1e-6, 1.1e-6, 1.1e-6), True),
    ])
    def test_drift_is_measured_against_the_rate_fit_floor(self, monkeypatch, sups, refined):
        cfg, approx = self._setup(0.5, 1.0, None)
        calls = iter(sups)
        monkeypatch.setattr(analysis, "sup_error", lambda *args: next(calls))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = checked_sup_error(approx, cfg)
        assert err == sups[2 if refined else 1]
        assert list(calls) == ([] if refined else [sups[2]])

    def test_sweep_cell_at_the_float_floor_does_not_warn(self):
        # it once evaluated the refine=2 grid and warned "still drifting"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec, = run_sweep(0.5, 1.0, optimal_sigma(0.5, 1.0), [196])
        assert rec.sup_err < analysis.RATE_FIT_FLOOR

    def test_nan_in_the_rest_is_kept(self, monkeypatch):
        # Python's max(x, nan) is x: the rest's NaN must not be dropped
        cfg, approx = self._setup(0.5, 1.0, None)
        _, rest = rate_grid(cfg, 1, split=True)
        monkeypatch.setattr(analysis, "make_target",
                            lambda *args: _spiked(approx, rest[3], math.nan))
        assert math.isnan(checked_sup_error(approx, cfg))


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
                                tail_coeffs=np.zeros(1))
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

    @pytest.mark.parametrize("target, g", [("power", None), ("power_log", cmath.exp)])
    def test_concurrent_single_cell_sweeps_match_sequential(self, target, g):
        # the library is immutable: callers may run cells on their own
        # workers, and each record equals the sequential sweep's
        sigma, n1s = optimal_sigma(0.5, 1.0), [9, 16, 25]

        def untimed(records):
            return [dataclasses.replace(r, runtime_ms=0.0) for r in records]

        seq = untimed(run_sweep(0.5, 1.0, sigma, n1s, target=target, g=g))
        with ThreadPoolExecutor(max_workers=3) as pool:
            cells = list(pool.map(lambda n1: run_sweep(0.5, 1.0, sigma, [n1],
                                                       target=target, g=g), n1s))
        assert [untimed(c) for c in cells] == [[r] for r in seq]

    def test_degree_cap_enforced(self):
        ApproxConfig(alpha=0.5, beta=0.0, sigma=4.0, n1=4, n2=1000)
        with pytest.raises(ValueError, match="capped at 1000"):
            ApproxConfig(alpha=0.5, beta=0.0, sigma=4.0, n1=4, n2=1001)
        # the default degree ceil(1.3*n1) stops at the cap instead of failing it
        assert ApproxConfig(alpha=0.5, beta=0.0, sigma=1.0, n1=100).n2 == 130
        assert ApproxConfig(alpha=0.5, beta=0.0, sigma=1.0, n1=770).n2 == 1000
