import cmath
import math

import numpy as np
import pytest

from lightningpoly.corners import (
    SlitIntegralSpec,
    _collocation,
    boundary_error,
    builtin_boundary_data,
    cauchy_slit_integral,
    cauchy_slit_integral_log,
    concave_quadrilateral,
    curvy_l_domain,
    export_solution,
    plan_basis,
    singular_coefficient_check,
    solve_dirichlet,
)
from lightningpoly.geometry import Polygon, interior_angles


def _interior_points(polygon, n, seed=0, margin=0.05):
    rng = np.random.RandomState(seed)
    verts = np.asarray(polygon.vertices)
    lo_x, hi_x = verts.real.min(), verts.real.max()
    lo_y, hi_y = verts.imag.min(), verts.imag.max()
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(lo_x, hi_x), rng.uniform(lo_y, hi_y))
        if polygon.contains(z):
            # keep a safety margin from the boundary for stencil evaluations
            t = np.linspace(0, 1, 64)
            bd = np.concatenate([e.point(t) for e in polygon.edges])
            if np.min(np.abs(bd - z)) > margin:
                pts.append(z)
    return pts


class TestPlanBasis:
    def test_square_per_corner_sigmas_equal(self):
        poly = Polygon.from_vertices([0, 1, 1 + 1j, 1j])
        basis = plan_basis(poly, 24, "per_corner")
        assert len(set(basis.sigmas)) == 1

    def test_concave_quad_global_sigma(self):
        poly = concave_quadrilateral()
        beta3 = interior_angles(poly)[2]
        expected = math.sqrt(2 * (2 - beta3) * beta3) * math.pi
        basis = plan_basis(poly, 40, "global_opt")
        assert basis.sigmas[0] == pytest.approx(expected, rel=1e-12)
        assert basis.sigmas[0] == pytest.approx(4.349, abs=2e-3)

    def test_curvy_l_global_sigma(self):
        basis = plan_basis(curvy_l_domain(), 40, "global_opt")
        assert basis.sigmas[0] == pytest.approx(math.sqrt(1.875) * math.pi, rel=1e-12)
        assert basis.sigmas[0] == pytest.approx(4.30, abs=5e-3)

    def test_pole_distances_tapered(self):
        poly = concave_quadrilateral()
        basis = plan_basis(poly, 40, "global_opt")
        for k, pk in enumerate(basis.poles):
            d = np.abs(pk - poly.vertices[k])
            n = basis.counts[k]
            j = np.arange(1, n + 1)
            expected = d[-1] * np.exp(-basis.sigmas[k] * (np.sqrt(n) - np.sqrt(j))) \
                / np.exp(-basis.sigmas[k] * 0.0)
            np.testing.assert_allclose(d, expected, rtol=1e-11, atol=1e-15)

    def test_poles_outside_domain(self):
        poly = concave_quadrilateral()
        basis = plan_basis(poly, 60, "global_opt")
        for pk in basis.poles:
            for p in pk[::5].tolist():
                assert not poly.contains(p) or abs(
                    p - min(poly.vertices, key=lambda v: abs(v - p))) < 1e-8 * 10

    def test_counts_proportional_and_weighted(self):
        poly = concave_quadrilateral()
        b1 = plan_basis(poly, 40, "global_opt")
        b2 = plan_basis(poly, 80, "global_opt")
        assert all(2 * a == b for a, b in zip(b1.counts, b2.counts))
        b3 = plan_basis(poly, 80, "global_opt", corner_weights=[1, 0.5, 1, 0.5])
        assert b3.counts[1] == 10 and b3.counts[0] == 20

    @pytest.mark.parametrize("weights", [[1, 1, 1], [1, 1, 1, 1, 7]])
    def test_weights_must_match_corner_count(self, weights):
        with pytest.raises(ValueError, match=f"{len(weights)} entries for 4 corners"):
            plan_basis(concave_quadrilateral(), 40, "global_opt", corner_weights=weights)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="n2 must be >= 0"):
            plan_basis(concave_quadrilateral(), 40, "global_opt", n2=-1)

    def test_min_budget(self):
        with pytest.raises(ValueError, match="4 poles per corner"):
            plan_basis(concave_quadrilateral(), 8, "global_opt")

    def test_fixed_sigma(self):
        basis = plan_basis(concave_quadrilateral(), 40, 4.0)
        assert set(basis.sigmas) == {4.0}

    def test_slit_corner_rejected(self):
        # near-degenerate spike: interior angle within 1e-9 of 2*pi
        w = 1e-12
        poly = Polygon.from_vertices([0, 2, 1 + w + 2j, 1 + 1e-3j, 1 - w + 2j])
        with pytest.raises(ValueError, match="unsupported angle"):
            plan_basis(poly, 40, "global_opt")


class TestCollocation:
    """Solver boundary samples: a tapered ladder from each corner, as for
    its poles, plus a uniform fill, with sqrt-spacing weights."""

    def test_square_counts(self):
        poly = Polygon.from_vertices([0, 1, 1 + 1j, 1j])
        basis = plan_basis(poly, 24, 2.0)
        zs, _ = _collocation(poly, basis, oversample=4)
        # 16 fill points and two ladders of 4*6 that share the midpoint
        per_edge = 16 + 2 * 4 * 6 - 1
        assert zs.size == 4 * per_edge
        for row, e in zip(zs.reshape(4, per_edge), poly.edges):
            t = (row - e.start) / e.chord
            assert np.all(np.abs(t.imag) < 1e-12)
            assert np.all((t.real > 0) & (t.real < 1))

    def test_tapered_distance_law(self):
        sigma = 2.0
        poly = Polygon.from_vertices([0, 1, 1 + 1j, 1j])
        basis = plan_basis(poly, 24, sigma)
        zs, _ = _collocation(poly, basis, oversample=4)
        n = 4 * basis.counts[0]
        j = np.arange(1, n + 1)
        d = np.abs(zs - poly.vertices[0])
        # both edges adjacent to the corner carry the same ladder
        for x in (0.5 * np.exp(-sigma * (np.sqrt(n) - np.sqrt(j)))).tolist():
            assert np.sum(np.isclose(d, x, rtol=1e-9, atol=0.0)) == 2

    def test_concave_quad_closest_distance(self):
        sigma = 4.0
        poly = concave_quadrilateral()
        basis = plan_basis(poly, 40, sigma)
        zs, _ = _collocation(poly, basis, oversample=4)
        w3 = poly.vertices[2]
        shortest_half = min(abs(poly.vertices[2] - poly.vertices[1]),
                            abs(poly.vertices[3] - poly.vertices[2])) / 2
        n = 4 * basis.counts[2]
        closest = np.min(np.abs(zs - w3))
        assert closest == pytest.approx(
            shortest_half * math.exp(-sigma * (math.sqrt(n) - 1)), rel=1e-5)

    def test_weights_are_sqrt_spacing(self):
        poly = Polygon.from_vertices([0, 1, 1 + 1j, 1j])
        zs, w = _collocation(poly, plan_basis(poly, 24, 3.0), oversample=4)
        assert w.shape == zs.shape
        assert np.all(w > 0)
        # the squared weights are local spacings, so they add up to the perimeter
        assert np.sum(w**2) == pytest.approx(4.0, rel=1e-4)

    def test_curved_edge_samples_on_curve(self):
        poly = curvy_l_domain()
        zs, _ = _collocation(poly, plan_basis(poly, 40, 3.0), oversample=4)
        t = np.linspace(0, 1, 600)
        curve = np.concatenate([e.point(t) for e in poly.edges])
        dist = np.min(np.abs(zs[:, None] - curve[None, :]), axis=1)
        assert np.max(dist) < 5e-3


class TestSolveDirichlet:
    def setup_method(self):
        self.poly = concave_quadrilateral()

    def test_constant_data_exact(self):
        basis = plan_basis(self.poly, 32, "global_opt")
        sol = solve_dirichlet(self.poly, "const1", basis)
        assert sol.residual_norm <= 1e-12
        assert boundary_error(sol, self.poly, "const1") <= 1e-11

    def test_harmonic_polynomial_data_exact(self):
        basis = plan_basis(self.poly, 32, "global_opt")
        sol = solve_dirichlet(self.poly, "rez", basis)
        assert sol.residual_norm <= 1e-12
        assert boundary_error(sol, self.poly, "rez") <= 1e-11

    def test_re2_reaches_1e6_with_decay(self):
        errs = []
        for n in (40, 80, 160):
            basis = plan_basis(self.poly, n, "global_opt")
            sol = solve_dirichlet(self.poly, "re2", basis)
            errs.append(boundary_error(sol, self.poly, "re2"))
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] <= 1e-6

    def test_error_non_increasing_within_noise(self):
        errs = []
        for n in (40, 80, 160):
            basis = plan_basis(self.poly, n, "global_opt")
            sol = solve_dirichlet(self.poly, "re2", basis)
            errs.append(boundary_error(sol, self.poly, "re2"))
        for a, b in zip(errs, errs[1:]):
            assert b <= 10 * a

    @pytest.mark.parametrize("domain", [concave_quadrilateral, curvy_l_domain])
    def test_residual_norm_is_the_unweighted_collocation_rms(self, domain):
        # the reported residual is exactly the RMS of sol.eval against the
        # data on the collocation points, however the solve forms its misfit
        poly = domain()
        basis = plan_basis(poly, 80, "global_opt")
        sol = solve_dirichlet(poly, "re2", basis)
        zs, _ = _collocation(poly, basis, 4)
        rhs = np.array([z.real**2 for z in zs.tolist()])
        assert sol.residual_norm == float(np.sqrt(np.mean((sol.eval(zs) - rhs) ** 2)))

    def test_undersampling_rejected(self):
        basis = plan_basis(self.poly, 40, "global_opt")
        with pytest.raises(ValueError, match="oversample"):
            solve_dirichlet(self.poly, "re2", basis, oversample=1)

    def test_fine_factor_validation(self):
        basis = plan_basis(self.poly, 32, "global_opt")
        sol = solve_dirichlet(self.poly, "const1", basis)
        with pytest.raises(ValueError):
            boundary_error(sol, self.poly, "const1", fine_factor=2)

    def test_harmonicity_stencil(self):
        basis = plan_basis(self.poly, 80, "global_opt")
        sol = solve_dirichlet(self.poly, "re2", basis)
        h = 1e-4
        for z in _interior_points(self.poly, 50, seed=7):
            u0 = sol.eval(z)
            lap = (sol.eval(z + h) + sol.eval(z - h) + sol.eval(z + 1j * h)
                   + sol.eval(z - 1j * h) - 4 * u0) / h**2
            assert abs(lap) <= 1e-4 * max(abs(u0), 1.0)

    def test_maximum_principle_proxy(self):
        # data representable exactly in the basis: harmonic Re(z^2)
        data = lambda z: (z**2).real
        basis = plan_basis(self.poly, 48, "global_opt")
        sol = solve_dirichlet(self.poly, data, basis)
        be = boundary_error(sol, self.poly, data)
        interior = max(abs(sol.eval(z) - (z**2).real)
                       for z in _interior_points(self.poly, 25, seed=3))
        assert interior <= 1.5 * be + 1e-12

    def test_theorem_rate_negative_slope(self):
        errs, ns = [], (40, 80, 120)
        for n in ns:
            basis = plan_basis(self.poly, n, "global_opt")
            sol = solve_dirichlet(self.poly, "re2", basis)
            errs.append(boundary_error(sol, self.poly, "re2"))
        slope = np.polyfit(np.sqrt(ns), np.log(errs), 1)[0]
        assert slope < 0

    def test_curvy_l_sigma_insensitivity(self):
        poly = curvy_l_domain()
        finals = []
        for mode in (4.0, "global_opt"):
            basis = plan_basis(poly, 120, mode)
            sol = solve_dirichlet(poly, "re2", basis)
            finals.append(boundary_error(sol, poly, "re2"))
        ratio = max(finals) / min(finals)
        assert ratio <= 10.0

    def test_tabulated_data_file(self, tmp_path):
        path = tmp_path / "samples.dat"
        path.write_text("0 0 1.5\n1 0 2.5\n")
        data = builtin_boundary_data(f"file:{path}")
        assert data(0.1 + 0j) == 1.5
        assert data(0.9 + 0j) == 2.5

    def test_unknown_data_name(self):
        with pytest.raises(ValueError, match="unknown boundary data"):
            builtin_boundary_data("bogus")

    def test_export_format(self):
        basis = plan_basis(self.poly, 32, "global_opt")
        sol = solve_dirichlet(self.poly, "rez", basis)
        text = export_solution(sol)
        lines = text.splitlines()
        assert lines[0] == "corner 0"
        assert sum(1 for ln in lines if ln.startswith("corner ")) == 4
        assert sum(1 for ln in lines if ln.startswith("pole ")) == sum(basis.counts)
        assert any(ln.startswith("tail ") for ln in lines)
        assert lines[-1].startswith("scale ")


class TestCauchyTypeIntegrals:
    def test_analytic_part_fits_exponentially(self):
        # Cauchy integral over a far segment is analytic on the domain and a
        # polynomial captures it with geometrically shrinking misfit
        from lightningpoly.approx import _poly_lstsq, _poly_eval
        poly = concave_quadrilateral()
        a, b = 10 + 2j, 12 + 9j

        def g(zs):
            return np.log((b - zs) / (a - zs))

        t = np.linspace(0, 1, 80)
        zs = np.concatenate([e.point(t) for e in poly.edges])
        center = np.mean(np.asarray(poly.vertices))
        scale = max(abs(v - center) for v in poly.vertices)
        w = (zs - center)
        misfits = []
        for deg in (4, 8, 12, 16):
            c = _poly_lstsq(w / scale, g(zs), deg)
            misfits.append(np.max(np.abs(_poly_eval(c, w, scale) - g(zs))))
        assert misfits[-1] < misfits[0] * 1e-4
        slope = np.polyfit((4, 8, 12, 16), np.log(misfits), 1)[0]
        assert slope < -0.5


class TestSlitIntegrals:
    def test_removable_limit_at_zero(self):
        spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
        assert cauchy_slit_integral(spec, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_closed_form_on_negative_axis(self):
        spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
        got = cauchy_slit_integral(spec, -0.5)
        closed = 2 - 2 * math.sqrt(0.5) * math.atan(1 / math.sqrt(0.5))
        assert abs(got - closed) <= 1e-9

    def test_k_shift_identity(self):
        z = -0.4 + 0.35j
        s0 = cauchy_slit_integral(SlitIntegralSpec(k=0, alpha=0.5, W=1.0), z)
        s1 = cauchy_slit_integral(SlitIntegralSpec(k=1, alpha=0.5, W=1.0), z)
        assert abs(s1 - (1.0 / 1.5 + z * s0)) <= 1e-10

    def test_too_close_to_slit(self):
        spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
        with pytest.raises(ValueError, match="too close"):
            cauchy_slit_integral(spec, 0.5 + 1e-12j)

    def test_array_matches_points(self):
        # the removable limit, points near the slit (closed-form part) and far
        # from it (direct quadrature) in one batch, shape kept
        zs = np.array([[0.0, 0.5 + 1e-4j, 0.3 - 0.02j], [-0.4 + 0.35j, 2.5, 0.9 + 0.5j]])
        for W in (1.0, 2.0):
            spec = SlitIntegralSpec(k=1, alpha=0.3, W=W)
            for fn in (cauchy_slit_integral, cauchy_slit_integral_log):
                got = fn(spec, zs)
                assert got.shape == zs.shape
                assert got.tolist() == [[fn(spec, z) for z in row] for row in zs.tolist()]

    def test_too_close_point_in_array(self):
        spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
        with pytest.raises(ValueError, match="too close"):
            cauchy_slit_integral_log(spec, np.array([0.2 + 0.1j, 0.5 + 1e-12j, 0.0]))

    def test_integer_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-integer"):
            SlitIntegralSpec(k=1, alpha=1.0 - 1e-15, W=1.0)

    def test_log_variant_zero_limit(self):
        spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
        got = cauchy_slit_integral_log(spec, 0.0)
        # int_0^1 zeta^(-1/2) log zeta dzeta = -4
        assert got == pytest.approx(-4.0, rel=1e-12)

    def test_p0_trivial_values(self):
        from lightningpoly.corners import _p0_constant
        assert _p0_constant(0.5) == pytest.approx(-1j * math.pi)
        assert _p0_constant(0.25) == pytest.approx(-math.pi - 1j * math.pi)

    def test_jump_check_sample(self):
        p0_err, p1_err = singular_coefficient_check(0, 0.3, 1.0)
        assert p0_err <= 1e-6 and p1_err <= 1e-6

    def test_jump_check_nonunit_window(self):
        p0_err, p1_err = singular_coefficient_check(1, 0.5, 2.0)
        assert p0_err <= 1e-6 and p1_err <= 1e-6
