import cmath
import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lightningpoly import corners
from lightningpoly.corners import (
    HarmonicSolution,
    SlitIntegralSpec,
    _MAX_POLES,
    _collocation,
    _folded,
    _weighted_system,
    boundary_error,
    builtin_boundary_data,
    cauchy_slit_integral,
    check_system_size,
    cauchy_slit_integral_log,
    concave_quadrilateral,
    curvy_l_domain,
    export_solution,
    plan_basis,
    singular_coefficient_check,
    solve_dirichlet,
)
from lightningpoly.geometry import Polygon, interior_angles
from lightningpoly.kernels import adaptive_gauss_legendre


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


def _design_columns(zs, basis):
    """The real design, built column by column: Re and Im of 1/(z - p) for
    each pole in corner order, then Re w^0 and Re, Im of w^k."""
    cols = []
    for pk in basis.poles:
        for p in pk.tolist():
            f = 1.0 / (zs - p)
            cols += [f.real, f.imag]
    w = (zs - basis.center) / basis.scale
    cols.append(np.ones(zs.size))
    pw = np.ones_like(zs)
    for _ in range(basis.degree):
        pw = pw * w
        cols += [pw.real, pw.imag]
    return np.column_stack(cols)


class TestLayout:
    """The Laplace least squares hands LAPACK a column-major ``[A b]``,
    weighted as it is built, and evaluates without a design matrix."""

    @pytest.mark.parametrize("N", [80, 240])
    @pytest.mark.parametrize("domain", [concave_quadrilateral, curvy_l_domain])
    def test_weighted_system_is_the_two_step_build(self, domain, N):
        poly = domain()
        basis = plan_basis(poly, N, "global_opt")
        zs, w = _collocation(poly, basis, oversample=4)
        rhs = zs.real**2
        Ab = _weighted_system(zs, w, basis, rhs)
        assert Ab.flags.f_contiguous
        assert Ab.shape == (zs.size, basis.n_columns + 1)
        # build the design, then weight it: each entry rounds once, so the
        # one-pass build must agree bit for bit
        want = np.empty_like(Ab)
        want[:, :-1] = _design_columns(zs, basis)
        want[:, -1] = rhs
        want *= w[:, None]
        assert Ab.tobytes() == want.tobytes()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
    def test_lstsq_memory_is_one_copy_of_the_system(self):
        # geqrf factors one private copy of [A b] in place, where
        # np.linalg.qr held two: the peak RSS grows by 2.15x Ab.nbytes at
        # the np.linalg.qr path, 1.50x now.  A fresh process, so the peak
        # is this build's alone, read as its VmHWM: ru_maxrss would start
        # from this (larger) process's peak, which exec carries over, and
        # tracemalloc misses the buffers LAPACK's callers malloc
        script = "\n".join([
            "import numpy as np",
            "from lightningpoly.corners import (_collocation, _weighted_system,",
            "                                   curvy_l_domain, plan_basis)",
            "from lightningpoly.kernels import damped_lstsq",
            "def peak_kb():",
            "    with open('/proc/self/status') as f:",
            "        return next(int(ln.split()[1]) for ln in f if ln.startswith('VmHWM:'))",
            "poly = curvy_l_domain()",
            "basis = plan_basis(poly, 240, 4.0)",
            "zs, w = _collocation(poly, basis, 4)",
            "Ab = _weighted_system(zs, w, basis, zs.real**2)",
            "assert np.isfinite(Ab.sum())  # every page of Ab is resident",
            "before = peak_kb()",
            "damped_lstsq(Ab)",
            "print((peak_kb() - before) * 1024 / Ab.nbytes)",
        ])
        src = str(Path(corners.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert float(out) <= 1.75

    @pytest.mark.parametrize("domain", [concave_quadrilateral, curvy_l_domain])
    def test_eval_is_the_design_product(self, domain):
        poly = domain()
        basis = plan_basis(poly, 80, "global_opt")
        sol = solve_dirichlet(poly, "re2", basis)
        zs = np.concatenate([_collocation(poly, basis, oversample=4)[0],
                             _interior_points(poly, 20)])
        A = _design_columns(zs, basis)
        # to rounding: the summation order and Horner's rule differ
        bound = 1e-12 * (np.abs(A) @ np.abs(sol.coeffs))
        assert np.all(np.abs(sol.eval(zs) - A @ sol.coeffs) <= bound)

    def test_eval_keeps_the_input_shape(self):
        poly = concave_quadrilateral()
        sol = solve_dirichlet(poly, "re2", plan_basis(poly, 40, "global_opt"))
        z = complex(_interior_points(poly, 1)[0])
        u = sol.eval(z)
        assert type(u) is float
        zs = np.array(_interior_points(poly, 6)).reshape(2, 3)
        out = sol(zs)
        assert out.shape == (2, 3) and out.dtype == float
        assert out[1, 2] == sol.eval(zs[1, 2])
        assert sol.eval(np.array(z)) == u

    def test_export_lists_the_fold_eval_uses(self):
        # eval and export fold the real coefficients once, in _folded: each
        # exported residue is a - i*b of its Re, Im pair, and a zero b exports
        # as -0, the negated coefficient
        poly = concave_quadrilateral()
        basis = plan_basis(poly, 40, "global_opt")
        sol = solve_dirichlet(poly, "re2", basis)
        residues, taus = _folded(basis, sol.coeffs)
        n = sum(basis.counts)
        assert np.concatenate(residues).tolist() == [
            complex(a, -b) for a, b in zip(sol.coeffs[:2 * n:2], sol.coeffs[1:2 * n:2])]
        assert taus.tolist() == [sol.coeffs[2 * n]] + [
            complex(a, -b) for a, b in zip(sol.coeffs[2 * n + 1::2], sol.coeffs[2 * n + 2::2])]
        lines = export_solution(sol).splitlines()
        listed = [complex(*map(float, ln.split()[1:])) for ln in lines if ln.startswith("residue ")]
        assert listed == np.concatenate(residues).tolist()
        zero = export_solution(HarmonicSolution(basis, np.zeros(basis.n_columns), 0.0))
        assert {ln for ln in zero.splitlines() if ln.startswith("residue ")} == {"residue 0 -0"}

    @pytest.mark.parametrize("N", [40, 80, 240])
    @pytest.mark.parametrize("domain", [concave_quadrilateral, curvy_l_domain])
    def test_array_eval_is_its_point_evals(self, domain, N):
        # each point's partial fractions sum on their own row, without
        # BLAS, so an array evaluation is bit for bit its point evaluations
        poly = domain()
        sol = solve_dirichlet(poly, "re2", plan_basis(poly, N, "global_opt"))
        zs = np.array(_interior_points(poly, 64))
        want = np.array([sol.eval(z) for z in zs.tolist()])
        assert sol.eval(zs).tobytes() == want.tobytes()


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

    def test_converges_past_n160(self):
        # the SVD cutoff stalled here (6.8e-8 at N=240, 2.1e-7 at N=320)
        errs = []
        for n in (160, 240, 320):
            basis = plan_basis(self.poly, n, 4.0)
            sol = solve_dirichlet(self.poly, "re2", basis, oversample=4)
            errs.append(boundary_error(sol, self.poly, "re2"))
        assert max(errs) <= 1e-8, errs
        for a, b in zip(errs, errs[1:]):
            assert b <= 10 * a, errs

    def test_rank_deficient_basis_is_damped(self):
        # every corner-0 pole twice: the design has pairs of equal columns,
        # singular for an undamped QR; the damping rows keep the fit finite
        basis = plan_basis(self.poly, 80, "global_opt")
        twice = dataclasses.replace(
            basis, poles=(np.concatenate([basis.poles[0]] * 2),) + basis.poles[1:])
        assert twice.counts == (2 * basis.counts[0],) + basis.counts[1:]
        err = boundary_error(solve_dirichlet(self.poly, "re2", basis), self.poly, "re2")
        sol = solve_dirichlet(self.poly, "re2", twice)
        assert np.all(np.isfinite(sol.coeffs))
        assert boundary_error(sol, self.poly, "re2") <= 1.1 * err

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

    @pytest.mark.parametrize("N, weights", [(10**6, None), (40, [1.0, 1.0, 1e300, 1.0])])
    def test_pole_budget_past_the_cap_rejected(self, N, weights):
        with pytest.raises(ValueError, match="poles, above the 2048 that bound"):
            plan_basis(self.poly, N, "global_opt", corner_weights=weights)

    @pytest.mark.parametrize("oversample", [1, 3, 4, 7])
    @pytest.mark.parametrize("N", [20, 40, 160])
    @pytest.mark.parametrize("domain", [concave_quadrilateral, curvy_l_domain])
    def test_system_size_bounds_the_samples(self, domain, N, oversample, monkeypatch):
        # the closed-form rows are at least the samples drawn: a cap one
        # byte below the drawn [A b] refuses it, and the bound itself passes
        poly = domain()
        basis = plan_basis(poly, N, "global_opt")
        zs, _ = _collocation(poly, basis, oversample)
        rows = oversample * (2 * sum(basis.counts) + 4 * len(basis.counts))
        assert zs.size <= rows
        monkeypatch.setattr(corners, "_MAX_SYSTEM_BYTES", 8 * rows * (basis.n_columns + 1))
        check_system_size(basis, oversample)
        monkeypatch.setattr(corners, "_MAX_SYSTEM_BYTES", 8 * zs.size * (basis.n_columns + 1) - 1)
        with pytest.raises(ValueError, match=f"oversample={oversample} asks for"):
            check_system_size(basis, oversample)

    def test_system_cap_admits_every_pole_cap_basis_at_oversample_4(self):
        # the most rows _MAX_POLES allows: 4 poles at each of _MAX_POLES/4
        # corners (plan_basis's least per corner); with the most columns
        # the 3x rule leaves them, the system is within the cap at
        # oversample 4 and past it at 5
        m = _MAX_POLES // 4
        n2 = (4 * _MAX_POLES - 2 * _MAX_POLES - 1) // 2
        basis = corners.CornerBasis(sigmas=(4.0,) * m, poles=(np.zeros(4, complex),) * m,
                                    degree=n2, center=0j, scale=1.0)
        assert sum(basis.counts) == _MAX_POLES and basis.n_columns == 4 * _MAX_POLES - 1
        check_system_size(basis, 4)
        with pytest.raises(ValueError, match="oversample=5 asks for"):
            check_system_size(basis, 5)

    def test_oversized_system_rejected_before_sampling(self, monkeypatch):
        def no_samples(*args):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(corners, "_collocation", no_samples)
        basis = plan_basis(self.poly, 2000, "global_opt")
        with pytest.raises(ValueError, match=r"oversample=64 asks for .* GiB\) for 2000 poles"):
            solve_dirichlet(self.poly, "re2", basis, oversample=64)

    @pytest.mark.parametrize("oversample", [0, -1])
    def test_oversample_below_one_rejected(self, oversample):
        basis = plan_basis(self.poly, 40, "global_opt")
        with pytest.raises(ValueError, match=f"oversample must be >= 1, got {oversample}"):
            solve_dirichlet(self.poly, "re2", basis, oversample=oversample)

    def test_fine_factor_validation(self):
        basis = plan_basis(self.poly, 32, "global_opt")
        sol = solve_dirichlet(self.poly, "const1", basis)
        with pytest.raises(ValueError):
            boundary_error(sol, self.poly, "const1", fine_factor=2)

    def test_harmonicity_stencil(self):
        basis = plan_basis(self.poly, 80, "global_opt")
        sol = solve_dirichlet(self.poly, "re2", basis)
        # the coefficients reach 1e4 while u is O(1), so each value rounds by
        # about eps*sum|a_j c_j| ~ 3e-12; the stencil divides that by h^2,
        # and at h = 1e-4 the rounding alone came to 0.9-1.1 of the bound.
        # At h = 1e-3 it is 1% of it and the truncation error less still
        h = 1e-3
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

    def test_non_finite_data_is_not_a_pole_on_a_sample(self):
        # the kernel reports b, and the pole hint stays with the design
        basis = plan_basis(self.poly, 40, "global_opt")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeError) as info:
                solve_dirichlet(self.poly, lambda z: math.nan if z.real > 7 else 0.0, basis)
        assert str(info.value) == "right-hand side is not finite"

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
        from lightningpoly.approx import _poly_lstsq
        from lightningpoly.kernels import horner
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
            misfits.append(np.max(np.abs(horner(c, w / scale) - g(zs))))
        assert misfits[-1] < misfits[0] * 1e-4
        slope = np.polyfit((4, 8, 12, 16), np.log(misfits), 1)[0]
        assert slope < -0.5


def _clipped_slit_reference(spec, zs, log):
    """The slit integral with the density's value at the nearest slit point,
    clipped to [1e-3*W, W], subtracted within 0.05*W of the slit: values,
    per-point tolerances and total evaluations."""
    s, W = spec.k + spec.alpha, spec.W
    dist = np.abs(zs - np.clip(zs.real, 0.0, W))
    near = dist < 0.05 * W
    xc = np.clip(zs.real, 1e-3 * W, W)
    g = np.where(near, xc**s * np.log(xc) if log else xc**s, 0.0)
    scale = W**s * W * (1.0 + abs(math.log(W)) if log else 1.0)
    tol = np.where(near, 1e-13 * scale, 1e-13 * scale / dist)

    def f(u, k):
        zeta = W * u**4
        density = zeta**s * np.log(zeta) if log else zeta**s
        return 4.0 * W * u**3 * (density - g[k]) / (zeta - zs[k])

    value, _, evals, _ = adaptive_gauss_legendre(f, 0.0, 1.0, tol)
    value[near] += g[near] * (np.log(W - zs[near]) - np.log(0.0 - zs[near]))
    return value, tol, evals


class TestSlitIntegrals:
    @pytest.mark.parametrize("W", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_continuation_subtraction_agrees_with_the_clipped_reference(self, k, W,
                                                                       monkeypatch):
        # 1e-9*W to 0.05*W above and below the slit at zeta = 0, W/2 and W
        d = np.geomspace(1e-9, 0.05, 6) * W
        zs = np.concatenate([x + 1j * sign * d for x in (0.0, W / 2, W) for sign in (1, -1)])
        evaluations = []

        def counted(*args):
            out = adaptive_gauss_legendre(*args)
            evaluations.append(out[2])
            return out

        monkeypatch.setattr(corners, "adaptive_gauss_legendre", counted)
        reference = 0
        for alpha in (0.3, 0.75):
            spec = SlitIntegralSpec(k=k, alpha=alpha, W=W)
            for log, fn in ((False, cauchy_slit_integral), (True, cauchy_slit_integral_log)):
                value, tol, evals = _clipped_slit_reference(spec, zs, log)
                got = fn(spec, zs)
                assert np.all(np.abs(got - value) <= tol), np.abs(got - value) / tol
                reference += evals
        assert sum(evaluations) < reference

    @pytest.mark.parametrize("z", [1.01, complex(1.01, -0.0)])
    def test_real_point_past_the_slit(self, z):
        # int_0^1 sqrt(x)/(x - a) dx = 2 + sqrt(a)*log((sqrt(a) - 1)/(sqrt(a) + 1));
        # both logs of the closed-form term stay on one side of their cut
        spec = SlitIntegralSpec(k=0, alpha=0.5, W=1.0)
        r = math.sqrt(z.real)
        assert abs(cauchy_slit_integral(spec, z) - (2 + r * math.log((r - 1) / (r + 1)))) <= 1e-13

    @pytest.mark.parametrize("W", [1e-60, 1e-5, 1e6, 1e60])
    def test_scaling_identity(self, W):
        # zeta = W*t gives int_0^W zeta^s/(zeta - z) dzeta = W^s*I_1(z/W), and
        # for the log density W^s*(I_1^log(z/W) + log W*I_1(z/W)), where I_1
        # is the integral over [0, 1]; points near the slit and far from it,
        # so each tolerance must be relative at any W
        t = np.array([0.5 + 1e-5j, 0.3 - 0.01j, 1e-3 + 2e-4j, 0.98 - 0.03j,
                      -0.5 + 0.2j, 2.0 + 1.0j, 0.4 - 0.3j, 5.0])
        log_w = math.log(W)
        for k, alpha in ((0, 0.5), (2, 0.75)):
            unit, spec = SlitIntegralSpec(k, alpha), SlitIntegralSpec(k, alpha, W)
            zs = W * t
            base = cauchy_slit_integral(unit, zs / W)
            base_log = cauchy_slit_integral_log(unit, zs / W)
            got = cauchy_slit_integral(spec, zs) / W**(k + alpha)
            got_log = cauchy_slit_integral_log(spec, zs) / W**(k + alpha)
            assert np.all(np.abs(got - base) <= 1e-11), np.abs(got - base)
            want_log = base_log + log_w * base
            assert np.all(np.abs(got_log - want_log) <= 1e-11 * (1.0 + abs(log_w))), \
                np.abs(got_log - want_log)

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

    @pytest.mark.parametrize("k, W", [(2, 1e110), (0, 1e300), (0, 1e-300), (3, 1e-90)])
    def test_scale_outside_the_double_range_rejected(self, k, W):
        # the value W^(k+alpha)*(1 + |log W|) or W itself overflows, or the
        # tolerance 1e-13*W^(k+alpha) or W underflows
        with pytest.raises(ValueError, match=re.escape(f"W={W:.6g}, k={k}, alpha=0.5 "
                                                       "leave the double-precision range")):
            SlitIntegralSpec(k=k, alpha=0.5, W=W)

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

    @pytest.mark.parametrize("W", [1.0, 2.0, 1e-5, 1e6])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 2.0 / 3.0, 0.9])
    def test_discrepancy_bound_holds_and_is_tight(self, alpha, W):
        # the bound is the Richardson remainder and the integrals' tolerance in
        # closed form: above each measured discrepancy, and the P0 one (the
        # larger) within 1.2x of it, or it would reject k that the check resolves
        for k in (0, 2, 10, *range(18, 27)):
            p0, p1 = singular_coefficient_check(k, alpha, W)
            b0, b1 = corners.discrepancy_bound(k, alpha, W)
            assert p0 <= b0 <= 1.2 * p0 and p1 <= b1, (k, p0, b0, p1, b1)

    @pytest.mark.parametrize("alpha", [2e-12, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9, 1 - 2e-12])
    @pytest.mark.parametrize("k", range(4))
    def test_discrepancy_bound_holds_near_an_integer(self, k, alpha):
        # near an integer k + alpha the predicted log jump rounds by about
        # u/|alpha - round(alpha)|, which the P1 bound covers (P1 was 23 at
        # k = 1, alpha = 1 - 1e-9 when phase - 1 was a subtraction)
        p0, p1 = singular_coefficient_check(k, alpha, 1.0)
        b0, b1 = corners.discrepancy_bound(k, alpha, 1.0)
        assert p0 <= b0 and p1 <= b1, (p0, b0, p1, b1)
        assert (b1 > 1e-6) == (min(alpha, 1 - alpha) < 1e-11)

    def test_discrepancy_bound_past_the_double_range_is_infinite(self):
        assert corners.discrepancy_bound(2000, 0.5, 1.0) == (math.inf, math.inf)
