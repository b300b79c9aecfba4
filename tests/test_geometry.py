import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningpoly.geometry import (
    _GL7_NODES,
    _GL7_WEIGHTS,
    Polygon,
    interior_angles,
    polygon_from_file,
    ray_fan,
    resolve_corner_exponents,
    sector_boundary,
)


def square():
    return Polygon.from_vertices([0, 1, 1 + 1j, 1j])


def concave_quad():
    return Polygon.from_vertices([2 + 4j, 8 + 4j, 4 + 6j, 2 + 10j])


class TestInteriorAngles:
    def test_unit_square(self):
        np.testing.assert_allclose(interior_angles(square()), [0.5] * 4, atol=1e-14)

    def test_equilateral_triangle(self):
        w = np.exp(2j * math.pi * np.arange(3) / 3)
        poly = Polygon.from_vertices(w.tolist())
        np.testing.assert_allclose(interior_angles(poly), [1 / 3] * 3, atol=1e-14)

    def test_concave_quadrilateral_reflex(self):
        # independent turn-angle oracle at the reflex vertex
        w2, w3, w4 = 8 + 4j, 4 + 6j, 2 + 10j
        turn = np.angle((w4 - w3) / (w3 - w2))
        beta3 = (math.pi - turn) / math.pi
        betas = interior_angles(concave_quad())
        assert abs(betas[2] - beta3) < 1e-12
        assert abs(betas[2] - 1.2048) < 1e-3
        assert betas[2] > 1.0

    def test_orientation_independent(self):
        fwd = interior_angles(concave_quad())
        rev = interior_angles(
            Polygon(vertices=tuple(reversed(concave_quad().vertices)),
                    edges=tuple(
                        type(concave_quad().edges[0])(s, e)
                        for s, e in zip(list(reversed(concave_quad().vertices)),
                                        np.roll(list(reversed(concave_quad().vertices)), -1))
                    ),
                    betas=(None,) * 4, alphas=("auto",) * 4)
        )
        np.testing.assert_allclose(sorted(fwd), sorted(rev), atol=1e-12)

    def test_angle_sum_simple_polygon(self):
        for poly in (square(), concave_quad()):
            betas = interior_angles(poly)
            assert abs(np.sum(1 - betas) * math.pi - 2 * math.pi) < 1e-9

    @given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_angle_sum_random_star_polygons(self, m, seed):
        rng = np.random.RandomState(seed)
        theta = np.sort(rng.uniform(0, 2 * math.pi, m))
        if np.min(np.diff(theta, append=theta[0] + 2 * math.pi)) < 0.05:
            return
        radii = rng.uniform(0.5, 2.0, m)
        try:
            poly = Polygon.from_vertices((radii * np.exp(1j * theta)).tolist())
        except ValueError:
            return  # wide angular gaps can fold the chord chain; skip those
        betas = interior_angles(poly)
        assert abs(np.sum(1 - betas) - 2.0) < 1e-9

    def test_degenerate_edge(self):
        with pytest.raises(ValueError, match="degenerate edge"):
            Polygon.from_vertices([0, 1, 1, 1j])

    def test_self_intersection_rejected(self):
        with pytest.raises(ValueError, match="self-intersecting"):
            Polygon.from_vertices([0, 1, 1j, 1 + 1j])

    def test_declared_beta_checked(self):
        Polygon.from_vertices([0, 1, 1 + 1j, 1j], betas=[0.5] * 4)
        with pytest.raises(ValueError, match="disagrees"):
            Polygon.from_vertices([0, 1, 1 + 1j, 1j], betas=[0.6, None, None, None])


class TestCornerExponents:
    def test_auto_square_flags_log(self):
        # 1/beta = 2 is an integer: log-type singularity
        exps = resolve_corner_exponents(square())
        assert all(abs(a - 2.0) < 1e-12 and flag for a, flag in exps)

    def test_reflex_non_integer(self):
        a, flag = resolve_corner_exponents(concave_quad())[2]
        assert not flag
        assert abs(a - 1 / interior_angles(concave_quad())[2]) < 1e-12

    def test_explicit_alpha(self):
        poly = Polygon.from_vertices([0, 1, 1 + 1j, 1j], alphas=[0.5, "auto", 0.25, "auto"])
        exps = resolve_corner_exponents(poly)
        assert exps[0] == (0.5, False)
        assert exps[2] == (0.25, False)


class TestRayFan:
    def test_axis_alone_at_beta_zero(self):
        pts = ray_fan(0.0, [1.0, 0.25], 5)
        assert pts.dtype == complex
        assert pts.tolist() == [1.0, 0.25]

    def test_rays_span_the_sector_radius_major(self):
        beta = 1.3
        pts = ray_fan(beta, [1.0, 0.5], 5).reshape(2, 5)
        np.testing.assert_allclose(np.abs(pts), [[1.0] * 5, [0.5] * 5], rtol=1e-15)
        half = beta * math.pi / 2
        np.testing.assert_allclose(np.angle(pts), [np.linspace(-half, half, 5)] * 2,
                                   rtol=0, atol=1e-15)


def _whole_then_cut(beta, radii, n_arc, upper_half, split):
    """sector_boundary as both edge rays, the whole arc and the apex, snapped
    onto the axis and cut to Im z >= 0 afterwards."""
    pts = ray_fan(beta, radii, 2)
    even = [np.repeat(np.arange(np.size(radii)) % 2 == 0, 2 if beta > 0 else 1)]
    if beta > 0:
        pts = np.concatenate([pts, ray_fan(beta, [1.0], n_arc)])
        even.append(np.arange(n_arc) % 2 == 0)
    pts = np.concatenate([pts, [0.0]])
    even = np.concatenate(even + [[True]])
    if upper_half:
        pts = np.where(np.abs(pts.imag) <= 1e-15 * np.abs(pts.real), pts.real + 0j, pts)
        keep = pts.imag >= 0
        pts, even = pts[keep], even[keep]
    return (pts[even], pts[~even]) if split else pts


class TestSectorBoundary:
    # 1.1: the odd arc's middle angle rounds below the axis; 1e-16: both
    # rays and the whole arc round onto it.  The radii hold 0 and ones
    # whose product with sin underflows, as rate_grid's deepest do
    @pytest.mark.parametrize("beta", [0.0, 1e-16, 0.5, 1.0, 1.1, 1.5, 1.99])
    @pytest.mark.parametrize("n_arc", [1, 2, 64, 97, 129, 200])
    @pytest.mark.parametrize("split", [False, True])
    def test_bytes_equal_the_whole_boundary_cut(self, beta, n_arc, split):
        for radii in (np.linspace(0.05, 1.0, 20), 0.5 ** np.arange(1100.0),
                      [0.0, 1e-320, 1e-300, 0.5], []):
            for upper_half in (False, True):
                got = sector_boundary(beta, radii, n_arc, upper_half, split)
                ref = _whole_then_cut(beta, radii, n_arc, upper_half, split)
                for g, r in zip(*((got, ref) if split else ((got,), (ref,)))):
                    assert g.dtype == complex and g.tobytes() == r.tobytes()


class TestPolygonFile:
    def test_parse_vertices_attributes_and_curves(self, tmp_path):
        path = tmp_path / "domain.poly"
        path.write_text(
            "0 0\n"
            "2 0 alpha=0.5\n"
            "2 1 beta=0.75\n"
            "1 2 alpha=auto  # the reflex corner\n"
            "0 2\n"
            "curve 1 bulge=-0.06\n"
            "curve 2 bulge=0.12\n"
        )
        poly = polygon_from_file(path)
        assert poly.vertices == (0j, 2 + 0j, 2 + 1j, 1 + 2j, 2j)
        assert poly.alphas == ("auto", 0.5, "auto", "auto", "auto")
        assert poly.betas == (None, None, 0.75, None, None)
        assert [e.bulge for e in poly.edges] == [0.0, -0.06, 0.12, 0.0, 0.0]

    def test_parse_with_comments_and_beta(self, tmp_path):
        path = tmp_path / "square.poly"
        path.write_text(
            "# a unit square\n0 0 beta=0.5\n1 0\n1 1\n0 1 beta=0.5\n"
        )
        poly = polygon_from_file(path)
        assert len(poly.vertices) == 4
        assert poly.betas[0] == 0.5 and poly.betas[1] is None

    def test_curve_declaration(self, tmp_path):
        path = tmp_path / "c.poly"
        path.write_text("0 0\n2 0\n2 2\n0 2\ncurve 1 bulge=0.1\n")
        poly = polygon_from_file(path)
        assert poly.edges[1].bulge == 0.1

    def test_unknown_attribute(self, tmp_path):
        path = tmp_path / "bad.poly"
        path.write_text("0 0 gamma=1\n1 0\n0 1\n")
        with pytest.raises(ValueError, match="unknown vertex attribute"):
            polygon_from_file(path)

    @pytest.mark.parametrize("line, reason", [
        ("curve 7 bulge=0.1", "curve 7 names no edge of a 4-edge polygon"),
        ("curve -1 bulge=0.1", "curve -1 names no edge of a 4-edge polygon"),
        ("curve 1 bulg=0.2", "unknown curve attribute 'bulg'"),
        ("curve", "'curve' needs at least two fields"),
        ("0.5", "'0.5' needs at least two fields"),
    ])
    def test_malformed_line_rejected(self, tmp_path, line, reason):
        path = tmp_path / "bad.poly"
        path.write_text(f"0 0\n1 0\n1 1\n0 1\n{line}\n")
        with pytest.raises(ValueError, match=reason):
            polygon_from_file(path)

    @pytest.mark.parametrize("line, reason", [
        ("curve x bulge=0.1", "invalid literal for int() with base 10: 'x'"),
        ("0 0.5 beta=abc", "could not convert string to float: 'abc'"),
        ("0 0.5 beta", "attribute 'beta' is not key=value"),
        ("a b", "could not convert string to float: 'a'"),
        ("0.5", "'0.5' needs at least two fields"),
    ])
    def test_malformed_line_names_the_file_and_the_line(self, tmp_path, line, reason):
        # each once gave only Python's text, e.g. "not enough values to
        # unpack (expected 2, got 1)"; the blank line and the comment count
        path = tmp_path / "bad.poly"
        path.write_text(f"0 0\n1 0\n\n# the upper edge\n1 1\n{line}\n0 1\n")
        with pytest.raises(ValueError) as info:
            polygon_from_file(path)
        assert str(info.value) == f"polygon {path}, line 6: {reason}"


class TestEdgesAndContainment:
    def test_bulge_preserves_tangent_angles(self):
        straight = Polygon.from_vertices([0, 2, 2 + 1j, 1 + 2j, 2j])
        curvy = Polygon.from_vertices([0, 2, 2 + 1j, 1 + 2j, 2j],
                                      bulges=[0, -0.06, 0.12, -0.06, 0])
        np.testing.assert_allclose(interior_angles(curvy), interior_angles(straight),
                                   atol=1e-12)

    def test_arclength_monotone(self):
        poly = Polygon.from_vertices([0, 2, 2 + 1j, 1 + 2j, 2j],
                                     bulges=[0, -0.06, 0.12, -0.06, 0])
        e = poly.edges[2]
        length = e.length()
        assert length > abs(e.chord)
        s = np.linspace(0, length, 9)
        pts = e.point_at_arclength(s)
        chord_gaps = np.abs(np.diff(pts))
        assert np.all(chord_gaps <= np.diff(s) + 1e-9)

    def test_contains(self):
        poly = concave_quad()
        assert poly.contains(3 + 5j)
        assert not poly.contains(5 + 7j)  # inside the reflex notch, outside domain
        assert not poly.contains(20 + 20j)


def curvy_l():
    return Polygon.from_vertices([0, 2, 2 + 1j, 1 + 2j, 2j],
                                 bulges=[0, -0.06, 0.12, -0.06, 0])


def _fresh_arclength(edge):
    """Cumulative arclength at the ends of 32 panels, recomputed."""
    t_ends = np.linspace(0.0, 1.0, 33)
    lo, hi = t_ends[:-1], t_ends[1:]
    tt = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GL7_NODES
    speed = np.abs(edge.tangent(tt.ravel())).reshape(tt.shape)
    return t_ends, np.concatenate([[0.0], np.cumsum(0.5 * (hi - lo) * (speed @ _GL7_WEIGHTS))])


def _fresh_contains(poly, z):
    """Winding-number containment on a freshly built 128-point-per-edge polyline."""
    t = np.linspace(0.0, 1.0, 128, endpoint=False)
    rel = np.concatenate([e.point(t) for e in poly.edges]) - complex(z)
    if np.min(np.abs(rel)) < 1e-12:
        return True
    return abs(abs(np.angle(np.roll(rel, -1) / rel).sum()) - 2 * math.pi) < 1e-6


class TestCachedTables:
    """Each edge's arclength table and each polygon's boundary polyline are
    built once, read-only, and give what a fresh build gives."""

    @pytest.mark.parametrize("poly", [concave_quad(), curvy_l()])
    def test_tables_are_read_only(self, poly):
        for e in poly.edges:
            for a in e.arclength_table:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
        assert not poly.boundary_polyline.flags.writeable
        with pytest.raises(ValueError):
            poly.boundary_polyline[0] = 0.0

    def test_tables_are_built_once(self):
        poly = curvy_l()
        e = poly.edges[2]
        assert e.arclength_table is e.arclength_table
        assert poly.boundary_polyline is poly.boundary_polyline

    @pytest.mark.parametrize("poly", [concave_quad(), curvy_l()])
    def test_arclength_equals_fresh_computation(self, poly):
        for e in poly.edges:
            t_ends, cum = _fresh_arclength(e)
            for _ in range(2):  # the cached second call too
                assert e.length() == float(cum[-1])
                s = np.linspace(0.0, cum[-1], 17)
                np.testing.assert_array_equal(e.point_at_arclength(s),
                                              e.point(np.interp(s, cum, t_ends)))

    @pytest.mark.parametrize("poly", [concave_quad(), curvy_l()])
    def test_contains_matches_fresh_polyline(self, poly):
        vs = np.asarray(poly.vertices)
        mids = [complex(e.point(0.5)) for e in poly.edges]
        center = complex(np.mean(vs))
        probes = (list(vs) + mids
                  + [center + 0.9 * (v - center) for v in vs]  # interior or notch
                  + [center + 1.5 * (v - center) for v in vs]  # exterior
                  + [3 + 5j, 5 + 7j, 0.5 + 0.5j, 1.5 + 1.5j, 20 + 20j, -1 - 1j])
        for z in probes:
            assert poly.contains(z) == _fresh_contains(poly, z), z
        assert all(poly.contains(z) for z in list(vs) + mids)
        assert not poly.contains(20 + 20j) and not poly.contains(-1 - 1j)
