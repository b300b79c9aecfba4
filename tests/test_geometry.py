import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightningpoly.geometry import (
    Polygon,
    interior_angles,
    polygon_from_file,
    ray_fan,
    resolve_corner_exponents,
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
        ("curve", "polygon line 'curve' needs at least two fields"),
        ("0.5", "polygon line '0.5' needs at least two fields"),
    ])
    def test_malformed_line_rejected(self, tmp_path, line, reason):
        path = tmp_path / "bad.poly"
        path.write_text(f"0 0\n1 0\n1 1\n0 1\n{line}\n")
        with pytest.raises(ValueError, match=reason):
            polygon_from_file(path)


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
