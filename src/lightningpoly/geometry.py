"""Geometry on which approximations are built and errors are measured.

Two kinds live here: the fan of rays on the unit sector |arg z| <=
beta*pi/2, |z| <= 1, from which every sample set of the sector is drawn,
and polygons whose edges may be straight or gently curved.  Polygons are
immutable after construction, and all sampling is deterministic and
returns a fresh array per call; the tables they cache are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Edge",
    "Polygon",
    "interior_angles",
    "resolve_corner_exponents",
    "ray_fan",
    "chebyshev_radii",
    "sector_boundary",
    "polygon_from_file",
]

_TWO_PI = 2.0 * math.pi
_GL7_NODES, _GL7_WEIGHTS = np.polynomial.legendre.leggauss(7)


@dataclass(frozen=True)
class Edge:
    """Polygon edge from ``start`` to ``end``.

    ``bulge`` adds a smooth sideways displacement ``bulge * L * sin^2(pi t)``
    (L = chord length, positive = left of travel, i.e. into a
    counterclockwise domain).  The sin^2 profile keeps the endpoint tangents
    chord-aligned, so corner angles are unchanged by bulging.
    """

    start: complex
    end: complex
    bulge: float = 0.0

    @property
    def chord(self) -> complex:
        return self.end - self.start

    def point(self, t):
        t = np.asarray(t, float)
        c = self.chord
        return self.start + t * c + self.bulge * 1j * c * np.sin(math.pi * t) ** 2

    def tangent(self, t):
        t = np.asarray(t, float)
        c = self.chord
        return c + self.bulge * 1j * c * math.pi * np.sin(2 * math.pi * t)

    @cached_property
    def arclength_table(self):
        """Read-only (parameters, cumulative arclength) at the ends of 32
        panels, via Gauss-Legendre; built once per edge."""
        t_ends = np.linspace(0.0, 1.0, 33)
        lo, hi = t_ends[:-1], t_ends[1:]
        tt = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GL7_NODES
        speed = np.abs(self.tangent(tt.ravel())).reshape(tt.shape)
        panel_len = 0.5 * (hi - lo) * (speed @ _GL7_WEIGHTS)
        cum = np.concatenate([[0.0], np.cumsum(panel_len)])
        t_ends.flags.writeable = cum.flags.writeable = False
        return t_ends, cum

    def length(self) -> float:
        return float(self.arclength_table[1][-1])

    def point_at_arclength(self, s):
        """Points at arclength(s) measured from ``start``."""
        t_ends, cum = self.arclength_table
        t = np.interp(np.asarray(s, float), cum, t_ends)
        return self.point(t)


def _shoelace(vertices: Sequence[complex]) -> float:
    v = np.asarray(vertices, complex)
    w = np.roll(v, -1)
    return 0.5 * float(np.sum(v.real * w.imag - v.imag * w.real))


def _proper_intersect(p1, p2, q1, q2) -> bool:
    def cross(a, b):
        return a.real * b.imag - a.imag * b.real

    d1 = cross(q2 - q1, p1 - q1)
    d2 = cross(q2 - q1, p2 - q1)
    d3 = cross(p2 - p1, q1 - p1)
    d4 = cross(p2 - p1, q2 - p1)
    return d1 * d2 < 0 and d3 * d4 < 0


@dataclass(frozen=True)
class Polygon:
    """Closed polygonal domain, vertices in counterclockwise order.

    ``betas[k]`` optionally pins the interior angle (in units of pi) at
    vertex k; ``alphas[k]`` is the singularity exponent there, or "auto" for
    the leading Laplace exponent 1/beta_k.
    """

    vertices: tuple
    edges: tuple
    betas: tuple = ()
    alphas: tuple = ()

    @classmethod
    def from_vertices(cls, vertices, bulges=None, betas=None, alphas=None) -> "Polygon":
        vs = tuple(complex(v) for v in vertices)
        m = len(vs)
        if m < 3:
            raise ValueError("need at least 3 vertices")
        bulges = list(bulges) if bulges is not None else [0.0] * m
        edges = tuple(Edge(vs[k], vs[(k + 1) % m], bulge=bulges[k]) for k in range(m))
        betas_t = tuple(betas) if betas is not None else (None,) * m
        alphas_t = tuple(alphas) if alphas is not None else ("auto",) * m
        poly = cls(vertices=vs, edges=edges, betas=betas_t, alphas=alphas_t)
        poly.validate()
        return poly

    def validate(self):
        m = len(self.vertices)
        scale = max(abs(v) for v in self.vertices) or 1.0
        for e in self.edges:
            if abs(e.chord) < 1e-14 * scale:
                raise ValueError("degenerate edge")
        for i in range(m):
            for j in range(i + 1, m):
                if j in (i, (i + 1) % m) or i == (j + 1) % m:
                    continue
                a, b = self.vertices[i], self.vertices[(i + 1) % m]
                c, d = self.vertices[j], self.vertices[(j + 1) % m]
                if _proper_intersect(a, b, c, d):
                    raise ValueError("self-intersecting boundary")
        geom = interior_angles(self)
        for k, b in enumerate(self.betas):
            if b is None:
                continue
            if not 0.0 < b < 2.0:
                raise ValueError(f"beta[{k}] must lie in (0, 2)")
            if abs(b - geom[k]) * math.pi > 1e-10:
                raise ValueError(
                    f"declared beta[{k}]={b} disagrees with geometry ({geom[k]:.12g})"
                )

    def orientation(self) -> int:
        return 1 if _shoelace(self.vertices) >= 0 else -1

    @cached_property
    def boundary_polyline(self) -> np.ndarray:
        """Read-only boundary polyline, 128 points per edge; built once."""
        t = np.linspace(0.0, 1.0, 128, endpoint=False)
        pts = np.concatenate([e.point(t) for e in self.edges])
        pts.flags.writeable = False
        return pts

    def contains(self, z: complex) -> bool:
        """Winding-number containment on the boundary polyline."""
        rel = self.boundary_polyline - complex(z)
        if np.min(np.abs(rel)) < 1e-12:
            return True
        ang = np.angle(np.roll(rel, -1) / rel)
        return abs(abs(ang.sum()) - _TWO_PI) < 1e-6


def interior_angles(polygon: Polygon) -> np.ndarray:
    """Interior angles beta_k (in units of pi) at each vertex.

    Computed from edge tangent directions, so it is exact for straight edges
    and for tangent-preserving bulges; reflex corners give beta_k > 1.  The
    result does not depend on the stored orientation.
    """
    m = len(polygon.vertices)
    orient = polygon.orientation()
    betas = np.empty(m)
    for k in range(m):
        t_in = complex(polygon.edges[(k - 1) % m].tangent(1.0))
        t_out = complex(polygon.edges[k].tangent(0.0))
        if abs(t_in) == 0 or abs(t_out) == 0:
            raise ValueError("degenerate edge")
        turn = np.angle(t_out / t_in)
        interior = math.pi - orient * turn
        betas[k] = interior / math.pi
        if not 0.0 < betas[k] < 2.0:
            raise ValueError(f"interior angle at vertex {k} outside (0, 2*pi)")
    return betas


def resolve_corner_exponents(polygon: Polygon):
    """Per-corner (alpha_k, needs_log) pairs.

    "auto" resolves to the leading exponent 1/beta_k; when that is an
    integer the corner singularity carries a log factor instead, which is
    reported through the flag (the exponent value is still returned).
    """
    betas = interior_angles(polygon)
    out = []
    for k, a in enumerate(polygon.alphas):
        if a == "auto" or a is None:
            val = 1.0 / betas[k]
            is_int = abs(val - round(val)) < 1e-12 and round(val) >= 1
            out.append((val, bool(is_int)))
        else:
            out.append((float(a), False))
    return out


def ray_fan(beta: float, radii, n_rays: int) -> np.ndarray:
    """The points radii x rays of the unit sector, radius-major: ``n_rays``
    rays evenly spaced over |arg z| <= beta*pi/2, or the axis alone at
    beta = 0.  The one definition of the sector's fan, shared by its arc
    grids and near-origin scan; sector_boundary takes the same angles and
    evaluates only the ones it keeps."""
    half = beta * math.pi / 2
    thetas = np.linspace(-half, half, n_rays) if beta > 0 else np.array([0.0])
    return (np.asarray(radii, float)[:, None] * np.exp(1j * thetas)).ravel()


def chebyshev_radii(n: int) -> np.ndarray:
    """The n Chebyshev points of [0, 1], clustered toward both ends."""
    k = np.arange(n)
    return 0.5 * (1.0 - np.cos(math.pi * (k + 0.5) / n))


def sector_boundary(beta: float, radii, n_arc: int, upper_half: bool,
                    split: bool = False):
    """Samples of the unit sector's boundary: its two edge rays at
    ``radii`` (the axis alone at beta = 0), ``n_arc`` points on the arc
    |z| = 1 (none at beta = 0, where the arc is the point z = 1), and the
    apex.  The one sampler of the sweep's fit sets and sup-norm grids.

    ``split=True`` returns the same samples as two disjoint arrays, the
    even half and the rest.  The half holds the points of the radii
    ``radii[0::2]``, the arc points of even index and the apex: a grid of
    about twice the spacing, nested in the whole.

    No interior point is needed.  The approximant's poles lie on the
    negative axis, the branch cut of z^alpha too, and beta < 2 keeps both
    outside the closed sector; the g of a prefactor target is analytic on
    it.  So the error e = r - g z^alpha (or r - g z^alpha log z), and the
    misfit of a polynomial tail to the remainder, are analytic inside and
    continuous up to the apex, and by the maximum modulus principle their
    sup is on the edge rays or the arc.

    ``upper_half`` keeps only the points with Im z >= 0, for the plain
    targets: real poles, residues and tail coefficients and a real alpha
    give r(conj z) = conj r(z), z^alpha (and z^alpha log z) reflect the same
    way, so by Schwarz reflection |e(conj z)| = |e(z)|.  A prefactor
    target's g need not satisfy g(conj z) = conj g(z) and keeps both
    halves.  A point within rounding of the axis is put on it first: the
    middle angle of an odd arc is 0 only up to a few ulps of beta*pi/2, and
    at beta = 1.1 it rounds below the axis, so without the snap the half
    would lose z = 1, which can hold the sup.

    The half is built directly, as the upper edge ray, the arc from its
    middle angle up and the apex, with the points and order the whole
    boundary would give.  The lower ray and the rest of the arc are built
    too only where one of their points can round onto the axis: a
    half-opening within 1e-13*n_arc of 0 or 1e-13 of pi (both rays on the
    axis), or a radius below 1e-280, where the lower ray's Im z may
    underflow to a zero the half keeps (r = 0 gives a point on each ray)."""
    radii = np.asarray(radii, float)
    even = np.arange(radii.size) % 2 == 0
    if beta > 0:
        half = beta * math.pi / 2
        first_arc, edges = 0, np.array([-half, half])  # ray_fan(beta, radii, 2)'s angles
        if upper_half and 1e-13 * max(n_arc, 1) < half < math.pi - 1e-13 \
                and radii.min(initial=1.0) >= 1e-280:
            first_arc, edges = n_arc // 2, edges[1:]
        thetas = np.linspace(-half, half, n_arc)[first_arc:]
        pts = np.concatenate([(radii[:, None] * np.exp(1j * edges)).ravel(),
                              np.exp(1j * thetas), [0.0]])
        even = np.concatenate([np.repeat(even, edges.size),
                               np.arange(first_arc, n_arc) % 2 == 0, [True]])
    else:
        pts, even = np.append(ray_fan(beta, radii, 1), 0.0), np.append(even, True)
    if upper_half:
        pts = np.where(np.abs(pts.imag) <= 1e-15 * np.abs(pts.real), pts.real + 0j, pts)
        keep = pts.imag >= 0
        pts, even = pts[keep], even[keep]
    return (pts[even], pts[~even]) if split else pts


def polygon_from_file(path) -> Polygon:
    """Read a polygon description.

    Format: one vertex per line as ``re im`` with optional ``beta=<v>`` /
    ``alpha=<v>`` tokens; a line ``curve <edge_index> bulge=<s>`` declares a
    curved edge (edge k joins vertex k to k+1).  '#' starts a comment.  A
    malformed line raises a ValueError that names the file and the line.
    """
    vertices, betas, alphas = [], [], []
    curve_bulges, curve_lines = {}, {}  # by edge index
    for number, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = "curve" if tok[0] == "curve" else "vertex"
        try:
            if len(tok) < 2:
                raise ValueError(f"{line!r} needs at least two fields")
            attrs = {}
            for t in tok[2:]:
                key, eq, val = t.partition("=")
                if key not in (("bulge",) if kind == "curve" else ("beta", "alpha")):
                    raise ValueError(f"unknown {kind} attribute {key!r}")
                if not eq:
                    raise ValueError(f"attribute {t!r} is not key=value")
                attrs[key] = val
            if kind == "curve":
                idx = int(tok[1])
                curve_bulges[idx], curve_lines[idx] = float(attrs.get("bulge", 0.0)), number
                continue
            vertices.append(complex(float(tok[0]), float(tok[1])))
            betas.append(float(attrs["beta"]) if "beta" in attrs else None)
            alpha = attrs.get("alpha", "auto")
            alphas.append(alpha if alpha == "auto" else float(alpha))
        except ValueError as exc:
            raise ValueError(f"polygon {path}, line {number}: {exc}") from None
    m = len(vertices)
    for idx, number in curve_lines.items():
        if not 0 <= idx < m:
            raise ValueError(f"polygon {path}, line {number}: "
                             f"curve {idx} names no edge of a {m}-edge polygon")
    bulges = [curve_bulges.get(k, 0.0) for k in range(m)]
    return Polygon.from_vertices(vertices, bulges=bulges, betas=betas, alphas=alphas)

