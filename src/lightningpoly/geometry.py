"""Geometry on which approximations are built and errors are measured.

Two kinds live here: the fan of rays on the unit sector |arg z| <=
beta*pi/2, |z| <= 1, from which every sample set of the sector is drawn,
and polygons whose edges may be straight or gently curved.  Polygons are
immutable after construction, and all sampling is deterministic and
returns a fresh array per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Edge",
    "Polygon",
    "interior_angles",
    "resolve_corner_exponents",
    "ray_fan",
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

    def arclength_table(self):
        """Cumulative arclength at the ends of 32 panels, via Gauss-Legendre."""
        t_ends = np.linspace(0.0, 1.0, 33)
        lo, hi = t_ends[:-1], t_ends[1:]
        tt = 0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * _GL7_NODES
        speed = np.abs(self.tangent(tt.ravel())).reshape(tt.shape)
        panel_len = 0.5 * (hi - lo) * (speed @ _GL7_WEIGHTS)
        cum = np.concatenate([[0.0], np.cumsum(panel_len)])
        return t_ends, cum

    def length(self) -> float:
        return float(self.arclength_table()[1][-1])

    def point_at_arclength(self, s):
        """Points at arclength(s) measured from ``start``."""
        t_ends, cum = self.arclength_table()
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

    def contains(self, z: complex) -> bool:
        """Winding-number containment on a 128-point-per-edge boundary polyline."""
        t = np.linspace(0.0, 1.0, 128, endpoint=False)
        pts = np.concatenate([e.point(t) for e in self.edges])
        rel = pts - complex(z)
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
    beta = 0.  The one definition of the sector's fan, shared by its
    tail-fit points, rate and arc grids and near-origin scan."""
    half = beta * math.pi / 2
    thetas = np.linspace(-half, half, n_rays) if beta > 0 else np.array([0.0])
    return (np.asarray(radii, float)[:, None] * np.exp(1j * thetas)).ravel()


def polygon_from_file(path) -> Polygon:
    """Read a polygon description.

    Format: one vertex per line as ``re im`` with optional ``beta=<v>`` /
    ``alpha=<v>`` tokens; a line ``curve <edge_index> bulge=<s>`` declares a
    curved edge (edge k joins vertex k to k+1).  '#' starts a comment.
    """
    vertices, betas, alphas = [], [], []
    curve_decls = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) < 2:
            raise ValueError(f"polygon line {line!r} needs at least two fields")
        if tok[0] == "curve":
            idx, bulge = int(tok[1]), 0.0
            for t in tok[2:]:
                key, val = t.split("=", 1)
                if key != "bulge":
                    raise ValueError(f"unknown curve attribute {key!r}")
                bulge = float(val)
            curve_decls[idx] = bulge
            continue
        re_s, im_s = tok[0], tok[1]
        beta = alpha = None
        for t in tok[2:]:
            key, val = t.split("=", 1)
            if key == "beta":
                beta = float(val)
            elif key == "alpha":
                alpha = val if val == "auto" else float(val)
            else:
                raise ValueError(f"unknown vertex attribute {key!r}")
        vertices.append(complex(float(re_s), float(im_s)))
        betas.append(beta)
        alphas.append("auto" if alpha is None else alpha)
    m = len(vertices)
    for idx in curve_decls:
        if not 0 <= idx < m:
            raise ValueError(f"curve {idx} names no edge of a {m}-edge polygon")
    bulges = [curve_decls.get(k, 0.0) for k in range(m)]
    return Polygon.from_vertices(vertices, bulges=bulges, betas=betas, alphas=alphas)

