"""Planar and torus geometry helpers shared by tracing and topology."""
from __future__ import annotations

import math

import numpy as np

from .dh import TWO_PI, wrap_angle

# segments each torus distance query measures, by midpoint nearness
_NEAR_SEGMENTS = 16


def seg_intersect_many(a0, a1, b0, b1):
    """Proper intersections of segment pairs [a0, a1], [b0, b1], endpoints (k, 2) each.

    Returns (hit mask, intersection points (k, 2)); the points are only
    meaningful where the mask is set.
    """
    d1 = a1 - a0
    d2 = b1 - b0
    den = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    ok = np.abs(den) >= 1e-15
    den = np.where(ok, den, 1.0)
    dx, dy = b0[:, 0] - a0[:, 0], b0[:, 1] - a0[:, 1]
    s = (dx * d2[:, 1] - dy * d2[:, 0]) / den
    u = (dx * d1[:, 1] - dy * d1[:, 0]) / den
    hit = ok & (0.0 <= s) & (s <= 1.0) & (0.0 <= u) & (u <= 1.0)
    return hit, a0 + s[:, None] * d1


# --------------------------------------------------------------------------
# torus-aware helpers: points live in [-pi, pi)^2, segments take the short way
# --------------------------------------------------------------------------

def split_torus_polyline(vertices):
    """Split a polyline of wrapped torus points at every step that jumps by
    more than pi on either axis, which on points in [-pi, pi)^2 is a seam
    crossing.  Returns the pieces as (k, 2) arrays of the input points, so
    each lies in [-pi, pi)^2; a crossing leaves its step undrawn."""
    v = np.asarray(vertices, float)
    return np.split(v, np.flatnonzero(np.any(np.abs(np.diff(v, axis=0)) > math.pi, axis=1)) + 1)


class TorusCurveIndex:
    """KD-tree accelerated torus distance queries against closed polylines."""

    def __init__(self, polylines_closed):
        from scipy.spatial import cKDTree

        # each vertex to the representative of the next nearest to it
        polys = [np.asarray(poly, float) for poly in polylines_closed]
        self.empty = sum(len(a) for a in polys) == 0
        if not self.empty:
            self.seg_a = np.vstack(polys)
            self.seg_b = np.vstack([a + wrap_angle(np.roll(a, -1, axis=0) - a) for a in polys])
            # a periodic tree on [0, 2 pi)^2 measures torus distance; it refuses
            # a coordinate that rounds to 2 pi, so those wrap to 0
            m = wrap_angle(0.5 * (self.seg_a + self.seg_b)) + math.pi
            self.tree = cKDTree(np.where(m < TWO_PI, m, m - TWO_PI), boxsize=TWO_PI)

    def dist(self, point) -> float:
        return float(self.dists(point)[0])

    def dists(self, points) -> np.ndarray:
        """Torus distances from a point or an (m, 2) point array to the
        indexed curves, minimised over the segments whose midpoints are the
        _NEAR_SEGMENTS nearest, or all of them when there are fewer."""
        pts = wrap_angle(np.asarray(points, float).reshape(-1, 2))
        if self.empty:
            return np.full(len(pts), math.inf)
        k = min(_NEAR_SEGMENTS, len(self.seg_a))
        _, idx = self.tree.query(pts + math.pi, k=k)
        seg = np.reshape(idx, (len(pts), k))
        a, b = self.seg_a[seg], self.seg_b[seg]
        ab = b - a
        w = wrap_angle(pts[:, None, :] - a)
        vv = np.sum(ab * ab, axis=-1)
        t = np.clip(np.sum(w * ab, axis=-1) / np.where(vv == 0.0, 1.0, vv), 0.0, 1.0)
        off = w - t[..., None] * ab
        return np.min(np.hypot(off[..., 0], off[..., 1]), axis=1)
