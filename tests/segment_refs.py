"""Scalar segment references the array geometry in the package is tested against."""
import math

import numpy as np

from cuspidal.dh import wrap_angle


def seg_intersect(a0, a1, b0, b1):
    """Proper intersection point of segments [a0,a1] and [b0,b1], or None."""
    d1 = (a1[0] - a0[0], a1[1] - a0[1])
    d2 = (b1[0] - b0[0], b1[1] - b0[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) < 1e-15:
        return None
    dx, dy = b0[0] - a0[0], b0[1] - a0[1]
    s = (dx * d2[1] - dy * d2[0]) / den
    u = (dx * d1[1] - dy * d1[0]) / den
    if 0.0 <= s <= 1.0 and 0.0 <= u <= 1.0:
        return (a0[0] + s * d1[0], a0[1] + s * d1[1]), s, u
    return None


def polyline_min_dist(point, polylines) -> float:
    """Distance from a planar point to a collection of (n, 2) polylines."""
    px, py = float(point[0]), float(point[1])
    best = math.inf
    for poly in polylines:
        if len(poly) < 2:
            continue
        ax, ay = poly[:-1, 0], poly[:-1, 1]
        vx, vy = poly[1:, 0] - ax, poly[1:, 1] - ay
        vv = vx * vx + vy * vy
        t = np.clip(((px - ax) * vx + (py - ay) * vy) / np.where(vv == 0.0, 1.0, vv), 0.0, 1.0)
        best = min(best, float(np.min(np.hypot(px - (ax + t * vx), py - (ay + t * vy)))))
    return best


def point_segment_dist(px, py, ax, ay, bx, by):
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    t = 0.0 if vv == 0.0 else min(1.0, max(0.0, (wx * vx + wy * vy) / vv))
    fx, fy = ax + t * vx, ay + t * vy
    return math.hypot(px - fx, py - fy)


def unwrap_segment(a, b):
    """Endpoint b shifted to the representative nearest to a."""
    d = wrap_angle(np.asarray(b, float) - np.asarray(a, float))
    return np.asarray(a, float), np.asarray(a, float) + d
