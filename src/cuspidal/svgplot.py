"""Deterministic SVG renderings of the three standard figure types.

Every plot uses a fixed viewBox and CSS style classes so that golden-file
tests can compare bytes and downstream tooling can restyle output.
"""
from __future__ import annotations

import math

import numpy as np

from .dh import TWO_PI, CrossSectionPoint, DhParams
from .errors import CuspidalError
from .geometry import split_torus_polyline
from .reduction import conic_classify, conic_coefficients, solve_ik_cross_section

VIEW_W = 800.0
VIEW_H = 600.0
MARGIN = 48.0
MARKER_RADIUS = 6.0
SHADE_BLOCKS = 90     # aspect shading squares per side of the joint-space plot
C3S3_GRID = 240      # conic samples per side of the c3s3 plot

_STYLE = """\
  <style>
    .frame { fill: none; stroke: #444444; stroke-width: 1; }
    .critical-curve { fill: none; stroke: #1f6fb4; stroke-width: 1.5; }
    .singular-curve { fill: none; stroke: #1f6fb4; stroke-width: 1.4; }
    .pseudo-curve { fill: none; stroke: #d62728; stroke-width: 1.2; }
    .cusp-marker { fill: #d62728; stroke: none; }
    .node-marker { fill: none; stroke: #2ca02c; stroke-width: 1.6; }
    .unit-circle { fill: none; stroke: #444444; stroke-width: 1.4; }
    .conic { fill: none; stroke: #9467bd; stroke-width: 1.6; }
    .intersection-marker { fill: #111111; stroke: none; }
    .aspect-0 { fill: #c6dbef; } .aspect-1 { fill: #fdd0a2; }
    .aspect-2 { fill: #c7e9c0; } .aspect-3 { fill: #dadaeb; }
    .aspect-4 { fill: #f4cccc; } .aspect-5 { fill: #fff2ae; }
    .aspect-6 { fill: #d9f0f3; } .aspect-7 { fill: #e6d8bd; }
  </style>
"""


def _fmt(x: float) -> str:
    return "%.3f" % float(x)


class _Canvas:
    """Collects SVG elements over a fixed data-to-view transform."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        span_x = max(x_hi - x_lo, 1e-9)
        span_y = max(y_hi - y_lo, 1e-9)
        s = min((VIEW_W - 2 * MARGIN) / span_x, (VIEW_H - 2 * MARGIN) / span_y)
        self.sx = s
        self.x0 = x_lo
        self.y1 = y_hi
        self.off_x = (VIEW_W - s * span_x) / 2
        self.off_y = (VIEW_H - s * span_y) / 2
        self.parts: list = []

    def to_view(self, x, y):
        return (self.off_x + (x - self.x0) * self.sx,
                self.off_y + (self.y1 - y) * self.sx)

    def polyline(self, pts, cls: str):
        """One polyline element; the vertices are transformed as arrays and
        formatted in one pass, with to_view_fmt's digits."""
        if len(pts) < 2:
            return
        xy = np.asarray(pts, dtype=float)
        vx, vy = self.to_view(xy[:, 0], xy[:, 1])
        coords = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(np.column_stack([vx, vy]).ravel().tolist())
        self.parts.append(f'  <polyline class="{cls}" points="{coords}"/>')

    def to_view_fmt(self, x, y):
        vx, vy = self.to_view(x, y)
        return _fmt(vx), _fmt(vy)

    def circle(self, x, y, r, cls: str):
        vx, vy = self.to_view_fmt(x, y)
        self.parts.append(f'  <circle class="{cls}" cx="{vx}" cy="{vy}" r="{_fmt(r)}"/>')

    def rect(self, x, y, w, h, cls: str):
        vx, vy = self.to_view(x, y + h)
        self.parts.append(
            f'  <rect class="{cls}" x="{_fmt(vx)}" y="{_fmt(vy)}" '
            f'width="{_fmt(w * self.sx)}" height="{_fmt(h * self.sx)}"/>')

    def path(self, d: str, cls: str):
        self.parts.append(f'  <path class="{cls}" d="{d}"/>')

    def document(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'viewBox="0 0 {_fmt(VIEW_W)} {_fmt(VIEW_H)}">\n')
        frame = (f'  <rect class="frame" x="{_fmt(MARGIN / 2)}" y="{_fmt(MARGIN / 2)}" '
                 f'width="{_fmt(VIEW_W - MARGIN)}" height="{_fmt(VIEW_H - MARGIN)}"/>')
        return head + _STYLE + "\n".join([frame] + self.parts) + "\n</svg>\n"


def render_workspace(workspace_curves, cusps, nodes) -> str:
    """Critical-value curves in (rho, z) with cusp and node markers."""
    allv = (np.vstack([w.vertices for w in workspace_curves])
            if workspace_curves else np.zeros((1, 2)))
    pad_r = 0.08 * max(float(np.ptp(allv[:, 0])), 1e-6)
    pad_z = 0.08 * max(float(np.ptp(allv[:, 1])), 1e-6)
    cv = _Canvas(float(np.min(allv[:, 0])) - pad_r, float(np.max(allv[:, 0])) + pad_r,
                 float(np.min(allv[:, 1])) - pad_z, float(np.max(allv[:, 1])) + pad_z)
    for w in workspace_curves:
        pts = np.vstack([w.vertices, w.vertices[:1]])
        cv.polyline(pts, "critical-curve")
    for n in nodes:
        cv.circle(n.rho, n.z, MARKER_RADIUS + 1.0, "node-marker")
    for c in cusps:
        cv.circle(c.rho, c.z, MARKER_RADIUS, "cusp-marker")
    return cv.document()


def render_jointspace(curves, ps, aspect_map) -> str:
    """S (blue), PS (red) and aspect shading on the (theta2, theta3) square.
    Curves are drawn in their wrapped coordinates, split where they cross a
    seam of the torus (geometry.split_torus_polyline)."""
    cv = _Canvas(-math.pi, math.pi, -math.pi, math.pi)
    n = aspect_map.grid_n
    step = max(1, n // SHADE_BLOCKS)
    h = TWO_PI / n
    for bi in range(0, n, step):
        for bj in range(0, n, step):
            label = int(aspect_map.labels[bi, bj])
            if label < 0:
                continue
            cv.rect(-math.pi + bi * h, -math.pi + bj * h,
                    step * h, step * h, f"aspect-{label % 8}")
    # each S curve is a closed loop; a closed PS polyline repeats its first point
    for c in curves:
        for piece in split_torus_polyline(np.vstack([c.vertices, c.vertices[:1]])):
            cv.polyline(piece, "singular-curve")
    for chain in ps.polylines:
        for piece in split_torus_polyline(chain):
            cv.polyline(piece, "pseudo-curve")
    return cv.document()


def _marching_squares_plane(values, xs, ys):
    """Zero-level segments of a scalar field on a plane grid (no wrap), as
    an (m, 2, 2) array of end points in row-major cell order: the cells
    with a crossed edge, each with its crossed edges, in the turn bottom,
    right, top, left, joined in pairs, the first two and, in a four-edge
    cell, the last two."""
    neg = values < 0
    along_x, along_y = neg[:-1] != neg[1:], neg[:, :-1] != neg[:, 1:]    # crossed edges
    ci, cj = np.nonzero(along_x[:, :-1] | along_x[:, 1:] | along_y[:-1] | along_y[1:])
    i0 = np.column_stack([ci, ci + 1, ci + 1, ci])
    j0 = np.column_stack([cj, cj, cj + 1, cj + 1])
    i1, j1 = np.roll(i0, -1, axis=1), np.roll(j0, -1, axis=1)
    f0 = values[i0, j0]
    with np.errstate(divide="ignore", invalid="ignore"):   # uncrossed edges
        frac = f0 / (f0 - values[i1, j1])
    pts = np.stack([xs[i0] + frac * (xs[i1] - xs[i0]), ys[j0] + frac * (ys[j1] - ys[j0])], axis=-1)
    crossed = neg[i0, j0] != neg[i1, j1]
    first = np.argsort(~crossed, axis=1, kind="stable")
    pairs = np.take_along_axis(pts, first[..., None], axis=1).reshape(-1, 2, 2, 2)
    return pairs[np.column_stack([np.ones(len(ci), dtype=bool), np.all(crossed, axis=1)])]


def render_c3s3(p: DhParams, target: CrossSectionPoint) -> str:
    """Unit circle, the conic of the target point, and intersection markers.

    Unreachable targets render the conic with zero markers.
    """
    conic = conic_coefficients(p, target)
    kind = conic_classify(p).kind.lower()
    lim = 2.6
    cv = _Canvas(-lim, lim, -lim, lim)
    # axes
    cv.polyline([(-lim, 0.0), (lim, 0.0)], "frame")
    cv.polyline([(0.0, -lim), (0.0, lim)], "frame")
    circle_pts = [(math.cos(a), math.sin(a))
                  for a in np.linspace(0.0, TWO_PI, 257)]
    cv.polyline(circle_pts, "unit-circle")
    xs = np.linspace(-lim, lim, C3S3_GRID)
    vals = conic.evaluate(xs[:, None], xs[None, :])
    d_parts = []
    for (x0, y0), (x1, y1) in _marching_squares_plane(vals, xs, xs):
        a = cv.to_view_fmt(x0, y0)
        b = cv.to_view_fmt(x1, y1)
        d_parts.append(f"M {a[0]} {a[1]} L {b[0]} {b[1]}")
    cv.path(" ".join(d_parts), f"conic conic-{kind}")
    try:
        sols = solve_ik_cross_section(p, target)
    except CuspidalError:
        sols = None  # degenerate quartic: plot without markers
    if sols is not None:
        for s in sols.solutions:
            c3 = math.cos(s.config.theta3)
            s3 = math.sin(s.config.theta3)
            for _ in range(s.multiplicity):
                cv.circle(c3, s3, MARKER_RADIUS - 1.5, "intersection-marker")
    return cv.document()
