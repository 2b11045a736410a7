"""Critical points on the (theta2, theta3) torus and critical values in (rho, z).

Marching squares traces the zero set of det(J); its image under the forward
map is the locus of critical values.  Cusps are triple roots of the IK
quartic (M = M' = M'' = 0, M''' != 0), nodes are pairs of distinct double
roots; both are located by damped Newton iterations seeded from the traced
curves and certified post hoc by their defining residuals.
"""
from __future__ import annotations

import functools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .dh import (
    TWO_PI,
    CrossSectionPoint,
    DhParams,
    det_jacobian,
    det_jacobian_grad,
    fk_arrays,
    length_scale,
    singularity_scale,
    validate_params,
    wrap_angle,
)
from .errors import CuspidalError
from .geometry import SegmentHash, point_segment_dist, polyline_min_dist, seg_intersect
from .reduction import (
    conic_raw,
    conic_raw_with_partials,
    quartic_coeffs_from_conic,
    cluster_real_roots,
    ik_counts,
    solve_ik_cross_section,
)

log = logging.getLogger(__name__)

DEFAULT_GRID_N = 720
_REFINE_TOL = 1e-13  # target |det J| / scale after vertex refinement
_NEWTON_MAX_ITER = 50
CUSP_RESIDUAL_TOL = 1e-7
CUSP_THIRD_DERIV_MIN = 1e-4
DEDUP_RADIUS = 1e-4


@dataclass(frozen=True)
class JointCurve:
    """Closed polyline of critical points on the torus."""

    vertices: np.ndarray          # (n, 2) theta2, theta3 in [-pi, pi)
    closed: bool
    grad_norm: np.ndarray         # (n,) |grad det J| per vertex

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class WorkspaceCurve:
    """Image of a JointCurve in the (rho, z) half cross-section."""

    vertices: np.ndarray          # (n, 2) rho, z
    source_index: int
    joint: JointCurve
    speed: np.ndarray             # (n,) image speed |d(rho,z)| / |d(theta2,theta3)|

    def __len__(self):
        return len(self.vertices)


@dataclass(frozen=True)
class CuspPoint:
    """Workspace point where M has a root of multiplicity 3."""

    rho: float
    z: float
    t: float
    res_m: float
    res_m1: float
    res_m2: float
    abs_m3: float
    source_curve: int


@dataclass(frozen=True)
class NodePoint:
    """Workspace point where M has two distinct double roots."""

    rho: float
    z: float
    t1: float
    t2: float
    residual: float
    source_curves: tuple


@dataclass(frozen=True)
class GenericityReport:
    is_generic: bool
    evidence: tuple  # of dicts {kind, ...}


@dataclass(frozen=True)
class BoundarySample:
    rho: float
    z: float
    count: int
    low: int
    high: int


@dataclass(frozen=True)
class RegionCensus:
    """IK-solution counts on a workspace grid plus the Proposition-1 audit."""

    rho_edges: np.ndarray
    z_edges: np.ndarray
    counts: np.ndarray            # (nx, ny) multiplicity-free IKS counts at cell centers
    audited_pairs: int
    violations: tuple
    boundary_samples: tuple       # of BoundarySample

    @property
    def audit_ok(self) -> bool:
        return len(self.violations) == 0

    def centers(self):
        rc = 0.5 * (self.rho_edges[:-1] + self.rho_edges[1:])
        zc = 0.5 * (self.z_edges[:-1] + self.z_edges[1:])
        return rc, zc


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

def _marching_segments(f: np.ndarray, th: np.ndarray, field):
    """Edge-crossing graph of the sign changes of a sampled field.

    `f` holds the field on the wrapped grid th x th; `field(theta2, theta3)`
    evaluates it at saddle-cell centers.  Node `("u", i, j)` is the crossing
    on the grid edge from (th[i], th[j]) to (th[i] + h, th[j]), node
    `("v", i, j)` the one on the edge toward (th[i], th[j] + h).  Returns
    (linearly interpolated node positions, undirected adjacency, set of
    cells containing curve segments).
    """
    grid_n = len(th)
    h = TWO_PI / grid_n
    neg = f < 0
    cross_u = neg != np.roll(neg, -1, axis=0)
    cross_v = neg != np.roll(neg, -1, axis=1)

    pos = {}
    fu = np.roll(f, -1, axis=0)
    for i, j in zip(*np.nonzero(cross_u)):
        frac = f[i, j] / (f[i, j] - fu[i, j])
        pos[("u", int(i), int(j))] = (th[i] + frac * h, th[j])
    fv = np.roll(f, -1, axis=1)
    for i, j in zip(*np.nonzero(cross_v)):
        frac = f[i, j] / (f[i, j] - fv[i, j])
        pos[("v", int(i), int(j))] = (th[i], th[j] + frac * h)

    cells = set()
    for kind, i, j in pos:
        if kind == "u":
            cells.add((i, j))
            cells.add((i, (j - 1) % grid_n))
        else:
            cells.add((i, j))
            cells.add(((i - 1) % grid_n, j))

    adj = defaultdict(list)
    curve_cells = set()
    for (i, j) in sorted(cells):
        ip, jp = (i + 1) % grid_n, (j + 1) % grid_n
        edges = []
        if ("u", i, j) in pos:
            edges.append(("u", i, j))       # bottom
        if ("v", ip, j) in pos:
            edges.append(("v", ip, j))      # right
        if ("u", i, jp) in pos:
            edges.append(("u", i, jp))      # top
        if ("v", i, j) in pos:
            edges.append(("v", i, j))       # left
        if len(edges) == 2:
            a, b = edges
            adj[a].append(b)
            adj[b].append(a)
            curve_cells.add((i, j))
        elif len(edges) == 4:
            # saddle cell: the center sample decides the pairing
            fc = float(field(th[i] + h / 2, th[j] + h / 2))
            bottom, right, top, left = edges
            if (f[i, j] < 0) == (fc < 0):
                pairs = ((left, bottom), (top, right))
            else:
                pairs = ((bottom, right), (top, left))
            for a, b in pairs:
                adj[a].append(b)
                adj[b].append(a)
            curve_cells.add((i, j))
    return pos, adj, curve_cells


def _det_segments(p: DhParams, grid_n: int):
    """Marching-squares graph of det J = 0 sampled at the grid vertices."""
    th = -math.pi + TWO_PI * np.arange(grid_n) / grid_n
    t2g, t3g = np.meshgrid(th, th, indexing="ij")
    field = functools.partial(det_jacobian, p)
    return _marching_segments(field(t2g, t3g), th, field)


def _chain_loops(pos, adj):
    """Walk a crossing graph of degree <= 2 into vertex chains.

    Open chains are walked from their degree-1 ends first, so each comes out
    whole; the remaining nodes form closed loops.  Returns (vertices, closed)
    pairs.
    """
    seen = set()
    loops = []
    ends = sorted(n for n in adj if len(adj[n]) == 1)
    for start in ends + sorted(adj):
        if start in seen:
            continue
        loop = [start]
        seen.add(start)
        prev, cur = None, start
        closed = True
        while True:
            nxt = [n for n in adj[cur] if n != prev]
            if not nxt:
                closed = False
                break
            if nxt[0] == start:
                break
            cur, prev = nxt[0], cur
            loop.append(cur)
            seen.add(cur)
        loops.append((np.array([pos[n] for n in loop]), closed))
    return loops


def _refine_on_zero_set(p: DhParams, pts: np.ndarray, scale: float) -> np.ndarray:
    """Newton steps along the gradient onto det J = 0 (vectorized).

    Runs to (near) machine precision so that the quartic at each image point
    keeps its double root within the clustering radius.
    """
    pts = pts.copy()
    for _ in range(20):
        fval = det_jacobian(p, pts[:, 0], pts[:, 1])
        if float(np.max(np.abs(fval))) < _REFINE_TOL * scale:
            break
        g2, g3 = det_jacobian_grad(p, pts[:, 0], pts[:, 1])
        gg = g2 * g2 + g3 * g3
        gg = np.where(gg < 1e-300, 1.0, gg)
        pts[:, 0] -= fval * g2 / gg
        pts[:, 1] -= fval * g3 / gg
    return wrap_angle(pts)


def trace_critical_points(p: DhParams, grid_n: int = DEFAULT_GRID_N):
    """Trace det J = 0 over the torus into closed, refined polylines.

    An empty result for a valid robot is a reportable anomaly, not an error.
    """
    validate_params(p)
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    scale = singularity_scale(p)
    pos, adj, _ = _det_segments(p, grid_n)
    curves = []
    for verts, closed in _chain_loops(pos, adj):
        refined = _refine_on_zero_set(p, verts, scale)
        g2, g3 = det_jacobian_grad(p, refined[:, 0], refined[:, 1])
        curves.append(JointCurve(refined, closed, np.hypot(g2, g3)))
    curves.sort(key=lambda c: (-len(c), float(c.vertices[0, 0]), float(c.vertices[0, 1])))
    return curves


def curve_cells(p: DhParams, grid_n: int):
    """Grid cells containing segments of the traced zero set."""
    _, _, cells = _det_segments(p, grid_n)
    return cells


def critical_values(p: DhParams, curves) -> list:
    """Images of the critical-point curves in the (rho, z) half cross-section."""
    out = []
    for ci, curve in enumerate(curves):
        t2 = curve.vertices[:, 0]
        t3 = curve.vertices[:, 1]
        x, y, z = fk_arrays(p, 0.0, t2, t3)
        w = np.column_stack([np.hypot(x, y), z])
        n = len(w)
        speed = np.zeros(n)
        for k in range(n):
            a = curve.vertices[(k - 1) % n]
            b = curve.vertices[(k + 1) % n]
            dj = np.abs(wrap_angle(a - b))
            denom = max(float(np.hypot(dj[0], dj[1])), 1e-12)
            speed[k] = float(np.hypot(*(w[(k - 1) % n] - w[(k + 1) % n]))) / denom
        out.append(WorkspaceCurve(w, ci, curve, speed))
    return out


# --------------------------------------------------------------------------
# quartic system evaluation for Newton refinements (reduced z coordinates)
#
# Roots near theta3 = pi are ill-conditioned in the t = tan(theta3/2) chart,
# so every refinement can run in a flipped chart u = tan((theta3 - pi)/2)
# obtained by negating the linear conic coefficients.
# --------------------------------------------------------------------------

_FLIP = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def _m_stack(p: DhParams, R: float, zr: float, flip: bool = False):
    """Quartic coefficients and their (R, z) partials at a reduced point."""
    cc, d_r, d_z = conic_raw_with_partials(p, R, zr)
    if flip:
        cc, d_r, d_z = cc * _FLIP, d_r * _FLIP, d_z * _FLIP
    return (quartic_coeffs_from_conic(cc),
            quartic_coeffs_from_conic(d_r),
            quartic_coeffs_from_conic(d_z))


def _normalized_m(p: DhParams, R: float, zr: float, flip: bool = False) -> np.ndarray:
    cc = conic_raw(p, R, zr)
    if flip:
        cc = cc * _FLIP
    return quartic_coeffs_from_conic(cc / max(float(np.max(np.abs(cc))), 1e-300))


def _chart_seed(theta3: float):
    """(chart coordinate, flip flag) placing the seed in the well-conditioned chart."""
    if abs(theta3) <= math.pi / 2:
        return math.tan(theta3 / 2.0), False
    return math.tan(float(wrap_angle(theta3 - math.pi)) / 2.0), True


def _chart_theta3(u: float, flip: bool) -> float:
    th = 2.0 * math.atan(u)
    return float(wrap_angle(th + math.pi)) if flip else th


def _tan_half(theta3: float) -> float:
    return math.tan(theta3 / 2.0)


def _damped_newton(fun_jac, x0, max_iter: int = _NEWTON_MAX_ITER, tol: float = 0.0):
    """Damped (Gauss-)Newton with step halving on ||F||^2.

    Steps come from least squares so rank-deficient Jacobians (symmetry
    slices, overdetermined certification systems) degrade gracefully to the
    minimum-norm direction instead of blowing up.
    """
    x = np.asarray(x0, float).copy()
    fval, jac = fun_jac(x)
    norm2 = float(np.dot(fval, fval))
    for _ in range(max_iter):
        if norm2 <= tol * tol:
            return x, True
        try:
            step = np.linalg.lstsq(jac, fval, rcond=None)[0]
        except np.linalg.LinAlgError:
            return x, False
        lam = 1.0
        improved = False
        for _ in range(25):
            xn = x - lam * step
            fn, jn = fun_jac(xn)
            n2 = float(np.dot(fn, fn))
            if n2 < norm2:
                x, fval, jac, norm2 = xn, fn, jn, n2
                improved = True
                break
            lam *= 0.5
        if not improved:
            return x, norm2 <= max(tol * tol, 1e-24)
    return x, norm2 <= max(tol * tol, 1e-24)


def _cusp_system(p: DhParams, flip: bool = False):
    def fun_jac(x):
        t, R, zr = x
        m, m_r, m_z = _m_stack(p, R, zr, flip)
        d1 = np.polyder(m)
        d2 = np.polyder(d1)
        d3 = np.polyder(d2)
        fval = np.array([np.polyval(m, t), np.polyval(d1, t), np.polyval(d2, t)])
        jac = np.array([
            [np.polyval(d1, t), np.polyval(m_r, t), np.polyval(m_z, t)],
            [np.polyval(d2, t), np.polyval(np.polyder(m_r), t), np.polyval(np.polyder(m_z), t)],
            [np.polyval(d3, t), np.polyval(np.polyder(m_r, 2), t), np.polyval(np.polyder(m_z, 2), t)],
        ])
        return fval, jac
    return fun_jac


def _node_system(p: DhParams, flip1: bool = False, flip2: bool = False):
    def fun_jac(x):
        t1, t2, R, zr = x
        m1, m1_r, m1_z = _m_stack(p, R, zr, flip1)
        m2, m2_r, m2_z = _m_stack(p, R, zr, flip2) if flip2 != flip1 else (m1, m1_r, m1_z)
        d1a = np.polyder(m1)
        d1b = np.polyder(m2)
        fval = np.array([np.polyval(m1, t1), np.polyval(d1a, t1),
                         np.polyval(m2, t2), np.polyval(d1b, t2)])
        jac = np.array([
            [np.polyval(d1a, t1), 0.0, np.polyval(m1_r, t1), np.polyval(m1_z, t1)],
            [np.polyval(np.polyder(d1a), t1), 0.0,
             np.polyval(np.polyder(m1_r), t1), np.polyval(np.polyder(m1_z), t1)],
            [0.0, np.polyval(d1b, t2), np.polyval(m2_r, t2), np.polyval(m2_z, t2)],
            [0.0, np.polyval(np.polyder(d1b), t2),
             np.polyval(np.polyder(m2_r), t2), np.polyval(np.polyder(m2_z), t2)],
        ])
        return fval, jac
    return fun_jac


def _node_system_symmetric(p: DhParams, flip: bool):
    """Two double roots at s +/- sqrt(e) via coefficient matching.

    A quartic with double roots t1, t2 factors as a [(t-s)^2 - e]^2 with
    s = (t1+t2)/2 and e = ((t1-t2)/2)^2, so matching all five coefficients
    in the unknowns (a, s, e, R, z) stays square and well conditioned even
    when the two double roots nearly coincide (near-quadruple points), where
    evaluation-based formulations lose rank.
    """
    def fun_jac(x):
        a, s, e, R, zr = x
        m, m_r, m_z = _m_stack(p, R, zr, flip)
        se = s * s - e
        q = np.array([1.0, -4.0 * s, 6.0 * s * s - 2.0 * e, -4.0 * s * se, se * se])
        fval = m - a * q
        dq_ds = np.array([0.0, -4.0, 12.0 * s, -12.0 * s * s + 4.0 * e, 4.0 * s * se])
        dq_de = np.array([0.0, 0.0, -2.0, 4.0 * s, -2.0 * se])
        jac = np.column_stack([-q, -a * dq_ds, -a * dq_de, m_r, m_z])
        return fval, jac
    return fun_jac


def _quadruple_system(p: DhParams, flip: bool = False):
    def fun_jac(x):
        t, R, zr = x
        m, m_r, m_z = _m_stack(p, R, zr, flip)
        d1 = np.polyder(m)
        d2 = np.polyder(d1)
        d3 = np.polyder(d2)
        d4 = np.polyder(d3)
        fval = np.array([np.polyval(m, t), np.polyval(d1, t),
                         np.polyval(d2, t), np.polyval(d3, t)])
        jac = np.array([
            [np.polyval(d1, t), np.polyval(m_r, t), np.polyval(m_z, t)],
            [np.polyval(d2, t), np.polyval(np.polyder(m_r), t), np.polyval(np.polyder(m_z), t)],
            [np.polyval(d3, t), np.polyval(np.polyder(m_r, 2), t), np.polyval(np.polyder(m_z, 2), t)],
            [np.polyval(d4, t), np.polyval(np.polyder(m_r, 3), t), np.polyval(np.polyder(m_z, 3), t)],
        ])
        return fval, jac
    return fun_jac


def _cusp_residuals(p: DhParams, t: float, R: float, zr: float, flip: bool = False):
    m = _normalized_m(p, R, zr, flip)
    return (abs(float(np.polyval(m, t))),
            abs(float(np.polyval(np.polyder(m), t))),
            abs(float(np.polyval(np.polyder(m, 2), t))),
            abs(float(np.polyval(np.polyder(m, 3), t))))


# --------------------------------------------------------------------------
# cusps and nodes
# --------------------------------------------------------------------------

def _dedup_sorted(points, radius: float):
    kept = []
    for pt in sorted(points, key=lambda c: (c[0], c[1])):
        if all(math.hypot(pt[0] - q[0], pt[1] - q[1]) > radius for q in kept):
            kept.append(pt)
    return kept


def find_cusps(p: DhParams, workspace_curves) -> list:
    """Locate all cusps: Newton on {M = M' = M'' = 0} in (t, R, z).

    Seeds sit at local minima of the image speed along each workspace curve
    (the image velocity of the critical curve vanishes at a cusp).  Every
    find is certified by its residuals, the |M'''| lower bound excluding
    quadruple roots, and proximity to the traced critical values.
    """
    scale = singularity_scale(p)
    lscale = length_scale(p)
    systems = {False: _cusp_system(p, False), True: _cusp_system(p, True)}
    found = []
    for wc in workspace_curves:
        n = len(wc)
        if n < 4:
            continue
        speed = wc.speed
        for k in range(n):
            if not (speed[k] <= speed[(k - 1) % n] and speed[k] <= speed[(k + 1) % n]):
                continue
            t3 = float(wc.joint.vertices[k, 1])
            u0, flip = _chart_seed(t3)
            rho, z = wc.vertices[k]
            zr = z - p.d1
            # convergence is certified by the normalized residuals below, not
            # by the raw Newton norm (the unnormalized system never reaches an
            # absolute floor)
            x, _ = _damped_newton(systems[flip], [u0, rho * rho + zr * zr, zr])
            u, R, zr_s = x
            rho2 = R - zr_s * zr_s
            if rho2 < -1e-12 * scale:
                continue
            res0, res1, res2, res3 = _cusp_residuals(p, u, R, zr_s, flip)
            if max(res0, res1, res2) > CUSP_RESIDUAL_TOL * scale:
                log.debug("cusp seed at theta3=%.4f diverged (residual %.2e)",
                          t3, max(res0, res1, res2))
                continue
            if res3 < CUSP_THIRD_DERIV_MIN * scale:
                continue
            rho_s = math.sqrt(max(rho2, 0.0))
            z_s = zr_s + p.d1
            near = polyline_min_dist((rho_s, z_s), [w.vertices for w in workspace_curves])
            if near > max(0.05 * lscale, 10.0 * _median_step(workspace_curves)):
                continue
            t_out = _tan_half(_chart_theta3(u, flip))
            found.append((rho_s, float(z_s), t_out, res0, res1, res2, res3,
                          wc.source_index))
    kept = _dedup_sorted(found, DEDUP_RADIUS * scale)
    return [CuspPoint(*c) for c in kept]


def _median_step(workspace_curves) -> float:
    steps = []
    for wc in workspace_curves:
        d = np.diff(wc.vertices, axis=0)
        if len(d):
            steps.append(np.median(np.hypot(d[:, 0], d[:, 1])))
    return float(np.median(steps)) if steps else 0.0


def _refine_node(p: DhParams, th3a: float, th3b: float, rho: float, z: float):
    """Newton-refine a node candidate; returns (th1, th2, R, zr, residual) or None.

    Nearby tangency angles use the symmetric center/half-gap formulation in a
    common chart; well-separated ones use the plain four-root system with a
    chart per root.
    """
    zr = z - p.d1
    r0 = rho * rho + zr * zr
    gap = abs(float(wrap_angle(th3a - th3b)))
    if gap < 0.5:
        mean = th3a + float(wrap_angle(th3b - th3a)) / 2.0
        s0, flip = _chart_seed(mean)
        # chart half-gap: d(theta)/du = 2/(1+u^2)
        d0 = gap / 2.0 * (1.0 + s0 * s0) / 2.0
        m0, _, _ = _m_stack(p, r0, zr, flip)
        x, _ = _damped_newton(_node_system_symmetric(p, flip),
                              [float(m0[0]), s0, d0 * d0, r0, zr])
        _, s, e, R, zr_s = x
        if e <= 0.0:
            return None
        d = math.sqrt(e)
        u1, u2 = s + d, s - d
        th1 = _chart_theta3(u1, flip)
        th2 = _chart_theta3(u2, flip)
        flips = (flip, flip)
    else:
        u1, flip1 = _chart_seed(th3a)
        u2, flip2 = _chart_seed(th3b)
        x, _ = _damped_newton(_node_system(p, flip1, flip2), [u1, u2, r0, zr])
        u1, u2, R, zr_s = x
        th1 = _chart_theta3(u1, flip1)
        th2 = _chart_theta3(u2, flip2)
        flips = (flip1, flip2)
    residual = 0.0
    for u, flip in ((u1, flips[0]), (u2, flips[1])):
        ra, rb, _, _ = _cusp_residuals(p, u, R, zr_s, flip)
        residual = max(residual, ra, rb)
    return th1, th2, R, zr_s, residual


def _node_ik_structure_ok(p: DhParams, rho: float, z: float) -> bool:
    """A true node shows exactly two distinct multiplicity-2 solutions."""
    try:
        sols = solve_ik_cross_section(p, CrossSectionPoint(rho, z))
    except CuspidalError:
        return False
    mults = sorted(s.multiplicity for s in sols.solutions)
    mults += [m for _, m in sols.flagged]
    return sorted(mults) == [2, 2]


def find_nodes(p: DhParams, workspace_curves) -> list:
    """Locate all nodes: Newton on the two-double-root system.

    Candidates are crossings of the critical-value polylines (including
    self-intersections) from a segment sweep.  Every find is certified by
    its residuals and by the solution structure (two distinct double roots);
    candidates collapsing to a cusp (t1 -> t2) are rejected.
    """
    scale = singularity_scale(p)
    cell = max(_median_step(workspace_curves) * 4.0, 1e-6)
    sweep = SegmentHash(cell)
    for wc in workspace_curves:
        n = len(wc)
        for k in range(n):
            sweep.add((wc.source_index, k, n), wc.vertices[k], wc.vertices[(k + 1) % n])
    found = []
    for ia, ib in sweep.candidate_pairs():
        (ca, ka, na), a0, a1 = sweep.segs[ia]
        (cb, kb, nb), b0, b1 = sweep.segs[ib]
        if ca == cb and min((ka - kb) % na, (kb - ka) % na) <= 1:
            continue
        hit = seg_intersect(a0, a1, b0, b1)
        if hit is None:
            continue
        (rho, z), _, _ = hit
        ref = _refine_node(p, wcurve_theta3(workspace_curves, ca, ka),
                           wcurve_theta3(workspace_curves, cb, kb), rho, z)
        if ref is None:
            continue
        th1, th2, R, zr_s, residual = ref
        if abs(float(wrap_angle(th1 - th2))) < 1e-4:
            continue  # collapsed to a cusp
        rho2 = R - zr_s * zr_s
        if rho2 < -1e-12 * scale:
            continue
        if residual > CUSP_RESIDUAL_TOL * scale:
            log.debug("node seed near (%.4f, %.4f) diverged (residual %.2e)",
                      rho, z, residual)
            continue
        rho_s = math.sqrt(max(rho2, 0.0))
        z_s = float(zr_s + p.d1)
        if not _node_ik_structure_ok(p, rho_s, z_s):
            continue
        tlo, thi = sorted((_tan_half(th1), _tan_half(th2)))
        found.append((rho_s, z_s, tlo, thi, float(residual), tuple(sorted((ca, cb)))))
    kept = _dedup_sorted(found, DEDUP_RADIUS * scale)
    return [NodePoint(*c) for c in kept]


def wcurve_theta3(workspace_curves, index: int, vertex: int) -> float:
    for wc in workspace_curves:
        if wc.source_index == index:
            return float(wc.joint.vertices[vertex, 1])
    raise KeyError(index)


# --------------------------------------------------------------------------
# genericity
# --------------------------------------------------------------------------

def genericity_check(p: DhParams, grid_n: int = DEFAULT_GRID_N,
                     curves=None, workspace_curves=None, cusps=None) -> GenericityReport:
    """Three genericity tests: no quadruple roots, smooth critical curves,
    no isolated singular cells."""
    validate_params(p)
    scale = singularity_scale(p)
    if curves is None:
        curves = trace_critical_points(p, grid_n)
    if workspace_curves is None:
        workspace_curves = critical_values(p, curves)
    if cusps is None:
        cusps = find_cusps(p, workspace_curves)
    evidence = []

    # (a) quadruple roots: Gauss-Newton on {M = M' = M'' = M''' = 0}
    seeds = []
    for c in cusps:
        u0, flip = _chart_seed(2.0 * math.atan(c.t))
        seeds.append((u0, flip, c.rho * c.rho + (c.z - p.d1) ** 2, c.z - p.d1))
    for wc in workspace_curves:
        if len(wc) == 0:
            continue
        for k in sorted({int(np.argmin(wc.vertices[:, 0])), int(np.argmax(wc.vertices[:, 0])),
                         int(np.argmin(wc.vertices[:, 1])), int(np.argmax(wc.vertices[:, 1]))}):
            u0, flip = _chart_seed(float(wc.joint.vertices[k, 1]))
            rho, z = wc.vertices[k]
            zr = z - p.d1
            seeds.append((u0, flip, rho * rho + zr * zr, zr))
    for u0, flip, R0, zr0 in seeds:
        x, _ = _damped_newton(_quadruple_system(p, flip), [u0, R0, zr0])
        u, R, zr = x
        if R - zr * zr < -1e-9 * scale:
            continue
        res = max(_cusp_residuals(p, u, R, zr, flip))
        if res < 1e-8 * scale:
            rho_q = math.sqrt(max(R - zr * zr, 0.0))
            evidence.append({"kind": "quadruple_root", "rho": rho_q, "z": zr + p.d1,
                             "t": _tan_half(_chart_theta3(u, flip)),
                             "residual": float(res)})
            break

    # (b) the critical curve must be smooth: |grad det J| bounded away from 0
    worst = math.inf
    for c in curves:
        if len(c):
            worst = min(worst, float(np.min(c.grad_norm)))
    if curves and worst < 1e-5 * scale:
        evidence.append({"kind": "curve_gradient", "min_grad": worst})

    # (c) isolated singular cells: small |det J| far from every traced curve
    h = TWO_PI / grid_n
    centers = -math.pi + h * (np.arange(grid_n) + 0.5)
    c2g, c3g = np.meshgrid(centers, centers, indexing="ij")
    detc = np.abs(det_jacobian(p, c2g, c3g))
    on_curve = np.zeros((grid_n, grid_n), dtype=bool)
    for (i, j) in curve_cells(p, grid_n):
        on_curve[i, j] = True
    near_curve = on_curve.copy()
    for shift in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        near_curve |= np.roll(np.roll(on_curve, shift[0], axis=0), shift[1], axis=1)
    isolated = (detc < 1e-6 * scale) & ~near_curve
    if bool(np.any(isolated)):
        ii, jj = np.nonzero(isolated)
        evidence.append({
            "kind": "isolated_singular_cells",
            "count": int(len(ii)),
            "first_cell": [float(centers[ii[0]]), float(centers[jj[0]])],
        })

    if not curves:
        evidence.append({"kind": "empty_critical_set"})

    return GenericityReport(len(evidence) == 0, tuple(evidence))


# --------------------------------------------------------------------------
# workspace census
# --------------------------------------------------------------------------

def _tangency_refine(p: DhParams, rho: float, z: float, theta3_0: float, direction):
    """Slide (rho, z) along `direction` onto the critical-value set.

    Newton on {M = 0, M' = 0} in (chart coordinate, lambda); returns
    (theta3, rho, z) or None.
    """
    drho, dz = direction
    u0, flip = _chart_seed(theta3_0)

    def fun_jac(x):
        t, lam = x
        rr = rho + lam * drho
        zz = z + lam * dz
        zr = zz - p.d1
        R = rr * rr + zr * zr
        m, m_r, m_z = _m_stack(p, R, zr, flip)
        d1p = np.polyder(m)
        dR_dlam = 2 * rr * drho + 2 * zr * dz
        fval = np.array([np.polyval(m, t), np.polyval(d1p, t)])
        dm_dlam = np.polyval(m_r, t) * dR_dlam + np.polyval(m_z, t) * dz
        dm1_dlam = np.polyval(np.polyder(m_r), t) * dR_dlam + np.polyval(np.polyder(m_z), t) * dz
        jac = np.array([
            [np.polyval(d1p, t), dm_dlam],
            [np.polyval(np.polyder(d1p), t), dm1_dlam],
        ])
        return fval, jac

    x, ok = _damped_newton(fun_jac, [u0, 0.0])
    if not ok:
        return None
    u, lam = x
    return _chart_theta3(u, flip), rho + lam * drho, z + lam * dz


def _count_at_boundary(p: DhParams, rho: float, z: float, theta3_double: float) -> int:
    """Distinct IKS at a point on the critical-value set.

    The known double root is deflated out in its well-conditioned chart, so
    the count is exact even though the double root itself is numerically
    fragile.
    """
    u, flip = _chart_seed(theta3_double)
    zr = z - p.d1
    m = _normalized_m(p, rho * rho + zr * zr, zr, flip)
    # deflate (t - t*)^2 by synthetic division twice
    poly = m
    for _ in range(2):
        poly = _synthetic_division(poly, u)
    quad = poly
    roots = [r.real for r in np.roots(quad) if abs(r.imag) <= 1e-7 * (1 + r.real ** 2)]
    distinct = cluster_real_roots(roots + [u])
    return len(distinct)


def _synthetic_division(coeffs: np.ndarray, root: float) -> np.ndarray:
    out = np.empty(len(coeffs) - 1)
    acc = coeffs[0]
    for k in range(len(coeffs) - 1):
        out[k] = acc
        acc = coeffs[k + 1] + acc * root
    return out


def region_census(p: DhParams, grid_n: int = DEFAULT_GRID_N, census_n: int = 128,
                  curves=None, workspace_curves=None, max_boundary_samples: int = 20):
    """IKS counts over the padded bounding box of the critical values.

    The audit walks adjacent cell pairs separated by exactly one crossing of
    a critical-value polyline: their counts must differ by exactly 2, and
    refined boundary points must carry the intermediate count (sampled up to
    max_boundary_samples per (low, high) boundary kind).
    """
    validate_params(p)
    if curves is None:
        curves = trace_critical_points(p, grid_n)
    if workspace_curves is None:
        workspace_curves = critical_values(p, curves)
    allv = (np.vstack([w.vertices for w in workspace_curves])
            if workspace_curves else np.array([[0.0, 0.0], [1.0, 1.0]]))
    rho_lo, rho_hi = float(np.min(allv[:, 0])), float(np.max(allv[:, 0]))
    z_lo, z_hi = float(np.min(allv[:, 1])), float(np.max(allv[:, 1]))
    pad_r = 0.05 * max(rho_hi - rho_lo, 1e-6)
    pad_z = 0.05 * max(z_hi - z_lo, 1e-6)
    rho_edges = np.linspace(max(rho_lo - pad_r, 0.0), rho_hi + pad_r, census_n + 1)
    z_edges = np.linspace(z_lo - pad_z, z_hi + pad_z, census_n + 1)
    rc = 0.5 * (rho_edges[:-1] + rho_edges[1:])
    zc = 0.5 * (z_edges[:-1] + z_edges[1:])
    rg, zg = np.meshgrid(rc, zc, indexing="ij")
    counts = ik_counts(p, rg.ravel(), zg.ravel()).reshape(census_n, census_n)

    # index the critical-value segments for crossing queries
    cell = float(min(rho_edges[1] - rho_edges[0], z_edges[1] - z_edges[0]))
    sweep = SegmentHash(cell)
    for wc in workspace_curves:
        n = len(wc)
        for k in range(n):
            sweep.add((wc.source_index, k), wc.vertices[k], wc.vertices[(k + 1) % n])

    def crossings(a, b):
        hits = []
        mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
        for idx in sorted(set(sweep.near(mid[0], mid[1], radius=2))):
            tag, s0, s1 = sweep.segs[idx]
            hit = seg_intersect(a, b, s0, s1)
            if hit is not None:
                hits.append((hit[0], tag, hit[2]))
        return hits

    clear = np.ones((census_n, census_n), dtype=bool)
    margin = 0.3 * min(rho_edges[1] - rho_edges[0], z_edges[1] - z_edges[0])
    for i in range(census_n):
        for j in range(census_n):
            mids = sweep.near(rg[i, j], zg[i, j], radius=1)
            if not mids:
                continue
            dmin = min(point_segment_dist(rg[i, j], zg[i, j],
                                          sweep.segs[idx][1][0], sweep.segs[idx][1][1],
                                          sweep.segs[idx][2][0], sweep.segs[idx][2][1])
                       for idx in set(mids))
            if dmin < margin:
                clear[i, j] = False

    violations = []
    samples = []
    samples_per_kind = defaultdict(int)
    audited = 0
    for i in range(census_n):
        for j in range(census_n):
            for di, dj in ((1, 0), (0, 1)):
                i2, j2 = i + di, j + dj
                if i2 >= census_n or j2 >= census_n:
                    continue
                if not (clear[i, j] and clear[i2, j2]):
                    continue
                a = (float(rg[i, j]), float(zg[i, j]))
                b = (float(rg[i2, j2]), float(zg[i2, j2]))
                hits = crossings(a, b)
                c_a, c_b = int(counts[i, j]), int(counts[i2, j2])
                if len(hits) == 0:
                    if c_a != c_b:
                        violations.append({"kind": "no_crossing_count_change",
                                           "cells": [[i, j], [i2, j2]],
                                           "counts": [c_a, c_b]})
                    continue
                if len(hits) != 1:
                    continue
                audited += 1
                if abs(c_a - c_b) != 2:
                    violations.append({"kind": "adjacent_region_delta",
                                       "cells": [[i, j], [i2, j2]],
                                       "counts": [c_a, c_b]})
                    continue
                lo, hi = min(c_a, c_b), max(c_a, c_b)
                if samples_per_kind[(lo, hi)] < max_boundary_samples:
                    (hx, hy), (ci_tag, k_tag), _ = hits[0]
                    t3 = wcurve_theta3(workspace_curves, ci_tag, k_tag)
                    direction = (b[0] - a[0], b[1] - a[1])
                    ref = _tangency_refine(p, hx, hy, t3, direction)
                    if ref is None:
                        continue
                    th_star, rr, zz = ref
                    if math.hypot(rr - hx, zz - hy) > 2 * cell:
                        continue
                    cnt = _count_at_boundary(p, rr, zz, th_star)
                    samples_per_kind[(lo, hi)] += 1
                    samples.append(BoundarySample(rr, zz, cnt, lo, hi))
                    if cnt != lo + 1:
                        violations.append({"kind": "boundary_count",
                                           "point": [rr, zz],
                                           "count": cnt, "expected": lo + 1})
    return RegionCensus(rho_edges, z_edges, counts, audited, tuple(violations), tuple(samples))
