"""Critical points on the (theta2, theta3) torus and critical values in (rho, z).

Marching squares traces the zero set of det(J); its image under the forward
map is the locus of critical values.  Cusps are triple roots of the IK
quartic (M = M' = M'' = 0, M''' != 0), nodes are pairs of distinct double
roots, and quadruple roots make a robot non-generic.  Cusps are seeded from
the real roots of the cusp locus E(theta3), and quadruple roots are checked
at its exact candidates (reduction.cusp_seeds, quadruple_candidates); node
seeds are the crossings of the traced critical values.  One batched damped
Newton per kind polishes the cusp and node seeds in theta3 on the conic
restricted to the unit circle, and every find is certified post hoc by the
defining residuals of M.
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
    DhParams,
    det_jacobian,
    det_jacobian_grad,
    fk_arrays,
    length_scale,
    singularity_scale,
    validate_params,
    wrap_angle,
    wrap_float,
)
from .geometry import seg_intersect_many
from .reduction import (
    circle_harmonics,
    circle_jet,
    conic_raw,
    cusp_seeds,
    ik_counts,
    quadruple_candidates,
    quartic_coeffs_from_conic,
    quartic_jet,
    solve_ik_batch,
)

log = logging.getLogger(__name__)

DEFAULT_GRID_N = 720
_REFINE_TOL = 1e-13  # target |det J| / scale after vertex refinement
_NEWTON_MAX_ITER = 50
_HALVINGS = 25                # line-search lambdas per Newton step: 1, 1/2, ..., 2^-24
# root certification on the max-normalised quartic (_residuals), whose
# residuals have no unit; only rho^2 and the dedup radius carry lengths
CUSP_RESIDUAL_TOL = 1e-7      # |M|, ..., |M^(mult-1)| at a root of multiplicity mult
CUSP_THIRD_DERIV_MIN = 0.25   # |M'''| at a cusp, keeping quadruple roots out
_RHO2_FLOOR = 1e-12           # times L^2: rounding allowance below rho^2 = 0
DEDUP_RADIUS = 1e-4           # times L: certified points closer than this are one
MAX_BOUNDARY_SAMPLES = 20     # census boundary samples per (low, high) count pair
# seg_intersect_many needs |d1 x d2| >= 1e-15, and |d1 x d2| <= |d1| |d2|: a
# segment whose length times the longest one's is below this (1e-15 less a
# few ulps of rounding) crosses nothing, so the node sweep leaves it out
_MIN_CROSS = 1e-15 * (1.0 - 1e-12)
# the node sweep's hash cell is at least the critical values' extent over
# this (on the battery at grid 720 the extent is 170-233 cells, so it never binds)
_HASH_SPAN = 4096


@dataclass(frozen=True)
class JointCurve:
    """Closed polyline of critical points on the torus."""

    vertices: np.ndarray          # (n, 2) theta2, theta3 in [-pi, pi)
    closed: bool
    grad_norm: np.ndarray         # (n,) |grad det J| per vertex

    def __len__(self):
        return len(self.vertices)


class CriticalSet(tuple):
    """The JointCurves of S = {det J = 0}, longest first, traced for `robot` on the
    grid_n x grid_n vertex lattice, with what later stages read: det J on that lattice
    (det_vertex), kept from the trace."""

    def __new__(cls, robot: DhParams, grid_n: int, curves, det_vertex: np.ndarray):
        self = super().__new__(cls, curves)
        self.robot, self.grid_n, self.det_vertex = robot, grid_n, det_vertex
        return self

    def check(self, p: DhParams, grid_n: int) -> None:
        if p != self.robot or grid_n != self.grid_n:
            raise ValueError(f"critical set traced for another robot or grid ({self.grid_n})")


@dataclass(frozen=True)
class WorkspaceCurve:
    """Image of a JointCurve in the (rho, z) half cross-section."""

    vertices: np.ndarray          # (n, 2) rho, z
    source_index: int
    joint: JointCurve

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
    """Edge-crossing graph of the sign changes of a sampled field, as arrays.

    `f` holds the field on the wrapped grid th x th; `field(theta2, theta3)`
    evaluates it elementwise at all saddle-cell centers in one call.  Node
    u(i, j) = i n + j is the crossing on the grid edge from (th[i], th[j]) to
    (th[i] + h, th[j]), node v(i, j) = n^2 + i n + j the one on the edge
    toward (th[i], th[j] + h).  A mixed cell joins its crossed edges, taken
    bottom, right, top, left, in pairs: the two of a two-edge cell, or the
    two pairs its center sample picks in a saddle cell.  Returns (ids, nbr):
    the node ids in ascending order and, per node, the indices into ids of
    its two neighbours, ordered by (row-major cell, pair slot).
    """
    n = len(th)
    h = TWO_PI / n
    neg = f < 0
    cross_u = neg != np.roll(neg, -1, axis=0)
    cross_v = neg != np.roll(neg, -1, axis=1)
    ids = np.concatenate([np.flatnonzero(cross_u), n * n + np.flatnonzero(cross_v)])
    ci, cj = np.divmod(np.flatnonzero(_mixed_cells(neg)), n)
    ip, jp = (ci + 1) % n, (cj + 1) % n
    # each cell's edges and their node indices, -1 where an edge is not crossed
    edges = np.column_stack([ci * n + cj, n * n + ip * n + cj, ci * n + jp, n * n + ci * n + cj])
    at = np.minimum(np.searchsorted(ids, edges), len(ids) - 1)
    edges = np.where(ids[at] == edges, at, -1)
    crossed = edges >= 0
    rows = np.arange(len(ci))
    pairs = np.full((len(ci), 2, 2), -1)
    pairs[:, 0, 0] = edges[rows, np.argmax(crossed, axis=1)]               # first crossed edge
    pairs[:, 0, 1] = edges[rows, 3 - np.argmax(crossed[:, ::-1], axis=1)]  # last crossed edge
    saddle = np.flatnonzero(np.all(crossed, axis=1))
    if len(saddle):
        i, j = ci[saddle], cj[saddle]
        same = ((f[i, j] < 0) == (field(th[i] + h / 2, th[j] + h / 2) < 0))[:, None]
        e = edges[saddle]
        pairs[saddle, 0] = np.where(same, e[:, [3, 0]], e[:, [0, 1]])
        pairs[saddle, 1] = np.where(same, e[:, [2, 1]], e[:, [2, 3]])
    pairs = pairs[pairs[:, :, 0] >= 0]
    # each node has one pair in each of its two cells: a stable sort of the
    # pair ends by node keeps the cells' order
    nbr = pairs[:, ::-1].ravel()[np.argsort(pairs.ravel(), kind="stable")]
    return ids, nbr.reshape(-1, 2)


def _crossing_edges(ids: np.ndarray, th: np.ndarray):
    """(i, j, along_v, start, step) of the grid edges of crossing node ids: each
    edge runs from vertex (i, j) at `start` by `step`, along theta3 where
    along_v (0 or 1), else along theta2."""
    n = len(th)
    along_v, flat = np.divmod(ids, n * n)
    i, j = np.divmod(flat, n)
    step = np.where(along_v[:, None] == 1, (0.0, TWO_PI / n), (TWO_PI / n, 0.0))
    return i, j, along_v, np.column_stack([th[i], th[j]]), step


def _crossing_points(f: np.ndarray, th: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(m, 2) positions of crossing nodes, linearly interpolated along their edges."""
    i, j, along_v, start, step = _crossing_edges(ids, th)
    f0 = f[i, j]
    frac = f0 / (f0 - f[(i + 1 - along_v) % len(th), (j + along_v) % len(th)])
    return start + frac[:, None] * step


def _mixed_cells(neg: np.ndarray) -> np.ndarray:
    """Cells of the wrapped grid whose four corners do not share a sign.

    `neg[i, j]` is the sign test at vertex (i, j); cell (i, j) spans vertices
    i..i+1 by j..j+1.  These are exactly the cells a crossing borders, where
    marching squares draws one segment (two crossed edges) or two (four).
    """
    up = np.roll(neg, -1, axis=0)
    n_neg = neg.astype(np.int8) + up + np.roll(neg, -1, axis=1) + np.roll(up, -1, axis=1)
    return (n_neg > 0) & (n_neg < 4)


def _sample_lattice(field, grid_n: int):
    """field(theta2, theta3) on the wrapped vertex lattice th x th, th_k =
    -pi + k 2 pi / grid_n, the one lattice every torus map reads; returns
    (values, th).  Blocks of 48 rows keep the temporaries small.  `field` gets
    the block's theta2 as a column and theta3 as a row and must broadcast
    them elementwise, so each value is the one the same angles give point by
    point while the trig runs on the axes."""
    th = -math.pi + TWO_PI * np.arange(grid_n) / grid_n
    out = np.empty((grid_n, grid_n))
    for i in range(0, grid_n, 48):
        out[i:i + 48] = field(th[i:i + 48, None], th[None, :])
    return out, th


def _chain_loops(nbr: np.ndarray, keep=None) -> list:
    """Walk a crossing graph of degree <= 2 into chains of node indices.

    `nbr` (m, 2) holds each node's neighbours, -1 for none, in the order the
    walk prefers them.  With a `keep` mask only the kept nodes and the
    edges between them are walked.  Open chains are walked from their
    degree-1 ends first, so each comes out whole; the remaining nodes form
    closed loops, each entered at its lowest index toward its first
    neighbour.  Returns (index list, closed) pairs.
    """
    first, second = nbr[:, 0], nbr[:, 1]
    nodes = np.arange(len(nbr))
    if keep is not None:
        first, second = np.where(keep[first], first, -1), np.where(keep[second], second, -1)
        first, second = np.where(first < 0, second, first), np.where(first < 0, -1, second)
        nodes = nodes[keep]
    ends = nodes[(first[nodes] >= 0) & (second[nodes] < 0)]
    first, second = first.tolist(), second.tolist()
    seen = [False] * len(nbr)
    loops = []
    for start in ends.tolist() + nodes.tolist():
        if seen[start]:
            continue
        seen[start] = True
        chain = [start]
        prev, cur = -1, start
        while True:
            nxt = first[cur] if first[cur] != prev else second[cur]
            if nxt < 0 or nxt == prev:
                closed = False
                break
            if seen[nxt]:               # only the start, on a graph of degree <= 2
                closed = nxt == start
                break
            seen[nxt] = True
            chain.append(nxt)
            prev, cur = cur, nxt
        loops.append((chain, closed))
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


def trace_critical_points(p: DhParams, grid_n: int = DEFAULT_GRID_N) -> CriticalSet:
    """Trace det J = 0 over the torus into the closed, refined polylines of
    a CriticalSet, which keeps the vertex-lattice det J sampled here.

    An empty set for a valid robot is a reportable anomaly, not an error.
    """
    validate_params(p)
    if grid_n < 64:
        raise ValueError("grid_n must be >= 64")
    scale = singularity_scale(p)
    field = functools.partial(det_jacobian, p)
    f, th = _sample_lattice(field, grid_n)
    ids, nbr = _marching_segments(f, th, field)
    pos = _crossing_points(f, th, ids)
    curves = []
    for chain, closed in _chain_loops(nbr):
        refined = _refine_on_zero_set(p, pos[chain], scale)
        g2, g3 = det_jacobian_grad(p, refined[:, 0], refined[:, 1])
        curves.append(JointCurve(refined, closed, np.hypot(g2, g3)))
    curves.sort(key=lambda c: (-len(c), float(c.vertices[0, 0]), float(c.vertices[0, 1])))
    return CriticalSet(p, grid_n, curves, f)


def critical_values(p: DhParams, curves) -> list:
    """Images of the critical-point curves in the (rho, z) half cross-section."""
    out = []
    for ci, curve in enumerate(curves):
        t2 = curve.vertices[:, 0]
        t3 = curve.vertices[:, 1]
        x, y, z = fk_arrays(p, 0.0, t2, t3)
        out.append(WorkspaceCurve(np.column_stack([np.hypot(x, y), z]), ci, curve))
    return out


# --------------------------------------------------------------------------
# batched Newton refinements on the conic restricted to the theta3 circle
#
# Every multiple-root system runs in theta3 itself, on g(theta3) =
# h0 + h1 . (cos, sin)(theta3) + h2 . (cos, sin)(2 theta3) (circle_harmonics),
# which no point of the circle makes ill-conditioned.  Only the certification
# reads the quartic M(t), in the chart _chart_seed picks.
# --------------------------------------------------------------------------

def _chart_seed(theta3: float):
    """(chart coordinate, flip flag) of the chart that keeps theta3 well
    conditioned: t = tan(theta3 / 2), or u = tan((theta3 - pi) / 2) when flipped."""
    if abs(theta3) <= math.pi / 2:
        return math.tan(theta3 / 2.0), False
    return math.tan(wrap_float(theta3 - math.pi) / 2.0), True


def _tan_half(theta3: float) -> float:
    return math.tan(theta3 / 2.0)


def _svd(jac):
    """Thin SVDs of a stack of matrices and a mask of those LAPACK decomposed."""
    try:
        return np.linalg.svd(jac, full_matrices=False), np.ones(len(jac), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    k, m, n = jac.shape
    r = min(m, n)
    u, s, vh = np.zeros((k, m, r)), np.zeros((k, r)), np.zeros((k, r, n))
    good = np.ones(k, dtype=bool)
    for i in range(k):
        try:
            u[i], s[i], vh[i] = np.linalg.svd(jac[i], full_matrices=False)
        except np.linalg.LinAlgError:
            good[i] = False
    return (u, s, vh), good


def _lstsq_steps(jac, fval):
    """Minimum-norm least-squares solutions of J step = F for a stack of systems.

    Singular values at or below eps max(m, n) s_max count as zero, which is
    np.linalg.lstsq's default cutoff.  Returns (steps, solved); a system is
    unsolved when J or F is not finite or its SVD does not converge.
    """
    k, m, n = jac.shape
    steps = np.zeros((k, n))
    solved = np.all(np.isfinite(jac), axis=(1, 2)) & np.all(np.isfinite(fval), axis=1)
    idx = np.nonzero(solved)[0]
    (u, s, vh), good = _svd(jac[idx])
    solved[idx[~good]] = False
    kept = s > np.finfo(float).eps * max(m, n) * s[:, :1]
    inv = np.where(kept, 1.0 / np.where(kept, s, 1.0), 0.0)
    coef = np.sum(u * fval[idx, :, None], axis=1) * inv
    steps[idx] = np.sum(vh * coef[:, :, None], axis=1)
    return steps, solved


def _damped_newton(fun_jac, x0):
    """Damped (Gauss-)Newton with step halving on ||F||^2, over a batch of seeds.

    `fun_jac(x, rows)` evaluates the systems of seeds `rows` (indices into
    the batch, repeated when a seed is tried at several points) at x of
    shape (len(rows), n) and returns F (len(rows), m) and J (len(rows), m, n).
    Each seed runs as it would alone: up to _NEWTON_MAX_ITER steps from least
    squares, so rank-deficient Jacobians (symmetry slices, overdetermined
    certification systems) degrade gracefully to the minimum-norm direction
    instead of blowing up; each step takes the first lambda of 1, 1/2, ...,
    2^-(_HALVINGS - 1) that makes ||F||^2 drop, and a seed stops at the
    first step where none does.  The line search costs at most two fun_jac
    calls per iteration: lambda = 1 for every active seed, then all the
    smaller lambdas of the seeds still pending, stacked in one call.
    Returns x (K, n); whether a seed found a root is for the caller's
    certification to decide.
    """
    x = np.array(x0, float)
    k, n = x.shape
    fval, jac = fun_jac(x, np.arange(k))
    norm2 = np.sum(fval * fval, axis=1)
    done = np.zeros(k, dtype=bool)
    lams = 0.5 ** np.arange(1, _HALVINGS)      # every lambda after the first
    for _ in range(_NEWTON_MAX_ITER):
        done |= norm2 == 0.0
        act = np.nonzero(~done)[0]
        if len(act) == 0:
            break
        step, solved = _lstsq_steps(jac[act], fval[act])
        done[act[~solved]] = True
        act, step = act[solved], step[solved]
        if len(act) == 0:
            continue
        xn = x[act] - step
        fn, jn = fun_jac(xn, act)
        n2 = np.sum(fn * fn, axis=1)
        better = n2 < norm2[act]
        up = act[better]
        x[up], fval[up], jac[up], norm2[up] = xn[better], fn[better], jn[better], n2[better]
        rows, step = act[~better], step[~better]
        if len(rows):
            # the smaller lambdas, seed-major: row r * len(lams) + l tries lams[l]
            xn = (x[rows][:, None, :] - lams[:, None] * step[:, None, :]).reshape(-1, n)
            fn, jn = fun_jac(xn, np.repeat(rows, len(lams)))
            n2 = np.sum(fn * fn, axis=1)
            drops = (n2 < np.repeat(norm2[rows], len(lams))).reshape(len(rows), -1)
            better = np.any(drops, axis=1)
            pick = (np.arange(len(rows)) * len(lams) + np.argmax(drops, axis=1))[better]
            up = rows[better]
            x[up], fval[up], jac[up], norm2[up] = xn[pick], fn[pick], jn[pick], n2[pick]
            rows = rows[~better]
        done[rows] = True
    return x


def _multiple_root_system(p: DhParams, mult: int):
    """g = g' = ... = g^(mult-1) = 0 in (theta3, R, z): mult 3 polishes the
    cusp seeds; mult 4 is the quadruple-root Newton the exact candidates
    replaced, kept for the tests' reference."""
    def fun_jac(x, rows):
        jet = circle_jet(circle_harmonics(p, x[:, 1], x[:, 2]), x[:, 0], mult)
        jac = np.stack([jet[:, 0, 1:], jet[:, 1, :mult], jet[:, 2, :mult]], axis=2)
        return jet[:, 0, :mult], jac
    return fun_jac


def _node_system(p: DhParams):
    """Two double roots at theta3 = m +/- arccos(e), by matching g's five
    harmonics against K (cos(theta3 - m) - e)^2 in (K, m, e, R, z).

    The square expands to K (1/2 + e^2), -2 K e (cos m, sin m) and
    K / 2 (cos 2m, sin 2m).  The system is square and stays well conditioned
    whether the double roots are far apart or nearly coincide (e -> 1, near
    a quadruple root), where evaluation-based formulations lose rank.
    """
    def fun_jac(x, rows):
        big_k, m, e = x[:, 0:1], x[:, 1], x[:, 2]
        h = circle_harmonics(p, x[:, 3], x[:, 4])
        c1, s1, c2, s2 = np.cos(m), np.sin(m), np.cos(2.0 * m), np.sin(2.0 * m)
        zero = np.zeros_like(m)
        q = np.column_stack([0.5 + e * e, -2.0 * e * c1, -2.0 * e * s1, 0.5 * c2, 0.5 * s2])
        dq_dm = np.column_stack([zero, 2.0 * e * s1, -2.0 * e * c1, -s2, c2])
        dq_de = np.column_stack([2.0 * e, -2.0 * c1, -2.0 * s1, zero, zero])
        jac = np.stack([-q, -big_k * dq_dm, -big_k * dq_de, h[:, 1], h[:, 2]], axis=2)
        return h[:, 0] - big_k * q, jac
    return fun_jac


def _residuals(p: DhParams, theta3, R, zr):
    """|M^(j)|, j = 0..3, at each theta3 (K,) of the quartic of the conic at
    (R, zr) scaled to max |coefficient| = 1, in the chart _chart_seed picks:
    dimensionless, whatever the robot's unit of length."""
    charts = [_chart_seed(t) for t in theta3.tolist()]
    u = np.array([c[0] for c in charts])
    flip = np.array([c[1] for c in charts], dtype=bool)
    cc = conic_raw(p, R, zr).T
    cc[flip, 3:5] = -cc[flip, 3:5]
    cc = cc / np.maximum(np.max(np.abs(cc), axis=1), 1e-300)[:, None]
    return np.abs(quartic_jet(quartic_coeffs_from_conic(cc.T).T, u, 3))


def _certify(p: DhParams, theta3, R, zr, mult: int):
    """(residuals (K, 4), certified (K,)) of roots of multiplicity `mult` at
    theta3 (K,) of the conics at (R, zr): the one acceptance rule of cusps
    (3), quadruple roots (4) and each double root of a node (2).  M, ...,
    M^(mult-1) of _residuals are at most CUSP_RESIDUAL_TOL, a cusp's |M'''|
    is at least CUSP_THIRD_DERIV_MIN, and rho^2 = R - zr^2 is at least
    -_RHO2_FLOOR L^2."""
    res = _residuals(p, theta3, R, zr)
    ok = ((R - zr * zr >= -_RHO2_FLOOR * length_scale(p) ** 2)
          & (np.max(res[:, :mult], axis=1) <= CUSP_RESIDUAL_TOL))
    if mult == 3:
        ok &= res[:, 3] >= CUSP_THIRD_DERIV_MIN
    return res, ok


# --------------------------------------------------------------------------
# cusps and nodes
# --------------------------------------------------------------------------

def _dedup_sorted(points, radius: float, quantum: float):
    """Points in (rho, z) order, dropping any within `radius` of one kept.

    The sort key is (rho, z) rounded to `quantum`, so mirror-image points
    whose rho ties up to rounding come out in one order whatever the last
    bits; ties keep their input order.
    """
    kept = []
    for pt in sorted(points, key=lambda c: (round(c[0] / quantum), round(c[1] / quantum))):
        if all(math.hypot(pt[0] - q[0], pt[1] - q[1]) > radius for q in kept):
            kept.append(pt)
    return kept


def find_cusps(p: DhParams, workspace_curves) -> list:
    """Locate all cusps: one Newton batch on {g = g' = g'' = 0} in (theta3,
    R, z) polishes the seeds of reduction.cusp_seeds, the real roots of the
    cusp locus E, and _certify accepts each find.

    `workspace_curves` is not read: the seeds come from p alone, so the
    cusps do not depend on the grid the curves were traced on.
    """
    lscale = length_scale(p)
    theta3, R, zr = cusp_seeds(p)
    if len(theta3) == 0:
        return []
    x = _damped_newton(_multiple_root_system(p, 3), np.column_stack([theta3, R, zr]))
    theta3, R, zr = wrap_angle(x[:, 0]), x[:, 1], x[:, 2]
    res, certified = _certify(p, theta3, R, zr, 3)
    log.debug("%d of %d cusp seeds not certified", int(np.sum(~certified)), len(theta3))
    found = [(math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)), float(zr[k] + p.d1),
              _tan_half(float(theta3[k])), *(float(r) for r in res[k]))
             for k in np.nonzero(certified)[0]]
    kept = _dedup_sorted(found, DEDUP_RADIUS * lscale, 1e-9 * lscale)
    return [CuspPoint(*c) for c in kept]


def _median_step(workspace_curves) -> float:
    steps = []
    for wc in workspace_curves:
        d = np.diff(wc.vertices, axis=0)
        if len(d):
            steps.append(np.median(np.hypot(d[:, 0], d[:, 1])))
    return float(np.median(steps)) if steps else 0.0


def _refine_nodes(p: DhParams, cands) -> list:
    """Newton-refine node candidates (theta3_a, theta3_b, rho, z) in one
    _node_system batch, seeded at the mean m and the cosine e of the half
    gap of the candidate's two tangency angles, with K from h2, which fixes
    K / 2 (cos 2m, sin 2m) whatever the target.  Returns, per candidate,
    (th1, th2, R, zr), or None where the double roots are not real
    (|e| > 1)."""
    if not cands:
        return []
    th3a, th3b, rho, z = np.array(cands, float).T
    zr = z - p.d1
    R = rho * rho + zr * zr
    half = wrap_angle(th3b - th3a) / 2.0
    m = th3a + half
    h = circle_harmonics(p, R, zr)[:, 0]
    big_k = 2.0 * (h[:, 3] * np.cos(2.0 * m) + h[:, 4] * np.sin(2.0 * m))
    x = _damped_newton(_node_system(p), np.column_stack([big_k, m, np.cos(half), R, zr]))
    _, m, e, R, zr = x.T
    live = np.abs(e) <= 1.0
    d = np.arccos(np.where(live, e, 1.0))
    th1, th2 = wrap_angle(m + d), wrap_angle(m - d)
    return [(t1, t2, r, z) if ok else None
            for t1, t2, r, z, ok in zip(th1.tolist(), th2.tolist(), R.tolist(), zr.tolist(),
                                        live.tolist())]


def _segments(workspace_curves):
    """(seg_a, seg_b), each (S, 2): the critical-value segments, each vertex
    to the next around its curve, curve by curve, vertex by vertex."""
    seg_a = np.vstack([np.empty((0, 2))] + [w.vertices for w in workspace_curves])
    seg_b = np.vstack([np.empty((0, 2))]
                      + [np.roll(w.vertices, -1, axis=0) for w in workspace_curves])
    return seg_a, seg_b


def _segment_theta3(workspace_curves) -> np.ndarray:
    """theta3 at the first vertex of every critical-value segment, in the
    order _segments lists them."""
    return np.concatenate([np.empty(0)] + [w.joint.vertices[:, 1] for w in workspace_curves])


def find_nodes(p: DhParams, workspace_curves) -> list:
    """Locate all nodes: Newton on the two-double-root system.

    Candidates are crossings of the critical-value polylines (including
    self-intersections) from one vectorised segment sweep, which leaves out
    the segments too short to cross any other (_MIN_CROSS).  Candidates
    collapsing to a cusp (t1 -> t2) are rejected, and both double roots of
    every other one are certified by _certify in one batch.  The survivors
    are solved in one solve_ik_batch call, and a node is one whose IK shows
    exactly two distinct roots, both double.
    """
    lscale = length_scale(p)
    seg_a, seg_b = _segments(workspace_curves)
    # where the critical values collapse the median step is rounding, and a
    # cell that small would list a long segment in ~(length / cell)^2 buckets
    extent = float(np.ptp(seg_a, axis=0).max()) if len(seg_a) else 0.0
    cell = max(_median_step(workspace_curves) * 4.0, extent / _HASH_SPAN)
    sizes = [len(w) for w in workspace_curves]
    curve = np.repeat(np.array([w.source_index for w in workspace_curves], dtype=int), sizes)
    size = np.repeat(np.array(sizes, dtype=int), sizes)
    d = seg_b - seg_a
    length = np.hypot(d[:, 0], d[:, 1])
    # the global index of every segment the sweep sees, in its order
    swept = np.nonzero(length * np.max(length, initial=0.0) >= _MIN_CROSS)[0]
    ia, ib = _candidate_pairs(seg_a[swept], seg_b[swept], cell)
    if len(ia) == 0:
        return []
    ia, ib = swept[ia], swept[ib]
    # a curve's segments are consecutive, so global index gaps are vertex gaps
    neighbours = (curve[ia] == curve[ib]) & (
        np.minimum((ia - ib) % size[ia], (ib - ia) % size[ia]) <= 1)
    ia, ib = ia[~neighbours], ib[~neighbours]
    hit, pts = seg_intersect_many(seg_a[ia], seg_b[ia], seg_a[ib], seg_b[ib])
    ia, ib = ia[hit], ib[hit]
    th3 = _segment_theta3(workspace_curves)
    cands = [(a, b, rho, z) for a, b, (rho, z)
             in zip(th3[ia].tolist(), th3[ib].tolist(), pts[hit].tolist())]
    # a candidate whose double roots collapse to one is a cusp
    live = [(ref, pair) for ref, pair in zip(_refine_nodes(p, cands),
                                             zip(curve[ia].tolist(), curve[ib].tolist()))
            if ref is not None and abs(wrap_float(ref[0] - ref[1])) >= 1e-4]
    th1, th2, R, zr = np.array([ref for ref, _ in live], float).reshape(-1, 4).T
    n = len(live)
    res, certified = _certify(p, np.concatenate([th1, th2]), np.tile(R, 2), np.tile(zr, 2), 2)
    worst = np.max(res[:, :2].reshape(2, n, 2), axis=(0, 2))
    certified = certified[:n] & certified[n:]
    log.debug("%d of %d node candidates not certified", int(np.sum(~certified)), n)
    found = []
    for k in np.nonzero(certified)[0].tolist():
        tlo, thi = sorted((_tan_half(float(th1[k])), _tan_half(float(th2[k]))))
        found.append((math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)), float(zr[k] + p.d1),
                      tlo, thi, float(worst[k]), tuple(sorted(live[k][1]))))
    ik = solve_ik_batch(p, [f[0] for f in found], [f[1] for f in found])
    roots = np.bincount(ik.row, minlength=len(found))
    doubles = np.bincount(ik.row[ik.mult == 2], minlength=len(found))
    found = [f for f, ok in zip(found, (ik.status == 0) & (roots == 2) & (doubles == 2)) if ok]
    kept = _dedup_sorted(found, DEDUP_RADIUS * lscale, 1e-9 * lscale)
    return [NodePoint(*c) for c in kept]


# --------------------------------------------------------------------------
# genericity
# --------------------------------------------------------------------------

def genericity_check(p: DhParams, grid_n: int, curves: CriticalSet, workspace_curves,
                     cusps) -> GenericityReport:
    """Three genericity tests: no quadruple roots, smooth critical curves,
    no isolated singular points on the lattice.  `curves` is p's CriticalSet
    traced on grid_n (ValueError otherwise); its samples are read, not
    redrawn.  `workspace_curves` and `cusps` are not read: test (a) certifies
    the exact candidates of reduction.quadruple_candidates, which come from p
    alone, and runs no Newton."""
    curves.check(p, grid_n)
    scale = singularity_scale(p)
    evidence = []

    # (a) quadruple roots: _certify at the candidates; the evidence is the
    # first certified one, in candidate order
    theta3, R, zr = quadruple_candidates(p)
    res, certified = _certify(p, theta3, R, zr, 4)
    certified = np.nonzero(certified)[0]
    if len(certified):
        k = certified[0]
        evidence.append({"kind": "quadruple_root",
                         "rho": math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)),
                         "z": float(zr[k] + p.d1),
                         "t": _tan_half(float(theta3[k])),
                         "residual": float(np.max(res[k]))})

    # (b) the critical curve must be smooth: |grad det J| bounded away from 0
    worst = min((float(np.min(c.grad_norm)) for c in curves if len(c)), default=math.inf)
    if worst < 1e-5 * scale:
        evidence.append({"kind": "curve_gradient", "min_grad": worst})

    # (c) isolated singular points: small |det J| at a lattice point far from
    # every cell the traced curves cross
    on_curve = _mixed_cells(curves.det_vertex < 0)
    near_curve = on_curve.copy()
    for shift in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        near_curve |= np.roll(np.roll(on_curve, shift[0], axis=0), shift[1], axis=1)
    isolated = (np.abs(curves.det_vertex) < 1e-6 * scale) & ~near_curve
    if bool(np.any(isolated)):
        ii, jj = np.nonzero(isolated)
        evidence.append({
            "kind": "isolated_singular_cells",
            "count": int(len(ii)),
            "first_cell": (-math.pi + TWO_PI * np.array([ii[0], jj[0]]) / grid_n).tolist(),
        })

    if not curves:
        evidence.append({"kind": "empty_critical_set"})

    return GenericityReport(len(evidence) == 0, tuple(evidence))


# --------------------------------------------------------------------------
# workspace census
# --------------------------------------------------------------------------

def _segment_buckets(seg_a, seg_b, cell: float):
    """Inclusive bucket ranges (lo (S, 2), hi (S, 2)) of the segments' bounding
    boxes on a uniform hash of side `cell`: the buckets that list each segment."""
    ka, kb = np.floor(seg_a / cell).astype(int), np.floor(seg_b / cell).astype(int)
    return np.minimum(ka, kb), np.maximum(ka, kb)


def _expand(counts):
    """(owner, offset) of every entry k < counts[r] of every owner r, in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _candidate_pairs(seg_a, seg_b, cell: float):
    """Index pairs (first < second) of segments that share a bucket of a
    uniform hash of side `cell`, each pair once.

    The pairs come in the order of a walk over the buckets in (i, j) order
    that lists, for each bucket, the upper triangle of its segments in
    ascending index order, keeping each pair where the walk first meets it.
    """
    lo, hi = _segment_buckets(seg_a, seg_b, cell)
    span = hi - lo + 1
    seg, off = _expand(span[:, 0] * span[:, 1])
    bi, bj = lo[seg, 0] + off // span[seg, 1], lo[seg, 1] + off % span[seg, 1]
    order = np.lexsort((seg, bj, bi))
    seg, bi, bj = seg[order], bi[order], bj[order]
    # every entry pairs with the entries after it in its bucket
    last = np.append((bi[1:] != bi[:-1]) | (bj[1:] != bj[:-1]), True)
    end = np.flatnonzero(last)
    after = end[np.searchsorted(end, np.arange(len(seg)))] - np.arange(len(seg))
    entry, k = _expand(after)
    first, second = seg[entry], seg[entry + 1 + k]
    _, seen = np.unique(first * len(lo) + second, return_index=True)
    seen.sort()
    return first[seen], second[seen]


def _bucket_pairs(lo, hi, bx, by, reach: int):
    """(segment, i, j) for every grid query (i, j) whose hash bucket
    (bx[i], by[j]) lies within `reach` buckets of a segment's bucket range,
    which is when a radius-`reach` bucket query there lists the segment.
    bx and by must be non-decreasing."""
    i0 = np.searchsorted(bx, lo[:, 0] - reach, "left")
    i1 = np.searchsorted(bx, hi[:, 0] + reach, "right")
    j0 = np.searchsorted(by, lo[:, 1] - reach, "left")
    j1 = np.searchsorted(by, hi[:, 1] + reach, "right")
    nj = j1 - j0
    seg, off = _expand((i1 - i0) * nj)
    nj = nj[seg]
    return seg, i0[seg] + off // np.maximum(nj, 1), j0[seg] + off % np.maximum(nj, 1)


def _census_clearance(rc, zc, seg_a, seg_b, cell: float, margin: float):
    """clear[i, j]: no segment passes within `margin` of the center
    (rc[i], zc[j]).  Candidates are the segments a radius-1 bucket query
    on a hash of side `cell` lists, which includes every segment within
    margin < cell; distances are to each segment's closest point."""
    lo, hi = _segment_buckets(seg_a, seg_b, cell)
    seg, i, j = _bucket_pairs(lo, hi, np.floor(rc / cell).astype(int),
                              np.floor(zc / cell).astype(int), 1)
    centers = np.column_stack([rc[i], zc[j]])
    a, ab = seg_a[seg], seg_b[seg] - seg_a[seg]
    vv = np.sum(ab * ab, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(vv == 0.0, 0.0,
                     np.minimum(1.0, np.maximum(0.0, np.sum((centers - a) * ab, axis=1) / vv)))
    off = centers - (a + u[:, None] * ab)
    near = np.hypot(off[:, 0], off[:, 1]) < margin
    clear = np.ones((len(rc), len(zc)), dtype=bool)
    clear[i[near], j[near]] = False
    return clear


def _census_crossings(rc, zc, clear, seg_a, seg_b, cell: float):
    """Crossings of the segments joining adjacent clear census centers.

    Pair e = 2 (i n + j) + d joins center (i, j) to (i + 1, j) (d = 0) or
    (i, j + 1) (d = 1).  Its crossings are the segments listed by a radius-2
    bucket query around its midpoint (hash of side `cell`) that
    seg_intersect_many hits with the joining segment.  Returns the crossing
    count per pair (0 for pairs not both clear) and, where it is 1, the
    crossing segment's index.
    """
    n = len(rc)
    lo, hi = _segment_buckets(seg_a, seg_b, cell)
    crossings = np.zeros(2 * n * n, dtype=int)
    hit_seg = np.zeros(2 * n * n, dtype=int)
    mid_r, mid_z = 0.5 * (rc[:-1] + rc[1:]), 0.5 * (zc[:-1] + zc[1:])
    for d, (bx, by) in enumerate(((mid_r, zc), (rc, mid_z))):
        seg, i, j = _bucket_pairs(lo, hi, np.floor(bx / cell).astype(int),
                                  np.floor(by / cell).astype(int), 2)
        i2, j2 = i + (1 - d), j + d
        both = clear[i, j] & clear[i2, j2]
        seg, i, j, i2, j2 = seg[both], i[both], j[both], i2[both], j2[both]
        hit, _ = seg_intersect_many(np.column_stack([rc[i], zc[j]]),
                                    np.column_stack([rc[i2], zc[j2]]),
                                    seg_a[seg], seg_b[seg])
        e = 2 * (i[hit] * n + j[hit]) + d
        np.add.at(crossings, e, 1)
        hit_seg[e] = seg[hit]
    return crossings, hit_seg


def region_census(p: DhParams, workspace_curves, census_n: int = 128):
    """IKS counts over the padded bounding box of p's critical values.

    Counts come from one ik_counts pass over the cell centers.  A cell is
    clear when no critical-value segment passes within 0.3 of a cell of its
    center.  The audit walks adjacent clear cells: segments listed by a
    radius-2 bucket query around the pair's midpoint (on a hash of the
    smaller cell side) that cross the segment joining the two centers are
    its crossings.  Without one the counts must be equal; with exactly one
    they must differ by exactly 2, and the boundary point between them must
    carry the intermediate count.  That point is the crossed segment's first
    vertex, the image of a traced vertex of S and so a point of the critical
    values, counted by ik_counts, the cells' root rule.  The walk, in
    row-major pair order, samples up to MAX_BOUNDARY_SAMPLES of them per
    (low, high) boundary kind, all counted in one call.  The clearance and
    the crossings of all pairs are computed in one array pass each.
    """
    validate_params(p)
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

    seg_a, seg_b = _segments(workspace_curves)
    cell = float(min(rho_edges[1] - rho_edges[0], z_edges[1] - z_edges[0]))
    clear = _census_clearance(rc, zc, seg_a, seg_b, cell, 0.3 * cell)
    crossings, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, cell)

    n_pairs = 2 * census_n * census_n
    e = np.arange(n_pairs)
    i, j, d = e // (2 * census_n), (e // 2) % census_n, e % 2
    i2, j2 = i + (1 - d), j + d
    inside = (i2 < census_n) & (j2 < census_n)
    i2, j2 = np.minimum(i2, census_n - 1), np.minimum(j2, census_n - 1)
    both = inside & clear[i, j] & clear[i2, j2]
    c_a, c_b = counts[i, j], counts[i2, j2]
    audited = both & (crossings == 1)

    violations = []               # (pair, violation), a pair has at most one
    picked = []                   # (pair, low, high) of each boundary sample
    samples_per_kind = defaultdict(int)
    for k in np.nonzero(audited | (both & (crossings == 0) & (c_a != c_b)))[0].tolist():
        cells = [[int(i[k]), int(j[k])], [int(i2[k]), int(j2[k])]]
        pair_counts = [int(c_a[k]), int(c_b[k])]
        if crossings[k] == 0:
            violations.append((k, {"kind": "no_crossing_count_change",
                                   "cells": cells, "counts": pair_counts}))
            continue
        if abs(pair_counts[0] - pair_counts[1]) != 2:
            violations.append((k, {"kind": "adjacent_region_delta",
                                   "cells": cells, "counts": pair_counts}))
            continue
        low, high = min(pair_counts), max(pair_counts)
        if samples_per_kind[(low, high)] < MAX_BOUNDARY_SAMPLES:
            samples_per_kind[(low, high)] += 1
            picked.append((k, low, high))
    boundary = seg_a[hit_seg[[k for k, _, _ in picked]]].reshape(-1, 2)
    samples = []
    for (rr, zz), cnt, (k, low, high) in zip(
            boundary.tolist(), ik_counts(p, boundary[:, 0], boundary[:, 1]).tolist(), picked):
        samples.append(BoundarySample(rr, zz, cnt, low, high))
        if cnt != low + 1:
            violations.append((k, {"kind": "boundary_count", "point": [rr, zz],
                                   "count": cnt, "expected": low + 1}))
    violations.sort(key=lambda v: v[0])
    return RegionCensus(rho_edges, z_edges, counts, int(np.sum(audited)),
                        tuple(v for _, v in violations), tuple(samples))
