"""Critical points on the (theta2, theta3) torus and critical values in (rho, z).

Marching squares traces the zero set of det(J); its image under the forward
map is the locus of critical values.  Cusps are triple roots of the IK
quartic (M = M' = M'' = 0, M''' != 0), nodes are pairs of distinct double
roots, and quadruple roots make a robot non-generic.  Cusps are the real
roots of the cusp locus E(theta3), polished on its branches in theta3 alone,
and quadruple roots are checked at its exact candidates (reduction.cusp_seeds,
polish_cusps, quadruple_candidates); nodes are the real roots of two
quadratics (find_nodes).  Every find is certified post hoc by the defining
residuals of M.
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
    _theta3_terms,
    det_coefficients,
    det_jacobian,
    det_jacobian_jet,
    fk_arrays,
    length_scale,
    singularity_scale,
    validate_params,
    wrap_angle,
    wrap_float,
)
from .geometry import seg_intersect_many
from .reduction import (
    _cusp_locus,
    _locus_targets,
    conic_raw,
    cusp_seeds,
    ik_counts,
    polish_cusps,
    quadruple_candidates,
    quartic_coeffs_from_conic,
    quartic_jet,
)

log = logging.getLogger(__name__)

DEFAULT_GRID_N = 720
_REFINE_TOL = 1e-13  # target |det J| / scale after vertex refinement
# root certification on the max-normalised quartic (_residuals), whose
# residuals have no unit; only rho^2 and the dedup radius carry lengths
CUSP_RESIDUAL_TOL = 1e-7      # |M|, ..., |M^(mult-1)| at a root of multiplicity mult
CUSP_THIRD_DERIV_MIN = 0.25   # |M'''| at a cusp, keeping quadruple roots out
_RHO2_FLOOR = 1e-12           # times L^2: rounding allowance below rho^2 = 0
DEDUP_RADIUS = 1e-4           # times L: certified points closer than this are one
MAX_BOUNDARY_SAMPLES = 20     # census boundary samples per (low, high) count pair
# a node quadratic whose every coefficient is within this many ulps of the
# summed magnitudes of its terms is identically zero (parabola_conic's K > 0
# branch reads 1.5 ulps; the other battery robots, the screen robots and 600
# random, tilted and orthogonal draws read at least 2e14 on both branches)
_NODE_QUADRATIC_ZERO = 64


@dataclass(frozen=True)
class JointCurve:
    """Closed loop of critical points on the torus: the last vertex joins
    the first."""

    vertices: np.ndarray          # (n, 2) theta2, theta3 in [-pi, pi)
    grad_norm: np.ndarray         # (n,) |grad det J| per vertex

    def __len__(self):
        return len(self.vertices)


class CriticalSet(tuple):
    """The JointCurves of S = {det J = 0}, longest first, traced for `robot` on the
    grid_n x grid_n vertex lattice, with what later stages read: det J on that lattice
    (det_vertex) and the _marching_segments ids of its sign-change edges (crossings)."""

    def __new__(cls, robot: DhParams, grid_n: int, curves, det_vertex: np.ndarray,
                crossings: np.ndarray):
        self = super().__new__(cls, curves)
        self.robot, self.grid_n = robot, grid_n
        self.det_vertex, self.crossings = det_vertex, crossings
        return self

    def check(self, p: DhParams, grid_n: int) -> None:
        if p != self.robot or grid_n != self.grid_n:
            raise ValueError(f"critical set traced for another robot or grid ({self.grid_n})")


@dataclass(frozen=True)
class WorkspaceCurve:
    """Image of a JointCurve in the (rho, z) half cross-section."""

    vertices: np.ndarray          # (n, 2) rho, z
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

def _with_next(ufunc, a: np.ndarray, axis: int) -> np.ndarray:
    """The booleans ufunc(a, np.roll(a, -1, axis)) without the rolled copy: each
    point against its next neighbour along `axis` on the wrapped lattice."""
    out = np.empty(a.shape, dtype=bool)
    v, o = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
    ufunc(v[:-1], v[1:], out=o[:-1])
    ufunc(v[-1], v[0], out=o[-1])
    return out


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
    u, v = (np.flatnonzero(_with_next(np.not_equal, neg, axis)) for axis in (0, 1))
    ids = np.concatenate([u, n * n + v])
    # the mixed cells: (i, j) and (i, j - 1) of each u(i, j), (i, j) and (i - 1, j) of each v(i, j)
    mixed = np.zeros(n * n, dtype=bool)
    mixed[u] = mixed[u - u % n + (u - 1) % n] = mixed[v] = mixed[(v - n) % (n * n)] = True
    ci, cj = np.divmod(np.flatnonzero(mixed), n)
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
    # each node ends one pair in each of its two cells: its neighbours are
    # the other ends at its first and its last occurrence, in the cells' order
    ends, slot = pairs.ravel(), np.arange(pairs.size)
    first, last = np.full(len(ids), pairs.size), np.zeros(len(ids), dtype=int)
    np.minimum.at(first, ends, slot)
    np.maximum.at(last, ends, slot)
    return ids, pairs[:, ::-1].ravel()[np.column_stack([first, last])]


def _edge_ends(ids: np.ndarray, n: int):
    """Whether the grid edge of each _marching_segments node id runs along
    theta3 (a v node), and its two ends: (i, j), then (i + 1, j) or (i, j + 1)."""
    along_v, flat = np.divmod(ids, n * n)
    i, j = np.divmod(flat, n)
    return along_v, (i, j), ((i + 1 - along_v) % n, (j + along_v) % n)


def _crossing_points(f: np.ndarray, th: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(m, 2) positions of crossing nodes, linearly interpolated along their
    grid edges (_edge_ends)."""
    n = len(th)
    along_v, (i, j), far = _edge_ends(ids, n)
    f0 = f[i, j]
    frac = f0 / (f0 - f[far])
    step = np.where(along_v[:, None] == 1, (0.0, TWO_PI / n), (TWO_PI / n, 0.0))
    return np.column_stack([th[i], th[j]]) + frac[:, None] * step


def _sample_lattice(p: DhParams, grid_n: int):
    """det J on the wrapped vertex lattice th x th, th_k = -pi + k 2 pi /
    grid_n, the one lattice every torus map reads; returns (values, th).  A,
    B and C are evaluated once, on the theta3 axis; blocks of 48 rows, which
    keep the temporaries small, sum cos(theta2) A + sin(theta2) B + C in
    det_jacobian's order, so each value is the one the angles give pointwise."""
    th = -math.pi + TWO_PI * np.arange(grid_n) / grid_n
    a, b, c = _theta3_terms(th, det_coefficients(p))
    out = np.empty((grid_n, grid_n))
    for i in range(0, grid_n, 48):
        block = out[i:i + 48]
        np.multiply(np.cos(th[i:i + 48, None]), a, out=block)
        block += np.sin(th[i:i + 48, None]) * b
        block += c
    return out, th


def _chain_loops(nbr: np.ndarray) -> list:
    """Walk a crossing graph into its loops of node indices, each entered at
    its lowest index toward its first neighbour.  `nbr` (m, 2) holds each
    node's two neighbours: on the wrapped lattice every crossed edge borders
    two mixed cells, so every chain of _marching_segments is closed."""
    first, second = nbr[:, 0].tolist(), nbr[:, 1].tolist()
    seen = [False] * len(nbr)
    loops = []
    for start in range(len(nbr)):
        if seen[start]:
            continue
        seen[start] = True
        chain = [start]
        prev, cur = -1, start
        while True:
            nxt = first[cur] if first[cur] != prev else second[cur]
            if seen[nxt]:               # only the start, on a graph of degree 2
                break
            seen[nxt] = True
            chain.append(nxt)
            prev, cur = cur, nxt
        loops.append(chain)
    return loops


def _refine_on_zero_set(p: DhParams, pts: np.ndarray, scale: float) -> np.ndarray:
    """Newton steps along the gradient onto det J = 0 (vectorized).

    Runs to (near) machine precision so that the quartic at each image point
    keeps its double root within the clustering radius.  Each step takes the
    value and the gradient from one evaluation of the trig.
    """
    pts = pts.copy()
    for _ in range(20):
        fval, g2, g3 = det_jacobian_jet(p, pts[:, 0], pts[:, 1])
        if float(np.max(np.abs(fval))) < _REFINE_TOL * scale:
            break
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
    f, th = _sample_lattice(p, grid_n)
    ids, nbr = _marching_segments(f, th, functools.partial(det_jacobian, p))
    pos = _crossing_points(f, th, ids)
    curves = []
    for chain in _chain_loops(nbr):
        refined = _refine_on_zero_set(p, pos[chain], scale)
        curves.append(JointCurve(refined, np.hypot(*det_jacobian_jet(p, *refined.T)[1:])))
    curves.sort(key=lambda c: (-len(c), float(c.vertices[0, 0]), float(c.vertices[0, 1])))
    return CriticalSet(p, grid_n, curves, f, ids)


def critical_values(p: DhParams, curves) -> list:
    """Images of the critical-point curves in the (rho, z) half cross-section."""
    out = []
    for curve in curves:
        t2 = curve.vertices[:, 0]
        t3 = curve.vertices[:, 1]
        x, y, z = fk_arrays(p, 0.0, t2, t3)
        out.append(WorkspaceCurve(np.column_stack([np.hypot(x, y), z]), curve))
    return out


# --------------------------------------------------------------------------
# certification
#
# Cusps, quadruple roots and nodes are found in theta3 on the conic restricted
# to the unit circle (reduction's cusp locus), which no point of the circle
# makes ill-conditioned.  Only the certification reads the quartic M(t), in
# the chart _chart_seed picks.
# --------------------------------------------------------------------------

def _chart_seed(theta3: float):
    """(chart coordinate, flip flag) of the chart that keeps theta3 well
    conditioned: t = tan(theta3 / 2), or u = tan((theta3 - pi) / 2) when flipped."""
    if abs(theta3) <= math.pi / 2:
        return math.tan(theta3 / 2.0), False
    return math.tan(wrap_float(theta3 - math.pi) / 2.0), True


def _residuals(p: DhParams, theta3, R, zr):
    """|M^(j)|, j = 0..3, at each theta3 (K,) of the quartic of the conic at
    (R, zr) scaled to max |coefficient| = 1, in the chart _chart_seed picks:
    dimensionless, whatever the robot's unit of length; NaN where the conic
    vanishes identically (every theta3 solves there, and none certifies)."""
    charts = [_chart_seed(t) for t in theta3.tolist()]
    u = np.array([c[0] for c in charts])
    flip = np.array([c[1] for c in charts], dtype=bool)
    cc = conic_raw(p, R, zr).T
    cc[flip, 3:5] = -cc[flip, 3:5]
    with np.errstate(invalid="ignore"):
        cc = cc / np.max(np.abs(cc), axis=1)[:, None]
    return np.abs(quartic_jet(quartic_coeffs_from_conic(cc.T).T, u, 3))


def _certify(p: DhParams, theta3, R, zr, mult: int):
    """(residuals (K, 4), certified (K,)) of roots of multiplicity `mult` at
    theta3 (K,) of the conics at (R, zr): the one acceptance rule of cusps
    (3), quadruple roots (4) and each double root of a node (2).  M, ...,
    M^(mult-1) of _residuals are at most CUSP_RESIDUAL_TOL (so a vanishing
    conic is refused), a cusp's |M'''| is at least CUSP_THIRD_DERIV_MIN, and
    rho^2 = R - zr^2 is at least -_RHO2_FLOOR L^2."""
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
    """Locate all cusps: reduction.polish_cusps polishes the seeds of
    reduction.cusp_seeds, the real roots of the cusp locus E, on their
    branches of E in theta3 alone, and _certify accepts each find.

    `workspace_curves` is not read: the seeds come from p alone, so the
    cusps do not depend on the grid the curves were traced on.
    """
    lscale = length_scale(p)
    theta3, sigma = cusp_seeds(p)
    if len(theta3) == 0:
        return []
    theta3, R, zr = polish_cusps(p, theta3, sigma)
    res, certified = _certify(p, theta3, R, zr, 3)
    log.debug("%d of %d cusp seeds not certified", int(np.sum(~certified)), len(theta3))
    found = [(math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)), float(zr[k] + p.d1),
              math.tan(float(theta3[k]) / 2.0), *(float(r) for r in res[k]))
             for k in np.nonzero(certified)[0]]
    kept = _dedup_sorted(found, DEDUP_RADIUS * lscale, 1e-9 * lscale)
    return [CuspPoint(*c) for c in kept]


def _quadratic_roots(qa: float, qb: float, qc: float) -> list:
    """Real roots of qa t^2 + qb t + qc by the formula free of cancellation:
    a double root comes out twice, the root of a linear one once."""
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    q = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
    return ([q / qa] if qa != 0.0 else []) + ([qc / q] if q != 0.0 else [])


def _node_candidates(p: DhParams):
    """(theta3_a, theta3_b, R, zr) of every real node candidate of p, from the
    two quadratics of find_nodes, the two tangency angles m +/- arccos e."""
    loc = _cusp_locus(p)
    if loc.s[0] == 0.0 or not loc.h2.any():
        return np.empty((4, 0))
    s1, s2 = loc.s.tolist()
    c1, c2 = (-(loc.uvw @ loc.u)).tolist()
    k_abs, m0 = 2.0 * math.hypot(*loc.h2), 0.5 * math.atan2(loc.h2[1], loc.h2[0])
    cands = []
    for big_k, m in ((k_abs, m0), (-k_abs, m0 + 0.5 * math.pi)):
        b1, b2 = (-big_k * (np.array([math.cos(m), math.sin(m)]) @ loc.u)).tolist()
        n = np.array([s1 * s2, b1 * s2, s1 * b2])
        norm2 = float(n @ n)
        if norm2 == 0.0:
            continue                      # s2 = b2 = 0: no line, so no isolated node
        x0 = (c1 * np.array([b1 * s2 * s2, -s1 * (s2 * s2 + b2 * b2), b1 * b2 * s2])
              + c2 * np.array([s1 * s1 * b2, s1 * b1 * b2, -s2 * (s1 * s1 + b1 * b1)])) / norm2
        # |eta|^2 - r0 - K (1/2 + e^2) at (e, eta) = x0 + t n, term by term
        terms = np.array([
            [n[1] * n[1], n[2] * n[2], -big_k * n[0] * n[0], 0.0],
            [2.0 * x0[1] * n[1], 2.0 * x0[2] * n[2], -2.0 * big_k * x0[0] * n[0], 0.0],
            [x0[1] * x0[1], x0[2] * x0[2], -big_k * (0.5 + x0[0] * x0[0]), -loc.r0]])
        quad = np.sum(terms, axis=1)
        if np.all(np.abs(quad) <= _NODE_QUADRATIC_ZERO * np.finfo(float).eps
                  * np.sum(np.abs(terms), axis=1)):
            log.debug("node quadratic of the K = %.17g branch is identically zero", big_k)
            continue
        for t in _quadratic_roots(*quad.tolist()):
            e, eta1, eta2 = (x0 + t * n).tolist()
            if abs(e) < 1.0:
                d = math.acos(e)
                cands.append((m + d, m - d, eta1, eta2))
    th_a, th_b, eta1, eta2 = np.array(cands, float).reshape(-1, 4).T
    return (wrap_angle(th_a), wrap_angle(th_b),
            *_locus_targets(p, loc, np.column_stack([eta1, eta2])))


def find_nodes(p: DhParams, workspace_curves) -> list:
    """Locate all nodes in closed form, with no seed, grid or Newton.

    At a node the conic on the theta3 circle is g = K (cos(theta3 - m) -
    e)^2 with |e| < 1, and g's harmonics (reduction's cusp locus) read:

    - h2 = K / 2 (cos 2m, sin 2m), which no target changes: (K, m) is (2 |h2|,
      arg h2 / 2) or (-2 |h2|, arg h2 / 2 + pi / 2), as (K, m + pi) is the same
      square with e negated;
    - h1 = 2 (P y - (UW, VW)) = -2 K e (cos m, sin m), linear in y = (pw, qw):
      in P's singular basis (reduction's cusp locus), s_i eta_i = a_i + b_i e
      with a = U^T (UW, VW) and b = -K U^T (cos m, sin m), a line x0 + t n in
      (e, eta1, eta2).  n = (s1 s2, b1 s2, s1 b2) is the cross product of the
      rows of [[b1, -s1, 0], [b2, 0, -s2]] and x0 its point orthogonal to n;
      both are sums of products of one sign, so the line stays well
      conditioned as s2 -> 0 (orthogonal robots);
    - h0 = |eta|^2 - r0 = K (1/2 + e^2), a quadratic in t on that line.

    So a robot has at most 4 nodes.  Each real root with |e| < 1 is a
    candidate at the target of its eta.  A candidate whose two tangency
    angles are less than 1e-4 apart is a cusp's; every other one is a node
    when _certify, in one batch, certifies both double roots (no IK is
    solved, so the nodes read nothing of the oracle).  A branch whose three
    coefficients all lie within their rounding bound (_NODE_QUADRATIC_ZERO)
    is identically zero, a family of two-double-root targets as on
    parabola_conic, and lists no node.

    `workspace_curves` is not read: the nodes come from p alone, so they do
    not depend on the grid the curves were traced on.
    """
    lscale = length_scale(p)
    th1, th2, R, zr = _node_candidates(p)
    n = len(R)
    res, certified = _certify(p, np.concatenate([th1, th2]), np.tile(R, 2), np.tile(zr, 2), 2)
    worst = np.max(res[:, :2].reshape(2, n, 2), axis=(0, 2))
    # a candidate whose double roots collapse to one is a cusp
    certified = certified[:n] & certified[n:] & (np.abs(wrap_angle(th1 - th2)) >= 1e-4)
    log.debug("%d of %d node candidates not accepted", int(np.sum(~certified)), n)
    found = []
    for k in np.nonzero(certified)[0].tolist():
        tlo, thi = sorted((math.tan(float(th1[k]) / 2.0), math.tan(float(th2[k]) / 2.0)))
        found.append((math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)), float(zr[k] + p.d1),
                      tlo, thi, float(worst[k])))
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
    # first certified one, in candidate order, and the first whose conic
    # vanishes identically (every theta3 solves there)
    theta3, R, zr = quadruple_candidates(p)
    res, certified = _certify(p, theta3, R, zr, 4)
    rho = np.sqrt(np.maximum(R - zr * zr, 0.0))
    for k in np.flatnonzero(certified)[:1].tolist():
        evidence.append({"kind": "quadruple_root", "rho": float(rho[k]), "z": float(zr[k] + p.d1),
                         "t": math.tan(theta3[k] / 2.0), "residual": float(np.max(res[k]))})
    for k in np.flatnonzero(np.isnan(res[:, 0]))[:1].tolist():
        evidence.append({"kind": "vanishing_conic", "rho": float(rho[k]), "z": float(zr[k] + p.d1)})

    # (b) the critical curve must be smooth: |grad det J| bounded away from 0
    worst = min((float(np.min(c.grad_norm)) for c in curves if len(c)), default=math.inf)
    if worst < 1e-5 * scale:
        evidence.append({"kind": "curve_gradient", "min_grad": worst})

    # (c) isolated singular points: small |det J| at a lattice point (i, j)
    # whose 4 x 4 vertex block i-1..i+2, j-1..j+2 (wrapped) has one sign of
    # det J, so none of the 9 cells around the point is crossed by S
    det, tol = curves.det_vertex, 1e-6 * scale
    ii, jj = np.divmod(np.flatnonzero((det < tol) & (det > -tol)), grid_n)
    k = np.arange(-1, 3)
    n_neg = np.count_nonzero(det[(ii[:, None, None] + k[:, None]) % grid_n,
                                 (jj[:, None, None] + k) % grid_n] < 0, axis=(1, 2))
    isolated = (n_neg == 0) | (n_neg == 16)
    if bool(np.any(isolated)):
        ii, jj = ii[isolated], jj[isolated]
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

def _segments(workspace_curves):
    """(seg_a, seg_b), each (S, 2): the critical-value segments, each vertex
    to the next around its curve, curve by curve, vertex by vertex."""
    seg_a = np.vstack([np.empty((0, 2))] + [w.vertices for w in workspace_curves])
    seg_b = np.vstack([np.empty((0, 2))]
                      + [np.roll(w.vertices, -1, axis=0) for w in workspace_curves])
    return seg_a, seg_b


def _expand(counts):
    """(owner, offset) of every entry k < counts[r] of every owner r, in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _range_pairs(i0, i1, j0, j1):
    """(segment, i, j) for every i in [i0, i1) and j in [j0, j1) of each
    segment's index ranges (i1 >= i0, j1 >= j0), segment by segment,
    i-major."""
    nj = j1 - j0
    seg, off = _expand((i1 - i0) * nj)
    nj = nj[seg]
    return seg, i0[seg] + off // np.maximum(nj, 1), j0[seg] + off % np.maximum(nj, 1)


def _census_delta(rho_edges, z_edges) -> float:
    """The census candidates' rounding margin: 1e-9 of the box's largest
    coordinate, where the distance and intersection tests err by a few
    roundings of those coordinates."""
    return 1e-9 * float(max(rho_edges[-1], abs(z_edges[0]), abs(z_edges[-1])))


def _census_clearance(rc, zc, seg_a, seg_b, margin: float, delta: float):
    """clear[i, j]: no segment passes within `margin` of the center
    (rc[i], zc[j]).  Candidates are the centers inside a segment's bounding
    box grown by margin + delta on each axis (rc and zc ascending); a
    segment nearer than margin has its closest point in that box, and delta
    covers the rounding of the distance.  Distances are to each segment's
    closest point."""
    lo, hi = np.minimum(seg_a, seg_b) - (margin + delta), np.maximum(seg_a, seg_b) + (margin + delta)
    seg, i, j = _range_pairs(np.searchsorted(rc, lo[:, 0], "left"),
                             np.searchsorted(rc, hi[:, 0], "right"),
                             np.searchsorted(zc, lo[:, 1], "left"),
                             np.searchsorted(zc, hi[:, 1], "right"))
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


def _census_crossings(rc, zc, clear, seg_a, seg_b, delta: float):
    """Crossings of the segments joining adjacent clear census centers.

    Pair e = 2 (i n + j) + d joins center (i, j) to (i + 1, j) (d = 0) or
    (i, j + 1) (d = 1).  Its crossings are the segments seg_intersect_many
    hits with the joining segment.  Candidates for d = 0, which lies on
    z = zc[j], are the j with zc[j] in a segment's z-range and the i where
    [rc[i], rc[i + 1]] meets its rho-range, both ranges grown by delta; d =
    1 swaps the axes.  A hit implies that overlap to within delta: on the
    line z = zc[j] the joining segment's direction has an exact zero, so u
    is a ratio of two one-rounding differences (a few roundings, sign
    exact) and s is off by a few roundings of the box's coordinates, far
    below delta.  Returns the crossing count per pair (0 for pairs not both
    clear) and, where it is 1, the crossing segment's index.
    """
    n = len(rc)
    lo, hi = np.minimum(seg_a, seg_b) - delta, np.maximum(seg_a, seg_b) + delta
    crossings = np.zeros(2 * n * n, dtype=int)
    hit_seg = np.zeros(2 * n * n, dtype=int)
    for d, (along, line) in enumerate(((rc, zc), (zc, rc))):
        # pairs k, k + 1 along axis d, on the line through center l of the other
        k0 = np.searchsorted(along[1:], lo[:, d], "left")
        k1 = np.minimum(np.searchsorted(along, hi[:, d], "right"), n - 1)
        l0 = np.searchsorted(line, lo[:, 1 - d], "left")
        l1 = np.searchsorted(line, hi[:, 1 - d], "right")
        seg, k, l = _range_pairs(k0, k1, l0, l1)
        i, j = (k, l) if d == 0 else (l, k)
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


def _check_census_n(census_n: int) -> None:
    """ValueError unless the census has a pair of adjacent cells to audit."""
    if census_n < 2:
        raise ValueError("census_n must be >= 2")


def region_census(p: DhParams, workspace_curves, census_n: int = 128):
    """IKS counts over the padded bounding box of p's critical values.

    Counts come from one ik_counts pass over the cell centers.  A cell is
    clear when no critical-value segment passes within 0.3 of the smaller
    cell side of its center.  The audit walks adjacent clear cells: the
    segments that cross the segment joining the two centers are its
    crossings.  Without one the counts must be equal; with exactly one
    they must differ by exactly 2, and the boundary point between them must
    carry the intermediate count.  That point is the crossed segment's first
    vertex, the image of a traced vertex of S and so a point of the critical
    values, counted by ik_counts, the cells' root rule.  The walk, in
    row-major pair order, samples up to MAX_BOUNDARY_SAMPLES of them per
    (low, high) boundary kind, all counted in one call.  The clearance and
    the crossings of all pairs are computed in one array pass each, over the
    centers and pairs inside each segment's coordinate ranges; the pairs the
    walk visits are flagged on 2-D slices of the clearance, the counts and
    the crossings.
    """
    validate_params(p)
    _check_census_n(census_n)
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
    delta = _census_delta(rho_edges, z_edges)
    clear = _census_clearance(rc, zc, seg_a, seg_b, 0.3 * cell, delta)
    crossings, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, delta)

    # pair (i, j, d) joins cell (i, j) to (i + 1, j) (d = 0) or (i, j + 1) (d
    # = 1); row-major over (i, j, d) is the crossings' pair order
    crossings = crossings.reshape(census_n, census_n, 2)
    both = np.zeros((census_n, census_n, 2), dtype=bool)
    both[:-1, :, 0] = clear[:-1] & clear[1:]
    both[:, :-1, 1] = clear[:, :-1] & clear[:, 1:]
    changed = np.zeros((census_n, census_n, 2), dtype=bool)
    changed[:-1, :, 0] = counts[:-1] != counts[1:]
    changed[:, :-1, 1] = counts[:, :-1] != counts[:, 1:]
    audited = both & (crossings == 1)
    i, j, d = np.nonzero(audited | (both & (crossings == 0) & changed))
    i2, j2 = i + (1 - d), j + d
    pairs = zip((2 * (i * census_n + j) + d).tolist(),
                np.stack([i, j, i2, j2], axis=1).reshape(-1, 2, 2).tolist(),
                np.stack([counts[i, j], counts[i2, j2]], axis=1).tolist(),
                crossings[i, j, d].tolist())
    violations = []               # (pair, violation), a pair has at most one
    picked = []                   # (pair, low, high) of each boundary sample
    samples_per_kind = defaultdict(int)
    for k, cells, pair_counts, crossed in pairs:
        if crossed == 0:
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
