"""Aspects, pseudosingularities, reduced aspects and the cuspidality verdict.

Aspects are the connected components of the torus minus the critical-point
curves S: one flood fill over the cell grid joins neighboring cells whose
centers carry the same sign of det J.  Pseudosingularities are the
nonsingular preimages of critical values, PS = f^-1(f(S)) \\ S.
f^-1(f(S)) is the zero set of one scalar field, the pulled-back IK
discriminant D(theta2, theta3) = disc_t M(t; f), and PS is where D changes
sign; S, where f folds, is an even-order zero.  Reduced aspects are the
components of the complement of S union PS: the same flood fill, blocked
where det J or D changes sign.  The verdict (existence of a cusp) is
cross-validated against an independent oracle: sampling regular workspace
points and asking whether two IK solutions ever share an aspect.
"""
from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .dh import (
    TWO_PI,
    CrossSectionPoint,
    DhParams,
    JointConfig,
    det_jacobian,
    fk_arrays,
    singularity_scale,
    validate_params,
    wrap_angle,
)
from .errors import CuspidalError, NonGenericRobotError, StartOrGoalSingularError
from .geometry import TorusCurveIndex, unwrap_segment
from .critical import (
    DEFAULT_GRID_N,
    _chain_loops,
    _marching_segments,
    critical_values,
    find_cusps,
    find_nodes,
    genericity_check,
    region_census,
    trace_critical_points,
)
from .reduction import (
    conic_classify,
    conic_raw,
    quartic_coeffs_from_conic,
    quartic_discriminant,
    solve_ik_cross_section,
)

PS_EXCLUSION_RADIUS = 1e-2
PATH_DET_TOL = 1e-4  # times singularity scale
_SINGULAR_CELL_TOL = 1e-12


# --------------------------------------------------------------------------
# grid maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AspectMap:
    """Aspect labels on the torus cell grid; -1 marks singular cells."""

    grid_n: int
    labels: np.ndarray        # (N, N) int32
    count: int
    det_center: np.ndarray    # (N, N) det J at cell centers

    @property
    def cell_size(self) -> float:
        return TWO_PI / self.grid_n

    def cell_of(self, theta2: float, theta3: float):
        h = self.cell_size
        i = int((float(wrap_angle(theta2)) + math.pi) // h) % self.grid_n
        j = int((float(wrap_angle(theta3)) + math.pi) // h) % self.grid_n
        return i, j

    def label_of(self, theta2: float, theta3: float) -> int:
        i, j = self.cell_of(theta2, theta3)
        return int(self.labels[i, j])

    def center(self, i: int, j: int):
        h = self.cell_size
        return (-math.pi + (i + 0.5) * h, -math.pi + (j + 0.5) * h)


@dataclass(frozen=True)
class ReducedAspectMap:
    """Refinement of the AspectMap by the pseudosingularity curves."""

    grid_n: int
    labels: np.ndarray
    count: int
    parent_aspect: np.ndarray  # (count,) aspect label per reduced label

    def label_of(self, theta2: float, theta3: float) -> int:
        h = TWO_PI / self.grid_n
        i = int((float(wrap_angle(theta2)) + math.pi) // h) % self.grid_n
        j = int((float(wrap_angle(theta3)) + math.pi) // h) % self.grid_n
        return int(self.labels[i, j])


@dataclass(frozen=True)
class PseudoSingularitySet:
    """Nonsingular preimages of the critical values, chained into polylines."""

    polylines: tuple          # of (k, 2) arrays on the torus; closed loops repeat their first point
    exclusion_radius: float
    d_positive: np.ndarray    # (N, N) D > 0 at the cell centers of the grid it was traced on

    def total_points(self) -> int:
        return sum(len(c) for c in self.polylines)


@dataclass(frozen=True)
class JointPath:
    waypoints: np.ndarray     # (m, 2) torus points theta2, theta3
    theta1_start: float
    theta1_end: float
    min_det: float

    def __len__(self):
        return len(self.waypoints)


@dataclass(frozen=True)
class PathCheck:
    min_det: float
    valid: bool


@dataclass(frozen=True)
class TopologyMaps:
    """Everything label_solutions and path queries need, built once."""

    aspects: AspectMap
    reduced: ReducedAspectMap
    ps: PseudoSingularitySet
    s_index: TorusCurveIndex
    ps_index: TorusCurveIndex


@dataclass(frozen=True)
class SolutionLabel:
    config: JointConfig
    multiplicity: int
    aspect: int
    reduced_aspect: int
    on_boundary: bool
    singular_cell: bool


@dataclass(frozen=True)
class CrossValidation:
    points_examined: int
    same_aspect_found: bool
    witness: tuple | None      # (rho, z) with two IKS in one aspect
    theorem2_violations: tuple


@dataclass(frozen=True)
class CuspidalityReport:
    verdict: bool
    cusps: tuple
    nodes: tuple
    aspect_count: int
    reduced_aspect_count: int
    genericity: object
    cross_validation: CrossValidation
    census: object
    conic_kind: str
    anomalies: tuple
    work: dict
    # analysis products kept for figures; not part of the serialized report
    workspace_curves: tuple
    maps: TopologyMaps

    @property
    def agrees(self) -> bool:
        return self.verdict == self.cross_validation.same_aspect_found


# --------------------------------------------------------------------------
# flood fill
# --------------------------------------------------------------------------

def _centers(grid_n: int) -> np.ndarray:
    h = TWO_PI / grid_n
    return -math.pi + h * (np.arange(grid_n) + 0.5)


def _center_field(field, grid_n: int, rows: int = 48) -> np.ndarray:
    """field(theta2, theta3) at the cell centers, evaluated in row blocks so
    that the temporaries stay small."""
    th = _centers(grid_n)
    out = np.empty((grid_n, grid_n))
    for i in range(0, grid_n, rows):
        t2, t3 = np.meshgrid(th[i:i + rows], th, indexing="ij")
        out[i:i + rows] = field(t2, t3)
    return out


def _components(key, excluded=None):
    """Connected components of cells joined across open edges.

    An edge between neighboring cells is open when both carry the same key
    and neither cell is excluded; excluded cells get label -1.  Labels are
    numbered by first row-major appearance, so they are deterministic.
    """
    grid_n = key.shape[0]
    open_r = key == np.roll(key, -1, axis=0)
    open_u = key == np.roll(key, -1, axis=1)
    if excluded is not None:
        open_r &= ~excluded & ~np.roll(excluded, -1, axis=0)
        open_u &= ~excluded & ~np.roll(excluded, -1, axis=1)
    idx = np.arange(grid_n * grid_n).reshape(grid_n, grid_n)
    rows = np.concatenate([idx[open_r], idx[open_u]])
    cols = np.concatenate([np.roll(idx, -1, axis=0)[open_r], np.roll(idx, -1, axis=1)[open_u]])
    graph = coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)),
                       shape=(grid_n * grid_n, grid_n * grid_n))
    n_comp, raw = connected_components(graph, directed=False)
    flat = raw if excluded is None else raw[~excluded.ravel()]
    comps, first = np.unique(flat, return_index=True)
    remap = -np.ones(n_comp, dtype=np.int32)
    remap[comps[np.argsort(first)]] = np.arange(len(comps), dtype=np.int32)
    labels = remap[raw].reshape(grid_n, grid_n)
    if excluded is not None:
        labels[excluded] = -1
    return len(comps), labels


def compute_aspects(p: DhParams, grid_n: int = DEFAULT_GRID_N) -> AspectMap:
    """Aspects as the components of constant det J sign at the cell centers.

    Cells whose center is singular within tolerance are labeled -1.
    """
    det_c = _center_field(functools.partial(det_jacobian, p), grid_n)
    count, labels = _components(det_c >= 0)
    scale = singularity_scale(p)
    labels[np.abs(det_c) < _SINGULAR_CELL_TOL * scale] = -1
    return AspectMap(grid_n, labels, count, det_c)


def _discriminant(p: DhParams, theta2, theta3):
    """D = disc_t M(t; f(theta2, theta3)), up to a positive factor.

    The conic is scaled to unit max-norm per point, which keeps D of order one
    and leaves its sign and zero set unchanged.
    """
    x, y, z = fk_arrays(p, 0.0, theta2, theta3)
    zr = z - p.d1
    cc = conic_raw(p, x * x + y * y + zr * zr, zr)
    cc = cc / np.maximum(np.max(np.abs(cc), axis=0), 1e-300)
    return quartic_discriminant(quartic_coeffs_from_conic(cc))


def _refine_crossings(field, keys, th, f, iters: int = 36):
    """Bisect the sign change of a field along each crossed grid edge.

    `keys` are crossing nodes of `_marching_segments` over the samples `f`
    on th x th; returns their positions on the torus.
    """
    h = TWO_PI / len(th)
    ii = np.array([k[1] for k in keys])
    jj = np.array([k[2] for k in keys])
    along_u = np.array([k[0] == "u" for k in keys])
    start = np.column_stack([th[ii], th[jj]])
    step = np.where(along_u[:, None], (h, 0.0), (0.0, h))
    neg0 = f[ii, jj] < 0
    lo = np.zeros(len(keys))
    hi = np.ones(len(keys))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        pts = start + mid[:, None] * step
        same = (field(pts[:, 0], pts[:, 1]) < 0) == neg0
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return wrap_angle(start + (0.5 * (lo + hi))[:, None] * step)


def compute_pseudosingularities(p: DhParams, curves,
                                grid_n: int = DEFAULT_GRID_N) -> PseudoSingularitySet:
    """PS = f^-1(f(S)) \\ S as the sign-change set of the pulled-back discriminant.

    f^-1(f(S)) is the zero set of D(theta2, theta3) = disc_t M(t; f(theta2,
    theta3)).  D changes sign across PS, where f is a local diffeomorphism,
    and touches zero without a sign change on S, where f folds.  D is sampled
    once at the cell centers; the same marching squares that traces S
    extracts its sign changes, each crossing is bisected along its grid
    edge, and points within the exclusion radius of S (where the even-order
    zero leaves the sign to rounding noise) are dropped, which opens the
    chains that run into S.
    """
    th = _centers(grid_n)
    field = functools.partial(_discriminant, p)
    d = _center_field(field, grid_n)
    pos, adj = _marching_segments(d, th, field)
    polylines = []
    if pos:
        keys = sorted(pos)
        pts = _refine_crossings(field, keys, th, d)
        s_index = TorusCurveIndex([c.vertices for c in curves])
        far = s_index.dists(pts) > PS_EXCLUSION_RADIUS
        kept = {k: pt for k, pt, ok in zip(keys, pts, far) if ok}
        adj = {k: [n for n in adj[k] if n in kept] for k in kept}
        for verts, closed in _chain_loops(kept, adj):
            if closed:
                verts = np.vstack([verts, verts[:1]])
            if len(verts) >= 2:
                polylines.append(verts)
    return PseudoSingularitySet(tuple(polylines), PS_EXCLUSION_RADIUS, d > 0)


def compute_reduced_aspects(p: DhParams, curves, ps: PseudoSingularitySet,
                            aspects: AspectMap) -> ReducedAspectMap:
    """Flood fill of the torus minus S union PS.

    Edges are blocked where det J or D changes sign between cell centers.
    D has an even-order zero on S, and PS branches end on S inside the
    exclusion band, where cell-center signs cannot resolve which side of
    the boundary a cell is on.  That band is therefore boundary territory:
    its cells are labeled -1 and removed from the connectivity, which is
    the honest resolution-limited reading of the decomposition (extra
    splitting is safe, leaking between reduced aspects is not).  Without
    pseudosingularities S is the only boundary and the reduced aspects are
    the aspects.  `aspects` is the AspectMap of the grid to refine.
    """
    grid_n = aspects.grid_n
    if not ps.total_points():
        return ReducedAspectMap(grid_n, aspects.labels, aspects.count,
                                np.arange(aspects.count, dtype=np.int32))
    if ps.d_positive.shape != (grid_n, grid_n):
        raise ValueError("pseudosingularities were computed on another grid")
    det_c = aspects.det_center
    key = 2 * (det_c >= 0) + ps.d_positive
    band = _curve_band(curves, grid_n, ps.exclusion_radius)
    count, labels = _components(key, excluded=band)
    ids, first = np.unique(labels, return_index=True)
    parent = aspects.labels.ravel()[first[ids >= 0]]
    scale = singularity_scale(p)
    labels[np.abs(det_c) < _SINGULAR_CELL_TOL * scale] = -1
    return ReducedAspectMap(grid_n, labels, count, parent)


def _curve_band(curves, grid_n: int, exclusion_radius: float):
    """Cells within roughly one exclusion radius of the traced curves."""
    h = TWO_PI / grid_n
    band = np.zeros((grid_n, grid_n), dtype=bool)
    for c in curves:
        ii = ((c.vertices[:, 0] + math.pi) // h).astype(int) % grid_n
        jj = ((c.vertices[:, 1] + math.pi) // h).astype(int) % grid_n
        band[ii, jj] = True
    for _ in range(int(math.ceil(exclusion_radius / h)) + 1):
        grown = band.copy()
        for shift in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            grown |= np.roll(np.roll(band, shift[0], axis=0), shift[1], axis=1)
        band = grown
    return band


def build_topology(p: DhParams, curves, grid_n: int = DEFAULT_GRID_N) -> TopologyMaps:
    aspects = compute_aspects(p, grid_n)
    ps = compute_pseudosingularities(p, curves, grid_n)
    reduced = compute_reduced_aspects(p, curves, ps, aspects)
    s_index = TorusCurveIndex([c.vertices for c in curves])
    ps_index = TorusCurveIndex([np.vstack([c, c[::-1]]) for c in ps.polylines])
    return TopologyMaps(aspects, reduced, ps, s_index, ps_index)


def label_solutions(p: DhParams, maps: TopologyMaps, target: CrossSectionPoint):
    """Aspect and reduced-aspect labels for every IK solution of the target.

    Solutions inside the unresolved band around the critical curves carry
    reduced label -1 and are flagged on_boundary.
    """
    sols = solve_ik_cross_section(p, target)
    out = []
    for s in sols.solutions:
        pt = np.array([s.config.theta2, s.config.theta3])
        aspect = maps.aspects.label_of(pt[0], pt[1])
        reduced = maps.reduced.label_of(pt[0], pt[1])
        d_s = maps.s_index.dist(pt)
        d_ps = maps.ps_index.dist(pt)
        on_boundary = min(d_s, d_ps) < maps.aspects.cell_size or reduced < 0
        out.append(SolutionLabel(s.config, s.multiplicity, aspect, reduced,
                                 on_boundary, aspect < 0))
    return out


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

def find_nonsingular_path(p: DhParams, maps: TopologyMaps,
                          q_start: JointConfig, q_goal: JointConfig) -> JointPath | None:
    """A* on the aspect grid between two configurations, or None when they
    lie in different aspects.  theta1 is irrelevant to singularities and is
    carried only at the endpoints."""
    scale = singularity_scale(p)
    tol = PATH_DET_TOL * scale
    for q in (q_start, q_goal):
        if abs(float(det_jacobian(p, q.theta2, q.theta3))) <= tol:
            raise StartOrGoalSingularError("configuration is singular within tolerance")
    amap = maps.aspects
    n = amap.grid_n
    h = amap.cell_size
    start = amap.cell_of(q_start.theta2, q_start.theta3)
    goal = amap.cell_of(q_goal.theta2, q_goal.theta3)
    if amap.labels[start] != amap.labels[goal] or amap.labels[start] < 0:
        return None
    label = amap.labels[start]
    det_abs = np.abs(amap.det_center) / scale
    allowed = (amap.labels == label) & (np.abs(amap.det_center) > 3.0 * tol)
    allowed[start] = True
    allowed[goal] = True

    def heuristic(c):
        d2 = abs(wrap_angle((c[0] - goal[0]) * h))
        d3 = abs(wrap_angle((c[1] - goal[1]) * h))
        return math.hypot(d2, d3)

    dist = {start: 0.0}
    prev = {}
    pq = [(heuristic(start), start)]
    visited = set()
    while pq:
        _, cur = heapq.heappop(pq)
        if cur == goal:
            break
        if cur in visited:
            continue
        visited.add(cur)
        i, j = cur
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = ((i + di) % n, (j + dj) % n)
            if not allowed[nb]:
                continue
            cost = h * (1.0 + 0.05 / (float(det_abs[nb]) + 1e-3))
            nd = dist[cur] + cost
            if nd < dist.get(nb, math.inf):
                dist[nb] = nd
                prev[nb] = cur
                heapq.heappush(pq, (nd + heuristic(nb), nb))
    if goal not in dist:
        return None
    cells = [goal]
    while cells[-1] != start:
        cells.append(prev[cells[-1]])
    cells.reverse()
    pts = [np.array([q_start.theta2, q_start.theta3])]
    for c in cells[1:-1]:
        pts.append(np.array(amap.center(*c)))
    pts.append(np.array([q_goal.theta2, q_goal.theta3]))
    waypoints = np.array(pts)
    path = JointPath(waypoints, q_start.theta1, q_goal.theta1, 0.0)
    check = verify_path(p, path)
    return JointPath(waypoints, q_start.theta1, q_goal.theta1, check.min_det)


def verify_path(p: DhParams, path: JointPath, samples_per_segment: int = 10) -> PathCheck:
    """Dense |det J| audit along the path; valid iff min > 1e-4 scale."""
    scale = singularity_scale(p)
    w = path.waypoints
    min_det = math.inf
    if len(w) == 1:
        min_det = abs(float(det_jacobian(p, w[0, 0], w[0, 1])))
    for k in range(len(w) - 1):
        a, b = unwrap_segment(w[k], w[k + 1])
        ts = np.linspace(0.0, 1.0, max(samples_per_segment, 2))
        pts = a[None, :] + ts[:, None] * (b - a)[None, :]
        vals = np.abs(det_jacobian(p, pts[:, 0], pts[:, 1]))
        min_det = min(min_det, float(np.min(vals)))
    return PathCheck(min_det, min_det > PATH_DET_TOL * scale)


# --------------------------------------------------------------------------
# verdict
# --------------------------------------------------------------------------

def _sample_regular_points(p: DhParams, census, maps: TopologyMaps, samples: int):
    """Deterministic stratified sample of regular points with >= 2 IKS.

    Four-solution cells are taken first (same-aspect pairs can only occur
    where at least four solutions exist), then two-solution cells.
    """
    rc, zc = census.centers()
    counts = census.counts
    cand4 = [(i, j) for i in range(counts.shape[0]) for j in range(counts.shape[1])
             if counts[i, j] >= 4]
    cand2 = [(i, j) for i in range(counts.shape[0]) for j in range(counts.shape[1])
             if counts[i, j] == 2]
    ordered = []
    for cells, budget in ((cand4, samples), (cand2, samples)):
        if not cells:
            continue
        stride = max(1, len(cells) // budget)
        ordered.extend(cells[::stride])
    picked = []
    for (i, j) in ordered:
        if len(picked) >= samples:
            break
        target = CrossSectionPoint(float(rc[i]), float(zc[j]))
        labels = label_solutions(p, maps, target)
        if len(labels) < 2:
            continue
        if any(l.on_boundary or l.singular_cell or l.multiplicity != 1 for l in labels):
            continue
        picked.append((target, labels))
    return picked


def _sample_cusp_rings(p: DhParams, census, maps: TopologyMaps, cusps):
    """Clean sample points on small rings around each cusp.

    Same-aspect pairs concentrate near cusps; when the four-solution region
    is small, the stratified census sample can miss it entirely.
    """
    rc, zc = census.centers()
    if len(rc) < 2:
        return []
    cell = math.hypot(float(rc[1] - rc[0]), float(zc[1] - zc[0]))
    picked = []
    for c in cusps:
        for radius in (cell, 2 * cell, 4 * cell):
            for k in range(8):
                ang = TWO_PI * k / 8
                rho = c.rho + radius * math.cos(ang)
                z = c.z + radius * math.sin(ang)
                if rho <= 0:
                    continue
                target = CrossSectionPoint(rho, z)
                try:
                    labels = label_solutions(p, maps, target)
                except CuspidalError:
                    continue
                if len(labels) < 2:
                    continue
                if any(l.on_boundary or l.singular_cell or l.multiplicity != 1
                       for l in labels):
                    continue
                picked.append((target, labels))
    return picked


def _has_shared_aspect(labels) -> bool:
    seen = set()
    for l in labels:
        if l.aspect in seen:
            return True
        seen.add(l.aspect)
    return False


def is_cuspidal(p: DhParams, grid_n: int = DEFAULT_GRID_N, census_n: int = 128,
                samples: int = 200) -> CuspidalityReport:
    """Full cuspidality analysis with cross-validation.

    The verdict is cusp existence; the independent oracle looks for a
    sampled regular point whose IK solutions share an aspect.  Both results
    and their agreement are recorded.  Raises NonGenericRobotError when the
    genericity check fails.
    """
    validate_params(p)
    curves = trace_critical_points(p, grid_n)
    wcurves = critical_values(p, curves)
    cusps = find_cusps(p, wcurves)
    genericity = genericity_check(p, grid_n, curves=curves,
                                  workspace_curves=wcurves, cusps=cusps)
    if not genericity.is_generic:
        raise NonGenericRobotError(genericity)
    nodes = find_nodes(p, wcurves)
    census = region_census(p, grid_n, census_n=census_n,
                           curves=curves, workspace_curves=wcurves)
    maps = build_topology(p, curves, grid_n)
    picked = _sample_regular_points(p, census, maps, samples)
    picked.extend(_sample_cusp_rings(p, census, maps, cusps))

    witness = None
    theorem2 = []
    for target, labels in picked:
        if witness is None and _has_shared_aspect(labels):
            witness = (target.rho, target.z)
        seen = set()
        for l in labels:
            if l.reduced_aspect in seen:
                theorem2.append((target.rho, target.z, l.reduced_aspect))
            seen.add(l.reduced_aspect)

    anomalies = []
    if not curves:
        anomalies.append("empty critical set")
    if len(picked) < samples:
        anomalies.append(f"only {len(picked)} regular sample points available")
    if (bool(np.any(census.counts >= 4))
            and not any(len(labels) >= 4 for _, labels in picked)):
        # every four-solution region is thinner than the sampling can resolve
        # (all candidate points have boundary-flagged solutions), so the
        # same-aspect oracle cannot inspect the regions where pairs may live
        anomalies.append("four-solution regions unresolved at this resolution")

    cross = CrossValidation(len(picked), witness is not None, witness, tuple(theorem2))
    work = {
        "grid_cells": grid_n * grid_n,
        "census_cells": census_n * census_n,
        "curve_vertices": int(sum(len(c) for c in curves)),
        "pseudosingular_points": maps.ps.total_points(),
        "cross_validation_points": len(picked),
    }
    return CuspidalityReport(
        verdict=len(cusps) > 0,
        cusps=tuple(cusps),
        nodes=tuple(nodes),
        aspect_count=maps.aspects.count,
        reduced_aspect_count=maps.reduced.count,
        genericity=genericity,
        cross_validation=cross,
        census=census,
        conic_kind=conic_classify(p).kind,
        anomalies=tuple(anomalies),
        work=work,
        workspace_curves=tuple(wcurves),
        maps=maps,
    )
