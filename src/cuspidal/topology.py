"""Aspects, pseudosingularities, reduced aspects and the cuspidality verdict.

Every map reads the vertex lattice S is traced on.  Aspects are the
connected components of the torus minus the critical-point curves S: one
flood fill over the lattice joins neighboring points that carry the same
sign of det J.  Pseudosingularities are the nonsingular preimages of
critical values, PS = f^-1(f(S)) \\ S: every PS point is another IK
solution of a point of S, lifted from each traced vertex in closed form.
Reduced aspects are the components of the complement of S union PS: the
same flood fill, blocked where det J or the pulled-back IK discriminant
D(theta2, theta3) = disc_t M(t; f) changes sign (D vanishes on f^-1(f(S))
and keeps its sign across S, where f folds), read on the lattice from D's
exact series in theta2.
The verdict (existence of a cusp) is cross-validated against an independent
oracle: sampling regular workspace points and asking whether two IK
solutions ever share an aspect.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dh import (
    TWO_PI,
    CrossSectionPoint,
    DhParams,
    JointConfig,
    det_jacobian,
    singularity_scale,
    validate_params,
    wrap_angle,
)
from .errors import NonGenericRobotError, StartOrGoalSingularError
from .critical import (
    CUSP_RESIDUAL_TOL,
    DEFAULT_GRID_N,
    CriticalSet,
    _check_census_n,
    _edge_ends,
    _with_next,
    critical_values,
    find_cusps,
    find_nodes,
    genericity_check,
    region_census,
    trace_critical_points,
)
from .reduction import (
    IkBatch,
    _conic_terms,
    _fold_lift,
    _harmonic_bound,
    _harmonics,
    conic_classify,
    f_coefficients,
    quartic_coeffs_from_conic,
    quartic_discriminant,
    solve_ik_batch,
)

PS_EXCLUSION_RADIUS = 1e-2
PATH_DET_TOL = 1e-4  # times singularity scale
_SINGULAR_CELL_TOL = 1e-12
_D_DEGREE = 6                   # D's degree in theta2 (_discriminant_lattice)
_D_SAMPLES = 16                 # theta2 samples per column, at least 2 _D_DEGREE + 1
_D_RECHECK = 1e-9               # pointwise below this times the largest column bound


# --------------------------------------------------------------------------
# grid maps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AspectMap:
    """Aspect labels on the torus vertex lattice theta_k = -pi + k 2 pi / N;
    -1 marks singular points."""

    grid_n: int
    labels: np.ndarray        # (N, N) int32
    count: int
    det_vertex: np.ndarray    # (N, N) det J on the lattice

    @property
    def spacing(self) -> float:
        return TWO_PI / self.grid_n

    def nearest(self, theta2, theta3):
        """Nearest lattice point (i, j) of torus points with angles in [-pi,
        pi), shared by every map of this lattice: ints for one point, index
        arrays for arrays of points."""
        i, j = _nearest(self.grid_n, _lattice_u(self.grid_n, theta2, theta3))
        return (int(i), int(j)) if np.ndim(i) == 0 else (i, j)

    def point(self, i, j):
        """(theta2, theta3) of lattice point (i, j), or arrays of them for index arrays."""
        return (-math.pi + TWO_PI * i / self.grid_n, -math.pi + TWO_PI * j / self.grid_n)


@dataclass(frozen=True)
class ReducedAspectMap:
    """Refinement of the AspectMap by the pseudosingularity curves."""

    grid_n: int
    labels: np.ndarray
    count: int


@dataclass(frozen=True)
class PseudoSingularitySet:
    """Nonsingular preimages of the critical values, lifted from the traced
    S into polylines that stop where the S band begins."""

    polylines: tuple          # of (k, 2) arrays on the torus; closed loops repeat their first point
    d_positive: np.ndarray    # (N, N) D > 0 on the vertex lattice it was traced on
    s_band: np.ndarray        # (N, N) lattice points of the S band (_s_band)
    rechecked: int            # lattice points whose D sign the series left to _discriminant

    def total_points(self) -> int:
        return sum(len(c) for c in self.polylines)


@dataclass(frozen=True)
class JointPath:
    waypoints: np.ndarray     # (m, 2) torus points theta2, theta3
    theta1_start: float
    theta1_end: float

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


@dataclass(frozen=True)
class SolutionLabel:
    """One IK solution's labels, read at its nearest lattice point.

    on_boundary is set unless the four corners of the lattice cell that
    holds the solution carry one reduced label >= 0, so that the lattice
    sees S and PS cross none of the cell's edges (a sliver of a region
    thinner than a cell can still pass between its corners unseen).
    singular_cell marks a nearest point on S."""

    config: JointConfig
    multiplicity: int
    aspect: int
    reduced_aspect: int
    on_boundary: bool
    singular_cell: bool


@dataclass(frozen=True)
class _LabelBatch:
    """The labels of an IK batch's solved solutions as arrays, one entry per
    solution in the batch's order (row ascending): the target's row, the
    angles, multiplicity, aspect, reduced aspect and on_boundary of
    SolutionLabel, and per target its IK status (!= 0: refused)."""

    row: np.ndarray
    theta: np.ndarray          # (N, 3) theta1, theta2, theta3
    mult: np.ndarray
    aspect: np.ndarray
    reduced: np.ndarray
    on_boundary: np.ndarray
    status: np.ndarray

    def lists(self) -> list:
        """SolutionLabel lists per target, None for the refused ones."""
        out = [None if status else [] for status in self.status.tolist()]
        for k, q, m, aspect, reduced, boundary in zip(
                self.row.tolist(), self.theta.tolist(), self.mult.tolist(),
                self.aspect.tolist(), self.reduced.tolist(), self.on_boundary.tolist()):
            out[k].append(SolutionLabel(JointConfig(*q), m, aspect, reduced, boundary, aspect < 0))
        return out

    def table(self, values: np.ndarray) -> np.ndarray:
        """One entry array as a (K, 4) table, a target's solutions in order
        along its row, -1 in empty slots."""
        out = np.full((len(self.status), 4), -1, dtype=values.dtype)
        out[self.row, np.arange(len(self.row)) - np.searchsorted(self.row, self.row)] = values
        return out

    def clean(self) -> np.ndarray:
        """Targets solve_ik accepts with two or more solutions, none of them
        on_boundary (which a singular lattice point implies) or multiple: the
        ones whose labels the oracle reads."""
        k = len(self.status)
        bad = self.on_boundary | (self.mult != 1)
        return ((self.status == 0) & (np.bincount(self.row, minlength=k) >= 2)
                & (np.bincount(self.row, weights=bad, minlength=k) == 0))


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

def _union_runs(n_runs: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The root of each run's component in the graph with an edge between
    runs rows[k] and cols[k]: the component's smallest run.

    Each round hooks every edge's larger root under its smaller root, jumps
    pointers (root = root[root]) until every run points at a root and drops
    the edges inside one tree; no edge left joins two roots at the end.  A
    root is hooked only under a smaller run, so no run ever points above
    itself and a component's smallest run stays its root."""
    root = np.arange(n_runs)
    while True:
        a, b = root[rows], root[cols]
        live = a != b
        if not live.any():
            return root
        rows, cols, a, b = rows[live], cols[live], a[live], b[live]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def _components(key, excluded=None):
    """Connected components of cells joined across open edges.

    An edge between neighboring cells is open when both carry the same key
    and neither cell is excluded; excluded cells get label -1.  Labels are
    numbered by first row-major appearance, so they are deterministic.  The
    fill runs over row runs, the maximal runs of cells joined by open edges
    along a row (axis 1) up to its seam, numbered in row-major order.  Runs
    are joined across each row's seam (column n - 1 to column 0) and across
    the open edges between rows, with one edge wherever a run starts in
    either row, so the union-find (_union_runs) has thousands of nodes where
    a graph of cells has grid_n^2.  A component's first cell starts its
    smallest run, the root, so the roots numbered in order are the labels.
    Returns the count and the labels.
    """
    n = key.shape[1]
    right = _with_next(np.equal, key, 1)        # open edges along each row, its seam last
    below = _with_next(np.equal, key, 0)        # and from each row to the next
    if excluded is not None:
        free = ~excluded
        right &= _with_next(np.logical_and, free, 1)
        below &= _with_next(np.logical_and, free, 0)
    start = np.ones(key.shape, dtype=bool)
    start[:, 1:] = ~right[:, :-1]
    below &= _with_next(np.logical_or, start, 0)
    starts = np.flatnonzero(start)
    n_runs = len(starts)
    edge, seam = np.flatnonzero(below), np.flatnonzero(right[:, -1]) * n
    rows = np.searchsorted(starts, np.concatenate([seam + n - 1, edge]), "right") - 1
    cols = np.searchsorted(starts, np.concatenate([seam, (edge + n) % key.size]), "right") - 1
    root = _union_runs(n_runs, rows, cols)
    named = root == np.arange(n_runs)
    if excluded is not None:
        # an excluded cell is a run of its own without edges: a root, unnamed
        named &= free.ravel()[starts]
    label = np.where(named, np.cumsum(named, dtype=np.int32) - 1, np.int32(-1))
    labels = np.repeat(label[root], np.diff(starts, append=key.size))
    return int(np.count_nonzero(named)), labels.reshape(key.shape)


def compute_aspects(curves: CriticalSet) -> AspectMap:
    """Aspects as the components of constant det J sign on the set's vertex
    lattice, from the det J the trace sampled.

    Lattice points singular within tolerance are labeled -1.
    """
    det, tol = curves.det_vertex, _SINGULAR_CELL_TOL * singularity_scale(curves.robot)
    count, labels = _components(det >= 0)
    labels[(det < tol) & (det > -tol)] = -1
    return AspectMap(curves.grid_n, labels, count, det)


def _discriminant(p: DhParams, theta2, theta3):
    """D = disc_t M(t; f(theta2, theta3)), up to a positive factor, in the
    factored form of det J.

    The conic's target terms at f(theta2, theta3) are P = (F3 - w2) / (2 a1)
    + F1 c2 + F2 s2 and Q = (F4 - w3) / sin(alpha1) + F1 s2 - F2 c2, with
    the F_i at theta3.  Those are per-theta3 terms against c2 and s2, so a
    column of theta2 against a row of theta3 takes the trig and the F_i on
    the axes, and every value equals the one the same angles give point by
    point.  Bx, By and C follow from P and Q as in the IK conic.  D is not
    normalised: its sign does not depend on scale.
    """
    f = f_coefficients(p)
    k = _conic_terms(p)
    c3, s3 = np.cos(theta3), np.sin(theta3)
    # hand-written, not rows: F's affine forms sum in another order than a row's
    f1 = f.u[0] * c3 + f.v[0] * s3 + f.w[0]
    f2 = f.u[1] * c3 + f.v[1] * s3 + f.w[1]
    p3 = (f.u[2] * c3 + f.v[2] * s3) / k.two_a1
    q3 = (f.u[3] * c3 + f.v[3] * s3) / k.sa1
    c2, s2 = np.cos(theta2), np.sin(theta2)
    pw = p3 + f1 * c2 + f2 * s2
    qw = q3 + f1 * s2 - f2 * c2
    return quartic_discriminant(quartic_coeffs_from_conic(k.conic(pw, qw)))


def _d_series(p: DhParams, grid_n: int):
    """D on the vertex lattice th x th from its theta2 series: the lattice
    angles th, the values and the recheck threshold.

    For fixed theta3, P, Q and P^2 + Q^2 (its quadratic terms add up to
    F1^2 + F2^2) are affine in (c2, s2), and so are the quartic's five
    coefficients: I is quadratic, J cubic and D of degree _D_DEGREE in
    theta2.  Each column's _D_SAMPLES samples give its row in theta2 + pi,
    evaluated at every theta2 by one matrix product with the basis (1, cos
    k phi, sin k phi) at phi = theta2 + pi, its columns by _circle_values'
    angle addition.  The threshold is _D_RECHECK times the robot's largest
    column _harmonic_bound (robot-wide: a whole column can be zero up to
    rounding).
    """
    th = -math.pi + TWO_PI * np.arange(grid_n) / grid_n
    phi = -math.pi + TWO_PI * np.arange(_D_SAMPLES) / _D_SAMPLES
    rows = _harmonics(_discriminant(p, phi, th[:, None]), _D_DEGREE)
    c, s = np.cos(th + math.pi), np.sin(th + math.pi)
    basis = [np.ones(grid_n), c, s]
    for _ in range(2, _D_DEGREE + 1):
        ck, sk = basis[-2:]
        basis += [ck * c - sk * s, sk * c + ck * s]
    d = np.column_stack(basis) @ rows.T
    return th, d, _D_RECHECK * float(np.max(_harmonic_bound(rows)))


def _discriminant_lattice(p: DhParams, grid_n: int):
    """D on the vertex lattice with the signs of _discriminant; returns
    (values, rechecked).  Only signs leave the series (_d_series): the
    `rechecked` points within its threshold of 0 are evaluated by
    _discriminant."""
    th, d, thr = _d_series(p, grid_n)
    i, j = np.divmod(np.flatnonzero((d <= thr) & (d >= -thr)), grid_n)
    d[i, j] = _discriminant(p, th[i], th[j])
    return d, len(i)


def _s_band(curves: CriticalSet) -> np.ndarray:
    """Both ends (_edge_ends) of every lattice edge where det J changes
    sign, the edges the trace crossed (curves.crossings), grown
    ceil(PS_EXCLUSION_RADIUS / h) + 1 times over the 4-neighbourhood."""
    n = curves.grid_n
    _, near, far = _edge_ends(curves.crossings, n)
    band = np.zeros((n, n), dtype=bool)
    band[near] = band[far] = True
    for _ in range(int(math.ceil(PS_EXCLUSION_RADIUS / (TWO_PI / n))) + 1):
        grown = band.copy()
        for src, dst in ((np.s_[:-1], np.s_[1:]), (np.s_[1:], np.s_[:-1]), (-1, 0), (0, -1)):
            grown[dst] |= band[src]
            grown[:, dst] |= band[:, src]
        band = grown
    return band


def _lattice_u(grid_n: int, theta2, theta3):
    """u = (theta + pi) / h of torus points' angles in [-pi, pi): lattice
    point k sits at u = k."""
    return tuple((np.asarray(th) + math.pi) / (TWO_PI / grid_n) for th in (theta2, theta3))


def _nearest(grid_n: int, u) -> tuple:
    """(i, j) of the lattice point nearest to lattice coordinates u, floor(u + 1/2)."""
    return tuple(np.floor(x + 0.5).astype(int) % grid_n for x in u)


def _cell_corners(grid_n: int, u):
    """(i, j) index arrays of the four corners of the lattice cell that holds
    each point at lattice coordinates u, floor(u) first."""
    i, j = (np.floor(x).astype(int) % grid_n for x in u)
    i1, j1 = (i + 1) % grid_n, (j + 1) % grid_n
    return (i, j), (i1, j), (i, j1), (i1, j1)


def _runs(points: np.ndarray, kept: np.ndarray) -> list:
    """The runs of two or more kept consecutive points of a cyclic sequence:
    a run continues past the end to the start, and a sequence kept whole is
    one closed polyline, which repeats its first point."""
    if kept.all():
        return [np.vstack([points, points[:1]])]
    first = int(np.argmin(kept))             # a dropped point starts the sequence
    points, kept = np.roll(points, -first, axis=0), np.roll(kept, -first)
    ends = np.flatnonzero(np.diff(np.concatenate([[0], kept.astype(np.int8), [0]])))
    return [points[a:b] for a, b in zip(ends[::2].tolist(), ends[1::2].tolist()) if b - a >= 2]


def compute_pseudosingularities(curves: CriticalSet) -> PseudoSingularitySet:
    """PS = f^-1(f(S)) \\ S lifted from the traced S (reduction._fold_lift),
    and D's signs on the lattice (_discriminant_lattice) for the reduced fill.

    Along a curve, each vertex's two lifted roots are paired with the next
    vertex's by the smaller sum of torus distances, which sorts them onto
    two sheets (one loop on a curve whose pairing swaps them an odd number
    of times).  A point is dropped where a corner of its lattice cell
    lies in the S band, the cell rule of _labels, so PS ends where the
    reduced fill's boundary territory begins.  A polyline is a run of kept
    points on one sheet.
    """
    d, rechecked = _discriminant_lattice(curves.robot, curves.grid_n)
    band = _s_band(curves)
    polylines = []
    for curve in curves:
        pts = np.stack(_fold_lift(curves.robot, curve.vertices[:, 0], curve.vertices[:, 1]),
                       axis=-1)                          # (K, sheet, 2)
        # torus distances from each root (axis 1) to each of the next vertex's (axis 2)
        gap = np.abs(pts[:, :, None] - np.roll(pts, -1, axis=0)[:, None])
        gap = np.hypot(*np.moveaxis(np.minimum(gap, TWO_PI - gap), -1, 0))
        flip = gap[:, 0, 1] + gap[:, 1, 0] < gap[:, 0, 0] + gap[:, 1, 1]
        swap = np.concatenate([[False], np.cumsum(flip[:-1]) % 2 == 1])
        pts = np.where(swap[:, None, None], pts[:, ::-1], pts)
        kept = ~np.isnan(pts[..., 0])
        corners = _cell_corners(curves.grid_n, _lattice_u(curves.grid_n, *pts[kept].T))
        kept[kept] = ~np.any([band[at] for at in corners], axis=0)
        if np.count_nonzero(flip) % 2:
            sheets = [(np.concatenate([pts[:, 0], pts[:, 1]]), np.concatenate(kept.T))]
        else:
            sheets = [(pts[:, 0], kept[:, 0]), (pts[:, 1], kept[:, 1])]
        for points, ok in sheets:
            polylines.extend(_runs(points, ok))
    return PseudoSingularitySet(tuple(polylines), d > 0, band, rechecked)


def compute_reduced_aspects(ps: PseudoSingularitySet, aspects: AspectMap) -> ReducedAspectMap:
    """Flood fill of the torus minus S union PS on the vertex lattice.

    Edges are blocked where det J or D changes sign.  D has an even-order
    zero on S, and PS branches end on S, where lattice signs cannot resolve
    which side of the boundary a point is on.  The S band the PS chains
    stop at is therefore boundary territory: its points are labeled -1 and
    removed from the connectivity, which is the honest resolution-limited
    reading of the decomposition (extra splitting is safe, leaking between
    reduced aspects is not).  `aspects` is the AspectMap of the lattice to
    refine; its singular points stay -1.
    """
    grid_n = aspects.grid_n
    if ps.d_positive.shape != (grid_n, grid_n):
        raise ValueError("pseudosingularities were computed on another grid")
    key = np.int8(2) * (aspects.det_vertex >= 0) + ps.d_positive
    count, labels = _components(key, excluded=ps.s_band)
    labels[aspects.labels < 0] = -1
    return ReducedAspectMap(grid_n, labels, count)


def build_topology(p: DhParams, curves: CriticalSet, grid_n: int) -> TopologyMaps:
    """All maps of p from its CriticalSet traced on grid_n (ValueError otherwise)."""
    curves.check(p, grid_n)
    aspects = compute_aspects(curves)
    ps = compute_pseudosingularities(curves)
    return TopologyMaps(aspects, compute_reduced_aspects(ps, aspects), ps)


def _labels(maps: TopologyMaps, ik: IkBatch) -> _LabelBatch:
    """The labels of the solved solutions of an IK batch.

    Each angle is wrapped once and read once, as u = (theta + pi) / h
    (_lattice_u).  Labels are read at the nearest lattice point, floor(u +
    1/2), a corner of the cell floor(u) that holds it.  The solution is
    on_boundary unless the cell's four corners carry one reduced label
    >= 0.  By _components' construction that holds exactly when det J and D
    keep their signs on the cell's edges and no corner lies in the S band
    or on a singular lattice point: the only cells where the nearest-point
    read cannot name the wrong region.
    """
    row, theta = ik.row[ik.solved], ik.theta[ik.solved]
    n = maps.aspects.grid_n
    u = _lattice_u(n, wrap_angle(theta[:, 1]), wrap_angle(theta[:, 2]))
    at = _nearest(n, u)
    lattice = maps.reduced.labels
    own, *others = _cell_corners(n, u)
    corner = lattice[own]
    on_boundary = (corner < 0) | np.any([lattice[at] != corner for at in others], axis=0)
    return _LabelBatch(row, theta, ik.mult[ik.solved], maps.aspects.labels[at], lattice[at],
                       on_boundary, ik.status)


def label_solutions(p: DhParams, maps: TopologyMaps, target: CrossSectionPoint):
    """Aspect and reduced-aspect labels for every IK solution of the target.

    A solution whose lattice cell has a corner off its region (a corner in
    the S band, on a singular point, or across S or PS) is flagged
    on_boundary; see SolutionLabel.
    """
    ik = solve_ik_batch(p, target.rho, target.z)
    ik.check(0)
    return _labels(maps, ik).lists()[0]


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

def _path_graph(amap: AspectMap, allowed: np.ndarray, scale: float):
    """The lattice points of `allowed` (flat, row-major) and the directed
    graph over them: node k, the k-th point, has an edge to each allowed
    point among (i +- 1, j) and (i, j +- 1) on the wrapped lattice, weighted
    by the cost of entering it, h (1 + 0.05 / (|det J| / scale + 1e-3)).  The
    lattice-sized temporaries die on return, before the search allocates its
    state."""
    from scipy.sparse import csr_matrix

    n = amap.grid_n
    points = np.flatnonzero(allowed)
    node = np.full(allowed.size, -1, dtype=np.int32)
    node[points] = np.arange(len(points), dtype=np.int32)
    i, j = np.divmod(points, n)
    to = node[np.column_stack([(i + 1) % n * n + j, (i - 1) % n * n + j,
                               i * n + (j + 1) % n, i * n + (j - 1) % n])]
    edge = to >= 0
    indptr = np.insert(np.cumsum(np.count_nonzero(edge, axis=1), dtype=np.int32), 0, 0)
    to = to[edge]
    cost = amap.spacing * (1.0 + 0.05 / (np.abs(amap.det_vertex.ravel()[points]) / scale + 1e-3))
    return points, csr_matrix((cost[to], to, indptr), shape=(len(points),) * 2)


def find_nonsingular_path(p: DhParams, maps: TopologyMaps,
                          q_start: JointConfig, q_goal: JointConfig) -> JointPath | None:
    """Cheapest path between two configurations through the open lattice
    points of their aspect (|det J| > 3 PATH_DET_TOL L^3, plus the points
    nearest the two ends), from one Dijkstra run on _path_graph, or None
    when they lie in different aspects.  theta1 is irrelevant to
    singularities and is carried only at the ends.  The path comes back
    unaudited: verify_path is its one audit.  SciPy's Dijkstra is imported
    here, so only a path query loads it."""
    from scipy.sparse.csgraph import dijkstra

    scale = singularity_scale(p)
    tol = PATH_DET_TOL * scale
    for q in (q_start, q_goal):
        if abs(float(det_jacobian(p, q.theta2, q.theta3))) <= tol:
            raise StartOrGoalSingularError("configuration is singular within tolerance")
    amap = maps.aspects
    start = amap.nearest(q_start.theta2, q_start.theta3)
    goal = amap.nearest(q_goal.theta2, q_goal.theta3)
    if amap.labels[start] != amap.labels[goal] or amap.labels[start] < 0:
        return None
    det = amap.det_vertex
    allowed = (amap.labels == amap.labels[start]) & ((det > 3.0 * tol) | (det < -3.0 * tol))
    allowed[start] = allowed[goal] = True
    points, graph = _path_graph(amap, allowed, scale)
    first, last = (int(np.searchsorted(points, i * amap.grid_n + j)) for i, j in (start, goal))
    dist, prev = dijkstra(graph, indices=first, return_predecessors=True)
    if dist[last] == math.inf:
        return None
    route = [last]
    while route[-1] != first:
        route.append(int(prev[route[-1]]))
    inner = np.column_stack(amap.point(*np.divmod(points[route[-2:0:-1]], amap.grid_n)))
    waypoints = np.vstack([(q_start.theta2, q_start.theta3), inner, (q_goal.theta2, q_goal.theta3)])
    return JointPath(waypoints, q_start.theta1, q_goal.theta1)


def verify_path(p: DhParams, path: JointPath, samples_per_segment: int = 10) -> PathCheck:
    """Dense |det J| audit along the path, every segment (the short way
    round the torus) sampled in one call; valid iff min > 1e-4 scale."""
    w = path.waypoints
    if len(w) == 1:
        w = np.vstack([w, w])        # one waypoint: a segment of length zero
    a = w[:-1]
    b = a + wrap_angle(w[1:] - a)
    ts = np.linspace(0.0, 1.0, max(samples_per_segment, 2))
    pts = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
    min_det = float(np.min(np.abs(det_jacobian(p, pts[..., 0], pts[..., 1])), initial=math.inf))
    return PathCheck(min_det, min_det > PATH_DET_TOL * singularity_scale(p))


# --------------------------------------------------------------------------
# verdict
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Sample:
    """The oracle's sample points (rho, z) (P,) and their solutions' aspects
    and reduced aspects as (P, 4) tables in solution order (-1 in empty
    slots)."""

    rho: np.ndarray
    z: np.ndarray
    aspect: np.ndarray
    reduced: np.ndarray


def _sample_regular_points(p: DhParams, census, maps: TopologyMaps, samples: int) -> _Sample:
    """Deterministic stratified sample of regular points with >= 2 IKS.

    Four-solution cells are taken first (same-aspect pairs can only occur
    where at least four solutions exist), then two-solution cells, each
    stratum in stride-residue order (cells[r::stride] for r = 0, 1, ...,
    stride max(1, len // samples)), so its first candidates spread over it
    and it runs out only when every cell has been tried.  The first `samples`
    clean candidates (_LabelBatch.clean), in candidate order, are kept.
    Candidates are labelled on demand, in batches of the points still
    missing plus an eighth, so the two-solution stratum is labelled only
    where the four-solution one leaves too few clean points.
    """
    rc, zc = census.centers()
    counts = census.counts
    parts = [(np.empty(0), np.empty(0), np.empty((0, 4), int), np.empty((0, 4), int))]
    picked = 0
    for cells in (np.argwhere(counts >= 4), np.argwhere(counts == 2)):
        stride = max(1, len(cells) // samples)
        cells = np.concatenate([cells[r::stride] for r in range(stride)])
        while len(cells) and picked < samples:
            size = samples - picked
            size += size // 8
            rho, z = rc[cells[:size, 0]], zc[cells[:size, 1]]
            cells = cells[size:]
            batch = _labels(maps, solve_ik_batch(p, rho, z))
            clean = batch.clean()
            parts.append((rho[clean], z[clean], batch.table(batch.aspect)[clean],
                          batch.table(batch.reduced)[clean]))
            picked += int(np.count_nonzero(clean))
    return _Sample(*(np.concatenate(column)[:samples] for column in zip(*parts)))


def _repeats(table: np.ndarray) -> np.ndarray:
    """(P, 4): slots of a label table whose label >= 0 an earlier slot of
    its row carries."""
    seen = np.zeros(table.shape, dtype=bool)
    for s in range(1, table.shape[1]):
        seen[:, s] = np.any(table[:, :s] == table[:, s:s + 1], axis=1)
    return seen & (table >= 0)


def is_cuspidal(p: DhParams, grid_n: int = DEFAULT_GRID_N, census_n: int = 128,
                samples: int = 200) -> CuspidalityReport:
    """Full cuspidality analysis with cross-validation.

    The verdict is cusp existence; the independent oracle looks for a
    sampled regular point whose IK solutions share an aspect.  Both results
    and their agreement are recorded.  Raises NonGenericRobotError when the
    genericity check fails, and ValueError for census_n < 2 or samples < 1.
    """
    validate_params(p)
    _check_census_n(census_n)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    curves = trace_critical_points(p, grid_n)
    wcurves = critical_values(p, curves)
    # genericity reads neither the critical values nor the cusps, so a
    # refused robot runs no cusp search
    genericity = genericity_check(p, grid_n, curves, wcurves, ())
    if not genericity.is_generic:
        raise NonGenericRobotError(genericity)
    cusps = find_cusps(p, wcurves)
    nodes = find_nodes(p, wcurves)
    census = region_census(p, wcurves, census_n=census_n)
    maps = build_topology(p, curves, grid_n)
    picked = _sample_regular_points(p, census, maps, samples)
    shared = np.flatnonzero(np.any(_repeats(picked.aspect), axis=1))
    witness = (picked.rho[shared[0]].item(), picked.z[shared[0]].item()) if len(shared) else None
    r, s = np.nonzero(_repeats(picked.reduced))
    theorem2 = list(zip(picked.rho[r].tolist(), picked.z[r].tolist(),
                        picked.reduced[r, s].tolist()))
    examined = len(picked.rho)

    anomalies = []
    if examined < samples:
        anomalies.append(f"only {examined} regular sample points available")
    # a point with four solutions fills its tables' last slot
    if bool(np.any(census.counts >= 4)) and not np.any(picked.aspect[:, 3] >= 0):
        # every four-solution region is thinner than the sampling can resolve
        # (all candidate points have boundary-flagged solutions), so the
        # same-aspect oracle cannot inspect the regions where pairs may live
        anomalies.append("four-solution regions unresolved at this resolution")

    if (len(cusps) > 0) != (witness is not None):
        res = ", ".join(f"{max(c.res_m, c.res_m1, c.res_m2):.3g}" for c in cusps) or "none"
        anomalies.append(
            f"pillars disagree: {len(cusps)} cusps (max residuals {res} against tolerance "
            f"{CUSP_RESIDUAL_TOL:.3g}), {'a' if witness else 'no'} "
            f"shared aspect in {examined} points examined, "
            f"{int(np.count_nonzero(census.counts >= 4))} four-solution census cells")
    cross = CrossValidation(examined, witness is not None, witness, tuple(theorem2))
    work = {
        "grid_cells": grid_n * grid_n,
        "census_cells": census_n * census_n,
        "curve_vertices": int(sum(len(c) for c in curves)),
        "pseudosingular_points": maps.ps.total_points(),
        "discriminant_rechecked": maps.ps.rechecked,
        "cross_validation_points": examined,
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
