"""Aspects, pseudosingularities, reduced aspects and the cuspidality verdict.

Every map reads the vertex lattice S is traced on.  Aspects are the
connected components of the torus minus the critical-point curves S: one
flood fill over the lattice joins neighboring points that carry the same
sign of det J.  Pseudosingularities are the nonsingular preimages of
critical values, PS = f^-1(f(S)) \\ S.  f^-1(f(S)) is the zero set of one
scalar field, the pulled-back IK discriminant D(theta2, theta3) =
disc_t M(t; f), and PS is where D changes sign; S, where f folds, is an
even-order zero.  Reduced aspects are the components of the complement of
S union PS: the same flood fill, blocked where det J or D changes sign.
The verdict (existence of a cusp) is cross-validated against an independent
oracle: sampling regular workspace points and asking whether two IK
solutions ever share an aspect.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

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
    _chain_loops,
    _crossing_edges,
    _marching_segments,
    _sample_lattice,
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
    conic_classify,
    f_coefficients,
    quartic_coeffs_from_conic,
    quartic_discriminant,
    solve_ik_batch,
)

PS_EXCLUSION_RADIUS = 1e-2
PATH_DET_TOL = 1e-4  # times singularity scale
_SINGULAR_CELL_TOL = 1e-12
_CROSSING_BRACKET = 2.0 ** -36  # final bracket of a PS crossing, in lattice edges


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
        """Nearest lattice point (i, j) of torus points, shared by every map of
        this lattice: ints for one point, index arrays for arrays of points."""
        h = self.spacing
        i = np.floor((wrap_angle(theta2) + math.pi) / h + 0.5).astype(int) % self.grid_n
        j = np.floor((wrap_angle(theta3) + math.pi) / h + 0.5).astype(int) % self.grid_n
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
    parent_aspect: np.ndarray  # (count,) aspect label per reduced label


@dataclass(frozen=True)
class PseudoSingularitySet:
    """Nonsingular preimages of the critical values, chained into polylines
    that stop where the S band begins."""

    polylines: tuple          # of (k, 2) arrays on the torus; closed loops repeat their first point
    d_positive: np.ndarray    # (N, N) D > 0 on the vertex lattice it was traced on
    s_band: np.ndarray        # (N, N) lattice points of the S band (_s_band)

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

def _components(key, excluded=None):
    """Connected components of cells joined across open edges.

    An edge between neighboring cells is open when both carry the same key
    and neither cell is excluded; excluded cells get label -1.  Labels are
    numbered by first row-major appearance, so they are deterministic.  The
    fill runs over row runs, the maximal runs of cells joined by open edges
    along a row (axis 1) up to its seam, numbered in row-major order by one
    cumsum.  The graph joins runs across each row's seam (column n - 1 to
    column 0) and across the open edges between rows, with one edge wherever
    the pair of runs changes along the row, so it has thousands of nodes
    where a graph of cells has grid_n^2.  Returns the count, the labels and
    each label's first lattice point (row-major flat index), the first cell
    of its first free run.
    """
    free = np.ones(key.shape, dtype=bool) if excluded is None else ~excluded
    joined = (key[:, 1:] == key[:, :-1]) & free[:, 1:] & free[:, :-1]
    start = np.ones(key.shape, dtype=bool)
    start[:, 1:] = ~joined
    run = np.cumsum(start.ravel()).reshape(key.shape) - 1
    seam = (key[:, -1] == key[:, 0]) & free[:, -1] & free[:, 0]
    # open edges from each row to the next (the last row to the first), kept
    # where the pair of runs they join differs from the pair one cell back
    below = np.roll(run, -1, axis=0)
    across = (key == np.roll(key, -1, axis=0)) & free & np.roll(free, -1, axis=0)
    across[:, 1:] &= (run[:, 1:] != run[:, :-1]) | (below[:, 1:] != below[:, :-1])
    rows = np.concatenate([run[seam, -1], run[across]])
    cols = np.concatenate([run[seam, 0], below[across]])
    n_runs = int(run[-1, -1]) + 1
    graph = coo_matrix((np.ones(len(rows), dtype=bool), (rows, cols)), shape=(n_runs, n_runs))
    n_comp, comp = connected_components(graph, directed=False)
    # an excluded cell is a run of its own without edges, so its component
    # holds no free run and keeps the label -1
    starts = np.flatnonzero(start)
    free_runs = np.flatnonzero(free.ravel()[starts])
    comps, first = np.unique(comp[free_runs], return_index=True)
    order = np.argsort(first)
    remap = -np.ones(n_comp, dtype=np.int32)
    remap[comps[order]] = np.arange(len(comps), dtype=np.int32)
    return len(comps), remap[comp][run], starts[free_runs[first[order]]]


def compute_aspects(curves: CriticalSet) -> AspectMap:
    """Aspects as the components of constant det J sign on the set's vertex
    lattice, from the det J the trace sampled.

    Lattice points singular within tolerance are labeled -1.
    """
    det = curves.det_vertex
    count, labels, _ = _components(det >= 0)
    labels[np.abs(det) < _SINGULAR_CELL_TOL * singularity_scale(curves.robot)] = -1
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
    f1 = f.u[0] * c3 + f.v[0] * s3 + f.w[0]
    f2 = f.u[1] * c3 + f.v[1] * s3 + f.w[1]
    p3 = (f.u[2] * c3 + f.v[2] * s3) / k.two_a1
    q3 = (f.u[3] * c3 + f.v[3] * s3) / k.sa1
    c2, s2 = np.cos(theta2), np.sin(theta2)
    pw = p3 + f1 * c2 + f2 * s2
    qw = q3 + f1 * s2 - f2 * c2
    bx = k.pu * pw + k.qu * qw - k.uw[0] - k.uw[1]
    by = k.pv * pw + k.qv * qw - k.vw[0] - k.vw[1]
    c = pw * pw + qw * qw - k.ww[0] - k.ww[1]
    return quartic_discriminant(quartic_coeffs_from_conic((k.axx, k.axy, k.ayy, bx, by, c)))


def _refine_crossings(field, ids, th, f):
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on the sign
    change of a field along each crossed lattice edge, until its bracket is
    _CROSSING_BRACKET of an edge; returns the bracket midpoints on the torus.

    `ids` are the integer crossing-node ids `_marching_segments` gives for
    the samples `f` on th x th, whose values at both ends of an edge open
    its bracket.  Each round evaluates the field once at every crossing
    still open: at the secant point of its bracket, held half the final
    width inside it so that a root next to an end closes the bracket.  An
    end kept twice or more in a row has its value halved (the Illinois
    step); once kept three times in a row, the crossing bisects instead,
    which bounds the rounds where the far end's value is orders of magnitude
    above the near one's or the field bends between them.
    """
    n = len(th)
    i, j, along_v, start, step = _crossing_edges(ids, th)
    lo, hi = np.zeros(len(ids)), np.ones(len(ids))
    f_lo, f_hi = f[i, j], f[(i + 1 - along_v) % n, (j + along_v) % n]
    neg = f_lo < 0
    kept = np.zeros(len(ids), dtype=np.int8)    # rounds in a row hi (> 0) or lo (< 0) stayed
    tol = _CROSSING_BRACKET
    active = np.arange(len(ids))
    while len(active):
        a, b, fa, fb, run = lo[active], hi[active], f_lo[active], f_hi[active], kept[active]
        x = np.clip(a - fa * (b - a) / (fb - fa), a + 0.5 * tol, b - 0.5 * tol)
        x = np.where(np.abs(run) >= 3, 0.5 * (a + b), x)
        pts = start[active] + x[:, None] * step[active]
        fx = field(pts[:, 0], pts[:, 1])
        up = (fx < 0) == neg[active]              # x replaces lo, hi stays
        run = np.where(up, np.maximum(run, 0) + 1, np.minimum(run, 0) - 1)
        lo[active], hi[active] = np.where(up, x, a), np.where(up, b, x)
        f_lo[active] = np.where(up, fx, np.where(run <= -2, 0.5 * fa, fa))
        f_hi[active] = np.where(up, np.where(run >= 2, 0.5 * fb, fb), fx)
        kept[active] = run
        active = active[hi[active] - lo[active] > tol]
    return wrap_angle(start + (0.5 * (lo + hi))[:, None] * step)


def _s_band(det_vertex: np.ndarray) -> np.ndarray:
    """Both ends of every lattice edge where det J changes sign, grown
    ceil(PS_EXCLUSION_RADIUS / h) + 1 times over the 4-neighbourhood."""
    neg = det_vertex < 0
    band = np.zeros(neg.shape, dtype=bool)
    for axis in (0, 1):
        crossed = neg != np.roll(neg, -1, axis=axis)
        band |= crossed | np.roll(crossed, 1, axis=axis)
    for _ in range(int(math.ceil(PS_EXCLUSION_RADIUS / (TWO_PI / len(neg)))) + 1):
        grown = band.copy()
        for shift in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            grown |= np.roll(np.roll(band, shift[0], axis=0), shift[1], axis=1)
        band = grown
    return band


def compute_pseudosingularities(curves: CriticalSet) -> PseudoSingularitySet:
    """PS = f^-1(f(S)) \\ S as the sign-change set of the pulled-back discriminant.

    f^-1(f(S)) is the zero set of D(theta2, theta3) = disc_t M(t; f(theta2,
    theta3)).  D changes sign across PS, where f is a local diffeomorphism,
    and touches zero without a sign change on S, where f folds.  D is sampled
    once on S's vertex lattice, and the same marching squares that traces S
    extracts its sign changes.  Near S the even-order zero leaves D's sign
    to rounding noise, so the crossings on edges that touch the S band are
    dropped, which opens the chains that run into S where the reduced fill's
    boundary territory begins; the rest are bisected along their edges.
    """
    field = functools.partial(_discriminant, curves.robot)
    d, th = _sample_lattice(field, curves.grid_n)
    band = _s_band(curves.det_vertex)
    ids, nbr = _marching_segments(d, th, field)
    polylines = []
    if len(ids):
        n = curves.grid_n
        i, j, along_v, _, _ = _crossing_edges(ids, th)
        keep = ~band[i, j] & ~band[(i + 1 - along_v) % n, (j + along_v) % n]
        pts = np.empty((len(ids), 2))
        pts[keep] = _refine_crossings(field, ids[keep], th, d)
        for chain, closed in _chain_loops(nbr, keep):
            verts = pts[chain]
            if closed:
                verts = np.vstack([verts, verts[:1]])
            if len(verts) >= 2:
                polylines.append(verts)
    return PseudoSingularitySet(tuple(polylines), d > 0, band)


def compute_reduced_aspects(ps: PseudoSingularitySet, aspects: AspectMap) -> ReducedAspectMap:
    """Flood fill of the torus minus S union PS on the vertex lattice.

    Edges are blocked where det J or D changes sign.  D has an even-order
    zero on S, and PS branches end on S, where lattice signs cannot resolve
    which side of the boundary a point is on.  The S band the PS chains
    stop at is therefore boundary territory: its points are labeled -1 and
    removed from the connectivity, which is the honest resolution-limited
    reading of the decomposition (extra splitting is safe, leaking between
    reduced aspects is not).  Without pseudosingularities S is the only
    boundary and the reduced aspects are the aspects.  `aspects` is the
    AspectMap of the lattice to refine; its singular points stay -1.
    """
    grid_n = aspects.grid_n
    if not ps.total_points():
        return ReducedAspectMap(grid_n, aspects.labels, aspects.count,
                                np.arange(aspects.count, dtype=np.int32))
    if ps.d_positive.shape != (grid_n, grid_n):
        raise ValueError("pseudosingularities were computed on another grid")
    key = 2 * (aspects.det_vertex >= 0) + ps.d_positive
    count, labels, first = _components(key, excluded=ps.s_band)
    parent = aspects.labels.ravel()[first]
    labels[aspects.labels < 0] = -1
    return ReducedAspectMap(grid_n, labels, count, parent)


def build_topology(p: DhParams, curves: CriticalSet, grid_n: int) -> TopologyMaps:
    """All maps of p from its CriticalSet traced on grid_n (ValueError otherwise)."""
    curves.check(p, grid_n)
    aspects = compute_aspects(curves)
    ps = compute_pseudosingularities(curves)
    return TopologyMaps(aspects, compute_reduced_aspects(ps, aspects), ps)


def _labels(maps: TopologyMaps, ik: IkBatch) -> list:
    """SolutionLabel lists of the targets of an IK batch; None for the
    targets solve_ik refuses.

    Labels are read at each solution's nearest lattice point, a corner of
    the cell floor((theta + pi) / h) that holds it.  The solution is
    on_boundary unless the cell's four corners carry one reduced label
    >= 0.  By _components' construction that holds exactly when det J and D
    keep their signs on the cell's edges and no corner lies in the S band
    or on a singular lattice point: the only cells where the nearest-point
    read cannot name the wrong region.
    """
    row, theta, mult = ik.row[ik.solved], ik.theta[ik.solved], ik.mult[ik.solved]
    th2, th3 = wrap_angle(theta[:, 1]), wrap_angle(theta[:, 2])
    at = maps.aspects.nearest(th2, th3)
    aspect = maps.aspects.labels[at].tolist()
    reduced = maps.reduced.labels[at]
    grid_n, h, lattice = maps.aspects.grid_n, maps.aspects.spacing, maps.reduced.labels
    i, j = (np.floor((th + math.pi) / h).astype(int) % grid_n for th in (th2, th3))
    i1, j1 = (i + 1) % grid_n, (j + 1) % grid_n
    corner = lattice[i, j]
    on_boundary = ((corner < 0) | (lattice[i1, j] != corner) | (lattice[i, j1] != corner)
                   | (lattice[i1, j1] != corner)).tolist()
    out = [None if status else [] for status in ik.status.tolist()]
    for n, (k, q, m) in enumerate(zip(row.tolist(), theta.tolist(), mult.tolist())):
        out[k].append(SolutionLabel(JointConfig(*q), m, aspect[n], int(reduced[n]),
                                    on_boundary[n], aspect[n] < 0))
    return out


def label_solutions_batch(p: DhParams, maps: TopologyMaps, rho, z) -> list:
    """label_solutions for arrays of cross-section points (rho, z), from one
    IK engine pass and one read of the lattice; targets whose IK is
    degenerate get None instead of raising."""
    return _labels(maps, solve_ik_batch(p, rho, z))


def label_solutions(p: DhParams, maps: TopologyMaps, target: CrossSectionPoint):
    """Aspect and reduced-aspect labels for every IK solution of the target.

    A solution whose lattice cell has a corner off its region (a corner in
    the S band, on a singular point, or across S or PS) is flagged
    on_boundary; see SolutionLabel.
    """
    ik = solve_ik_batch(p, target.rho, target.z)
    ik.check(0)
    return _labels(maps, ik)[0]


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
    points = np.flatnonzero(allowed)
    node = np.full(allowed.shape, -1, dtype=np.int32)
    node[allowed] = np.arange(len(points), dtype=np.int32)
    to = np.column_stack([np.roll(node, shift, axis=axis).ravel()[points]
                          for shift, axis in ((-1, 0), (1, 0), (-1, 1), (1, 1))])
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
    singularities and is carried only at the ends."""
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
    allowed = (amap.labels == amap.labels[start]) & (np.abs(amap.det_vertex) > 3.0 * tol)
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
    path = JointPath(waypoints, q_start.theta1, q_goal.theta1, 0.0)
    return JointPath(waypoints, q_start.theta1, q_goal.theta1, verify_path(p, path).min_det)


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

def _clean(labels) -> bool:
    return (labels is not None and len(labels) >= 2
            and not any(l.on_boundary or l.singular_cell or l.multiplicity != 1 for l in labels))


def _sample_regular_points(p: DhParams, census, maps: TopologyMaps, samples: int):
    """Deterministic stratified sample of regular points with >= 2 IKS.

    Four-solution cells are taken first (same-aspect pairs can only occur
    where at least four solutions exist), then two-solution cells.  The
    first `samples` clean candidates, in candidate order, are kept.
    Candidates are labelled on demand, in batches of the points still
    missing plus an eighth, so the two-solution stratum is labelled only
    where the four-solution one leaves too few clean points.
    """
    rc, zc = census.centers()
    counts = census.counts
    picked = []
    for cells in (np.argwhere(counts >= 4), np.argwhere(counts == 2)):
        cells = cells[::max(1, len(cells) // samples)].tolist()
        while cells and len(picked) < samples:
            size = samples - len(picked)
            size += size // 8
            targets = [CrossSectionPoint(float(rc[i]), float(zc[j])) for i, j in cells[:size]]
            del cells[:size]
            labelled = label_solutions_batch(p, maps, [t.rho for t in targets], [t.z for t in targets])
            picked.extend((t, labels) for t, labels in zip(targets, labelled) if _clean(labels))
    return picked[:samples]


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
    if len(picked) < samples:
        anomalies.append(f"only {len(picked)} regular sample points available")
    if (bool(np.any(census.counts >= 4))
            and not any(len(labels) >= 4 for _, labels in picked)):
        # every four-solution region is thinner than the sampling can resolve
        # (all candidate points have boundary-flagged solutions), so the
        # same-aspect oracle cannot inspect the regions where pairs may live
        anomalies.append("four-solution regions unresolved at this resolution")

    if (len(cusps) > 0) != (witness is not None):
        res = ", ".join(f"{max(c.res_m, c.res_m1, c.res_m2):.3g}" for c in cusps) or "none"
        anomalies.append(
            f"pillars disagree: {len(cusps)} cusps (max residuals {res} against tolerance "
            f"{CUSP_RESIDUAL_TOL:.3g}), {'a' if witness else 'no'} "
            f"shared aspect in {len(picked)} points examined, "
            f"{int(np.count_nonzero(census.counts >= 4))} four-solution census cells")
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
