"""Loop references the array engines in the package are tested against: the
flood fill as one sparse graph over every cell, the damped Newton with one
fun_jac call per line-search lambda, marching squares and its chain walk over
dicts keyed by ("u" | "v", i, j), a segment hash filled one segment at a time,
the quartic root engine as it stood before the per-robot conic constants, the
labels one solution at a time over its lattice cell's four corners, the
quartic jet with its own Horner loop, the A* path search over lattice-point
tuples, the path audit one segment at a time, the census counts from the root
engine at every target, the c3s3 plot's plane marching squares as a loop over
cells, the SVG polyline formatted one vertex at a time, the pulled-back
discriminant D through the end effector and the conic, its crossings bisected
36 times, the reduced aspects' parents from a sort of the whole lattice, and
the chart engine: cusps, nodes and quadruple roots solved on the quartic M
in the half-angle chart that keeps each seed well conditioned, as they stood
before the Newton systems moved onto the theta3 circle, certified by the
unit-free rule on the chart's own residuals, and cusps and quadruple roots by
Newton on the theta3 circle from seeds on the traced curves, as they were
found before the cusp locus."""
import heapq
import math
from collections import defaultdict

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from cuspidal.critical import (
    _HALVINGS,
    _NEWTON_MAX_ITER,
    _RHO2_FLOOR,
    CUSP_RESIDUAL_TOL,
    CUSP_THIRD_DERIV_MIN,
    DEDUP_RADIUS,
    CuspPoint,
    _certify,
    _chart_seed,
    _crossing_edges,
    _damped_newton,
    _dedup_sorted,
    _lstsq_steps,
    _mixed_cells,
    _multiple_root_system,
)
from cuspidal.dh import (
    TWO_PI,
    JointConfig,
    det_jacobian,
    fk_arrays,
    length_scale,
    singularity_scale,
    wrap_angle,
    wrap_float,
)
from cuspidal import reduction
from cuspidal.errors import StartOrGoalSingularError
from cuspidal.reduction import (
    _CONIC_ZERO,
    _DEGREE_DROP_TOL,
    _JET_INDEX,
    _JET_WEIGHT,
    _QUARTIC_ZERO,
    _SEPARATED,
    IkBatch,
    RootBatch,
    _atan2,
    _conic_terms,
    _derivative,
    _horner,
    cluster_real_roots,
    conic_raw,
    f_coefficients,
    quartic_coeffs_from_conic,
    quartic_discriminant,
    theta3_of_t,
)
from cuspidal.topology import PATH_DET_TOL, JointPath, PathCheck, SolutionLabel

from segment_refs import unwrap_segment


def components(key, excluded=None):
    """(count, labels) of topology._components from a graph with one node per
    cell and one edge per open cell edge, the seams of both axes included."""
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


def damped_newton(fun_jac, x0):
    """critical._damped_newton with the line search as a loop: the pending
    seeds are evaluated at lambda = 1, 1/2, ..., 2^-(_HALVINGS - 1) in turn,
    one fun_jac call per lambda, and each takes the first that lowers
    ||F||^2."""
    x = np.array(x0, float)
    k = len(x)
    fval, jac = fun_jac(x, np.arange(k))
    norm2 = np.sum(fval * fval, axis=1)
    done = np.zeros(k, dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        done |= norm2 == 0.0
        act = np.nonzero(~done)[0]
        if len(act) == 0:
            break
        step, solved = _lstsq_steps(jac[act], fval[act])
        done[act[~solved]] = True
        act, step = act[solved], step[solved]
        pending = np.ones(len(act), dtype=bool)
        lam = 1.0
        for _ in range(_HALVINGS):
            idx = np.nonzero(pending)[0]
            if len(idx) == 0:
                break
            rows = act[idx]
            xn = x[rows] - lam * step[idx]
            fn, jn = fun_jac(xn, rows)
            n2 = np.sum(fn * fn, axis=1)
            better = n2 < norm2[rows]
            up = rows[better]
            x[up], fval[up], jac[up], norm2[up] = xn[better], fn[better], jn[better], n2[better]
            pending[idx[better]] = False
            lam *= 0.5
        done[act[pending]] = True
    return x


def marching_segments(f, th, field):
    """Edge-crossing graph of the sign changes of a sampled field.

    `f` holds the field on the wrapped grid th x th; `field(theta2, theta3)`
    evaluates it at one saddle-cell center per call.  Node `("u", i, j)` is
    the crossing on the grid edge from (th[i], th[j]) to (th[i] + h, th[j]),
    node `("v", i, j)` the one on the edge toward (th[i], th[j] + h).
    Returns (linearly interpolated node positions, undirected adjacency).
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

    adj = defaultdict(list)
    for i, j in zip(*np.nonzero(_mixed_cells(neg))):
        i, j = int(i), int(j)
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
        else:
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
    return pos, adj


def chain_loops(pos, adj):
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


class SegmentHash:
    """Uniform spatial hash over planar segments for pair queries."""

    def __init__(self, cell: float):
        self.cell = cell
        self.buckets = defaultdict(list)
        self.segs = []

    def add(self, tag, a, b):
        idx = len(self.segs)
        self.segs.append((tag, a, b))
        c = self.cell
        i0, i1 = sorted((int(math.floor(a[0] / c)), int(math.floor(b[0] / c))))
        j0, j1 = sorted((int(math.floor(a[1] / c)), int(math.floor(b[1] / c))))
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                self.buckets[(i, j)].append(idx)

    def candidate_pairs(self):
        """Index pairs (i, j), i < j, of segments sharing a bucket.

        Returned as two int arrays, each pair once, in the order the sorted
        buckets first list it (bucket lists hold ascending indices).
        """
        firsts, seconds = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
        upper = {}
        for key in sorted(self.buckets):
            lst = self.buckets[key]
            if len(lst) > 1:
                if len(lst) not in upper:
                    upper[len(lst)] = np.triu_indices(len(lst), 1)
                ii, jj = upper[len(lst)]
                lst = np.asarray(lst)
                firsts.append(lst[ii])
                seconds.append(lst[jj])
        first, second = np.concatenate(firsts), np.concatenate(seconds)
        _, seen = np.unique(first * len(self.segs) + second, return_index=True)
        seen.sort()
        return first[seen], second[seen]


# --------------------------------------------------------------------------
# root engine and labelling before the per-robot constants: the conic from
# f_coefficients on every call, the polish line search as one Horner call per
# lambda, and one distance pass per curve index
# --------------------------------------------------------------------------

def conic(p, f, R, z):
    """reduction._conic with every product formed on each call."""
    sa1 = math.sin(p.alpha1)
    two_a1 = 2.0 * p.a1
    R = np.asarray(R, float)
    z = np.asarray(z, float)
    pu, pv, pw = -f.u[2] / two_a1, -f.v[2] / two_a1, (R - f.w[2]) / two_a1
    qu, qv, qw = -f.u[3] / sa1, -f.v[3] / sa1, (z - f.w[3]) / sa1
    axx = pu * pu + qu * qu - f.u[0] ** 2 - f.u[1] ** 2
    axy = pu * pv + qu * qv - f.u[0] * f.v[0] - f.u[1] * f.v[1]
    ayy = pv * pv + qv * qv - f.v[0] ** 2 - f.v[1] ** 2
    bx = pu * pw + qu * qw - f.u[0] * f.w[0] - f.u[1] * f.w[1]
    by = pv * pw + qv * qw - f.v[0] * f.w[0] - f.v[1] * f.w[1]
    c = pw * pw + qw * qw - f.w[0] ** 2 - f.w[1] ** 2
    return np.stack(np.broadcast_arrays(axx, axy, ayy, bx, by, c))


def quartic_stack(p, f, R, zr):
    """reduction._quartic_stack through two broadcast stacks."""
    cc = conic(p, f, R, zr)
    norm = np.max(np.abs(cc), axis=0)
    cc = cc / np.where(norm == 0.0, 1.0, norm)
    axx, axy, ayy, bx, by, c = cc
    m = np.stack(np.broadcast_arrays(axx - 2 * bx + c, -4 * axy + 4 * by,
                                     -2 * axx + 4 * ayy + 2 * c, 4 * axy + 4 * by,
                                     axx + 2 * bx + c))
    return m.T, norm


def ik_counts(p, rho, z):
    """reduction.ik_counts as the root engine alone gives it: the distinct
    real roots solve_quartics finds at every target, with no invariant
    count in front of it."""
    rho = np.asarray(rho, float).ravel()
    zr = np.asarray(z, float).ravel() - p.d1
    m, _ = quartic_stack(p, f_coefficients(p), rho * rho + zr * zr, zr)
    return reduction.solve_quartics(m).count


def polish_plain(coeffs, t, iters=18):
    """reduction._polish_plain with one Horner call per line-search lambda."""
    dcoeffs = _derivative(coeffs, 1)
    t = t.copy()
    f = _horner(coeffs, t)
    best_t, best_val = t.copy(), np.abs(f)
    act = np.arange(len(t))
    for _ in range(iters):
        df = _horner(dcoeffs[act], t[act])
        ok = (df != 0.0) & np.isfinite(df)
        act = act[ok]
        step = f[act] / df[ok]
        f_abs, t0 = np.abs(f[act]), t[act]
        pending = np.ones(len(act), dtype=bool)
        lam = 1.0
        for _ in range(8):
            idx = np.nonzero(pending)[0]
            if len(idx) == 0:
                break
            tn = t0[idx] - lam * step[idx]
            fn = _horner(coeffs[act[idx]], tn)
            better = np.abs(fn) < f_abs[idx]
            moved = act[idx[better]]
            t[moved], f[moved] = tn[better], fn[better]
            pending[idx[better]] = False
            lam *= 0.5
        act = act[~pending]
        val = np.abs(f[act])
        up = val < best_val[act]
        best_t[act[up]], best_val[act[up]] = t[act[up]], val[up]
        act = act[val != 0.0]
        if len(act) == 0:
            break
    return best_t


def polish_root(coeffs, t, mult, iters=12):
    """reduction._polish_root."""
    poly = _derivative(coeffs, mult - 1)
    dpoly = _derivative(coeffs, mult)
    t = t.copy()
    f = _horner(poly, t)
    best_t, best_val = t.copy(), np.abs(f)
    act = np.arange(len(t))
    for _ in range(iters):
        df = _horner(dpoly[act], t[act])
        act, df = act[df != 0.0], df[df != 0.0]
        tn = t[act] - f[act] / df
        moved = tn != t[act]
        act, tn = act[moved], tn[moved]
        t[act], f[act] = tn, _horner(poly[act], tn)
        val = np.abs(f[act])
        up = val < best_val[act]
        best_t[act[up]], best_val[act[up]] = t[act[up]], val[up]
        act = act[val != 0.0]
        if len(act) == 0:
            break
    return best_t


def _separated(t):
    th = 2.0 * np.arctan(t)
    gap = np.abs(th[:, :, None] - th[:, None, :])
    with np.errstate(invalid="ignore"):
        close = np.minimum(gap, TWO_PI - gap) < _SEPARATED
    return ~np.any(close & np.triu(np.ones((4, 4), dtype=bool), 1), axis=(1, 2))


def solve_quartics(m):
    """reduction.solve_quartics with every size eigensolved, the cluster
    lists always assembled and the residual evaluated after polishing."""
    m = np.asarray(m, float).reshape(-1, 5)
    k_rows = len(m)
    norm = np.max(np.abs(m), axis=1)
    zero = norm < 1e-300
    coeffs = m / np.where(zero, 1.0, norm)[:, None]
    drop = np.sum(np.cumprod(np.abs(coeffs[:, :4]) < _DEGREE_DROP_TOL, axis=1), axis=1)
    trailing = np.argmax(coeffs[:, ::-1] != 0.0, axis=1)
    n_eig = 4 - drop - trailing
    cand = np.zeros((k_rows, 4), dtype=complex)
    for n in range(1, 5):
        rows = np.nonzero(~zero & (n_eig == n))[0]
        if len(rows) == 0:
            continue
        lead = coeffs[rows[:, None], drop[rows, None] + np.arange(n + 1)]
        comp = np.zeros((len(rows), n, n))
        comp[:, 0, :] = -lead[:, 1:] / lead[:, :1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        cand[rows, :n] = np.linalg.eigvals(comp)
    re, im = cand.real, cand.imag
    im_angle = 2.0 * np.abs(im) / (1.0 + re * re + im * im)
    live = ~zero[:, None] & (np.arange(4) < 4 - drop[:, None]) & ~(im_angle > 1e-3)
    row, _ = np.nonzero(live)
    r_re, r_im = re[live], im[live]
    with np.errstate(all="ignore"):
        t = polish_plain(coeffs[row], r_re)
        residual = np.abs(_horner(coeffs[row], t))
    eps = float(np.finfo(float).eps)
    travel_max = 4.0 * (np.abs(r_im) + 6e-6 * (1.0 + r_re * r_re))
    accept = (residual <= 64.0 * eps * np.square(1.0 + t * t)) & (np.abs(t - r_re) <= travel_max)
    accepted = np.full((k_rows, 4), np.nan)
    accepted[live] = np.where(accept, t, np.nan)

    singles = _separated(accepted)
    s_row, s_slot = np.nonzero(singles[:, None] & ~np.isnan(accepted))
    merged = [(k, cluster_real_roots(accepted[k][~np.isnan(accepted[k])].tolist()))
              for k in np.nonzero(~singles)[0].tolist()]
    c_row = np.concatenate([s_row, np.array([k for k, c in merged for _ in c], dtype=int)])
    c_t = np.concatenate([accepted[s_row, s_slot], [rep for _, c in merged for rep, _ in c]])
    c_mult = np.concatenate([np.ones(len(s_row), dtype=int),
                             np.array([mult for _, c in merged for _, mult in c], dtype=int)])
    with np.errstate(all="ignore"):
        polished = polish_root(coeffs[c_row], c_t, c_mult)

    out_t = np.full((k_rows, 5), np.nan)
    out_m = np.zeros((k_rows, 5), dtype=int)
    single_t = np.full((k_rows, 4), np.nan)
    single_t[s_row, s_slot] = polished[:len(s_row)]
    still = singles & _separated(single_t)
    keep = still[s_row]
    out_t[s_row[keep], s_slot[keep]] = polished[:len(s_row)][keep]
    out_m[s_row[keep], s_slot[keep]] = 1
    expanded = defaultdict(list)
    redo = ~still[c_row]
    for k, rep, mult in zip(c_row[redo].tolist(), polished[redo].tolist(), c_mult[redo].tolist()):
        expanded[k].extend([rep] * mult)
    for k, ts in expanded.items():
        for slot, (rep, mult) in enumerate(cluster_real_roots(ts)):
            out_t[k, slot], out_m[k, slot] = rep, mult
    dropped = ~zero & (drop > 0)
    out_t[dropped, 4], out_m[dropped, 4] = math.inf, drop[dropped]
    with np.errstate(invalid="ignore"):
        key = np.where(out_m == 0, np.inf, np.where(np.isinf(out_t), math.pi, 2.0 * np.arctan(out_t)))
    order = np.argsort(key, axis=1, kind="stable")[:, :4]
    return RootBatch(np.take_along_axis(out_t, order, axis=1),
                     np.take_along_axis(out_m, order, axis=1), zero)


def quartic_jet(coeffs, t, order):
    """reduction.quartic_jet with its own Horner loop over the five slots."""
    d = coeffs[..., _JET_INDEX[:order + 1]] * _JET_WEIGHT[:order + 1]
    tt = np.reshape(t, (-1,) + (1,) * (d.ndim - 2))
    acc = d[..., 0]
    for i in range(1, 5):
        acc = acc * tt + d[..., i]
    return acc


def back_substitution(p, f, R, zr, theta2, theta3):
    """reduction._back_substitution at one root: (e1, e2) and the Jacobian."""
    c2, s2, c3, s3 = np.cos(theta2), np.sin(theta2), np.cos(theta3), np.sin(theta3)
    f1, f2, f3, f4 = (f.u[i] * c3 + f.v[i] * s3 + f.w[i] for i in range(4))
    g1, g2, g3, g4 = (f.v[i] * c3 - f.u[i] * s3 for i in range(4))
    a = f1 * c2 + f2 * s2
    b = f1 * s2 - f2 * c2
    return (a - (R - f3) / (2.0 * p.a1), b - (zr - f4) / math.sin(p.alpha1),
            (-b, g1 * c2 + g2 * s2 + g3 / (2.0 * p.a1), a,
             g1 * s2 - g2 * c2 + g4 / math.sin(p.alpha1)))


def half_gap(n, row, theta2, theta3, solved):
    """reduction._half_gaps for root n: half the larger of the theta2 and
    theta3 circle gaps to the nearest other solved root of its row, pi when
    there is none."""
    near = math.pi
    for m in np.flatnonzero((row == row[n]) & solved).tolist():
        if m != n:
            gaps = [abs(float(a[n]) - float(a[m])) for a in (theta2, theta3)]
            near = min(near, max(min(g, TWO_PI - g) for g in gaps))
    return 0.5 * near


def refine(p, f, R, zr, theta2, theta3, cap):
    """reduction._refine at one root: one Newton step on the
    back-substitution equations, kept when it is below cap in each angle
    and lowers the squared residual."""
    e1, e2, (j11, j12, j21, j22) = back_substitution(p, f, R, zr, theta2, theta3)
    with np.errstate(all="ignore"):
        det = j11 * j22 - j12 * j21
        d2 = (e1 * j22 - e2 * j12) / det
        d3 = (j11 * e2 - j21 * e1) / det
        n1, n2, _ = back_substitution(p, f, R, zr, theta2 - d2, theta3 - d3)
        if abs(d2) < cap and abs(d3) < cap and n1 * n1 + n2 * n2 < e1 * e1 + e2 * e2:
            return theta2 - d2, theta3 - d3
    return theta2, theta3


def solve_ik_batch(p, rho, z, phi=0.0):
    """reduction.solve_ik_batch on the references above, with F1..F4
    evaluated one form at a time, the refinement one root at a time and
    theta1 from fk_arrays."""
    rho = np.asarray(rho, float).ravel()
    zr = np.asarray(z, float).ravel() - p.d1
    R = rho * rho + zr * zr
    f = f_coefficients(p)
    m, norm = quartic_stack(p, f, R, zr)
    status = np.where(norm == 0.0, _CONIC_ZERO,
                      np.where(np.max(np.abs(m), axis=1) < 1e-12, _QUARTIC_ZERO, 0))
    roots = solve_quartics(m)
    row, slot = np.nonzero((roots.mult > 0) & (status == 0)[:, None])
    t, mult = roots.t[row, slot], roots.mult[row, slot]
    inf = np.isinf(t)
    tf = np.where(inf, 0.0, t)
    den = 1.0 + tf * tf
    c3 = np.where(inf, -1.0, (1.0 - tf * tf) / den)
    s3 = np.where(inf, 0.0, 2.0 * tf / den)
    f1, f2, f3, f4 = (f.u[i] * c3 + f.v[i] * s3 + f.w[i] for i in range(4))
    det = f1 * f1 + f2 * f2
    solved = ~(det < 1e-14 * np.maximum(1.0, np.abs(R[row])))
    det = np.where(solved, det, 1.0)
    rhs1 = (R[row] - f3) / (2.0 * p.a1)
    rhs2 = (zr[row] - f4) / math.sin(p.alpha1)
    theta2 = _atan2((f2 * rhs1 + f1 * rhs2) / det, (f1 * rhs1 - f2 * rhs2) / det)
    theta3 = np.array([theta3_of_t(v) for v in t.tolist()], dtype=float)
    caps = [half_gap(n, row, theta2, theta3, solved) for n in range(len(row))]
    for n in np.flatnonzero(solved & (mult == 1)).tolist():
        theta2[n], theta3[n] = refine(p, f, R[row[n]], zr[row[n]], theta2[n], theta3[n], caps[n])
    x0, y0, _ = fk_arrays(p, 0.0, theta2, theta3)
    theta1 = np.where(np.hypot(x0, y0) < 1e-12, 0.0,
                      np.broadcast_to(phi, rho.shape)[row] - _atan2(y0, x0))
    order = np.lexsort((np.where(solved, wrap_angle(theta3), np.inf), row))
    return IkBatch(row[order], t[order], mult[order],
                   np.column_stack([theta1, theta2, theta3])[order], solved[order], status)


def labels(maps, ik):
    """topology._labels one solution at a time: the lattice cell that holds
    it, from Python floats, its four corners' reduced labels, and the labels
    at the nearest of those corners."""
    amap, reduced = maps.aspects, maps.reduced.labels
    n, h = amap.grid_n, amap.spacing
    out = [None if status else [] for status in ik.status.tolist()]
    for k in np.flatnonzero(ik.solved).tolist():
        q = ik.theta[k].tolist()
        u, v = ((wrap_float(a) + math.pi) / h for a in q[1:])
        i, j = math.floor(u), math.floor(v)
        corners = {int(reduced[(i + di) % n, (j + dj) % n]) for di in (0, 1) for dj in (0, 1)}
        near = ((i + (u - i >= 0.5)) % n, (j + (v - j >= 0.5)) % n)
        aspect = int(amap.labels[near])
        out[int(ik.row[k])].append(SolutionLabel(
            JointConfig(*q), int(ik.mult[k]), aspect, int(reduced[near]),
            len(corners) > 1 or min(corners) < 0, aspect < 0))
    return out


# --------------------------------------------------------------------------
# posture-change path search over lattice-point tuples
# --------------------------------------------------------------------------

def find_nonsingular_path(p, maps, q_start, q_goal):
    """topology.find_nonsingular_path as an A* search with its state in dicts
    and a set keyed by (i, j) lattice-point tuples, audited by verify_path
    below."""
    scale = singularity_scale(p)
    tol = PATH_DET_TOL * scale
    for q in (q_start, q_goal):
        if abs(float(det_jacobian(p, q.theta2, q.theta3))) <= tol:
            raise StartOrGoalSingularError("configuration is singular within tolerance")
    amap = maps.aspects
    n = amap.grid_n
    h = amap.spacing
    start = amap.nearest(q_start.theta2, q_start.theta3)
    goal = amap.nearest(q_goal.theta2, q_goal.theta3)
    if amap.labels[start] != amap.labels[goal] or amap.labels[start] < 0:
        return None
    label = amap.labels[start]
    det_abs = np.abs(amap.det_vertex) / scale
    allowed = (amap.labels == label) & (np.abs(amap.det_vertex) > 3.0 * tol)
    allowed[start] = True
    allowed[goal] = True

    def heuristic(c):
        d2 = abs(wrap_float((c[0] - goal[0]) * h))
        d3 = abs(wrap_float((c[1] - goal[1]) * h))
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
        pts.append(np.array(amap.point(*c)))
    pts.append(np.array([q_goal.theta2, q_goal.theta3]))
    waypoints = np.array(pts)
    path = JointPath(waypoints, q_start.theta1, q_goal.theta1, 0.0)
    check = verify_path(p, path)
    return JointPath(waypoints, q_start.theta1, q_goal.theta1, check.min_det)


def verify_path(p, path, samples_per_segment: int = 10):
    """topology.verify_path with one det_jacobian call per segment."""
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


def marching_squares_plane(values, xs, ys):
    """svgplot._marching_squares_plane as a loop over the cells, one list of
    two end points per segment."""
    segs = []
    neg = values < 0
    nx, ny = values.shape
    for i in range(nx - 1):
        for j in range(ny - 1):
            corners = (neg[i, j], neg[i + 1, j], neg[i + 1, j + 1], neg[i, j + 1])
            if all(corners) or not any(corners):
                continue
            pts = []
            edges = (((i, j), (i + 1, j)), ((i + 1, j), (i + 1, j + 1)),
                     ((i + 1, j + 1), (i, j + 1)), ((i, j + 1), (i, j)))
            for (i0, j0), (i1, j1) in edges:
                f0, f1 = values[i0, j0], values[i1, j1]
                if (f0 < 0) != (f1 < 0):
                    frac = f0 / (f0 - f1)
                    pts.append((xs[i0] + frac * (xs[i1] - xs[i0]),
                                ys[j0] + frac * (ys[j1] - ys[j0])))
            if len(pts) == 2:
                segs.append(pts)
            elif len(pts) == 4:
                segs.append(pts[:2])
                segs.append(pts[2:])
    return segs


def polyline_points(canvas, pts):
    """The points attribute of svgplot._Canvas.polyline, one to_view_fmt call
    per vertex."""
    return " ".join("%s,%s" % canvas.to_view_fmt(x, y) for x, y in pts)


def discriminant(p, theta2, theta3):
    """topology._discriminant through the end effector: R and z - d1 from
    fk_arrays, the conic from conic_raw, scaled to unit max-norm per point."""
    x, y, z = fk_arrays(p, 0.0, theta2, theta3)
    zr = z - p.d1
    cc = conic_raw(p, x * x + y * y + zr * zr, zr)
    cc = cc / np.maximum(np.max(np.abs(cc), axis=0), 1e-300)
    return quartic_discriminant(quartic_coeffs_from_conic(cc))


def refine_crossings(field, ids, th, f):
    """topology._refine_crossings as 36 bisection steps on every crossing."""
    ii, jj, _, start, step = _crossing_edges(ids, th)
    neg0 = f[ii, jj] < 0
    lo = np.zeros(len(ids))
    hi = np.ones(len(ids))
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        pts = start + mid[:, None] * step
        same = (field(pts[:, 0], pts[:, 1]) < 0) == neg0
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return wrap_angle(start + (0.5 * (lo + hi))[:, None] * step)


def reduced_parent(reduced_labels, aspect_labels):
    """ReducedAspectMap.parent_aspect from each label's first row-major
    lattice point, found by np.unique over the whole lattice; the labels are
    the fill's, before the aspects' singular points are marked -1."""
    ids, first = np.unique(reduced_labels, return_index=True)
    return aspect_labels.ravel()[first[ids >= 0]]


# --------------------------------------------------------------------------
# the chart engine: every multiple-root system in t = tan(theta3 / 2), or in
# u = tan((theta3 - pi) / 2) where the seed is nearer theta3 = pi
# --------------------------------------------------------------------------

# Negating the linear conic coefficients maps the chart t to the chart u.
_FLIP = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0])


def chart_theta3(u, flip):
    th = 2.0 * math.atan(u)
    return wrap_float(th + math.pi) if flip else th


class QuarticPencil:
    """The conic and its quartic M(t) as exact polynomials in (R, z), per
    robot, in both charts (index 1 holds the flipped one)."""

    def __init__(self, p):
        k = _conic_terms(p)
        two_a1, sa1 = k.two_a1, k.sa1
        pw0, qw0 = -k.w2 / two_a1, -k.w3 / sa1
        c0 = conic_raw(p, 0.0, 0.0)
        c_r = np.array([0.0, 0.0, 0.0, k.pu / two_a1, k.pv / two_a1, 2.0 * pw0 / two_a1])
        c_z = np.array([0.0, 0.0, 0.0, k.qu / sa1, k.qv / sa1, 2.0 * qw0 / sa1])
        c_rr = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / (two_a1 * two_a1)])
        c_zz = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / (sa1 * sa1)])
        terms = np.array([c0, c_r, c_z, c_rr, c_zz])
        self.conic_terms = np.stack([terms, terms * _FLIP])      # (chart, term, 6)
        self.quartic_terms = np.moveaxis(                          # (chart, term, 5)
            quartic_coeffs_from_conic(np.moveaxis(self.conic_terms, -1, 0)), 0, -1)

    @staticmethod
    def _combine(terms, R, z):
        R = R[:, None]
        z = z[:, None]
        return terms[:, 0] + R * terms[:, 1] + z * terms[:, 2] + R * R * terms[:, 3] + z * z * terms[:, 4]

    def conic(self, R, z, flip):
        """Raw conic coefficients (K, 6) at points (R, z) in charts `flip`, all (K,)."""
        return self._combine(self.conic_terms[flip.astype(int)], R, z)

    def quartic(self, R, z, flip):
        """M and its R and z partials, stacked as (K, 3, 5)."""
        q = self.quartic_terms[flip.astype(int)]
        R2 = 2.0 * R[:, None]
        z2 = 2.0 * z[:, None]
        return np.stack([self._combine(q, R, z),
                         q[:, 1] + R2 * q[:, 3],
                         q[:, 2] + z2 * q[:, 4]], axis=1)

    def normalized_quartic(self, R, z, flip):
        """M (K, 5) from the conic scaled to max |coefficient| = 1."""
        cc = self.conic(R, z, flip)
        cc = cc / np.maximum(np.max(np.abs(cc), axis=1), 1e-300)[:, None]
        return quartic_coeffs_from_conic(cc.T).T


def chart_multiple_root_system(pencil, flip, mult):
    """M = M' = ... = M^(mult-1) = 0 in (u, R, z); flip[k] is seed k's chart."""
    def fun_jac(x, rows):
        jet = quartic_jet(pencil.quartic(x[:, 1], x[:, 2], flip[rows]), x[:, 0], mult)
        jac = np.stack([jet[:, 0, 1:], jet[:, 1, :mult], jet[:, 2, :mult]], axis=2)
        return jet[:, 0, :mult], jac
    return fun_jac


def chart_node_system(pencil, flip1, flip2):
    """Double roots at u1 and u2 (M = M' = 0 at each) in (u1, u2, R, z)."""
    def fun_jac(x, rows):
        k = len(x)
        R, zr = np.tile(x[:, 2], 2), np.tile(x[:, 3], 2)
        flips = np.concatenate([flip1[rows], flip2[rows]])
        jet = quartic_jet(pencil.quartic(R, zr, flips), x[:, :2].T.ravel(), 2)
        jet = jet.reshape(2, k, 3, 3)
        fval = np.zeros((k, 4))
        jac = np.zeros((k, 4, 4))
        for root in (0, 1):
            eqs = slice(2 * root, 2 * root + 2)
            fval[:, eqs] = jet[root, :, 0, :2]
            jac[:, eqs, root] = jet[root, :, 0, 1:]
            jac[:, eqs, 2] = jet[root, :, 1, :2]
            jac[:, eqs, 3] = jet[root, :, 2, :2]
        return fval, jac
    return fun_jac


def chart_node_system_symmetric(pencil, flip):
    """Two double roots at s +/- sqrt(e) by matching M's five coefficients
    against a [(t - s)^2 - e]^2 in (a, s, e, R, z)."""
    def fun_jac(x, rows):
        a, s, e = x[:, 0:1], x[:, 1:2], x[:, 2:3]
        m = pencil.quartic(x[:, 3], x[:, 4], flip[rows])
        one, zero = np.ones_like(s), np.zeros_like(s)
        se = s * s - e
        q = np.hstack([one, -4.0 * s, 6.0 * s * s - 2.0 * e, -4.0 * s * se, se * se])
        dq_ds = np.hstack([zero, -4.0 * one, 12.0 * s, -12.0 * s * s + 4.0 * e, 4.0 * s * se])
        dq_de = np.hstack([zero, zero, -2.0 * one, 4.0 * s, -2.0 * se])
        jac = np.stack([-q, -a * dq_ds, -a * dq_de, m[:, 1], m[:, 2]], axis=2)
        return m[:, 0] - a * q, jac
    return fun_jac


def _chart_certified(p, pencil, u, R, zr, flip, mult):
    """(|M^(j)|, j = 0..3, certified) of roots of multiplicity `mult` at chart
    coordinates u, by the rule of critical._certify on M in the seeds' charts."""
    res = np.abs(quartic_jet(pencil.normalized_quartic(R, zr, flip), u, 3))
    ok = ((R - zr * zr >= -_RHO2_FLOOR * length_scale(p) ** 2)
          & (np.max(res[:, :mult], axis=1) <= CUSP_RESIDUAL_TOL))
    if mult == 3:
        ok &= res[:, 3] >= CUSP_THIRD_DERIV_MIN
    return res, ok


def chart_find_cusps(p, workspace_curves):
    """critical.find_cusps on the chart engine: Newton on M = M' = M'' = 0 in
    (u, R, z), each seed in the chart _chart_seed picks for it."""
    lscale = length_scale(p)
    seeds = []
    for wc in workspace_curves:
        if len(wc) < 4:
            continue
        for k in _speed_minima(wc):
            u0, flip = _chart_seed(float(wc.joint.vertices[k, 1]))
            rho, z = wc.vertices[k]
            zr = z - p.d1
            seeds.append((u0, rho * rho + zr * zr, zr, flip))
    if not seeds:
        return []
    pencil = QuarticPencil(p)
    flip = np.array([s[3] for s in seeds])
    x = _damped_newton(chart_multiple_root_system(pencil, flip, 3), [s[:3] for s in seeds])
    u, R, zr = x.T
    res, certified = _chart_certified(p, pencil, u, R, zr, flip, 3)
    found = []
    for k in np.nonzero(certified)[0]:
        t_out = math.tan(chart_theta3(float(u[k]), bool(flip[k])) / 2.0)
        found.append((math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)), float(zr[k] + p.d1),
                      t_out, *(float(r) for r in res[k])))
    kept = _dedup_sorted(found, DEDUP_RADIUS * lscale, 1e-9 * lscale)
    return [CuspPoint(*c) for c in kept]


def chart_refine_nodes(p, cands):
    """critical._refine_nodes on the chart engine: tangency angles less than
    0.5 apart use the symmetric centre/half-gap system in a common chart,
    the others the four-unknown system with a chart per root.  Returns,
    per candidate, (theta3_1, theta3_2, R, zr), or None where the double
    roots are not real."""
    pencil = QuarticPencil(p)
    sym, plain = [], []
    for k, (th3a, th3b, rho, z) in enumerate(cands):
        zr = z - p.d1
        r0 = rho * rho + zr * zr
        gap = abs(wrap_float(th3a - th3b))
        if gap < 0.5:
            mean = th3a + wrap_float(th3b - th3a) / 2.0
            s0, flip = _chart_seed(mean)
            # chart half-gap: d(theta)/du = 2/(1+u^2)
            d0 = gap / 2.0 * (1.0 + s0 * s0) / 2.0
            sym.append((k, flip, (s0, d0 * d0, r0, zr)))
        else:
            u1, flip1 = _chart_seed(th3a)
            u2, flip2 = _chart_seed(th3b)
            plain.append((k, flip1, flip2, (u1, u2, r0, zr)))
    n = len(cands)
    u, flips = np.zeros((2, n)), np.zeros((2, n), dtype=bool)
    R, zr, live = np.zeros(n), np.zeros(n), np.ones(n, dtype=bool)
    if sym:
        k = [c[0] for c in sym]
        flip = np.array([c[1] for c in sym])
        x0 = np.array([c[2] for c in sym])
        lead = pencil.quartic(x0[:, 2], x0[:, 3], flip)[:, 0, 0]
        x = _damped_newton(chart_node_system_symmetric(pencil, flip),
                           np.column_stack([lead, x0]))
        _, s, e, R[k], zr[k] = x.T
        d = np.sqrt(np.maximum(e, 0.0))
        u[0, k], u[1, k] = s + d, s - d
        flips[:, k] = flip
        live[k] = e > 0.0
    if plain:
        k = [c[0] for c in plain]
        flips[0, k], flips[1, k] = [c[1] for c in plain], [c[2] for c in plain]
        x = _damped_newton(chart_node_system(pencil, flips[0, k], flips[1, k]),
                           [c[3] for c in plain])
        u[0, k], u[1, k], R[k], zr[k] = x.T
    return [(chart_theta3(u1, f1), chart_theta3(u2, f2), r, z) if ok else None
            for u1, u2, f1, f2, r, z, ok in zip(*u.tolist(), *flips.tolist(), R.tolist(),
                                                zr.tolist(), live.tolist())]


def chart_quadruple_root(p, workspace_curves, cusps):
    """The quadruple-root evidence of critical.genericity_check on the chart
    engine (Gauss-Newton on M = M' = M'' = M''' = 0 in (u, R, z)), or None."""
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
    if not seeds:
        return None
    pencil = QuarticPencil(p)
    flip = np.array([s[1] for s in seeds])
    x = _damped_newton(chart_multiple_root_system(pencil, flip, 4),
                       [(u0, R0, zr0) for u0, _, R0, zr0 in seeds])
    u, R, zr = x.T
    res, certified = _chart_certified(p, pencil, u, R, zr, flip, 4)
    res = np.max(res, axis=1)
    certified = np.nonzero(certified)[0]
    if len(certified) == 0:
        return None
    k = certified[0]
    return {"kind": "quadruple_root",
            "rho": math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)),
            "z": float(zr[k] + p.d1),
            "t": math.tan(chart_theta3(float(u[k]), bool(flip[k])) / 2.0),
            "residual": float(res[k])}


# --------------------------------------------------------------------------
# cusps and quadruple roots as they were found before the cusp locus: Newton
# on the theta3 circle from seeds on the traced curves
# --------------------------------------------------------------------------

def image_speed(wc):
    """|d(rho, z)| / |d(theta2, theta3)| at every vertex of a WorkspaceCurve,
    by central differences over the neighbours k - 1 and k + 1."""
    dj = np.abs(wrap_angle(np.roll(wc.joint.vertices, 1, axis=0)
                           - np.roll(wc.joint.vertices, -1, axis=0)))
    dw = np.roll(wc.vertices, 1, axis=0) - np.roll(wc.vertices, -1, axis=0)
    return np.hypot(dw[:, 0], dw[:, 1]) / np.maximum(np.hypot(dj[:, 0], dj[:, 1]), 1e-12)


def _speed_minima(wc):
    """Vertex indices of the local minima of the image speed along a curve of
    at least four vertices, where a cusp's image velocity vanishes."""
    if len(wc) < 4:
        return []
    speed = image_speed(wc)
    return np.nonzero((speed <= np.roll(speed, 1)) & (speed <= np.roll(speed, -1)))[0].tolist()


def speed_minimum_find_cusps(p, workspace_curves):
    """critical.find_cusps seeded at the image-speed minima of the traced
    critical values instead of the cusp locus: one Newton batch on g = g' =
    g'' = 0, certified and deduplicated by the same rules."""
    seeds = []
    for wc in workspace_curves:
        for k in _speed_minima(wc):
            rho, z = wc.vertices[k]
            zr = z - p.d1
            seeds.append((float(wc.joint.vertices[k, 1]), rho * rho + zr * zr, zr))
    if not seeds:
        return []
    x = _damped_newton(_multiple_root_system(p, 3), seeds)
    theta3, R, zr = wrap_angle(x[:, 0]), x[:, 1], x[:, 2]
    res, certified = _certify(p, theta3, R, zr, 3)
    found = [(math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)), float(zr[k] + p.d1),
              math.tan(float(theta3[k]) / 2.0), *(float(r) for r in res[k]))
             for k in np.nonzero(certified)[0]]
    lscale = length_scale(p)
    return [CuspPoint(*c) for c in _dedup_sorted(found, DEDUP_RADIUS * lscale, 1e-9 * lscale)]


def newton_quadruple_root(p, workspace_curves, cusps):
    """The quadruple-root evidence of critical.genericity_check's test (a)
    by Gauss-Newton on g = g' = g'' = g''' = 0, seeded at the cusps and at
    each traced curve's extreme vertices in rho and z, or None."""
    seeds = [(2.0 * math.atan(c.t), c.rho * c.rho + (c.z - p.d1) ** 2, c.z - p.d1)
             for c in cusps]
    for wc in workspace_curves:
        if len(wc) == 0:
            continue
        for k in sorted({int(np.argmin(wc.vertices[:, 0])), int(np.argmax(wc.vertices[:, 0])),
                         int(np.argmin(wc.vertices[:, 1])), int(np.argmax(wc.vertices[:, 1]))}):
            rho, z = wc.vertices[k]
            zr = z - p.d1
            seeds.append((float(wc.joint.vertices[k, 1]), rho * rho + zr * zr, zr))
    if not seeds:
        return None
    x = _damped_newton(_multiple_root_system(p, 4), seeds)
    theta3, R, zr = wrap_angle(x[:, 0]), x[:, 1], x[:, 2]
    res, certified = _certify(p, theta3, R, zr, 4)
    certified = np.nonzero(certified)[0]
    if len(certified) == 0:
        return None
    k = certified[0]
    return {"kind": "quadruple_root",
            "rho": math.sqrt(max(float(R[k] - zr[k] * zr[k]), 0.0)),
            "z": float(zr[k] + p.d1),
            "t": math.tan(float(theta3[k]) / 2.0),
            "residual": float(np.max(res[k]))}
