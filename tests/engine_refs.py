"""Loop references the array engines in the package are tested against: the
flood fill as one sparse graph over every cell, the damped Newton with one
fun_jac call per line-search lambda, marching squares and its chain walk over
dicts keyed by ("u" | "v", i, j), and a segment hash filled one segment at a
time."""
import math
from collections import defaultdict

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from cuspidal.critical import _HALVINGS, _NEWTON_MAX_ITER, _lstsq_steps, _mixed_cells
from cuspidal.dh import TWO_PI


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


def damped_newton(fun_jac, x0, max_iter: int = _NEWTON_MAX_ITER, tol: float = 0.0):
    """critical._damped_newton with the line search as a loop: the pending
    seeds are evaluated at lambda = 1, 1/2, ..., 2^-(_HALVINGS - 1) in turn,
    one fun_jac call per lambda, and each takes the first that lowers
    ||F||^2."""
    x = np.array(x0, float)
    k = len(x)
    fval, jac = fun_jac(x, np.arange(k))
    norm2 = np.sum(fval * fval, axis=1)
    ok = np.zeros(k, dtype=bool)
    done = np.zeros(k, dtype=bool)
    floor = max(tol * tol, 1e-24)
    for _ in range(max_iter):
        reached = ~done & (norm2 <= tol * tol)
        ok |= reached
        done |= reached
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
        stalled = act[pending]
        ok[stalled] = norm2[stalled] <= floor
        done[stalled] = True
    ok[~done] = norm2[~done] <= floor
    return x, ok


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
