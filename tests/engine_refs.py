"""Loop references the flood fill and the batched Newton line search in the package
are tested against: the flood fill as one sparse graph over every cell, and the
damped Newton with one fun_jac call per line-search lambda."""
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from cuspidal.critical import _HALVINGS, _NEWTON_MAX_ITER, _lstsq_steps


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
