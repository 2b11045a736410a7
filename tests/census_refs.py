"""Census references the package is tested against: a count that deflates
the known double root, the audit walk built on it, and the clearance and
crossings of every segment against every centre and pair."""
from collections import defaultdict

import numpy as np

from cuspidal.critical import (
    MAX_BOUNDARY_SAMPLES,
    _census_clearance,
    _census_crossings,
    _census_delta,
    _chart_seed,
)
from cuspidal.dh import wrap_float
from cuspidal.geometry import seg_intersect_many
from cuspidal.reduction import conic_raw, quartic_coeffs_from_conic

from engine_refs import cluster_real_roots


def synthetic_division(coeffs, root):
    out = np.empty(len(coeffs) - 1)
    acc = coeffs[0]
    for k in range(len(coeffs) - 1):
        out[k] = acc
        acc = coeffs[k + 1] + acc * root
    return out


def count_at_boundary(p, rho, z, theta3_double):
    """Distinct IKS at a point on the critical-value set: the known double
    root is deflated out of the max-normalised quartic in its
    well-conditioned chart, the remaining quadratic solved by np.roots."""
    u, flip = _chart_seed(wrap_float(theta3_double))
    zr = z - p.d1
    cc = conic_raw(p, rho * rho + zr * zr, zr)
    if flip:
        cc[3:5] = -cc[3:5]
    poly = quartic_coeffs_from_conic(cc / np.max(np.abs(cc)))
    for _ in range(2):
        poly = synthetic_division(poly, u)
    roots = [r.real for r in np.roots(poly) if abs(r.imag) <= 1e-7 * (1 + r.real ** 2)]
    return len(cluster_real_roots(roots + [u]))


def census_walk(p, workspace_curves, census):
    """(audited_pairs, violations, boundary_samples as (rho, z, count, low, high))
    of region_census's audit, one pair at a time in row-major pair order, with
    each boundary point, the crossed segment's first vertex, found by curve
    index and counted alone with the double root at that vertex's theta3
    deflated.  Counts, clearance and crossings are the census' own."""
    rc, zc = census.centers()
    n = len(rc)
    cell = float(min(census.rho_edges[1] - census.rho_edges[0],
                     census.z_edges[1] - census.z_edges[0]))
    seg_a = np.vstack([w.vertices for w in workspace_curves])
    seg_b = np.vstack([np.roll(w.vertices, -1, axis=0) for w in workspace_curves])
    tags = [(ci, k) for ci, w in enumerate(workspace_curves) for k in range(len(w))]
    delta = _census_delta(census.rho_edges, census.z_edges)
    clear = _census_clearance(rc, zc, seg_a, seg_b, 0.3 * cell, delta)
    crossings, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, delta)
    audited, violations, samples = 0, [], []
    per_kind = defaultdict(int)
    for i in range(n):
        for j in range(n):
            for d, (i2, j2) in enumerate(((i + 1, j), (i, j + 1))):
                if i2 >= n or j2 >= n or not (clear[i, j] and clear[i2, j2]):
                    continue
                e = 2 * (i * n + j) + d
                cells = [[i, j], [i2, j2]]
                pair = [int(census.counts[i, j]), int(census.counts[i2, j2])]
                if crossings[e] == 0:
                    if pair[0] != pair[1]:
                        violations.append({"kind": "no_crossing_count_change",
                                           "cells": cells, "counts": pair})
                    continue
                if crossings[e] != 1:
                    continue
                audited += 1
                if abs(pair[0] - pair[1]) != 2:
                    violations.append({"kind": "adjacent_region_delta",
                                       "cells": cells, "counts": pair})
                    continue
                low, high = min(pair), max(pair)
                if per_kind[(low, high)] >= MAX_BOUNDARY_SAMPLES:
                    continue
                ci, vertex = tags[hit_seg[e]]
                curve = workspace_curves[ci]
                rr, zz = (float(v) for v in curve.vertices[vertex])
                cnt = count_at_boundary(p, rr, zz, float(curve.joint.vertices[vertex, 1]))
                per_kind[(low, high)] += 1
                samples.append((rr, zz, cnt, low, high))
                if cnt != low + 1:
                    violations.append({"kind": "boundary_count", "point": [rr, zz],
                                       "count": cnt, "expected": low + 1})
    return audited, violations, samples


def _within(lo, hi, x, reach):
    """(S, len(x)): x[k] within reach of the range [lo[s], hi[s]]."""
    return (x >= lo[:, None] - reach) & (x <= hi[:, None] + reach)


def _spans_within(lo, hi, x, reach):
    """(S, len(x) - 1): [x[k], x[k + 1]] within reach of [lo[s], hi[s]]."""
    return (x[1:] >= lo[:, None] - reach) & (x[:-1] <= hi[:, None] + reach)


def all_segments_census(rc, zc, seg_a, seg_b, margin, clear=None, reach=np.inf, chunk=64):
    """(clear, crossings, hit_seg) of _census_clearance and _census_crossings
    from every segment against every centre and every pair of adjacent
    centres, segments in chunks, with the package's distance expression and
    seg_intersect_many.  Combinations whose bounding boxes lie more than
    `reach` apart on an axis are skipped (none at the default, inf); a
    nearer centre or a hit needs them within a few roundings.  `clear`
    (default: the clearance found here) selects the pairs; hit_seg is -1
    where crossings != 1."""
    n = len(rc)
    lo, hi = np.minimum(seg_a, seg_b), np.maximum(seg_a, seg_b)
    near_mask = np.zeros((n, n), dtype=bool)
    for s0 in range(0, len(seg_a), chunk):
        part = slice(s0, s0 + chunk)
        box = (_within(lo[part, 0], hi[part, 0], rc, reach)[:, :, None]
               & _within(lo[part, 1], hi[part, 1], zc, reach)[:, None, :])
        seg, i, j = np.unravel_index(np.flatnonzero(box), box.shape)
        seg += s0
        centers = np.column_stack([rc[i], zc[j]])
        a, ab = seg_a[seg], seg_b[seg] - seg_a[seg]
        vv = np.sum(ab * ab, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            u = np.where(vv == 0.0, 0.0,
                         np.minimum(1.0, np.maximum(0.0, np.sum((centers - a) * ab, axis=1) / vv)))
        off = centers - (a + u[:, None] * ab)
        near = np.hypot(off[:, 0], off[:, 1]) < margin
        near_mask[i[near], j[near]] = True
    if clear is None:
        clear = ~near_mask
    hits_seg, hits_pair = [], []
    for s0 in range(0, len(seg_a), chunk):
        part = slice(s0, s0 + chunk)
        for d in (0, 1):
            if d == 0:
                box = (_spans_within(lo[part, 0], hi[part, 0], rc, reach)[:, :, None]
                       & _within(lo[part, 1], hi[part, 1], zc, reach)[:, None, :])
            else:
                box = (_within(lo[part, 0], hi[part, 0], rc, reach)[:, :, None]
                       & _spans_within(lo[part, 1], hi[part, 1], zc, reach)[:, None, :])
            seg, i, j = np.unravel_index(np.flatnonzero(box), box.shape)
            seg += s0
            i2, j2 = i + (1 - d), j + d
            both = clear[i, j] & clear[i2, j2]
            seg, i, j, i2, j2 = seg[both], i[both], j[both], i2[both], j2[both]
            hit, _ = seg_intersect_many(np.column_stack([rc[i], zc[j]]),
                                        np.column_stack([rc[i2], zc[j2]]),
                                        seg_a[seg], seg_b[seg])
            hits_seg.append(seg[hit])
            hits_pair.append(2 * (i[hit] * n + j[hit]) + d)
    hits_seg, hits_pair = np.concatenate(hits_seg), np.concatenate(hits_pair)
    crossings = np.bincount(hits_pair, minlength=2 * n * n)
    hit_seg = np.full(2 * n * n, -1)
    single = crossings[hits_pair] == 1
    hit_seg[hits_pair[single]] = hits_seg[single]
    return ~near_mask, crossings, hit_seg
