"""Census references the batched boundary audit in the package is tested against:
one K = 1 Newton per boundary point, a count that deflates the known double root, and
the audit walk built on the two; and the audit that refines every boundary crossing
in one batch."""
import math
from collections import defaultdict

import numpy as np

from cuspidal.critical import (
    MAX_BOUNDARY_SAMPLES,
    _census_clearance,
    _census_crossings,
    _chart_seed,
    _damped_newton,
    _segment_theta3,
    _segments,
    _tangency_system,
)
from cuspidal.dh import wrap_float
from cuspidal.reduction import (
    circle_harmonics,
    circle_jet,
    cluster_real_roots,
    conic_raw,
    ik_counts,
    quartic_coeffs_from_conic,
)


def tangency_refine(p, rho, z, theta3_0, direction):
    """Slide (rho, z) along `direction` onto the critical-value set.

    Newton on {g = 0, g' = 0} in (theta3, lambda), g the conic on the theta3
    circle; returns (theta3, rho, z) or None.
    """
    drho, dz = direction

    def fun_jac(x, rows):
        lam = x[:, 1]
        rr = rho + lam * drho
        zr = z + lam * dz - p.d1
        jet = circle_jet(circle_harmonics(p, rr * rr + zr * zr, zr), x[:, 0], 2)
        dR_dlam = (2 * rr * drho + 2 * zr * dz)[:, None]
        dg_dlam = jet[:, 1, :2] * dR_dlam + jet[:, 2, :2] * dz
        return jet[:, 0, :2], np.stack([jet[:, 0, 1:], dg_dlam], axis=2)

    x, ok = _damped_newton(fun_jac, [(theta3_0, 0.0)])
    if not ok[0]:
        return None
    theta3, lam = x[0].tolist()
    return theta3, rho + lam * drho, z + lam * dz


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
    """(audited_pairs, violations, boundary_samples as (rho, z, count, low, high),
    misses) of region_census's audit, one pair at a time in row-major pair order,
    with theta3 found by curve index and every boundary point refined and counted
    alone.  misses counts refinements that failed or landed too far while their
    kind's sample cap had room.  Counts, clearance and crossings are the census'
    own."""
    rc, zc = census.centers()
    n = len(rc)
    cell = float(min(census.rho_edges[1] - census.rho_edges[0],
                     census.z_edges[1] - census.z_edges[0]))
    seg_a = np.vstack([w.vertices for w in workspace_curves])
    seg_b = np.vstack([np.roll(w.vertices, -1, axis=0) for w in workspace_curves])
    tags = [(w.source_index, k) for w in workspace_curves for k in range(len(w))]
    clear = _census_clearance(rc, zc, seg_a, seg_b, cell, 0.3 * cell)
    crossings, hit_at, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, cell)
    audited, violations, samples, misses = 0, [], [], 0
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
                hx, hy = hit_at[e]
                ci, vertex = tags[hit_seg[e]]
                curve = next(w for w in workspace_curves if w.source_index == ci)
                ref = tangency_refine(p, hx, hy, float(curve.joint.vertices[vertex, 1]),
                                      (float(rc[i2]) - float(rc[i]), float(zc[j2]) - float(zc[j])))
                if ref is None or math.hypot(ref[1] - hx, ref[2] - hy) > 2 * cell:
                    misses += 1
                    continue
                th_star, rr, zz = ref
                cnt = count_at_boundary(p, rr, zz, th_star)
                per_kind[(low, high)] += 1
                samples.append((rr, zz, cnt, low, high))
                if cnt != low + 1:
                    violations.append({"kind": "boundary_count", "point": [rr, zz],
                                       "count": cnt, "expected": low + 1})
    return audited, violations, samples, misses


def audit_all_at_once(p, workspace_curves, census):
    """(audited_pairs, violations, boundary samples) of region_census's audit
    with every single crossing between counts 2 apart slid onto the critical
    values in one damped-Newton batch and counted by one ik_counts call,
    before the walk takes its samples.  Counts, clearance and crossings are
    the census' own."""
    rc, zc = census.centers()
    census_n = len(rc)
    counts = census.counts
    cell = float(min(census.rho_edges[1] - census.rho_edges[0],
                     census.z_edges[1] - census.z_edges[0]))
    seg_a, seg_b = _segments(workspace_curves)
    clear = _census_clearance(rc, zc, seg_a, seg_b, cell, 0.3 * cell)
    crossings, hit_at, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, cell)
    e = np.arange(2 * census_n * census_n)
    i, j, d = e // (2 * census_n), (e // 2) % census_n, e % 2
    i2, j2 = i + (1 - d), j + d
    inside = (i2 < census_n) & (j2 < census_n)
    i2, j2 = np.minimum(i2, census_n - 1), np.minimum(j2, census_n - 1)
    both = inside & clear[i, j] & clear[i2, j2]
    c_a, c_b = counts[i, j], counts[i2, j2]
    audited = both & (crossings == 1)

    slide = np.nonzero(audited & (np.abs(c_a - c_b) == 2))[0]
    theta3 = _segment_theta3(workspace_curves)[hit_seg[slide]]
    start = hit_at[slide]
    direction = np.column_stack([rc[i2[slide]] - rc[i[slide]], zc[j2[slide]] - zc[j[slide]]])
    x, refined = _damped_newton(_tangency_system(p, start, direction),
                                np.column_stack([theta3, np.zeros(len(theta3))]))
    boundary = start + x[:, 1:] * direction
    landed = refined & np.array([math.hypot(dr, dz) <= 2 * cell
                                 for dr, dz in (boundary - start).tolist()], dtype=bool)
    boundary_count = ik_counts(p, boundary[:, 0], boundary[:, 1])

    violations, samples = [], []
    per_kind = defaultdict(int)
    for k in np.nonzero(audited | (both & (crossings == 0) & (c_a != c_b)))[0].tolist():
        cells = [[int(i[k]), int(j[k])], [int(i2[k]), int(j2[k])]]
        pair = [int(c_a[k]), int(c_b[k])]
        if crossings[k] == 0:
            violations.append({"kind": "no_crossing_count_change", "cells": cells, "counts": pair})
            continue
        if abs(pair[0] - pair[1]) != 2:
            violations.append({"kind": "adjacent_region_delta", "cells": cells, "counts": pair})
            continue
        low, high = min(pair), max(pair)
        s = np.searchsorted(slide, k)
        if per_kind[(low, high)] >= MAX_BOUNDARY_SAMPLES or not landed[s]:
            continue
        rr, zz = boundary[s]
        cnt = int(boundary_count[s])
        per_kind[(low, high)] += 1
        samples.append((rr, zz, cnt, low, high))
        if cnt != low + 1:
            violations.append({"kind": "boundary_count", "point": [rr, zz],
                               "count": cnt, "expected": low + 1})
    return int(np.sum(audited)), violations, samples
