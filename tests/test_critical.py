import math
from collections import defaultdict
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import (
    CrossSectionPoint,
    DhParams,
    conic_coefficients,
    det_jacobian,
    genericity_check,
    quartic_from_conic,
    region_census,
    singularity_scale,
    solve_quartic,
    trace_critical_points,
    critical_values,
    find_cusps,
    find_nodes,
    wrap_angle,
)
from cuspidal import critical, topology
from cuspidal.critical import (
    CUSP_RESIDUAL_TOL,
    CUSP_THIRD_DERIV_MIN,
    DEDUP_RADIUS,
    _census_clearance,
    _census_crossings,
    _census_delta,
    _chain_loops,
    _crossing_points,
    _dedup_sorted,
    _marching_segments,
    _sample_lattice,
)
from cuspidal.dh import length_scale
from cuspidal.errors import DegenerateGeometryError
from cuspidal.geometry import seg_intersect_many
from cuspidal.reduction import conic_raw, cusp_seeds, polish_cusps

from conftest import (
    BATTERY,
    BINARY_ROBOT,
    NODE_ROBOT,
    NONGENERIC_CURVE,
    NONGENERIC_QUAD,
    NONORTHO_NONCUSPIDAL,
    REFERENCE,
    TEST_GRID,
    perfbench_inputs,
    random_valid_params,
)
from census_refs import all_segments_census, census_walk
from engine_refs import (
    chain_loops,
    chart_find_cusps,
    chart_quadruple_root,
    chart_refine_nodes,
    circle_harmonics,
    isolated_singular_points,
    marching_segments,
    mixed_cells,
    newton_quadruple_root,
    sweep_find_nodes,
)
from engine_refs import ik_counts as engine_ik_counts
from segment_refs import point_segment_dist, polyline_min_dist, seg_intersect


_SEED = st.integers(0, 2 ** 32 - 1)


def _min_dist_to(wcurves, point):
    return polyline_min_dist(point, [w.vertices for w in wcurves])


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------

def test_traced_vertices_lie_on_zero_set(analysis):
    scale = singularity_scale(REFERENCE)
    h = 2 * math.pi / TEST_GRID
    for c in analysis.curves(REFERENCE):
        vals = det_jacobian(REFERENCE, c.vertices[:, 0], c.vertices[:, 1])
        assert float(np.max(np.abs(vals))) < 1e-6 * scale
        steps = np.abs(wrap_angle(np.roll(c.vertices, -1, axis=0) - c.vertices))
        assert float(np.max(np.hypot(steps[:, 0], steps[:, 1]))) < 3 * h


def test_reference_has_two_curves(analysis):
    assert len(analysis.curves(REFERENCE)) == 2


def test_trace_rejects_coarse_grid():
    with pytest.raises(ValueError):
        trace_critical_points(REFERENCE, 32)


def test_resolution_stability_hausdorff():
    """Marching plus refinement pins the curves well below one coarse cell."""
    coarse = trace_critical_points(REFERENCE, 128)
    fine = trace_critical_points(REFERENCE, 256)
    pts_c = np.vstack([c.vertices for c in coarse])
    pts_f = np.vstack([c.vertices for c in fine])

    def directed(a, b):
        worst = 0.0
        for pt in a:
            d = np.abs(wrap_angle(b - pt))
            worst = max(worst, float(np.min(np.hypot(d[:, 0], d[:, 1]))))
        return worst

    h = 2 * math.pi / 128
    assert directed(pts_c[::5], pts_f) < h
    assert directed(pts_f[::5], pts_c) < h


def test_workspace_vertices_nonnegative_rho(analysis):
    for wc in analysis.wcurves(NODE_ROBOT):
        assert float(np.min(wc.vertices[:, 0])) >= 0.0


def test_reference_curve_passes_single_tangency_value(analysis):
    assert _min_dist_to(analysis.wcurves(REFERENCE), (2.913, 0.1)) < 0.05


def test_node_robot_curve_hits_node_value_twice(analysis):
    """Two distinct curve parameters map near the node point."""
    target = (2.84, 3.79)
    hits = []
    for ci, wc in enumerate(analysis.wcurves(NODE_ROBOT)):
        d = np.hypot(wc.vertices[:, 0] - target[0], wc.vertices[:, 1] - target[1])
        close = np.nonzero(d < 0.05)[0]
        if len(close) == 0:
            continue
        # group contiguous runs of indices (cyclic) into separate passes
        groups = 1
        for a, b in zip(close[:-1], close[1:]):
            if b - a > 5:
                groups += 1
        hits.append((ci, groups, len(close)))
    assert sum(g for _, g, _ in hits) >= 2


def test_image_consistency_every_vertex_multiple_root(analysis):
    for wc in analysis.wcurves(REFERENCE):
        for rho, z in wc.vertices[::7]:
            m = quartic_from_conic(conic_coefficients(REFERENCE, CrossSectionPoint(rho, z)))
            roots = solve_quartic(m)
            assert any(mult >= 2 for _, mult in roots.roots)


# --------------------------------------------------------------------------
# cusps
# --------------------------------------------------------------------------

def test_reference_has_four_cusps(analysis):
    cusps = analysis.cusps(REFERENCE)
    assert len(cusps) == 4
    best = min(math.hypot(c.rho - 2.48, c.z - 1.96) for c in cusps)
    assert best < 0.05


def test_cusp_residual_invariants(analysis):
    for c in analysis.cusps(REFERENCE):
        assert max(c.res_m, c.res_m1, c.res_m2) <= CUSP_RESIDUAL_TOL
        assert c.abs_m3 >= CUSP_THIRD_DERIV_MIN


def test_noncuspidal_robot_has_no_cusps(analysis):
    assert analysis.cusps(NONORTHO_NONCUSPIDAL) == []


def test_node_robot_has_no_cusps(analysis):
    assert analysis.cusps(NODE_ROBOT) == []


def test_cusps_shift_with_d1(analysis):
    shifted = DhParams(0.7, REFERENCE.d2, REFERENCE.d3, REFERENCE.a1,
                       REFERENCE.a2, REFERENCE.a3, REFERENCE.alpha1, REFERENCE.alpha2)
    curves = trace_critical_points(shifted, TEST_GRID)
    cusps = find_cusps(shifted, critical_values(shifted, curves))
    base = analysis.cusps(REFERENCE)
    assert len(cusps) == len(base)
    for b in base:
        match = min(math.hypot(c.rho - b.rho, c.z - (b.z + 0.7)) for c in cusps)
        assert match < 1e-6


def test_cusps_on_critical_value_set(analysis):
    for c in analysis.cusps(REFERENCE):
        assert _min_dist_to(analysis.wcurves(REFERENCE), (c.rho, c.z)) < 0.02


def test_cusp_locations_stable_under_grid_doubling(analysis):
    scale = length_scale(REFERENCE)
    coarse = analysis.cusps(REFERENCE, 128)
    fine = analysis.cusps(REFERENCE, 256)
    assert len(coarse) == len(fine) == 4
    for c in coarse:
        d = min(math.hypot(c.rho - f.rho, c.z - f.z) for f in fine)
        assert d < 1e-3 * scale


def test_node_locations_stable_under_grid_doubling(analysis):
    scale = length_scale(NODE_ROBOT)
    coarse = analysis.nodes(NODE_ROBOT, 128)
    fine = analysis.nodes(NODE_ROBOT, 256)
    assert len(coarse) == len(fine) == 2
    for c in coarse:
        d = min(math.hypot(c.rho - f.rho, c.z - f.z) for f in fine)
        assert d < 1e-3 * scale


# --------------------------------------------------------------------------
# nodes
# --------------------------------------------------------------------------

def test_node_robot_node_location(analysis):
    nodes = analysis.nodes(NODE_ROBOT)
    best = min(math.hypot(n.rho - 2.84, n.z - 3.79) for n in nodes)
    assert best < 0.05
    for n in nodes:
        assert abs(wrap_angle(2 * math.atan(n.t1) - 2 * math.atan(n.t2))) > 1e-4


def test_node_count_matches_intersection_oracle(analysis):
    """Brute-force transversal-crossing sweep over the polylines is the
    reference count.

    Tangential self-contacts (mirror-symmetric branches touching on the
    symmetry axis with a shared double root) are not nodes; their apparent
    polyline crossing angle shrinks with resolution, so the oracle filters
    by transversality.
    """
    for robot in (REFERENCE, NODE_ROBOT):
        wcs = analysis.wcurves(robot)
        segs = []
        for ci, wc in enumerate(wcs):
            n = len(wc)
            for k in range(n):
                segs.append((ci, k, n, wc.vertices[k], wc.vertices[(k + 1) % n]))
        crossings = []
        for i in range(len(segs)):
            ci, ki, ni, a0, a1 = segs[i]
            for j in range(i + 1, len(segs)):
                cj, kj, nj, b0, b1 = segs[j]
                if ci == cj and min((ki - kj) % ni, (kj - ki) % ni) <= 1:
                    continue
                hit = seg_intersect(a0, a1, b0, b1)
                if hit is None:
                    continue
                va = a1 - a0
                vb = b1 - b0
                sin_ang = abs(va[0] * vb[1] - va[1] * vb[0]) / (
                    math.hypot(*va) * math.hypot(*vb))
                if sin_ang > 0.05:
                    crossings.append(hit[0])
        # dedupe raw crossings within the node dedup radius
        dedup = []
        radius = DEDUP_RADIUS * length_scale(robot)
        for pt in sorted(crossings):
            if all(math.hypot(pt[0] - q[0], pt[1] - q[1]) > radius for q in dedup):
                dedup.append(pt)
        assert len(analysis.nodes(robot)) == len(dedup)


def _sympy_harmonics(sp, expr, w):
    """(h0, h1c, h1s, h2c, h2s) of a real trigonometric polynomial of degree
    <= 2 in theta, given as a Laurent polynomial in w = exp(i theta)."""
    poly = sp.expand(expr * w ** 2)
    out = [poly.coeff(w, 2)]
    for n in (1, 2):
        up, down = poly.coeff(w, 2 + n), poly.coeff(w, 2 - n)
        out += [up + down, sp.I * (up - down)]
    return [sp.simplify(sp.expand_complex(h)) for h in out]


def test_sympy_harmonics_of_the_conic_and_of_the_node_square():
    """Exact oracle for the two identities the circle engine and the nodes
    rest on: the harmonics of the conic on the unit circle reproduce Axx c^2
    + 2 Axy c s + Ayy s^2 + 2 Bx c + 2 By s + C modulo c^2 + s^2 = 1, and K
    (cos(theta - m) - e)^2 expands to five harmonics that circle_harmonics
    gives at every node find_nodes lists, with m and e = cos(d) the mean and
    the half gap of its two tangency angles and K / 2 = h2 . (cos 2m, sin
    2m).  Both are derived in w = exp(i theta) and compared on random robots
    and targets, and on the nodes of the battery and random robots."""
    sp = pytest.importorskip("sympy")
    w = sp.symbols("w")
    c, s = sp.symbols("c s", real=True)
    axx, axy, ayy, bx, by, cc, big_k, m, e = sp.symbols("A_xx A_xy A_yy B_x B_y C K m e",
                                                        real=True)
    conic = axx * c ** 2 + 2 * axy * c * s + ayy * s ** 2 + 2 * bx * c + 2 * by * s + cc
    h = _sympy_harmonics(sp, conic.subs({c: (w + 1 / w) / 2, s: (w - 1 / w) / (2 * sp.I)}), w)
    on_circle = h[0] + h[1] * c + h[2] * s + h[3] * (c ** 2 - s ** 2) + h[4] * 2 * c * s
    assert sp.rem(sp.expand(on_circle - conic), s ** 2 + c ** 2 - 1, s) == 0
    square = big_k * ((w * sp.exp(-sp.I * m) + sp.exp(sp.I * m) / w) / 2 - e) ** 2
    q = _sympy_harmonics(sp, square, w)
    h_of = sp.lambdify([axx, axy, ayy, bx, by, cc], h, "numpy")
    q_of = sp.lambdify([big_k, m, e], q, "numpy")
    rng = np.random.default_rng(11)
    robots = [*BATTERY.values(), *(random_valid_params(rng) for _ in range(8))]
    seen = 0
    for p in robots:
        zr = rng.uniform(-2.0, 2.0, 6)
        R = rng.uniform(0.1, 3.0, 6) ** 2 + zr * zr
        raw = conic_raw(p, R, zr)
        expected = np.column_stack(np.broadcast_arrays(*h_of(*raw)))
        harmonics = circle_harmonics(p, R, zr)[:, 0]
        assert np.all(np.abs(harmonics - expected) <= 1e-13 * np.max(np.abs(raw)))
        for node in find_nodes(p, ()):
            th_a, th_b = 2.0 * math.atan(node.t1), 2.0 * math.atan(node.t2)
            half = wrap_angle(th_b - th_a) / 2.0
            mean = th_a + half
            zr = np.array([node.z - p.d1])
            R = node.rho * node.rho + zr * zr
            harmonics = circle_harmonics(p, R, zr)[0, 0]
            k = 2.0 * (harmonics[3] * math.cos(2.0 * mean) + harmonics[4] * math.sin(2.0 * mean))
            expected = np.array(q_of(k, mean, math.cos(half)), float)
            scale = np.max(np.abs(conic_raw(p, R, zr)))
            assert np.all(np.abs(harmonics - expected) <= 1e-12 * scale)
            seen += 1
    assert seen >= 10


# --------------------------------------------------------------------------
# genericity
# --------------------------------------------------------------------------

def test_paper_robots_are_generic(analysis):
    for robot in (REFERENCE, NODE_ROBOT, NONORTHO_NONCUSPIDAL):
        rep = genericity_check(robot, TEST_GRID,
                               curves=analysis.curves(robot),
                               workspace_curves=analysis.wcurves(robot),
                               cusps=analysis.cusps(robot))
        assert rep.is_generic, rep.evidence


def _genericity(p, analysis, grid_n=TEST_GRID):
    return genericity_check(p, TEST_GRID, analysis.curves(p, grid_n),
                            analysis.wcurves(p, grid_n), analysis.cusps(p, grid_n))


def test_degenerate_geometry_rejected_before_genericity(analysis):
    with pytest.raises(DegenerateGeometryError):
        _genericity(DhParams(0, 1, 0, 1, 2, 0.0, -1.5, 1.5), analysis)


def test_genericity_refuses_a_set_from_another_grid_or_robot(analysis):
    with pytest.raises(ValueError):
        _genericity(REFERENCE, analysis, grid_n=128)
    with pytest.raises(ValueError):
        genericity_check(NODE_ROBOT, TEST_GRID, analysis.curves(REFERENCE),
                         analysis.wcurves(REFERENCE), analysis.cusps(REFERENCE))


def test_quadruple_root_robot_flagged(analysis):
    rep = _genericity(NONGENERIC_QUAD, analysis)
    assert not rep.is_generic
    kinds = [e["kind"] for e in rep.evidence]
    assert "quadruple_root" in kinds
    witness = next(e for e in rep.evidence if e["kind"] == "quadruple_root")
    assert witness["residual"] < 1e-8 * singularity_scale(NONGENERIC_QUAD)


def test_degenerate_curve_robot_flagged(analysis):
    rep = _genericity(NONGENERIC_CURVE, analysis)
    assert not rep.is_generic
    kinds = [e["kind"] for e in rep.evidence]
    assert "curve_gradient" in kinds
    # test (a) refuses it too: its conic vanishes at (rho, z) = (2, 0)
    assert kinds[0] == "vanishing_conic" and "quadruple_root" not in kinds


def test_isolated_point_blocks_equal_the_dilation_reference():
    """Test (c)'s evidence equals the dilation of the crossed cells
    (engine_refs) on the battery, the screen robots, the a3 sweep 1.90 ...
    2.30 across the cuspidal transition, the non-generic pair, the binary
    robot and 60 random draws, at grids 240 and 720; the sweep near a3 = 2,
    where S degenerates, and NONGENERIC_CURVE fire it."""
    inputs = perfbench_inputs()
    rng = np.random.default_rng(7)
    robots = [*BATTERY.values(), *(p for _, p, _ in inputs.screen_robots(0)),
              *(inputs.sweep_robot(round(1.9 + 0.01 * k, 2)) for k in range(41)),
              NONGENERIC_QUAD, NONGENERIC_CURVE, BINARY_ROBOT,
              *(inputs.random_robot(rng) for _ in range(60))]
    fired = 0
    for grid_n in (TEST_GRID, 720):
        for p in robots:
            curves = trace_critical_points(p, grid_n)
            found = [e for e in genericity_check(p, grid_n, curves, (), ()).evidence
                     if e["kind"] == "isolated_singular_cells"]
            ii, jj = np.nonzero(isolated_singular_points(curves.det_vertex, singularity_scale(p)))
            ref = [] if len(ii) == 0 else [{
                "kind": "isolated_singular_cells", "count": len(ii),
                "first_cell": (-math.pi + 2 * math.pi * np.array([ii[0], jj[0]]) / grid_n).tolist()}]
            assert found == ref, (p, grid_n)
            fired += bool(ref)
    assert fired >= 20


# --------------------------------------------------------------------------
# census
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ref_census(analysis):
    return region_census(REFERENCE, analysis.wcurves(REFERENCE), census_n=96)


@pytest.fixture(scope="module")
def node_census(analysis):
    return region_census(NODE_ROBOT, analysis.wcurves(NODE_ROBOT), census_n=96)


def test_census_audit_passes(ref_census, node_census):
    for census in (ref_census, node_census):
        assert census.audited_pairs > 50
        assert census.audit_ok, census.violations[:3]


def test_census_boundary_samples_intermediate(ref_census, node_census):
    for census in (ref_census, node_census):
        assert census.boundary_samples
        for s in census.boundary_samples:
            assert s.count == s.low + 1 == s.high - 1


def test_node_robot_has_2_and_4_regions(node_census):
    present = set(node_census.counts.ravel().tolist())
    assert {0, 2, 4} <= present


def test_reference_four_region_touches_cusps(ref_census, analysis):
    rc, zc = ref_census.centers()
    rg, zg = np.meshgrid(rc, zc, indexing="ij")
    four = np.column_stack([rg[ref_census.counts == 4], zg[ref_census.counts == 4]])
    assert len(four)
    cell = math.hypot(rc[1] - rc[0], zc[1] - zc[0])
    for c in analysis.cusps(REFERENCE):
        d = np.min(np.hypot(four[:, 0] - c.rho, four[:, 1] - c.z))
        assert d < 4 * cell


def test_counts_outside_reach_are_zero(ref_census):
    assert ref_census.counts[0, 0] == 0
    assert ref_census.counts[-1, -1] == 0
    assert ref_census.counts[0, -1] == 0


def _loop_census(rc, zc, seg_a, seg_b, cell):
    """Census clearance and crossings, cell by cell over a bucket dict."""
    buckets = defaultdict(list)
    for s, (a, b) in enumerate(zip(seg_a, seg_b)):
        i0, i1 = sorted((math.floor(a[0] / cell), math.floor(b[0] / cell)))
        j0, j1 = sorted((math.floor(a[1] / cell), math.floor(b[1] / cell)))
        for i in range(i0, i1 + 1):
            for j in range(j0, j1 + 1):
                buckets[(i, j)].append(s)

    def listed(x, y, radius):
        i0, j0 = math.floor(x / cell), math.floor(y / cell)
        return sorted({s for i in range(i0 - radius, i0 + radius + 1)
                       for j in range(j0 - radius, j0 + radius + 1)
                       for s in buckets.get((i, j), ())})

    n = len(rc)
    clear = np.ones((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            clear[i, j] = not any(
                point_segment_dist(rc[i], zc[j], *seg_a[s], *seg_b[s]) < 0.3 * cell
                for s in listed(rc[i], zc[j], 1))
    hits = {}
    for i in range(n):
        for j in range(n):
            for d, (i2, j2) in enumerate(((i + 1, j), (i, j + 1))):
                if i2 >= n or j2 >= n or not (clear[i, j] and clear[i2, j2]):
                    continue
                a, b = (float(rc[i]), float(zc[j])), (float(rc[i2]), float(zc[j2]))
                mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
                hits[2 * (i * n + j) + d] = [s for s in listed(mid[0], mid[1], 2)
                                             if seg_intersect(a, b, seg_a[s], seg_b[s])]
    return clear, hits


@pytest.mark.parametrize("robot", [REFERENCE, NODE_ROBOT])
def test_census_clearance_and_crossings_equal_cell_loop(robot, analysis):
    """The array clearance mask and the crossings of every pair of adjacent
    clear cells equal a loop over bucket queries with the scalar
    point_segment_dist and seg_intersect references."""
    wcurves = analysis.wcurves(robot)
    census = region_census(robot, wcurves, census_n=48)
    rc, zc = census.centers()
    cell = float(min(census.rho_edges[1] - census.rho_edges[0],
                     census.z_edges[1] - census.z_edges[0]))
    seg_a = np.vstack([w.vertices for w in wcurves])
    seg_b = np.vstack([np.roll(w.vertices, -1, axis=0) for w in wcurves])
    delta = _census_delta(census.rho_edges, census.z_edges)
    clear = _census_clearance(rc, zc, seg_a, seg_b, 0.3 * cell, delta)
    crossings, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, delta)
    ref_clear, ref_hits = _loop_census(rc, zc, seg_a, seg_b, cell)
    assert np.array_equal(clear, ref_clear)
    assert 0 < np.count_nonzero(~clear) < clear.size
    for e in range(len(crossings)):
        found = ref_hits.get(e, [])
        assert crossings[e] == len(found), e
        if len(found) == 1:
            assert hit_seg[e] == found[0]
    assert sum(len(h) == 1 for h in ref_hits.values()) == census.audited_pairs > 0


def test_census_clearance_and_crossings_equal_every_segment(analysis):
    """At census 128, on the battery and screen_robots(0), the clearance
    mask and the crossings of every pair of adjacent clear centers equal the
    reference that tests every segment against every center and pair
    (census_refs.all_segments_census, skipping only combinations more than a
    cell apart on an axis)."""
    robots = [*BATTERY.values(), *(p for _, p, _ in perfbench_inputs().screen_robots(0))]
    audited = 0
    for robot in robots:
        wcurves = analysis.wcurves(robot)
        census = region_census(robot, wcurves, census_n=128)
        rc, zc = census.centers()
        cell = float(min(census.rho_edges[1] - census.rho_edges[0],
                         census.z_edges[1] - census.z_edges[0]))
        delta = _census_delta(census.rho_edges, census.z_edges)
        seg_a, seg_b = critical._segments(wcurves)
        clear = _census_clearance(rc, zc, seg_a, seg_b, 0.3 * cell, delta)
        crossings, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, delta)
        ref_clear, ref_crossings, ref_hit = all_segments_census(rc, zc, seg_a, seg_b,
                                                                0.3 * cell, reach=cell)
        assert np.array_equal(clear, ref_clear), robot
        assert np.array_equal(crossings, ref_crossings), robot
        assert np.array_equal(np.where(crossings == 1, hit_seg, -1), ref_hit), robot
        assert np.count_nonzero(crossings == 1) == census.audited_pairs, robot
        audited += census.audited_pairs
    assert audited > 0


def test_census_clearance_and_crossings_at_their_edge_cases():
    """Synthetic segments on a 10 x 10 census of side 1/8, against the
    reference that tests every segment against every center and pair: a
    polyline many cells long that crosses pairs in both directions; ends
    exactly on a pair's line (u = 1 and u = 0) and one ulp short of it,
    where seg_intersect_many still hits (u rounds to 1); centers exactly
    `margin` from a segment (clear: the test is strict) and a hair nearer."""
    n, h = 10, 0.125
    edges = np.arange(n + 1) * h
    rc, zc = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[:-1] + edges[1:]) - 0.5
    margin = h / 4
    delta = _census_delta(edges, edges - 0.5)
    polylines = [
        [(0.1, -0.45), (0.7, 0.05), (1.2, 0.6)],                  # 12 cells long
        [(0.40, zc[6] - 0.1), (0.40, zc[6])],                     # ends on z = zc[6]
        [(rc[1], 0.25), (rc[1] + 0.1, 0.27)],                     # starts on rho = rc[1]
        [(0.82, zc[4] - 0.1), (0.875, np.nextafter(zc[4], -np.inf))],
        [(rc[1], zc[8] + margin), (rc[4], zc[8] + margin)],       # margin above row 8
        [(rc[6] + margin, zc[0]), (rc[6] + 3 * margin, zc[0] + margin)],
        [(rc[8] + margin * (1 - 2.0 ** -20), zc[0]), (rc[8] + 3 * margin, zc[0] + margin)],
    ]
    seg_a = np.array([a for line in polylines for a in line[:-1]], dtype=float)
    seg_b = np.array([b for line in polylines for b in line[1:]], dtype=float)
    owner = np.repeat(np.arange(len(polylines)), [len(line) - 1 for line in polylines])
    clear = _census_clearance(rc, zc, seg_a, seg_b, margin, delta)
    crossings, hit_seg = _census_crossings(rc, zc, clear, seg_a, seg_b, delta)
    ref_clear, ref_crossings, ref_hit = all_segments_census(rc, zc, seg_a, seg_b, margin)
    assert np.array_equal(clear, ref_clear)
    assert np.array_equal(crossings, ref_crossings)
    assert np.array_equal(np.where(crossings == 1, hit_seg, -1), ref_hit)
    assert clear[2, 8] and clear[6, 0] and not clear[8, 0]
    # every pair taken, so each edge case is a crossing
    every = np.ones((n, n), dtype=bool)
    crossings, hit_seg = _census_crossings(rc, zc, every, seg_a, seg_b, delta)
    _, ref_crossings, ref_hit = all_segments_census(rc, zc, seg_a, seg_b, margin, clear=every)
    assert np.array_equal(crossings, ref_crossings)
    assert np.array_equal(np.where(crossings == 1, hit_seg, -1), ref_hit)
    single = np.flatnonzero(crossings == 1)
    by_owner = np.bincount(owner[hit_seg[single]], minlength=len(polylines))
    assert by_owner[0] >= 10
    for line, (i, j, d) in ((1, (2, 6, 0)), (2, (1, 5, 1)), (3, (6, 4, 0))):
        e = 2 * (i * n + j) + d
        assert crossings[e] == 1 and owner[hit_seg[e]] == line


def test_census_audit_equals_scalar_walk(ref_census, node_census, analysis):
    """The batched boundary sampling and count give the audit of a pair-by-pair
    walk that takes each crossed segment's first vertex alone and counts it
    with the double root at its theta3 deflated: same audited pairs,
    violations and boundary samples, bit for bit."""
    rand = random_valid_params(np.random.default_rng(0))
    cases = [(REFERENCE, ref_census), (NODE_ROBOT, node_census),
             (rand, region_census(rand, analysis.wcurves(rand), census_n=96))]
    for robot, census in cases:
        audited, violations, samples = census_walk(robot, analysis.wcurves(robot), census)
        assert census.audited_pairs == audited
        assert list(census.violations) == violations
        assert [(s.rho, s.z, s.count, s.low, s.high) for s in census.boundary_samples] == samples
        assert samples


def test_census_equals_the_engine_only_count(monkeypatch, analysis):
    """Counted by the quartic's invariants with the root engine only near
    Delta = 0, the census has the counts, audited pairs, violations and
    boundary samples the engine alone gives (engine_refs.ik_counts), on the
    battery, criterion 9's first 24 random draws and the 12 screen_family
    robots."""
    rng = np.random.default_rng(424242)
    robots = [*BATTERY.items(), *((f"draw {k}", random_valid_params(rng)) for k in range(24)),
              *((label, robot) for label, robot, _ in perfbench_inputs().screen_robots(0))]
    assert len(robots) == 8 + 24 + 12
    for name, robot in robots:
        wcurves = analysis.wcurves(robot)
        census = region_census(robot, wcurves)
        with monkeypatch.context() as m:
            m.setattr(critical, "ik_counts", engine_ik_counts)
            ref = region_census(robot, wcurves)
        assert np.array_equal(census.counts, ref.counts), name
        assert census.audited_pairs == ref.audited_pairs, name
        assert census.violations == ref.violations, name
        assert census.boundary_samples == ref.boundary_samples, name


def _assert_points_close(found, ref, angles, what):
    """Equal counts; (rho, z) within 1e-12 of the point's distance from the
    origin (rho alone loses digits near the axis, where it enters only
    through R = rho^2 + z^2) and the named tan-half-angles within 1e-12 on
    the circle."""
    assert len(found) == len(ref), what
    for a, b in zip(found, ref):
        assert math.hypot(a.rho - b.rho, a.z - b.z) <= 1e-12 * math.hypot(b.rho, b.z), what
        for t in angles:
            gap = wrap_angle(2 * math.atan(getattr(a, t)) - 2 * math.atan(getattr(b, t)))
            assert abs(gap) <= 1e-12, what


def test_circle_engine_equals_the_chart_engine(analysis):
    """Solved on the theta3 circle, the cusps, nodes (in closed form) and
    quadruple-root decisions (the Newton reference,
    engine_refs.newton_quadruple_root) are those the chart engine (every
    system on M in the half-angle chart that keeps its seed well
    conditioned, nodes by the reference sweep) gives, to 1e-12 relative, on
    the battery, both non-generic robots and 10 random draws.  Non-generic robots
    are compared by their decision only: their cusps sit next to a quadruple
    root, where either engine may land."""
    rng = np.random.default_rng(424242)
    robots = [*BATTERY.items(), ("quad", NONGENERIC_QUAD), ("curve", NONGENERIC_CURVE),
              *((f"random {k}", random_valid_params(rng)) for k in range(10))]
    for name, robot in robots:
        curves, wcurves = analysis.curves(robot), analysis.wcurves(robot)
        cusps, ref_cusps = analysis.cusps(robot), chart_find_cusps(robot, wcurves)
        rep = genericity_check(robot, TEST_GRID, curves, wcurves, cusps)
        quadruple = newton_quadruple_root(robot, wcurves, cusps) is not None
        assert quadruple == (chart_quadruple_root(robot, wcurves, ref_cusps) is not None), name
        if not rep.is_generic:
            continue
        _assert_points_close(cusps, ref_cusps, ("t",), name)
        ref_nodes = sweep_find_nodes(robot, wcurves, refine=chart_refine_nodes)
        _assert_points_close(analysis.nodes(robot), ref_nodes, ("t1", "t2"), name)


# --------------------------------------------------------------------------
# vectorised engines against their loop references
# --------------------------------------------------------------------------

@settings(max_examples=12)
@given(_SEED)
def test_batched_newton_equals_single_seed_runs(seed):
    """Each seed of a polish_cusps batch ends where it ends alone, in any
    batch order, bit for bit: the determinism behind byte-identical
    reports.  The seeds are a robot's cusp seeds and random angles on
    random branches, which step far and stop on every rule."""
    rng = np.random.default_rng(seed)
    p = random_valid_params(rng)
    theta3, sigma = cusp_seeds(p)
    theta3 = np.concatenate([theta3, rng.uniform(-math.pi, math.pi, 5)])
    sigma = np.concatenate([sigma, rng.choice([-1.0, 1.0], 5)])
    k = len(theta3)
    perm = rng.permutation(k)
    out = np.column_stack(polish_cusps(p, theta3, sigma))
    assert np.column_stack(polish_cusps(p, theta3[perm], sigma[perm])).tobytes() \
        == out[perm].tobytes()
    for i in range(k):
        alone = np.column_stack(polish_cusps(p, theta3[i:i + 1], sigma[i:i + 1]))
        assert alone.tobytes() == out[i:i + 1].tobytes()


def _crossing_cells(f, th):
    """Cells with two or four crossed edges, from the crossing nodes."""
    ids, _ = _marching_segments(f, th, lambda t2, t3: 0.0)
    n = len(th)
    pos = set(_node_keys(ids, n))
    cells = set()
    for kind, i, j in pos:
        cells.add((i, j))
        cells.add((i, (j - 1) % n) if kind == "u" else ((i - 1) % n, j))
    out = set()
    for i, j in cells:
        ip, jp = (i + 1) % n, (j + 1) % n
        edges = sum(key in pos for key in (("u", i, j), ("v", ip, j), ("u", i, jp), ("v", i, j)))
        if edges in (2, 4):
            out.add((i, j))
    return out


@given(_SEED)
def test_corner_sign_mask_equals_marching_cells_on_random_fields(seed):
    rng = np.random.default_rng(seed)
    n = 16
    f = rng.standard_normal((n, n)) + rng.uniform(-1.5, 1.5)
    th = -math.pi + 2 * math.pi * np.arange(n) / n
    mask = mixed_cells(f < 0)
    assert {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))} == _crossing_cells(f, th)


def _node_keys(ids, n):
    """The ("u" | "v", i, j) keys of the dict engine for integer node ids."""
    return [("v" if k >= n * n else "u", k % (n * n) // n, k % n) for k in ids.tolist()]


def _assert_marching_equals_the_dict_engine(f, th, field):
    """Same nodes, positions (bit for bit) and neighbour order as the dict
    engine; returns (positions, neighbours, dict positions, dict adjacency)."""
    pos, adj = marching_segments(f, th, field)
    ids, nbr = _marching_segments(f, th, field)
    keys = _node_keys(ids, len(th))
    assert keys == sorted(pos)
    pts = _crossing_points(f, th, ids)
    assert pts.tobytes() == np.array([pos[k] for k in keys]).reshape(-1, 2).tobytes()
    assert [[keys[m] for m in row] for row in nbr.tolist()] == [adj[k] for k in keys]
    return pts, nbr, pos, adj


def _assert_chains_equal(chains, ref, pts):
    """The walk's loops are the dict walk's chains, every one closed."""
    assert [(pts[c].tobytes(), True) for c in chains] == [
        (verts.reshape(-1, 2).tobytes(), closed) for verts, closed in ref]


def _saddle_case(n, seed):
    """Random wrapped samples with forced saddle cells (diagonal corners of
    one sign, the other two of the other), and a saddle-center field that
    takes both signs."""
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n)) + rng.uniform(-1.0, 1.0)
    for i, j in rng.integers(0, n, (int(rng.integers(1, 4)), 2)).tolist():
        s = rng.choice([-1.0, 1.0])
        ip, jp = (i + 1) % n, (j + 1) % n
        f[i, j], f[ip, jp], f[ip, j], f[i, jp] = s * rng.uniform(0.1, 2.0, 4) * (1, 1, -1, -1)
    th = -math.pi + 2 * math.pi * np.arange(n) / n
    c2, c3 = rng.uniform(-math.pi, math.pi, 2)
    return rng, f, th, lambda t2, t3: (t2 - c2) * (t3 - c3)


@settings(max_examples=200)
@given(st.integers(4, 24), _SEED)
def test_array_marching_equals_the_dict_engine(n, seed):
    _, f, th, field = _saddle_case(n, seed)
    neg = f < 0
    up, right = np.roll(neg, -1, 0), np.roll(neg, -1, 1)
    assert np.any((neg == np.roll(up, -1, 1)) & (up == right) & (neg != up))   # a saddle
    pts, nbr, pos, adj = _assert_marching_equals_the_dict_engine(f, th, field)
    _assert_chains_equal(_chain_loops(nbr), chain_loops(pos, adj), pts)


def test_array_marching_equals_the_dict_engine_on_robot_fields():
    """det J and D on the one vertex lattice, saddle centers evaluated in
    one vectorised call against one scalar call each."""
    for robot in (REFERENCE, NODE_ROBOT, NONORTHO_NONCUSPIDAL):
        f, th = _sample_lattice(robot, TEST_GRID)
        _assert_marching_equals_the_dict_engine(f, th, partial(det_jacobian, robot))
        d_field = partial(topology._discriminant, robot)
        _assert_marching_equals_the_dict_engine(d_field(th[:, None], th[None, :]), th, d_field)


def test_det_lattices_equal_the_pointwise_values_on_the_battery():
    """det J on the vertex lattice (A, B and C once on the theta3 axis) and
    D broadcast from the axes, as its docstring states, have the bytes of
    the fields evaluated point by point at the same angles, as flattened
    arrays and as Python floats."""
    n = 128
    vertices = -math.pi + 2 * math.pi * np.arange(n) / n
    t2, t3 = np.meshgrid(vertices, vertices, indexing="ij")
    pick = np.random.default_rng(3).integers(0, n, (40, 2))
    for robot in BATTERY.values():
        d_field = partial(topology._discriminant, robot)
        d_lattice = d_field(vertices[:, None], vertices[None, :]), vertices
        for field, (lattice, th) in ((partial(det_jacobian, robot), _sample_lattice(robot, n)),
                                     (d_field, d_lattice)):
            assert th.tobytes() == vertices.tobytes()
            assert lattice.tobytes() == field(t2.ravel(), t3.ravel()).reshape(n, n).tobytes()
            scalars = [float(field(float(vertices[i]), float(vertices[j]))) for i, j in pick]
            assert np.array(scalars).tobytes() == lattice[pick[:, 0], pick[:, 1]].tobytes()


def test_critical_set_keeps_the_samples_a_fresh_evaluation_gives(analysis):
    """The set is the tuple of its curves, and its det J lattice equals what
    sampling from scratch gives, bit for bit."""
    curves = analysis.curves(REFERENCE)
    assert isinstance(curves, tuple) and len(curves) == len(list(curves)) > 0
    assert curves[0] is next(iter(curves))
    assert np.array_equal(curves.det_vertex,
                          _sample_lattice(REFERENCE, TEST_GRID)[0])


def test_corner_sign_mask_equals_marching_cells_on_det_j():
    for robot in (REFERENCE, NODE_ROBOT, NONORTHO_NONCUSPIDAL):
        f, th = _sample_lattice(robot, TEST_GRID)
        mask = mixed_cells(f < 0)
        assert {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))} == _crossing_cells(f, th)


@given(_SEED)
def test_seg_intersect_many_equals_scalar(seed):
    rng = np.random.default_rng(seed)
    k = 64
    a0, a1, b0, b1 = (rng.integers(-3, 4, (k, 2)) * 0.5 for _ in range(4))
    # a quarter of the pairs are random reals, the rest sit on a lattice with
    # shared endpoints, parallel and collinear pairs
    a0[::4], a1[::4], b0[::4], b1[::4] = (rng.uniform(-1.5, 1.5, (k // 4, 2)) for _ in range(4))
    hit, pts = seg_intersect_many(a0, a1, b0, b1)
    for i in range(k):
        ref = seg_intersect(a0[i], a1[i], b0[i], b1[i])
        assert hit[i] == (ref is not None)
        if ref is not None:
            assert tuple(pts[i]) == ref[0]


def test_polyline_min_dist_equals_segment_loop(analysis, rng):
    polylines = [w.vertices for w in analysis.wcurves(NODE_ROBOT)]
    for point in rng.uniform(-5.0, 5.0, (20, 2)):
        loop = min(point_segment_dist(point[0], point[1], *poly[k], *poly[k + 1])
                   for poly in polylines for k in range(len(poly) - 1))
        assert abs(polyline_min_dist(point, polylines) - loop) <= 4 * np.finfo(float).eps * loop


@pytest.mark.parametrize("ulp", [1.0, -1.0])
def test_dedup_order_ignores_last_bit_rho_ties(ulp):
    """Mirror-image cusps keep one order when their rho differs by one ulp."""
    rho, z = 1.7935493488110743, 1.8032931108200512
    upper = (rho, z)
    lower = (float(np.nextafter(rho, ulp * math.inf)), -z)
    quantum = 1e-9 * length_scale(REFERENCE)
    for points in ([upper, lower], [lower, upper]):
        kept = _dedup_sorted(points, 1e-4, quantum)
        assert [pt[1] for pt in kept] == [-z, z]
