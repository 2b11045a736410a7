import math

import numpy as np
import pytest

from cuspidal import (
    CrossSectionPoint,
    JointConfig,
    build_topology,
    compute_aspects,
    compute_pseudosingularities,
    compute_reduced_aspects,
    det_jacobian,
    find_nonsingular_path,
    forward_kinematics,
    is_cuspidal,
    label_solutions,
    singularity_scale,
    verify_path,
    wrap_angle,
)
from cuspidal.errors import NonGenericRobotError, StartOrGoalSingularError
from cuspidal.geometry import (
    TorusCurveIndex,
    point_segment_dist,
    polyline_min_dist,
    unwrap_segment,
)
from cuspidal.topology import JointPath

from conftest import (
    BINARY_ROBOT,
    ELLIPSE_ROBOT,
    HYPERBOLA_ROBOT,
    NODE_ROBOT,
    NONGENERIC_QUAD,
    NONORTHO_CUSPIDAL,
    NONORTHO_CUSPIDAL_B,
    NONORTHO_NONCUSPIDAL,
    REFERENCE,
    TEST_GRID,
)


@pytest.fixture(scope="module")
def ref_maps(analysis):
    return build_topology(REFERENCE, analysis.curves(REFERENCE), TEST_GRID)


@pytest.fixture(scope="module")
def noncusp_maps(analysis):
    return build_topology(NONORTHO_NONCUSPIDAL, analysis.curves(NONORTHO_NONCUSPIDAL), TEST_GRID)


# --------------------------------------------------------------------------
# aspects
# --------------------------------------------------------------------------

def test_reference_has_two_aspects(ref_maps):
    assert ref_maps.aspects.count == 2


def test_aspect_count_stable_under_grid_doubling():
    expected = {
        "reference": (REFERENCE, 2),
        "node": (NODE_ROBOT, 4),
        "hyperbola": (HYPERBOLA_ROBOT, 2),
        "ellipse": (ELLIPSE_ROBOT, 2),
        "nonortho_cuspidal": (NONORTHO_CUSPIDAL, 2),
        "nonortho_cuspidal_b": (NONORTHO_CUSPIDAL_B, 2),
        "nonortho_noncuspidal": (NONORTHO_NONCUSPIDAL, 4),
        "binary": (BINARY_ROBOT, 2),
    }
    got = {name: (compute_aspects(p, 128).count, compute_aspects(p, 256).count)
           for name, (p, _) in expected.items()}
    assert got == {name: (n, n) for name, (_, n) in expected.items()}


def test_aspect_labels_partition_torus(ref_maps):
    labels = ref_maps.aspects.labels
    assert set(np.unique(labels)) <= set(range(ref_maps.aspects.count)) | {-1}
    # both aspects cover substantial area
    for k in range(ref_maps.aspects.count):
        assert np.sum(labels == k) > 0.1 * labels.size


def test_det_sign_constant_inside_aspect(ref_maps):
    labels = ref_maps.aspects.labels
    det = ref_maps.aspects.det_center
    for k in range(ref_maps.aspects.count):
        signs = np.sign(det[labels == k])
        assert len(set(signs.tolist())) == 1


# --------------------------------------------------------------------------
# pseudosingularities
# --------------------------------------------------------------------------

def test_ps_points_are_nonsingular(analysis, ref_maps):
    scale = singularity_scale(REFERENCE)
    ps = ref_maps.ps
    assert ps.total_points() > 0
    for chain in ps.polylines:
        vals = np.abs(det_jacobian(REFERENCE, chain[:, 0], chain[:, 1]))
        assert float(np.min(vals)) > 1e-4 * scale


def test_ps_points_map_onto_critical_values(analysis, ref_maps):
    wcurves = analysis.wcurves(REFERENCE)
    polylines = [w.vertices for w in wcurves]
    scale = singularity_scale(REFERENCE)
    for chain in ref_maps.ps.polylines:
        for t2, t3 in chain[::5]:
            pose = forward_kinematics(REFERENCE, JointConfig(0.0, t2, t3))
            d = polyline_min_dist((math.hypot(pose.x, pose.y), pose.z), polylines)
            assert d < 1e-4 * scale


def test_ps_points_keep_exclusion_distance(ref_maps):
    ps = ref_maps.ps
    for chain in ps.polylines:
        for pt in chain[::7]:
            assert ref_maps.s_index.dist(pt) > ps.exclusion_radius * 0.999


def test_torus_distance_index_matches_brute_force(analysis):
    curves = analysis.curves(REFERENCE)
    index = TorusCurveIndex([c.vertices for c in curves])
    segs = [unwrap_segment(c.vertices[k], c.vertices[(k + 1) % len(c)])
            for c in curves for k in range(len(c))]
    half = max(0.5 * float(np.hypot(*(b - a))) for a, b in segs)
    pts = np.random.default_rng(11).uniform(-math.pi, math.pi, (40, 2))
    got = index.dists(pts)
    for pt, d in zip(pts, got):
        best = min(point_segment_dist(*(a + wrap_angle(pt - a)), *a, *b) for a, b in segs)
        # candidates are the segments with the k nearest midpoints
        assert best - 1e-12 <= d <= best + half
        assert index.dist(pt) == d


def test_binary_robot_has_empty_ps(analysis):
    curves = analysis.curves(BINARY_ROBOT)
    ps = compute_pseudosingularities(BINARY_ROBOT, curves)
    assert ps.total_points() == 0
    aspects = compute_aspects(BINARY_ROBOT, TEST_GRID)
    reduced = compute_reduced_aspects(BINARY_ROBOT, curves, ps, aspects)
    assert reduced.count == aspects.count
    assert np.array_equal(reduced.labels, aspects.labels)


# --------------------------------------------------------------------------
# reduced aspects
# --------------------------------------------------------------------------

def test_reduced_aspects_refine_aspects(ref_maps):
    flat_r = ref_maps.reduced.labels.ravel()
    flat_a = ref_maps.aspects.labels.ravel()
    seen = {}
    for r, a in zip(flat_r.tolist(), flat_a.tolist()):
        if r < 0 or a < 0:
            continue
        if r in seen:
            assert seen[r] == a, "reduced aspect straddles two aspects"
        else:
            seen[r] = a
    for r, a in seen.items():
        assert ref_maps.reduced.parent_aspect[r] == a


def test_reduced_aspects_have_no_slivers(analysis, noncusp_maps):
    """The node robot splits each aspect in two; no robot has grid-scale
    slivers left over from unclosed PS branches or cut off by S."""
    node_maps = build_topology(NODE_ROBOT, analysis.curves(NODE_ROBOT), TEST_GRID)
    per_aspect = np.bincount(node_maps.reduced.parent_aspect,
                             minlength=node_maps.aspects.count)
    assert per_aspect.tolist() == [2, 2, 2, 2]
    for maps in (node_maps, noncusp_maps):
        for grid_map in (maps.aspects, maps.reduced):
            labels = grid_map.labels
            sizes = np.bincount(labels[labels >= 0], minlength=grid_map.count)
            assert int(np.min(sizes)) >= 50, sorted(sizes.tolist())[:5]


def test_labels_numbered_by_first_row_major_appearance(ref_maps):
    for grid_map in (ref_maps.aspects, ref_maps.reduced):
        order = []
        seen = set()
        for v in grid_map.labels.ravel().tolist():
            if v >= 0 and v not in seen:
                seen.add(v)
                order.append(v)
        assert order == list(range(grid_map.count))


def test_reference_aspect_splits_into_reduced(ref_maps):
    parents = ref_maps.reduced.parent_aspect[:ref_maps.reduced.count]
    counts = np.bincount(parents[parents >= 0], minlength=ref_maps.aspects.count)
    assert int(np.max(counts)) >= 3


# --------------------------------------------------------------------------
# solution labels
# --------------------------------------------------------------------------

def _regular_point_with_count(p, maps, analysis, want, grid=TEST_GRID):
    from cuspidal import region_census

    census = region_census(p, grid, census_n=64,
                           curves=analysis.curves(p),
                           workspace_curves=analysis.wcurves(p))
    rc, zc = census.centers()
    for i in range(len(rc)):
        for j in range(len(zc)):
            if census.counts[i, j] != want:
                continue
            target = CrossSectionPoint(float(rc[i]), float(zc[j]))
            labels = label_solutions(p, maps, target)
            if len(labels) == want and not any(
                    l.on_boundary or l.singular_cell or l.multiplicity != 1
                    for l in labels):
                return target, labels
    raise AssertionError(f"no clean {want}-solution point found")


def test_reference_four_point_shares_aspect(ref_maps, analysis):
    _, labels = _regular_point_with_count(REFERENCE, ref_maps, analysis, 4)
    aspects = [l.aspect for l in labels]
    assert len(set(aspects)) < 4, "cuspidal robot: two IKS share an aspect"
    reduced = [l.reduced_aspect for l in labels]
    assert len(set(reduced)) == 4, "reduced aspects are always distinct"


def test_noncuspidal_four_point_all_aspects_distinct(noncusp_maps, analysis):
    _, labels = _regular_point_with_count(
        NONORTHO_NONCUSPIDAL, noncusp_maps, analysis, 4)
    aspects = [l.aspect for l in labels]
    assert len(set(aspects)) == 4
    reduced = [l.reduced_aspect for l in labels]
    assert len(set(reduced)) == 4


def test_theorem2_audit(ref_maps, noncusp_maps, analysis):
    """No two IK solutions of a sampled regular point share a reduced aspect."""
    from cuspidal import region_census

    for p, maps in ((REFERENCE, ref_maps), (NONORTHO_NONCUSPIDAL, noncusp_maps)):
        census = region_census(p, TEST_GRID, census_n=64,
                               curves=analysis.curves(p),
                               workspace_curves=analysis.wcurves(p))
        rc, zc = census.centers()
        checked = 0
        for i in range(len(rc)):
            for j in range(len(zc)):
                if census.counts[i, j] < 2:
                    continue
                target = CrossSectionPoint(float(rc[i]), float(zc[j]))
                labels = label_solutions(p, maps, target)
                if len(labels) < 2 or any(
                        l.on_boundary or l.singular_cell or l.multiplicity != 1
                        for l in labels):
                    continue
                reduced = [l.reduced_aspect for l in labels]
                assert len(set(reduced)) == len(reduced), (p, (rc[i], zc[j]), reduced)
                checked += 1
                if checked >= 220:
                    break
            if checked >= 220:
                break
        assert checked >= 200


# --------------------------------------------------------------------------
# verdict
# --------------------------------------------------------------------------

def test_reference_is_cuspidal():
    rep = is_cuspidal(REFERENCE, grid_n=TEST_GRID, census_n=96, samples=150)
    assert rep.verdict
    assert len(rep.cusps) == 4
    assert rep.aspect_count == 2
    assert rep.cross_validation.same_aspect_found
    assert rep.agrees
    assert not rep.cross_validation.theorem2_violations


def test_nonortho_robots_verdicts():
    rep_a = is_cuspidal(NONORTHO_CUSPIDAL, grid_n=TEST_GRID, census_n=96, samples=150)
    assert rep_a.verdict and rep_a.agrees
    rep_b = is_cuspidal(NONORTHO_NONCUSPIDAL, grid_n=TEST_GRID, census_n=96, samples=150)
    assert not rep_b.verdict
    assert not rep_b.cusps
    assert rep_b.agrees


def test_non_generic_robot_raises():
    with pytest.raises(NonGenericRobotError) as err:
        is_cuspidal(NONGENERIC_QUAD, grid_n=TEST_GRID, census_n=96, samples=100)
    kinds = [e["kind"] for e in err.value.report.evidence]
    assert "quadruple_root" in kinds


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

def test_reference_posture_change_path(ref_maps):
    qs = JointConfig(0.0, -0.742, 2.628)
    qg = JointConfig(0.0, -3.0, -0.5)
    path = find_nonsingular_path(REFERENCE, ref_maps, qs, qg)
    assert path is not None
    check = verify_path(REFERENCE, path)
    assert check.valid
    assert np.allclose(path.waypoints[0], [qs.theta2, qs.theta3])
    assert np.allclose(path.waypoints[-1], [qg.theta2, qg.theta3])


def test_waypoint_chain_path(analysis):
    p = NONORTHO_CUSPIDAL_B
    maps = build_topology(p, analysis.curves(p), TEST_GRID)
    pts = [(-3.0, 0.5), (2.0, 3.0), (0.2, 2.8)]
    for a, b in zip(pts[:-1], pts[1:]):
        path = find_nonsingular_path(p, maps, JointConfig(0, *a), JointConfig(0, *b))
        assert path is not None
        assert verify_path(p, path).valid


def test_noncuspidal_ik_pair_has_no_path(noncusp_maps, analysis):
    target, labels = _regular_point_with_count(
        NONORTHO_NONCUSPIDAL, noncusp_maps, analysis, 4)
    configs = [l.config for l in labels]
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            path = find_nonsingular_path(NONORTHO_NONCUSPIDAL, noncusp_maps,
                                         configs[i], configs[j])
            assert path is None


def test_path_rejects_singular_endpoint(ref_maps, analysis):
    v = analysis.curves(REFERENCE)[0].vertices[0]
    with pytest.raises(StartOrGoalSingularError):
        find_nonsingular_path(REFERENCE, ref_maps,
                              JointConfig(0, float(v[0]), float(v[1])),
                              JointConfig(0, -3.0, -0.5))


def test_verify_path_constant_valid():
    path = JointPath(np.array([[-0.742, 2.628]]), 0.0, 0.0, 0.0)
    assert verify_path(REFERENCE, path).valid


def test_verify_path_crossing_invalid(analysis):
    v = analysis.curves(REFERENCE)[0].vertices[7]
    g2, g3 = v[0], v[1]
    # straight segment passing through a critical point
    path = JointPath(np.array([[g2 - 0.2, g3 - 0.2], [g2 + 0.2, g3 + 0.2]]),
                     0.0, 0.0, 0.0)
    assert not verify_path(REFERENCE, path, samples_per_segment=41).valid
