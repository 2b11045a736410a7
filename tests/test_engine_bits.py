"""The root engine, the conic stack, the IK slot, the labels, the path
search and its audit, and the c3s3 plot's marching squares against the
references in engine_refs, bit for bit, plus the engine's work bounds per
call, and the SVG polylines against the per-vertex formatter."""
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import (
    CrossSectionPoint,
    DhParams,
    JointConfig,
    build_topology,
    cross_section,
    forward_kinematics,
)
from cuspidal import critical, reduction, robotfile, svgplot, topology
from cuspidal.dh import fk_arrays
from cuspidal.reduction import (
    _base_xy,
    _quartic_stack,
    conic_coefficients,
    f_coefficients,
    solve_ik,
    solve_ik_batch,
    solve_quartics,
)
from cuspidal.topology import JointPath, _labels

import engine_refs
from conftest import (
    BATTERY,
    NODE_ROBOT,
    REFERENCE,
    TEST_GRID,
    perfbench_inputs,
    random_valid_params,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_roots(batch, ref):
    return (_same_bits(batch.t, ref.t) and _same_bits(batch.mult, ref.mult)
            and _same_bits(batch.zero, ref.zero))


def _special_rows(rng):
    """Quartic rows the engine treats specially, one of each kind."""
    r, s, u = rng.uniform(-2.0, 2.0, 3)
    big = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(4.0, 6.0)     # theta3 near pi
    rows = [rng.normal(size=5)]
    drop = rng.normal(size=5)
    drop[0] = rng.uniform(-1.0, 1.0) * 1e-11                         # degree drop
    rows.append(drop)
    drop2 = rng.normal(size=5)
    drop2[:2] = rng.uniform(-1.0, 1.0, 2) * 1e-11                    # double drop
    rows.append(drop2)
    exact = rng.normal(size=5)
    exact[0] = 0.0                                                     # exact degree drop
    rows.append(exact)
    trailing = rng.normal(size=5)
    trailing[4] = 0.0                                                  # t = 0 is a root
    rows.append(trailing)
    trailing2 = rng.normal(size=5)
    trailing2[3:] = 0.0                                                # t = 0 twice
    rows.append(trailing2)
    for roots in ([r, r, s, u], [r, r, r, s], [r, r, r, r], [r, r, s, s], [big, r, s, u],
                  [big, big, r, s], [-big, r, r, s]):
        noise = rng.choice([0.0, 1e-15, 1e-13])
        rows.append(np.poly(roots) * (1.0 + noise * rng.normal(size=5)))
    rows.append(np.poly([r, r + 1e-9, s, u]))                        # near-double root
    rows.append(np.poly([r, r, r + 1e-7, s]))                        # near-triple root
    rows.append(np.zeros(5))                                           # all-zero row
    return [np.asarray(row, float) for row in rows]


def _stack(rng, k):
    rows = _special_rows(rng)
    pick = rng.integers(len(rows), size=k)
    stack = np.array([rows[i] for i in pick])
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (k, 1))
    return stack * scale


@pytest.mark.parametrize("k", [1, 2, 5])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_solve_quartics_bits_equal_reference(k, seed):
    stack = _stack(np.random.default_rng(seed), k)
    assert _same_roots(solve_quartics(stack), engine_refs.solve_quartics(stack))


@settings(max_examples=8)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_solve_quartics_bits_equal_reference_4096_rows(seed):
    stack = _stack(np.random.default_rng(seed), 4096)
    assert _same_roots(solve_quartics(stack), engine_refs.solve_quartics(stack))


def test_solve_quartics_bits_on_every_special_row():
    rng = np.random.default_rng(5)
    for row in _special_rows(rng):
        assert _same_roots(solve_quartics(row), engine_refs.solve_quartics(row)), row


@given(seed=st.integers(0, 2 ** 32 - 1))
def test_polish_plain_bits_equal_reference(seed):
    rng = np.random.default_rng(seed)
    stack = _stack(rng, 5)
    stack = stack[np.any(stack != 0.0, axis=1)]
    coeffs = stack / np.max(np.abs(stack), axis=1, keepdims=True)
    rows = np.repeat(np.arange(len(coeffs)), 3)
    t = rng.normal(size=len(rows)) * 10.0 ** rng.uniform(-1.0, 1.0, len(rows))
    with np.errstate(all="ignore"):
        best_t, best_val = reduction._polish_plain(coeffs[rows], t)
        ref = engine_refs.polish_plain(coeffs[rows], t)
        residual = np.abs(reduction._horner(coeffs[rows], ref))
    assert _same_bits(best_t, ref)
    assert _same_bits(best_val, residual)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), order=st.integers(0, 4),
       inner=st.sampled_from([(), (3,), (2, 3)]))
def test_quartic_jet_bits_equal_reference(seed, order, inner):
    """Quartic rows with extra axes between the row and the coefficients, as
    the pencil's (K, 3, 5) stacks have, at points from 1e-3 to 1e3 of
    either sign, zeros and degree-dropped rows among them."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 12))
    coeffs = rng.normal(size=(k, *inner, 5)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, *inner, 5))
    coeffs[rng.random((k, *inner, 5)) < 0.1] = 0.0
    t = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
    t[rng.random(k) < 0.1] = 0.0
    assert _same_bits(reduction.quartic_jet(coeffs, t, order),
                      engine_refs.quartic_jet(coeffs, t, order))


def _robots():
    """Battery robots, random robots and signed-zero variants."""
    rng = np.random.default_rng(17)
    robots = list(BATTERY.values()) + [random_valid_params(rng) for _ in range(6)]
    robots.append(DhParams(-0.0, 1.0, -0.0, 1.0, 2.0, 1.5, -math.pi / 2, math.pi / 2))
    robots.append(DhParams(0.0, -0.0, 0.0, 3.0, 1.0, 0.5, -math.pi / 2, -0.0))
    return robots


@pytest.mark.parametrize("k", [1, 2, 5, 4096])
def test_quartic_stack_bits_equal_reference(k):
    rng = np.random.default_rng(k)
    for p in _robots():
        z = rng.uniform(-6.0, 6.0, k)
        R = rng.uniform(0.0, 6.0, k) ** 2 + z * z
        m, norm = _quartic_stack(p, R, z)
        ref_m, ref_norm = engine_refs.quartic_stack(p, f_coefficients(p), R, z)
        assert _same_bits(m, np.ascontiguousarray(ref_m)), p
        assert _same_bits(norm, ref_norm), p


def _targets(p, rng, n):
    """FK images, points just off them, and unreachable points."""
    pts = []
    for _ in range(n):
        cs = cross_section(forward_kinematics(p, JointConfig(*rng.uniform(-math.pi, math.pi, 3))))
        pts.append((cs.rho, cs.z))
    rho, z = np.array(pts).T
    off = 10.0 ** rng.uniform(-9.0, -3.0, n)
    rho = np.concatenate([rho, np.abs(rho + off), [0.0, 50.0]])
    z = np.concatenate([z, z - off, [0.0, 0.0]])
    return rho, z


def _same_ik(a, b):
    return all(_same_bits(getattr(a, name), getattr(b, name))
               for name in ("row", "t", "mult", "theta", "solved", "status"))


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_solve_ik_batch_bits_equal_reference(name):
    p = BATTERY[name]
    rng = np.random.default_rng(len(name))
    rho, z = _targets(p, rng, 200)
    phi = rng.uniform(-math.pi, math.pi, len(rho))
    assert _same_ik(solve_ik_batch(p, rho, z, phi), engine_refs.solve_ik_batch(p, rho, z, phi))
    for k in range(0, len(rho), 37):
        one = solve_ik_batch(p, rho[k], z[k], phi[k])
        assert _same_ik(one, engine_refs.solve_ik_batch(p, rho[k], z[k], phi[k]))


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_label_solutions_bits_equal_reference(name, analysis):
    p = BATTERY[name]
    maps = build_topology(p, analysis.curves(p), TEST_GRID)
    rng = np.random.default_rng(len(name) + 1)
    rho, z = _targets(p, rng, 60)
    ref = engine_refs.labels(maps, engine_refs.solve_ik_batch(p, rho, z))
    got = topology.label_solutions_batch(p, maps, rho, z)
    # repr spells every float exactly and tells -0.0 from 0.0
    assert [k for k in range(len(rho)) if repr(got[k]) != repr(ref[k])] == []
    for k in range(0, len(rho), 11):
        one = _labels(maps, solve_ik_batch(p, rho[k], z[k]))
        assert repr(one) == repr([ref[k]])


def test_base_xy_is_fk_arrays_at_theta1_zero():
    """x and y bit for bit, signed zeros included, on angles and robots with
    -0.0 and on the quarter turns where products vanish exactly."""
    angles = np.array([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1.0, -2.5])
    th2, th3 = (a.ravel() for a in np.meshgrid(angles, angles))
    # parameters of +-0.0 and 1.0: end effectors at x or y = -0.0, which the
    # products by 0.0 turn into +0.0 on one side of the other coordinate
    zeros = [DhParams(*v) for v in itertools.product((0.0, -0.0, 1.0), repeat=8)]
    for p in _robots() + zeros:
        x, y, _ = fk_arrays(p, 0.0, th2, th3)
        bx, by = _base_xy(p, th2, th3)
        assert _same_bits(bx, x) and _same_bits(by, y), p


def _pose_checks(p, maps, pose):
    """solve_ik and then label_solutions of one pose, as a query makes
    them, each against the reference engine run cold."""
    rho = math.hypot(pose.x, pose.y)
    phi = math.atan2(pose.y, pose.x) if rho > 1e-14 else 0.0
    ref = engine_refs.solve_ik_batch(p, rho, pose.z, phi)
    assert repr(solve_ik(p, pose)) == repr(ref.solution_set(0))
    got = topology.label_solutions(p, maps, CrossSectionPoint(rho, pose.z))
    ref = engine_refs.labels(maps, engine_refs.solve_ik_batch(p, rho, pose.z))
    assert repr(got) == repr(ref[0])


def _fk_poses(p, rng, n):
    return [forward_kinematics(p, JointConfig(*rng.uniform(-math.pi, math.pi, 3)))
            for _ in range(n)]


@pytest.fixture(scope="module")
def query_maps(analysis):
    return {name: build_topology(BATTERY[name], analysis.curves(BATTERY[name]), TEST_GRID)
            for name in ("orthogonal_cuspidal", "orthogonal_node")}


def test_ik_then_labels_of_one_target_equal_reference(query_maps):
    p = BATTERY["orthogonal_cuspidal"]
    for pose in _fk_poses(p, np.random.default_rng(21), 12):
        _pose_checks(p, query_maps["orthogonal_cuspidal"], pose)


def test_robots_alternating_as_queries_do_equal_reference(query_maps):
    rng = np.random.default_rng(22)
    for _ in range(8):
        for name, maps in query_maps.items():
            _pose_checks(BATTERY[name], maps, _fk_poses(BATTERY[name], rng, 1)[0])


def test_solve_ik_batch_next_to_a_full_circle_equals_reference():
    """Targets 1e-6 to 4e-6 rad off NODE_ROBOT's full S circles, where the
    refinement step is capped by the distance between roots."""
    rng = np.random.default_rng(25)
    r = math.acos(-1.0 / 3.0)
    th3 = rng.choice([-1.0, 1.0], 60) * r + rng.choice([1e-6, -2e-6, 4e-6], 60)
    th2 = rng.uniform(-math.pi, math.pi, 60)
    x, y, z = fk_arrays(NODE_ROBOT, 0.0, th2, th3)
    rho = np.hypot(x, y)
    assert _same_ik(solve_ik_batch(NODE_ROBOT, rho, z, 0.3),
                    engine_refs.solve_ik_batch(NODE_ROBOT, rho, z, 0.3))


def test_one_target_on_two_robots_equals_reference():
    a, b = BATTERY["orthogonal_cuspidal"], BATTERY["nonortho_cuspidal"]
    cs = cross_section(forward_kinematics(a, JointConfig(0.2, 0.7, -1.1)))
    for p in (a, b, a):
        assert _same_ik(solve_ik_batch(p, cs.rho, cs.z, 0.4),
                        engine_refs.solve_ik_batch(p, cs.rho, cs.z, 0.4))


def test_signed_zeros_are_other_targets_and_robots():
    """rho = -0.0 after 0.0, z = -0.7 after 0.5 at the same rho, and a robot
    whose d1 is -0.0 after its twin with 0.0 (equal as DhParams; z - d1
    differs in its sign at z = +-0.0)."""
    p = BATTERY["orthogonal_cuspidal"]
    twin = DhParams(-0.0, *(getattr(p, k) for k in ("d2", "d3", "a1", "a2", "a3",
                                                     "alpha1", "alpha2")))
    assert twin == p
    for robot, rho, z in ((p, 0.0, 1.5), (p, -0.0, 1.5), (p, 2.0, 0.5), (p, 2.0, -0.7),
                          (p, 2.0, 0.0), (twin, 2.0, 0.0),
                          (twin, 2.0, -0.0), (p, 2.0, -0.0)):
        assert _same_ik(solve_ik_batch(robot, rho, z, 0.3),
                        engine_refs.solve_ik_batch(robot, rho, z, 0.3))


def test_one_target_then_a_batch_that_starts_with_it():
    p = BATTERY["nonortho_noncuspidal"]
    rho, z = _targets(p, np.random.default_rng(23), 3)
    rho, z = rho[:5], z[:5]
    for k in (1, 5, 1):
        assert _same_ik(solve_ik_batch(p, rho[:k], z[:k], 0.1),
                        engine_refs.solve_ik_batch(p, rho[:k], z[:k], 0.1))


def test_mutating_a_result_leaves_the_next_call_alone():
    p = BATTERY["ellipse_conic"]
    rho, z = _targets(p, np.random.default_rng(24), 4)
    first = solve_ik_batch(p, rho, z, 0.5)
    for name in ("row", "t", "mult", "theta", "solved", "status"):
        getattr(first, name)[...] = 1
    assert _same_ik(solve_ik_batch(p, rho, z, 0.5), engine_refs.solve_ik_batch(p, rho, z, 0.5))
    assert _same_ik(solve_ik_batch(p, rho, z, -0.5), engine_refs.solve_ik_batch(p, rho, z, -0.5))


# --------------------------------------------------------------------------
# work bounds
# --------------------------------------------------------------------------

def test_one_row_polish_makes_at_most_three_horner_calls_per_iteration(monkeypatch):
    """Inside _polish_plain, each iteration evaluates the slope once (rows of
    the derivative, whose leading slot is 0), the full step once and the
    halvings at most once."""
    calls = {"slope": 0, "other": 0}
    inside = []
    horner, polish = reduction._horner, reduction._polish_plain

    def counting_horner(d, t):
        if inside:
            calls["slope" if not np.any(d[..., 0]) else "other"] += 1
        return horner(d, t)

    def flagged_polish(*args, **kwargs):
        inside.append(True)
        try:
            return polish(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(reduction, "_horner", counting_horner)
    monkeypatch.setattr(reduction, "_polish_plain", flagged_polish)
    for roots in ([0.3, 0.3 + 1e-7, -1.0, 2.0], [0.5, 0.5, 0.5, -0.25], [-1.2, 0.1, 0.7, 3.0]):
        calls.update(slope=0, other=0)
        solve_quartics(np.poly(roots))
        assert calls["slope"] >= 1
        assert calls["slope"] + calls["other"] <= 1 + 3 * calls["slope"], (roots, calls)


def test_one_eigvals_call_per_companion_size_present(monkeypatch):
    sizes = []
    eigvals = np.linalg.eigvals

    def counting(a):
        sizes.append(a.shape[-1])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    solve_quartics(np.poly([0.1, 0.2, -0.5, 1.5]))
    assert sizes == [4]
    sizes.clear()
    stack = np.array([np.poly([0.1, 0.2, -0.5, 1.5]), [0.0, 1.0, -3.0, 2.0, 0.0],
                      np.poly([0.3, -0.4, 2.0, 1.0]), np.zeros(5)])
    solve_quartics(stack)
    assert sorted(sizes) == [2, 4]


def test_repeated_solve_ik_evaluates_f_coefficients_once(monkeypatch):
    calls = []
    body = reduction._sum_of_squares_reduced
    monkeypatch.setattr(reduction, "_sum_of_squares_reduced",
                        lambda forms: calls.append(1) or body(forms))
    # parameters no other test uses, so the memo starts without them
    p = DhParams(0.0, 1.0, 0.0, 1.0, 2.0, 1.4873, -math.pi / 2, math.pi / 2)
    for x in (1.0, 1.5, 2.0):
        solve_ik(p, forward_kinematics(p, JointConfig(0.3, x, -x)))
    solve_ik_batch(p, [1.0, 2.0], [0.5, -0.5])
    reduction.ik_counts(p, [1.0, 2.0], [0.5, -0.5])
    assert len(calls) == 1
    # -0.0 == 0.0 as DhParams, but the signed zero is another robot
    signed = DhParams(-0.0, 1.0, 0.0, 1.0, 2.0, 1.4873, -math.pi / 2, math.pi / 2)
    assert signed == p
    solve_ik(signed, forward_kinematics(signed, JointConfig(0.3, 1.0, -1.0)))
    assert len(calls) == 2


def test_ik_and_labels_of_one_target_make_one_engine_pass(monkeypatch, query_maps):
    calls = []
    engine = reduction.solve_quartics
    monkeypatch.setattr(reduction, "solve_quartics", lambda m: calls.append(1) or engine(m))
    p = BATTERY["orthogonal_cuspidal"]
    maps = query_maps["orthogonal_cuspidal"]
    # a configuration no other test uses, so the slot does not hold its target
    for k, q in enumerate([(0.123, 0.456, -0.789), (-0.321, 0.654, 0.987)]):
        pose = forward_kinematics(p, JointConfig(*q))
        solve_ik(p, pose)
        topology.label_solutions(p, maps, CrossSectionPoint(math.hypot(pose.x, pose.y), pose.z))
        assert len(calls) == k + 1


def test_f_coefficients_are_shared_read_only():
    f = f_coefficients(REFERENCE)
    assert f is f_coefficients(DhParams(*(float(v) for v in (0, 1, 0, 1, 2, 1.5)),
                                        -math.pi / 2, math.pi / 2))
    with pytest.raises(ValueError):
        f.u[0] = 1.0


# --------------------------------------------------------------------------
# posture-change paths
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["orthogonal_cuspidal", "nonortho_cuspidal", "orthogonal_node"])
def test_path_search_equals_the_cell_tuple_reference(name, analysis):
    """The first two same-aspect pairs (none on orthogonal_node) and two
    pairs in different aspects of clean labels of FK targets."""
    p = BATTERY[name]
    maps = build_topology(p, analysis.curves(p), TEST_GRID)
    rho, z = _targets(p, np.random.default_rng(len(name) + 2), 60)
    same, other = [], []
    for labels in topology.label_solutions_batch(p, maps, rho, z):
        clean = [l for l in labels or [] if not (l.on_boundary or l.singular_cell)]
        for a, b in itertools.combinations(clean, 2):
            (same if a.aspect == b.aspect else other).append((a.config, b.config))
    assert len(same) >= 2 or name == "orthogonal_node"
    for qa, qb in same[:2] + other[:2]:
        _same_path(topology.find_nonsingular_path(p, maps, qa, qb),
                   engine_refs.find_nonsingular_path(p, maps, qa, qb))


def _same_path(got, ref):
    assert (got is None) == (ref is None)
    if got is not None:
        assert _same_bits(got.waypoints, ref.waypoints)
        assert (got.theta1_start, got.theta1_end) == (ref.theta1_start, ref.theta1_end)
        assert _same_bits(got.min_det, ref.min_det)


def _query_stream_pairs(seed, count):
    """The first `count` same-aspect pairs of clean labels on
    orthogonal_cuspidal that query_mix's QueryStream(seed) draws against maps
    at grid 720, one pair per query point, and the robot and its maps."""
    inputs = perfbench_inputs()
    battery = robotfile.parse_robot_file(str(ROOT / "robots" / "battery.json"))
    robots, maps = [], None
    for name in ("orthogonal_cuspidal", "orthogonal_node"):
        p = battery.get(name)[1]
        curves = critical.trace_critical_points(p, 720)
        if name == "orthogonal_cuspidal":
            maps = build_topology(p, curves, 720)
        robots.append((name, p, np.vstack([w.vertices for w in critical.critical_values(p, curves)])))
    stream = inputs.QueryStream(seed, robots)
    pairs = []
    while len(pairs) < count:
        name, p, pose, _, _ = stream.next()
        if name != "orthogonal_cuspidal":
            continue
        labels = topology.label_solutions(p, maps, CrossSectionPoint(math.hypot(pose.x, pose.y),
                                                                     pose.z))
        clean = [l for l in labels if not (l.on_boundary or l.singular_cell)]
        pairs.extend([(a.config, b.config) for a, b in itertools.combinations(clean, 2)
                      if a.aspect == b.aspect][:1])
    return robots[0][1], maps, pairs


def test_path_search_at_grid_720_equals_the_cell_tuple_reference():
    """The first three same-aspect pairs of QueryStream seed 501, the
    queries query_mix makes, on the 255k open cells of an aspect."""
    p, maps, pairs = _query_stream_pairs(501, 3)
    for qa, qb in pairs:
        got = topology.find_nonsingular_path(p, maps, qa, qb)
        assert got is not None and len(got) > 100
        _same_path(got, engine_refs.find_nonsingular_path(p, maps, qa, qb))


# --------------------------------------------------------------------------
# path audit
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 12),
       samples=st.sampled_from([1, 2, 10, 41]))
def test_verify_path_equals_the_segment_loop(seed, m, samples):
    """Random waypoints, a third of their coordinates next to the +-pi seam
    on either side, so segments cross it; m = 1 is a one-waypoint path."""
    rng = np.random.default_rng(seed)
    p = random_valid_params(rng)
    w = rng.uniform(-math.pi, math.pi, (m, 2))
    seam = rng.random((m, 2)) < 1.0 / 3.0
    w[seam] = rng.choice([-1.0, 1.0], int(seam.sum())) * (math.pi - rng.uniform(0.0, 0.1, int(seam.sum())))
    path = JointPath(w, 0.1, -0.2, 0.0)
    got = topology.verify_path(p, path, samples)
    ref = engine_refs.verify_path(p, path, samples)
    assert _same_bits(got.min_det, ref.min_det) and got.valid == ref.valid


def test_verify_path_across_the_seam_takes_the_short_way():
    """A segment from theta2 = pi - 0.01 to -pi + 0.01 crosses the seam; the
    long way round would pass theta2 = 0."""
    p = BATTERY["orthogonal_cuspidal"]
    for w in ([[math.pi - 0.01, 0.4], [-math.pi + 0.01, 0.5]],
              [[0.3, math.pi - 0.02], [0.35, -math.pi + 0.03], [0.4, math.pi - 0.01]],
              [[0.7, -1.2]]):
        path = JointPath(np.array(w), 0.0, 0.0, 0.0)
        got = topology.verify_path(p, path)
        assert _same_bits(got.min_det, engine_refs.verify_path(p, path).min_det)
        assert got == engine_refs.verify_path(p, path)


# --------------------------------------------------------------------------
# c3s3 marching squares
# --------------------------------------------------------------------------

def _plane_segments_equal_reference(vals, xs):
    got = svgplot._marching_squares_plane(vals, xs, xs)
    ref = np.array(engine_refs.marching_squares_plane(vals, xs, xs), dtype=float).reshape(-1, 2, 2)
    assert _same_bits(got, ref)
    return len(got)


def test_plane_marching_squares_on_the_c3s3_test_targets(analysis):
    """The three targets the c3s3 plot tests draw: a cusp of REFERENCE,
    an ellipse-class conic and an unreachable point, whose conic misses the
    plot window."""
    cusp = max(analysis.cusps(REFERENCE), key=lambda c: c.z)
    xs = np.linspace(-2.6, 2.6, svgplot.C3S3_GRID)
    counts = []
    for p, target in ((REFERENCE, CrossSectionPoint(cusp.rho, cusp.z)),
                      (BATTERY["ellipse_conic"], CrossSectionPoint(2.4, 0.6)),
                      (BATTERY["orthogonal_cuspidal"], CrossSectionPoint(40.0, 0.0))):
        vals = conic_coefficients(p, target).evaluate(xs[:, None], xs[None, :])
        counts.append(_plane_segments_equal_reference(vals, xs))
    assert counts[0] > 0 and counts[1] > 0 and counts[2] == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_plane_marching_squares_on_random_conics_and_fields(seed):
    """Random conics on the c3s3 grid, a crossing pair of lines through a
    cell center, and a random field on a small grid, whose cells include
    four-edge saddles."""
    rng = np.random.default_rng(seed)
    xs = np.linspace(-2.6, 2.6, svgplot.C3S3_GRID)
    conic = reduction.ConicCoeffs(*rng.normal(size=6))
    _plane_segments_equal_reference(conic.evaluate(xs[:, None], xs[None, :]), xs)
    x0, y0 = rng.uniform(-2.0, 2.0, 2)
    _plane_segments_equal_reference((xs[:, None] - x0) * (xs[None, :] - y0), xs)
    small = np.linspace(-1.0, 1.0, 12)
    _plane_segments_equal_reference(rng.normal(size=(12, 12)), small)


# --------------------------------------------------------------------------
# SVG polylines
# --------------------------------------------------------------------------

def _polyline_equals_reference(canvas, pts):
    canvas.polyline(pts, "critical-curve")
    assert canvas.parts[-1] == (f'  <polyline class="critical-curve" '
                                f'points="{engine_refs.polyline_points(canvas, pts)}"/>')


def test_workspace_polylines_equal_the_per_vertex_formatter(analysis):
    """Every closed critical-value curve render_workspace draws, on a
    canvas spanning them, has the points the per-vertex formatter gives."""
    for p in BATTERY.values():
        wcurves = analysis.wcurves(p)
        allv = np.vstack([w.vertices for w in wcurves])
        canvas = svgplot._Canvas(float(allv[:, 0].min()), float(allv[:, 0].max()),
                                 float(allv[:, 1].min()), float(allv[:, 1].max()))
        for w in wcurves:
            _polyline_equals_reference(canvas, np.vstack([w.vertices, w.vertices[:1]]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_polylines_of_random_points_equal_the_per_vertex_formatter(seed):
    """Arrays and lists of tuples, with values that round to -0.000 and to
    the half-way digits, on a random canvas."""
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-5.0, 0.0, 2)
    canvas = svgplot._Canvas(lo[0], lo[0] + rng.uniform(1e-3, 10.0), lo[1], lo[1] + rng.uniform(1e-3, 10.0))
    pts = rng.uniform(-6.0, 6.0, (int(rng.integers(2, 40)), 2))
    pts[::3] = np.round(pts[::3], 4)
    _polyline_equals_reference(canvas, pts)
    _polyline_equals_reference(canvas, [tuple(v) for v in pts.tolist()])
    _polyline_equals_reference(canvas, [(canvas.x0, canvas.y1), (-0.0, 0.0), (1e-300, -1e-300)])
