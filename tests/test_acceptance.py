"""Acceptance suite: every criterion at full resolution (grid_n = 720).

Each test prints one PASS line on success; tolerances are pinned here and
nowhere else.  Run with `pytest tests/test_acceptance.py -v -s`.
"""
import math
import os
import subprocess
import sys

import numpy as np

from cuspidal import (
    CrossSectionPoint,
    JointConfig,
    conic_classify,
    cross_section,
    det_jacobian,
    forward_kinematics,
    find_nonsingular_path,
    is_cuspidal,
    jacobian,
    label_solutions,
    singularity_scale,
    solve_ik,
    solve_ik_cross_section,
    trace_critical_points,
    critical_values,
    build_topology,
    verify_path,
    wrap_angle,
)
from cuspidal.errors import NonGenericRobotError
from cuspidal.reduction import conic_coefficients, quartic_from_conic

from conftest import (
    ELLIPSE_ROBOT,
    HYPERBOLA_ROBOT,
    NODE_ROBOT,
    NONORTHO_CUSPIDAL,
    NONORTHO_CUSPIDAL_B,
    NONORTHO_NONCUSPIDAL,
    PAPER_BATTERY,
    PARABOLA_ROBOT,
    REFERENCE,
    random_valid_params,
)
from segment_refs import polyline_min_dist

GRID = 720
BATTERY_PATH = os.path.join(os.path.dirname(__file__), "..", "robots", "battery.json")

_reports = {}


def full_report(p):
    if p not in _reports:
        _reports[p] = is_cuspidal(p, grid_n=GRID, census_n=128, samples=200)
    return _reports[p]


def _ok(msg):
    print(f"PASS: {msg}")


def test_criterion_1_reference_robot():
    rep = full_report(REFERENCE)
    assert rep.verdict, "reference robot must be cuspidal"
    assert len(rep.cusps) == 4
    best = min(math.hypot(c.rho - 2.48, c.z - 1.96) for c in rep.cusps)
    assert best < 0.05
    assert rep.aspect_count == 2
    _ok("criterion 1: reference robot cuspidal, 4 cusps (one at ~(2.48,1.96)), 2 aspects")


def test_criterion_2_node_robot():
    rep = full_report(NODE_ROBOT)
    best = min((n for n in rep.nodes), key=lambda n: math.hypot(n.rho - 2.84, n.z - 3.79))
    assert math.hypot(best.rho - 2.84, best.z - 3.79) < 0.05
    sols = solve_ik_cross_section(NODE_ROBOT, CrossSectionPoint(best.rho, best.z))
    assert [s.multiplicity for s in sols.solutions] == [2, 2]
    _ok("criterion 2: node at ~(2.84,3.79) with two multiplicity-2 IK solutions")


def test_criterion_3_critical_value_sample():
    curves = trace_critical_points(REFERENCE, GRID)
    wcurves = critical_values(REFERENCE, curves)
    d = polyline_min_dist((2.913, 0.1), [w.vertices for w in wcurves])
    assert d < 0.05
    _ok("criterion 3: reference critical values pass within 0.05 of (2.913,0.1)")


def test_criterion_4_nonorthogonal_verdicts():
    rep_a = full_report(NONORTHO_CUSPIDAL)
    assert rep_a.verdict
    rep_b = full_report(NONORTHO_NONCUSPIDAL)
    assert not rep_b.verdict
    assert len(rep_b.cusps) == 0
    _ok("criterion 4: non-orthogonal robots classify cuspidal / non-cuspidal")


def test_criterion_5_conic_taxonomy():
    assert conic_classify(HYPERBOLA_ROBOT).kind == "Hyperbola"
    assert conic_classify(PARABOLA_ROBOT).kind == "Parabola"
    assert conic_classify(ELLIPSE_ROBOT).kind == "Ellipse"
    _ok("criterion 5: conic taxonomy Hyperbola / Parabola / Ellipse")


def test_criterion_6_property_suite():
    rng = np.random.default_rng(811741)
    n = 1000
    worst = {"angle": 0.0, "conic": 0.0, "quartic": 0.0, "det": 0.0, "jac": 0.0}
    for _ in range(n):
        p = random_valid_params(rng)
        scale = singularity_scale(p)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        target = forward_kinematics(p, q)

        # FK <-> IK round trip, torus metric per angle
        sols = solve_ik(p, target)
        best = min(
            (max(abs(float(wrap_angle(s.config.theta1 - q.theta1))),
                 abs(float(wrap_angle(s.config.theta2 - q.theta2))),
                 abs(float(wrap_angle(s.config.theta3 - q.theta3))))
             for s in sols.solutions),
            default=math.inf)
        worst["angle"] = max(worst["angle"], best)

        # conic and quartic residuals
        cs = cross_section(target)
        conic = conic_coefficients(p, cs)
        c3, s3 = math.cos(q.theta3), math.sin(q.theta3)
        worst["conic"] = max(worst["conic"], abs(conic.evaluate(c3, s3)))
        if abs(math.cos(q.theta3 / 2)) > 1e-3:
            t = math.tan(q.theta3 / 2)
            m = quartic_from_conic(conic)
            worst["quartic"] = max(worst["quartic"],
                                   abs(float(m.value(t))) / (1 + t * t) ** 2)

        # closed-form det(J) against the numeric determinant
        jac = jacobian(p, q)
        det_closed = float(det_jacobian(p, q.theta2, q.theta3))
        det_num = float(np.linalg.det(jac))
        worst["det"] = max(worst["det"],
                           abs(det_closed - det_num) / max(1e-9 * scale, abs(det_num)))

        # analytic Jacobian against central finite differences
        h = 1e-6
        fd = np.zeros((3, 3))
        qa = q.as_array()
        for i in range(3):
            qp, qm = qa.copy(), qa.copy()
            qp[i] += h
            qm[i] -= h
            fd[:, i] = (forward_kinematics(p, JointConfig(*qp)).as_array()
                        - forward_kinematics(p, JointConfig(*qm)).as_array()) / (2 * h)
        ref = max(1.0, float(np.max(np.abs(jac))))
        worst["jac"] = max(worst["jac"], float(np.max(np.abs(jac - fd))) / ref)

    assert worst["angle"] < 1e-8, worst
    assert worst["conic"] < 1e-9, worst
    assert worst["quartic"] < 1e-8, worst
    assert worst["det"] < 1e-9, worst
    assert worst["jac"] < 1e-6, worst
    _ok(f"criterion 6: property suite over {n} random robots "
        f"(worst: angle {worst['angle']:.1e}, conic {worst['conic']:.1e}, "
        f"quartic {worst['quartic']:.1e}, det {worst['det']:.1e}, jac {worst['jac']:.1e})")


def test_criterion_7_proposition_1_audit():
    for name, p in (("reference", REFERENCE), ("node", NODE_ROBOT)):
        census = full_report(p).census
        assert census.audited_pairs > 100, name
        assert census.audit_ok, (name, census.violations[:3])
        assert census.boundary_samples, name
        for s in census.boundary_samples:
            assert s.count == s.low + 1 == s.high - 1, (name, s)
    node_census = full_report(NODE_ROBOT).census
    present = set(node_census.counts.ravel().tolist())
    assert {2, 4} <= present
    assert any(s.low == 2 and s.high == 4 and s.count == 3
               for s in node_census.boundary_samples)
    _ok("criterion 7: adjacent regions differ by exactly 2 IKS; boundaries carry "
        "the intermediate count (3 between 2 and 4)")


def test_criterion_8_theorem_2_audit():
    for name, p in PAPER_BATTERY.items():
        rep = full_report(p)
        assert rep.cross_validation.points_examined >= 200, name
        assert not rep.cross_validation.theorem2_violations, name
    _ok(f"criterion 8: no shared reduced aspect over >=200 points x "
        f"{len(PAPER_BATTERY)} robots")


def test_criterion_9_theorem_3_equivalence():
    agreements = 0
    robots = list(PAPER_BATTERY.items())
    rng = np.random.default_rng(424242)
    random_found = 0
    attempts = 0
    while random_found < 20 and attempts < 200:
        attempts += 1
        p = random_valid_params(rng)
        try:
            rep = is_cuspidal(p, grid_n=GRID, census_n=128, samples=200)
        except NonGenericRobotError:
            continue
        if any(not a.startswith("pillars disagree") for a in rep.anomalies):
            continue  # input-based screen: not enough regular samples; a
            # disagreement stays in, for the assertion below to catch
        random_found += 1
        robots.append((f"random-{random_found}", p))
        _reports[p] = rep
    assert random_found == 20, f"only {random_found} generic robots in {attempts} draws"
    for name, p in robots:
        rep = full_report(p)
        assert rep.agrees, (name, rep.verdict, rep.cross_validation)
        agreements += 1
    _ok(f"criterion 9: cusp verdict matches same-aspect-IKS oracle on "
        f"{agreements}/{len(robots)} robots (6 battery + 20 random generic)")


def test_criterion_10_paths():
    curves = trace_critical_points(REFERENCE, GRID)
    maps = build_topology(REFERENCE, curves, GRID)
    path = find_nonsingular_path(REFERENCE, maps,
                                 JointConfig(0, -0.742, 2.628),
                                 JointConfig(0, -3.0, -0.5))
    assert path is not None
    assert verify_path(REFERENCE, path).valid

    p11 = NONORTHO_CUSPIDAL_B
    curves11 = trace_critical_points(p11, GRID)
    maps11 = build_topology(p11, curves11, GRID)
    pts = [(-3.0, 0.5), (2.0, 3.0), (0.2, 2.8)]
    for a, b in zip(pts[:-1], pts[1:]):
        seg = find_nonsingular_path(p11, maps11, JointConfig(0, *a), JointConfig(0, *b))
        assert seg is not None
        assert verify_path(p11, seg).valid

    ncp = NONORTHO_NONCUSPIDAL
    rep = full_report(ncp)
    assert not rep.cross_validation.same_aspect_found
    curves_n = trace_critical_points(ncp, GRID)
    maps_n = build_topology(ncp, curves_n, GRID)
    census = rep.census
    rc, zc = census.centers()
    four = np.argwhere(census.counts == 4)
    assert len(four)
    i, j = four[len(four) // 2]
    labels = label_solutions(ncp, maps_n, CrossSectionPoint(float(rc[i]), float(zc[j])))
    configs = [l.config for l in labels if not l.on_boundary]
    assert len(configs) == 4
    for a in range(len(configs)):
        for b in range(a + 1, len(configs)):
            assert find_nonsingular_path(ncp, maps_n, configs[a], configs[b]) is None
    _ok("criterion 10: posture-change paths found and certified; "
        "non-cuspidal IK pairs have none")


def test_criterion_11_determinism(tmp_path):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "cuspidal.cli", "classify",
             "--robot", BATTERY_PATH, "--name", "orthogonal_cuspidal",
             "--grid", "360", "--census", "96", "--samples", "150",
             "--out", str(out), "--format", "json,csv,svg"],
            capture_output=True, env=env, check=False)
        assert proc.returncode == 2, proc.stderr.decode()
        outs.append((out, proc.stdout))
    assert outs[0][1] == outs[1][1], "stdout differs between reruns"
    for fname in sorted(os.listdir(outs[0][0])):
        b1 = (outs[0][0] / fname).read_bytes()
        b2 = (outs[1][0] / fname).read_bytes()
        assert b1 == b2, f"{fname} differs between reruns"
    _ok("criterion 11: repeated classify runs byte-identical (stdout, json, csv, svg)")
