"""Nodes in closed form: the two quadratics of find_nodes against the
crossing sweep with Newton they replace (tests/engine_refs), against the IK
root engine, against exact algebra, and for the grid they do not need."""
import logging
import math

import numpy as np
import pytest

from cuspidal import (
    critical_values,
    find_cusps,
    find_nodes,
    genericity_check,
    trace_critical_points,
)
from cuspidal.dh import length_scale
from cuspidal.reduction import solve_ik_batch

from conftest import (
    BATTERY,
    PARABOLA_ROBOT,
    TEST_GRID,
    perfbench_inputs,
    rational_robot,
    robot_draws,
)
from engine_refs import sweep_find_nodes


def test_closed_form_nodes_equal_the_reference_sweep():
    """On the battery, the screen robots and 210 draws (random, tilted and
    orthogonal), every robot genericity accepts at the test grid has the
    nodes of the crossing sweep with Newton: the same count and (rho, z)
    within 1e-12 L."""
    robots = [*BATTERY.items(),
              *((label, p) for label, p, _ in perfbench_inputs().screen_robots(0)),
              *robot_draws(np.random.default_rng(20261019), 210)]
    counts = set()
    for name, p in robots:
        curves = trace_critical_points(p, TEST_GRID)
        wcurves = critical_values(p, curves)
        if not genericity_check(p, TEST_GRID, curves, wcurves, find_cusps(p, wcurves)).is_generic:
            continue
        nodes, ref = find_nodes(p, ()), sweep_find_nodes(p, wcurves)
        assert len(nodes) == len(ref), name
        scale = length_scale(p)
        for a, b in zip(nodes, ref):
            assert math.hypot(a.rho - b.rho, a.z - b.z) <= 1e-12 * scale, name
        counts.add(len(nodes))
    assert counts == {0, 1, 2, 3, 4}


def test_every_node_solves_to_two_double_roots():
    """The IK engine as the oracle of find_nodes, which accepts a candidate
    by _certify alone: on the battery, the screen robots and 300 draws,
    solve_ik_batch accepts every listed node's (rho, z) and finds exactly two
    distinct roots there, both double."""
    robots = [*BATTERY.items(),
              *((label, p) for label, p, _ in perfbench_inputs().screen_robots(0)),
              *robot_draws(np.random.default_rng(77), 300)]
    listed = 0
    for name, p in robots:
        nodes = find_nodes(p, ())
        if not nodes:
            continue
        k = len(nodes)
        ik = solve_ik_batch(p, [n.rho for n in nodes], [n.z for n in nodes])
        assert ik.status.tolist() == [0] * k, name
        assert np.bincount(ik.row, minlength=k).tolist() == [2] * k, name
        assert np.bincount(ik.row[ik.mult == 2], minlength=k).tolist() == [2] * k, name
        listed += k
    assert listed >= 300, listed


@pytest.mark.parametrize("name", ["orthogonal_node", "nonortho_noncuspidal", "parabola_conic"])
def test_nodes_do_not_depend_on_the_grid(name):
    """find_nodes gives bit-identical nodes from curves traced at grids 120,
    240 and 720 and from none.  parabola_conic's K > 0 quadratic is zero up
    to rounding, a family of two-double-root targets, and gives no node."""
    p = BATTERY[name]
    results = [find_nodes(p, ())]
    for grid_n in (120, 240, 720):
        results.append(find_nodes(p, critical_values(p, trace_critical_points(p, grid_n))))
    assert all(repr(r) == repr(results[0]) for r in results)
    assert (results[0] == []) == (p == PARABOLA_ROBOT)


def test_a_quadratic_zero_up_to_rounding_lists_no_node(caplog):
    """parabola_conic's K > 0 branch is identically zero up to rounding (its
    roots would certify 2 spurious nodes): find_nodes logs that branch at
    debug level and lists none; the branches of a generic robot are not."""
    with caplog.at_level(logging.DEBUG, logger="cuspidal.critical"):
        assert find_nodes(PARABOLA_ROBOT, ()) == []
        zero = [r.getMessage() for r in caplog.records if "identically zero" in r.getMessage()]
        assert len(zero) == 1 and "K = -" not in zero[0]
        caplog.clear()
        assert len(find_nodes(BATTERY["orthogonal_node"], ())) == 2
        assert not any("identically zero" in r.getMessage() for r in caplog.records)


def test_sympy_node_quadratics_of_a_rational_robot():
    """A robot with rational lengths and rational cosines and sines of its
    twists, solved exactly: on each branch K = +/- 2 |h2|, with (cos m, sin m)
    the half angle of h2, h1 parallel to (cos m, sin m) is a line in y = (pw,
    qw), and h0 = K (1/2 + e^2) with e = -h1 . (cos m, sin m) / (2 K) a
    quadratic on it.  Its roots with |e| < 1 and rho^2 >= 0, evaluated to 50
    digits, are find_nodes' 4 nodes to 1e-12 L."""
    sp = pytest.importorskip("sympy")
    robot, k = rational_robot(sp)
    d1, a1, sa1, w, P, axx, axy, ayy, uvw = (k.d1, k.a1, k.sa1, k.w, k.P, k.axx, k.axy, k.ayy,
                                             k.uvw)
    pw, qw = sp.symbols("p_w q_w", real=True)
    y = sp.Matrix([pw, qw])
    h0 = (axx + ayy) / 2 + y.dot(y) - w[0] ** 2 - w[1] ** 2
    h1 = 2 * (P * y - uvw)
    h2 = sp.Matrix([(axx - ayy) / 2, axy])
    norm_h2 = sp.sqrt(h2.dot(h2))
    assert h2[1] != 0
    cos_m = sp.sqrt((1 + h2[0] / norm_h2) / 2)
    sin_m = sp.sign(h2[1]) * sp.sqrt((1 - h2[0] / norm_h2) / 2)
    exact = []
    for big_k, cs in ((2 * norm_h2, (cos_m, sin_m)), (-2 * norm_h2, (-sin_m, cos_m))):
        qw_on_line = sp.solve(h1[0] * cs[1] - h1[1] * cs[0], qw)[0]
        h1_cs = (h1[0] * cs[0] + h1[1] * cs[1]).subs(qw, qw_on_line)
        qa, qb, qc = sp.Poly(sp.expand(4 * big_k * h0.subs(qw, qw_on_line) - 2 * big_k ** 2
                                       - h1_cs ** 2), pw).all_coeffs()
        disc = sp.N(qb ** 2 - 4 * qa * qc, 50)
        if disc < 0:
            continue
        for sign in (1, -1):
            pw_root = sp.N((-qb + sign * sp.sqrt(disc)) / (2 * qa), 50)
            e = sp.N((-h1_cs / (2 * big_k)).subs(pw, pw_root), 50)
            R = 2 * a1 * pw_root + w[2]
            zr = sa1 * sp.N(qw_on_line.subs(pw, pw_root), 50) + w[3]
            if abs(e) < 1 and R - zr ** 2 >= 0:
                exact.append((float(sp.sqrt(R - zr ** 2)), float(zr + d1)))
    nodes = find_nodes(robot, ())
    assert len(nodes) == len(exact) == 4
    scale = length_scale(robot)
    for n in nodes:
        assert min(math.hypot(n.rho - r, n.z - z) for r, z in exact) <= 1e-12 * scale
