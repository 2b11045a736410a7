"""Shared robots and cached analyses for the test suite.

The battery mirrors robots/battery.json; moderate grid resolutions keep the
unit tests fast while the acceptance module runs the spec resolution.
"""
import dataclasses
import importlib.util
import math
import pathlib
import types

import numpy as np
import pytest
from hypothesis import settings

from cuspidal import (
    DhParams,
    critical_values,
    find_cusps,
    find_nodes,
    topology,
    trace_critical_points,
)
from cuspidal.reduction import solve_ik_batch

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")

HALF_PI = math.pi / 2

# orthogonal robot with four cusps (two aspects, cuspidal)
REFERENCE = DhParams(0, 1, 0, 1, 2, 1.5, -HALF_PI, HALF_PI)
# orthogonal robot whose critical values self-intersect in two nodes
NODE_ROBOT = DhParams(0, 1, 0, 4, 2, 6, -HALF_PI, HALF_PI)
# conic taxonomy trio
HYPERBOLA_ROBOT = DhParams(0, 1, 0, 1, 2, 1.5, HALF_PI, math.pi / 6)
PARABOLA_ROBOT = DhParams(0, 1, 0, 1, 2, 1.5, math.pi / 3, HALF_PI)
ELLIPSE_ROBOT = DhParams(0, 1, 0, 1, 2, 1.5, math.pi / 6, HALF_PI)
# non-orthogonal pair with opposite verdicts
NONORTHO_CUSPIDAL = DhParams(0, 1, 0, 1, 2, 1, -math.pi / 6, HALF_PI)
NONORTHO_CUSPIDAL_B = DhParams(0, 1, 0, 1, 2, 1, math.pi / 6, HALF_PI)
NONORTHO_NONCUSPIDAL = DhParams(0, 1, 0, 1, 0.2, 2, -math.pi / 3, 1.745)
# two IK solutions everywhere: no pseudosingularities at all
BINARY_ROBOT = DhParams(0, 0.2, 0, 3, 1, 0.5, -HALF_PI, HALF_PI)
# intersecting joint axes: exact quadruple root in the workspace
NONGENERIC_QUAD = DhParams(0, 0, 0, 1, 2, 1.5, -HALF_PI, HALF_PI)
# fully symmetric geometry: the critical curve degenerates (squared factor)
NONGENERIC_CURVE = DhParams(0, 0, 0, 2, 2, 2, -HALF_PI, HALF_PI)

PAPER_BATTERY = {
    "orthogonal_cuspidal": REFERENCE,
    "orthogonal_node": NODE_ROBOT,
    "nonortho_cuspidal": NONORTHO_CUSPIDAL,
    "nonortho_cuspidal_b": NONORTHO_CUSPIDAL_B,
    "nonortho_noncuspidal": NONORTHO_NONCUSPIDAL,
    "ellipse_conic": ELLIPSE_ROBOT,
}

# every robot of robots/battery.json
BATTERY = dict(PAPER_BATTERY, hyperbola_conic=HYPERBOLA_ROBOT, parabola_conic=PARABOLA_ROBOT)

TEST_GRID = 240


def random_valid_params(rng) -> DhParams:
    """Random robot away from the validation degeneracies."""
    d = rng.uniform(-1.5, 1.5, 3)
    a = rng.uniform(0.3, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
    alpha1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.35, math.pi - 0.35)
    alpha2 = rng.uniform(-math.pi, math.pi)
    return DhParams(d[0], d[1], d[2], a[0], a[1], a[2], alpha1, alpha2)


def robot_draws(rng, k: int) -> list:
    """k (label, robot) pairs in turn from random_valid_params, tilted 1e-10
    to 1e-2 from orthogonal (both twists near +/- pi/2), and exactly
    orthogonal."""
    out = []
    for n in range(k):
        p = random_valid_params(rng)
        kind = ("random", "tilted", "orthogonal")[n % 3]
        if kind != "random":
            tilt = 10.0 ** rng.uniform(-10.0, -2.0) if kind == "tilted" else 0.0
            p = dataclasses.replace(
                p, alpha1=math.copysign(HALF_PI, p.alpha1) + tilt * rng.choice([-1.0, 1.0]),
                alpha2=math.copysign(HALF_PI, p.alpha2) + tilt * rng.uniform(-1.0, 1.0))
        out.append((f"{kind} {n}", p))
    return out


def rational_robot(sp):
    """(robot, terms) of a non-orthogonal robot with rational lengths and
    rational cosines and sines of its twists: d = (-3/2, 1, 1), a = (2, 1/2,
    9/4), cos alpha = 5/13 and -3/5.  `terms` holds, in exact sympy
    arithmetic, what f_coefficients and _conic_terms give: d1, a1, sa1, the
    constant terms w of F1..F4, P = [[pu, qu], [pv, qv]], axx, axy, ayy and
    uvw = (UW, VW)."""
    rat = sp.Rational
    d1, d2, d3, a1, a2, a3 = rat(-3, 2), rat(1), rat(1), rat(2), rat(1, 2), rat(9, 4)
    ca1, sa1, ca2, sa2 = rat(5, 13), rat(12, 13), rat(-3, 5), rat(4, 5)
    robot = DhParams(-1.5, 1.0, 1.0, 2.0, 0.5, 2.25, math.atan2(12, 5), math.atan2(4, -3))
    forms = ((a3, 0, a2), (0, ca2 * a3, -sa2 * d3), (0, sa2 * a3, d2 + ca2 * d3))
    f3 = (2 * sum(f[0] * f[2] for f in forms), 2 * sum(f[1] * f[2] for f in forms),
          sum(f[2] ** 2 + f[0] ** 2 for f in forms) + a1 ** 2)
    u, v, w = ((forms[0][i], -forms[1][i], f3[i], ca1 * forms[2][i]) for i in range(3))
    P = sp.Matrix([[-u[2] / (2 * a1), -u[3] / sa1], [-v[2] / (2 * a1), -v[3] / sa1]])
    return robot, types.SimpleNamespace(
        d1=d1, a1=a1, sa1=sa1, w=w, P=P,
        axx=P[0, 0] ** 2 + P[0, 1] ** 2 - u[0] ** 2 - u[1] ** 2,
        axy=P[0, 0] * P[1, 0] + P[0, 1] * P[1, 1] - u[0] * v[0] - u[1] * v[1],
        ayy=P[1, 0] ** 2 + P[1, 1] ** 2 - v[0] ** 2 - v[1] ** 2,
        uvw=sp.Matrix([u[0] * w[0] + u[1] * w[1], v[0] * w[0] + v[1] * w[1]]))


def label_targets(p, maps, rho, z) -> list:
    """label_solutions for arrays of cross-section points (rho, z), from one
    IK pass and one read of the lattice; targets whose IK is degenerate get
    None instead of raising."""
    return topology._labels(maps, solve_ik_batch(p, rho, z)).lists()


def perfbench_inputs():
    """perfbench/inputs.py as a module: the benchmark's robots and query streams."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


class _AnalysisCache:
    def __init__(self):
        self._curves = {}
        self._wcurves = {}
        self._cusps = {}
        self._nodes = {}

    def curves(self, p, grid_n=TEST_GRID):
        key = (p, grid_n)
        if key not in self._curves:
            self._curves[key] = trace_critical_points(p, grid_n)
        return self._curves[key]

    def wcurves(self, p, grid_n=TEST_GRID):
        key = (p, grid_n)
        if key not in self._wcurves:
            self._wcurves[key] = critical_values(p, self.curves(p, grid_n))
        return self._wcurves[key]

    def cusps(self, p, grid_n=TEST_GRID):
        key = (p, grid_n)
        if key not in self._cusps:
            self._cusps[key] = find_cusps(p, self.wcurves(p, grid_n))
        return self._cusps[key]

    def nodes(self, p, grid_n=TEST_GRID):
        key = (p, grid_n)
        if key not in self._nodes:
            self._nodes[key] = find_nodes(p, self.wcurves(p, grid_n))
        return self._nodes[key]


@pytest.fixture(scope="session")
def analysis():
    return _AnalysisCache()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20230817)
