"""Benchmark inputs, made from the run's seed alone.

Robot costs differ by an order of magnitude (0.6 s to 30 s for one screen
at grid 720), so a run whose robots were drawn afresh from each seed would
measure which robots it drew more than the program.  The classify and
screen workloads therefore run fixed robot sets, and the seed sets the
order in which they run; the query workload draws every point from the
seed.
"""
from __future__ import annotations

import math

import numpy as np

from cuspidal import DhParams, JointConfig, Pose3, forward_kinematics

HALF_PI = math.pi / 2

# classify_battery: one cuspidal, one non-cuspidal robot with nodes, and the
# non-generic refusal path.  The whole battery takes ~95 s per pass, which
# does not fit the run budget.
CLASSIFY_ROBOTS = ("orthogonal_cuspidal", "orthogonal_node", "parabola_conic")
# `cuspidal classify` exit codes at grid 720: cuspidal, non-cuspidal, non-generic.
CLASSIFY_EXIT = {"orthogonal_cuspidal": 2, "orthogonal_node": 0, "parabola_conic": 3}

# screen_family: a3 sweep of orthogonal_cuspidal across its cuspidal
# transition (4 cusps up to a3 = 2.0, 2 cusps from 2.2; 2.0 is non-generic).
# Members 2.1 and 2.3 cost 12 s and 30 s and are left out for the budget.
SWEEP_A3 = (0.8, 1.6, 2.0, 2.2)
# (cusps, nodes, generic) per sweep member, recorded at grid 720.
SWEEP_TABLE = {
    0.8: (4, 2, True),
    1.6: (4, 0, True),
    2.0: (4, 0, False),
    2.2: (2, 0, True),
}
# Random generic-range robots: the first draws of a fixed pool seed.
POOL_SEED = 20220217
POOL_SIZE = 8

# query_mix: share of query points placed just off the critical values.
NEAR_CRITICAL_SHARE = 0.2


def sweep_robot(a3: float) -> DhParams:
    return DhParams(0.0, 1.0, 0.0, 1.0, 2.0, a3, -HALF_PI, HALF_PI)


def random_robot(rng) -> DhParams:
    """Same ranges as the test suite's random_valid_params."""
    d = rng.uniform(-1.5, 1.5, 3)
    a = rng.uniform(0.3, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
    alpha1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.35, math.pi - 0.35)
    alpha2 = rng.uniform(-math.pi, math.pi)
    return DhParams(d[0], d[1], d[2], a[0], a[1], a[2], alpha1, alpha2)


def classify_order(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [CLASSIFY_ROBOTS[k] for k in rng.permutation(len(CLASSIFY_ROBOTS))]


def screen_robots(seed: int) -> list:
    """[(label, DhParams, a3 or None)] in the seed's order."""
    pool_rng = np.random.default_rng(POOL_SEED)
    robots = [(f"sweep_a3={a3}", sweep_robot(a3), a3) for a3 in SWEEP_A3]
    robots += [(f"pool_{k}", random_robot(pool_rng), None) for k in range(POOL_SIZE)]
    order = np.random.default_rng(seed).permutation(len(robots))
    return [robots[k] for k in order]


class QueryStream:
    """Seeded query points over robots whose critical values are known.

    Point k uses robot k mod len(robots).  Most points are forward
    kinematics images of uniform configurations (the source configuration
    is kept for the round-trip check); NEAR_CRITICAL_SHARE of them sit a
    small random offset away from a traced critical value, where M has a
    near-double root.  next() returns (robot name, p, target, source
    configuration or None, offset from the critical value or 0).
    """

    def __init__(self, seed: int, robots):
        self.rng = np.random.default_rng(seed)
        self.robots = robots          # [(name, p, critical-value vertices (n, 2))]
        self.k = 0

    def next(self):
        name, p, values = self.robots[self.k % len(self.robots)]
        self.k += 1
        rng = self.rng
        if rng.uniform() < NEAR_CRITICAL_SHARE:
            rho, z = values[rng.integers(len(values))]
            offset = 10.0 ** rng.uniform(-6.0, -3.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            rho = abs(rho + offset * math.cos(ang))
            z = z + offset * math.sin(ang)
            phi = rng.uniform(-math.pi, math.pi)
            return name, p, Pose3(rho * math.cos(phi), rho * math.sin(phi), z), None, offset
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        return name, p, forward_kinematics(p, q), q, 0.0
