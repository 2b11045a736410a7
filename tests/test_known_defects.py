"""Open defects pinned as strict xfails: each test states what a correct
classifier gives, fails today, and turns into an error (XPASS) the day the
defect is mended, so that its mark comes off with the fix."""
import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from cuspidal import DhParams, is_cuspidal
from cuspidal.errors import NonGenericRobotError

from conftest import (
    NODE_ROBOT,
    NONORTHO_CUSPIDAL,
    NONORTHO_NONCUSPIDAL,
    REFERENCE,
    TEST_GRID,
    perfbench_inputs,
)

SCALE_GRID = 360
SCALED = {
    "orthogonal_cuspidal": REFERENCE,
    "orthogonal_node": NODE_ROBOT,
    "nonortho_cuspidal": NONORTHO_CUSPIDAL,
    "nonortho_noncuspidal": NONORTHO_NONCUSPIDAL,
}
# (robot, lambda) pairs classified wrongly today, with what they give
_SCALE_DEFECTS = {
    **{(name, 0.01): "refused as non-generic" for name in SCALED},
    ("orthogonal_cuspidal", 10.0): "3 cusps instead of 4",
    ("orthogonal_node", 10.0): "1 node instead of 2",
    ("nonortho_cuspidal", 10.0): "1 cusp instead of 4",
    ("orthogonal_cuspidal", 100.0): "0 cusps while judged generic: a wrong verdict",
    ("orthogonal_node", 100.0): "refused as non-generic",
    ("nonortho_cuspidal", 100.0): "refused as non-generic",
    ("nonortho_noncuspidal", 100.0): "1 node instead of 2",
}


def _scale_case(name, lam):
    defect = _SCALE_DEFECTS.get((name, lam))
    if defect is None:
        return pytest.param(name, lam, id=f"{name}-x{lam:g}")
    reason = (f"ROADMAP item 1 (write the tests first): thresholds scale by L^3 whatever "
              f"their dimension; x{lam:g} gives {defect}")
    return pytest.param(name, lam, id=f"{name}-x{lam:g}",
                        marks=pytest.mark.xfail(strict=True, reason=reason,
                                                raises=(AssertionError, NonGenericRobotError)))


@functools.lru_cache(maxsize=None)
def _summary(p):
    rep = is_cuspidal(p, grid_n=SCALE_GRID)
    cusps = np.array([(c.rho, c.z) for c in rep.cusps]).reshape(-1, 2)
    return rep.verdict, rep.genericity.is_generic, len(rep.nodes), rep.aspect_count, cusps


@pytest.mark.parametrize("name, lam", [_scale_case(name, lam) for name in sorted(SCALED)
                                       for lam in (0.01, 0.1, 10.0, 100.0)])
def test_scaling_the_lengths_keeps_the_classification(name, lam):
    """Scaling d and a by lambda changes no verdict, genericity, node or
    aspect count, and moves each cusp to lambda (rho, z)."""
    p = SCALED[name]
    scaled = replace(p, **{k: lam * getattr(p, k) for k in ("d1", "d2", "d3", "a1", "a2", "a3")})
    verdict, generic, nodes, aspects, cusps = _summary(p)
    got = _summary(scaled)
    assert got[:4] == (verdict, generic, nodes, aspects)
    assert got[4].shape == cusps.shape
    # each cusp's scaled partner, order aside (mirror pairs tie in rho)
    match = np.all(np.isclose(got[4][:, None] / lam, cusps[None], rtol=1e-9, atol=1e-9), axis=-1)
    assert np.all(match.any(axis=0)) and np.all(match.any(axis=1))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1 (write the tests first): one cusp certified at |M| = 3.69e-5 against "
    "a tolerance of 1.47e-4 (1e-7 L^3), and the pillars disagree"))
def test_a_false_cusp_robot_is_non_cuspidal_and_agrees():
    p = DhParams(0.0, 1.0, 0.0, 2.38, 2.0, 6.0, -math.pi / 2, math.pi / 2)
    rep = is_cuspidal(p, grid_n=TEST_GRID)
    assert not rep.verdict and rep.agrees and rep.anomalies == ()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "pool_4 FOUND line in CHANGES.md: 2 cusps certified, yet no census cell of 128^2 has "
    "four solutions and no shared aspect is found (a region thinner than a census cell, "
    "ROADMAP item 10 step 2, or a false cusp pair, item 1)"))
def test_the_screen_robot_pool_4_has_pillars_that_agree():
    robots = {label: p for label, p, _ in perfbench_inputs().screen_robots(0)}
    rep = is_cuspidal(robots["pool_4"], grid_n=720)
    assert rep.agrees
