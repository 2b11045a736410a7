"""Open defects pinned as strict xfails: each test states what a correct
classifier gives, fails today, and turns into an error (XPASS) the day the
defect is mended, so that its mark comes off with the fix."""
import numpy as np
import pytest

from cuspidal import is_cuspidal

from conftest import perfbench_inputs, random_valid_params, robot_draws


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "pool_4 FOUND line in CHANGES.md: 2 cusps certified, yet no census cell of 128^2 has "
    "four solutions and no shared aspect is found (a region thinner than a census cell, "
    "ROADMAP item 10 step 2)"))
def test_the_screen_robot_pool_4_has_pillars_that_agree():
    robots = {label: p for label, p, _ in perfbench_inputs().screen_robots(0)}
    rep = is_cuspidal(robots["pool_4"], grid_n=720)
    assert rep.agrees


def _disagreeing_draws() -> list:
    """(id, robot) of the generic random robots whose pillars disagree at
    grid 720: draws 35, 47, 59, 93 and 121 (0-based call index) of
    random_valid_params on default_rng(11), and seven of
    robot_draws(default_rng(77), 60)."""
    rng = np.random.default_rng(11)
    seed11 = [random_valid_params(rng) for _ in range(122)]
    draws = dict(robot_draws(np.random.default_rng(77), 60))
    return ([(f"rng11-draw{k}", seed11[k]) for k in (35, 47, 59, 93, 121)]
            + [(f"rng77-{label.replace(' ', '')}", draws[label])
               for label in ("tilted 19", "orthogonal 29", "random 39", "orthogonal 41",
                             "random 51", "tilted 55", "tilted 58")])


_DISAGREEING = _disagreeing_draws()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "2 or 4 cusps certified, 0.0002 to 0.033 L apart, yet no shared aspect among the "
    "sampled regular points: the grid oracle cannot resolve the four-solution regions "
    "near close cusp pairs (ROADMAP item 16, a posture change around each cusp, and "
    "item 20, the disagreement rate)"))
@pytest.mark.parametrize("robot", [p for _, p in _DISAGREEING], ids=[k for k, _ in _DISAGREEING])
def test_random_draws_with_close_cusps_have_pillars_that_agree(robot):
    rep = is_cuspidal(robot, grid_n=720)
    assert rep.agrees
