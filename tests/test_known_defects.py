"""Open defects pinned as strict xfails: each test states what a correct
classifier gives, fails today, and turns into an error (XPASS) the day the
defect is mended, so that its mark comes off with the fix."""
import pytest

from cuspidal import is_cuspidal

from conftest import perfbench_inputs


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "pool_4 FOUND line in CHANGES.md: 2 cusps certified, yet no census cell of 128^2 has "
    "four solutions and no shared aspect is found (a region thinner than a census cell, "
    "ROADMAP item 10 step 2)"))
def test_the_screen_robot_pool_4_has_pillars_that_agree():
    robots = {label: p for label, p, _ in perfbench_inputs().screen_robots(0)}
    rep = is_cuspidal(robots["pool_4"], grid_n=720)
    assert rep.agrees
