"""Unit covariance: scaling every length of a robot by lambda changes no
decision of the analysis, and moves every workspace point it reports to
lambda (rho, z)."""
import functools
from dataclasses import replace

import numpy as np
import pytest

from cuspidal import is_cuspidal, region_census

from conftest import NODE_ROBOT, NONORTHO_CUSPIDAL, NONORTHO_NONCUSPIDAL, REFERENCE

SCALE_GRID = 360
SCALED = {
    "orthogonal_cuspidal": REFERENCE,
    "orthogonal_node": NODE_ROBOT,
    "nonortho_cuspidal": NONORTHO_CUSPIDAL,
    "nonortho_noncuspidal": NONORTHO_NONCUSPIDAL,
}
LAMBDAS = (0.01, 0.1, 10.0, 100.0)


def _scaled(p, lam):
    return replace(p, **{k: lam * getattr(p, k) for k in ("d1", "d2", "d3", "a1", "a2", "a3")})


@functools.lru_cache(maxsize=None)
def _summary(p):
    rep = is_cuspidal(p, grid_n=SCALE_GRID)
    cusps = np.array([(c.rho, c.z) for c in rep.cusps]).reshape(-1, 2)
    return rep.verdict, rep.genericity.is_generic, len(rep.nodes), rep.aspect_count, cusps


@pytest.mark.parametrize("name, lam", [pytest.param(name, lam, id=f"{name}-x{lam:g}")
                                       for name in sorted(SCALED) for lam in LAMBDAS])
def test_scaling_the_lengths_keeps_the_classification(name, lam):
    """Scaling d and a by lambda changes no verdict, genericity, node or
    aspect count, and moves each cusp to lambda (rho, z)."""
    p = SCALED[name]
    verdict, generic, nodes, aspects, cusps = _summary(p)
    got = _summary(_scaled(p, lam))
    assert got[:4] == (verdict, generic, nodes, aspects)
    assert got[4].shape == cusps.shape
    # each cusp's scaled partner, order aside (mirror pairs tie in rho)
    match = np.all(np.isclose(got[4][:, None] / lam, cusps[None], rtol=1e-9, atol=1e-9), axis=-1)
    assert np.all(match.any(axis=0)) and np.all(match.any(axis=1))


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scaling_the_lengths_keeps_the_census(name, analysis):
    """The census of the scaled robot audits the same pairs with the same
    violations and keeps as many boundary samples, each with its counts and
    moved to lambda (rho, z) to 1e-9 of its distance from the origin."""
    p = SCALED[name]
    base = region_census(p, analysis.wcurves(p, SCALE_GRID))
    points = np.array([(s.rho, s.z) for s in base.boundary_samples])
    assert len(points)
    for lam in LAMBDAS:
        q = _scaled(p, lam)
        census = region_census(q, analysis.wcurves(q, SCALE_GRID))
        assert census.audited_pairs == base.audited_pairs, lam
        assert census.violations == base.violations, lam
        assert ([(s.count, s.low, s.high) for s in census.boundary_samples]
                == [(s.count, s.low, s.high) for s in base.boundary_samples]), lam
        moved = np.array([(s.rho, s.z) for s in census.boundary_samples]) / lam
        gap = np.hypot(*(moved - points).T)
        assert np.all(gap <= 1e-9 * np.hypot(*points.T)), lam
