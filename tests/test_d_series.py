"""D's theta2 series: for fixed theta3 the pulled-back discriminant is a
trigonometric polynomial of degree 6 in theta2 (exact algebra and the
16-sample DFT), and the lattice read from that series gives the signs of D
that D evaluated at every lattice point gives, bit for bit
(tests/engine_refs), which the reduced fill reads."""
import math

import numpy as np
import pytest

from cuspidal import compute_pseudosingularities, is_cuspidal, report, topology, trace_critical_points
from cuspidal.reduction import quartic_coeffs_from_conic, quartic_discriminant

from conftest import BATTERY, REFERENCE, TEST_GRID, perfbench_inputs, robot_draws
from engine_refs import pointwise_d_positive

SCREEN_ROBOTS = [(label, p) for label, p, _ in perfbench_inputs().screen_robots(1)]


def test_sympy_d_has_degree_six_in_theta2():
    """On c2^2 + s2^2 = 1 the conic's target terms make P^2 + Q^2, and so
    the quartic's five coefficients, affine in (c2, s2); D = (4 I^3 - J^2)
    / 27 of five affine coefficients has degree 6 in (c2, s2), so degree 6
    as a trigonometric polynomial in theta2."""
    sp = pytest.importorskip("sympy")
    c2, s2 = sp.symbols("c2 s2")
    p3, q3, f1, f2, pu, pv, qu, qv, uw, vw, ww, axx, axy, ayy = sp.symbols(
        "p3 q3 f1 f2 pu pv qu qv uw vw ww axx axy ayy")

    def on_circle(expr):
        return sp.Poly(sp.reduced(sp.expand(expr), [c2 ** 2 + s2 ** 2 - 1], c2, s2)[1], c2, s2)

    pw = p3 + f1 * c2 + f2 * s2
    qw = q3 + f1 * s2 - f2 * c2
    assert on_circle(pw ** 2 + qw ** 2).total_degree() == 1
    conic = (axx, axy, ayy, pu * pw + qu * qw - uw, pv * pw + qv * qw - vw, pw ** 2 + qw ** 2 - ww)
    _, _, _, bx, by, c = conic
    m = (axx - 2 * bx + c, -4 * axy + 4 * by, -2 * axx + 4 * ayy + 2 * c, 4 * axy + 4 * by,
         axx + 2 * bx + c)
    # the same five coefficients as the package's half-angle substitution
    values = np.random.default_rng(5).uniform(-2.0, 2.0, 16)
    at = dict(zip((c2, s2, p3, q3, f1, f2, pu, pv, qu, qv, uw, vw, ww, axx, axy, ayy), values))
    ref = quartic_coeffs_from_conic([float(e.subs(at)) for e in conic])
    assert np.allclose([float(e.subs(at)) for e in m], ref, rtol=1e-13, atol=1e-13)
    affine = [on_circle(e) for e in m]
    assert [e.total_degree() for e in affine] == [1] * 5
    # D of the affine coefficients at rational robot terms, exactly
    terms = list(at)[2:]
    rational = dict(zip(terms, (sp.Rational(int(k), 7)
                                for k in np.random.default_rng(6).integers(-20, 21, len(terms)))))
    disc = quartic_discriminant([e.as_expr().subs(rational) for e in affine])
    assert sp.Poly(sp.nsimplify(disc), c2, s2).total_degree() == 6


def _harmonic_tail(p) -> float:
    """Largest magnitude of harmonics 7 and 8 of the 16-sample DFT in theta2,
    over the columns of the test lattice, per the largest column sum of
    harmonics 0 to 6, each weighted as it enters the series."""
    th = -math.pi + 2 * math.pi * np.arange(TEST_GRID) / TEST_GRID
    phi = -math.pi + 2 * math.pi * np.arange(16) / 16
    harm = np.abs(np.fft.rfft(topology._discriminant(p, phi[:, None], th[None, :]), axis=0))
    harm[1:] *= 2.0
    return float(np.max(harm[7:]) / np.max(np.sum(harm[:7], axis=0)))


def test_d_harmonics_above_six_vanish_to_rounding():
    """On the battery, the screen robots and 60 draws, harmonics 7 and 8 of
    D's 16 samples per column are within 1e-13 of the coefficient sum."""
    robots = [*BATTERY.items(), *SCREEN_ROBOTS, *robot_draws(np.random.default_rng(1602), 60)]
    tails = {name: _harmonic_tail(p) for name, p in robots}
    assert max(tails.values()) <= 1e-13, max(tails.items(), key=lambda kv: kv[1])


def _assert_ps_equals_the_pointwise_reference(p, curves):
    ps = compute_pseudosingularities(curves)
    assert ps.d_positive.tobytes() == pointwise_d_positive(curves).tobytes()
    assert 0 <= ps.rechecked < curves.grid_n ** 2


@pytest.mark.parametrize("grid_n", [TEST_GRID, 720, 1440])
@pytest.mark.parametrize("name", sorted(BATTERY))
def test_series_ps_equals_the_pointwise_reference_on_the_battery(name, grid_n, analysis):
    """d_positive has the bytes of D's sign at every lattice point,
    parabola_conic (non-generic) included."""
    p = BATTERY[name]
    _assert_ps_equals_the_pointwise_reference(p, analysis.curves(p, grid_n))


@pytest.mark.parametrize("grid_n", [TEST_GRID, 720])
@pytest.mark.parametrize("label,p", SCREEN_ROBOTS, ids=[label for label, _ in SCREEN_ROBOTS])
def test_series_ps_equals_the_pointwise_reference_on_the_screen_robots(label, p, grid_n, analysis):
    """The same on the benchmark's screen robots.  Among them a3 = 2.0
    (non-generic) has D zero on its whole column at theta3 = pi and within
    1e-14 of the robot's scale on the columns next to it: a bound per column
    would trust the series' rounding there, the robot-wide one rechecks it."""
    _assert_ps_equals_the_pointwise_reference(p, analysis.curves(p, grid_n))


def test_series_ps_equals_the_pointwise_reference_on_random_draws():
    """The same on 201 draws, random, tilted from orthogonal and orthogonal."""
    for _, p in robot_draws(np.random.default_rng(2210), 201):
        _assert_ps_equals_the_pointwise_reference(p, trace_critical_points(p, TEST_GRID))


def test_the_report_counts_the_lattice_points_the_series_left_open():
    """discriminant_rechecked, in the report's timing block, is the count of
    lattice points whose D sign the pointwise formula decided: a few
    percent of the lattice, the same on every run."""
    rep = is_cuspidal(REFERENCE, grid_n=128)
    _, rechecked = topology._discriminant_lattice(REFERENCE, 128)
    assert rep.work["discriminant_rechecked"] == rep.maps.ps.rechecked == rechecked
    assert 0 < rechecked < 0.1 * 128 ** 2
    doc = report.build_report("reference", REFERENCE, {}, rep)
    assert doc["timing"]["discriminant_rechecked"] == rechecked
