"""The cusp locus E(theta3): cusps seeded from its real roots and quadruple
roots at its four exact candidates, against the traced-curve seeding they
replace (tests/engine_refs), against exact algebra, and for the work and the
grid they need."""
import math

import numpy as np
import pytest

from cuspidal import (
    DhParams,
    critical_values,
    find_cusps,
    genericity_check,
    trace_critical_points,
)
from cuspidal import critical, reduction
from cuspidal.dh import length_scale

from conftest import (
    BATTERY,
    BINARY_ROBOT,
    NONGENERIC_CURVE,
    NONGENERIC_QUAD,
    PARABOLA_ROBOT,
    REFERENCE,
    perfbench_inputs,
    random_valid_params,
)
from engine_refs import newton_quadruple_root, speed_minimum_find_cusps

HALF_PI = math.pi / 2
EQUALITY_GRID = 360


def _special_robots():
    """Robots where P = [[pu, qu], [pv, qv]] is singular or nearly so: a2 = 0,
    alpha2 in {0, pi} (both make P rank one), and orthogonal robots tilted by
    1e-3, 1e-6 and 1e-9, where s2 / s1 is about that small."""
    out = []
    for alpha2 in (0.0, math.pi, HALF_PI, -HALF_PI):
        out.append((f"a2 = 0, alpha2 = {alpha2:.3f}", DhParams(0, 1, 0, 1, 0.0, 1.5, -HALF_PI, alpha2)))
        out.append((f"a2 = 0 skew, alpha2 = {alpha2:.3f}",
                    DhParams(0.3, 0.7, -0.4, 1.2, 0.0, 1.1, 0.9, alpha2)))
    for alpha2 in (0.0, math.pi):
        out.append((f"alpha2 = {alpha2:.3f}", DhParams(0, 1, 0, 1, 2, 1.5, -HALF_PI, alpha2)))
        out.append((f"alpha2 = {alpha2:.3f} skew", DhParams(0.2, 0.5, 0.3, 1.1, 1.7, 0.9, 1.2, alpha2)))
    for tilt in (1e-3, 1e-6, 1e-9):
        out.append((f"tilt {tilt:g}", DhParams(0, 1, 0, 1, 2, 1.5, -HALF_PI + tilt, HALF_PI)))
    return out


def _equality_robots():
    rng = np.random.default_rng(20260119)
    return [*BATTERY.items(),
            *((label, p) for label, p, _ in perfbench_inputs().screen_robots(0)),
            ("quad", NONGENERIC_QUAD), ("curve", NONGENERIC_CURVE), ("binary", BINARY_ROBOT),
            *_special_robots(),
            *((f"random {k}", random_valid_params(rng)) for k in range(40))]


def test_cusp_locus_equals_the_traced_curve_seeding():
    """On the battery, the screen robots, the non-generic and binary robots,
    the robots with a singular P and 40 random draws, at grid 360: the same
    cusps (count, (rho, z) within 1e-12 L and t within 1e-12 rad on the
    circle) as Newton from the image-speed minima, and the same
    quadruple-root and genericity decisions and evidence kinds as Newton
    from the cusps and the curves' extreme vertices."""
    for name, p in _equality_robots():
        curves = trace_critical_points(p, EQUALITY_GRID)
        wcurves = critical_values(p, curves)
        cusps, ref = find_cusps(p, wcurves), speed_minimum_find_cusps(p, wcurves)
        scale = length_scale(p)
        assert len(cusps) == len(ref), name
        for a, b in zip(cusps, ref):
            assert math.hypot(a.rho - b.rho, a.z - b.z) <= 1e-12 * scale, name
            gap = 2.0 * math.atan(a.t) - 2.0 * math.atan(b.t)
            assert abs(math.remainder(gap, 2.0 * math.pi)) <= 1e-12, name
        rep = genericity_check(p, EQUALITY_GRID, curves, wcurves, cusps)
        kinds = [e["kind"] for e in rep.evidence]
        quadruple = newton_quadruple_root(p, wcurves, ref)
        ref_kinds = [k for k in kinds if k != "quadruple_root"]
        if quadruple is not None:
            ref_kinds.insert(0, "quadruple_root")
        assert kinds == ref_kinds, name
        assert rep.is_generic == (not ref_kinds), name


@pytest.mark.parametrize("p", [REFERENCE, PARABOLA_ROBOT, NONGENERIC_QUAD, NONGENERIC_CURVE,
                               BATTERY["nonortho_cuspidal"]], ids=lambda p: repr(p))
def test_cusps_and_quadruple_roots_do_not_depend_on_the_grid(p):
    """find_cusps and test (a) give bit-identical results from curves traced
    at grids 120, 240 and 720."""
    results = []
    for grid_n in (120, 240, 720):
        curves = trace_critical_points(p, grid_n)
        wcurves = critical_values(p, curves)
        cusps = find_cusps(p, wcurves)
        rep = genericity_check(p, grid_n, curves, wcurves, cusps)
        results.append((cusps, [e for e in rep.evidence if e["kind"] == "quadruple_root"]))
    assert results[0] == results[1] == results[2]


def test_cusp_polish_work_is_bounded(monkeypatch):
    """One Newton batch polishes the cusp seeds: at most 13 fun_jac calls on
    every battery and screen robot that genericity accepts.  The refused
    parabola_conic and a3 = 2.0 keep the batch's general bound: their
    quadruple roots are multiple roots of E, where the cusp system is
    singular and each step still shaves rounding off ||F||."""
    counts = []
    newton = critical._damped_newton

    def counted(fun_jac, x0):
        calls = [0]

        def counted_fun_jac(x, rows):
            calls[0] += 1
            return fun_jac(x, rows)
        out = newton(counted_fun_jac, x0)
        counts.append(calls[0])
        return out

    monkeypatch.setattr(critical, "_damped_newton", counted)
    robots = [*BATTERY.items(),
              *((label, p) for label, p, _ in perfbench_inputs().screen_robots(0))]
    for name, p in robots:
        counts.clear()
        find_cusps(p, ())
        assert len(counts) <= 1, name
        bound = 13 if name not in ("parabola_conic", "sweep_a3=2.0") \
            else 1 + 2 * critical._NEWTON_MAX_ITER
        assert sum(counts) <= bound, (name, counts)


def test_seeds_have_no_nan_and_stay_on_the_locus():
    """Every seed is finite and satisfies g' = g'' = 0 to the bound its sign
    rule allows, and the quadruple candidates of a robot without a quadruple
    root are not certified."""
    rng = np.random.default_rng(5)
    for p in [*BATTERY.values(), *(random_valid_params(rng) for _ in range(10))]:
        theta3, R, zr = reduction.cusp_seeds(p)
        assert np.all(np.isfinite(np.concatenate([theta3, R, zr])))
        jet = reduction.circle_jet(reduction.circle_harmonics(p, R, zr), theta3, 2)[:, 0]
        scale = np.max(np.abs(reduction.circle_harmonics(p, R, zr)[:, 0]), axis=1)
        assert np.all(np.abs(jet[:, 1:]) <= 1e-6 * scale[:, None])
    theta3, R, zr = reduction.quadruple_candidates(REFERENCE)
    assert len(theta3) == 8
    assert not np.any(critical._certify(REFERENCE, theta3, R, zr, 4)[1])


def test_robots_without_a_cusp_locus_have_no_seeds():
    """P = 0 (a2 = 0 with alpha2 = 0: h1 does not depend on the target) and h2
    = 0 (NONGENERIC_CURVE) give no cusp seeds; the h2 = 0 robot's quadruple
    candidates hold the target where g vanishes on the whole circle."""
    assert len(reduction.cusp_seeds(DhParams(0, 1, 0, 1, 0.0, 1.5, -HALF_PI, 0.0))[0]) == 0
    assert len(reduction.quadruple_candidates(DhParams(0, 1, 0, 1, 0.0, 1.5, -HALF_PI, 0.0))[0]) == 0
    assert len(reduction.cusp_seeds(NONGENERIC_CURVE)[0]) == 0
    theta3, R, zr = reduction.quadruple_candidates(NONGENERIC_CURVE)
    assert np.any(critical._certify(NONGENERIC_CURVE, theta3, R, zr, 4)[1])


# --------------------------------------------------------------------------
# exact algebra
# --------------------------------------------------------------------------

def _circle_g(sp, th, h0, h1, h2):
    c1 = sp.Matrix([sp.cos(th), sp.sin(th)])
    c2 = sp.Matrix([sp.cos(2 * th), sp.sin(2 * th)])
    return h0 + h1.dot(c1) + h2.dot(c2), c1, c2


def test_circle_derivative_identities():
    """g + g'' = h0 - 3 h2 . c2 and g''' = -g' - 6 h2 . c2+ for every g = h0 +
    h1 . c1 + h2 . c2."""
    sp = pytest.importorskip("sympy")
    th, h0, a1, b1, a2, b2 = sp.symbols("theta h0 a1 b1 a2 b2", real=True)
    h2 = sp.Matrix([a2, b2])
    g, c1, c2 = _circle_g(sp, th, h0, sp.Matrix([a1, b1]), h2)
    c2_turned = sp.Matrix([-sp.sin(2 * th), sp.cos(2 * th)])
    d = [sp.diff(g, th, k) for k in range(4)]
    assert sp.simplify(d[0] + d[2] - (h0 - 3 * h2.dot(c2))) == 0
    assert sp.simplify(d[3] + d[1] + 6 * h2.dot(c2_turned)) == 0


def test_cusp_locus_elimination():
    """On the _conic_terms symbols (qu = 0), with y = (pw, qw):
    h1 - H = -g'' c1 + g' c1+, H' = -6 (h2 . c2+) c1, |y|^2 - r2 = g + g'',
    and E = |adj(P) b|^2 - det(P)^2 r2 lies in the ideal of (g, g', g''), so
    E vanishes at every triple root."""
    sp = pytest.importorskip("sympy")
    th, pu, pv, qv, pw, qw = sp.symbols("theta pu pv qv pw qw", real=True)
    uw, vw, ww, axx, axy, ayy = sp.symbols("UW VW WW Axx Axy Ayy", real=True)
    P = sp.Matrix([[pu, 0], [pv, qv]])
    y = sp.Matrix([pw, qw])
    uvw = sp.Matrix([uw, vw])
    # circle_harmonics: h0 = (Axx + Ayy) / 2 + C, h1 = 2 (Bx, By), h2
    h0 = (axx + ayy) / 2 + pw ** 2 + qw ** 2 - ww
    h1 = 2 * (P * y - uvw)
    h2 = sp.Matrix([(axx - ayy) / 2, axy])
    g, c1, c2 = _circle_g(sp, th, h0, h1, h2)
    c1_turned = sp.Matrix([-sp.sin(th), sp.cos(th)])
    c2_turned = sp.Matrix([-sp.sin(2 * th), sp.cos(2 * th)])
    g1, g2 = sp.diff(g, th), sp.diff(g, th, 2)
    H = -4 * h2.dot(c2) * c1 - 2 * h2.dot(c2_turned) * c1_turned
    assert sp.simplify(h1 - H - (-g2 * c1 + g1 * c1_turned)) == sp.zeros(2, 1)
    # the locus's tangent, which cusp_seeds' first-order bounds read
    assert sp.simplify(sp.diff(H, th) + 6 * h2.dot(c2_turned) * c1) == sp.zeros(2, 1)
    r2 = 3 * h2.dot(c2) - (axx + ayy) / 2 + ww
    assert sp.simplify(y.dot(y) - r2 - (g + g2)) == 0
    b = H / 2 + uvw
    E = (P.adjugate() * b).dot(P.adjugate() * b) - P.det() ** 2 * r2
    # b = P y - d and r2 = |y|^2 - e with d = (-g'' c1 + g' c1+) / 2, e = g + g''
    d = (-g2 * c1 + g1 * c1_turned) / 2
    e = g + g2
    in_ideal = (-2 * P.det() * y.dot(P.adjugate() * d)
                + (P.adjugate() * d).dot(P.adjugate() * d) + P.det() ** 2 * e)
    u = sp.symbols("u", real=True)
    half_angle = {sp.sin(th): 2 * u / (1 + u ** 2), sp.cos(th): (1 - u ** 2) / (1 + u ** 2)}
    assert sp.cancel(sp.expand_trig(E - in_ideal).subs(half_angle)) == 0


def test_exact_cusps_of_the_reference_robot():
    """REFERENCE (a = 1, 2, 3/2, d2 = 1, alpha = -pi/2, pi/2) in exact
    arithmetic: qv = 0, so E = s1^2 beta2^2 and the cusps sit at the real
    roots of beta2, a polynomial in t = tan(theta3 / 2).  Each root, lifted
    with pw from P y = b and qw = +/- sqrt(r2 - pw^2), gives one of
    find_cusps' 4 cusps to 1e-12 L."""
    sp = pytest.importorskip("sympy")
    a1, a2, a3, d2 = sp.Integer(1), sp.Integer(2), sp.Rational(3, 2), sp.Integer(1)
    ca1, sa1, ca2, sa2 = 0, -1, 0, 1
    # f_coefficients with d1 = d3 = 0
    qx, qy, qz = (a3, 0, a2), (0, ca2 * a3, 0), (0, sa2 * a3, d2)
    f3 = (2 * sum(f[0] * f[2] for f in (qx, qy, qz)), 2 * sum(f[1] * f[2] for f in (qx, qy, qz)),
          sum(f[2] ** 2 for f in (qx, qy, qz)) + sum(f[0] ** 2 for f in (qx, qy, qz)) + a1 ** 2)
    u = (qx[0], -qy[0], f3[0], ca1 * qz[0])
    v = (qx[1], -qy[1], f3[1], ca1 * qz[1])
    w = (qx[2], -qy[2], f3[2], ca1 * qz[2])
    pu, pv, qu, qv = -u[2] / (2 * a1), -v[2] / (2 * a1), -u[3] / sa1, -v[3] / sa1
    assert qu == 0 and qv == 0
    axx = pu ** 2 + qu ** 2 - u[0] ** 2 - u[1] ** 2
    axy = pu * pv + qu * qv - u[0] * v[0] - u[1] * v[1]
    ayy = pv ** 2 + qv ** 2 - v[0] ** 2 - v[1] ** 2
    uvw = sp.Matrix([u[0] * w[0] + u[1] * w[1], v[0] * w[0] + v[1] * w[1]])
    ww = w[0] ** 2 + w[1] ** 2
    t = sp.symbols("t", real=True)
    c, s = (1 - t ** 2) / (1 + t ** 2), 2 * t / (1 + t ** 2)
    c1, c1_turned = sp.Matrix([c, s]), sp.Matrix([-s, c])
    c2, c2_turned = sp.Matrix([c * c - s * s, 2 * s * c]), sp.Matrix([-2 * s * c, c * c - s * s])
    h2 = sp.Matrix([(axx - ayy) / 2, axy])
    b = -2 * h2.dot(c2) * c1 - h2.dot(c2_turned) * c1_turned + uvw
    r2 = 3 * h2.dot(c2) - (axx + ayy) / 2 + ww
    # P = [[pu, 0], [pv, 0]]: P y = b needs b in the span of (pu, pv)
    beta2 = sp.together(pv * b[0] - pu * b[1])
    roots = sp.Poly(sp.numer(beta2), t).real_roots()
    lifted = []
    for root in roots:
        tv = root.evalf(40)
        bv = [sp.N(b[i].subs(t, tv), 40) for i in range(2)]
        pw = (pu * bv[0] + pv * bv[1]) / (pu ** 2 + pv ** 2)
        m2 = sp.N(r2.subs(t, tv), 40) - pw ** 2
        if m2 < 0:
            continue
        for sign in (1, -1):
            qw = sign * sp.sqrt(m2)
            R, zr = 2 * a1 * pw + w[2], sa1 * qw + w[3]
            if R - zr ** 2 >= 0:
                lifted.append((float(sp.sqrt(R - zr ** 2)), float(zr)))
    cusps = find_cusps(REFERENCE, ())
    assert len(cusps) == 4 and len(lifted) == 4
    scale = length_scale(REFERENCE)
    for c in cusps:
        assert min(math.hypot(c.rho - r, c.z - z) for r, z in lifted) <= 1e-12 * scale
