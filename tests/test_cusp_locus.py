"""The cusp locus E(theta3): cusps seeded from its real roots and polished
on its branches, and quadruple roots at its four exact candidates, against
the traced-curve seeding and the 3-D Newton polish they replace
(tests/engine_refs), against exact algebra, and for the work and the grid
they need."""
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
    rational_robot,
    robot_draws,
)
from engine_refs import (
    circle_harmonics,
    circle_jet,
    locus_seed_targets,
    newton_find_cusps,
    newton_quadruple_root,
    speed_minimum_find_cusps,
)

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


def _assert_same_cusps(cusps, ref, scale, what):
    assert len(cusps) == len(ref), what
    for a, b in zip(cusps, ref):
        assert math.hypot(a.rho - b.rho, a.z - b.z) <= 1e-12 * scale, what
        gap = 2.0 * math.atan(a.t) - 2.0 * math.atan(b.t)
        assert abs(math.remainder(gap, 2.0 * math.pi)) <= 1e-12, what


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
        _assert_same_cusps(cusps, ref, length_scale(p), name)
        rep = genericity_check(p, EQUALITY_GRID, curves, wcurves, cusps)
        kinds = [e["kind"] for e in rep.evidence]
        quadruple = newton_quadruple_root(p, wcurves, ref)
        ref_kinds = [k for k in kinds if k not in ("quadruple_root", "vanishing_conic")]
        if quadruple is not None:
            ref_kinds.insert(0, quadruple["kind"])
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
        results.append((cusps, [e for e in rep.evidence
                                if e["kind"] in ("quadruple_root", "vanishing_conic")]))
    assert results[0] == results[1] == results[2]


def test_branch_polish_equals_the_newton_polish():
    """On the battery, the screen robots and 300 draws (random, tilted and
    orthogonal): the same cusps (count, (rho, z) within 1e-12 L and t within
    1e-12 rad on the circle) as the 3-D damped Newton on g = g' = g'' = 0
    from the same seeds."""
    robots = [*BATTERY.items(),
              *((label, p) for label, p, _ in perfbench_inputs().screen_robots(0)),
              *robot_draws(np.random.default_rng(424243), 300)]
    for name, p in robots:
        _assert_same_cusps(find_cusps(p, ()), newton_find_cusps(p, ()), length_scale(p), name)


@pytest.mark.parametrize("seed, draw", [(424242, 50), (7, 39), (7, 47), (7, 57)])
def test_close_cusp_pairs_stay_apart(seed, draw):
    """Four random robots (random_valid_params, 0-based draws) whose two
    cusps are 0.001 to 0.032 apart list both, as the Newton reference does:
    DEDUP_RADIUS keeps them apart, and no seed polishes onto its neighbour's
    root."""
    rng = np.random.default_rng(seed)
    for _ in range(draw):
        random_valid_params(rng)
    p = random_valid_params(rng)
    cusps = find_cusps(p, ())
    _assert_same_cusps(cusps, newton_find_cusps(p, ()), length_scale(p), (seed, draw))
    assert len(cusps) == 2
    gap = math.hypot(cusps[0].rho - cusps[1].rho, cusps[0].z - cusps[1].z)
    assert critical.DEDUP_RADIUS * length_scale(p) < gap < 1e-2 * length_scale(p)


def test_cusp_polish_work_is_bounded(monkeypatch):
    """One polish batch per robot, at most 5 evaluations of the branches
    (the seeds' and one per step; measured 2 to 4) on every battery and
    screen robot, the refused parabola_conic and a3 = 2.0 included: their
    seeds at quadruple roots (multiple roots of E) start at the rounding
    floor of f_sigma and stop when |f_sigma| stops falling."""
    batches, calls = [], [0]
    polish, branch = critical.polish_cusps, reduction._locus_branch

    def counted_polish(p, theta3, sigma):
        batches.append(len(theta3))
        return polish(p, theta3, sigma)

    def counted_branch(*args):
        calls[0] += 1
        return branch(*args)

    monkeypatch.setattr(critical, "polish_cusps", counted_polish)
    monkeypatch.setattr(reduction, "_locus_branch", counted_branch)
    robots = [*BATTERY.items(),
              *((label, p) for label, p, _ in perfbench_inputs().screen_robots(0))]
    assert {"parabola_conic", "sweep_a3=2.0"} <= {name for name, _ in robots}
    for name, p in robots:
        batches.clear()
        calls[0] = 0
        find_cusps(p, ())
        assert len(batches) <= 1, name
        assert calls[0] <= 5, (name, calls[0])


@pytest.mark.parametrize("name", ["orthogonal_cuspidal", "hyperbola_conic"])
def test_split_double_roots_of_e_polish_to_one_theta3(name):
    """On an orthogonal robot (s2 ~ 1e-16) E ~ s1^2 beta2^2 has double
    roots, which np.roots splits in two about 1e-8 apart: each cusp gets two
    seeds on each branch.  A double root of E is a simple root of f_sigma,
    so each such pair polishes to one theta3 within 1 ulp."""
    p = BATTERY[name]
    theta3, sigma = reduction.cusp_seeds(p)
    polished = reduction.polish_cusps(p, theta3, sigma)[0]
    assert len(theta3) == 8
    for branch in (1.0, -1.0):
        order = np.argsort(theta3[sigma == branch])
        seeds, ends = theta3[sigma == branch][order], polished[sigma == branch][order]
        assert len(seeds) == 4
        for i in (0, 2):
            assert 1e-10 < seeds[i + 1] - seeds[i] < 1e-6
            assert abs(ends[i + 1] - ends[i]) <= np.spacing(abs(ends[i]))


def test_seeds_have_no_nan_and_stay_on_the_locus():
    """Every seed is finite and, lifted unpolished to its target, satisfies
    g' = g'' = 0 to the bound its sign rule allows, and the quadruple
    candidates of a robot without a quadruple root are not certified."""
    rng = np.random.default_rng(5)
    for p in [*BATTERY.values(), *(random_valid_params(rng) for _ in range(10))]:
        theta3, R, zr = locus_seed_targets(p)
        assert np.all(np.isfinite(np.concatenate([theta3, R, zr])))
        jet = circle_jet(circle_harmonics(p, R, zr), theta3, 2)[:, 0]
        scale = np.max(np.abs(circle_harmonics(p, R, zr)[:, 0]), axis=1)
        assert np.all(np.abs(jet[:, 1:]) <= 1e-6 * scale[:, None])
    theta3, R, zr = reduction.quadruple_candidates(REFERENCE)
    assert len(theta3) == 8
    assert not np.any(critical._certify(REFERENCE, theta3, R, zr, 4)[1])


def test_robots_without_a_cusp_locus_have_no_seeds():
    """P = 0 (a2 = 0 with alpha2 = 0: h1 does not depend on the target) and h2
    = 0 (NONGENERIC_CURVE) give no cusp seeds; the h2 = 0 robot's quadruple
    candidates hold the target where g vanishes on the whole circle, whose
    conic is identically zero: _certify refuses it, and test (a) reports it
    as a vanishing conic."""
    assert len(reduction.cusp_seeds(DhParams(0, 1, 0, 1, 0.0, 1.5, -HALF_PI, 0.0))[0]) == 0
    assert len(reduction.quadruple_candidates(DhParams(0, 1, 0, 1, 0.0, 1.5, -HALF_PI, 0.0))[0]) == 0
    assert len(reduction.cusp_seeds(NONGENERIC_CURVE)[0]) == 0
    theta3, R, zr = reduction.quadruple_candidates(NONGENERIC_CURVE)
    assert not np.any(reduction.conic_raw(NONGENERIC_CURVE, R, zr))
    assert not np.any(critical._certify(NONGENERIC_CURVE, theta3, R, zr, 4)[1])
    curves = trace_critical_points(NONGENERIC_CURVE, 120)
    rep = genericity_check(NONGENERIC_CURVE, 120, curves, (), ())
    assert rep.evidence[0] == {"kind": "vanishing_conic", "rho": 2.0, "z": 0.0}


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


def test_nongeneric_curve_conic_vanishes_at_two_zero():
    """NONGENERIC_CURVE (a = 2, 2, 2, d = 0, alpha = -pi/2, pi/2) in exact
    arithmetic: at (rho, z) = (2, 0) its conic P^2 + Q^2 - F1^2 - F2^2, with
    P = (R - F3) / (2 a1) and Q = (z - F4) / sin(alpha1), is the zero
    polynomial in (c3, s3), so every theta3 solves there."""
    sp = pytest.importorskip("sympy")
    a1 = a2 = a3 = sp.Integer(2)
    ca1, sa1, ca2, sa2 = 0, -1, 0, 1
    c, s = sp.symbols("c s", real=True)
    qx, qy, qz = a3 * c + a2, ca2 * a3 * s, sa2 * a3 * s
    f1, f2, f4 = qx, -qy, ca1 * qz
    f3 = sp.expand(qx ** 2 + qy ** 2 + qz ** 2 + a1 ** 2).subs(s ** 2, 1 - c ** 2)
    rho, z = 2, 0
    conic = ((rho ** 2 + z ** 2 - f3) / (2 * a1)) ** 2 + ((z - f4) / sa1) ** 2 - f1 ** 2 - f2 ** 2
    assert sp.Poly(sp.expand(conic), c, s).is_zero


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


def test_exact_cusps_of_a_non_orthogonal_rational_robot():
    """The rational robot of the node oracle (d = (-3/2, 1, 1), a = (2, 1/2,
    9/4), cos alpha = 5/13 and -3/5) in exact arithmetic: det P != 0, so
    E = det(P)^2 (|P^-1 b|^2 - r2) and y = P^-1 b is the one lift of each
    theta3.  E times (1 + t^2)^6 is a polynomial of degree 12 in t = tan(theta3
    / 2) with rational coefficients; each of its real roots whose lift has
    rho^2 >= 0, evaluated to 50 digits, is one of find_cusps' 2 cusps to
    1e-12 L."""
    sp = pytest.importorskip("sympy")
    robot, k = rational_robot(sp)
    t = sp.symbols("t", real=True)
    c, s = (1 - t ** 2) / (1 + t ** 2), 2 * t / (1 + t ** 2)
    c1, c1_turned = sp.Matrix([c, s]), sp.Matrix([-s, c])
    c2, c2_turned = sp.Matrix([c * c - s * s, 2 * s * c]), sp.Matrix([-2 * s * c, c * c - s * s])
    h2 = sp.Matrix([(k.axx - k.ayy) / 2, k.axy])
    b = -2 * h2.dot(c2) * c1 - h2.dot(c2_turned) * c1_turned + k.uvw
    r2 = 3 * h2.dot(c2) - (k.axx + k.ayy) / 2 + k.w[0] ** 2 + k.w[1] ** 2
    assert k.P.det() != 0
    adj_b = k.P.adjugate() * b
    e_poly = sp.Poly(sp.numer(sp.together(adj_b.dot(adj_b) - k.P.det() ** 2 * r2)), t)
    assert e_poly.degree() == 12          # so theta3 = pi is no root
    lifted = []
    for root in e_poly.real_roots():
        tv = root.evalf(50)
        y = k.P.inv() * b.subs(t, tv)
        R, zr = sp.N(2 * k.a1 * y[0] + k.w[2], 50), sp.N(k.sa1 * y[1] + k.w[3], 50)
        if R - zr ** 2 >= 0:
            lifted.append((float(sp.sqrt(R - zr ** 2)), float(zr + k.d1)))
    cusps = find_cusps(robot, ())
    assert len(cusps) == len(lifted) == 2
    scale = length_scale(robot)
    for cusp in cusps:
        assert min(math.hypot(cusp.rho - r, cusp.z - z) for r, z in lifted) <= 1e-12 * scale
