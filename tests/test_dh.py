import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import (
    DhParams,
    JointConfig,
    Pose3,
    cross_section,
    det_jacobian,
    forward_kinematics,
    jacobian,
    singularity_scale,
    validate_params,
    wrap_angle,
)
from cuspidal.dh import TWO_PI, det_coefficients, det_jacobian_jet, wrap_float
from cuspidal.errors import DegenerateGeometryError, EliminationUnsupportedError

from conftest import REFERENCE, random_valid_params

angles = st.floats(-math.pi, math.pi, allow_nan=False)
lengths = st.floats(0.3, 2.5, allow_nan=False)
offsets = st.floats(-1.5, 1.5, allow_nan=False)
twists = st.floats(0.35, math.pi - 0.35, allow_nan=False)


@st.composite
def robots(draw):
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return DhParams(
        draw(offsets), draw(offsets), draw(offsets),
        draw(lengths), draw(lengths), draw(lengths),
        sign * draw(twists), draw(angles),
    )


def test_validate_accepts_reference():
    assert validate_params(REFERENCE) is REFERENCE


def test_validate_rejects_a3_zero():
    with pytest.raises(DegenerateGeometryError):
        validate_params(DhParams(0, 1, 0, 1, 2, 0.0, -1.5, 1.5))


def test_validate_rejects_alpha1_zero():
    with pytest.raises(EliminationUnsupportedError):
        validate_params(DhParams(0, 1, 0, 1, 2, 1.5, 0.0, 1.5))


def test_validate_rejects_a1_zero():
    with pytest.raises(EliminationUnsupportedError):
        validate_params(DhParams(0, 1, 0, 0.0, 2, 1.5, -1.5, 1.5))


def test_validate_rejects_nonfinite():
    with pytest.raises(ValueError):
        validate_params(DhParams(0, 1, float("nan"), 1, 2, 1.5, -1.5, 1.5))


def test_fk_collinear_links():
    p = DhParams(0, 0, 0, 1, 1, 1, 0, 0)
    pose = forward_kinematics(p, JointConfig(0, 0, 0))
    assert np.allclose(pose.as_array(), [3, 0, 0], atol=1e-14)


def test_fk_base_rotation():
    p = DhParams(0, 0, 0, 1, 1, 1, 0, 0)
    pose = forward_kinematics(p, JointConfig(math.pi / 2, 0, 0))
    assert np.allclose(pose.as_array(), [0, 3, 0], atol=1e-14)


def test_cross_section_values():
    assert cross_section(Pose3(3, 4, 1)).rho == pytest.approx(5)
    assert cross_section(Pose3(3, 4, 1)).z == 1
    cs = cross_section(Pose3(0, 0, 2))
    assert (cs.rho, cs.z) == (0, 2)
    assert cs.R == pytest.approx(4)


def test_joint_config_normalization():
    q = JointConfig(3 * math.pi, -math.pi, 7.0)
    for v in (q.theta1, q.theta2, q.theta3):
        assert -math.pi <= v < math.pi


def test_theta1_invariance_of_cross_section():
    q0 = JointConfig(0.3, -0.742, 2.628)
    base = cross_section(forward_kinematics(REFERENCE, q0))
    for delta in (0.5, 1.7, -2.9):
        q = JointConfig(q0.theta1 + delta, q0.theta2, q0.theta3)
        cs = cross_section(forward_kinematics(REFERENCE, q))
        assert cs.rho == pytest.approx(base.rho, abs=1e-12)
        assert cs.z == pytest.approx(base.z, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(robots(), angles, angles, angles)
def test_jacobian_first_column_is_base_moment(p, t1, t2, t3):
    q = JointConfig(t1, t2, t3)
    pose = forward_kinematics(p, q)
    col = jacobian(p, q)[:, 0]
    assert np.allclose(col, [-pose.y, pose.x, 0.0], atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(robots(), angles, angles, angles)
def test_jacobian_matches_finite_differences(p, t1, t2, t3):
    q = JointConfig(t1, t2, t3)
    jac = jacobian(p, q)
    h = 1e-6
    fd = np.zeros((3, 3))
    qa = q.as_array()
    for i in range(3):
        qp, qm = qa.copy(), qa.copy()
        qp[i] += h
        qm[i] -= h
        fd[:, i] = (forward_kinematics(p, JointConfig(*qp)).as_array()
                    - forward_kinematics(p, JointConfig(*qm)).as_array()) / (2 * h)
    ref = max(1.0, float(np.max(np.abs(jac))))
    assert np.max(np.abs(jac - fd)) / ref < 1e-6


@settings(max_examples=80, deadline=None)
@given(robots(), angles, angles, angles)
def test_det_jacobian_matches_numeric_determinant(p, t1, t2, t3):
    q = JointConfig(t1, t2, t3)
    closed = float(det_jacobian(p, q.theta2, q.theta3))
    numeric = float(np.linalg.det(jacobian(p, q)))
    assert closed == pytest.approx(numeric, rel=1e-9, abs=1e-9 * singularity_scale(p))


def test_det_jacobian_theta1_independent(rng):
    for _ in range(30):
        p = random_valid_params(rng)
        t1s = rng.uniform(-math.pi, math.pi, 3)
        t2, t3 = rng.uniform(-math.pi, math.pi, 2)
        dets = [np.linalg.det(jacobian(p, JointConfig(t1, t2, t3))) for t1 in t1s]
        assert np.ptp(dets) < 1e-9 * singularity_scale(p)
        assert dets[0] == pytest.approx(float(det_jacobian(p, t2, t3)),
                                        rel=1e-9, abs=1e-9 * singularity_scale(p))


def test_det_jacobian_vanishes_for_a3_zero():
    p = DhParams(0, 1, 0, 1, 2, 0.0, -1.5, 1.5)  # invalid, bypasses validation
    th = np.linspace(-math.pi, math.pi, 17)
    assert np.max(np.abs(det_jacobian(p, th[:, None], th[None, :]))) == 0.0


def test_wrap_angle_range():
    vals = wrap_angle(np.linspace(-10, 10, 101))
    assert np.all(vals >= -math.pi)
    assert np.all(vals < math.pi)


def test_wrap_keeps_angles_in_range_and_wraps_the_rest_by_the_remainder():
    """An angle in [-pi, pi) comes back bit for bit, signed zero, -pi and
    the last double below pi included; any other one is (a + pi) mod 2 pi -
    pi, as before.  The remainder alone moved 0.7254398651938152 by 2 ulps."""
    rng = np.random.default_rng(11)
    inside = np.concatenate([rng.uniform(-math.pi, math.pi, 100_000),
                             10.0 ** rng.uniform(-320.0, 0.0, 1000) * rng.choice([-1.0, 1.0], 1000),
                             [0.0, -0.0, -math.pi, math.nextafter(math.pi, 0.0),
                              0.7254398651938152]])
    outside = np.concatenate([rng.uniform(math.pi, 1e3, 10_000), rng.uniform(-1e3, -math.pi, 10_000),
                              [math.pi, math.nextafter(-math.pi, -math.inf), 1e300, -1e300]])
    assert wrap_angle(inside).tobytes() == inside.tobytes()
    assert [wrap_float(x) for x in inside.tolist()] == inside.tolist()
    assert all(math.copysign(1.0, wrap_float(x)) == math.copysign(1.0, x) for x in (0.0, -0.0))
    formula = (outside + math.pi) % TWO_PI - math.pi
    assert wrap_angle(outside).tobytes() == formula.tobytes()
    assert np.array([wrap_float(x) for x in outside.tolist()]).tobytes() == formula.tobytes()
    assert isinstance(wrap_angle(1.0), np.float64) and wrap_angle(np.ones((2, 3))).shape == (2, 3)


def test_wrap_float_equals_wrap_angle_bit_for_bit():
    """The NumPy-free scalar wrap gives the bits of wrap_angle, signed zeros
    included, over random magnitudes and the edge values of the remainder."""
    rng = np.random.default_rng(7)
    n = 250_000
    mags = 10.0 ** rng.uniform(-320.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
    vals = [rng.uniform(-10.0, 10.0, n), rng.uniform(-1e6, 1e6, n),
            rng.standard_normal(n) * math.pi, mags]
    edges = [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308,
             -2.2250738585072014e-308, 1e-310, -1e-310]
    for k in range(-64, 65):
        x = k * math.pi
        edges += [x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf),
                  k * 2.0 * math.pi]
    vals = np.concatenate(vals + [np.array(edges)])
    scalar = np.array([wrap_float(x) for x in vals.tolist()])
    assert scalar.view(np.int64).tolist() == wrap_angle(vals).view(np.int64).tolist()
    for x in edges:
        q = JointConfig(x, -x, x)
        assert (q.theta1, q.theta2) == (float(wrap_angle(x)), float(wrap_angle(-x)))
        assert math.copysign(1.0, q.theta1) == math.copysign(1.0, float(wrap_angle(x)))


def _fd4(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def test_det_jacobian_grad_matches_fourth_order_differences(rng):
    t2 = np.concatenate([rng.uniform(-math.pi, math.pi, 200), [-math.pi, 0.0, math.pi / 2]])
    t3 = np.concatenate([rng.uniform(-math.pi, math.pi, 200), [0.0, -math.pi, math.pi]])
    h = 1e-3
    for p in [REFERENCE] + [random_valid_params(rng) for _ in range(20)]:
        value, g2, g3 = det_jacobian_jet(p, t2, t3)
        assert value.tobytes() == det_jacobian(p, t2, t3).tobytes()
        fd2 = _fd4(lambda a: det_jacobian(p, a, t3), t2, h)
        fd3 = _fd4(lambda b: det_jacobian(p, t2, b), t3, h)
        tol = 1e-9 * singularity_scale(p)
        assert np.max(np.abs(g2 - fd2)) < tol
        assert np.max(np.abs(g3 - fd3)) < tol


@pytest.fixture(scope="module")
def symbolic_det():
    """det J of the symbolic D-H chain, expanded and reduced modulo
    c^2 + s^2 = 1 for each joint angle: (sympy, expression, symbols by name)."""
    sp = pytest.importorskip("sympy")
    c1, s1, c2, s2, c3, s3 = sp.symbols("c1 s1 c2 s2 c3 s3")
    ca1, sa1, ca2, sa2 = sp.symbols("ca1 sa1 ca2 sa2")
    d1, d2, d3, a1, a2, a3 = sp.symbols("d1 d2 d3 a1 a2 a3")

    def transform(c, s, d, a, ca, sa):
        return sp.Matrix([[c, -s * ca, s * sa, a * c], [s, c * ca, -c * sa, a * s],
                          [0, sa, ca, d], [0, 0, 0, 1]])

    T1 = transform(c1, s1, d1, a1, ca1, sa1)
    T2 = T1 * transform(c2, s2, d2, a2, ca2, sa2)
    T3 = T2 * transform(c3, s3, d3, a3, 1, 0)
    e = T3[:3, 3]
    J = sp.Matrix.hstack(sp.Matrix([0, 0, 1]).cross(e), T1[:3, 2].cross(e - T1[:3, 3]),
                         T2[:3, 2].cross(e - T2[:3, 3]))
    rels = [s1 ** 2 + c1 ** 2 - 1, s2 ** 2 + c2 ** 2 - 1, c3 ** 2 + s3 ** 2 - 1]
    _, det = sp.reduced(sp.expand(J.det(method="berkowitz")), rels,
                        s1, c1, s2, c2, c3, s3, order="lex")
    names = dict(c2=c2, s2=s2, c3=c3, s3=s3, ca1=ca1, sa1=sa1, ca2=ca2, sa2=sa2,
                 d1=d1, d2=d2, d3=d3, a1=a1, a2=a2, a3=a3)
    return sp, sp.expand(det), names


def _numeric_params(p: DhParams, names) -> dict:
    return {names["ca1"]: math.cos(p.alpha1), names["sa1"]: math.sin(p.alpha1),
            names["ca2"]: math.cos(p.alpha2), names["sa2"]: math.sin(p.alpha2),
            names["d1"]: p.d1, names["d2"]: p.d2, names["d3"]: p.d3,
            names["a1"]: p.a1, names["a2"]: p.a2, names["a3"]: p.a3}


def test_det_coefficients_match_the_symbolic_determinant(symbolic_det, rng):
    """The reduced det J has no theta1 and lies in span{c2, s2, 1} x
    span{1, c3, s3, c3 s3, s3^2}; its coefficients are det_coefficients."""
    sp, det, names = symbolic_det
    c2, s2, c3, s3 = names["c2"], names["s2"], names["c3"], names["s3"]
    assert not {str(v) for v in det.free_symbols} & {"c1", "s1", "d1"}
    poly = sp.Poly(det, c2, s2, c3, s3)
    rows = {(1, 0): 0, (0, 1): 1, (0, 0): 2}
    basis = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3, (0, 2): 4}
    terms = {}
    for (e2c, e2s, e3c, e3s), coef in poly.terms():
        assert (e2c, e2s) in rows and (e3c, e3s) in basis
        terms[rows[(e2c, e2s)], basis[(e3c, e3s)]] = coef
    for p in [REFERENCE] + [random_valid_params(rng) for _ in range(10)]:
        sub = _numeric_params(p, names)
        sym = np.zeros((3, 5))
        for (r, k), coef in terms.items():
            sym[r, k] = float(coef.subs(sub))
        ours = np.array(det_coefficients(p))
        assert np.max(np.abs(ours - sym)) <= 1e-14 * np.max(np.abs(sym))


def test_det_jacobian_grad_matches_the_symbolic_derivative(symbolic_det, rng):
    sp, det, names = symbolic_det
    c2, s2, c3, s3 = names["c2"], names["s2"], names["c3"], names["s3"]
    d_theta2 = -s2 * sp.diff(det, c2) + c2 * sp.diff(det, s2)
    d_theta3 = -s3 * sp.diff(det, c3) + c3 * sp.diff(det, s3)
    t2 = rng.uniform(-math.pi, math.pi, 50)
    t3 = rng.uniform(-math.pi, math.pi, 50)
    for p in [REFERENCE] + [random_valid_params(rng) for _ in range(5)]:
        sub = _numeric_params(p, names)
        ref = [sp.lambdify((c2, s2, c3, s3), d.subs(sub), "numpy") for d in (d_theta2, d_theta3)]
        g = det_jacobian_jet(p, t2, t3)[1:]
        tol = 1e-13 * singularity_scale(p)
        for ours, f in zip(g, ref):
            assert np.max(np.abs(ours - f(np.cos(t2), np.sin(t2), np.cos(t3), np.sin(t3)))) < tol
