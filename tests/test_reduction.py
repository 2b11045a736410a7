import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal import (
    CrossSectionPoint,
    DhParams,
    JointConfig,
    Pose3,
    Quartic,
    conic_classify,
    conic_coefficients,
    critical_values,
    cross_section,
    f_coefficients,
    forward_kinematics,
    length_scale,
    quartic_from_conic,
    singularity_scale,
    solve_ik,
    solve_ik_cross_section,
    solve_quartic,
    trace_critical_points,
    wrap_angle,
)
from cuspidal import critical, reduction
from cuspidal.critical import region_census
from cuspidal.dh import fk_arrays
from cuspidal.errors import ZeroPolynomialError
from cuspidal.reduction import (
    ConicCoeffs,
    conic_raw,
    ik_counts,
    quartic_discriminant,
    quartic_jet,
    solve_circle,
    solve_ik_batch,
)

from conftest import (
    BATTERY,
    ELLIPSE_ROBOT,
    HYPERBOLA_ROBOT,
    NODE_ROBOT,
    PARABOLA_ROBOT,
    REFERENCE,
    perfbench_inputs,
    random_valid_params,
    robot_draws,
)
import engine_refs


def _angle_gap(a, b):
    return abs(float(wrap_angle(a - b)))


# --------------------------------------------------------------------------
# F coefficients
# --------------------------------------------------------------------------

def test_f1_structure(rng):
    for _ in range(20):
        p = random_valid_params(rng)
        f = f_coefficients(p)
        assert f.u[0] == pytest.approx(p.a3)
        assert f.v[0] == 0.0
        assert f.w[0] == pytest.approx(p.a2)


def test_f4_constant_when_alpha2_flat(rng):
    for _ in range(10):
        p0 = random_valid_params(rng)
        p = DhParams(p0.d1, p0.d2, p0.d3, p0.a1, p0.a2, p0.a3, p0.alpha1, 0.0)
        f = f_coefficients(p)
        assert f.u[3] == 0.0
        assert f.v[3] == pytest.approx(0.0, abs=1e-15)


def test_f_identities_on_random_configs(rng):
    """R and z reconstruct from the F coefficients for 1000 random samples."""
    worst = 0.0
    for _ in range(1000):
        p = random_valid_params(rng)
        scale = singularity_scale(p)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        pose = forward_kinematics(p, q)
        cs = cross_section(pose)
        zr = cs.z - p.d1
        f = f_coefficients(p)
        f1, f2, f3, f4 = (f.value(i, q.theta3) for i in range(4))
        c2, s2 = math.cos(q.theta2), math.sin(q.theta2)
        r_pred = (f1 * c2 + f2 * s2) * 2 * p.a1 + f3
        z_pred = (f1 * s2 - f2 * c2) * math.sin(p.alpha1) + f4
        worst = max(worst,
                    abs(cs.rho ** 2 + zr * zr - r_pred) / scale,
                    abs(zr - z_pred) / scale)
    assert worst < 1e-9


# --------------------------------------------------------------------------
# conic
# --------------------------------------------------------------------------

def test_conic_residual_on_fk_targets(rng):
    worst = 0.0
    for _ in range(500):
        p = random_valid_params(rng)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        cs = cross_section(forward_kinematics(p, q))
        conic = conic_coefficients(p, cs)
        worst = max(worst, abs(conic.evaluate(math.cos(q.theta3), math.sin(q.theta3))))
    assert worst < 1e-9


def test_conic_quadratic_part_target_independent(rng):
    """The quadratic coefficients depend on the geometry only."""
    from cuspidal.reduction import conic_raw

    for _ in range(30):
        p = random_valid_params(rng)
        parts = []
        for _ in range(100):
            R = rng.uniform(0, 20)
            z = rng.uniform(-4, 4)
            parts.append(conic_raw(p, R, z)[:3])
        parts = np.array(parts)
        ref = parts[0]
        for row in parts[1:]:
            cos = float(np.dot(ref, row) / (np.linalg.norm(ref) * np.linalg.norm(row)))
            assert cos == pytest.approx(1.0, abs=1e-12)


def test_conic_taxonomy_trio():
    assert conic_classify(HYPERBOLA_ROBOT).kind == "Hyperbola"
    assert conic_classify(PARABOLA_ROBOT).kind == "Parabola"
    assert conic_classify(ELLIPSE_ROBOT).kind == "Ellipse"


def test_conic_kind_constant_across_workspace(rng):
    for p in (HYPERBOLA_ROBOT, PARABOLA_ROBOT, ELLIPSE_ROBOT, REFERENCE):
        kind = conic_classify(p).kind
        assert isinstance(kind, str)
        # the classification never consults the target point
        for _ in range(5):
            assert conic_classify(p).kind == kind


def test_hyperbola_case_has_four_intersections():
    sols = solve_ik_cross_section(HYPERBOLA_ROBOT, CrossSectionPoint(2.46, 0.15))
    assert sols.distinct() == 4


# --------------------------------------------------------------------------
# quartic
# --------------------------------------------------------------------------

def test_quartic_rejects_unit_circle():
    circle = ConicCoeffs(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)
    with pytest.raises(ZeroPolynomialError):
        quartic_from_conic(circle)


def test_quartic_leading_coeff_is_conic_at_minus_one(rng):
    for _ in range(50):
        p = random_valid_params(rng)
        cs = cross_section(forward_kinematics(p, JointConfig(*rng.uniform(-3, 3, 3))))
        conic = conic_coefficients(p, cs)
        m = quartic_from_conic(conic)
        assert m.a == pytest.approx(conic.evaluate(-1.0, 0.0), rel=1e-12, abs=1e-15)


def test_quartic_residual_on_fk_targets(rng):
    worst = 0.0
    for _ in range(500):
        p = random_valid_params(rng)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        if abs(math.cos(q.theta3 / 2)) < 1e-3:
            continue
        cs = cross_section(forward_kinematics(p, q))
        m = quartic_from_conic(conic_coefficients(p, cs))
        t = math.tan(q.theta3 / 2)
        worst = max(worst, abs(float(m.value(t))) / (1 + t * t) ** 2)
    assert worst < 1e-8


def test_separated_roots_lie_beyond_every_merge_radius():
    """solve_circle clusters no row whose roots are _SEPARATED apart, which
    holds only while no run of up to four roots merges that wide."""
    assert len(reduction._MERGE_RADIUS) == 4
    assert reduction._MERGE_RADIUS[1] == 2.0 * reduction.CLUSTER_RADIUS_T
    assert reduction._SEPARATED > max(reduction._MERGE_RADIUS)


def test_solve_quartic_distinct_roots():
    roots = solve_quartic(Quartic(1, -10, 35, -50, 24)).roots
    assert [m for _, m in roots] == [1, 1, 1, 1]
    assert sorted(t for t, _ in roots) == pytest.approx([1, 2, 3, 4], abs=1e-9)


def test_solve_quartic_double_root():
    roots = solve_quartic(Quartic(1, -2, 2, -2, 1)).roots  # (t-1)^2 (t^2+1)
    assert roots == ((pytest.approx(1.0, abs=1e-9), 2),)


def test_solve_quartic_triple_root_at_cusp(analysis):
    cusp = max(analysis.cusps(REFERENCE), key=lambda c: c.z)
    m = quartic_from_conic(conic_coefficients(REFERENCE, CrossSectionPoint(cusp.rho, cusp.z)))
    roots = solve_quartic(m)
    assert max(mult for _, mult in roots.roots) == 3


def test_solve_quartic_finds_theta3_pi(rng):
    """Targets reached with theta3 = pi have a root at theta3 = 2 atan(t) =
    pi to rounding (t some 1e13 or more in size), where M's degree drops."""
    hits = 0
    for _ in range(50):
        p = random_valid_params(rng)
        q = JointConfig(rng.uniform(-3, 3), rng.uniform(-3, 3), math.pi)
        cs = cross_section(forward_kinematics(p, q))
        m = quartic_from_conic(conic_coefficients(p, cs))
        roots = solve_quartic(m)
        if any(abs(abs(2.0 * math.atan(t)) - math.pi) < 1e-12 for t, _ in roots.roots):
            hits += 1
    assert hits == 50


def test_zero_polynomial_error():
    with pytest.raises(ZeroPolynomialError):
        solve_quartic(Quartic(0, 0, 0, 0, 0))


_ROOT = st.floats(-3.0, 3.0)
_LEAD = st.floats(0.2, 3.0).flatmap(lambda v: st.sampled_from([v, -v]))


def _squared_differences(roots) -> float:
    prod = 1.0 + 0.0j
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            prod *= (roots[i] - roots[j]) ** 2
    return prod.real


@given(_LEAD, st.lists(_ROOT, min_size=2, max_size=2), _ROOT, st.floats(0.0, 2.0))
def test_quartic_discriminant_is_product_of_root_differences(a, real, u, v):
    """disc = a^6 prod_{i<j} (r_i - r_j)^2, for real roots and a conjugate pair."""
    roots = [complex(r) for r in real] + [complex(u, v), complex(u, -v)]
    m = a * np.real(np.poly(roots))
    scale = float(np.max(np.abs(m))) ** 6
    expected = a ** 6 * _squared_differences(roots)
    assert abs(float(quartic_discriminant(m)) - expected) <= 1e-12 * scale


@given(_LEAD, st.lists(_ROOT, min_size=3, max_size=3))
def test_quartic_discriminant_continuous_through_degree_drop(b, roots):
    """As a -> 0 one root runs to t = inf (theta3 = pi); the binary-quartic
    discriminant tends to b^6 prod (r_i - r_j)^2 over the three finite roots."""
    cubic = b * np.poly(roots)
    scale = float(np.max(np.abs(cubic)))
    at_zero = float(quartic_discriminant(np.concatenate([[0.0], cubic])))
    assert abs(at_zero - b ** 6 * _squared_differences(roots)) <= 1e-12 * scale ** 6
    for eps in (1e-4, 1e-7, 1e-10):
        for sign in (1.0, -1.0):
            m = np.concatenate([[sign * eps * scale], cubic])
            gap = abs(float(quartic_discriminant(m)) - at_zero)
            assert gap <= 1e3 * eps * scale ** 6 + 1e-12 * scale ** 6


def test_quartic_discriminant_vectorized():
    stack = np.random.default_rng(5).normal(size=(5, 3, 4))
    out = quartic_discriminant(stack)
    assert out.shape == (3, 4)
    assert out[1, 2] == quartic_discriminant(stack[:, 1, 2])


def test_sympy_a_fold_row_deflates_to_a_quadratic():
    """A row whose turned harmonics satisfy the fold conditions h0 + h1x +
    h2x = 0 and h1y + 2 h2y = 0 (g = g' = 0 at psi = 0) has (1 + t^2)^2 g =
    t^2 (a t^2 + b t + c) exactly, with a, b and c the first three
    coefficients _half_angle_quartic gives: reduction._fold_lift's
    quadratic."""
    sp = pytest.importorskip("sympy")
    t, h1x, h2x, h2y = sp.symbols("t h1x h2x h2y")
    row = [-h1x - h2x, h1x, -2 * h2y, h2x, h2y]
    c, s = (1 - t ** 2) / (1 + t ** 2), 2 * t / (1 + t ** 2)
    g = row[0] + row[1] * c + row[2] * s + row[3] * (c * c - s * s) + row[4] * 2 * c * s
    a, b, cq = (sp.nsimplify(e) for e in
                reduction._half_angle_quartic(np.array([row], dtype=object))[:3])
    assert sp.cancel((1 + t ** 2) ** 2 * g - t ** 2 * (a[0] * t ** 2 + b[0] * t + cq[0])) == 0


def test_sympy_d_is_the_deflated_cubics_discriminant_times_a_square():
    """For M = (t - r) C, Disc M = Disc C C(r)^2 and M'(r) = C(r), so at a
    root t_q of M, D = disc(deflated cubic) M'(t_q)^2: D touches zero on S,
    where t_q is double and M'(t_q) = 0, and takes the cubic's sign on both
    sides, with no sign change.  The package's quartic_discriminant is that
    discriminant."""
    sp = pytest.importorskip("sympy")
    t, r, *c = sp.symbols("t r c0:4")
    cubic = c[3] * t ** 3 + c[2] * t ** 2 + c[1] * t + c[0]
    m = sp.expand((t - r) * cubic)
    assert sp.expand(sp.discriminant(m, t) - sp.discriminant(cubic, t) * cubic.subs(t, r) ** 2) == 0
    assert sp.expand(sp.diff(m, t).subs(t, r) - cubic.subs(t, r)) == 0
    at = dict(zip([r, *c], np.random.default_rng(8).uniform(-2.0, 2.0, 5).tolist()))
    coeffs = [float(e.subs(at)) for e in sp.Poly(m, t).all_coeffs()]
    exact = float(sp.discriminant(m, t).subs(at))
    assert abs(float(quartic_discriminant(np.array(coeffs))) - exact) <= 1e-12 * max(1.0, abs(exact))


# --------------------------------------------------------------------------
# inverse kinematics
# --------------------------------------------------------------------------

def test_round_trip_contains_original(rng):
    for _ in range(300):
        p = random_valid_params(rng)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        target = forward_kinematics(p, q)
        sols = solve_ik(p, target)
        best = min(
            (max(_angle_gap(s.config.theta1, q.theta1),
                 _angle_gap(s.config.theta2, q.theta2),
                 _angle_gap(s.config.theta3, q.theta3))
             for s in sols.solutions),
            default=math.inf)
        assert best < 1e-8


@pytest.mark.parametrize("q", [(1.6316193523099392, 1.2931474901593232, 1.910596469831762),
                               (0.35416314401972837, -1.3051438689355028, -1.9106186115608335)])
def test_round_trip_next_to_a_full_circle_of_s(q):
    """Configurations 3.7e-5 and 1.5e-5 rad from NODE_ROBOT's full S circle
    theta3 = +-arccos(-1/3), where the quartic's two roots lie ~2e-4 apart:
    the back-substituted angles missed them by 1.0e-8 and 3.6e-8 before
    the Newton step on the back-substitution equations."""
    q = JointConfig(*q)
    sols = solve_ik(NODE_ROBOT, forward_kinematics(NODE_ROBOT, q))
    best = min(max(_angle_gap(s.config.theta1, q.theta1), _angle_gap(s.config.theta2, q.theta2),
                   _angle_gap(s.config.theta3, q.theta3)) for s in sols.solutions)
    assert best <= 1e-8


def _poses_off_the_full_circle(delta, rng, n):
    """n NODE_ROBOT configurations delta rad off its full S circles theta3 =
    +-arccos(-1/3), on either side, at uniform theta1 and theta2."""
    r = math.acos(-1.0 / 3.0)
    out = []
    for _ in range(n):
        th1, th2 = rng.uniform(-math.pi, math.pi, 2)
        out.append(JointConfig(th1, th2, rng.choice([-1.0, 1.0]) * r
                               + rng.choice([-1.0, 1.0]) * delta))
    return out


@pytest.mark.parametrize("delta", [2e-6, 4e-6])
def test_round_trip_within_microradians_of_a_full_circle(delta):
    """Poses 2e-6 and 4e-6 rad from the circle need refinement steps up to
    ~1e-5 rad, above a fixed 1e-6 cap that refused them (105 and 25 misses
    of 200 here).  Below ~1e-6 rad the pose itself is too ill-conditioned:
    the circle maps to one point."""
    misses = []
    for q in _poses_off_the_full_circle(delta, np.random.default_rng(7), 200):
        sols = solve_ik(NODE_ROBOT, forward_kinematics(NODE_ROBOT, q))
        best = min(max(_angle_gap(s.config.theta1, q.theta1), _angle_gap(s.config.theta2, q.theta2),
                       _angle_gap(s.config.theta3, q.theta3)) for s in sols.solutions)
        if best > 1e-8:
            misses.append((q, best))
    assert misses == []


def test_refined_root_stays_nearest_to_its_own_start(monkeypatch):
    """Every refined root ends nearer (in the larger of its theta2 and
    theta3 circle gaps) to where it started than to where any other solved
    root of its target started, on poses whose steps reach 1e-5 rad and on
    random robots."""
    calls = []
    refine = reduction._refine

    def recorded(p, f, R, zr, theta2, theta3, mask, cap):
        out = refine(p, f, R, zr, theta2, theta3, mask, cap)
        calls.append((theta2.copy(), theta3.copy(), *out))
        return out
    monkeypatch.setattr(reduction, "_refine", recorded)
    rng = np.random.default_rng(11)
    cases = [(NODE_ROBOT, forward_kinematics(NODE_ROBOT, q))
             for delta in (1e-6, 2e-6, 4e-6)
             for q in _poses_off_the_full_circle(delta, rng, 40)]
    for _ in range(40):
        p = random_valid_params(rng)
        cases.append((p, forward_kinematics(p, JointConfig(*rng.uniform(-math.pi, math.pi, 3)))))
    moved = 0
    for p, pose in cases:
        reduction._last_cross_section = None
        solve_ik_batch(p, math.hypot(pose.x, pose.y), pose.z)
        t2, t3, n2, n3 = calls[-1]
        solved = reduction._last_cross_section[1].solved
        step = np.maximum(np.abs(wrap_angle(n2 - t2)), np.abs(wrap_angle(n3 - t3)))
        moved += int(np.sum(step > 1e-6))
        for k in np.flatnonzero(step > 0.0):
            other = solved & (np.arange(len(t2)) != k)
            gaps = np.maximum(np.abs(wrap_angle(n2[k] - t2[other])),
                              np.abs(wrap_angle(n3[k] - t3[other])))
            assert np.all(step[k] < gaps), (p, pose, k)
    assert moved > 0


def test_solutions_reproduce_target(rng):
    for _ in range(300):
        p = random_valid_params(rng)
        scale = singularity_scale(p)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        target = forward_kinematics(p, q)
        for s in solve_ik(p, target).solutions:
            pose = forward_kinematics(p, s.config)
            err = float(np.linalg.norm(pose.as_array() - target.as_array()))
            assert err < 1e-7 * scale


def test_regular_point_counts_are_even(rng):
    counts = set()
    for _ in range(300):
        p = random_valid_params(rng)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        sols = solve_ik(p, forward_kinematics(p, q))
        counts.add(sols.n)
    assert counts <= {2, 4}


def test_node_point_has_two_double_roots(analysis):
    node = max(analysis.nodes(NODE_ROBOT), key=lambda n: n.z)
    assert node.rho == pytest.approx(2.84, abs=0.05)
    assert node.z == pytest.approx(3.79, abs=0.05)
    sols = solve_ik_cross_section(NODE_ROBOT, CrossSectionPoint(node.rho, node.z))
    assert [s.multiplicity for s in sols.solutions] == [2, 2]
    assert sols.n == 4


def test_unreachable_target_empty():
    sols = solve_ik(REFERENCE, Pose3(50.0, 0.0, 0.0))
    assert sols.solutions == ()
    assert sols.n == 0


@pytest.mark.parametrize("far", [1e80, 1e160])
def test_far_targets_have_no_solution_and_count_zero(far):
    """Every reachable point has rho^2 + (z - d1)^2 <= L^2: a target
    beyond it gets no solution and count 0 without its conic, whose terms
    overflow (RuntimeWarning is an error here), and the targets beside it in
    a batch keep their bits; the one-target conic refuses to overflow."""
    p = REFERENCE
    assert solve_ik(p, Pose3(far, 0.0, 0.0)) == solve_ik(p, Pose3(0.0, 0.0, -far))
    assert solve_ik(p, Pose3(far, 0.0, 0.0)).solutions == ()
    assert ik_counts(p, [far, 2.0, 0.0], [0.0, 0.5, far]).tolist() == [0, 4, 0]
    near = solve_ik_batch(p, [2.0, 1.0], [0.5, 0.3])
    batch = solve_ik_batch(p, [2.0, far, 1.0], [0.5, 0.0, 0.3])
    assert batch.status.tolist() == [0, 0, 0]
    assert batch.row.tolist() == np.where(near.row == 0, 0, 2).tolist()
    for name in ("t", "mult", "theta", "solved"):
        assert getattr(batch, name).tobytes() == getattr(near, name).tobytes(), name
    with pytest.raises(ValueError, match=r"the conic at \(1e\+\d+, 0\.0\) is not finite"):
        conic_coefficients(p, CrossSectionPoint(far, 0.0))


def test_out_of_reach_is_beyond_the_length_scale():
    """A target just past L on a robot that reaches L (all offsets zero, so
    the links can stretch along one line) has no solution, and one just
    inside keeps its two solutions either side of the stretched pose."""
    p = DhParams(0, 0, 0, 1, 2, 1.5, -math.pi / 2, math.pi / 2)
    L = length_scale(p)
    assert solve_ik(p, Pose3(L * (1.0 + 1e-12), 0.0, 0.0)).solutions == ()
    assert ik_counts(p, L * (1.0 + 1e-12), 0.0).tolist() == [0]
    inside = solve_ik(p, Pose3(L * (1.0 - 1e-6), 0.0, 0.0))
    assert inside.n == 2 and ik_counts(p, L * (1.0 - 1e-6), 0.0).tolist() == [2]


@pytest.mark.parametrize("rho,z", [(math.inf, 0.0), (math.nan, 0.0), (1.0, -math.inf)])
def test_cross_section_points_must_be_finite(rho, z):
    with pytest.raises(ValueError, match=r"cross-section point \(.*\) must be finite"):
        CrossSectionPoint(rho, z)


def test_back_substitution_singular_flagged():
    # conic passes through its own singular point on the circle: F1 = F2 = 0
    p = DhParams(0, 0.3, math.sqrt(3), 1, 1, 2, math.pi / 2, math.pi / 4)
    f = f_coefficients(p)
    th3 = 2 * math.pi / 3
    assert f.value(0, th3) == pytest.approx(0, abs=1e-12)
    assert f.value(1, th3) == pytest.approx(0, abs=1e-12)
    rho = math.sqrt(f.value(2, th3) - f.value(3, th3) ** 2)
    sols = solve_ik(p, Pose3(rho, 0.0, f.value(3, th3)))
    assert sols.flagged, "degenerate root must be flagged, not dropped"
    t_flagged = sols.flagged[0][0]
    assert t_flagged == pytest.approx(math.tan(th3 / 2), abs=1e-6)


def test_solutions_sorted_by_theta3(rng):
    for _ in range(50):
        p = random_valid_params(rng)
        q = JointConfig(*rng.uniform(-math.pi, math.pi, 3))
        sols = solve_ik(p, forward_kinematics(p, q)).solutions
        th = [s.config.theta3 for s in sols]
        assert th == sorted(th)


def test_ik_counts_matches_solver(rng):
    rho = rng.uniform(0.1, 4.5, 200)
    z = rng.uniform(-4, 4, 200)
    # a random robot at its own reachable points (half of them) and in a box
    local = np.random.default_rng(11)
    p = random_valid_params(local)
    reach = [cross_section(forward_kinematics(p, JointConfig(*local.uniform(-math.pi, math.pi, 3))))
             for _ in range(100)]
    rho_r = np.concatenate([[c.rho for c in reach], local.uniform(0.0, 6.0, 100)])
    z_r = np.concatenate([[c.z for c in reach], local.uniform(-6.0, 6.0, 100)])
    for p, rho, z in ((REFERENCE, rho, z), (p, rho_r, z_r)):
        batch = ik_counts(p, rho, z)
        for k in range(200):
            sols = solve_ik_cross_section(p, CrossSectionPoint(float(rho[k]), float(z[k])))
            assert batch[k] == sols.distinct(), (p, k)


def _sturm_count(sp, row) -> int:
    """Distinct real roots of the quartic row (highest degree first, exact
    rationals of the floats), by the sign changes of its Sturm sequence at
    -inf and +inf."""
    t = sp.Symbol("t")
    seq = sp.sturm(sp.Poly([sp.Rational(c) for c in row], t))

    def changes(signs):
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)
    return (changes([int(sp.sign(g.LC())) * (-1) ** g.degree() for g in seq])
            - changes([int(sp.sign(g.LC())) for g in seq]))


def test_invariant_count_equals_a_sturm_count():
    """Exact oracle for the invariant count: on random rational quartics,
    every row _invariant_counts decides has the Sturm count of the row it
    reads (scaled to max-norm 1), and every row with an exact repeated root
    (Delta = 0) is left to the engine.  Degree drops (a root next to theta3
    = pi) are decided like any other row.  The rows include exact roots t = 0
    (e = 0), leads 2^-33 ... 2^-2 against e = +-1 (the 1/t chart), both
    ends small, exact double roots and degree drops."""
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(20240517)
    generic = rng.integers(-1024, 1025, (120, 5)) / 1024.0
    trailing = rng.integers(-1024, 1025, (30, 5)) / 1024.0
    trailing[:, 4] = 0.0
    swap = rng.integers(-1024, 1025, (40, 5)) / 1024.0
    swap[:, 0] = rng.choice([-1.0, 1.0], 40) * np.ldexp(1.0, -rng.integers(2, 34, 40))
    swap[:, 4] = rng.choice([-1.0, 1.0], 40)
    ends = rng.integers(-1024, 1025, (40, 5)) / 1024.0
    ends[:, [0, 4]] = rng.choice([-1.0, 1.0], (40, 2)) * np.ldexp(1.0, -rng.integers(4, 30, (40, 2)))
    roots = rng.integers(-12, 13, (40, 4)) / 4.0
    roots[:20, 1] = roots[:20, 0]                           # an exact double root
    doubles = np.array([np.poly(r) for r in roots])
    drops = rng.integers(-1024, 1025, (10, 5)) / 1024.0
    drops[:, 0] = rng.uniform(-1.0, 1.0, 10) * 1e-11
    rows = np.vstack([generic, trailing, swap, ends, doubles, drops])
    counts, undecided = reduction._invariant_counts(rows)
    q = rows / np.abs(rows).max(axis=1)[:, None]
    t = sp.Symbol("t")
    for k in range(len(rows)):
        exact_zero = sp.discriminant(sp.Poly([sp.Rational(c) for c in q[k]], t)) == 0
        if exact_zero:
            assert undecided[k], q[k]
        if not undecided[k]:
            assert counts[k] == _sturm_count(sp, q[k]), q[k]
    # the filter decides nearly every generic row and rows of every family
    # away from Delta = 0; the exact double roots all go to the engine, and
    # the degree drops, read in the 1/t chart, are all decided
    assert np.mean(undecided[:120]) < 0.05
    assert all(not undecided[lo:lo + 30].all() for lo in (120, 150, 190))
    assert undecided[230:250].all() and not undecided[-10:].any()


@settings(max_examples=25)
@given(st.integers(0, 2 ** 32 - 1))
def test_invariant_counts_equal_the_engine_off_the_band(seed):
    """On a random robot, ik_counts equals the root engine alone
    (engine_refs.ik_counts) at every target, and the invariant count equals
    the engine on every row it decides: reachable targets, targets 1e-12 to
    1e-2 off the traced critical values, and targets at and next to
    theta3 = pi, where the quartic's degree drops."""
    rng = np.random.default_rng(seed)
    p = random_valid_params(rng)
    values = np.vstack([np.empty((0, 2))]
                       + [w.vertices for w in critical_values(p, trace_critical_points(p, 96))])
    n = 300
    q = rng.uniform(-math.pi, math.pi, (n, 2))
    q[:100, 1] = math.pi + rng.choice([0.0, -1.0, 1.0], 100) * 10.0 ** rng.uniform(-14, -2, 100)
    x, y, z = fk_arrays(p, 0.0, q[:, 0], q[:, 1])
    rho = np.hypot(x, y)
    if len(values):
        near = values[rng.integers(len(values), size=n)]
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        off = 10.0 ** rng.uniform(-12, -2, n)
        rho = np.concatenate([rho, np.abs(near[:, 0] + off * np.cos(ang))])
        z = np.concatenate([z, near[:, 1] + off * np.sin(ang)])
    zr = z - p.d1
    cc, _ = reduction._conic_stack(p, rho * rho + zr * zr, zr)
    counts, undecided = reduction._invariant_counts(reduction.quartic_coeffs_from_conic(cc).T)
    engine = solve_circle(reduction._circle_rows(cc)).count
    assert np.array_equal(counts[~undecided], engine[~undecided])
    assert np.array_equal(ik_counts(p, rho, z), engine_refs.ik_counts(p, rho, z))
    assert not undecided[100:n].all()


def test_only_the_band_reaches_the_eigensolver(monkeypatch, analysis):
    """On a battery census the companion eigensolver sees only the rows the
    invariants leave undecided: the census boundary points, which lie on the
    critical values, and at most 1 % of the cells."""
    p = REFERENCE
    wcurves = analysis.wcurves(p)
    calls = []
    counts = reduction.ik_counts

    def recording_counts(p_, rho, z):
        calls.append((np.asarray(rho, float), np.asarray(z, float)))
        return counts(p_, rho, z)
    reached = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: reached.append(len(a)) or eigvals(a))
    monkeypatch.setattr(critical, "ik_counts", recording_counts)
    census = region_census(p, wcurves, census_n=128)
    undecided = []
    for rho, z in calls:
        zr = z - p.d1
        cc = reduction._conic_stack(p, rho * rho + zr * zr, zr)[0]
        undecided.append(reduction._invariant_counts(reduction.quartic_coeffs_from_conic(cc).T)[1])
    cells, boundary = undecided[0], np.concatenate(undecided[1:])
    assert len(cells) == 128 * 128 and census.boundary_samples
    assert boundary.all() and cells.sum() <= 0.01 * len(cells)
    assert 0 < sum(reached) <= cells.sum() + boundary.sum()


def _quartic_stack_cases(rng):
    """Random quartics mixed with the rows of special roots: theta3 = pi,
    theta3 = 0, near-multiple roots and the zero row."""
    rows = [rng.normal(size=5) for _ in range(4)]
    drop = rng.normal(size=5)
    drop[0] = rng.uniform(-1.0, 1.0) * 1e-11              # theta3 = pi is a root
    rows.append(drop)
    drop2 = rng.normal(size=5)
    drop2[:2] = rng.uniform(-1.0, 1.0, 2) * 1e-11         # a double root at theta3 = pi
    rows.append(drop2)
    trailing = rng.normal(size=5)
    trailing[4] = 0.0                                      # t = 0 is an exact root
    rows.append(trailing)
    r, s, u = rng.uniform(-2.0, 2.0, 3)
    for roots, noise in (([r, r + 1e-9, s, u], 1e-15),     # near-double root
                         ([r, r, r + 1e-7, s], 1e-14),     # near-triple root
                         ([r, r, s, s + 1e-8], 1e-15)):    # two near-double roots
        rows.append(np.poly(roots) * (1.0 + noise * rng.normal(size=5)))
    rows.append(np.zeros(5))
    return np.array(rows)[rng.permutation(len(rows))]


@given(st.integers(0, 2 ** 32 - 1))
def test_stacked_quartics_equal_rows_solved_alone(seed):
    """The engine solves a stack row by row: roots and multiplicities of
    every row are bit-identical to that row solved alone, and solve_quartic
    (one row) raises on the all-zero row."""
    stack = _quartic_stack_cases(np.random.default_rng(seed))
    batch = solve_circle(engine_refs.harmonics(stack))
    for k, m in enumerate(stack):
        alone = solve_circle(engine_refs.harmonics(m))
        assert batch.theta[k].tobytes() == alone.theta[0].tobytes()
        assert batch.mult[k].tolist() == alone.mult[0].tolist()
        if not m.any():
            assert batch.zero[k] and batch.count[k] == 0
            with pytest.raises(ZeroPolynomialError):
                solve_quartic(Quartic(*m))
        else:
            assert solve_quartic(Quartic(*m)).roots == batch.roots(k)


@given(st.integers(0, 2 ** 32 - 1))
def test_ik_batch_equals_targets_solved_alone(seed):
    """Per target, one IK batch gives what solve_ik gives alone: the same
    roots, multiplicities, joint angles and flagged roots, bit for bit."""
    rng = np.random.default_rng(seed)
    # F1 = F2 = 0 at theta3 = 2 pi / 3: the root there cannot be back-substituted
    p = DhParams(0, 0.3, math.sqrt(3), 1, 1, 2, math.pi / 2, math.pi / 4)
    f = f_coefficients(p)
    th3 = 2 * math.pi / 3
    targets = [(math.sqrt(f.value(2, th3) - f.value(3, th3) ** 2), f.value(3, th3)),
               (50.0, 0.0)]                              # unreachable
    for theta3 in rng.uniform(-math.pi, math.pi, 6).tolist() + [math.pi]:
        cs = cross_section(forward_kinematics(p, JointConfig(*rng.uniform(-3, 3, 2), theta3)))
        targets.append((cs.rho, cs.z))
    rho, z = np.array(targets).T
    order = rng.permutation(len(targets))
    batch = solve_ik_batch(p, rho[order], z[order])
    for k, i in enumerate(order):
        alone = solve_ik(p, Pose3(float(rho[i]), 0.0, float(z[i])))
        assert batch.solution_set(k) == alone
    assert any(batch.solution_set(k).flagged for k in range(len(targets)))


# --------------------------------------------------------------------------
# the conic on the theta3 circle
# --------------------------------------------------------------------------

def _conic_on_circle(cc, theta):
    """g, g' and g'' in theta of conic_raw's conic cc (6, K) at (cos, sin)(theta)."""
    axx, axy, ayy, bx, by, c = cc
    co, si = np.cos(theta), np.sin(theta)
    g = axx * co * co + 2 * axy * co * si + ayy * si * si + 2 * bx * co + 2 * by * si + c
    g1 = -2 * axx * co * si + 2 * axy * (co * co - si * si) + 2 * ayy * si * co - 2 * bx * si + 2 * by * co
    g2 = -2 * axx * (co * co - si * si) - 8 * axy * co * si + 2 * ayy * (co * co - si * si) \
        - 2 * bx * co - 2 * by * si
    return np.stack([g, g1, g2], axis=1)


@given(st.integers(0, 2 ** 32 - 1))
def test_circle_jet_reproduces_the_conic_on_the_circle_and_its_partials(seed):
    """g, g' and g'' from the harmonics of the Newton references
    (engine_refs.circle_harmonics and circle_jet) equal conic_raw's conic
    evaluated on the circle and differentiated by hand; their R and z partials equal
    central differences, which are exact up to rounding because the conic
    is quadratic in (R, z)."""
    rng = np.random.default_rng(seed)
    p = random_valid_params(rng)
    z = rng.uniform(-6.0, 6.0, 8)
    R = rng.uniform(0.0, 6.0, 8) ** 2 + z * z
    theta = rng.uniform(-math.pi, math.pi, 8)
    g, g_r, g_z = np.moveaxis(
        engine_refs.circle_jet(engine_refs.circle_harmonics(p, R, z), theta, 2), 1, 0)
    ref = _conic_on_circle(conic_raw(p, R, z), theta)
    scale = np.max(np.abs(conic_raw(p, R, z)), axis=0)[:, None]
    assert np.all(np.abs(g - ref) <= 1e-12 * scale)
    for partial, dR, dz in ((g_r, 1.0, 0.0), (g_z, 0.0, 1.0)):
        hi = _conic_on_circle(conic_raw(p, R + dR, z + dz), theta)
        lo = _conic_on_circle(conic_raw(p, R - dR, z - dz), theta)
        width = np.max(np.abs(np.concatenate([conic_raw(p, R + dR, z + dz),
                                              conic_raw(p, R - dR, z - dz)])), axis=0)[:, None]
        assert np.all(np.abs(partial - (hi - lo) / 2.0) <= 1e-12 * width)


def _degree_6_rows(rng, k):
    """k random rows of degree 6, their harmonics spread over 1e-3 to 1e3."""
    return rng.normal(size=(k, 13)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 13))


def test_harmonics_recover_a_degree_6_row_from_16_samples():
    """reduction._harmonics of 16 samples of a random degree-6 row, taken
    with np.cos and np.sin of k theta, gives the row back to within 16 eps
    times its _harmonic_bound (the worst of these rows reads about 5)."""
    rng = np.random.default_rng(616)
    rows = _degree_6_rows(rng, 200)
    kth = np.outer(2.0 * math.pi * np.arange(16) / 16, np.arange(1, 7))
    samples = rows[:, :1] + np.sum(rows[:, None, 1::2] * np.cos(kth)
                                   + rows[:, None, 2::2] * np.sin(kth), axis=2)
    got = reduction._harmonics(samples, 6)
    eps = float(np.finfo(float).eps)
    assert np.all(np.abs(got - rows) <= 16.0 * eps * reduction._harmonic_bound(rows)[:, None])


def test_circle_jet_at_degree_6_is_the_exact_derivative():
    """reduction._circle_jet of rows of degree 6 with dyadic rational
    harmonics equals, exactly, the harmonics of sympy's derivatives of
    every order 0 to 5."""
    sp = pytest.importorskip("sympy")
    rng = np.random.default_rng(66)
    rows = rng.integers(-64, 65, (6, 13)) / 8.0
    order = np.arange(6)
    jet = reduction._circle_jet(rows, order)
    th = sp.symbols("theta", real=True)
    for n, row in enumerate(rows):
        g = sp.Rational(row[0]) + sum(sp.Rational(row[2 * k - 1]) * sp.cos(k * th)
                                      + sp.Rational(row[2 * k]) * sp.sin(k * th)
                                      for k in range(1, 7))
        for slot in range(2):
            d = sp.expand(sp.diff(g, th, int(order[n]) + slot))
            want = [d.subs(th, 0) - sum(d.coeff(sp.cos(k * th)) for k in range(1, 7))]
            for k in range(1, 7):
                want += [d.coeff(sp.cos(k * th)), d.coeff(sp.sin(k * th))]
            assert jet[n, slot].tolist() == [float(w) for w in want], (n, slot)


def test_circle_values_at_degree_6_are_within_ulps_of_the_bound():
    """reduction._circle_values of random degree-6 rows at random angles in
    (-4 pi, 4 pi) lies within 8 eps times the row's _harmonic_bound of a
    50-digit mpmath evaluation (angle addition leaves about 2.4)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(6060)
    rows = _degree_6_rows(rng, 200)
    theta = rng.uniform(-4.0 * math.pi, 4.0 * math.pi, 200)
    got = reduction._circle_values(rows[:, None, :], theta)[:, 0]
    bound = reduction._harmonic_bound(rows)
    eps = float(np.finfo(float).eps)
    with mpmath.workdps(50):
        for row, t, value, b in zip(rows.tolist(), theta.tolist(), got.tolist(), bound.tolist()):
            t = mpmath.mpf(t)
            ref = row[0] + sum(row[2 * k - 1] * mpmath.cos(k * t) + row[2 * k] * mpmath.sin(k * t)
                               for k in range(1, 7))
            assert abs(value - ref) <= 8.0 * eps * b


@given(st.lists(st.floats(-5.0, 5.0), min_size=5, max_size=5), st.floats(-4.0, 4.0))
def test_quartic_jet_equals_polyval_of_polyder(coeffs, t):
    m = np.array(coeffs)
    jet = quartic_jet(m[None, :], np.array([t]), 4)[0]
    expected = [np.polyval(np.polyder(m, j) if j else m, t) for j in range(5)]
    assert np.array_equal(jet, expected)


# --------------------------------------------------------------------------
# the circle engine against the half-angle chart engine
# --------------------------------------------------------------------------

def _oracle_targets(p, rng, n):
    """(rho, z) of n FK targets, n / 4 FK targets at theta3 = pi and pi +-
    1e-9, n uniform targets in a box around them, and 2 n targets 1e-12 to
    1e-2 off the critical values traced at grid 96."""
    q = rng.uniform(-math.pi, math.pi, (n, 2))
    q[: n // 4, 1] = math.pi + rng.choice([0.0, -1e-9, 1e-9], n // 4)
    x, y, z = fk_arrays(p, 0.0, q[:, 0], q[:, 1])
    rho = np.hypot(x, y)
    rho = np.concatenate([rho, rng.uniform(0.0, rho.max() + 0.5, n)])
    z = np.concatenate([z, rng.uniform(z.min() - 0.5, z.max() + 0.5, n)])
    values = [w.vertices for w in critical_values(p, trace_critical_points(p, 96))]
    if values:
        near = np.vstack(values)[rng.integers(sum(map(len, values)), size=2 * n)]
        ang = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
        off = 10.0 ** rng.uniform(-12.0, -2.0, 2 * n)
        rho = np.concatenate([rho, np.abs(near[:, 0] + off * np.cos(ang))])
        z = np.concatenate([z, near[:, 1] + off * np.sin(ang)])
    return rho, z


def _chart_oracle(m):
    """engine_refs.solve_quartics on quartic rows m, except that a row whose
    leading coefficient the chart drops, and so puts a root near theta3 =
    pi at pi exactly, is solved in the 1/t chart, where that root lies near
    s = 0, and its roots mapped back by t = 1 / s."""
    ref = engine_refs.solve_quartics(m)
    norm = np.abs(m).max(axis=1)
    drop = np.abs(m[:, 0]) < engine_refs._DEGREE_DROP_TOL * norm
    flip = drop & (np.abs(m[:, 4]) >= engine_refs._DEGREE_DROP_TOL * norm)
    rev = engine_refs.solve_quartics(m[flip, ::-1])
    t, mult = ref.t.copy(), ref.mult.copy()
    with np.errstate(divide="ignore"):
        t[flip] = 1.0 / rev.t
    mult[flip] = rev.mult
    return engine_refs.ChartRoots(t, mult, ref.zero)


def _engine_and_oracle(h, m, chart=engine_refs.solve_quartics):
    """solve_circle on harmonic rows h and the chart engine (by default
    engine_refs.solve_quartics) on their quartics m: the two RootBatch-like
    results, `same`, which marks
    rows with equal distinct counts and multiplicities, `gap`, the largest
    circle distance from a root of the engine to the nearest root of the
    oracle, and `slack`, the largest forward-error bound 8 eps sum |h| / |g'|
    over the engine's roots, all per row."""
    got, ref = solve_circle(h), chart(m)
    same = got.count == ref.count
    same &= np.all(np.sort(got.mult, axis=1) == np.sort(ref.mult, axis=1), axis=1)
    d = np.abs(wrap_angle(got.theta[:, :, None] - ref.theta[:, None, :]))
    d = np.where((got.mult[:, :, None] > 0) & (ref.mult[:, None, :] > 0), d, np.inf)
    gap = np.max(np.where(got.mult > 0, np.min(d, axis=2), 0.0), axis=1)
    hn = h / reduction._quartic_norm(h)[:, None]
    k, s = np.nonzero(got.mult > 0)
    slope = reduction._circle_values(reduction._circle_jet(hn[k], np.zeros(len(k), dtype=int)),
                                     got.theta[k, s])[:, 1]
    slack = np.zeros(got.theta.shape)
    with np.errstate(divide="ignore"):
        slack[k, s] = 8.0 * np.finfo(float).eps * np.abs(hn[k]).sum(axis=1) / np.abs(slope)
    return got, ref, same, gap, slack.max(axis=1)


def test_circle_engine_equals_the_chart_engine_off_the_band():
    """On 60,000 rows of the battery, screen_robots(0) and 40 robot_draws
    (FK, theta3 = pi, uniform and near-critical targets), the circle engine
    has the distinct counts of the half-angle chart engine
    (engine_refs.solve_quartics) on every row the invariants decide, and
    each of its roots lies within 1e-12 rad of one of the chart's, or
    within 8 eps sum |h| / |g'| where that is larger (two roots ~1e-4
    apart).  Decided rows have Delta != 0, so every root there is simple:
    the circle engine says so on all of them, and the chart engine on all
    but one, an orthogonal draw's target with M's two leading coefficients
    ~1e-6, where a complex root pair near theta3 = pi (|t| ~ 2e3, imaginary
    angle just under 1e-3) passed the chart's travel bound, which grows
    like 1 + t^2, polished onto a real root and made it triple.  Every other
    row where the two engines differ in counts or multiplicities is one of
    the 18,643 the invariants leave undecided: 12 rows, all next to Delta
    = 0.  The 2,656 rows whose leading coefficient the chart drops (a root
    near theta3 = pi, which it would put at pi exactly; 2,495 of them
    decided) are read in the 1/t chart (_chart_oracle)."""
    robots = ([*BATTERY.values()] + [p for _, p, _ in perfbench_inputs().screen_robots(0)]
              + [p for _, p in robot_draws(np.random.default_rng(3), 40)])
    rng = np.random.default_rng(17)
    rows = differing = chart_multiple = 0
    for p in robots:
        rho, z = _oracle_targets(p, rng, 250)
        zr = z - p.d1
        cc, _ = reduction._conic_stack(p, rho * rho + zr * zr, zr)
        m = reduction.quartic_coeffs_from_conic(cc).T
        counts, undecided = reduction._invariant_counts(m)
        got, ref, same, gap, slack = _engine_and_oracle(reduction._circle_rows(cc), m,
                                                        _chart_oracle)
        decided = ~undecided
        assert np.array_equal(got.count[decided], counts[decided]), p
        assert np.all(got.mult[decided] <= 1), p
        assert np.array_equal(ref.count[decided], counts[decided]), p
        chart_multiple += int(np.sum(np.any(ref.mult[decided] > 1, axis=1)))
        assert np.all(gap[decided] <= np.maximum(1e-12, slack[decided])), p
        rows += len(m)
        differing += int(np.sum(~same & undecided))
    assert rows >= 50_000
    assert chart_multiple == 1
    assert differing < 0.005 * rows


def _pi_rows(rng, k, double):
    """k harmonic rows of dyadic rationals with a root at theta3 = pi
    exactly, g(pi) = h0 - h1x + h2x = 0, double where g'(pi) = 2 h2y - h1y
    = 0 too."""
    h = rng.integers(-512, 513, (k, 5)) / 256.0
    h[:, 0] = h[:, 1] - h[:, 3]
    if double:
        h[:, 2] = 2.0 * h[:, 4]
    return h


@pytest.mark.parametrize("double", [False, True])
def test_roots_at_theta3_pi_equal_the_chart_engine(double):
    """A simple and a double root at theta3 = pi exactly: in t, M's leading
    coefficient (and the next one for the double root) is exactly 0, the
    degree drop the chart engine answers with t = inf.  The circle engine
    finds them as any other root, with the chart engine's roots and
    multiplicities."""
    h = _pi_rows(np.random.default_rng(29 + double), 400, double)
    a, b, c, d, e = (h[:, 0] - h[:, 1] + h[:, 3], 2.0 * h[:, 2] - 4.0 * h[:, 4],
                     2.0 * h[:, 0] - 6.0 * h[:, 3], 2.0 * h[:, 2] + 4.0 * h[:, 4],
                     h[:, 0] + h[:, 1] + h[:, 3])
    m = np.column_stack([a, b, c, d, e])
    assert not a.any() and (not b.any()) == double
    _, ref, same, gap, slack = _engine_and_oracle(h, m)
    assert np.all(np.any((ref.mult == 1 + double) & np.isinf(ref.t), axis=1))
    assert same.all()
    assert np.all(gap <= np.maximum(1e-12, slack))


@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9])
def test_round_trip_at_theta3_pi(offset):
    """FK targets of theta3 = pi and pi +- 1e-9 on the battery and random
    robots: solve_ik returns the source configuration within 1e-8, and the
    engine's roots and multiplicities are the chart engine's."""
    rng = np.random.default_rng(31)
    robots = [*BATTERY.values()] + [random_valid_params(rng) for _ in range(12)]
    for p in robots:
        for _ in range(10):
            q = JointConfig(*rng.uniform(-math.pi, math.pi, 2), math.pi + offset)
            sols = solve_ik(p, forward_kinematics(p, q))
            best = min((max(_angle_gap(s.config.theta1, q.theta1),
                            _angle_gap(s.config.theta2, q.theta2),
                            _angle_gap(s.config.theta3, q.theta3)) for s in sols.solutions),
                       default=math.inf)
            assert best < 1e-8, (p, q)
            cs = cross_section(forward_kinematics(p, q))
            zr = np.array([cs.z - p.d1])
            cc, _ = reduction._conic_stack(p, cs.rho ** 2 + zr * zr, zr)
            same = _engine_and_oracle(reduction._circle_rows(cc),
                                      reduction.quartic_coeffs_from_conic(cc).T)[2]
            assert same.all(), (p, q)
