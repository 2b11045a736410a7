"""Pieper reduction: F coefficients, the c3s3-plane conic, and the quartic IK.

The end-effector constraint R = rho^2 + z^2, z splits into two equations that
are linear in (cos theta2, sin theta2) with coefficients F1..F4 affine in
(cos theta3, sin theta3).  Eliminating theta2 yields a conic in the
c3s3-plane whose intersections with the unit circle are the IK solutions.
Restricted to the circle the conic is a trigonometric polynomial of degree
2 in theta3, g, whose real roots the IK engine (solve_circle) finds and
whose triple roots lie on the cusp locus; the tangent half-angle
substitution turns it into the quartic M(t), whose invariants count the
roots of most census rows and certify cusps and nodes.
"""
from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .dh import (
    TWO_PI,
    CrossSectionPoint,
    DhParams,
    JointConfig,
    Pose3,
    fk_arm,
    fk_arrays,
    length_scale,
    wrap_angle,
    wrap_float,
)
from .errors import (
    DegenerateConicError,
    EliminationUnsupportedError,
    ZeroPolynomialError,
)

_PARABOLA_BAND = 1e-9
_EPS = float(np.finfo(float).eps)


# --------------------------------------------------------------------------
# F coefficients
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FCoefficients:
    """Affine forms F_i = u_i cos(theta3) + v_i sin(theta3) + w_i, i = 1..4."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def value(self, i: int, theta3: float) -> float:
        return float(self.u[i] * math.cos(theta3) + self.v[i] * math.sin(theta3) + self.w[i])


def _sum_of_squares_reduced(forms) -> np.ndarray:
    """Reduce sum of squared affine forms modulo c^2 + s^2 = 1 to affine form.

    Requires the c^2 and s^2 coefficients to agree and the cross term to
    vanish, which holds structurally for the frame-2 position components.
    """
    u = np.array([f[0] for f in forms])
    v = np.array([f[1] for f in forms])
    w = np.array([f[2] for f in forms])
    cc = float(np.sum(u * u))
    ss = float(np.sum(v * v))
    cs = float(np.sum(u * v))
    norm = max(cc, ss, 1e-30)
    if abs(cc - ss) > 1e-9 * norm or abs(cs) > 1e-9 * norm:
        raise EliminationUnsupportedError("quadratic terms do not cancel in F3")
    return np.array([2.0 * np.sum(u * w), 2.0 * np.sum(v * w), float(np.sum(w * w)) + cc])


_MEMO_SIZE = 64


def _robot_key(p: DhParams) -> bytes:
    """The eight parameters' IEEE bits.  DhParams equality makes -0.0 ==
    0.0, and signed zeros reach atan2, so robots are told apart by these."""
    return struct.pack("<8d", p.d1, p.d2, p.d3, p.a1, p.a2, p.a3, p.alpha1, p.alpha2)


def _per_robot(build):
    """Memoise build(p) on the parameters' exact bits (_robot_key).  The
    oldest entry goes once _MEMO_SIZE robots are held."""
    memo = {}

    @functools.wraps(build)
    def get(p: DhParams):
        key = _robot_key(p)
        value = memo.get(key)
        if value is None:
            if len(memo) >= _MEMO_SIZE:
                del memo[next(iter(memo))]
            value = memo[key] = build(p)
        return value
    return get


@_per_robot
def f_coefficients(p: DhParams) -> FCoefficients:
    """Derive F1..F4 from the frame-2 position of the end effector.

    With (qx, qy, qz) the end-effector position in frame 2 (through T3 and
    the d2/a2/alpha2 offsets), F1 = qx, F2 = -qy, F4 = cos(alpha1) qz and
    F3 = qx^2 + qy^2 + qz^2 + a1^2 reduced modulo c3^2 + s3^2 = 1.  One
    robot's coefficients are computed once and shared read-only.
    """
    ca1 = math.cos(p.alpha1)
    ca2, sa2 = math.cos(p.alpha2), math.sin(p.alpha2)
    qx = (p.a3, 0.0, p.a2)
    qy = (0.0, ca2 * p.a3, -sa2 * p.d3)
    qz = (0.0, sa2 * p.a3, p.d2 + ca2 * p.d3)
    f3 = _sum_of_squares_reduced([qx, qy, qz])
    f3[2] += p.a1 * p.a1
    u = np.array([qx[0], -qy[0], f3[0], ca1 * qz[0]])
    v = np.array([qx[1], -qy[1], f3[1], ca1 * qz[1]])
    w = np.array([qx[2], -qy[2], f3[2], ca1 * qz[2]])
    for a in (u, v, w):
        a.flags.writeable = False
    return FCoefficients(u, v, w)


# --------------------------------------------------------------------------
# Conic in the c3s3-plane
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicCoeffs:
    """Coefficients of Axx c^2 + 2 Axy c s + Ayy s^2 + 2 Bx c + 2 By s + C = 0,
    normalized so max(|Axx|, |Axy|, |Ayy|, |Bx|, |By|, |C|) = 1."""

    axx: float
    axy: float
    ayy: float
    bx: float
    by: float
    c: float

    def as_array(self) -> np.ndarray:
        return np.array([self.axx, self.axy, self.ayy, self.bx, self.by, self.c])

    def evaluate(self, c3, s3):
        return (self.axx * c3 * c3 + 2 * self.axy * c3 * s3 + self.ayy * s3 * s3
                + 2 * self.bx * c3 + 2 * self.by * s3 + self.c)


@dataclass(frozen=True)
class _ConicTerms:
    """The target-independent parts of the raw conic, per robot.

    With P = (R - F3) / (2 a1) = pu c + pv s + pw and Q = (z - F4) /
    sin(alpha1) = qu c + qv s + qw, the conic is P^2 + Q^2 - F1^2 - F2^2
    collected in (c, s).  Only pw and qw depend on the target, so the
    quadratic part and every product of two F coefficients are kept here,
    each formed in the order the full expression evaluates it, which keeps
    every coefficient's bits.
    """

    two_a1: float
    sa1: float
    w2: float            # F3's and F4's constant terms
    w3: float
    pu: float
    pv: float
    qu: float
    qv: float
    axx: float
    axy: float
    ayy: float
    uw: tuple            # F1 F2 products that Bx, By and C subtract, in order
    vw: tuple
    ww: tuple

    def conic(self, pw, qw):
        """The unnormalized conic whose P and Q have constant terms pw and qw."""
        bx = self.pu * pw + self.qu * qw - self.uw[0] - self.uw[1]
        by = self.pv * pw + self.qv * qw - self.vw[0] - self.vw[1]
        c = pw * pw + qw * qw - self.ww[0] - self.ww[1]
        return self.axx, self.axy, self.ayy, bx, by, c


@_per_robot
def _conic_terms(p: DhParams) -> _ConicTerms:
    f = f_coefficients(p)
    sa1 = math.sin(p.alpha1)
    two_a1 = 2.0 * p.a1
    pu, pv = -f.u[2] / two_a1, -f.v[2] / two_a1
    qu, qv = -f.u[3] / sa1, -f.v[3] / sa1
    return _ConicTerms(
        two_a1, sa1, f.w[2], f.w[3], pu, pv, qu, qv,
        pu * pu + qu * qu - f.u[0] ** 2 - f.u[1] ** 2,
        pu * pv + qu * qv - f.u[0] * f.v[0] - f.u[1] * f.v[1],
        pv * pv + qv * qv - f.v[0] ** 2 - f.v[1] ** 2,
        (f.u[0] * f.w[0], f.u[1] * f.w[1]),
        (f.v[0] * f.w[0], f.v[1] * f.w[1]),
        (f.w[0] ** 2, f.w[1] ** 2))


def _conic(p: DhParams, R, z):
    """Axx, Axy, Ayy (per robot) and Bx, By, C (shaped like R and z) of the
    unnormalized conic at targets (R, z)."""
    k = _conic_terms(p)
    return k.conic((R - k.w2) / k.two_a1, (z - k.w3) / k.sa1)


def conic_raw(p: DhParams, R, z):
    """Unnormalized conic coefficients [Axx, Axy, Ayy, Bx, By, C].

    R and z may be scalars or broadcastable arrays; the output stacks the six
    coefficients along the first axis.  The quadratic part is independent of
    (R, z).
    """
    return np.stack(np.broadcast_arrays(*_conic(p, np.asarray(R, float), np.asarray(z, float))))


# --------------------------------------------------------------------------
# Trigonometric polynomials on the theta circle, one row format (_harmonics)
# --------------------------------------------------------------------------

# A root whose theta is further than tanh^-1 of this from the real circle is
# complex: the one prefilter of every polynomial root found here.
_IMAG_ANGLE_MAX = 1e-3
_POLISH_MAX_ITER = 12     # Newton steps per seed in _newton_in_theta
_POLISH_STEP_ULPS = 4     # a step this many ulps of theta or less is a seed's last


def _harmonics(samples: np.ndarray, n: int) -> np.ndarray:
    """Rows (a0, a1, b1, ..., an, bn), g = a0 + sum_k (ak cos k theta + bk
    sin k theta), of degree-n samples at N > 2n angles 2 pi j / N along the
    last axis: with c = rfft / N, a0 = c0, ak = 2 Re ck and bk = -2 Im ck,
    exact scalings of c."""
    c = np.fft.rfft(samples)[..., :n + 1] / samples.shape[-1]
    rows = np.empty(c.shape[:-1] + (2 * n + 1,))
    rows[..., 0] = c[..., 0].real
    rows[..., 1::2], rows[..., 2::2] = 2.0 * c[..., 1:].real, -2.0 * c[..., 1:].imag
    return rows


def _harmonic_bound(rows: np.ndarray) -> np.ndarray:
    """|a0| + sum_k |(ak, bk)| of rows (..., 2n + 1), bounding |g| on the circle."""
    return np.abs(rows[..., 0]) + np.sum(np.hypot(rows[..., 1::2], rows[..., 2::2]), axis=-1)


def _circle_values(rows: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Each row of rows (N, k, 2n + 1) at its theta (N,): (N, k), with cos and
    sin of k theta by angle addition, summed term by term in row order."""
    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
    ck, sk, v = c, s, rows[..., 0] + rows[..., 1] * c + rows[..., 2] * s
    for k in range(2, rows.shape[-1] // 2 + 1):
        ck, sk = ck * c - sk * s, sk * c + ck * s
        v = v + rows[..., 2 * k - 1] * ck + rows[..., 2 * k] * sk
    return v


def _circle_jet(h: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Rows (N, 2, 2n + 1) of g^(order) and g^(order + 1) of rows h (N, 2n + 1),
    one order per row; a derivative turns harmonic k's (a, b) into k (b, -a)."""
    k = np.arange(1.0, h.shape[1] // 2 + 1)
    jet = np.zeros((len(h), int(np.max(order, initial=0)) + 2, h.shape[1]))
    jet[:, 0] = h
    for j in range(1, jet.shape[1]):
        jet[:, j, 1::2], jet[:, j, 2::2] = k * jet[:, j - 1, 2::2], -k * jet[:, j - 1, 1::2]
    return jet[np.arange(len(h))[:, None], np.column_stack([order, order + 1])]


def _circle_roots(rows: np.ndarray):
    """Roots z = exp(i theta) (K, 2n) of rows (K, 2n + 1), their imaginary
    angles tanh |Im theta| = |1 - |z|^2| / (1 + |z|^2) and the prefilter's
    mask of the real ones.

    Each row is solved as np.roots solves z^n g(z) = sum_k c_k z^(n + k),
    |k| <= n, with c_0 = a0 and c_k = conj(c_-k) = (ak - i bk) / 2, by the
    eigenvalues of its companion matrix, all rows in one eigvals call.  Top
    harmonics that are zero in every row are left out: the rows of one
    robot share their top harmonic up to scale (h2 for the IK conic), so
    this is the robot's one branch.  A row whose top harmonic is still zero
    (a zero row) gets eigenvalues 0, which the prefilter drops."""
    c = 0.5 * (rows[:, 1::2] - 1j * rows[:, 2::2])      # c_1, ..., c_n
    n = c.shape[1]
    while n > 0 and not c[:, n - 1].any():
        n -= 1
    z = np.zeros((len(c), 0), dtype=complex)
    if n:
        poly = np.concatenate([c[:, n - 1::-1], rows[:, :1], np.conj(c[:, :n])], axis=1)
        lead = poly[:, :1]
        dead = lead[:, 0] == 0.0
        comp = np.zeros((len(c), 2 * n, 2 * n), dtype=complex)
        comp[:, 0, :] = -poly[:, 1:] / np.where(dead[:, None], 1.0, lead)
        comp[dead, 0, :] = 0.0
        comp[:, np.arange(1, 2 * n), np.arange(2 * n - 1)] = 1.0
        z = np.linalg.eigvals(comp)
    with np.errstate(over="ignore"):
        im_angle = np.abs(1.0 - 2.0 / (1.0 + np.abs(z) ** 2))
    return z, im_angle, im_angle <= _IMAG_ANGLE_MAX


def _newton_in_theta(fun, theta: np.ndarray):
    """Newton in theta on seeds theta (K,), in one array batch, each seed as
    it would step alone.  fun(theta, idx) gives f and f' (K',) at theta (K',)
    for the seeds idx, and an array of values (K', ...) to carry along, or
    None.  A step is taken where it lowers |f|; a seed stops at the first
    step that does not, after a step of at most _POLISH_STEP_ULPS ulps of
    theta, or after _POLISH_MAX_ITER steps.  Returns theta, f and the
    carried values at each seed's last step taken."""
    theta = np.array(theta, float)
    act = np.arange(len(theta))
    f, f_d, carry = fun(theta, act)
    for _ in range(_POLISH_MAX_ITER):
        if len(act) == 0:
            break
        # where f' = 0 the step is 0, which lowers nothing and stops the seed
        step = f[act] / np.where(f_d[act] != 0.0, f_d[act], np.inf)
        th = theta[act] - step
        fn, fn_d, carry_n = fun(th, act)
        better = np.abs(fn) < np.abs(f[act])
        up = act[better]
        theta[up], f[up], f_d[up] = th[better], fn[better], fn_d[better]
        if carry is not None:
            carry[up] = carry_n[better]
        act = up[np.abs(step[better]) > _POLISH_STEP_ULPS * np.spacing(np.abs(th[better]))]
    return theta, f, carry


# --------------------------------------------------------------------------
# The cusp locus: triple roots of g in closed form
#
# The conic on the unit circle is a trigonometric polynomial of degree 2,
# g(theta3) = h0 + h1 . c1 + h2 . c2 with h2 = ((Axx - Ayy) / 2, Axy), which
# no target changes, h1 = 2 (Bx, By) and h0 = (Axx + Ayy) / 2 + C.  With
# c1 = (cos, sin)(theta3), c2 = (cos, sin)(2 theta3) and c1+, c2+ those
# pairs turned a quarter turn, g' = h1 . c1+ + 2 h2 . c2+ and g'' = -h1 . c1
# - 4 h2 . c2 hold no h0, so g' = g'' = 0 fixes h1 = H(theta3) = -4 (h2 . c2)
# c1 - 2 (h2 . c2+) c1+, and then g = 0 reads h0 = 3 h2 . c2 (g + g'' = h0 -
# 3 h2 . c2).  With y = (pw, qw), h1 = 2 (P y - (UW, VW)) for the constant P
# = [[pu, qu], [pv, qv]] of _conic_terms (qu is exactly 0) and h0 = (Axx +
# Ayy) / 2 + |y|^2 - WW.  So a triple root at theta3 is P y = b(theta3) =
# H / 2 + (UW, VW) with |y|^2 = r2(theta3) = 3 h2 . c2 - (Axx + Ayy) / 2 +
# WW.  In P's singular basis, P = U diag(s1, s2) V^T, beta = U^T b and eta =
# V^T y, this is s1 eta1 = beta1, s2 eta2 = beta2, eta1^2 + eta2^2 = r2, and
# eliminating eta gives
#
#   E(theta3) = |adj(P) b|^2 - det(P)^2 r2 = s1^2 (beta2^2 - s2^2 m2),
#   m2 = r2 - (beta1 / s1)^2,
#
# a trigonometric polynomial of degree 6 (b has harmonics 1 and 3).  Its
# real roots are the theta3 of every cusp.  Since g''' = -g' - 6 h2 . c2+, a
# quadruple root sits on the locus only where 2 theta3 = arg h2 (mod pi).
#
# E factors as s1^2 f+ f-, with the branch f_sigma = beta2 - sigma s2 m, m =
# sqrt(m2).  The lift eta = (beta1 / s1, sigma m) has |eta|^2 = r2, so g +
# g'' = 0, and h1 - H = 2 (P y - b) = -2 f_sigma U (0, 1), so g' and g'' are
# multiples of f_sigma: on the lift, f_sigma = 0 is the whole triple-root
# system, one equation in theta3.
# --------------------------------------------------------------------------

_LOCUS_SAMPLES = 16       # samples of E per turn, more than 2 x its degree
_LOCUS_DEGREE = 6         # E's degree in theta3


@dataclass(frozen=True)
class _CuspLocus:
    """The target-independent constants of the cusp locus, per robot."""

    u: np.ndarray         # (2, 2) P's left singular vectors, as columns
    s: np.ndarray         # (2,) P's singular values, s1 >= s2
    vt: np.ndarray        # (2, 2) P's right singular vectors, as rows
    uvw: np.ndarray       # (UW, VW)
    h2: np.ndarray        # ((Axx - Ayy) / 2, Axy)
    r0: float             # WW - (Axx + Ayy) / 2


@_per_robot
def _cusp_locus(p: DhParams) -> _CuspLocus:
    k = _conic_terms(p)
    u, s, vt = np.linalg.svd(np.array([[k.pu, k.qu], [k.pv, k.qv]]))
    return _CuspLocus(u, s, vt, np.array([k.uw[0] + k.uw[1], k.vw[0] + k.vw[1]]),
                      np.array([0.5 * (k.axx - k.ayy), k.axy]),
                      k.ww[0] + k.ww[1] - 0.5 * (k.axx + k.ayy))


def _locus_terms(loc: _CuspLocus, theta: np.ndarray):
    """beta = U^T b (K, 2), r2 (K,) and their theta derivatives beta' = U^T b'
    (K, 2) and r2' (K,) at theta (K,), from b' = -3 (h2 . c2+) c1 and r2' = 6
    h2 . c2+."""
    # hand-written, not rows: as rows, the cusp seeds of 295 of 320 robots change bits
    c1 = np.column_stack([np.cos(theta), np.sin(theta)])
    c1_turned = np.column_stack([-c1[:, 1], c1[:, 0]])
    h2_c2 = loc.h2[0] * np.cos(2.0 * theta) + loc.h2[1] * np.sin(2.0 * theta)
    h2_turned = loc.h2[1] * np.cos(2.0 * theta) - loc.h2[0] * np.sin(2.0 * theta)
    b = -2.0 * h2_c2[:, None] * c1 - h2_turned[:, None] * c1_turned + loc.uvw
    return (b @ loc.u, 3.0 * h2_c2 + loc.r0,
            (-3.0 * h2_turned[:, None] * c1) @ loc.u, 6.0 * h2_turned)


def _locus_targets(p: DhParams, loc: _CuspLocus, eta: np.ndarray):
    """(R, zr) of the conics whose y = (pw, qw) = V eta, eta (K, 2)."""
    k = _conic_terms(p)
    y = eta @ loc.vt
    return k.two_a1 * y[:, 0] + k.w2, k.sa1 * y[:, 1] + k.w3


def cusp_seeds(p: DhParams):
    """(theta3, sigma) seeds of every cusp of p, for polish_cusps: the real
    roots of the cusp locus E (see above), each with the sign sigma of eta2
    on its branch f_sigma.

    Each root gives eta1 = beta1 / s1 and |eta2| = m = sqrt(max(m2, 0)), well
    conditioned however small s2 is (orthogonal robots have s2 ~ 1e-16 and
    double roots of E).  The sign of eta2 follows from a bound on beta2's
    error at E's root.  np.roots' eigenvalues are the exact roots of
    coefficients perturbed by a small multiple of eps times their size
    (Edelman & Murakami 1995); with that multiple the degree 12 of z^6 E(z),
    E / s1^2 is perturbed by at most Delta = 12 eps times its row's
    _harmonic_bound on the circle.  At a root of the perturbed E / s1^2 =
    beta2^2 - s2^2 m2, (|beta2| - s2 m)(|beta2| + s2 m) = -delta, |delta| <=
    Delta, so beta2 lies within eps_b = sqrt(Delta) of sign(beta2) s2 m, and
    the other sign misses it by |beta2| + s2 m.  Where 2 s2 m exceeds 2 eps_b
    the other sign cannot be a root at this precision and only sigma =
    sign(beta2) is seeded; elsewhere both signs are, as two seeds.

    Only there can m2 be negative (a root with s2 m > eps_b has m > 0), and
    a root with complex y is no cusp.  A real cusp at theta* nearby has
    |beta2(theta*)| = s2 m(theta*) <= eps_b to first order, so |theta* -
    theta| <= (|beta2| + eps_b) / |beta2'| and m2(theta*) >= m2 - |m2'|
    (|beta2| + eps_b) / |beta2'|, with beta2' and m2' = r2' - 2 eta1 beta1'
    / s1 from _locus_terms: a root is dropped where m2 |beta2'| < -|m2'|
    (|beta2| + eps_b), where no real cusp can be near.

    If h2 = 0, g''' = -g' vanishes with g', and g has no triple root; if P =
    0, h1 does not depend on the target and E vanishes: neither has seeds.
    """
    loc = _cusp_locus(p)
    s1, s2 = loc.s
    if s1 == 0.0 or not loc.h2.any():
        return np.empty(0), np.empty(0)
    theta = TWO_PI * np.arange(_LOCUS_SAMPLES) / _LOCUS_SAMPLES
    beta, r2, _, _ = _locus_terms(loc, theta)
    e = _harmonics((s2 / s1) ** 2 * beta[:, 0] ** 2 + beta[:, 1] ** 2 - s2 * s2 * r2,
                   _LOCUS_DEGREE)
    eps_b = math.sqrt(2 * _LOCUS_DEGREE * _EPS * _harmonic_bound(e))
    z, _, real = _circle_roots(e[None])
    theta = np.angle(z[real])
    beta, r2, beta_d, r2_d = _locus_terms(loc, theta)
    eta1 = beta[:, 0] / s1
    m2 = r2 - eta1 * eta1
    both = s2 * np.sqrt(np.maximum(m2, 0.0)) <= eps_b
    m2_d = r2_d - 2.0 * eta1 * beta_d[:, 0] / s1
    real = ~both | (-m2 * np.abs(beta_d[:, 1])
                    <= np.abs(m2_d) * (np.abs(beta[:, 1]) + eps_b))
    one = real & ~both
    two = real & both
    return (np.concatenate([theta[one], np.repeat(theta[two], 2)]),
            np.concatenate([np.copysign(1.0, beta[one, 1]),
                            np.tile([1.0, -1.0], int(np.sum(two)))]))


def _locus_branch(loc: _CuspLocus, theta: np.ndarray, sigma: np.ndarray):
    """f_sigma = beta2 - sigma s2 m (K,), its theta derivative (K,) and the
    lift eta = (beta1 / s1, sigma m) (K, 2) at theta (K,) on the branches
    sigma (K,), with m' = m2' / (2 m), read as 0 where m = 0."""
    s1, s2 = loc.s
    beta, r2, beta_d, r2_d = _locus_terms(loc, theta)
    eta1 = beta[:, 0] / s1
    m = np.sqrt(np.maximum(r2 - eta1 * eta1, 0.0))
    m_d = (0.5 * r2_d - eta1 * beta_d[:, 0] / s1) / np.where(m > 0.0, m, np.inf)
    return (beta[:, 1] - sigma * s2 * m, beta_d[:, 1] - sigma * s2 * m_d,
            np.column_stack([eta1, sigma * m]))


def polish_cusps(p: DhParams, theta3: np.ndarray, sigma: np.ndarray):
    """(theta3, R, zr) of the seeds (theta3, sigma) of cusp_seeds, each
    polished by _newton_in_theta on its branch f_sigma = 0 and lifted to its
    target.  theta3 is left unwrapped, within a step of the seed.

    On orthogonal robots (s2 ~ 1e-16) E ~ s1^2 beta2^2: a double root of E
    is a simple root of f_sigma, so every step is well conditioned.
    """
    loc = _cusp_locus(p)
    theta3, _, eta = _newton_in_theta(lambda th, idx: _locus_branch(loc, th, sigma[idx]), theta3)
    R, zr = _locus_targets(p, loc, eta)
    return theta3, R, zr


def quadruple_candidates(p: DhParams):
    """(theta3, R, zr) of the 8 exact candidates for a quadruple root of g:
    on the cusp locus g''' = -6 h2 . c2+, so 2 theta3 = arg h2 (mod pi) at
    four angles, each with eta1 = beta1 / s1 and both signs of eta2 = +/- m.
    A quadruple root of g is one of them, exactly (E vanishes there, so
    beta2 = +/- s2 m).  With h2 = 0, arg h2 = 0 and the candidates are the
    targets where g vanishes on the whole circle, if any.  P = 0 gives none."""
    loc = _cusp_locus(p)
    if loc.s[0] == 0.0:
        return np.empty(0), np.empty(0), np.empty(0)
    theta = np.repeat(wrap_angle(0.5 * math.atan2(loc.h2[1], loc.h2[0])
                                 + 0.5 * math.pi * np.arange(4)), 2)
    R, zr = _locus_targets(p, loc, _locus_branch(loc, theta, np.tile([1.0, -1.0], 4))[2])
    return theta, R, zr


def conic_coefficients(p: DhParams, target: CrossSectionPoint) -> ConicCoeffs:
    """Normalized conic of the IK problem at workspace point (rho, z).

    d1 shifts the workspace along z, so the reduction runs on z - d1.  Its
    terms grow like rho^4: a conic that overflows is refused (ValueError).
    """
    zr = target.z - p.d1
    with np.errstate(over="ignore", invalid="ignore"):
        cc = conic_raw(p, target.rho * target.rho + zr * zr, zr)
    m = float(np.max(np.abs(cc)))
    if not math.isfinite(m):
        raise ValueError(f"the conic at ({target.rho}, {target.z}) is not finite")
    if m == 0.0:
        raise DegenerateConicError("conic is identically zero")
    cc = cc / m
    return ConicCoeffs(*(float(v) for v in cc))


@dataclass(frozen=True)
class ConicClass:
    """Conic taxonomy: the kind of the (constant) quadratic part."""

    kind: str  # "Ellipse" | "Parabola" | "Hyperbola"


def conic_classify(p: DhParams) -> ConicClass:
    """Classify the conic by sign of det(D); independent of the target point.

    A relative dead-band |det D| < 1e-9 ||D||_F^2 reports Parabola, since an
    exact zero test is meaningless in floating point.
    """
    cc = conic_raw(p, 0.0, 0.0)
    d_mat = np.array([[cc[0], cc[1]], [cc[1], cc[2]]])
    fro2 = float(np.sum(d_mat * d_mat))
    if fro2 < 1e-24:
        raise DegenerateConicError("quadratic part of the conic vanishes")
    det_d = float(np.linalg.det(d_mat))
    if abs(det_d) < _PARABOLA_BAND * fro2:
        kind = "Parabola"
    elif det_d > 0:
        kind = "Ellipse"
    else:
        kind = "Hyperbola"
    return ConicClass(kind)


# --------------------------------------------------------------------------
# Quartic
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Quartic:
    """M(t) = a t^4 + b t^3 + c t^2 + d t + e, t = tan(theta3 / 2)."""

    a: float
    b: float
    c: float
    d: float
    e: float

    def coeffs(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d, self.e])

    def value(self, t):
        return np.polyval(self.coeffs(), t)


def quartic_coeffs_from_conic(cc) -> np.ndarray:
    """Tangent half-angle substitution, cleared by (1 + t^2)^2.

    Works on a coefficient stack of shape (6, ...), or on six broadcastable
    coefficients, and returns (5, ...) with the leading coefficient equal to
    the conic value at (c3, s3) = (-1, 0).
    """
    axx, axy, ayy, bx, by, c = cc
    out = np.empty((5,) + np.broadcast_shapes(*map(np.shape, (axx, axy, ayy, bx, by, c))))
    out[0] = axx - 2 * bx + c
    out[1] = -4 * axy + 4 * by
    out[2] = -2 * axx + 4 * ayy + 2 * c
    out[3] = 4 * axy + 4 * by
    out[4] = axx + 2 * bx + c
    return out


# d^j/dt^j of a quartic as weights on its coefficients, shifted right by j so
# that Horner over all five slots evaluates every derivative order at once
_JET_INDEX = np.array([[max(i - j, 0) for i in range(5)] for j in range(5)])
_JET_WEIGHT = np.array([[math.perm(4 - (i - j), j) if i >= j else 0.0 for i in range(5)]
                        for j in range(5)])


def _horner(d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each coefficient row d[..., :] at the matching t by Horner, with t
    broadcast against d[..., 0]: np.polyval's value."""
    y = d[..., 0]
    for k in range(1, d.shape[-1]):
        y = y * t + d[..., k]
    return y


def quartic_jet(coeffs: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """Derivatives 0..order of quartics at t, by Horner.

    `coeffs` has shape (K, ..., 5), highest degree first, and `t` shape (K,);
    the result has shape (K, ..., order + 1).  Each value is the one
    np.polyval(np.polyder(coeffs, j), t) gives.
    """
    d = coeffs[..., _JET_INDEX[:order + 1]] * _JET_WEIGHT[:order + 1]
    return _horner(d, np.reshape(t, (-1,) + (1,) * (d.ndim - 2)))


def quartic_discriminant(m: np.ndarray) -> np.ndarray:
    """Discriminant of the binary quartic a t^4 + b t^3 s + c t^2 s^2 + d t s^3 + e s^4.

    Works on a coefficient stack of shape (5, ...).  Equals
    a^6 prod_{i<j} (r_i - r_j)^2 over the roots of M(t), and stays continuous
    through the degree drop a -> 0 (a root at t = inf, i.e. theta3 = pi),
    where it tends to b^2 times the discriminant of the remaining cubic.
    Computed from the invariants I and J as (4 I^3 - J^2) / 27.
    """
    a, b, c, d, e = m
    i = 12.0 * a * e - 3.0 * b * d + c * c
    j = 72.0 * a * c * e + 9.0 * b * c * d - 27.0 * (a * d * d + b * b * e) - 2.0 * c * c * c
    return (4.0 * i * i * i - j * j) / 27.0


def quartic_from_conic(conic: ConicCoeffs) -> Quartic:
    m = quartic_coeffs_from_conic(conic.as_array())
    if float(np.max(np.abs(m))) < 1e-12 * max(1.0, float(np.max(np.abs(conic.as_array())))):
        raise ZeroPolynomialError("conic is the unit circle: M(t) vanishes identically")
    return Quartic(*(float(v) for v in m))


# --------------------------------------------------------------------------
# Real roots on the theta3 circle
#
# Each row h = (h0, h1x, h1y, h2x, h2y) is a conic's g on the circle, M(t) =
# (1 + t^2)^2 g(theta3) with t = tan(theta3 / 2); z^2 g(z)'s leading
# coefficient (h2x - i h2y) / 2 does not depend on the target, so a robot's
# rows are of degree 4 in z, or all of degree 2 where h2 = 0, and theta3 = pi
# is a root like any other.
# --------------------------------------------------------------------------

# Roots closer than twice this in theta3 always merge (_MERGE_RADIUS).
CLUSTER_RADIUS_T = 1e-6
# _MERGE_RADIUS[m - 1], m = 1..4 (a quartic row has at most four roots): the
# span below which _cluster merges a run of total multiplicity m, the
# backward-error ball of an m-fold root (its m roots scatter over a radius of
# order eps^(1/m)) but at least 2 CLUSTER_RADIUS_T.
_MERGE_RADIUS = tuple(max(2.0 * CLUSTER_RADIUS_T, 8.0 * (64.0 * _EPS) ** (1.0 / m))
                      for m in range(1, 5))
# Accepted roots at least this far apart on the theta3 circle cannot merge:
# the widest entry of _MERGE_RADIUS, reached by four roots, is ~2.8e-3 rad.
_SEPARATED = 1e-2


def _circle_rows(cc) -> np.ndarray:
    """Harmonics h (K, 5) of conics cc (6, K) on the unit circle."""
    axx, axy, ayy, bx, by, c = cc
    return np.column_stack(np.broadcast_arrays(
        0.5 * (axx + ayy) + c, 2.0 * bx, 2.0 * by, 0.5 * (axx - ayy), axy))


def _half_angle_quartic(h: np.ndarray) -> tuple:
    """Coefficients of t^4, t^3, t^2, t and 1 of M(t) = (1 + t^2)^2 g, t =
    tan(theta / 2), of rows h (K, 5)."""
    h0, h1x, h1y, h2x, h2y = h.T
    return (h0 - h1x + h2x, 2.0 * h1y - 4.0 * h2y, 2.0 * h0 - 6.0 * h2x,
            2.0 * h1y + 4.0 * h2y, h0 + h1x + h2x)


def _quartic_norm(h: np.ndarray) -> np.ndarray:
    """max |coefficient| of M(t) = (1 + t^2)^2 g of rows h (K, 5)."""
    return np.max(np.abs(_half_angle_quartic(h)), axis=0)


def _fold_lift(p: DhParams, theta2: np.ndarray, theta3: np.ndarray):
    """The other two IK solutions over the images of critical points
    (theta2, theta3) (K,), the pseudosingular points over them, as (theta2,
    theta3) arrays (K, 2) in [-pi, pi), NaN for none.

    M(t) of a critical point's image has a double root at its theta3;
    turned by theta3 (h1 by theta3, h2 by 2 theta3) the root sits at t' =
    tan(psi / 2) = 0 and M = t'^2 (a t'^2 + b t' + c).  With q = -(b +
    sign(b) sqrt(b^2 - 4 a c)) / 2 the roots are psi = 2 atan2(q, a) and 2
    atan2(c, q), none where b^2 < 4 a c.  Each is polished on g (_polish),
    since a traced point is on S only to its tolerance, and theta2 comes
    from _theta2, which may flag it.
    """
    x, y, z = fk_arrays(p, 0.0, theta2, theta3)
    rho, zr = np.hypot(x, y), z - p.d1
    R = rho * rho + zr * zr
    h = _circle_rows(_conic_stack(p, R, zr)[0])
    c1, s1 = np.cos(theta3), np.sin(theta3)
    c2, s2 = np.cos(2.0 * theta3), np.sin(2.0 * theta3)
    turned = np.column_stack([h[:, 0], h[:, 1] * c1 + h[:, 2] * s1, h[:, 2] * c1 - h[:, 1] * s1,
                              h[:, 3] * c2 + h[:, 4] * s2, h[:, 4] * c2 - h[:, 3] * s2])
    a, b, c = _half_angle_quartic(turned)[:3]
    disc = b * b - 4.0 * a * c
    row = np.flatnonzero(disc >= 0.0)
    q = -0.5 * (b[row] + np.copysign(np.sqrt(disc[row]), b[row]))
    psi = 2.0 * np.column_stack([np.arctan2(q, a[row]), np.arctan2(c[row], q)]).ravel()
    row, slot = np.repeat(row, 2), np.tile([0, 1], len(row))
    lift3 = wrap_angle(_polish(h[row], theta3[row] + psi, np.zeros(len(row), dtype=int))[0])
    lift2, solved = _theta2(p, f_coefficients(p), R[row], zr[row], lift3)
    out = np.full((2, len(theta3), 2), np.nan)
    out[:, row[solved], slot[solved]] = wrap_angle(lift2[solved]), lift3[solved]
    return out[0], out[1]


def _polish(h: np.ndarray, theta: np.ndarray, order: np.ndarray):
    """theta and the residual g^(order) there after _newton_in_theta on each
    root's derivative g^(order), where a root of multiplicity order + 1 is
    simple; one row h per root."""
    jet = _circle_jet(h, order)

    def fun(th, idx):
        v = _circle_values(jet[idx], th)
        return v[:, 0], v[:, 1], None
    theta, f, _ = _newton_in_theta(fun, theta)
    return theta, f


def _mean_angle(members: list) -> float:
    """Mean of angles that lie within a small arc, unwrapped from the first."""
    first = members[0]
    steps = (wrap_float(a - first) for a in members)
    return first + functools.reduce(operator.add, steps, 0.0) / len(members)


def _cluster(thetas: list) -> list:
    """Merge nearby roots on the theta3 circle into (representative,
    multiplicity) clusters.

    Runs of circle neighbours merge (the last root and the first are
    neighbours): a run of total multiplicity m whose span is below
    _MERGE_RADIUS[m - 1].  The longest run that fits merges first, until
    none does.  Spans and means add their floats left to right: builtin sum
    compensates its rounding from Python 3.12 on.
    """
    out = [(th, 1, [th]) for th in sorted(thetas, key=wrap_float)]
    while len(out) > 1:
        n = len(out)
        gap = [(out[(k + 1) % n][0] - out[k][0]) % TWO_PI for k in range(n)]

        def fits(k, j):
            """Whether the run out[k], ..., out[k + j] (cyclic) merges."""
            m = sum(out[(k + i) % n][1] for i in range(j + 1))
            span = functools.reduce(operator.add, (gap[(k + i) % n] for i in range(j)), 0.0)
            return span < _MERGE_RADIUS[m - 1]
        run = next(((k, j) for j in range(n - 1, 0, -1) for k in range(n) if fits(k, j)), None)
        if run is None:
            break
        k, j = run
        members = [a for i in range(j + 1) for a in out[(k + i) % n][2]]
        out = [(_mean_angle(members), len(members), members)] + [
            out[(k + j + 1 + i) % n] for i in range(n - j - 1)]
    return [(rep, mult) for rep, mult, _ in out]


_PAIRS = np.triu(np.ones((4, 4), dtype=bool), 1)


def _separated(theta: np.ndarray) -> np.ndarray:
    """Rows of theta (K, 4), nan = no root, whose roots are pairwise at
    least _SEPARATED apart on the circle."""
    gap = np.abs(theta[:, :, None] - theta[:, None, :])
    with np.errstate(invalid="ignore"):
        close = np.minimum(gap, TWO_PI - gap) < _SEPARATED
    return ~np.any(close & _PAIRS, axis=(1, 2))


@dataclass(frozen=True)
class RootBatch:
    """Real roots on the theta3 circle with multiplicities, one row each.

    Row k holds its distinct real roots in theta3 order, theta (K, 4) in
    [-pi, pi), and their multiplicities, mult (K, 4); empty slots have theta
    = nan and mult = 0.  norm (K,) is each row's max |coefficient| of M, by
    which solve_circle scaled it.
    """

    theta: np.ndarray
    mult: np.ndarray
    norm: np.ndarray

    @property
    def zero(self) -> np.ndarray:
        """Rows whose harmonics all vanish."""
        return self.norm < 1e-300

    @property
    def t(self) -> np.ndarray:
        """tan(theta3 / 2) of every slot."""
        return np.tan(0.5 * self.theta)

    @property
    def count(self) -> np.ndarray:
        """Distinct real roots per row."""
        return np.count_nonzero(self.mult, axis=1)

    def roots(self, k: int) -> tuple:
        """Row k as ((t, multiplicity), ...)."""
        keep = self.mult[k] > 0
        return tuple(zip(self.t[k, keep].tolist(), self.mult[k, keep].tolist()))


def solve_circle(h) -> RootBatch:
    """All real roots with multiplicities of a (K, 5) stack of harmonic
    rows, each scaled so that its M has max-norm 1.

    Per row: the prefiltered roots of z^2 g(z) (_circle_roots), Newton on g
    in theta3 (_polish), acceptance, one _cluster pass, then Newton on
    g^(m-1) at every cluster of multiplicity m, written to the row's slots,
    which one argsort puts in theta3 order.  Polishing runs before clustering
    because the eigenvalue scatter of an m-fold root scales like eps^(1/m),
    well beyond the cluster radius for triple roots; Newton contracts that
    scatter back under it.  A candidate counts as real when |g| at its
    polished theta3 reaches 64 eps and the polish moved it by at most 4
    (tanh |Im theta3| + 1.2e-5), so that it did not migrate to another root.

    The rows run together: one eigensolve, masked Newton, and _cluster only
    for rows with accepted roots closer than _SEPARATED, where roots can
    merge.  Each row gets what it would get alone, and a one-row call takes
    the same path as a census batch.  The rows of one batch have h2 = 0 in
    all of them or in none (_circle_roots), as the rows of one robot have.
    """
    h = np.asarray(h, float).reshape(-1, 5)
    k_rows = len(h)
    norm = _quartic_norm(h)
    h = h / np.where(norm < 1e-300, 1.0, norm)[:, None]
    z, im_angle, real = _circle_roots(h)
    row, slot = np.nonzero(real)
    start = np.angle(z[row, slot])
    with np.errstate(all="ignore"):
        theta, g = _polish(h[row], start, np.zeros(len(row), dtype=int))
    accept = (np.abs(g) <= 64.0 * _EPS) & (np.abs(theta - start)
                                           <= 4.0 * (im_angle[row, slot] + 1.2e-5))
    accepted = np.full((k_rows, 4), np.nan)
    accepted[row[accept], slot[accept]] = theta[accept]

    out_th = np.full((k_rows, 4), np.nan)
    out_m = np.zeros((k_rows, 4), dtype=int)
    singles = _separated(accepted)
    ones = singles[:, None] & ~np.isnan(accepted)
    out_th[ones], out_m[ones] = accepted[ones], 1
    merged = [(k, _cluster(accepted[k][~np.isnan(accepted[k])].tolist()))
              for k in np.flatnonzero(~singles).tolist()]
    if merged:
        c_row = np.array([k for k, c in merged for _ in c], dtype=int)
        c_slot = np.array([s for _, c in merged for s in range(len(c))], dtype=int)
        c_th = np.array([rep for _, c in merged for rep, _ in c])
        c_m = np.array([mult for _, c in merged for _, mult in c], dtype=int)
        many = c_m > 1
        with np.errstate(all="ignore"):
            c_th[many] = _polish(h[c_row[many]], c_th[many], c_m[many] - 1)[0]
        out_th[c_row, c_slot], out_m[c_row, c_slot] = c_th, c_m
    out_th = wrap_angle(out_th)
    order = np.argsort(np.where(out_m > 0, out_th, np.inf), axis=1, kind="stable")
    rows = np.arange(k_rows)[:, None]
    return RootBatch(out_th[rows, order], out_m[rows, order], norm)


@dataclass(frozen=True)
class QuarticRoots:
    """Real roots of M(t) with multiplicities; theta3 = pi has t = tan(pi /
    2) to rounding, some 1.6e16 in size."""

    roots: tuple  # of (t, multiplicity)


def solve_quartic(m: Quartic) -> QuarticRoots:
    """All real roots of one quartic with multiplicities, by solve_circle on
    the harmonics of g = M / (1 + t^2)^2."""
    a, b, c, d, e = m.coeffs()
    h2x = (a + e - c) / 8.0
    batch = solve_circle([(a + e) / 2.0 - h2x, (e - a) / 2.0, (b + d) / 4.0, h2x, (d - b) / 8.0])
    if batch.zero[0]:
        raise ZeroPolynomialError("all quartic coefficients are zero")
    return QuarticRoots(batch.roots(0))


# --------------------------------------------------------------------------
# Inverse kinematics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IkSolution:
    config: JointConfig
    multiplicity: int
    t: float


@dataclass(frozen=True)
class IkSolutionSet:
    """IK solutions ordered by theta3; n counts real roots with multiplicity."""

    solutions: tuple
    flagged: tuple = field(default=())  # (t, reason) roots that could not be back-substituted

    @property
    def n(self) -> int:
        return sum(s.multiplicity for s in self.solutions) + sum(m for _, m in self.flagged)

    def distinct(self) -> int:
        return len(self.solutions)


_CONIC_ZERO, _QUARTIC_ZERO = 1, 2


@dataclass(frozen=True)
class IkBatch:
    """IK solutions of K targets, as flat arrays with one entry per root.

    The roots of target k are the entries with row == k (row is sorted):
    first its solutions, ordered by wrapped theta3 as solve_ik orders them,
    then its flagged roots (`solved` False: the back-substitution matrix is
    singular) in root order.  theta (N, 3) holds (theta1, theta2, theta3)
    before wrapping.  Targets solve_ik refuses have status != 0 and no roots.
    """

    row: np.ndarray
    t: np.ndarray
    mult: np.ndarray
    theta: np.ndarray
    solved: np.ndarray
    status: np.ndarray

    def check(self, k: int) -> None:
        """Raise the error solve_ik raises for target k, if any."""
        if self.status[k] == _CONIC_ZERO:
            raise DegenerateConicError("conic is identically zero")
        if self.status[k] == _QUARTIC_ZERO:
            raise ZeroPolynomialError("conic is the unit circle: M(t) vanishes identically")

    def solution_set(self, k: int) -> IkSolutionSet:
        lo, hi = np.searchsorted(self.row, [k, k + 1]).tolist()
        sols, flagged = [], []
        for t, mult, q, ok in zip(self.t[lo:hi].tolist(), self.mult[lo:hi].tolist(),
                                  self.theta[lo:hi].tolist(), self.solved[lo:hi].tolist()):
            if ok:
                sols.append(IkSolution(JointConfig(*q), mult, t))
            else:
                flagged.append((t, mult))
        return IkSolutionSet(tuple(sols), tuple(flagged))


def _conic_stack(p: DhParams, R, zr):
    """Conics (6, K) of targets (R, zr) scaled to unit max-norm, and that
    norm (0 where the conic vanishes)."""
    axx, axy, ayy, bx, by, c = _conic(p, R, zr)
    cc = np.empty((6, len(R)))
    cc[:3] = ((axx,), (axy,), (ayy,))
    cc[3], cc[4], cc[5] = bx, by, c
    norm = np.abs(cc).max(axis=0)
    cc /= np.where(norm == 0.0, 1.0, norm)
    return cc, norm


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """math.atan2 elementwise.  np.arctan2 differs from it by an ulp on ~8 %
    of inputs, and theta1 amplifies that by 1 / (distance to the base axis)."""
    return np.array([math.atan2(a, b) for a, b in zip(y.tolist(), x.tolist())], dtype=float)


def _base_xy(p: DhParams, theta2, theta3):
    """x and y of fk_arrays(p, 0.0, theta2, theta3), bit for bit, without
    the z row and the trig of theta1 = 0: cos 0 = 1 and sin 0 = 0 exactly,
    and the products by 0.0 stay, since they keep fk_arrays' signed zeros."""
    wx, wy, _ = fk_arm(p, theta2, theta3)
    return wx - 0.0 * wy, 0.0 * wx + wy


def _back_substitution(p: DhParams, f: FCoefficients, R, zr, theta2, theta3, jacobian: bool):
    """Residuals (e1, e2) of the two equations theta2 is solved from,

        F1 cos(theta2) + F2 sin(theta2) = (R - F3) / (2 a1),
        F1 sin(theta2) - F2 cos(theta2) = (zr - F4) / sin(alpha1),

    at arrays of (theta2, theta3), and with `jacobian` their partials
    (j11, j12, j21, j22) in (theta2, theta3), from F's exact
    theta3-derivative."""
    c2, s2 = np.cos(theta2), np.sin(theta2)
    c3, s3 = np.cos(theta3)[:, None], np.sin(theta3)[:, None]
    # hand-written, not rows: F's affine forms sum in another order than a row's
    f1, f2, f3, f4 = (f.u * c3 + f.v * s3 + f.w).T
    two_a1, sa1 = 2.0 * p.a1, math.sin(p.alpha1)
    a = f1 * c2 + f2 * s2
    b = f1 * s2 - f2 * c2
    e1, e2 = a - (R - f3) / two_a1, b - (zr - f4) / sa1
    if not jacobian:
        return e1, e2
    g1, g2, g3, g4 = (f.v * c3 - f.u * s3).T
    return e1, e2, (-b, g1 * c2 + g2 * s2 + g3 / two_a1, a, g1 * s2 - g2 * c2 + g4 / sa1)


def _theta2(p: DhParams, f: FCoefficients, R, zr, theta3):
    """theta2 of roots theta3 of targets (R, zr), one entry per root, from
    the back-substitution equations as a linear system in (cos theta2, sin
    theta2), and whether it was solved (its determinant F1^2 + F2^2 is not
    singular)."""
    c3, s3 = np.cos(theta3), np.sin(theta3)
    # hand-written, not rows: F's affine forms sum in another order than a row's
    f1, f2, f3, f4 = (f.u * c3[:, None] + f.v * s3[:, None] + f.w).T
    det = f1 * f1 + f2 * f2
    solved = ~(det < 1e-14 * np.maximum(1.0, np.abs(R)))
    det = np.where(solved, det, 1.0)
    rhs1 = (R - f3) / (2.0 * p.a1)
    rhs2 = (zr - f4) / math.sin(p.alpha1)
    return _atan2((f2 * rhs1 + f1 * rhs2) / det, (f1 * rhs1 - f2 * rhs2) / det), solved


_SELF_GAP = np.diag(np.full(4, math.pi))      # a root's gap to itself in _half_gaps


def _half_gaps(row, slot, theta2, theta3, solved, k_rows: int) -> np.ndarray:
    """Per solved root, half its distance to the nearest other solved root
    of its target: the larger of the theta2 and theta3 gaps on the circle,
    pi (the farthest two points can be) when there is no other.  NaN for an
    unsolved root."""
    ang = np.full((2, k_rows, 4), np.nan)
    ang[:, row, slot] = np.where(solved, (theta2, theta3), np.nan)
    gap = np.abs(ang[:, :, :, None] - ang[:, :, None, :])
    gap = np.max(np.minimum(gap, TWO_PI - gap), axis=0) + _SELF_GAP
    return 0.5 * np.fmin.reduce(gap, axis=2)[row, slot]


def _refine(p: DhParams, f: FCoefficients, R, zr, theta2, theta3, mask, cap):
    """One Newton step on the back-substitution equations for the roots in
    `mask`, one (theta2, theta3, R, zr, cap) per root.

    A simple root of M close to another is only known to the quartic's
    conditioning, and theta2's 1 / (F1^2 + F2^2) amplifies that; one step on
    the equations themselves takes the angles to their rounding floor.  A
    root keeps the step only when it lowers e1^2 + e2^2 and moves each angle
    by less than its cap, half the distance to the nearest other root of its
    target (_half_gaps), so a refined root stays nearer to where it started
    than to any other root.
    """
    e1, e2, (j11, j12, j21, j22) = _back_substitution(p, f, R, zr, theta2, theta3, True)
    with np.errstate(all="ignore"):
        det = j11 * j22 - j12 * j21
        d2 = (e1 * j22 - e2 * j12) / det
        d3 = (j11 * e2 - j21 * e1) / det
        t2, t3 = theta2 - d2, theta3 - d3
        n1, n2 = _back_substitution(p, f, R, zr, t2, t3, False)
        keep = (mask & (np.abs(d2) < cap) & (np.abs(d3) < cap)
                & (n1 * n1 + n2 * n2 < e1 * e1 + e2 * e2))
    return np.where(keep, t2, theta2), np.where(keep, t3, theta3)


@dataclass(frozen=True)
class _CrossSectionIk:
    """The azimuth-independent part of solve_ik_batch, one entry per root in
    root order (read-only arrays): the roots, their angles (theta2, theta3),
    which ones were back-substituted, each target's status, the solution
    order of IkBatch, and per root the azimuth atan2(y, x) its end effector
    has at theta1 = 0, or whether that end effector lies on the base axis."""

    row: np.ndarray
    t: np.ndarray
    mult: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray
    solved: np.ndarray
    status: np.ndarray
    order: np.ndarray
    azimuth: np.ndarray
    on_axis: np.ndarray

    def __post_init__(self):
        for a in vars(self).values():
            a.flags.writeable = False


def _reach(p: DhParams, rho: np.ndarray, zr: np.ndarray) -> tuple:
    """R = rho^2 + (z - d1)^2 of targets (inf where it overflows), and the
    targets in reach, R <= L^2 (length_scale) as at every reachable point:
    only their conics, whose terms grow like R^2, are evaluated."""
    with np.errstate(over="ignore"):
        R = rho * rho + zr * zr
    return R, R <= length_scale(p) ** 2


def _solve_cross_section(p: DhParams, rho: np.ndarray, zr: np.ndarray) -> _CrossSectionIk:
    """IK of targets (rho, z - d1): one engine pass, back-substitution and
    refinement, with theta1 left to the caller's azimuth.  Targets out of
    reach (_reach) get no root and status 0; the pass runs on the others
    alone, and a row's result does not depend on the rows beside it."""
    R, near = _reach(p, rho, zr)
    if not near.all():
        stage = _solve_cross_section(p, rho[near], zr[near])
        status = np.zeros(len(rho), dtype=stage.status.dtype)
        status[near] = stage.status
        return replace(stage, row=np.flatnonzero(near)[stage.row], status=status)
    f = f_coefficients(p)
    cc, norm = _conic_stack(p, R, zr)
    roots = solve_circle(_circle_rows(cc))
    status = np.where(norm == 0.0, _CONIC_ZERO, np.where(roots.norm < 1e-12, _QUARTIC_ZERO, 0))
    row, slot = np.nonzero((roots.mult > 0) & (status == 0)[:, None])
    theta3, mult = roots.theta[row, slot], roots.mult[row, slot]
    t = np.tan(0.5 * theta3)
    R_root, zr_root = R[row], zr[row]
    theta2, solved = _theta2(p, f, R_root, zr_root, theta3)
    theta2, theta3 = _refine(p, f, R_root, zr_root, theta2, theta3, solved & (mult == 1),
                             _half_gaps(row, slot, theta2, theta3, solved, len(rho)))
    x0, y0 = _base_xy(p, theta2, theta3)
    order = np.lexsort((np.where(solved, wrap_angle(theta3), np.inf), row))
    return _CrossSectionIk(row, t, mult, theta2, theta3, solved, status, order,
                           _atan2(y0, x0), np.hypot(x0, y0) < 1e-12)


# The last _solve_cross_section call, shared by all robots, as one (key,
# result) tuple that is read once and replaced whole, so no caller pairs one
# call's key with another call's arrays; the arrays are only read.  A
# target's solve_ik and its label_solutions differ only in the azimuth, so
# they share one engine pass.
_last_cross_section = None


def _cross_section(p: DhParams, rho: np.ndarray, zr: np.ndarray) -> _CrossSectionIk:
    """_solve_cross_section, or its last result when p's bits, rho's and
    zr's bytes are those of the last call."""
    global _last_cross_section
    key = (_robot_key(p), rho.tobytes(), zr.tobytes())
    last = _last_cross_section
    if last is not None and last[0] == key:
        return last[1]
    stage = _solve_cross_section(p, rho, zr)
    _last_cross_section = (key, stage)
    return stage


def solve_ik_batch(p: DhParams, rho, z, phi=0.0) -> IkBatch:
    """IK of targets at distance rho >= 0 from the base axis, height z and
    azimuth phi (arrays), in one engine pass.

    Roots of the quartic give theta3; theta2 comes from the linear system in
    (cos theta2, sin theta2), and simple roots are refined on that system;
    theta1 from planar angle matching in (x, y).  Everything but theta1 is
    shared with the last call on the same robot and (rho, z).
    """
    rho = np.asarray(rho, float).ravel()
    s = _cross_section(p, rho, np.asarray(z, float).ravel() - p.d1)
    phi = np.asarray(phi, float)
    if phi.ndim:
        phi = np.broadcast_to(phi, rho.shape)[s.row]
    theta1 = np.where(s.on_axis, 0.0, phi - s.azimuth)
    order = s.order
    return IkBatch(s.row[order], s.t[order], s.mult[order],
                   np.column_stack([theta1, s.theta2, s.theta3])[order], s.solved[order],
                   s.status.copy())


def solve_ik_cross_section(p: DhParams, target: CrossSectionPoint) -> IkSolutionSet:
    """IK in the half cross-section; theta1 = 0 solutions (target y = 0 plane).

    The returned configurations reproduce (rho, z); rotating theta1 sweeps
    the full circle of workspace points with the same cross-section.
    """
    return solve_ik(p, Pose3(target.rho, 0.0, target.z))


def solve_ik(p: DhParams, target: Pose3) -> IkSolutionSet:
    """All IK solutions of a Cartesian target with multiplicities, ordered by
    theta3 (one row of solve_ik_batch).  Roots whose back-substitution
    matrix is singular are flagged, not dropped."""
    rho = math.hypot(target.x, target.y)
    phi = math.atan2(target.y, target.x) if rho > 1e-14 else 0.0
    batch = solve_ik_batch(p, rho, target.z, phi)
    batch.check(0)
    return batch.solution_set(0)


# Chordal distance |sin(gap / 2)| below which the engine may merge two roots
# or accept a conjugate pair as one real root: _cluster merges two roots at
# an angle gap below _MERGE_RADIUS[1] = 2 CLUSTER_RADIUS_T, i.e.
# CLUSTER_RADIUS_T in chord; the factor 2 covers the polished candidates'
# distance to the exact roots.
_MERGE_CHORD = 2.0 * CLUSTER_RADIUS_T


def _invariant_counts(m: np.ndarray):
    """Distinct real roots of quartic rows (K, 5) from the signs of their
    invariants, and the rows the signs cannot decide, which must go to
    solve_circle.

    Each row is scaled to max-norm 1 as the engine scales it, and read as
    the binary form in the chart (t or 1/t) with the larger of |a| and |e|,
    so a root at theta3 = pi counts like any other.  Delta < 0: 2 roots;
    Delta > 0: 4 when P = 8ac - 3b^2 < 0 and D = 64a^3e - 16a^2c^2 +
    16ab^2c - 16a^2bd - 3b^4 < 0, else 0 (Rees 1922; Lazard 1988).

    Undecided: all-zero rows, rows with P or D within their rounding of 0,
    and rows with |Delta| inside the band

      (i)  rounding: I and J carry at most 8 roundings per term, so
           |dI| <= 8u I~ and |dJ| <= 8u J~ over the sums of the terms'
           absolute values I~, J~; 4 I^3 adds 3 x 8u + 3u, J^2 2 x 8u + u,
           the difference and the division 2u: at most 31u < 16 eps times
           (4 I~^3 + J~^2) / 27.
      (ii) the engine's resolution: in chordal distances
           chi_ij = |r_i - r_j| / sqrt((1 + |r_i|^2)(1 + |r_j|^2)) <= 1,
           Delta = (a^2 prod (1 + |r_i|^2))^3 prod_{i<j} chi_ij^2, and
           a^2 prod (1 + |r_i|^2) <= 16 Mahler^2 <= 16 ||row||_2^2 = W
           (1 + |r|^2 <= 2 max(1, |r|)^2; Landau).  Two real roots closer
           than _MERGE_CHORD, or a conjugate pair that close (its chord is
           tanh |Im theta3|, the engine's imaginary-angle test), leave
           |Delta| <= W^3 _MERGE_CHORD^2.  A cluster of m >= 3 roots merged
           within _MERGE_RADIUS[m - 1] (2.8e-3 rad at most) has three or
           more pairs that close, and smaller |Delta| still.
           A conjugate pair further apart is accepted only where the circle
           value g = M / (1 + t^2)^2 of this row dips below 64 eps (plus
           the rounding of its evaluation); M less that much times (1 +
           t^2)^2 has a double root, so there |Delta| <= 128 eps
           |dDelta/dshift| <= 2e-10, below W^3 _MERGE_CHORD^2 >= 1.6e-8
           (||row||_2 >= 1): the second term covers both.
    """
    m = np.asarray(m, float).reshape(-1, 5)
    norm = np.abs(m).max(axis=1)
    zero = norm < 1e-300
    q = m / np.where(zero, 1.0, norm)[:, None]
    a, b, c, d, e = np.where((np.abs(q[:, 4]) > np.abs(q[:, 0]))[:, None], q[:, ::-1], q).T
    disc = quartic_discriminant((a, b, c, d, e))
    aa, ab, ac, ad, ae = np.abs((a, b, c, d, e))
    i_abs = 12.0 * aa * ae + 3.0 * ab * ad + ac * ac
    j_abs = 72.0 * aa * ac * ae + 9.0 * ab * ac * ad + 27.0 * (aa * ad * ad + ab * ab * ae) \
        + 2.0 * ac * ac * ac
    w = 16.0 * np.sum(q * q, axis=1)
    band = 16.0 * _EPS * (4.0 * i_abs ** 3 + j_abs ** 2) / 27.0 + w ** 3 * _MERGE_CHORD ** 2
    # P and D to their rounding: P carries 3 roundings per term; D's powers
    # are products (np.power is slow on negative bases), 3 roundings per
    # term and 4 in the sum, within the 9 allowed; each bounded in eps,
    # twice the unit roundoff
    p_inv = 8.0 * a * c - 3.0 * b * b
    p_err = 3.0 * _EPS * (8.0 * aa * ac + 3.0 * ab * ab)
    a2, b2 = a * a, b * b
    d_inv = (64.0 * a2 * a * e - 16.0 * a2 * c * c + 16.0 * a * b2 * c
             - 16.0 * a2 * b * d - 3.0 * b2 * b2)
    d_err = 9.0 * _EPS * (64.0 * aa ** 3 * ae + 16.0 * aa * aa * ac * ac + 16.0 * aa * ab * ab * ac
                          + 16.0 * aa * aa * ab * ad + 3.0 * ab ** 4)
    four = (p_inv < -p_err) & (d_inv < -d_err)
    none = (p_inv > p_err) | (d_inv > d_err)
    undecided = zero | ~(np.abs(disc) > band) | ((disc > 0.0) & ~four & ~none)
    return np.where(disc < 0.0, 2, np.where(four, 4, 0)), undecided


def ik_counts(p: DhParams, rho, z):
    """Multiplicity-free IK solution counts for arrays of (rho, z) targets:
    the distinct real roots of each target's quartic, 0 where the conic
    vanishes or the target is out of reach (_reach).  Used by the
    workspace census.  The quartic's invariants count every row they decide
    (_invariant_counts); the rest, next to Delta = 0, go to solve_circle,
    whose count each decided row equals."""
    rho = np.asarray(rho, float).ravel()
    zr = np.asarray(z, float).ravel() - p.d1
    R, near = _reach(p, rho, zr)
    cc = _conic_stack(p, R[near], zr[near])[0]
    counts, undecided = _invariant_counts(quartic_coeffs_from_conic(cc).T)
    if undecided.any():
        counts[undecided] = solve_circle(_circle_rows(cc[:, undecided])).count
    out = np.zeros(len(near), dtype=counts.dtype)
    out[near] = counts
    return out
