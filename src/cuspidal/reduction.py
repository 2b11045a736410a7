"""Pieper reduction: F coefficients, the c3s3-plane conic, and the quartic IK.

The end-effector constraint R = rho^2 + z^2, z splits into two equations that
are linear in (cos theta2, sin theta2) with coefficients F1..F4 affine in
(cos theta3, sin theta3).  Eliminating theta2 yields a conic in the
c3s3-plane whose intersections with the unit circle are the IK solutions;
the tangent half-angle substitution turns that intersection condition into
the quartic M(t).  The same conic restricted to the circle is a
trigonometric polynomial of degree 2 in theta3 (circle_harmonics), on which
`critical` runs its batched Newton refinements.
"""
from __future__ import annotations

import functools
import math
import struct
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .dh import (
    TWO_PI,
    CrossSectionPoint,
    DhParams,
    JointConfig,
    Pose3,
    fk_arm,
    wrap_angle,
    wrap_float,
)
from .errors import (
    DegenerateConicError,
    EliminationUnsupportedError,
    ZeroPolynomialError,
)

# Roots closer than this (measured on the theta3 circle) are merged into one
# multiplicity cluster; on the t-line the radius widens like (1+t^2)/2 so that
# multiplicity stays a property of the circle, not of the chart.
CLUSTER_RADIUS_T = 1e-6
_DEGREE_DROP_TOL = 1e-10
_PARABOLA_BAND = 1e-9


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
    pw = (R - k.w2) / k.two_a1
    qw = (z - k.w3) / k.sa1
    bx = k.pu * pw + k.qu * qw - k.uw[0] - k.uw[1]
    by = k.pv * pw + k.qv * qw - k.vw[0] - k.vw[1]
    c = pw * pw + qw * qw - k.ww[0] - k.ww[1]
    return k.axx, k.axy, k.ayy, bx, by, c


def conic_raw(p: DhParams, R, z):
    """Unnormalized conic coefficients [Axx, Axy, Ayy, Bx, By, C].

    R and z may be scalars or broadcastable arrays; the output stacks the six
    coefficients along the first axis.  The quadratic part is independent of
    (R, z).
    """
    return np.stack(np.broadcast_arrays(*_conic(p, np.asarray(R, float), np.asarray(z, float))))


def circle_harmonics(p: DhParams, R, z) -> np.ndarray:
    """The conic on the unit circle, g(theta3) = h0 + h1 . (cos, sin)(theta3)
    + h2 . (cos, sin)(2 theta3), at targets (R, z), both (K,), with its exact
    R and z partials: (K, 3, 5) holding (h0, h1, h2) and the two partials.
    h2 = ((Axx - Ayy) / 2, Axy) is target-independent, h1 = 2 (Bx, By) is
    affine and h0 = (Axx + Ayy) / 2 + C quadratic in (R, z)."""
    k = _conic_terms(p)
    axx, axy, ayy, bx, by, c = _conic(p, R, z)
    out = np.zeros((len(R), 3, 5))
    out[:, 0, 0] = 0.5 * (axx + ayy) + c
    out[:, 0, 1], out[:, 0, 2] = 2.0 * bx, 2.0 * by
    out[:, 0, 3], out[:, 0, 4] = 0.5 * (axx - ayy), axy
    # C = pw^2 + qw^2 - ... with pw = (R - w2) / (2 a1) and qw = (z - w3) / sin(alpha1)
    out[:, 1, 0] = 2.0 * ((R - k.w2) / k.two_a1) / k.two_a1
    out[:, 1, 1], out[:, 1, 2] = 2.0 * k.pu / k.two_a1, 2.0 * k.pv / k.two_a1
    out[:, 2, 0] = 2.0 * ((z - k.w3) / k.sa1) / k.sa1
    out[:, 2, 1], out[:, 2, 2] = 2.0 * k.qu / k.sa1, 2.0 * k.qv / k.sa1
    return out


# d/dtheta of the harmonics (h0, a1, b1, a2, b2), a_n cos(n theta) + b_n
# sin(n theta), is (0, b1, -a1, 2 b2, -2 a2): a quarter turn of each pair
# scaled by n.  Column block j holds the j-th power, so h @ _THETA_JET gives
# the harmonics of every derivative; each entry is one exact product.
_D_THETA = np.array([[0.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, -1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, -2.0],
                     [0.0, 0.0, 0.0, 2.0, 0.0]])
_THETA_JET = np.hstack([np.linalg.matrix_power(_D_THETA, j) for j in range(5)])


def circle_jet(h: np.ndarray, theta: np.ndarray, order: int) -> np.ndarray:
    """Derivatives 0..order in theta of the harmonics h (K, ..., 5), laid out
    as circle_harmonics gives them, at theta (K,): shape (K, ..., order + 1)."""
    trig = np.stack([np.ones_like(theta), np.cos(theta), np.sin(theta),
                     np.cos(2.0 * theta), np.sin(2.0 * theta)], axis=-1)
    turned = np.reshape(h @ _THETA_JET[:, :5 * (order + 1)], h.shape[:-1] + (order + 1, 5))
    return np.sum(turned * np.reshape(trig, (len(theta),) + (1,) * (h.ndim - 1) + (5,)), axis=-1)


# --------------------------------------------------------------------------
# The cusp locus: triple roots of g in closed form
#
# With c1 = (cos, sin)(theta3), c2 = (cos, sin)(2 theta3) and c1+, c2+ those
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
# --------------------------------------------------------------------------

# A root whose theta3 is further than tanh^-1 of this from the real circle is
# complex: the one prefilter of every polynomial root found here.
_IMAG_ANGLE_MAX = 1e-3
_LOCUS_SAMPLES = 16       # samples of E per turn, more than 2 x its degree 6
_LOCUS_DEGREE = 12        # degree of E's polynomial in exp(i theta3)


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
    """beta = U^T b (K, 2), r2 (K,) and c1 (K, 2) at theta (K,)."""
    c1 = np.column_stack([np.cos(theta), np.sin(theta)])
    c1_turned = np.column_stack([-c1[:, 1], c1[:, 0]])
    h2_c2 = loc.h2[0] * np.cos(2.0 * theta) + loc.h2[1] * np.sin(2.0 * theta)
    h2_turned = loc.h2[1] * np.cos(2.0 * theta) - loc.h2[0] * np.sin(2.0 * theta)
    b = -2.0 * h2_c2[:, None] * c1 - h2_turned[:, None] * c1_turned + loc.uvw
    return b @ loc.u, 3.0 * h2_c2 + loc.r0, c1


def _locus_targets(p: DhParams, loc: _CuspLocus, eta: np.ndarray):
    """(R, zr) of the conics whose y = (pw, qw) = V eta, eta (K, 2)."""
    k = _conic_terms(p)
    y = eta @ loc.vt
    return k.two_a1 * y[:, 0] + k.w2, k.sa1 * y[:, 1] + k.w3


def _real_circle_roots(e: np.ndarray) -> np.ndarray:
    """theta in (-pi, pi] of the roots of the real trigonometric polynomial
    sum_k e_k exp(i k theta), |k| <= 6, given e_0..e_6 (e_-k = conj(e_k)),
    whose exp(i theta) the prefilter keeps: of the 12 roots of z^6 E(z)."""
    poly = np.concatenate([e[6:0:-1], [e[0].real], np.conj(e[1:7])])
    z = np.roots(poly)
    # tanh |Im theta| = |1 - |z|^2| / (1 + |z|^2), the engine's imaginary angle
    with np.errstate(over="ignore"):
        im_angle = np.abs(1.0 - 2.0 / (1.0 + np.abs(z) ** 2))
    return np.angle(z[im_angle <= _IMAG_ANGLE_MAX])


def cusp_seeds(p: DhParams):
    """(theta3, R, zr) seeds of every cusp of p, from the real roots of the
    cusp locus E (see above), for Newton to polish.

    Each root gives eta1 = beta1 / s1 and |eta2| = m = sqrt(max(m2, 0)), well
    conditioned however small s2 is (orthogonal robots have s2 ~ 1e-16 and
    double roots of E).  The sign of eta2 follows from a bound on beta2's
    error at E's root.  np.roots' eigenvalues are the exact roots of
    coefficients perturbed by a small multiple of eps times their size
    (Edelman & Murakami 1995); with that multiple the degree 12, E / s1^2 is
    perturbed by at most Delta = 12 eps sum |e_k| on the circle, its
    harmonics e_k.  At a root of the perturbed E / s1^2 = beta2^2 - s2^2 m2,
    (|beta2| - s2 m)(|beta2| + s2 m) = -delta, |delta| <= Delta, so beta2
    lies within eps_b = sqrt(Delta) of sign(beta2) s2 m, and the other sign
    misses it by |beta2| + s2 m.  Where 2 s2 m exceeds 2 eps_b the other
    sign cannot be a root at this precision and only eta2 = sign(beta2) m is
    seeded; elsewhere both are.

    Only there can m2 be negative (a root with s2 m > eps_b has m > 0), and
    a root with complex y is no cusp.  A real cusp at theta* nearby has
    |beta2(theta*)| = s2 m(theta*) <= eps_b to first order, so |theta* -
    theta| <= (|beta2| + eps_b) / |beta2'| and m2(theta*) >= m2 - |m2'|
    (|beta2| + eps_b) / |beta2'|.  From b' = -3 (h2 . c2+) c1 and r2' = 6
    h2 . c2+, beta2' = -3 (h2 . c2+) (u2 . c1) and m2' = 6 (h2 . c2+)(1 +
    eta1 (u1 . c1) / s1): a root is dropped where m2 |u2 . c1| < -2 (|beta2|
    + eps_b) |1 + eta1 (u1 . c1) / s1|, where no real cusp can be near.

    If h2 = 0, g''' = -g' vanishes with g', and g has no triple root; if P =
    0, h1 does not depend on the target and E vanishes: neither has seeds.
    """
    loc = _cusp_locus(p)
    s1, s2 = loc.s
    if s1 == 0.0 or not loc.h2.any():
        return np.empty(0), np.empty(0), np.empty(0)
    theta = TWO_PI * np.arange(_LOCUS_SAMPLES) / _LOCUS_SAMPLES
    beta, r2, _ = _locus_terms(loc, theta)
    # the harmonics of E / s1^2, exact from its samples (16 > 2 x 6)
    e = np.fft.rfft((s2 / s1) ** 2 * beta[:, 0] ** 2 + beta[:, 1] ** 2 - s2 * s2 * r2) \
        / _LOCUS_SAMPLES
    eps_b = math.sqrt(_LOCUS_DEGREE * float(np.finfo(float).eps)
                      * float(abs(e[0]) + 2.0 * np.sum(np.abs(e[1:7]))))
    theta = _real_circle_roots(e)
    beta, r2, c1 = _locus_terms(loc, theta)
    eta1 = beta[:, 0] / s1
    m2 = r2 - eta1 * eta1
    m = np.sqrt(np.maximum(m2, 0.0))
    both = s2 * m <= eps_b
    u1_c1, u2_c1 = c1 @ loc.u[:, 0], c1 @ loc.u[:, 1]
    real = ~both | (-m2 * np.abs(u2_c1)
                    <= 2.0 * (np.abs(beta[:, 1]) + eps_b) * np.abs(1.0 + eta1 * u1_c1 / s1))
    one = real & ~both
    two = real & both
    theta = np.concatenate([theta[one], np.repeat(theta[two], 2)])
    eta = np.column_stack([
        np.concatenate([eta1[one], np.repeat(eta1[two], 2)]),
        np.concatenate([np.copysign(m[one], beta[one, 1]),
                        np.repeat(m[two], 2) * np.tile([1.0, -1.0], int(np.sum(two)))])])
    R, zr = _locus_targets(p, loc, eta)
    return theta, R, zr


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
    theta = wrap_angle(0.5 * math.atan2(loc.h2[1], loc.h2[0]) + 0.5 * math.pi * np.arange(4))
    beta, r2, _ = _locus_terms(loc, theta)
    eta1 = beta[:, 0] / loc.s[0]
    m = np.sqrt(np.maximum(r2 - eta1 * eta1, 0.0))
    eta = np.column_stack([np.repeat(eta1, 2), np.repeat(m, 2) * np.tile([1.0, -1.0], 4)])
    R, zr = _locus_targets(p, loc, eta)
    return np.repeat(theta, 2), R, zr


def conic_coefficients(p: DhParams, target: CrossSectionPoint) -> ConicCoeffs:
    """Normalized conic of the IK problem at workspace point (rho, z).

    d1 shifts the workspace along z, so the reduction runs on z - d1.
    """
    zr = target.z - p.d1
    cc = conic_raw(p, target.rho ** 2 + zr * zr, zr)
    m = float(np.max(np.abs(cc)))
    if m == 0.0:
        raise DegenerateConicError("conic is identically zero")
    cc = cc / m
    return ConicCoeffs(*(float(v) for v in cc))


@dataclass(frozen=True)
class ConicClass:
    """Conic taxonomy plus the (constant) principal-axis directions."""

    kind: str  # "Ellipse" | "Parabola" | "Hyperbola"
    orientation: np.ndarray  # columns are unit eigenvectors of D


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
    _, vecs = np.linalg.eigh(d_mat)
    # canonical sign: first nonzero component of each eigenvector positive
    for k in range(2):
        col = vecs[:, k]
        lead = col[0] if abs(col[0]) > 1e-12 else col[1]
        if lead < 0:
            vecs[:, k] = -col
    return ConicClass(kind, vecs)


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


def theta3_of_t(t: float) -> float:
    """theta3 = 2 atan(t); t = inf encodes theta3 = pi."""
    if math.isinf(t):
        return math.pi
    return 2.0 * math.atan(t)


def _circle_gap(t1: float, t2: float) -> float:
    """Distance between roots as seen on the theta3 circle, in t units near 0."""
    d_t = abs(t1 - t2)
    d_ang = abs(wrap_float(theta3_of_t(t1) - theta3_of_t(t2)))
    return min(d_t, 0.5 * d_ang)


def cluster_real_roots(ts: list) -> list:
    """Merge nearby roots into (representative, multiplicity) clusters.

    A first pass merges at the base radius; a second pass merges adjacent
    clusters that fit inside the backward-error ball of a higher-order root:
    m roots of a quartic known to machine precision scatter over a radius of
    order eps^(1/m), so triple roots are only resolvable up to ~eps^(1/3).
    """
    out = []
    for t in sorted(ts):
        for k, (rep, mult, members) in enumerate(out):
            if _circle_gap(t, rep) < CLUSTER_RADIUS_T:
                members.append(t)
                out[k] = (float(np.mean(members)), mult + 1, members)
                break
        else:
            out.append((t, 1, [t]))
    eps = float(np.finfo(float).eps)
    merged = True
    while merged and len(out) > 1:
        merged = False
        for k in range(len(out) - 1):
            rep_a, m_a, mem_a = out[k]
            rep_b, m_b, mem_b = out[k + 1]
            m_sum = m_a + m_b
            tt = max(abs(rep_a), abs(rep_b))
            radius_t = 4.0 * (64.0 * eps * (1.0 + tt * tt) ** 2) ** (1.0 / m_sum)
            radius_angle = radius_t * 2.0 / (1.0 + tt * tt)
            gap_angle = abs(wrap_float(theta3_of_t(rep_a) - theta3_of_t(rep_b)))
            if _circle_gap(rep_a, rep_b) < CLUSTER_RADIUS_T or gap_angle < radius_angle:
                members = mem_a + mem_b
                out[k] = (float(np.mean(members)), m_sum, members)
                del out[k + 1]
                merged = True
                break
    return [(rep, mult) for rep, mult, _ in out]


# Accepted roots at least this far apart on the theta3 circle cannot merge:
# the widest merge radius of cluster_real_roots, reached by four roots, is
# 8 (64 eps)^(1/4) ~ 2.8e-3 rad.
_SEPARATED = 1e-2


def _derivative(coeffs: np.ndarray, order) -> np.ndarray:
    """d^order/dt^order of quartic rows (np.polyder's values), right-aligned in
    five slots; `order` is one int, one per row, or a row of orders per row
    (K, j), which gives (K, j, 5)."""
    rows = np.arange(len(coeffs)).reshape((-1,) + (1,) * max(np.ndim(order), 1))
    return coeffs[rows, _JET_INDEX[order]] * _JET_WEIGHT[order]


_ROOT_NEWTON_ITERS = 12
# the line search's step fractions after a full step: 2^-1 ... 2^-7
_HALF_STEPS = np.ldexp(1.0, -np.arange(1, 8))[:, None]


def _polish_plain(coeffs: np.ndarray, t: np.ndarray):
    """Line-searched Newton on M itself, one quartic row per root, for up to
    18 steps; contracts multiple-root scatter.

    Each root runs as it would alone: every step is halved up to 7 times
    until |M| drops, and a root stops at a zero or non-finite slope, at a
    step that never improves or at |M| = 0.  Every active root tries the
    full step in one Horner call; the roots it did not improve try all
    seven halvings in a second one and take the first that improves.
    Returns each root's best iterate and |M| there.
    """
    dcoeffs = _derivative(coeffs, 1)
    t = t.copy()
    f = _horner(coeffs, t)                  # M at the current iterate
    best_t, best_val = t.copy(), np.abs(f)
    act = np.arange(len(t))
    for _ in range(18):
        df = _horner(dcoeffs[act], t[act])
        ok = (df != 0.0) & np.isfinite(df)
        act = act[ok]
        step = f[act] / df[ok]
        f_abs, t0, rows = np.abs(f[act]), t[act], coeffs[act]
        tn = t0 - step
        fn = _horner(rows, tn)
        better = np.abs(fn) < f_abs
        miss = np.flatnonzero(~better)
        if len(miss):
            tl = t0[miss] - _HALF_STEPS * step[miss]          # (7, misses)
            fl = _horner(rows[miss], tl)
            up = np.abs(fl) < f_abs[miss]
            first = np.argmax(up, axis=0), np.arange(len(miss))
            tn[miss], fn[miss], better[miss] = tl[first], fl[first], up[first]
        act = act[better]
        if len(act) == 0:
            break
        t[act], f[act] = tn[better], fn[better]
        val = np.abs(f[act])
        up = val < best_val[act]
        best_t[act[up]], best_val[act[up]] = t[act[up]], val[up]
        act = act[val != 0.0]
        if len(act) == 0:
            break
    return best_t, best_val


def _polish_root(coeffs: np.ndarray, t: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Up to _ROOT_NEWTON_ITERS Newton steps on the (mult-1)-th derivative,
    where the root is simple; one quartic row per root, each keeping its best
    iterate.

    One Horner call per iteration gives the value and the slope at the new
    iterates.  A root stops at a zero slope, at a zero value, or at a step
    that lands on one of its own earlier iterates (a step that rounds to
    nothing lands on the current one): Newton is a function of the iterate
    alone, so from there it would only revisit values it has already
    weighed, and its best iterate cannot change.
    """
    pair = _derivative(coeffs, np.column_stack([mult - 1, mult]))
    t = t.copy()
    f, df = _horner(pair, t[:, None]).T.copy()
    best_t, best_val = t.copy(), np.abs(f)
    seen = np.empty((len(t), _ROOT_NEWTON_ITERS + 1))
    seen[:, 0] = t
    act = np.arange(len(t))
    for it in range(1, _ROOT_NEWTON_ITERS + 1):
        act = act[df[act] != 0.0]
        tn = t[act] - f[act] / df[act]
        new = ~np.any(seen[act, :it] == tn[:, None], axis=1)
        act, tn = act[new], tn[new]
        if len(act) == 0:
            break
        seen[act, it] = tn
        t[act] = tn
        f[act], df[act] = _horner(pair[act], tn[:, None]).T
        val = np.abs(f[act])
        up = val < best_val[act]
        best_t[act[up]], best_val[act[up]] = t[act[up]], val[up]
        act = act[val != 0.0]
    return best_t


_PAIRS = np.triu(np.ones((4, 4), dtype=bool), 1)


def _separated(t: np.ndarray) -> np.ndarray:
    """Rows of t (K, 4), nan = no root, whose roots are pairwise at least
    _SEPARATED apart on the theta3 circle."""
    th = 2.0 * np.arctan(t)
    gap = np.abs(th[:, :, None] - th[:, None, :])
    with np.errstate(invalid="ignore"):
        close = np.minimum(gap, TWO_PI - gap) < _SEPARATED
    return ~np.any(close & _PAIRS, axis=(1, 2))


@dataclass(frozen=True)
class RootBatch:
    """Real roots of a stack of quartics with multiplicities, one row each.

    Row k holds quartic k's distinct real roots in theta3 order, t (K, 4),
    and their multiplicities, mult (K, 4); empty slots have t = nan and
    mult = 0, and t = inf encodes theta3 = pi.  `zero` marks rows whose
    coefficients all vanish.
    """

    t: np.ndarray
    mult: np.ndarray
    zero: np.ndarray

    @property
    def count(self) -> np.ndarray:
        """Distinct real roots per row."""
        return np.count_nonzero(self.mult, axis=1)

    def roots(self, k: int) -> tuple:
        """Row k as ((t, multiplicity), ...)."""
        keep = self.mult[k] > 0
        return tuple(zip(self.t[k, keep].tolist(), self.mult[k, keep].tolist()))


def solve_quartics(m) -> RootBatch:
    """All real roots with multiplicities of a (K, 5) stack of quartics.

    Per row: companion eigenvalues, plain-Newton polishing, backward-error
    realness, then clustering.  Polishing runs before clustering because the
    eigenvalue scatter of an m-fold root scales like eps^(1/m), well beyond
    the cluster radius for triple roots; Newton contracts that scatter back
    under it.  A candidate counts as real when its polished residual reaches
    the attainable floating-point floor.  A leading coefficient within 1e-10
    of ||coeffs|| drops the degree and injects the theta3 = pi solution
    (t = inf) with the dropped multiplicity.

    The rows run together: one eigensolve per companion size present (the
    matrices np.roots builds), masked Horner for the Newton polishing, and
    cluster_real_roots only for rows with accepted roots closer than
    _SEPARATED, where roots can merge.  Each row gets what it would get
    alone, and a one-row call takes the same path as a census batch.
    """
    m = np.asarray(m, float).reshape(-1, 5)
    k_rows = len(m)
    norm = np.abs(m).max(axis=1)
    zero = norm < 1e-300
    coeffs = m / np.where(zero, 1.0, norm)[:, None]
    drop = (np.abs(coeffs[:, :4]) < _DEGREE_DROP_TOL).cumprod(axis=1).sum(axis=1)
    # np.roots strips trailing zero coefficients and returns them as roots t = 0
    trailing = (coeffs[:, ::-1] != 0.0).argmax(axis=1)
    n_eig = np.where(zero, 0, 4 - drop - trailing)
    cand = np.zeros((k_rows, 4), dtype=complex)
    for n in np.flatnonzero(np.bincount(n_eig, minlength=5)[1:]) + 1:
        rows = np.flatnonzero(n_eig == n)
        lead = coeffs[rows[:, None], drop[rows, None] + np.arange(n + 1)]
        comp = np.zeros((len(rows), n, n))
        comp[:, 0, :] = -lead[:, 1:] / lead[:, :1]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        cand[rows, :n] = np.linalg.eigvals(comp)
    re, im = cand.real, cand.imag
    im_angle = 2.0 * np.abs(im) / (1.0 + re * re + im * im)
    live = ~zero[:, None] & (np.arange(4) < 4 - drop[:, None]) & ~(im_angle > _IMAG_ANGLE_MAX)
    row = np.nonzero(live)[0]
    r_re, r_im = re[live], im[live]
    with np.errstate(all="ignore"):
        t, residual = _polish_plain(coeffs[row], r_re)
    eps = float(np.finfo(float).eps)
    # travel bound: polishing may contract multiple-root scatter
    # (~eps^(1/3) for triples) but must not migrate to another root
    travel_max = 4.0 * (np.abs(r_im) + 6e-6 * (1.0 + r_re * r_re))
    accept = (residual <= 64.0 * eps * np.square(1.0 + t * t)) & (np.abs(t - r_re) <= travel_max)
    accepted = np.full((k_rows, 4), np.nan)
    accepted[live] = np.where(accept, t, np.nan)

    # clusters: singletons where no merge can happen, cluster_real_roots elsewhere
    singles = _separated(accepted)
    s_row, s_slot = np.nonzero(singles[:, None] & ~np.isnan(accepted))
    c_row, c_t = s_row, accepted[s_row, s_slot]
    c_mult = np.ones(len(s_row), dtype=int)
    if not singles.all():
        merged = [(k, cluster_real_roots(accepted[k][~np.isnan(accepted[k])].tolist()))
                  for k in np.flatnonzero(~singles).tolist()]
        c_row = np.concatenate([s_row, np.array([k for k, c in merged for _ in c], dtype=int)])
        c_t = np.concatenate([c_t, [rep for _, c in merged for rep, _ in c]])
        c_mult = np.concatenate([c_mult, np.array([mult for _, c in merged for _, mult in c],
                                                  dtype=int)])
    # sharpen multiple roots on the derivative where they are simple
    with np.errstate(all="ignore"):
        polished = _polish_root(coeffs[c_row], c_t, c_mult)

    out_t = np.full((k_rows, 5), np.nan)
    out_m = np.zeros((k_rows, 5), dtype=int)
    single_t = np.full((k_rows, 4), np.nan)
    single_t[s_row, s_slot] = polished[:len(s_row)]
    still = singles & _separated(single_t)
    keep = still[s_row]
    out_t[s_row[keep], s_slot[keep]] = polished[:len(s_row)][keep]
    out_m[s_row[keep], s_slot[keep]] = 1
    redo = ~still[c_row]
    if redo.any():
        expanded = defaultdict(list)
        for k, rep, mult in zip(c_row[redo].tolist(), polished[redo].tolist(),
                                c_mult[redo].tolist()):
            expanded[k].extend([rep] * mult)
        for k, ts in expanded.items():
            for slot, (rep, mult) in enumerate(cluster_real_roots(ts)):
                out_t[k, slot], out_m[k, slot] = rep, mult
    dropped = ~zero & (drop > 0)
    out_t[dropped, 4], out_m[dropped, 4] = math.inf, drop[dropped]
    with np.errstate(invalid="ignore"):
        key = np.where(out_m == 0, np.inf, np.where(np.isinf(out_t), math.pi, 2.0 * np.arctan(out_t)))
    order = np.argsort(key, axis=1, kind="stable")[:, :4]
    rows = np.arange(k_rows)[:, None]
    return RootBatch(out_t[rows, order], out_m[rows, order], zero)


@dataclass(frozen=True)
class QuarticRoots:
    """Real roots of M(t) with multiplicities; t = inf encodes theta3 = pi."""

    roots: tuple  # of (t, multiplicity)

    @property
    def count_with_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)


def solve_quartic(m: Quartic) -> QuarticRoots:
    """All real roots of one quartic with multiplicities (see solve_quartics)."""
    batch = solve_quartics(m.coeffs())
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


def _quartic_stack(p: DhParams, R, zr):
    """Quartics (K, 5) of targets (R, zr) from the conic scaled to unit
    max-norm, and that norm (0 where the conic vanishes)."""
    axx, axy, ayy, bx, by, c = _conic(p, R, zr)
    cc = np.empty((6, len(R)))
    cc[:3] = ((axx,), (axy,), (ayy,))
    cc[3], cc[4], cc[5] = bx, by, c
    norm = np.abs(cc).max(axis=0)
    cc /= np.where(norm == 0.0, 1.0, norm)
    return quartic_coeffs_from_conic(cc).T, norm


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
    f1, f2, f3, f4 = (f.u * c3 + f.v * s3 + f.w).T
    two_a1, sa1 = 2.0 * p.a1, math.sin(p.alpha1)
    a = f1 * c2 + f2 * s2
    b = f1 * s2 - f2 * c2
    e1, e2 = a - (R - f3) / two_a1, b - (zr - f4) / sa1
    if not jacobian:
        return e1, e2
    g1, g2, g3, g4 = (f.v * c3 - f.u * s3).T
    return e1, e2, (-b, g1 * c2 + g2 * s2 + g3 / two_a1, a, g1 * s2 - g2 * c2 + g4 / sa1)


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


def _solve_cross_section(p: DhParams, rho: np.ndarray, zr: np.ndarray) -> _CrossSectionIk:
    """IK of targets (rho, z - d1): one engine pass, back-substitution and
    refinement, with theta1 left to the caller's azimuth."""
    R = rho * rho + zr * zr
    f = f_coefficients(p)
    m, norm = _quartic_stack(p, R, zr)
    status = np.where(norm == 0.0, _CONIC_ZERO,
                      np.where(np.abs(m).max(axis=1) < 1e-12, _QUARTIC_ZERO, 0))
    roots = solve_quartics(m)
    row, slot = np.nonzero((roots.mult > 0) & (status == 0)[:, None])
    t, mult = roots.t[row, slot], roots.mult[row, slot]
    inf = np.isinf(t)
    tf = np.where(inf, 0.0, t)
    den = 1.0 + tf * tf
    c3 = np.where(inf, -1.0, (1.0 - tf * tf) / den)
    s3 = np.where(inf, 0.0, 2.0 * tf / den)
    f1, f2, f3, f4 = (f.u * c3[:, None] + f.v * s3[:, None] + f.w).T
    R_root, zr_root = R[row], zr[row]
    det = f1 * f1 + f2 * f2
    solved = ~(det < 1e-14 * np.maximum(1.0, np.abs(R_root)))
    det = np.where(solved, det, 1.0)
    rhs1 = (R_root - f3) / (2.0 * p.a1)
    rhs2 = (zr_root - f4) / math.sin(p.alpha1)
    theta2 = _atan2((f2 * rhs1 + f1 * rhs2) / det, (f1 * rhs1 - f2 * rhs2) / det)
    theta3 = np.array([theta3_of_t(v) for v in t.tolist()], dtype=float)
    theta2, theta3 = _refine(p, f, R_root, zr_root, theta2, theta3, solved & (mult == 1),
                             _half_gaps(row, slot, theta2, theta3, solved, len(rho)))
    x0, y0 = _base_xy(p, theta2, theta3)
    order = np.lexsort((np.where(solved, wrap_angle(theta3), np.inf), row))
    stage = _CrossSectionIk(row, t, mult, theta2, theta3, solved, status, order,
                            _atan2(y0, x0), np.hypot(x0, y0) < 1e-12)
    for a in vars(stage).values():
        a.flags.writeable = False
    return stage


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
# or accept a conjugate pair as one real root: cluster_real_roots merges at a
# circle gap of 2 CLUSTER_RADIUS_T (first pass) or 64 sqrt(eps) (second),
# both at most 2 CLUSTER_RADIUS_T in angle, i.e. CLUSTER_RADIUS_T in chord;
# the factor 2 covers the polished candidates' distance to the exact roots.
_MERGE_CHORD = 2.0 * CLUSTER_RADIUS_T


def _invariant_counts(m: np.ndarray):
    """Distinct real roots of quartic rows (K, 5) from the signs of their
    invariants, and the rows the signs cannot decide, which must go to
    solve_quartics.

    Each row is scaled to max-norm 1 as the engine scales it, and read as
    the binary form in the chart (t or 1/t) with the larger of |a| and |e|,
    so a root at theta3 = pi counts like any other.  Delta < 0: 2 roots;
    Delta > 0: 4 when P = 8ac - 3b^2 < 0 and D = 64a^3e - 16a^2c^2 +
    16ab^2c - 16a^2bd - 3b^4 < 0, else 0 (Rees 1922; Lazard 1988).

    Undecided: all-zero rows, degree drops (|lead| < _DEGREE_DROP_TOL, which
    the engine answers with t = inf), rows with P or D within their rounding
    of 0, and rows with |Delta| inside the band

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
           the engine's imaginary-angle test), leave |Delta| <= W^3
           _MERGE_CHORD^2.  A conjugate pair further apart is accepted only
           where the circle value M / (1 + t^2)^2 dips below 64 eps (plus
           Horner's rounding); M less that much times (1 + t^2)^2 has a
           double root, so there |Delta| <= 128 eps |dDelta/dshift| <=
           2e-10, below W^3 _MERGE_CHORD^2 >= 1.6e-8 (||row||_2 >= 1): the
           second term covers both.
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
    eps = float(np.finfo(float).eps)
    w = 16.0 * np.sum(q * q, axis=1)
    band = 16.0 * eps * (4.0 * i_abs ** 3 + j_abs ** 2) / 27.0 + w ** 3 * _MERGE_CHORD ** 2
    # P and D to their rounding: P carries 3 roundings per term, D at most 9,
    # each bounded in eps, twice the unit roundoff
    p_inv = 8.0 * a * c - 3.0 * b * b
    p_err = 3.0 * eps * (8.0 * aa * ac + 3.0 * ab * ab)
    d_inv = (64.0 * a ** 3 * e - 16.0 * a * a * c * c + 16.0 * a * b * b * c
             - 16.0 * a * a * b * d - 3.0 * b ** 4)
    d_err = 9.0 * eps * (64.0 * aa ** 3 * ae + 16.0 * aa * aa * ac * ac + 16.0 * aa * ab * ab * ac
                         + 16.0 * aa * aa * ab * ad + 3.0 * ab ** 4)
    four = (p_inv < -p_err) & (d_inv < -d_err)
    none = (p_inv > p_err) | (d_inv > d_err)
    undecided = (zero | (np.abs(q[:, 0]) < _DEGREE_DROP_TOL) | ~(np.abs(disc) > band)
                 | ((disc > 0.0) & ~four & ~none))
    return np.where(disc < 0.0, 2, np.where(four, 4, 0)), undecided


def ik_counts(p: DhParams, rho, z):
    """Multiplicity-free IK solution counts for arrays of (rho, z) targets:
    the distinct real roots of each target's quartic, 0 where the conic
    vanishes.  Used by the workspace census.  The quartic's invariants count
    every row they decide (_invariant_counts); the rest, next to Delta = 0,
    go to solve_quartics, whose count each decided row equals."""
    rho = np.asarray(rho, float).ravel()
    zr = np.asarray(z, float).ravel() - p.d1
    m = _quartic_stack(p, rho * rho + zr * zr, zr)[0]
    counts, undecided = _invariant_counts(m)
    if undecided.any():
        counts[undecided] = solve_quartics(m[undecided]).count
    return counts
