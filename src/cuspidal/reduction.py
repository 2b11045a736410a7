"""Pieper reduction: F coefficients, the c3s3-plane conic, and the quartic IK.

The end-effector constraint R = rho^2 + z^2, z splits into two equations that
are linear in (cos theta2, sin theta2) with coefficients F1..F4 affine in
(cos theta3, sin theta3).  Eliminating theta2 yields a conic in the
c3s3-plane whose intersections with the unit circle are the IK solutions;
the tangent half-angle substitution turns that intersection condition into
the quartic M(t).  QuarticPencil keeps both, per robot, as exact
polynomials in (R, z) for the batched Newton refinements in `critical`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dh import (
    CrossSectionPoint,
    DhParams,
    JointConfig,
    Pose3,
    fk_arrays,
    wrap_angle,
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
_REAL_TOL = 1e-7
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

    def at_cs(self, i: int, c3: float, s3: float) -> float:
        return float(self.u[i] * c3 + self.v[i] * s3 + self.w[i])


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


def f_coefficients(p: DhParams) -> FCoefficients:
    """Derive F1..F4 from the frame-2 position of the end effector.

    With (qx, qy, qz) the end-effector position in frame 2 (through T3 and
    the d2/a2/alpha2 offsets), F1 = qx, F2 = -qy, F4 = cos(alpha1) qz and
    F3 = qx^2 + qy^2 + qz^2 + a1^2 reduced modulo c3^2 + s3^2 = 1.
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


def conic_raw(p: DhParams, R, z):
    """Unnormalized conic coefficients [Axx, Axy, Ayy, Bx, By, C].

    R and z may be scalars or broadcastable arrays; the output stacks the six
    coefficients along the first axis.  The quadratic part is independent of
    (R, z).
    """
    return _conic(p, f_coefficients(p), R, z)


def _conic(p: DhParams, f: FCoefficients, R, z):
    sa1 = math.sin(p.alpha1)
    two_a1 = 2.0 * p.a1
    R = np.asarray(R, float)
    z = np.asarray(z, float)
    # P = (R - F3)/(2 a1), Q = (z - F4)/sin(alpha1), both affine in (c3, s3)
    pu, pv, pw = -f.u[2] / two_a1, -f.v[2] / two_a1, (R - f.w[2]) / two_a1
    qu, qv, qw = -f.u[3] / sa1, -f.v[3] / sa1, (z - f.w[3]) / sa1
    axx = pu * pu + qu * qu - f.u[0] ** 2 - f.u[1] ** 2
    axy = pu * pv + qu * qv - f.u[0] * f.v[0] - f.u[1] * f.v[1]
    ayy = pv * pv + qv * qv - f.v[0] ** 2 - f.v[1] ** 2
    bx = pu * pw + qu * qw - f.u[0] * f.w[0] - f.u[1] * f.w[1]
    by = pv * pw + qv * qw - f.v[0] * f.w[0] - f.v[1] * f.w[1]
    c = pw * pw + qw * qw - f.w[0] ** 2 - f.w[1] ** 2
    return np.stack(np.broadcast_arrays(axx, axy, ayy, bx, by, c))


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


def quartic_coeffs_from_conic(cc: np.ndarray) -> np.ndarray:
    """Tangent half-angle substitution, cleared by (1 + t^2)^2.

    Works on a coefficient stack of shape (6, ...) and returns (5, ...) with
    the leading coefficient equal to the conic value at (c3, s3) = (-1, 0).
    """
    axx, axy, ayy, bx, by, c = cc
    return np.stack(np.broadcast_arrays(
        axx - 2 * bx + c,
        -4 * axy + 4 * by,
        -2 * axx + 4 * ayy + 2 * c,
        4 * axy + 4 * by,
        axx + 2 * bx + c,
    ))


# Negating the linear conic coefficients maps the chart t = tan(theta3/2) to
# u = tan((theta3 - pi)/2), where roots near theta3 = pi are well conditioned.
_FLIP = np.array([1.0, 1.0, 1.0, -1.0, -1.0, 1.0])

# d^j/dt^j of a quartic as weights on its coefficients, shifted right by j so
# that Horner over all five slots evaluates every derivative order at once
_JET_INDEX = np.array([[max(i - j, 0) for i in range(5)] for j in range(5)])
_JET_WEIGHT = np.array([[math.perm(4 - (i - j), j) if i >= j else 0.0 for i in range(5)]
                        for j in range(5)])


def quartic_jet(coeffs: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """Derivatives 0..order of quartics at t, by Horner.

    `coeffs` has shape (K, ..., 5), highest degree first, and `t` shape (K,);
    the result has shape (K, ..., order + 1).  Each value is the one
    np.polyval(np.polyder(coeffs, j), t) gives.
    """
    d = coeffs[..., _JET_INDEX[:order + 1]] * _JET_WEIGHT[:order + 1]
    tt = np.reshape(t, (-1,) + (1,) * (d.ndim - 2))
    acc = d[..., 0]
    for i in range(1, 5):
        acc = acc * tt + d[..., i]
    return acc


class QuarticPencil:
    """The conic and its quartic M(t) as exact polynomials in (R, z), per robot.

    cc(R, z) = C0 + R C_R + z C_z + R^2 C_RR + z^2 C_zz: the quadratic part
    of the conic is constant, Bx and By are affine in (R, z), and C is
    quadratic with no cross term.  Both charts are kept (index 1 holds the
    flipped one, see _FLIP), so M and its R and z partials at any batch of
    points in either chart are a few vectorised products.  Grid callers use
    conic_raw instead, whose arithmetic is the reference.
    """

    def __init__(self, p: DhParams):
        f = f_coefficients(p)
        sa1 = math.sin(p.alpha1)
        two_a1 = 2.0 * p.a1
        # conic_raw with P = P0 + R / (2 a1) and Q = Q0 + z / sin(alpha1)
        pu, pv, pw0 = -f.u[2] / two_a1, -f.v[2] / two_a1, -f.w[2] / two_a1
        qu, qv, qw0 = -f.u[3] / sa1, -f.v[3] / sa1, -f.w[3] / sa1
        c0 = _conic(p, f, 0.0, 0.0)
        c_r = np.array([0.0, 0.0, 0.0, pu / two_a1, pv / two_a1, 2.0 * pw0 / two_a1])
        c_z = np.array([0.0, 0.0, 0.0, qu / sa1, qv / sa1, 2.0 * qw0 / sa1])
        c_rr = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / (two_a1 * two_a1)])
        c_zz = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0 / (sa1 * sa1)])
        terms = np.array([c0, c_r, c_z, c_rr, c_zz])
        self.conic_terms = np.stack([terms, terms * _FLIP])      # (chart, term, 6)
        self.quartic_terms = np.moveaxis(                          # (chart, term, 5)
            quartic_coeffs_from_conic(np.moveaxis(self.conic_terms, -1, 0)), 0, -1)

    @staticmethod
    def _combine(terms, R, z):
        R = R[:, None]
        z = z[:, None]
        return terms[:, 0] + R * terms[:, 1] + z * terms[:, 2] + R * R * terms[:, 3] + z * z * terms[:, 4]

    def conic(self, R, z, flip) -> np.ndarray:
        """Raw conic coefficients (K, 6) at points (R, z) in charts `flip`, all (K,)."""
        return self._combine(self.conic_terms[flip.astype(int)], R, z)

    def quartic(self, R, z, flip) -> np.ndarray:
        """M and its R and z partials, stacked as (K, 3, 5)."""
        q = self.quartic_terms[flip.astype(int)]
        R2 = 2.0 * R[:, None]
        z2 = 2.0 * z[:, None]
        return np.stack([self._combine(q, R, z),
                         q[:, 1] + R2 * q[:, 3],
                         q[:, 2] + z2 * q[:, 4]], axis=1)

    def normalized_quartic(self, R, z, flip) -> np.ndarray:
        """M (K, 5) from the conic scaled to max |coefficient| = 1, the scale
        on which every residual threshold is stated."""
        cc = self.conic(R, z, flip)
        cc = cc / np.maximum(np.max(np.abs(cc), axis=1), 1e-300)[:, None]
        return quartic_coeffs_from_conic(cc.T).T


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


def _t_is_real(root: complex) -> bool:
    # realness measured on the theta3 circle: Im(theta3) ~ 2 Im(t)/(1+Re(t)^2)
    return abs(root.imag) <= _REAL_TOL * (1.0 + root.real * root.real)


def _polish_plain(coeffs: np.ndarray, t: float, iters: int = 18) -> float:
    """Line-searched Newton on M itself; contracts multiple-root scatter."""
    dcoeffs = np.polyder(coeffs)
    best_t, best_val = t, abs(np.polyval(coeffs, t))
    for _ in range(iters):
        f = np.polyval(coeffs, t)
        df = np.polyval(dcoeffs, t)
        if df == 0.0 or not math.isfinite(df):
            break
        step = f / df
        lam = 1.0
        for _ in range(8):
            tn = t - lam * step
            if abs(np.polyval(coeffs, tn)) < abs(f):
                t = tn
                break
            lam *= 0.5
        else:
            break
        val = abs(np.polyval(coeffs, t))
        if val < best_val:
            best_t, best_val = t, val
        if val == 0.0:
            break
    return float(best_t)


def _circle_gap(t1: float, t2: float) -> float:
    """Distance between roots as seen on the theta3 circle, in t units near 0."""
    d_t = abs(t1 - t2)
    d_ang = abs(wrap_angle(theta3_of_t(t1) - theta3_of_t(t2)))
    return min(d_t, 0.5 * float(d_ang))


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
            gap_angle = abs(float(wrap_angle(theta3_of_t(rep_a) - theta3_of_t(rep_b))))
            if _circle_gap(rep_a, rep_b) < CLUSTER_RADIUS_T or gap_angle < radius_angle:
                members = mem_a + mem_b
                out[k] = (float(np.mean(members)), m_sum, members)
                del out[k + 1]
                merged = True
                break
    return [(rep, mult) for rep, mult, _ in out]


def _polish_root(coeffs: np.ndarray, t: float, mult: int, iters: int = 12) -> float:
    """Newton polishing on the (mult-1)-th derivative, where the root is simple."""
    poly = coeffs
    for _ in range(mult - 1):
        poly = np.polyder(poly)
    dpoly = np.polyder(poly)
    best_t, best_val = t, abs(np.polyval(poly, t))
    for _ in range(iters):
        f = np.polyval(poly, t)
        df = np.polyval(dpoly, t)
        if df == 0.0:
            break
        t = t - f / df
        val = abs(np.polyval(poly, t))
        if val < best_val:
            best_t, best_val = t, val
        if val == 0.0:
            break
    return float(best_t)


@dataclass(frozen=True)
class QuarticRoots:
    """Real roots of M(t) with multiplicities; t = inf encodes theta3 = pi."""

    roots: tuple  # of (t, multiplicity)

    @property
    def count_with_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)


def solve_quartic(m: Quartic) -> QuarticRoots:
    """All real roots with multiplicities: companion eigenvalues, plain-Newton
    polishing, backward-error realness, then clustering.

    Polishing runs before clustering because the eigenvalue scatter of an
    m-fold root scales like eps^(1/m), well beyond the cluster radius for
    triple roots; Newton contracts that scatter back under it.  A candidate
    counts as real when its polished residual reaches the attainable
    floating-point floor.  A leading coefficient within 1e-10 of ||coeffs||
    drops the degree and injects the theta3 = pi solution (t = inf) with the
    dropped multiplicity.
    """
    coeffs = m.coeffs()
    norm = float(np.max(np.abs(coeffs)))
    if norm < 1e-300:
        raise ZeroPolynomialError("all quartic coefficients are zero")
    coeffs = coeffs / norm
    drop = 0
    while drop < 4 and abs(coeffs[drop]) < _DEGREE_DROP_TOL:
        drop += 1
    finite = coeffs[drop:]
    eps = float(np.finfo(float).eps)
    accepted: list = []
    if len(finite) > 1:
        for r in np.roots(finite):
            im_angle = 2.0 * abs(r.imag) / (1.0 + r.real * r.real + r.imag * r.imag)
            if im_angle > 1e-3:
                continue
            t = _polish_plain(coeffs, float(r.real))
            residual = abs(float(np.polyval(coeffs, t)))
            # travel bound: polishing may contract multiple-root scatter
            # (~eps^(1/3) for triples) but must not migrate to another root
            travel_max = 4.0 * (abs(r.imag) + 6e-6 * (1.0 + r.real * r.real))
            if (residual <= 64.0 * eps * (1.0 + t * t) ** 2
                    and abs(t - r.real) <= travel_max):
                accepted.append(t)
    roots = cluster_real_roots(accepted)
    # sharpen multiple roots on the derivative where they are simple
    roots = [(_polish_root(coeffs, rep, mult), mult) for rep, mult in roots]
    expanded: list = []
    for rep, mult in roots:
        expanded.extend([rep] * mult)
    roots = cluster_real_roots(expanded)
    if drop > 0:
        roots.append((math.inf, drop))
    roots.sort(key=lambda rm: theta3_of_t(rm[0]))
    return QuarticRoots(tuple(roots))


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


def _theta12_from_t(p: DhParams, f: FCoefficients, R: float, z: float, t: float):
    """Solve the 2x2 linear system for (cos, sin) theta2; returns (theta2, ok)."""
    if math.isinf(t):
        c3, s3 = -1.0, 0.0
    else:
        den = 1.0 + t * t
        c3, s3 = (1.0 - t * t) / den, 2.0 * t / den
    f1 = f.at_cs(0, c3, s3)
    f2 = f.at_cs(1, c3, s3)
    det = f1 * f1 + f2 * f2
    if det < 1e-14 * max(1.0, abs(R)):
        return 0.0, False
    rhs1 = (R - f.at_cs(2, c3, s3)) / (2.0 * p.a1)
    rhs2 = (z - f.at_cs(3, c3, s3)) / math.sin(p.alpha1)
    c2 = (f1 * rhs1 - f2 * rhs2) / det
    s2 = (f2 * rhs1 + f1 * rhs2) / det
    return math.atan2(s2, c2), True


def solve_ik_cross_section(p: DhParams, target: CrossSectionPoint) -> IkSolutionSet:
    """IK in the half cross-section; theta1 = 0 solutions (target y = 0 plane).

    The returned configurations reproduce (rho, z); rotating theta1 sweeps
    the full circle of workspace points with the same cross-section.
    """
    return solve_ik(p, Pose3(target.rho, 0.0, target.z))


def solve_ik(p: DhParams, target: Pose3) -> IkSolutionSet:
    """All IK solutions of a Cartesian target with multiplicities.

    Roots of the quartic give theta3; theta2 comes from the linear system in
    (cos theta2, sin theta2); theta1 from planar angle matching in (x, y).
    Roots whose back-substitution matrix is singular are flagged, not dropped.
    """
    zr = target.z - p.d1
    rho = math.hypot(target.x, target.y)
    R = rho * rho + zr * zr
    cc = conic_raw(p, R, zr)
    norm = float(np.max(np.abs(cc)))
    if norm == 0.0:
        raise DegenerateConicError("conic is identically zero")
    m_coeffs = quartic_coeffs_from_conic(cc / norm)
    if float(np.max(np.abs(m_coeffs))) < 1e-12:
        raise ZeroPolynomialError("conic is the unit circle: M(t) vanishes identically")
    quartic = Quartic(*(float(v) for v in m_coeffs))
    roots = solve_quartic(quartic)
    f = f_coefficients(p)
    phi_target = math.atan2(target.y, target.x) if rho > 1e-14 else 0.0
    sols = []
    flagged = []
    for t, mult in roots.roots:
        theta3 = theta3_of_t(t)
        theta2, ok = _theta12_from_t(p, f, R, zr, t)
        if not ok:
            flagged.append((t, mult))
            continue
        x0, y0, _ = fk_arrays(p, 0.0, theta2, theta3)
        rho0 = math.hypot(float(x0), float(y0))
        theta1 = 0.0 if rho0 < 1e-12 else phi_target - math.atan2(float(y0), float(x0))
        sols.append(IkSolution(JointConfig(theta1, theta2, theta3), mult, t))
    sols.sort(key=lambda s: s.config.theta3)
    return IkSolutionSet(tuple(sols), tuple(flagged))


def ik_counts(p: DhParams, rho, z):
    """Multiplicity-free IK solution counts for arrays of (rho, z) targets.

    Batched companion-matrix eigensolve; points with a degree drop fall back
    to the scalar path.  Used by the workspace census.
    """
    rho = np.asarray(rho, float).ravel()
    zz = np.asarray(z, float).ravel() - p.d1
    R = rho * rho + zz * zz
    cc = conic_raw(p, R, zz)
    cc = cc / np.maximum(np.max(np.abs(cc), axis=0), 1e-300)
    m = quartic_coeffs_from_conic(cc)  # (5, K)
    counts = np.zeros(len(rho), dtype=int)
    lead_ok = np.abs(m[0]) >= _DEGREE_DROP_TOL
    idx = np.nonzero(lead_ok)[0]
    if len(idx) > 0:
        mm = m[:, idx] / m[0, idx]
        comp = np.zeros((len(idx), 4, 4))
        comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
        comp[:, 0, :] = -mm[1:].T
        eig = np.linalg.eigvals(comp)
        for row, k in enumerate(idx):
            ts = [r.real for r in eig[row] if _t_is_real(r)]
            counts[k] = len(cluster_real_roots(ts))
    for k in np.nonzero(~lead_ok)[0]:
        quartic = Quartic(*(float(v) for v in m[:, k]))
        try:
            counts[k] = len(solve_quartic(quartic).roots)
        except ZeroPolynomialError:
            counts[k] = 0
    return counts
