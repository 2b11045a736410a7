"""Classical D-H kinematics of a 3R positional chain.

Forward kinematics, the geometric Jacobian, and a closed-form singularity
function det(J)(theta2, theta3) that is independent of theta1.  det(J) is
affine in (cos theta2, sin theta2):

    det(J) = cos(theta2) A(theta3) + sin(theta2) B(theta3) + C(theta3),

where A, B and C combine (1, c3, s3, c3 s3, s3^2) with coefficients that
depend on the D-H parameters only (det_coefficients).  The exact gradient
comes from the same coefficients.  All angles are radians normalized to
[-pi, pi); all operations are pure functions over immutable value types.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, EliminationUnsupportedError

TWO_PI = 2.0 * math.pi

# Exact zeros are the rejected degeneracies; the threshold only guards the
# floating-point representation of "zero".
_ZERO_TOL = 1e-12


def wrap_angle(a):
    """Normalize an angle (or array of angles) to [-pi, pi).  An angle
    already there is returned unchanged, bit for bit; (a + pi) mod 2 pi -
    pi would round it to the ulps of pi."""
    a = np.asarray(a)
    return np.where((a >= -math.pi) & (a < math.pi), a, (a + math.pi) % TWO_PI - math.pi)[()]


def wrap_float(a: float) -> float:
    """wrap_angle of one number as a Python float, without NumPy: float %
    follows the same rule as np.remainder, so the bits are the same."""
    a = float(a)
    return a if -math.pi <= a < math.pi else (a + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class DhParams:
    """Classical D-H parameters of a 3R positional chain.

    alpha3 is fixed to 0 and not stored: it has no effect on the position of
    the end effector.  d1 only translates the workspace along z.
    """

    d1: float
    d2: float
    d3: float
    a1: float
    a2: float
    a3: float
    alpha1: float
    alpha2: float

    @classmethod
    def from_arrays(cls, d, a, alpha) -> "DhParams":
        return cls(d[0], d[1], d[2], a[0], a[1], a[2], alpha[0], alpha[1])

    def as_dict(self) -> dict:
        return {
            "d": [self.d1, self.d2, self.d3],
            "a": [self.a1, self.a2, self.a3],
            "alpha": [self.alpha1, self.alpha2, 0.0],
        }


@dataclass(frozen=True)
class JointConfig:
    """Joint angles (radians), normalized to [-pi, pi) on construction."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", wrap_float(self.theta1))
        object.__setattr__(self, "theta2", wrap_float(self.theta2))
        object.__setattr__(self, "theta3", wrap_float(self.theta3))
        if math.isnan(self.theta1 + self.theta2 + self.theta3):  # wrap_float: inf -> nan
            raise ValueError("joint angles must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.theta1, self.theta2, self.theta3])


@dataclass(frozen=True)
class Pose3:
    """Cartesian end-effector position."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("pose coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class CrossSectionPoint:
    """Point of the axisymmetric workspace half cross-section (rho >= 0, z)."""

    rho: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.rho) and math.isfinite(self.z)):
            raise ValueError(f"cross-section point ({self.rho}, {self.z}) must be finite")
        if self.rho < 0:
            raise ValueError("rho must be non-negative")

    @property
    def R(self) -> float:
        return self.rho * self.rho + self.z * self.z


def length_scale(p: DhParams) -> float:
    """Characteristic link length L = sum |a_i| + sum |d_i|, in the robot's
    unit: scaling every length by lambda scales L by lambda."""
    return abs(p.a1) + abs(p.a2) + abs(p.a3) + abs(p.d1) + abs(p.d2) + abs(p.d3)


def singularity_scale(p: DhParams) -> float:
    """L^3, the scale of det(J) tolerances; det(J) has length dimension 3."""
    return length_scale(p) ** 3


def validate_params(p: DhParams) -> DhParams:
    """Check the structural preconditions of the whole analysis.

    Raises DegenerateGeometryError when a3 = 0 (det(J) carries a global
    factor a3) and EliminationUnsupportedError when a1 = 0 or
    sin(alpha1) = 0 (the R/z reduction divides by both).
    """
    vals = (p.d1, p.d2, p.d3, p.a1, p.a2, p.a3, p.alpha1, p.alpha2)
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("D-H parameters must be finite")
    if abs(p.a3) < _ZERO_TOL:
        raise DegenerateGeometryError("a3 = 0: det(J) vanishes identically")
    if abs(p.a1) < _ZERO_TOL:
        raise EliminationUnsupportedError("a1 = 0: R-equation degenerates")
    if abs(math.sin(p.alpha1)) < _ZERO_TOL:
        raise EliminationUnsupportedError("sin(alpha1) = 0: z-equation degenerates")
    return p


def _dh_transform(theta: float, d: float, a: float, alpha: float) -> np.ndarray:
    # T = RotZ(theta) TransZ(d) TransX(a) RotX(alpha), classical convention
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [ct, -st * ca, st * sa, a * ct],
        [st, ct * ca, -ct * sa, a * st],
        [0.0, sa, ca, d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def _frames(p: DhParams, q: JointConfig):
    T1 = _dh_transform(q.theta1, p.d1, p.a1, p.alpha1)
    T2 = T1 @ _dh_transform(q.theta2, p.d2, p.a2, p.alpha2)
    T3 = T2 @ _dh_transform(q.theta3, p.d3, p.a3, 0.0)
    return T1, T2, T3


def forward_kinematics(p: DhParams, q: JointConfig) -> Pose3:
    """Position of the frame-3 origin in the base frame."""
    _, _, T3 = _frames(p, q)
    return Pose3(float(T3[0, 3]), float(T3[1, 3]), float(T3[2, 3]))


def fk_arm(p: DhParams, theta2, theta3):
    """The end effector at theta1 = 0, before the d1 shift, as (x, y, z)
    arrays: the part of fk_arrays that theta1 does not touch."""
    c2, s2 = np.cos(theta2), np.sin(theta2)
    c3, s3 = np.cos(theta3), np.sin(theta3)
    ca1, sa1 = math.cos(p.alpha1), math.sin(p.alpha1)
    ca2, sa2 = math.cos(p.alpha2), math.sin(p.alpha2)
    # frame-2 position of the end effector
    ux = p.a2 + p.a3 * c3
    uy = ca2 * p.a3 * s3 - sa2 * p.d3
    uz = p.d2 + sa2 * p.a3 * s3 + ca2 * p.d3
    # into frame 1: RotZ(theta2) then the (d2 in u) offset is already applied
    vx = c2 * ux - s2 * uy
    vy = s2 * ux + c2 * uy
    vz = uz
    # into frame 0 minus base rotation: a1 x + RotX(alpha1) v
    wx = p.a1 + vx
    wy = ca1 * vy - sa1 * vz
    wz = sa1 * vy + ca1 * vz
    return wx, wy, wz


def fk_arrays(p: DhParams, theta1, theta2, theta3):
    """Vectorized forward kinematics; returns (x, y, z) broadcast arrays."""
    c1, s1 = np.cos(theta1), np.sin(theta1)
    wx, wy, wz = fk_arm(p, theta2, theta3)
    x = c1 * wx - s1 * wy
    y = s1 * wx + c1 * wy
    z = wz + p.d1
    return x, y, z


def cross_section(pose: Pose3) -> CrossSectionPoint:
    """Project a pose onto the (rho, z) half cross-section."""
    return CrossSectionPoint(math.hypot(pose.x, pose.y), pose.z)


def jacobian(p: DhParams, q: JointConfig) -> np.ndarray:
    """Analytic 3x3 position Jacobian (geometric method: z_i x moment arm)."""
    T1, T2, T3 = _frames(p, q)
    e = T3[:3, 3]
    J = np.empty((3, 3))
    J[:, 0] = np.cross(np.array([0.0, 0.0, 1.0]), e)
    J[:, 1] = np.cross(T1[:3, 2], e - T1[:3, 3])
    J[:, 2] = np.cross(T2[:3, 2], e - T2[:3, 3])
    return J


def det_coefficients(p: DhParams) -> tuple:
    """Rows (A, B, C) of det(J) = cos(theta2) A + sin(theta2) B + C.

    Each row holds the coefficients of one of A(theta3), B(theta3), C(theta3)
    on the basis (1, c3, s3, c3 s3, s3^2), with c3 = cos(theta3) and
    s3 = sin(theta3); they depend on the D-H parameters only.
    """
    ca1, sa1 = math.cos(p.alpha1), math.sin(p.alpha1)
    ca2, sa2 = math.cos(p.alpha2), math.sin(p.alpha2)
    d2, d3 = p.d2, p.d3
    a1, a2, a3 = p.a1, p.a2, p.a3
    rows = (
        (sa1 * a3 * d2 * sa2,
         sa1 * a2 * d2 * sa2 - ca1 * a1 * d3 * sa2 * sa2,
         -sa1 * a2 * a2,
         ca1 * a1 * a3 * ca2 * sa2 - sa1 * a2 * a3,
         -sa1 * a3 * d2 * sa2),
        (ca1 * a1 * a3 * sa2,
         sa1 * d2 * d3 * sa2 * sa2 + ca1 * a1 * a2 * sa2,
         -sa1 * a2 * d3 * sa2,
         -sa1 * a3 * d2 * ca2 * sa2,
         sa1 * a2 * a3 * ca2 - ca1 * a1 * a3 * sa2),
        (0.0,
         -sa1 * a1 * d3 * ca2 * sa2,
         -sa1 * a1 * a2,
         -sa1 * a1 * a3 * sa2 * sa2,
         0.0),
    )
    return tuple(tuple(a3 * k for k in row) for row in rows)


def _d_theta3(row: tuple) -> tuple:
    """Coefficients of the theta3-derivative of a basis combination, on the
    same basis: (1, c3, s3, c3 s3, s3^2)' = (0, -s3, c3, 1 - 2 s3^2, 2 c3 s3)."""
    _, k1, k2, k3, k4 = row
    return (k3, k2, -k1, 2.0 * k4, -2.0 * k3)


def _theta3_terms(theta3, rows):
    """Each row's combination of the basis (1, c3, s3, c3 s3, s3^2) at theta3."""
    # hand-written, not rows: as rows, 615 to 1,003 of 2,160 values per battery robot change bits
    c3, s3 = np.cos(theta3), np.sin(theta3)
    cs, ss = c3 * s3, s3 * s3
    return [k0 + k1 * c3 + k2 * s3 + k3 * cs + k4 * ss for k0, k1, k2, k3, k4 in rows]


def det_jacobian(p: DhParams, theta2, theta3):
    """Closed-form det(J) as a function of (theta2, theta3) only.

    det(J) = cos(theta2) A(theta3) + sin(theta2) B(theta3) + C(theta3), with
    A, B, C from det_coefficients.  Accepts scalars or broadcastable arrays;
    A, B and C are evaluated on theta3 as given, so a column of theta2 against
    a row of theta3 costs the trig and the combinations on the axes and two
    products and two sums on the lattice, and every value equals the one the
    same angles give point by point.  Equals det(jacobian(p, q)) for any theta1.
    """
    a, b, c = _theta3_terms(theta3, det_coefficients(p))
    return np.cos(theta2) * a + np.sin(theta2) * b + c


def det_jacobian_jet(p: DhParams, theta2, theta3):
    """(det J, d/dtheta2, d/dtheta3) from one evaluation of the trig: the
    value is det_jacobian's, bit for bit, and the exact gradient is
    (-sin(theta2) A + cos(theta2) B, cos(theta2) A' + sin(theta2) B' + C')."""
    rows = det_coefficients(p)
    a, b, c, da, db, dc = _theta3_terms(theta3, rows + tuple(_d_theta3(r) for r in rows))
    c2, s2 = np.cos(theta2), np.sin(theta2)
    return c2 * a + s2 * b + c, c2 * b - s2 * a, c2 * da + s2 * db + dc
