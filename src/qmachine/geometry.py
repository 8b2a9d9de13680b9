"""Unit-sphere primitives: vectors, spherical caps, and uniform samplers.

Angles are radians throughout.  Uniform sampling relies on the hat-box
property: for a point uniform on the sphere, its projection on any fixed
axis is uniform on [-1, 1], so drawing (projection, azimuth) uniformly is
exact and branch-free.  The same parametrization restricted to a
projection sub-interval samples a cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_simpson  # adaptive_simpson: perfbench/tracing.py wraps it here by name

# Dot products of unit vectors can exceed [-1, 1] by a few ulps; clamp at
# most this much before acos so rounding noise is absorbed but genuinely
# bad inputs still fail.
_CLAMP_TOL = 1e-9


def clamped_acos(x: float) -> float:
    """arccos with rounding-noise clamping to [-1, 1]."""
    if x > 1.0:
        if x > 1.0 + _CLAMP_TOL:
            raise ValueError(f"cosine argument {x!r} outside [-1, 1]")
        return 0.0
    if x < -1.0:
        if x < -1.0 - _CLAMP_TOL:
            raise ValueError(f"cosine argument {x!r} outside [-1, 1]")
        return math.pi
    return math.acos(x)


@dataclass(frozen=True)
class UnitVector:
    """A point on the unit sphere (doubles as the pure state located there)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if abs(n2 - 1.0) > 1e-12:
            raise ValueError(f"({self.x}, {self.y}, {self.z}) is not unit length")

    @classmethod
    def normalized(cls, x: float, y: float, z: float) -> "UnitVector":
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(x / n, y / n, z / n)

    def to_spherical(self) -> tuple[float, float]:
        """(polar, azimuth); azimuth fixed to 0 at the poles by convention."""
        polar = clamped_acos(self.z)
        if self.x == 0.0 and self.y == 0.0:
            return polar, 0.0
        return polar, math.atan2(self.y, self.x)

    def dot(self, other: "UnitVector") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def __neg__(self) -> "UnitVector":
        return UnitVector(-self.x, -self.y, -self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


X_AXIS = UnitVector(1.0, 0.0, 0.0)
Y_AXIS = UnitVector(0.0, 1.0, 0.0)
Z_AXIS = UnitVector(0.0, 0.0, 1.0)


def angle_between(a: UnitVector, b: UnitVector) -> float:
    """Angle in [0, pi] between two unit vectors."""
    return clamped_acos(a.dot(b))


def orthonormal_frame(axis: UnitVector) -> tuple[UnitVector, UnitVector]:
    """Two unit vectors completing `axis` to a right-handed frame."""
    # Pick the reference axis least aligned with `axis` to avoid degeneracy.
    if abs(axis.x) <= abs(axis.y) and abs(axis.x) <= abs(axis.z):
        ref = (1.0, 0.0, 0.0)
    elif abs(axis.y) <= abs(axis.z):
        ref = (0.0, 1.0, 0.0)
    else:
        ref = (0.0, 0.0, 1.0)
    # e1 = normalize(ref - (ref . axis) axis), e2 = axis x e1
    proj = ref[0] * axis.x + ref[1] * axis.y + ref[2] * axis.z
    e1 = UnitVector.normalized(ref[0] - proj * axis.x, ref[1] - proj * axis.y, ref[2] - proj * axis.z)
    e2 = UnitVector.normalized(
        axis.y * e1.z - axis.z * e1.y,
        axis.z * e1.x - axis.x * e1.z,
        axis.x * e1.y - axis.y * e1.x,
    )
    return e1, e2


def unit_vector_at_angle(axis: UnitVector, polar: float, azimuth: float = 0.0) -> UnitVector:
    """A unit vector making the given angle with `axis`."""
    e1, e2 = orthonormal_frame(axis)
    s, c = math.sin(polar), math.cos(polar)
    ca, sa = math.cos(azimuth), math.sin(azimuth)
    return UnitVector.normalized(
        c * axis.x + s * (ca * e1.x + sa * e2.x),
        c * axis.y + s * (ca * e1.y + sa * e2.y),
        c * axis.z + s * (ca * e1.z + sa * e2.z),
    )


@dataclass(frozen=True)
class SectorCap:
    """Spherical cap {v : v . center >= cos(half_angle)}.

    The open/closed boundary distinction is carried as data because the
    model's certainty regions differ in it, but numerical membership always
    uses >=: the boundary circle has measure zero and never contributes to
    statistics.
    """

    center: UnitVector
    half_angle: float
    closed: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.half_angle <= math.pi + 1e-12:
            raise ValueError(f"cap half-angle {self.half_angle} outside [0, pi]")

    def contains(self, v: UnitVector) -> bool:
        return v.dot(self.center) >= math.cos(self.half_angle)

    @property
    def area_fraction(self) -> float:
        return cap_area_fraction(self.half_angle)


def cap_area_fraction(half_angle: float) -> float:
    """Uniform-measure fraction of a cap: (1 - cos(half_angle)) / 2."""
    if not 0.0 <= half_angle <= math.pi + 1e-12:
        raise ValueError(f"cap half-angle {half_angle} outside [0, pi]")
    return 0.5 * (1.0 - math.cos(half_angle))


def check_band(epsilon: float, d: float) -> None:
    """Raise ValueError unless 0 <= epsilon <= 1 and |d| <= 1 - epsilon + 1e-15."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    if not -1.0 + epsilon - 1e-15 <= d <= 1.0 - epsilon + 1e-15:
        raise ValueError(f"d {d} outside [-1 + epsilon, 1 - epsilon]")


def sector_angles(epsilon: float, d: float) -> tuple[float, float]:
    """Half-angles of the two certainty caps of an (epsilon, d) experiment.

    Returns (up, down): `up` is the half-angle of the cap around the axis
    where outcome 1 is certain (cos up = epsilon + d), `down` the one
    around the antipode where outcome 2 is certain (cos down = epsilon - d).
    """
    check_band(epsilon, d)
    return clamped_acos(epsilon + d), clamped_acos(epsilon - d)


def sample_uniform_sphere(rng: np.random.Generator) -> UnitVector:
    """One draw uniform w.r.t. surface area."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return UnitVector.normalized(r * math.cos(phi), r * math.sin(phi), z)


def sample_uniform_sphere_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) array of independent uniform draws."""
    z = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def sample_uniform_cap_array(rng: np.random.Generator, cap: SectorCap, n: int) -> np.ndarray:
    if cap.half_angle <= 0.0:
        raise ValueError("cannot sample a zero-radius cap")
    z = rng.uniform(math.cos(cap.half_angle), 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    e1, e2 = orthonormal_frame(cap.center)
    basis = np.array([e1.as_array(), e2.as_array(), cap.center.as_array()])
    local = np.column_stack((r * np.cos(phi), r * np.sin(phi), z))
    return local @ basis


def cap_intersection_fraction(a: SectorCap, b: SectorCap) -> float:
    """Uniform-measure fraction of the sphere covered by the two caps' overlap.

    Exact.  With gamma the angle between the centers, the overlap is empty,
    the smaller cap, or (complements disjoint) a band of area(a) + area(b) - 1;
    otherwise a lens of area 2 (pi - P - cos(rho_a) A - cos(rho_b) B) out of
    4 pi, P, A and B being the angles at a rim crossing and at the centers of
    the spherical triangle with sides gamma, rho_a, rho_b.  The half-angle
    formula tan(X / 2) = sqrt(sin(s - y) sin(s - z) / (sin(s) sin(s - x)))
    (s the half perimeter, x opposite X) keeps them accurate at tangent rims.
    """
    rho_a, rho_b = a.half_angle, b.half_angle
    ca, cb = a.center, b.center  # atan2 keeps gamma accurate near 0 and pi, where acos does not
    cross = math.hypot(ca.y * cb.z - ca.z * cb.y, ca.z * cb.x - ca.x * cb.z, ca.x * cb.y - ca.y * cb.x)
    gamma = math.atan2(cross, ca.dot(cb))
    if gamma >= rho_a + rho_b:
        return 0.0
    if gamma <= abs(rho_a - rho_b):
        return cap_area_fraction(min(rho_a, rho_b))
    if gamma >= 2.0 * math.pi - rho_a - rho_b:
        return cap_area_fraction(rho_a) + cap_area_fraction(rho_b) - 1.0
    # sin(s) and sin(s - x) per side x, each argument in (0, pi] despite rounding.
    sin_s = math.sin(min(0.5 * (gamma + rho_a + rho_b), math.pi))
    sin_g = math.sin(0.5 * ((rho_a + rho_b) - gamma))
    sin_a = math.sin(0.5 * (gamma - (rho_a - rho_b)))
    sin_b = math.sin(0.5 * (gamma - (rho_b - rho_a)))
    p = 2.0 * math.atan2(math.sqrt(sin_a * sin_b), math.sqrt(sin_s * sin_g))
    angle_a = 2.0 * math.atan2(math.sqrt(sin_g * sin_a), math.sqrt(sin_s * sin_b))
    angle_b = 2.0 * math.atan2(math.sqrt(sin_g * sin_b), math.sqrt(sin_s * sin_a))
    return (math.pi - p - math.cos(rho_a) * angle_a - math.cos(rho_b) * angle_b) / (2.0 * math.pi)
