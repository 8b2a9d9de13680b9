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
from math import atan2, cos, pi, sin, sqrt  # bare names: cap_lens runs on every outcome law

import numpy as np

from .quadrature import adaptive_simpson  # adaptive_simpson: perfbench/tracing.py wraps it here by name

# Dot products of unit vectors, and arc arguments that are at most 1 in
# exact arithmetic, can exceed [-1, 1] by a few ulps; clamp at most this
# much so rounding noise is absorbed but genuinely bad inputs still fail.
_CLAMP_TOL = 1e-9


def _clamp_unit(x: float) -> float:
    if abs(x) > 1.0:
        if abs(x) > 1.0 + _CLAMP_TOL:
            raise ValueError(f"arc argument {x!r} outside [-1, 1]")
        return math.copysign(1.0, x)
    return x


def clamped_acos(x: float) -> float:
    """arccos with rounding-noise clamping to [-1, 1]."""
    return math.acos(_clamp_unit(x))


@dataclass(frozen=True)
class UnitVector:
    """A point on the unit sphere (doubles as the pure state located there)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(n2 - 1.0) <= 1e-12:  # NaN fails too
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
Z_AXIS = UnitVector(0.0, 0.0, 1.0)


def angle_between(a: UnitVector, b: UnitVector) -> float:
    """Angle in [0, pi] between two unit vectors, as atan2(|a x b|, a . b):
    accurate near 0 and pi, where arccos of the dot product loses half its
    digits."""
    cross = math.hypot(a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z, a.x * b.y - a.y * b.x)
    return math.atan2(cross, a.dot(b))


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
    model's certainty regions differ in it, but no number computed from a
    cap depends on it: containment (contains_cap), areas and overlaps are
    the same either way, since the boundary circle has measure zero and
    never contributes to statistics.
    """

    center: UnitVector
    half_angle: float
    closed: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.half_angle <= math.pi + 1e-12:
            raise ValueError(f"cap half-angle {self.half_angle} outside [0, pi]")

    def contains_cap(self, other: "SectorCap") -> bool:
        """Whether `other` lies in this cap, decided by angle with no slack."""
        return angle_between(self.center, other.center) + other.half_angle <= self.half_angle

    @property
    def area_fraction(self) -> float:
        return cap_area_fraction(self.half_angle)


def cap_area_fraction(half_angle: float) -> float:
    """Uniform-measure fraction of a cap, (1 - cos(half_angle)) / 2 = sin(half_angle / 2)^2."""
    if not 0.0 <= half_angle <= math.pi + 1e-12:
        raise ValueError(f"cap half-angle {half_angle} outside [0, pi]")
    return math.sin(0.5 * half_angle) ** 2


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
    """Uniform-measure fraction of the sphere covered by the two caps' overlap
    (exact, see cap_lens)."""
    return cap_lens(angle_between(a.center, b.center), a.half_angle, b.half_angle)[0]


def cap_lens(gamma: float, rho: float, beta: float) -> tuple[float, float]:
    """Overlap of the cap of half-angle rho centered gamma from an axis with
    the axis cap of half-angle beta {x >= cos(beta)}, x the projection on
    the axis: its uniform-measure fraction of the sphere and its first
    moment (1 / 4 pi) * integral of x dA.

    Exact, with errors small against the smaller cap: empty, the
    smaller cap, a band (complements disjoint), or a lens.  The lens's area
    is two sectors less a kite, 4 (sin(rho / 2)^2 A + sin(beta / 2)^2 B -
    E / 2) out of 4 pi with A, B the center angles and E the excess of the
    triangle with sides gamma, rho, beta, each from its half-angle formula.
    A cap of half-angle r wider than a hemisphere enters as the sphere less
    its complement (weight -cos(r / 2)^2), so no term outgrows the smaller
    cap.  Its moment
    is (by the vector-area identity over its arcs) (sin(rho)^2 cos(gamma) A -
    sin(rho) cos(rho) sin(gamma) sin(A) + sin(beta)^2 B) / 4 pi, with B from
    gamma, rho and A, so that the terms, of order rho for a small cap,
    cancel as the triangle's do.
    """
    if gamma >= rho + beta:
        return 0.0, 0.0
    if gamma <= abs(rho - beta):
        return cap_area_fraction(min(rho, beta)), 0.25 * (sin(rho) ** 2 * cos(gamma) if rho <= beta else sin(beta) ** 2)
    if gamma >= 2.0 * pi - rho - beta:
        return -cos(0.5 * (rho + beta)) * cos(0.5 * (rho - beta)), 0.25 * (sin(rho) ** 2 * cos(gamma) + sin(beta) ** 2)
    angle_a, angle_b, root_s, root_g, root_a, root_b = _lens_angles(gamma, rho, beta)
    cos_a, cos_b, sin_a = cos(rho), cos(beta), sin(rho)
    axis_angle = atan2(sin(angle_a) * sin_a, sin(gamma) * cos_a - cos(gamma) * sin_a * cos(angle_a))
    moment = sin_a * (sin_a * cos(gamma) * angle_a - cos_a * sin(gamma) * sin(angle_a)) + sin(beta) ** 2 * axis_angle
    moment /= 4.0 * pi
    # tan(E / 2) = rise / run; a wide cap's complement keeps the sines and turns gamma to pi - gamma.
    flip = (cos_a < 0.0) != (cos_b < 0.0)
    half_g = sin(0.5 * gamma) if flip else cos(0.5 * gamma)
    rise = 2.0 * root_s * root_g * root_a * root_b
    run = 2.0 * half_g * half_g + abs(cos_a) + abs(cos_b)
    if rise >= run:  # E past pi / 2 leaves no small cap, and the angle sum is as accurate
        p = 2.0 * atan2(root_a * root_b, root_s * root_g)
        return (pi - p - cos_a * angle_a - cos_b * angle_b) / (2.0 * pi), moment
    weight_a = -cos(0.5 * rho) ** 2 if cos_a < 0.0 else sin(0.5 * rho) ** 2
    weight_b = -cos(0.5 * beta) ** 2 if cos_b < 0.0 else sin(0.5 * beta) ** 2
    lens = (weight_a * angle_a + weight_b * angle_b + (1.0 if flip else -1.0) * atan2(rise, run)) / pi
    return (lens + 1.0 if cos_a < 0.0 and cos_b < 0.0 else lens), moment


def _lens_angles(gamma: float, rho_a: float, rho_b: float) -> tuple[float, ...]:
    """Angles A (at the rho_a cap's center) and B of the triangle with sides
    gamma, rho_a, rho_b by tan(X / 2) = sqrt(sin(s - y) sin(s - z) / (sin s sin(s - x))),
    then sqrt(sin s) and sqrt(sin(s - x)) for x = gamma, rho_a, rho_b, each argument in (0, pi]."""
    half = 0.5 * (gamma + rho_a + rho_b)
    root_s = sqrt(sin(half if half < pi else pi))
    root_g = sqrt(sin(0.5 * ((rho_a + rho_b) - gamma)))
    root_a = sqrt(sin(0.5 * (gamma - (rho_a - rho_b))))
    root_b = sqrt(sin(0.5 * (gamma - (rho_b - rho_a))))
    angle_a, angle_b = 2.0 * atan2(root_g * root_a, root_s * root_b), 2.0 * atan2(root_g * root_b, root_s * root_a)
    return angle_a, angle_b, root_s, root_g, root_a, root_b
