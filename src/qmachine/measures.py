"""Mixed states as measures on the sphere, certainty regions, conditioning.

The mixed-state family is deliberately closed and small: the uniform
measure, uniform-on-a-cap, and finite mixtures of those.  Every measure
the model needs lives in this family and admits either a closed form or a
1-D quadrature.

Certainty regions: eig(A) collects the states for which the experiment's
outcome is certainly in A, pos(A) those for which it is possible.  Both
are spherical caps (or the whole sphere / nothing), so measuring them is
cap arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConditioningError
from .geometry import (
    SectorCap,
    UnitVector,
    angle_between,
    cap_intersection_fraction,
    clamped_acos,
    sample_uniform_cap_array,
    sample_uniform_sphere_array,
)
from .machine import EpsilonExperiment, Outcome, p1_given_projection
from .quadrature import adaptive_simpson


class OutcomeSet(enum.Enum):
    O1 = "o1"
    O2 = "o2"
    BOTH = "both"
    NEITHER = "neither"

    @classmethod
    def of(cls, outcome: Outcome) -> "OutcomeSet":
        return cls.O1 if outcome is Outcome.O1 else cls.O2


@dataclass(frozen=True)
class EmptyRegion:
    pass


EMPTY = EmptyRegion()

Region = Union[SectorCap, EmptyRegion]


@dataclass(frozen=True)
class Uniform:
    """The uniform probability measure on the whole sphere."""


UNIFORM = Uniform()


@dataclass(frozen=True)
class CapUniform:
    """Uniform probability measure restricted to a cap of positive area."""

    cap: SectorCap

    def __post_init__(self) -> None:
        if self.cap.area_fraction <= 0.0:
            raise ValueError("CapUniform needs a cap of positive area")


@dataclass(frozen=True)
class Mixture:
    """Finite convex combination of mixed states."""

    components: tuple[tuple[float, "MixedState"], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        if any(w < 0.0 for w, _ in self.components):
            raise ValueError("mixture weights must be nonnegative")
        if abs(sum(w for w, _ in self.components) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")


MixedState = Union[Uniform, CapUniform, Mixture]


def eig_set(e: EpsilonExperiment, a: OutcomeSet) -> Region:
    """States for which the outcome certainly falls in `a`.

    For a single outcome it is the cap beyond the band: closed for
    epsilon > 0, open for epsilon = 0.
    """
    if a is OutcomeSet.BOTH:
        return SectorCap(e.axis, math.pi, closed=True)
    if a is OutcomeSet.NEITHER:
        return EMPTY
    closed = e.epsilon > 0.0
    if a is OutcomeSet.O1:
        return SectorCap(e.axis, clamped_acos(e.epsilon + e.d), closed=closed)
    return SectorCap(-e.axis, clamped_acos(e.epsilon - e.d), closed=closed)


def pos_set(e: EpsilonExperiment, a: OutcomeSet) -> Region:
    """States for which an outcome in `a` is possible (complement of the
    opposite certainty cap); open for epsilon > 0, closed for epsilon = 0."""
    if a is OutcomeSet.BOTH:
        return SectorCap(e.axis, math.pi, closed=True)
    if a is OutcomeSet.NEITHER:
        return EMPTY
    closed = e.epsilon == 0.0
    if a is OutcomeSet.O1:
        return SectorCap(e.axis, math.pi - clamped_acos(e.epsilon - e.d), closed=closed)
    return SectorCap(-e.axis, math.pi - clamped_acos(e.epsilon + e.d), closed=closed)


def measure_of(mu: MixedState, region: Region, tol: float = 1e-9) -> float:
    """mu(region) for a cap (or empty) region."""
    if isinstance(region, EmptyRegion):
        return 0.0
    if isinstance(mu, Uniform):
        return region.area_fraction
    if isinstance(mu, CapUniform):
        return cap_intersection_fraction(mu.cap, region, tol) / mu.cap.area_fraction
    return sum(w * measure_of(m, region, tol) for w, m in mu.components)


def _azimuthal_mean_p1(e: EpsilonExperiment, polar: float, cos_gamma: float, sin_gamma: float) -> float:
    """Mean of the outcome-1 kernel over the azimuth circle at `polar` from
    a cap center that makes angle gamma with the experiment axis.

    On the circle the projection is x = A + B cos(phi); averaging the
    clamped-linear kernel over phi reduces to two arccos breakpoints.
    """
    A = math.cos(polar) * cos_gamma
    B = math.sin(polar) * sin_gamma
    if e.epsilon == 0.0:
        if B < 1e-15:
            return p1_given_projection(e, A)
        u = (e.d - A) / B
        if u >= 1.0:
            return 0.0
        if u <= -1.0:
            return 1.0
        return math.acos(u) / math.pi
    if B < 1e-15:
        return p1_given_projection(e, A)
    lo, hi = e.band_low, e.band_high
    # phi_a: where x crosses the top of the band; phi_b: the bottom.
    ua = (hi - A) / B
    ub = (lo - A) / B
    phi_a = 0.0 if ua >= 1.0 else (math.pi if ua <= -1.0 else math.acos(ua))
    phi_b = 0.0 if ub >= 1.0 else (math.pi if ub <= -1.0 else math.acos(ub))
    ramp = (A - lo) * (phi_b - phi_a) + B * (math.sin(phi_b) - math.sin(phi_a))
    return (phi_a + ramp / (2.0 * e.epsilon)) / math.pi


def cap_averaged_p1(e: EpsilonExperiment, cap: SectorCap, tol: float = 1e-9) -> float:
    """Average outcome-1 probability over a cap-uniform state.

    1-D adaptive quadrature over the polar angle from the cap center; the
    azimuthal average is analytic, so kinks only occur where a band edge
    crosses a ring, and those polar angles are passed as breakpoints.
    """
    gamma = angle_between(cap.center, e.axis)
    cg, sg = math.cos(gamma), math.sin(gamma)
    rho = cap.half_angle

    # Projection range of the cap onto the experiment axis; when it clears
    # the band entirely the answer is exact.
    x_min = math.cos(gamma + rho) if gamma + rho <= math.pi else -1.0
    x_max = math.cos(gamma - rho) if gamma - rho >= 0.0 else 1.0
    lo_edge = e.d if e.epsilon == 0.0 else e.band_low
    hi_edge = e.d if e.epsilon == 0.0 else e.band_high
    if x_min >= hi_edge:
        return 1.0
    if x_max <= lo_edge:
        return 0.0

    edges = {e.d} if e.epsilon == 0.0 else {e.band_low, e.band_high}
    breaks: set[float] = set()
    for edge in edges:
        if -1.0 < edge < 1.0:
            a = math.acos(edge)
            for t in (gamma - a, a - gamma, gamma + a, 2.0 * math.pi - gamma - a):
                if 0.0 < t < rho:
                    breaks.add(t)

    def integrand(t: float) -> float:
        return _azimuthal_mean_p1(e, t, cg, sg) * math.sin(t)

    norm = 1.0 - math.cos(rho)
    raw = adaptive_simpson(integrand, 0.0, rho, tol * norm, breakpoints=breaks)
    return min(1.0, max(0.0, raw / norm))


def outcome_probability_mixed(
    e: EpsilonExperiment, a: OutcomeSet, mu: MixedState, tol: float = 1e-9
) -> float:
    """Probability of an outcome in `a` when the state is drawn from mu.

    Uniform base measure has the closed form (1 -+ d) / 2, independent of
    epsilon; cap-uniform components go through the polar quadrature.
    """
    if a is OutcomeSet.BOTH:
        return 1.0
    if a is OutcomeSet.NEITHER:
        return 0.0
    if a is OutcomeSet.O2:
        return outcome_probability_mixed(e.flipped(), OutcomeSet.O1, mu, tol)
    if isinstance(mu, Uniform):
        return 0.5 * (1.0 - e.d)
    if isinstance(mu, CapUniform):
        return cap_averaged_p1(e, mu.cap, tol)
    return sum(w * outcome_probability_mixed(e, a, m, tol) for w, m in mu.components)


@dataclass(frozen=True)
class SandwichResult:
    lower: float  # mu(eig)
    mid: float    # P(a, mu)
    upper: float  # mu(pos)
    holds: bool


def sandwich_check(
    e: EpsilonExperiment, a: OutcomeSet, mu: MixedState, tol: float = 1e-9
) -> SandwichResult:
    """The certainty/possibility bounds around the outcome probability."""
    lower = measure_of(mu, eig_set(e, a), tol)
    upper = measure_of(mu, pos_set(e, a), tol)
    mid = outcome_probability_mixed(e, a, mu, tol)
    holds = lower <= mid + 1e-9 and mid <= upper + 1e-9
    return SandwichResult(lower, mid, upper, holds)


def is_classical(e: EpsilonExperiment, mu: MixedState, tol: float = 1e-9) -> bool:
    """True when certainty and possibility regions agree up to mu-measure
    zero for both outcomes, i.e. outcomes are predetermined almost surely."""
    for a in (OutcomeSet.O1, OutcomeSet.O2):
        if abs(measure_of(mu, eig_set(e, a), tol) - measure_of(mu, pos_set(e, a), tol)) > 1e-9:
            return False
    return True


def _cap_contains_cap(outer: SectorCap, inner: SectorCap) -> bool:
    return angle_between(outer.center, inner.center) + inner.half_angle <= outer.half_angle + 1e-12


def condition(mu: MixedState, f: EpsilonExperiment, a: OutcomeSet, tol: float = 1e-9) -> MixedState:
    """Restrict mu to the states where f's outcome is certainly in `a`, and
    renormalize: the preparation that guarantees that outcome.

    Raises ConditioningError when the certainty region has mu-measure zero
    (e.g. epsilon = 1 under the uniform measure: no state short of the axis
    point itself makes the outcome certain).
    """
    region = eig_set(f, a)
    if isinstance(region, EmptyRegion) or measure_of(mu, region, tol) <= 0.0:
        raise ConditioningError(f"outcome set {a.value} of {f} cannot be prepared with certainty")
    if isinstance(mu, Uniform):
        return CapUniform(region)
    if isinstance(mu, CapUniform):
        if _cap_contains_cap(region, mu.cap):
            return mu
        if _cap_contains_cap(mu.cap, region):
            return CapUniform(region)
        # The restriction would be uniform on a lens, which leaves the
        # closed mixed-state family; nothing in the model needs it.
        raise ConditioningError("restriction of a cap-uniform state to a partially overlapping cap is not representable")
    parts = []
    for w, m in mu.components:
        mass = w * measure_of(m, region, tol)
        if mass > 0.0:
            parts.append((mass, condition(m, f, a, tol)))
    total = sum(w for w, _ in parts)
    return Mixture(tuple((w / total, m) for w, m in parts))


def sample_projection(mu: MixedState, axis: UnitVector, rng: np.random.Generator, n: int) -> np.ndarray:
    """Projections v . axis of n states drawn from mu.

    Uniform: x ~ U(-1, 1) (hat-box).  Cap of half-angle rho, center gamma
    from the axis: x = z cos gamma + sqrt(1 - z^2) cos(phi) sin gamma with
    z ~ U(cos rho, 1), phi ~ U(0, 2 pi).  Mixture: a multinomial split, in
    component order (callers count outcomes, which ignores order).
    """
    if isinstance(mu, Uniform):
        return rng.uniform(-1.0, 1.0, n)
    if isinstance(mu, CapUniform):
        gamma = angle_between(mu.cap.center, axis)
        z = rng.uniform(math.cos(mu.cap.half_angle), 1.0, n)
        cos_phi = np.cos(rng.uniform(0.0, 2.0 * math.pi, n))
        return z * math.cos(gamma) + np.sqrt(1.0 - z * z) * cos_phi * math.sin(gamma)
    weights = np.array([w for w, _ in mu.components])
    counts = rng.multinomial(n, weights / weights.sum())
    return np.concatenate([sample_projection(m, axis, rng, k) for (_, m), k in zip(mu.components, counts)])


def sample_state_array(mu: MixedState, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(mu, Uniform):
        return sample_uniform_sphere_array(rng, n)
    if isinstance(mu, CapUniform):
        return sample_uniform_cap_array(rng, mu.cap, n)
    weights = np.array([w for w, _ in mu.components])
    counts = rng.multinomial(n, weights / weights.sum())
    blocks = [sample_state_array(m, rng, k) for (_, m), k in zip(mu.components, counts) if k]
    out = np.concatenate(blocks)
    rng.shuffle(out, axis=0)
    return out
