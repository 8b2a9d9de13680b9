"""Mixed states as measures on the sphere, certainty regions, conditioning.

The mixed-state family is deliberately closed and small: the uniform
measure, uniform-on-a-cap, and finite mixtures of those.  Every measure
the model needs lives in this family; outcome probabilities under it take
a closed form: for a cap, the band average, over where the band breaks,
of the cap's exact overlap with the axis cap above that point, which the
lens's first moment (geometry.cap_moment) gives without quadrature.

Certainty regions: eig(A) collects the states for which the experiment's
outcome is certainly in A, pos(A) those for which it is possible.  Both
are spherical caps (or the whole sphere / nothing), so measuring them is
exact cap arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConditioningError
from .geometry import (
    SectorCap,
    UnitVector,
    angle_between,
    cap_intersection_fraction,
    cap_moment,
    cap_overlap,
    sample_uniform_cap_array,
    sample_uniform_sphere_array,
    sector_angles,
)
from .machine import EpsilonExperiment, Outcome, near_threshold, ring_exact, ring_into
from .quadrature import adaptive_simpson  # adaptive_simpson: perfbench/tracing.py wraps it here by name


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
    up, down = sector_angles(e.epsilon, e.d)
    center, half_angle = (e.axis, up) if a is OutcomeSet.O1 else (-e.axis, down)
    return SectorCap(center, half_angle, closed=e.epsilon > 0.0)


def pos_set(e: EpsilonExperiment, a: OutcomeSet) -> Region:
    """States for which an outcome in `a` is possible: the complement of the
    certainty cap of the opposite outcome, so open for epsilon > 0 and
    closed for epsilon = 0."""
    if a is OutcomeSet.BOTH or a is OutcomeSet.NEITHER:
        return eig_set(e, a)
    c = eig_set(e, OutcomeSet.O2 if a is OutcomeSet.O1 else OutcomeSet.O1)
    return SectorCap(-c.center, math.pi - c.half_angle, closed=not c.closed)


def measure_of(mu: MixedState, region: Region) -> float:
    """mu(region) for a cap (or empty) region, exact (cap arithmetic)."""
    if isinstance(region, EmptyRegion):
        return 0.0
    if isinstance(mu, Uniform):
        return region.area_fraction
    if isinstance(mu, CapUniform):
        return cap_intersection_fraction(mu.cap, region) / mu.cap.area_fraction
    return sum(w * measure_of(m, region) for w, m in mu.components)


_SHIFT = 2.0**-49
_POINT_WIDTH = 1e-7


def cap_averaged_p1(e: EpsilonExperiment, cap: SectorCap) -> tuple[float, float]:
    """Average outcome-1 probability over a cap-uniform state, and a bound on its error.

    The band breaks at s uniform on [d - epsilon, d + epsilon]; outcome 1
    happens when s lies below the state's projection x.  So the answer is the
    band average of m(s) = P(x > s) = -G'(s), G(a) = E[(x - a)+] =
    (cap_moment - a cap_overlap) / area at acos(a): (lo - band_low + G(lo) -
    G(hi)) / width, [lo, hi] the band clipped to [-1, 1] (below x's range G is
    E[x] - a, so a band holding the range takes no lens).  Bound: both ends
    shifted by _SHIFT (past the rounding of the edges, gamma and acos(s)) plus
    G's rounding (lens terms of order rho over an area of order rho^2), over
    the width.  A band narrower than _POINT_WIDTH or clear of x's range takes
    m(d), bounded by m's spread (m falls with s) over the band widened by _SHIFT.
    """
    gamma = angle_between(cap.center, e.axis)
    rho = cap.half_angle
    area = cap.area_fraction
    width = e.band_high - e.band_low
    x_min = math.cos(gamma + rho) if gamma + rho <= math.pi else -1.0
    x_max = math.cos(gamma - rho) if gamma - rho >= 0.0 else 1.0

    def share(s: float) -> float:  # m(s); at epsilon = 0, d may lie 1e-15 outside [-1, 1]
        return cap_overlap(gamma, rho, math.acos(min(1.0, max(-1.0, s)))) / area

    if width < _POINT_WIDTH or x_min >= e.band_high or x_max <= e.band_low:
        return share(e.d), share(e.band_low - _SHIFT) - share(e.band_high + _SHIFT) + _SHIFT
    lo, hi = max(e.band_low, -1.0), min(e.band_high, 1.0)
    g_lo, g_hi = (cap_moment(gamma, rho, math.acos(a)) / area - a * share(a) for a in (lo, hi))
    return min(1.0, max(0.0, (lo - e.band_low + g_lo - g_hi) / width)), (2.0 + 1.0 / math.sin(0.5 * rho)) * _SHIFT / width


def outcome_law(e: EpsilonExperiment, a: OutcomeSet, mu: MixedState) -> tuple[float, float]:
    """Probability of an outcome in `a` when the state is drawn from mu, and a
    bound on its error: (1 -+ d) / 2 for the uniform measure, independent of
    epsilon, and the band average (cap_averaged_p1) for a cap-uniform one."""
    if a is OutcomeSet.BOTH:
        return 1.0, 0.0
    if a is OutcomeSet.NEITHER:
        return 0.0, 0.0
    if a is OutcomeSet.O2:
        return outcome_law(e.flipped(), OutcomeSet.O1, mu)
    if isinstance(mu, Uniform):
        return 0.5 * (1.0 - e.d), _SHIFT
    if isinstance(mu, CapUniform):
        return cap_averaged_p1(e, mu.cap)
    laws = [(w, outcome_law(e, a, m)) for w, m in mu.components]
    return sum(w * p for w, (p, _) in laws), sum(w * b for w, (_, b) in laws)


def outcome_probability_mixed(e: EpsilonExperiment, a: OutcomeSet, mu: MixedState) -> float:
    """outcome_law's probability alone."""
    return outcome_law(e, a, mu)[0]


@dataclass(frozen=True)
class SandwichResult:
    lower: float  # mu(eig)
    mid: float    # P(a, mu)
    upper: float  # mu(pos)
    holds: bool


def sandwich_check(e: EpsilonExperiment, a: OutcomeSet, mu: MixedState) -> SandwichResult:
    """The exact certainty/possibility bounds around the outcome probability."""
    lower = measure_of(mu, eig_set(e, a))
    upper = measure_of(mu, pos_set(e, a))
    mid = outcome_probability_mixed(e, a, mu)
    holds = lower <= mid + 1e-9 and mid <= upper + 1e-9
    return SandwichResult(lower, mid, upper, holds)


def is_classical(e: EpsilonExperiment, mu: MixedState) -> bool:
    """True when certainty and possibility regions agree up to mu-measure
    zero for both outcomes, i.e. outcomes are predetermined almost surely."""
    for a in (OutcomeSet.O1, OutcomeSet.O2):
        if abs(measure_of(mu, eig_set(e, a)) - measure_of(mu, pos_set(e, a))) > 1e-9:
            return False
    return True


def _cap_contains_cap(outer: SectorCap, inner: SectorCap) -> bool:
    return angle_between(outer.center, inner.center) + inner.half_angle <= outer.half_angle + 1e-12


def condition(mu: MixedState, f: EpsilonExperiment, a: OutcomeSet) -> MixedState:
    """Restrict mu to the states where f's outcome is certainly in `a`, and
    renormalize: the preparation that guarantees that outcome.

    Raises ConditioningError when the certainty region has mu-measure zero
    (e.g. epsilon = 1 under the uniform measure: no state short of the axis
    point itself makes the outcome certain).
    """
    region = eig_set(f, a)
    if isinstance(region, EmptyRegion) or measure_of(mu, region) <= 0.0:
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
        mass = w * measure_of(m, region)
        if mass > 0.0:
            parts.append((mass, condition(m, f, a)))
    total = sum(w for w, _ in parts)
    return Mixture(tuple((w / total, m) for w, m in parts))


def sample_projection(
    mu: MixedState, axis: UnitVector, rng: np.random.Generator, out: np.ndarray, work: np.ndarray, gap: np.ndarray
) -> Callable[..., None]:
    """Fill `out` with the projections v . axis of len(out) states drawn
    from mu, a conditioned measure: a cap-uniform state or a mixture of
    them, as condition() returns.  `work` is float scratch of shape
    (3, >= len(out)) and `gap` float32 scratch as long as `out`; rows 0-1
    of `work` keep each cap draw's z and phi until the trials are decided.

    Cap of half-angle rho, center gamma from the axis:
    x = z cos gamma + sqrt(1 - z^2) cos(phi) sin gamma with
    z ~ U(cos rho, 1), phi ~ U(0, 2 pi), screened (see ring_into).
    Mixture: a multinomial split, each component filling the next slice of
    `out` in component order (callers count outcomes, which ignores order).

    Returns `settle(threshold, flags)`, which overwrites the values within
    RING_ERR of `threshold` (an array like `out`, or a float) with their
    float64 projections, in the operation order the fixed-seed counts were
    recorded with; `flags` is bool scratch as long as `out`.
    """
    pieces: list[tuple[int, int, float, float]] = []  # cap slices: start, stop, cos gamma, sin gamma
    _fill_projection(mu, axis, rng, out, work, 0, pieces)
    z, phi = work[0], work[1]

    def settle(threshold, flags: np.ndarray) -> None:
        idx = near_threshold(out, threshold, gap, flags)
        if not idx.size:
            return
        for start, stop, cg, sg in pieces:
            j = idx[(idx >= start) & (idx < stop)]
            out[j] = z[j] * cg + ring_exact(z, phi, j) * sg

    return settle


def _fill_projection(
    mu: MixedState, axis: UnitVector, rng: np.random.Generator, out: np.ndarray, work: np.ndarray, start: int, pieces: list
) -> None:
    """sample_projection's draw into out[start:start + len(out)]'s slot of
    the chunk (`work` columns alike), recording each cap slice in `pieces`."""
    n = len(out)
    if isinstance(mu, CapUniform):
        gamma = angle_between(mu.cap.center, axis)
        cg, sg = math.cos(gamma), math.sin(gamma)
        z, phi, scratch = (row[start : start + n] for row in work)
        ring_into(rng, math.cos(mu.cap.half_angle), z, phi, out, scratch)
        out *= sg
        np.multiply(z, cg, out=scratch)
        out += scratch
        pieces.append((start, start + n, cg, sg))
        return
    weights = np.array([w for w, _ in mu.components])
    counts = rng.multinomial(n, weights / weights.sum())
    offset = 0
    for (_, m), k in zip(mu.components, counts):
        _fill_projection(m, axis, rng, out[offset : offset + k], work, start + offset, pieces)
        offset += k


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
