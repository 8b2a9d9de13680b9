"""Mixed states as measures on the sphere, certainty regions, conditioning.

The mixed-state family is deliberately closed and small: the uniform
measure, uniform-on-a-cap, and finite mixtures of those.  Every measure
the model needs lives in this family; outcome probabilities under it take
a closed form: for a cap, the band average, over where the band breaks,
of the cap's exact overlap with the axis cap above that point, which the
lens's area and first moment (geometry.cap_lens) give without quadrature.

Certainty regions: eig_set(e, a) collects the states for which
experiment e's outcome is certainly a (a machine.Outcome), pos_set(e, a)
those for which it is possible.  Both are spherical caps, so measuring
them is exact cap arithmetic.
"""

from __future__ import annotations

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
    cap_lens,
    sample_uniform_cap_array,
    sample_uniform_sphere_array,
    sector_angles,
)
from .machine import EpsilonExperiment, Outcome, near_threshold, ring_into, settle_into
from .quadrature import adaptive_simpson  # adaptive_simpson: perfbench/tracing.py wraps it here by name


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


def eig_set(e: EpsilonExperiment, a: Outcome) -> SectorCap:
    """States for which the outcome is certainly `a`: the cap beyond the
    band, closed for epsilon > 0 and open for epsilon = 0."""
    up, down = sector_angles(e.epsilon, e.d)
    center, half_angle = (e.axis, up) if a is Outcome.O1 else (-e.axis, down)
    return SectorCap(center, half_angle, closed=e.epsilon > 0.0)


def pos_set(e: EpsilonExperiment, a: Outcome) -> SectorCap:
    """States for which outcome `a` is possible: the complement of the
    certainty cap of the other outcome, so open for epsilon > 0 and closed
    for epsilon = 0."""
    c = eig_set(e, Outcome.O2 if a is Outcome.O1 else Outcome.O1)
    return SectorCap(-c.center, math.pi - c.half_angle, closed=not c.closed)


def measure_of(mu: MixedState, cap: SectorCap) -> float:
    """mu(cap), exact (cap arithmetic)."""
    if isinstance(mu, Uniform):
        return cap.area_fraction
    if isinstance(mu, CapUniform):
        return cap_intersection_fraction(mu.cap, cap) / mu.cap.area_fraction
    return sum(w * measure_of(m, cap) for w, m in mu.components)


_SHIFT = 2.0**-49
_POINT_WIDTH = 1e-7


def cap_averaged_p1(e: EpsilonExperiment, cap: SectorCap) -> tuple[float, float]:
    """Average outcome-1 probability over a cap-uniform state, and a bound on its error.

    The band breaks at s uniform on [d - epsilon, d + epsilon]; outcome 1
    happens when s lies below the state's projection x.  So the answer is the
    band average of m(s) = P(x > s) = -G'(s), G(a) = E[(x - a)+] =
    (moment - a overlap) / area, both from cap_lens at acos(a): (lo -
    band_low + G(lo) - G(hi)) / width, [lo, hi] the band clipped to [-1, 1]
    (below x's range G is E[x] - a, so a band holding the range takes no
    lens).  Bound: both ends shifted by _SHIFT (past the rounding of the
    edges, gamma and acos(s)) plus G's rounding (lens terms of order rho over
    an area of order rho^2), over the width.  A band narrower than
    _POINT_WIDTH or clear of x's range takes m(d), bounded by m's spread (m
    falls with s) over the band widened by _SHIFT.
    """
    gamma = angle_between(cap.center, e.axis)
    rho = cap.half_angle
    area = cap.area_fraction
    width = e.band_high - e.band_low
    x_min = math.cos(gamma + rho) if gamma + rho <= math.pi else -1.0
    x_max = math.cos(gamma - rho) if gamma - rho >= 0.0 else 1.0

    def lens(s: float) -> tuple[float, float]:  # m(s) and the moment, over the area
        # At epsilon = 0, d may lie 1e-15 outside [-1, 1].
        overlap, moment = cap_lens(gamma, rho, math.acos(min(1.0, max(-1.0, s))))
        return overlap / area, moment / area

    if width < _POINT_WIDTH or x_min >= e.band_high or x_max <= e.band_low:
        return lens(e.d)[0], lens(e.band_low - _SHIFT)[0] - lens(e.band_high + _SHIFT)[0] + _SHIFT
    lo, hi = max(e.band_low, -1.0), min(e.band_high, 1.0)
    (share_lo, moment_lo), (share_hi, moment_hi) = lens(lo), lens(hi)
    g_lo, g_hi = moment_lo - lo * share_lo, moment_hi - hi * share_hi
    return min(1.0, max(0.0, (lo - e.band_low + g_lo - g_hi) / width)), (2.0 + 1.0 / math.sin(0.5 * rho)) * _SHIFT / width


def outcome_law(e: EpsilonExperiment, a: Outcome, mu: MixedState) -> tuple[float, float]:
    """Probability of outcome `a` when the state is drawn from mu, and a
    bound on its error: (1 -+ d) / 2 for the uniform measure, independent of
    epsilon, and the band average (cap_averaged_p1) for a cap-uniform one."""
    if a is Outcome.O2:
        return outcome_law(e.flipped(), Outcome.O1, mu)
    if isinstance(mu, Uniform):
        return 0.5 * (1.0 - e.d), _SHIFT
    if isinstance(mu, CapUniform):
        return cap_averaged_p1(e, mu.cap)
    laws = [(w, outcome_law(e, a, m)) for w, m in mu.components]
    return sum(w * p for w, (p, _) in laws), sum(w * b for w, (_, b) in laws)


@dataclass(frozen=True)
class SandwichResult:
    lower: float  # mu(eig)
    mid: float    # P(a, mu)
    upper: float  # mu(pos)
    holds: bool


def sandwich_check(e: EpsilonExperiment, a: Outcome, mu: MixedState) -> SandwichResult:
    """The exact certainty/possibility bounds around the outcome probability."""
    lower = measure_of(mu, eig_set(e, a))
    upper = measure_of(mu, pos_set(e, a))
    mid = outcome_law(e, a, mu)[0]
    holds = lower <= mid + 1e-9 and mid <= upper + 1e-9
    return SandwichResult(lower, mid, upper, holds)


def is_classical(e: EpsilonExperiment, mu: MixedState) -> bool:
    """True when the open band d - epsilon < x < d + epsilon of projections
    has mu-measure zero, so outcomes are predetermined almost surely: always
    at epsilon = 0, never under the uniform measure at epsilon > 0, under a
    cap-uniform one when its cap lies in a certainty cap (by angle, as
    condition decides it), and under a mixture when every component of
    positive weight is classical."""
    if e.epsilon == 0.0:
        return True
    if isinstance(mu, Uniform):
        return False
    if isinstance(mu, CapUniform):
        return any(eig_set(e, a).contains_cap(mu.cap) for a in Outcome)
    return all(w == 0.0 or is_classical(e, m) for w, m in mu.components)


def condition(mu: MixedState, f: EpsilonExperiment, a: Outcome) -> MixedState:
    """Restrict mu to the states where f's outcome is certainly `a`, and
    renormalize: the preparation that guarantees that outcome.

    Raises ConditioningError when the certainty region has mu-measure zero
    (e.g. epsilon = 1 under the uniform measure: no state short of the axis
    point itself makes the outcome certain).
    """
    region = eig_set(f, a)
    if measure_of(mu, region) <= 0.0:
        raise ConditioningError(f"outcome {a.value} of {f} cannot be prepared with certainty")
    if isinstance(mu, Uniform):
        return CapUniform(region)
    if isinstance(mu, CapUniform):
        if region.contains_cap(mu.cap):
            return mu
        if mu.cap.contains_cap(region):
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
    (3, >= len(out)) and `gap` float scratch as long as `out`; rows 0-1
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
            settle_into(out, idx[(idx >= start) & (idx < stop)], z, phi, cg, sg)

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
