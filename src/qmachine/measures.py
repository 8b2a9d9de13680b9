"""The measures on the sphere the model uses, certainty regions, conditioning.

Two measures: the uniform one and uniform-on-a-cap, the state a
conditioning prepares.  Outcome probabilities under either take a closed
form: (1 -+ d) / 2 under the uniform measure, whatever epsilon, and for a
cap the band average, over where the band breaks, of the cap's exact
overlap with the axis cap above that point, which the lens's area and
first moment (geometry.cap_lens) give without quadrature.

Certainty regions: eig_set(e, a) collects the states for which
experiment e's outcome is certainly a (a machine.Outcome), a spherical
cap; the states for which a is possible are the complement of the other
outcome's cap.  Conditioning on an outcome (condition) leaves the state
uniform on its certainty cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConditioningError
from .geometry import (  # cap_intersection_fraction: perfbench/tracing.py wraps it here by name
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


@dataclass(frozen=True)
class CapUniform:
    """Uniform probability measure restricted to a cap of positive area."""

    cap: SectorCap

    def __post_init__(self) -> None:
        if self.cap.area_fraction <= 0.0:
            raise ValueError("CapUniform needs a cap of positive area")


MixedState = Union[Uniform, CapUniform]


def eig_set(e: EpsilonExperiment, a: Outcome) -> SectorCap:
    """States for which the outcome is certainly `a`: the cap beyond the
    band, closed for epsilon > 0 and open for epsilon = 0."""
    up, down = sector_angles(e.epsilon, e.d)
    center, half_angle = (e.axis, up) if a is Outcome.O1 else (-e.axis, down)
    return SectorCap(center, half_angle, closed=e.epsilon > 0.0)


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
    return cap_averaged_p1(e, mu.cap)


def condition(f: EpsilonExperiment, a: Outcome) -> CapUniform:
    """The preparation that guarantees f's outcome `a`: the uniform measure
    restricted to the outcome's certainty cap (eig_set) and renormalized.

    Raises ConditioningError when that cap has zero area (e.g. epsilon = 1:
    no state short of the axis point itself makes the outcome certain).
    """
    region = eig_set(f, a)
    if region.area_fraction <= 0.0:
        raise ConditioningError(f"outcome {a.value} of {f} cannot be prepared with certainty")
    return CapUniform(region)


def sample_projection(
    cap: SectorCap, axis: UnitVector, rng: np.random.Generator, out: np.ndarray, work: np.ndarray, gap: np.ndarray
) -> Callable[..., None]:
    """Fill `out` with the projections v . axis of len(out) states drawn
    uniformly from `cap`, the conditioned state.  `work` is float scratch of
    shape (3, >= len(out)) and `gap` float scratch as long as `out`; rows
    0-1 of `work` keep the draws' z and phi until the trials are decided.

    Cap of half-angle rho, center gamma from the axis:
    x = z cos gamma + sqrt(1 - z^2) cos(phi) sin gamma with
    z ~ U(cos rho, 1), phi ~ U(0, 2 pi), screened (see ring_into).

    Returns `settle(threshold, flags)`, which overwrites the values within
    RING_ERR of `threshold` (an array like `out`, or a float) with their
    float64 projections, in the operation order the fixed-seed counts were
    recorded with; `flags` is bool scratch as long as `out`.
    """
    n = len(out)
    gamma = angle_between(cap.center, axis)
    cg, sg = math.cos(gamma), math.sin(gamma)
    z, phi, scratch = (row[:n] for row in work)
    ring_into(rng, math.cos(cap.half_angle), z, phi, out, scratch)
    out *= sg
    np.multiply(z, cg, out=scratch)
    out += scratch

    def settle(threshold, flags: np.ndarray) -> None:
        idx = near_threshold(out, threshold, gap, flags)
        if idx.size:
            settle_into(out, idx, z, phi, cg, sg)

    return settle


def sample_state_array(mu: MixedState, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(mu, Uniform):
        return sample_uniform_sphere_array(rng, n)
    return sample_uniform_cap_array(rng, mu.cap, n)
