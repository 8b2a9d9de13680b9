"""The breakable-band experiment on the sphere.

An experiment is a band of half-width epsilon around offset d on the axis
through u and -u: the strip where the elastic can break, uniformly.  The
particle at v projects onto the axis at x = v . u; a break strictly below
the projection pulls the particle up to u (outcome 1), otherwise it ends
at -u (outcome 2).  epsilon = 1 reproduces the spin-1/2 probabilities,
epsilon = 0 a deterministic classical experiment.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import UnitVector


class Outcome(enum.Enum):
    O1 = "o1"  # particle pulled to the axis point
    O2 = "o2"  # particle pulled to the antipode

    def flipped(self) -> "Outcome":
        return Outcome.O2 if self is Outcome.O1 else Outcome.O1


@dataclass(frozen=True)
class EpsilonExperiment:
    """Axis u plus band parameters epsilon in [0, 1], d in [-1+eps, 1-eps]."""

    axis: UnitVector
    epsilon: float
    d: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon {self.epsilon} outside [0, 1]")
        if not -1.0 + self.epsilon - 1e-15 <= self.d <= 1.0 - self.epsilon + 1e-15:
            raise ValueError(f"d {self.d} outside [-1 + epsilon, 1 - epsilon]")

    @property
    def band_low(self) -> float:
        return self.d - self.epsilon

    @property
    def band_high(self) -> float:
        return self.d + self.epsilon

    def flipped(self) -> "EpsilonExperiment":
        """Same experiment with outcome labels swapped (axis and d negated)."""
        return EpsilonExperiment(-self.axis, self.epsilon, -self.d)


@dataclass(frozen=True)
class OutcomeDistribution:
    p1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p1 <= 1.0:
            raise ValueError(f"p1 {self.p1} outside [0, 1]")

    @property
    def p2(self) -> float:
        return 1.0 - self.p1


@dataclass(frozen=True)
class TrialResult:
    outcome: Outcome
    post_state: UnitVector
    break_point: float  # the hidden variable: where the band broke


def p1_given_projection(e: EpsilonExperiment, x: float) -> float:
    """Probability of outcome 1 as a function of the projection x = v . u.

    Clamped-linear ramp across the band for epsilon > 0; a step at d for
    epsilon = 0, with the measure-zero tie x = d split evenly.
    """
    if e.epsilon == 0.0:
        if x > e.d:
            return 1.0
        if x < e.d:
            return 0.0
        return 0.5
    if x <= e.band_low:
        return 0.0
    if x >= e.band_high:
        return 1.0
    return (x - e.d + e.epsilon) / (2.0 * e.epsilon)


def outcome_probabilities(e: EpsilonExperiment, state: UnitVector) -> OutcomeDistribution:
    return OutcomeDistribution(p1_given_projection(e, state.dot(e.axis)))


# Monte Carlo runs its trials MC_CHUNK at a time, so memory is bounded for
# any trial count.
MC_CHUNK = 65_536


def chunk_sizes(n: int) -> list[int]:
    """n trials as MC_CHUNK-sized pieces, the last one shorter."""
    return [min(MC_CHUNK, n - start) for start in range(0, n, MC_CHUNK)]


def _trials(e: EpsilonExperiment, x, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n hidden-measurement trials at projection(s) x, a float or an array of
    n: the break points, uniform on the band, and the outcome-1 flags,
    break < x.  For epsilon = 0 the band is the point d and a tie x = d goes
    to a fair coin."""
    xs = np.broadcast_to(x, (n,))
    if e.epsilon > 0.0:
        breaks = rng.uniform(e.band_low, e.band_high, n)
        return breaks, breaks < xs
    up = xs > e.d
    ties = xs == e.d
    up[ties] = rng.integers(0, 2, int(np.count_nonzero(ties))).astype(bool)
    return np.broadcast_to(e.d, (n,)), up


def count_o1(e: EpsilonExperiment, x, n: int, rng: np.random.Generator) -> int:
    """Outcome-1 count of n hidden-measurement trials at projection(s) x."""
    return int(np.count_nonzero(_trials(e, x, n, rng)[1]))


def run_trial(e: EpsilonExperiment, state: UnitVector, rng: np.random.Generator) -> TrialResult:
    """One seeded measurement: draw the hidden break point, collapse the state."""
    breaks, up = _trials(e, state.dot(e.axis), 1, rng)
    if up[0]:
        return TrialResult(Outcome.O1, e.axis, float(breaks[0]))
    return TrialResult(Outcome.O2, -e.axis, float(breaks[0]))


def estimate_probability_mc(
    e: EpsilonExperiment, state: UnitVector, n: int, seed: int
) -> tuple[float, float]:
    """Outcome-1 frequency over n seeded trials, with its standard error.
    The trials run through run_trial's kernel MC_CHUNK at a time."""
    if n < 1:
        raise ValueError("trial count must be at least 1")
    rng = np.random.default_rng(seed)
    x = state.dot(e.axis)
    hits = sum(count_o1(e, x, k, rng) for k in chunk_sizes(n))
    p_hat = hits / n
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / n)
