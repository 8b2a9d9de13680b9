"""Conditional probabilities between two band experiments sharing epsilon.

Three routes compute P(target outcome | conditioned on an outcome of the
other experiment, starting from a base measure):

* conditional_quad   -- the definitional integral over the conditioned
                        measure, exact with a rounding bound (authoritative),
* conditional_mc     -- seeded projections of conditioned states on the
                        target axis, streamed in fixed chunks through the
                        hidden-measurement trial kernel,
* conditional_closed_form -- the printed closed form for the symmetric
                        d = c = 0 case as one expression in complementary
                        arcs at a = min(alpha, pi - alpha), mirrored by
                        f(alpha) = 1 - f(pi - alpha), with an analytic
                        rounding bound; `valid` where that bound is at
                        most _VALID_LIMIT and `inaccurate` elsewhere.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConditioningError
from .geometry import Z_AXIS, SectorCap, UnitVector, unit_vector_at_angle
from .machine import EpsilonExperiment, Outcome, count_at, count_o1, p1_given_projection, run_chunks
from .measures import (  # sample_state_array: perfbench/tracing.py wraps it here by name
    CapUniform,
    MixedState,
    Uniform,
    condition,
    eig_set,
    outcome_law,
    sample_projection,
    sample_state_array,
)

SeedLike = Union[int, Sequence[int]]

# One unit of rounding; the closed form's rounding per term, and the
# largest error_bound it reports as `valid`.
_UNIT = 2.0**-53
_ROUNDING = 8.0 * _UNIT
_VALID_LIMIT = 1e-9


class Method(enum.Enum):
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte-carlo"
    CLOSED_FORM = "closed-form"


class Validity(enum.Enum):
    VALID = "valid"
    INACCURATE = "inaccurate"
    DOMAIN_INVALID = "domain-invalid"


@dataclass(frozen=True)
class ConditionalQuery:
    """Ask for P(target_outcome of `target` | condition_outcome of `cond`)
    when the state is prepared by conditioning `base`."""

    target: EpsilonExperiment
    cond: EpsilonExperiment
    target_outcome: Outcome = Outcome.O1
    condition_outcome: Outcome = Outcome.O1
    base: MixedState = field(default_factory=Uniform)

    def __post_init__(self) -> None:
        if abs(self.target.epsilon - self.cond.epsilon) > 1e-12:
            raise ValueError("both experiments must share one epsilon")


@dataclass(frozen=True)
class ConditionalResult:
    value: float
    method: Method
    error_bound: float
    validity: Validity
    diagnostics: Optional[dict] = None


def symmetric_query(
    epsilon: float,
    alpha: float,
    target_outcome: Outcome = Outcome.O1,
    condition_outcome: Outcome = Outcome.O1,
) -> ConditionalQuery:
    """The standard configuration: d = c = 0, axes `alpha` apart, uniform base."""
    return ConditionalQuery(
        target=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, alpha), epsilon, 0.0),
        cond=EpsilonExperiment(Z_AXIS, epsilon, 0.0),
        target_outcome=target_outcome,
        condition_outcome=condition_outcome,
    )


def _conditioning_cap(q: ConditionalQuery) -> SectorCap:
    return eig_set(q.cond, q.condition_outcome)


def _oriented_target(q: ConditionalQuery) -> EpsilonExperiment:
    return q.target if q.target_outcome is Outcome.O1 else q.target.flipped()


def _pinned_state(base: MixedState, cap: SectorCap) -> UnitVector:
    """The state a zero-radius conditioning cap pins the preparation to: its
    center, provided the base holds it.  A uniform base always does, a
    cap-uniform one when its closed cap contains the center (by angle,
    SectorCap.contains_cap, which keeps a tiny cap's own center inside it),
    a mixture when a component of positive weight does; otherwise no state
    of the base makes the outcome certain, and ConditioningError is
    raised."""

    def holds(mu: MixedState) -> bool:
        if isinstance(mu, CapUniform):
            return mu.cap.contains_cap(cap)
        return isinstance(mu, Uniform) or any(w > 0.0 and holds(m) for w, m in mu.components)

    if not holds(base):
        raise ConditioningError("the base holds no state where the zero-radius conditioning cap pins the outcome")
    return cap.center


def _pinned_bound(target: EpsilonExperiment, center: UnitVector, x: float) -> float:
    """Rounding bound of p1_given_projection(target, x), x the float dot of
    `center` and the target axis, against the exact kernel at the exact dot:
    the dot's 4 units (2^-53) of sum |center_i axis_i| through the ramp's
    slope 1 / (2 epsilon), (|d| + epsilon) / epsilon units for the rounded
    band edges and 3 for the ramp's operations.  A step (epsilon = 0) is
    exact unless x lies within the dot's bound of d."""
    a = target.axis
    dot = 4.0 * _UNIT * (abs(center.x * a.x) + abs(center.y * a.y) + abs(center.z * a.z))
    if target.epsilon == 0.0:
        return 0.0 if abs(x - target.d) > dot else 1.0
    return (dot + 2.0 * _UNIT * (abs(target.d) + target.epsilon)) / (2.0 * target.epsilon) + 3.0 * _UNIT


def conditional_quad(q: ConditionalQuery, tol: Optional[float] = None) -> ConditionalResult:
    """The definitional integral of the outcome kernel over the conditioned
    measure, in closed form (cap_averaged_p1), with its rounding bound as
    error_bound.  `tol` is ignored, kept for callers that still pass one.

    A zero-radius conditioning cap (epsilon = 1) pins the preparation to the
    cap center (_pinned_state), so the integral degenerates to the kernel
    value there, with the dot's and the ramp's rounding as error_bound
    (_pinned_bound).
    """
    cap = _conditioning_cap(q)
    target = _oriented_target(q)
    if cap.half_angle <= 0.0:
        center = _pinned_state(q.base, cap)
        x = center.dot(target.axis)
        value = p1_given_projection(target, x)
        return ConditionalResult(value, Method.QUADRATURE, _pinned_bound(target, center, x), Validity.VALID)
    mu = condition(q.base, q.cond, q.condition_outcome)
    value, bound = outcome_law(target, Outcome.O1, mu)
    return ConditionalResult(value, Method.QUADRATURE, bound, Validity.VALID)


def conditional_mc(q: ConditionalQuery, trials: int, seed: SeedLike) -> ConditionalResult:
    """Frequency estimate: draw states from the conditioned measure (only
    their projections on the target axis) and run one hidden-measurement
    trial each, as one per-chunk step of run_chunks: sample_projection,
    then count_o1.  Deterministic given the seed; both target outcomes
    share one stream, so their counts sum to `trials`.  A zero-radius
    conditioning cap (epsilon = 1) pins every state (_pinned_state), so its
    trials run at one projection (count_at).  Split across CPUs unless
    epsilon = 0 or the conditioned base is a mixture."""
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    cap = _conditioning_cap(q)
    rng = np.random.default_rng(seed)
    if cap.half_angle <= 0.0:
        hits = count_at(q.target, _pinned_state(q.base, cap).dot(q.target.axis), trials, rng)
    else:
        mu = condition(q.base, q.cond, q.condition_outcome)
        axis = q.target.axis

        # Row 0 takes the projections, rows 1-3 are the sampler's (z and phi
        # kept for settling, and scratch), row 3 then takes the break points,
        # and row 4 is the screen's gap.
        def step(stream, work, marks) -> int:
            settle = sample_projection(mu, axis, stream, work[0], work[1:4], work[4])
            return count_o1(q.target, work[0], stream, work[3], marks[0], settle)

        # A mixture draws its multinomial split before its rows, and an
        # epsilon = 0 target its tie coins in a number the data decides.
        hits = run_chunks(rng, trials, step, isinstance(mu, CapUniform) and q.target.epsilon > 0.0, 5)
    n_hit = hits if q.target_outcome is Outcome.O1 else trials - hits
    p_hat = n_hit / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    diag = {"trials": trials, "seed": np.asarray(seed).tolist()}
    return ConditionalResult(p_hat, Method.MONTE_CARLO, stderr, Validity.VALID, diag)


def conditional_closed_form(epsilon: float, alpha: float) -> ConditionalResult:
    """The printed closed form for the symmetric d = c = 0 configuration.

    The printed form gates its terms by Heaviside factors of
    (epsilon - cos(alpha/2)), (epsilon - sin(alpha/2), cos(alpha/2) - epsilon)
    and (sin(alpha/2) - epsilon), and past alpha = pi/2 two gates fire at
    once.  So it is evaluated at a = min(alpha, pi - alpha), and a wide
    alpha takes the mirror identity f(alpha) = 1 - f(pi - alpha)
    (diagnostics["mirrored"]).  With c, s = cos(a/2), sin(a/2) and the rim
    radii r_c = sqrt(c^2 - epsilon^2) and r_s = sqrt(max(0, s^2 - epsilon^2)),
    the printed arcs become the complementary arcs A = atan2(r, epsilon x)
    and B = atan2(r, x), which are exactly 0 where a gate is shut.  So one
    expression covers every epsilon < c, and epsilon >= c leaves the
    leading term p1.

    error_bound is 8 units of rounding (2^-53) times the sum of the terms'
    magnitudes, plus 1 for the rounding of pi - alpha when mirrored (the
    conditional's slope in alpha is below 1).  The terms divide by epsilon
    and by 1 - epsilon, so the bound grows where they cancel; a value is
    `valid` when its bound is at most _VALID_LIMIT and `inaccurate`
    otherwise (epsilon <= 1e-9, for one).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("closed form needs epsilon in (0, 1]")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha must lie in [0, pi]")
    mirrored = alpha > 0.5 * math.pi
    a = math.pi - alpha if mirrored else alpha
    c, s = math.cos(0.5 * a), math.sin(0.5 * a)
    p1 = math.cos(a) * (1.0 + epsilon) / (4.0 * epsilon) + 0.5
    value, size = p1, abs(p1)
    if epsilon < c:
        r_c = math.sqrt((c - epsilon) * (c + epsilon))
        r_s = math.sqrt(max(0.0, (s - epsilon) * (s + epsilon)))
        a_c, b_c = math.atan2(r_c, epsilon * s), math.atan2(r_c, s)
        a_s, b_s = math.atan2(r_s, epsilon * c), math.atan2(r_s, c)
        arcs = math.pi * (1.0 - epsilon)
        rims = 2.0 * math.pi * epsilon * (1.0 - epsilon)
        one_minus_e2 = 1.0 - epsilon * epsilon
        value += ((b_c - epsilon * a_c) - (b_s - epsilon * a_s)) / arcs
        value += (epsilon * s * r_c - epsilon * c * r_s - one_minus_e2 * (c * c * a_c - s * s * a_s)) / rims
        size += (b_c + epsilon * a_c + b_s + epsilon * a_s) / arcs
        size += (epsilon * s * r_c + epsilon * c * r_s + one_minus_e2 * (c * c * a_c + s * s * a_s)) / rims
    if mirrored:
        value, size = 1.0 - value, size + 1.0
    bound = _ROUNDING * size
    validity = Validity.VALID if bound <= _VALID_LIMIT else Validity.INACCURATE
    return ConditionalResult(value, Method.CLOSED_FORM, bound, validity, {"mirrored": mirrored})


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    alpha: float
    p_quad: float
    p_closed_form: float
    validity: str
    p_mc: float
    mc_stderr: float


def sweep(
    epsilons: Sequence[float],
    alpha_steps: int,
    tol: Optional[float] = None,
    mc_trials: int = 10_000,
    seed: int = 0,
) -> list[SweepRow]:
    """Dense table of the conditional over alpha in [0, pi] for each epsilon.

    Rows are ordered by (epsilon, alpha); each row's Monte Carlo stream is
    seeded independently from (seed, row position), so the table is
    reproducible and rows may be computed in parallel (`tol` is ignored).
    Each row's conditional_mc stays on one core: its 1e4 default trials
    are far below machine._SPLIT_MIN, and a split forced on such a row ran
    at 0.35x the serial speed (2-vCPU VM).
    """
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be at least 2")
    rows = []
    for i, eps in enumerate(sorted(epsilons)):
        for j in range(alpha_steps):
            alpha = math.pi * j / (alpha_steps - 1)
            q = symmetric_query(eps, alpha)
            quad = conditional_quad(q)
            if eps > 0.0:
                closed = conditional_closed_form(eps, alpha)
                cf_value, cf_validity = closed.value, closed.validity.value
            else:
                # The closed form is only defined for a positive band.
                cf_value, cf_validity = math.nan, Validity.DOMAIN_INVALID.value
            mc = conditional_mc(q, mc_trials, [seed, i, j])
            rows.append(
                SweepRow(
                    epsilon=eps,
                    alpha=alpha,
                    p_quad=quad.value,
                    p_closed_form=cf_value,
                    validity=cf_validity,
                    p_mc=mc.value,
                    mc_stderr=mc.error_bound,
                )
            )
    return rows
