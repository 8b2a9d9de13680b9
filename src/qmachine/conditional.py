"""Conditional probabilities between two band experiments sharing epsilon.

Three routes compute P(target outcome | conditioned on an outcome of the
other experiment, starting from a base measure):

* conditional_quad   -- the definitional integral over the conditioned
                        measure (authoritative),
* conditional_mc     -- seeded projections of conditioned states on the
                        target axis, streamed in fixed chunks through the
                        hidden-measurement trial kernel,
* conditional_closed_form -- the printed closed form for the symmetric
                        d = c = 0 case, evaluated in its one regime at
                        a = min(alpha, pi - alpha) and mirrored by
                        f(alpha) = 1 - f(pi - alpha); total on
                        (0, 1] x [0, pi], with the limits of its accuracy
                        in its docstring.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Z_AXIS, SectorCap, clamped_acos, clamped_asin, unit_vector_at_angle
from .machine import EpsilonExperiment, Outcome, chunk_sizes, chunk_workspace, count_o1, p1_given_projection
from .measures import (  # sample_state_array: perfbench/tracing.py wraps it here by name
    MixedState,
    OutcomeSet,
    Uniform,
    condition,
    eig_set,
    outcome_probability_mixed,
    sample_projection,
    sample_state_array,
)

SeedLike = Union[int, Sequence[int]]


class Method(enum.Enum):
    QUADRATURE = "quadrature"
    MONTE_CARLO = "monte-carlo"
    CLOSED_FORM = "closed-form"


class Validity(enum.Enum):
    VALID = "valid"
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
    return eig_set(q.cond, OutcomeSet.of(q.condition_outcome))


def _oriented_target(q: ConditionalQuery) -> EpsilonExperiment:
    return q.target if q.target_outcome is Outcome.O1 else q.target.flipped()


def conditional_quad(q: ConditionalQuery, tol: float = 1e-8) -> ConditionalResult:
    """The definitional integral of the outcome kernel over the conditioned
    measure.

    A zero-radius conditioning cap (epsilon = 1) pins the preparation to the
    cap center, so the integral degenerates to the kernel value there.
    """
    cap = _conditioning_cap(q)
    target = _oriented_target(q)
    if cap.half_angle <= 0.0:
        value = p1_given_projection(target, cap.center.dot(target.axis))
        return ConditionalResult(value, Method.QUADRATURE, 0.0, Validity.VALID)
    mu = condition(q.base, q.cond, OutcomeSet.of(q.condition_outcome))
    value = outcome_probability_mixed(target, OutcomeSet.O1, mu, tol)
    return ConditionalResult(value, Method.QUADRATURE, tol, Validity.VALID)


def conditional_mc(q: ConditionalQuery, trials: int, seed: SeedLike) -> ConditionalResult:
    """Frequency estimate: draw states from the conditioned measure (only
    their projections on the target axis, MC_CHUNK at a time, into buffers
    reused by every chunk), run one hidden-measurement trial each.
    Deterministic given the seed; both target outcomes share one stream, so
    their counts sum to `trials`."""
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    cap = _conditioning_cap(q)
    axis = q.target.axis
    rng = np.random.default_rng(seed)
    # One workspace serves every chunk: row 0 takes the projections, rows 1-3
    # are the sampler's (z and phi kept for settling, and scratch), and row 3
    # then takes the break points; `gap` is the screen's float32 row.
    rows, up = chunk_workspace(trials, 4)
    if cap.half_angle <= 0.0:
        pinned = cap.center.dot(axis)
        hits = sum(count_o1(q.target, pinned, rng, rows[3, :k], up[:k]) for k in chunk_sizes(trials))
    else:
        mu = condition(q.base, q.cond, OutcomeSet.of(q.condition_outcome))
        gap = np.empty(len(up), dtype=np.float32)
        hits = 0
        for k in chunk_sizes(trials):
            x = rows[0, :k]
            settle = sample_projection(mu, axis, rng, x, rows[1:], gap[:k])
            hits += count_o1(q.target, x, rng, rows[3, :k], up[:k], settle)
    n_hit = hits if q.target_outcome is Outcome.O1 else trials - hits
    p_hat = n_hit / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    diag = {"trials": trials, "seed": seed if isinstance(seed, int) else list(seed)}
    return ConditionalResult(p_hat, Method.MONTE_CARLO, stderr, Validity.VALID, diag)


def _angular_terms(epsilon: float, c: float, s: float) -> tuple[float, float]:
    """The two auxiliary angular functions at a separation whose half has
    cosine c and sine s, for epsilon < c.  There the radicand is
    nonnegative and every arc argument is at most 1 in exact arithmetic;
    the clamped arcs absorb the rounding overshoot at a regime boundary."""
    one_minus_e2 = 1.0 - epsilon * epsilon
    root = math.sqrt(one_minus_e2)
    radicand = 1.0 - (epsilon / c) ** 2
    tan_half = s / c
    omega = 4.0 * epsilon * clamped_acos(math.sqrt(radicand / one_minus_e2)) - 4.0 * clamped_asin(s / root)
    sigma = epsilon * tan_half * math.sqrt(radicand) - one_minus_e2 * clamped_acos(epsilon * tan_half / root)
    return omega, sigma


def conditional_closed_form(
    epsilon: float, alpha: float, *, quad_tol: Optional[float] = None
) -> ConditionalResult:
    """The printed closed form for the symmetric d = c = 0 configuration.

    The printed form gates three terms by Heaviside factors of
    (epsilon - cos(alpha/2)), (epsilon - sin(alpha/2), cos(alpha/2) - epsilon)
    and (sin(alpha/2) - epsilon); past alpha = pi/2 two gates fire at once.
    So it is evaluated at a = min(alpha, pi - alpha), where exactly one
    regime holds, and a wide alpha takes the mirror identity
    f(alpha) = 1 - f(pi - alpha) (diagnostics["mirrored"]).  The regime
    tests compare epsilon with the same cosines the terms divide by, so
    every input in (0, 1] x [0, pi] is in its regime's domain and the
    result is valid.

    Measured limits against the quadrature at tol 1e-12: the terms divide
    by epsilon and cancel, so the error grows like 1e-16 / epsilon (1.2e-10
    at epsilon = 1e-6).  They also divide by 1 - epsilon, and one ulp below
    epsilon = cos(alpha/2) they cancel badly as epsilon nears 1: 3.1e-4 off
    at alpha = 0.0202 (epsilon = 1 - 5.1e-5), 23 off at alpha = 0.001
    (epsilon = 1 - 1.25e-7).  With `quad_tol` set, the deviation from the
    definitional integral is reported as error_bound.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("closed form needs epsilon in (0, 1]")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha must lie in [0, pi]")
    mirrored = alpha > 0.5 * math.pi
    a = math.pi - alpha if mirrored else alpha
    ch, sh = math.cos(0.5 * a), math.sin(0.5 * a)
    cos_a = math.cos(a)
    p1 = cos_a * (1.0 + epsilon) / (4.0 * epsilon) + 0.5
    if epsilon >= ch:
        value = p1
    else:
        omega_uw, sigma_uw = _angular_terms(epsilon, ch, sh)
        if epsilon >= sh:
            value = (
                p1
                + 0.5
                + omega_uw / (4.0 * math.pi * (1.0 - epsilon))
                + (cos_a + 1.0) * sigma_uw / (4.0 * math.pi * epsilon * (1.0 - epsilon))
            )
        else:
            omega_mu, sigma_mu = _angular_terms(epsilon, sh, ch)  # cos((pi - a) / 2) = sh
            value = (
                p1
                + (omega_uw - omega_mu) / (4.0 * math.pi * (1.0 - epsilon))
                + ((cos_a - 1.0) * sigma_mu + (cos_a + 1.0) * sigma_uw)
                / (4.0 * math.pi * epsilon * (1.0 - epsilon))
            )
    if mirrored:
        value = 1.0 - value
    error_bound = math.nan
    if quad_tol is not None:
        ref = conditional_quad(symmetric_query(epsilon, alpha), quad_tol).value
        error_bound = abs(value - ref)
    return ConditionalResult(value, Method.CLOSED_FORM, error_bound, Validity.VALID, {"mirrored": mirrored})


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
    tol: float = 1e-8,
    mc_trials: int = 10_000,
    seed: int = 0,
) -> list[SweepRow]:
    """Dense table of the conditional over alpha in [0, pi] for each epsilon.

    Rows are ordered by (epsilon, alpha); each row's Monte Carlo stream is
    seeded independently from (seed, row position), so the table is
    reproducible and rows may be computed in parallel.
    """
    if alpha_steps < 2:
        raise ValueError("alpha_steps must be at least 2")
    rows = []
    for i, eps in enumerate(sorted(epsilons)):
        for j in range(alpha_steps):
            alpha = math.pi * j / (alpha_steps - 1)
            q = symmetric_query(eps, alpha)
            quad = conditional_quad(q, tol)
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
