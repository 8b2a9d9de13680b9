"""Conditional probabilities between two band experiments sharing epsilon.

Three routes compute P(target outcome | conditioned on an outcome of the
other experiment, starting from a base measure):

* conditional_quad   -- the definitional integral over the conditioned
                        measure (authoritative),
* conditional_mc     -- seeded projections of conditioned states on the
                        target axis, streamed in fixed chunks through the
                        hidden-measurement trial kernel,
* conditional_closed_form -- the closed-form expression for the symmetric
                        d = c = 0 case, evaluated exactly as written, with
                        regime/domain diagnostics.  Its Heaviside regimes
                        overlap on part of the parameter plane and one
                        radicand goes negative there, so it is advisory:
                        when it disagrees with the integral, the integral
                        wins.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Z_AXIS, SectorCap, unit_vector_at_angle
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
    REGIME_OVERLAP = "regime-overlap"
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


def _heaviside(x: float) -> float:
    # H(0) = 1: boundary regimes are measure zero in parameter space and a
    # fixed convention keeps the expression total.
    return 1.0 if x >= 0.0 else 0.0


def _angular_terms(epsilon: float, alpha: float, tag: str, diag: dict) -> tuple[Optional[float], Optional[float]]:
    """The two auxiliary angular functions at a given separation, or None
    where a radicand or arc argument leaves its real domain.  Diagnostic
    values are recorded under keys suffixed with `tag`."""
    ch = math.cos(0.5 * alpha)
    one_minus_e2 = 1.0 - epsilon * epsilon
    if ch == 0.0 or one_minus_e2 <= 0.0:
        # Division by zero in the radicand or the normalizations.
        diag[f"radicand{tag}"] = -math.inf
        return None, None
    radicand = 1.0 - (epsilon / ch) ** 2
    diag[f"radicand{tag}"] = radicand
    asin_arg = math.sin(0.5 * alpha) / math.sqrt(one_minus_e2)
    diag[f"asin_arg{tag}"] = asin_arg
    acos_arg = epsilon * math.tan(0.5 * alpha) / math.sqrt(one_minus_e2)
    diag[f"acos_arg{tag}"] = acos_arg
    omega = sigma = None
    if radicand >= 0.0:
        inner = radicand / one_minus_e2
        if 0.0 <= inner <= 1.0 and -1.0 <= asin_arg <= 1.0:
            omega = 4.0 * epsilon * math.acos(math.sqrt(inner)) - 4.0 * math.asin(asin_arg)
        if -1.0 <= acos_arg <= 1.0:
            sigma = epsilon * math.tan(0.5 * alpha) * math.sqrt(radicand) - one_minus_e2 * math.acos(acos_arg)
    return omega, sigma


def conditional_closed_form(
    epsilon: float, alpha: float, *, quad_tol: Optional[float] = None
) -> ConditionalResult:
    """The printed closed form for the symmetric d = c = 0 configuration.

    Evaluated exactly as written: three terms gated by Heaviside factors of
    (epsilon - cos(alpha/2)), (epsilon - sin(alpha/2), cos(alpha/2) - epsilon)
    and (sin(alpha/2) - epsilon).  Validity reports when more than one gate
    fires (regime-overlap) or an active term hits a negative radicand or
    out-of-range arc argument (domain-invalid).  With `quad_tol` set, the
    deviation from the definitional integral is reported as error_bound.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("closed form needs epsilon in (0, 1]")
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha must lie in [0, pi]")
    ch = math.cos(0.5 * alpha)
    sh = math.sin(0.5 * alpha)
    diag: dict = {
        "h_eps_minus_cos_half": epsilon - ch,
        "h_eps_minus_sin_half": epsilon - sh,
        "h_cos_half_minus_eps": ch - epsilon,
        "h_sin_half_minus_eps": sh - epsilon,
    }
    g1 = _heaviside(epsilon - ch)
    g2 = _heaviside(epsilon - sh) * _heaviside(ch - epsilon)
    g3 = _heaviside(sh - epsilon)
    diag.update(gate_p1=g1, gate_p2=g2, gate_p3=g3)

    cos_a = math.cos(alpha)
    p1 = cos_a * (1.0 + epsilon) / (4.0 * epsilon) + 0.5

    def p2() -> Optional[float]:
        omega, sigma = _angular_terms(epsilon, alpha, "_uw", diag)
        if omega is None or sigma is None:
            return None
        return (
            p1
            + 0.5
            + omega / (4.0 * math.pi * (1.0 - epsilon))
            + (cos_a + 1.0) * sigma / (4.0 * math.pi * epsilon * (1.0 - epsilon))
        )

    def p3() -> Optional[float]:
        omega_uw, sigma_uw = _angular_terms(epsilon, alpha, "_uw", diag)
        omega_mu, sigma_mu = _angular_terms(epsilon, math.pi - alpha, "_muw", diag)
        if None in (omega_uw, sigma_uw, omega_mu, sigma_mu):
            return None
        return (
            p1
            + (omega_uw - omega_mu) / (4.0 * math.pi * (1.0 - epsilon))
            + ((cos_a - 1.0) * sigma_mu + (cos_a + 1.0) * sigma_uw)
            / (4.0 * math.pi * epsilon * (1.0 - epsilon))
        )

    total = 0.0
    broken = False
    n_active = 0
    for gate, term in ((g1, lambda: p1), (g2, p2), (g3, p3)):
        if gate > 0.0:
            n_active += 1
            val = term()
            if val is None or not math.isfinite(val):
                broken = True
            else:
                total += gate * val
    if n_active > 1:
        validity = Validity.REGIME_OVERLAP
    elif broken:
        validity = Validity.DOMAIN_INVALID
    else:
        validity = Validity.VALID
    value = math.nan if broken else total
    error_bound = math.nan
    if quad_tol is not None and math.isfinite(value):
        ref = conditional_quad(symmetric_query(epsilon, alpha), quad_tol).value
        error_bound = abs(value - ref)
    return ConditionalResult(value, Method.CLOSED_FORM, error_bound, validity, diag)


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
