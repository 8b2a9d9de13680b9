"""Opinion polls mapped onto the band model: interactive statistics.

A yes/no question is an experiment: respondents with a predetermined
answer sit in one of the two certainty caps, the rest form their answer
during questioning.  The observed fractions of predetermined yes / no
answers pin down (epsilon, d) per question; axis directions encode how
questions influence each other.  From the fitted model we predict
cross-question conditional probabilities, census the predetermination
regions, and ask whether the predicted statistics admit a classical
(Kolmogorov) or 2-D Hilbert description.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .conditional import ConditionalQuery, conditional_quad
from .embedding import (  # classify: perfbench/tracing.py wraps it here by name
    CondProb,
    HilbertVerdict,
    KolmogorovVerdict,
    ModelClass,
    TriadData,
    check_hilbert2d,
    check_kolmogorov,
    classify,
    model_class,
)
from .errors import InconsistentDataError
from .geometry import (  # sample_uniform_sphere_array: perfbench/tracing.py wraps it here by name
    Z_AXIS,
    sample_uniform_sphere_array,
    unit_vector_at_angle,
)
from .machine import EpsilonExperiment, Outcome, chunk_sizes, chunk_workspace, near_threshold, ring_exact, ring_into

# Denominator cap when snapping numerically computed conditionals to exact
# rationals.  Large enough to keep the snap error ~1e-4 at most, small
# enough that conditionals which are genuinely simple rationals (classical
# and quantum limits at whole-degree angles) are recovered exactly, which
# the boundary-tight classical case needs.
_SNAP_DENOMINATOR = 10_000

# Per-question epsilon fits further apart than this draw a warning.
_EPSILON_TOLERANCE = 1e-6


@dataclass(frozen=True)
class QuestionStats:
    """Observed fractions for one yes/no question."""

    label: str
    yes_fraction: float
    predetermined_yes: float
    predetermined_no: float

    def __post_init__(self) -> None:
        for name in ("yes_fraction", "predetermined_yes", "predetermined_no"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [0, 1]")


@dataclass(frozen=True)
class FitDiagnostics:
    predicted_yes_rate: float
    yes_rate_mismatch: float
    flagged: bool  # predicted uniform yes rate off by more than 0.01


def fit_epsilon_model(q: QuestionStats) -> tuple[float, float, FitDiagnostics]:
    """Invert the certainty-cap fractions.

    Predetermined-yes respondents fill the cap of uniform measure
    (1 - epsilon - d) / 2, predetermined-no the cap of (1 - epsilon + d) / 2,
    so epsilon = 1 - yes - no and d = no - yes.
    """
    a, b = q.predetermined_yes, q.predetermined_no
    epsilon = 1.0 - a - b
    d = b - a
    if not -1e-12 <= epsilon <= 1.0 or not -1.0 + epsilon - 1e-12 <= d <= 1.0 - epsilon + 1e-12:
        raise InconsistentDataError(f"fractions ({a}, {b}) leave the model's parameter range")
    epsilon = min(1.0, max(0.0, epsilon))
    predicted = 0.5 * (1.0 - d)
    mismatch = abs(predicted - q.yes_fraction)
    return epsilon, d, FitDiagnostics(predicted, mismatch, mismatch > 0.01)


@dataclass(frozen=True)
class FittedQuestion:
    label: str
    experiment: EpsilonExperiment
    angle: float  # in-plane axis angle used to place it
    diagnostics: FitDiagnostics


@dataclass(frozen=True)
class SurveyModel:
    epsilon: float
    questions: tuple[FittedQuestion, ...]


def build_survey_model(
    stats: Sequence[QuestionStats],
    angles: Sequence[float],
    force_epsilon: Optional[float] = None,
) -> SurveyModel:
    """Fit every question and place the axes coplanar at the given angles.

    The model family uses one shared epsilon: if the per-question fits
    disagree beyond _EPSILON_TOLERANCE a warning is raised and the first
    fit wins.  `force_epsilon` overrides the fitted value (keeping each
    question's d), for reproducing analyses at a designated epsilon.
    Raises InconsistentDataError, naming the question, when the shared
    epsilon leaves a question's d outside [-1 + epsilon, 1 - epsilon].
    """
    if len(stats) != len(angles):
        raise ValueError("need exactly one axis angle per question")
    fits = [fit_epsilon_model(q) for q in stats]
    epsilons = [f[0] for f in fits]
    if max(epsilons) - min(epsilons) > _EPSILON_TOLERANCE:
        warnings.warn(
            f"per-question epsilon fits disagree ({min(epsilons):.4f}..{max(epsilons):.4f}); using the first",
            stacklevel=2,
        )
    epsilon = force_epsilon if force_epsilon is not None else epsilons[0]
    questions = []
    for q, angle, (_, d_i, diag) in zip(stats, angles, fits):
        axis = unit_vector_at_angle(Z_AXIS, angle)
        try:
            experiment = EpsilonExperiment(axis, epsilon, d_i)
        except ValueError as exc:
            if not 0.0 <= epsilon <= 1.0:  # a bad epsilon, not a d the band cannot hold
                raise
            raise InconsistentDataError(f"question {q.label!r}: {exc}") from exc
        questions.append(FittedQuestion(q.label, experiment, angle, diag))
    return SurveyModel(epsilon, tuple(questions))


@dataclass(frozen=True)
class PairConditionals:
    """The four conditionals for one ordered question pair."""

    target: str
    given: str
    angle: float
    yes_given_yes: float
    no_given_yes: float
    yes_given_no: float
    no_given_no: float


# (target outcome, condition outcome) of PairConditionals' four values, in field order.
_PAIR_OUTCOMES = ((Outcome.O1, Outcome.O1), (Outcome.O2, Outcome.O1), (Outcome.O1, Outcome.O2), (Outcome.O2, Outcome.O2))


def predict_conditionals(m: SurveyModel) -> list[PairConditionals]:
    rows = []
    for i, given in enumerate(m.questions):
        for j, target in enumerate(m.questions):
            if i == j:
                continue
            values = [
                conditional_quad(ConditionalQuery(target.experiment, given.experiment, t_out, c_out)).value
                for t_out, c_out in _PAIR_OUTCOMES
            ]
            rows.append(PairConditionals(target.label, given.label, abs(target.angle - given.angle), *values))
    return rows


@dataclass(frozen=True)
class RegionCensus:
    """Monte Carlo fractions of the predetermination regions.

    Keys are per-question statuses from ('yes', 'no', 'none'): which
    questions a uniformly drawn respondent state answers with certainty.
    """

    fractions: dict[tuple[str, ...], float]
    std_errors: dict[tuple[str, ...], float]
    trials: int
    seed: int


def region_census(m: SurveyModel, trials: int, seed: int) -> RegionCensus:
    """Tally uniformly drawn respondent states by predetermination region,
    MC_CHUNK draws at a time into 27 bins, in buffers reused by every chunk.

    build_survey_model puts every axis in the x-z plane, so a respondent
    needs only z ~ U(-1, 1) and x = sqrt(1 - z^2) cos(phi), phi ~ U(0, 2 pi)
    (the stream sample_uniform_sphere_array draws, without its y column).
    x is screened (see ring_into): a respondent whose dot with an axis lies
    within RING_ERR of a band edge gets the float64 x before its status is
    read, so the tally is bitwise the float64 one.  Each question's status
    is 0 undetermined, 1 certain yes or 2 certain no, and the three statuses
    read as one base-3 number index the tally.
    """
    if len(m.questions) != 3:
        raise ValueError("the census is defined for exactly three questions")
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    experiments = [fq.experiment for fq in m.questions]
    if any(e.axis.y != 0.0 for e in experiments):
        raise ValueError("the census needs every axis in the x-z plane, where build_survey_model puts them")
    rng = np.random.default_rng(seed)
    (z, phi, x, dot, zpart), yes = chunk_workspace(trials, 5)
    no = np.empty_like(yes)
    # Statuses add up in uint8, the flags viewed as 0/1 bytes so that no cast
    # runs; bincount wants intp, copied once per chunk into phi's row, which
    # is free by then.
    yes8, no8 = yes.view(np.uint8), no.view(np.uint8)
    digits, codes = np.empty(len(yes), dtype=np.uint8), phi.view(np.intp)
    tally = np.zeros(27, dtype=np.int64)
    for k in chunk_sizes(trials):
        zk, fk, xk, dk, pk, ck = z[:k], phi[:k], x[:k], dot[:k], zpart[:k], digits[:k]
        ring_into(rng, -1.0, zk, fk, xk, dk)
        ck.fill(0)
        for e in experiments:
            np.multiply(xk, e.axis.x, out=dk)
            np.multiply(zk, e.axis.z, out=pk)
            dk += pk
            # The band edges are d -+ epsilon: settle the dots within
            # RING_ERR of one, where ||dot - d| - epsilon| <= RING_ERR.
            np.subtract(dk, e.d, out=pk)
            np.abs(pk, out=pk)
            idx = near_threshold(pk, e.epsilon, pk, yes[:k])
            if idx.size:
                xk[idx] = ring_exact(zk, fk, idx)
                dk[idx] = xk[idx] * e.axis.x + zk[idx] * e.axis.z
            np.greater_equal(dk, e.band_high, out=yes[:k])
            # On a zero-width band (epsilon = 0) the edge itself is certain yes.
            (np.less_equal if e.band_low < e.band_high else np.less)(dk, e.band_low, out=no[:k])
            ck *= 3
            ck += yes8[:k]
            ck += no8[:k]
            ck += no8[:k]
        np.copyto(codes[:k], ck)
        tally += np.bincount(codes[:k], minlength=27)
    names = ("none", "yes", "no")
    fractions = {}
    errors = {}
    for code in np.flatnonzero(tally):
        key_t = (names[code // 9], names[code // 3 % 3], names[code % 3])
        p = tally[code] / trials
        fractions[key_t] = p
        errors[key_t] = math.sqrt(p * (1.0 - p) / trials)
    return RegionCensus(fractions, errors, trials, seed)


def _snap(p: float) -> Fraction:
    return Fraction(p).limit_denominator(_SNAP_DENOMINATOR)


@dataclass(frozen=True)
class SurveyClassification:
    triad: TriadData
    gamma2: Fraction
    kolmogorov: KolmogorovVerdict
    hilbert: HilbertVerdict
    model_class: ModelClass


def classify_survey(m: SurveyModel) -> SurveyClassification:
    """Embeddability of the predicted statistics of three questions.

    The triad takes the questions in order as W, V, U (so the flagship
    placement reads W at 0, V at 60, U at 120 degrees) with marginals from
    the uniform preparation and the three conditionals P(V yes | W yes),
    P(U yes | W yes), P(U no | V yes).  gamma^2 for the Hilbert check is
    the adjacent-pair conditional P(V yes | W yes).

    Conditionals are predict_conditionals' values (conditional_quad),
    snapped to rationals with denominator <= 10^4; classifications of
    triads sitting exactly on the feasibility boundary are therefore
    reliable only when the true values are rationals that simple (the
    classical limit at whole-degree angles is; see _SNAP_DENOMINATOR).
    """
    if len(m.questions) != 3:
        raise ValueError("classification is defined for exactly three questions")
    q_w, q_v, q_u = m.questions

    def cond(target: FittedQuestion, given: FittedQuestion, t_out: Outcome) -> float:
        q = ConditionalQuery(target.experiment, given.experiment, t_out, Outcome.O1)
        return conditional_quad(q).value

    p_v_w = cond(q_v, q_w, Outcome.O1)
    p_u_w = cond(q_u, q_w, Outcome.O1)
    p_notu_v = cond(q_u, q_v, Outcome.O2)
    marginals = {name: _snap(0.5 * (1.0 - fq.experiment.d)) for name, fq in zip("WVU", m.questions)}
    triad = TriadData(
        marginals,
        (
            CondProb(("V", True), ("W", True), _snap(p_v_w)),
            CondProb(("U", True), ("W", True), _snap(p_u_w)),
            CondProb(("U", False), ("V", True), _snap(p_notu_v)),
        ),
    )
    gamma2 = _snap(p_v_w)
    kolmogorov = check_kolmogorov(triad)
    hilbert = check_hilbert2d(gamma2)
    return SurveyClassification(triad, gamma2, kolmogorov, hilbert, model_class(kolmogorov, hilbert))
