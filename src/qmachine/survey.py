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
from .machine import EpsilonExperiment, Outcome, near_threshold, ring_into, run_chunks, settle_into

# Denominator cap when snapping numerically computed conditionals to exact
# rationals.  Large enough to keep the snap error ~1e-4 at most, small
# enough that conditionals which are genuinely simple rationals (classical
# and quantum limits at whole-degree angles) are recovered exactly, which
# the boundary-tight classical case needs.
_SNAP_DENOMINATOR = 10_000


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


def fit_epsilon_model(q: QuestionStats) -> tuple[float, float, FitDiagnostics]:
    """Invert the certainty-cap fractions.

    Predetermined-yes respondents fill the cap of uniform measure
    (1 - epsilon - d) / 2, predetermined-no the cap of (1 - epsilon + d) / 2,
    so epsilon = 1 - yes - no and d = no - yes.  Both fractions lie in
    [0, 1], so yes + no <= 1 is the whole range test: it puts epsilon in
    [0, 1] and d in [-1 + epsilon, 1 - epsilon].
    """
    a, b = q.predetermined_yes, q.predetermined_no
    if a + b > 1.0:
        raise InconsistentDataError(f"question {q.label!r}: pre_yes {a} + pre_no {b} exceeds 1")
    d = b - a
    predicted = 0.5 * (1.0 - d)
    return max(0.0, 1.0 - a - b), d, FitDiagnostics(predicted, abs(predicted - q.yes_fraction))


@dataclass(frozen=True)
class FittedQuestion:
    label: str
    experiment: EpsilonExperiment
    angle: float  # in-plane axis angle used to place it
    diagnostics: FitDiagnostics


@dataclass(frozen=True)
class SurveyModel:
    questions: tuple[FittedQuestion, ...]


def build_survey_model(
    stats: Sequence[QuestionStats],
    angles: Sequence[float],
    force_epsilon: Optional[float] = None,
) -> SurveyModel:
    """Fit every question and place the axes coplanar at the given angles.

    Each question keeps its own fitted (epsilon, d): its own share of
    respondents who form their answer while being asked.  `force_epsilon`
    sets every question's epsilon instead (keeping each d), for reproducing
    analyses at a designated epsilon.  Raises InconsistentDataError, naming
    the question, when a question's fractions sum past 1 or the forced
    epsilon leaves its d outside [-1 + epsilon, 1 - epsilon].
    """
    if len(stats) != len(angles):
        raise ValueError("need exactly one axis angle per question")
    questions = []
    for q, angle in zip(stats, angles):
        epsilon, d, diag = fit_epsilon_model(q)
        if force_epsilon is not None:
            epsilon = force_epsilon
        axis = unit_vector_at_angle(Z_AXIS, angle)
        try:
            experiment = EpsilonExperiment(axis, epsilon, d)
        except ValueError as exc:
            if not 0.0 <= epsilon <= 1.0:  # a bad epsilon, not a d the band cannot hold
                raise
            raise InconsistentDataError(f"question {q.label!r}: {exc}") from exc
        questions.append(FittedQuestion(q.label, experiment, angle, diag))
    return SurveyModel(tuple(questions))


@dataclass(frozen=True)
class PairConditionals:
    """The four conditionals for one ordered question pair."""

    target: str
    given: str
    angle: float  # between the two axes, in [0, pi]
    yes_given_yes: float
    no_given_yes: float
    yes_given_no: float
    no_given_no: float


# (target outcome, condition outcome) of PairConditionals' four values, in field order.
_PAIR_OUTCOMES = ((Outcome.O1, Outcome.O1), (Outcome.O2, Outcome.O1), (Outcome.O1, Outcome.O2), (Outcome.O2, Outcome.O2))


def _axis_angle(a: float, b: float) -> float:
    """The angle between the axes at in-plane angles a and b: |a - b|
    reduced mod 2 pi into [0, pi], exactly |a - b| where that is at most pi."""
    delta = abs(a - b) % math.tau
    return min(delta, math.tau - delta)


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
            rows.append(PairConditionals(target.label, given.label, _axis_angle(target.angle, given.angle), *values))
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
    """Tally uniformly drawn respondent states by predetermination region
    into 27 bins, one per-chunk step of run_chunks per chunk of draws.

    build_survey_model puts every axis in the x-z plane, so a respondent
    needs only z ~ U(-1, 1) and x = sqrt(1 - z^2) cos(phi), phi ~ U(0, 2 pi)
    (the stream sample_uniform_sphere_array draws, without its y column).
    x is screened (see ring_into): a respondent whose dot with an axis lies
    within RING_ERR of a band edge gets the float64 dot (settle_into) before
    its status is read, so the tally is bitwise the float64 one.  Each
    question's status is 0 undetermined, 1 certain yes or 2 certain no, and
    the three statuses read as one base-3 number index the tally.  Every
    draw fills a whole row, so a large census splits across CPUs.
    """
    if len(m.questions) != 3:
        raise ValueError("the census is defined for exactly three questions")
    if trials < 1:
        raise ValueError("trial count must be at least 1")
    experiments = [fq.experiment for fq in m.questions]
    if any(e.axis.y != 0.0 for e in experiments):
        raise ValueError("the census needs every axis in the x-z plane, where build_survey_model puts them")

    def step(stream, work, marks) -> np.ndarray:
        z, phi, x, dot, zpart = work
        yes, no = marks[:2]
        # Statuses add up in uint8 in the third flag row, the flags viewed as
        # 0/1 bytes so that no cast runs; bincount wants intp, copied into
        # phi's row, which is free by then.
        yes8, no8, digits = marks.view(np.uint8)
        ring_into(stream, -1.0, z, phi, x, dot)
        digits.fill(0)
        for e in experiments:
            np.multiply(x, e.axis.x, out=dot)
            np.multiply(z, e.axis.z, out=zpart)
            dot += zpart
            # The band edges are d -+ epsilon: settle the dots within
            # RING_ERR of one, where ||dot - d| - epsilon| <= RING_ERR.
            np.subtract(dot, e.d, out=zpart)
            np.abs(zpart, out=zpart)
            idx = near_threshold(zpart, e.epsilon, zpart, yes)
            if idx.size:
                settle_into(dot, idx, z, phi, e.axis.z, e.axis.x)
            # The certainty caps are closed for epsilon > 0 and open on a
            # zero-width band (epsilon = 0), where the edge itself is a tie.
            closed = e.band_low < e.band_high
            (np.greater_equal if closed else np.greater)(dot, e.band_high, out=yes)
            (np.less_equal if closed else np.less)(dot, e.band_low, out=no)
            digits *= 3
            digits += yes8
            digits += no8
            digits += no8
        codes = phi.view(np.intp)
        np.copyto(codes, digits)
        return np.bincount(codes, minlength=27)

    tally = run_chunks(np.random.default_rng(seed), trials, step, True, 5, 3)
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
