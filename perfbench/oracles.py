"""Output oracles of the benchmark.

Each oracle takes what a library call returned plus an independent
reference (an identity, an exact value, or a verdict known by
construction) and returns the list of checks that failed, empty when the
output is right.
"""

from __future__ import annotations

import math
from fractions import Fraction

# MC estimates must lie within this many standard errors of the reference.
MC_SIGMAS = 6.0

# Verdict thresholds known from theory, independent of the checkers:
# Hilbert feasible iff gamma^2 <= 3/4; for the half-marginal family
# P(V|W) = g, P(U|W) = P(not U|V) = 1 - g, Kolmogorov feasible iff g <= 2/3.
HILBERT_LIMIT = Fraction(3, 4)
HALF_FAMILY_KOLMOGOROV_LIMIT = Fraction(2, 3)


def mc_agrees(p_hat: float, stderr: float, p_ref: float, n: int) -> bool:
    """|p_hat - p_ref| within MC_SIGMAS standard errors.

    The standard error is the larger of the reported one and the one the
    reference implies, floored at 1/n so that an estimate of exactly 0 or 1
    (reported error 0) is still judged on a binomial scale.
    """
    se = max(stderr, math.sqrt(max(0.0, p_ref * (1.0 - p_ref)) / n), 1.0 / n)
    return abs(p_hat - p_ref) <= MC_SIGMAS * se


def sweep_row_failures(rows, tol: float, mc_trials: int) -> dict[int, list[str]]:
    """Failed checks per row index of one epsilon's sweep over alpha in [0, pi].

    Rows must be the full alpha grid of one epsilon, so row j and row
    len - 1 - j are a mirror pair.
    """
    out: dict[int, list[str]] = {}
    last = len(rows) - 1
    for j, r in enumerate(rows):
        bad = []
        if r.epsilon == 1.0 and abs(r.p_quad - math.cos(0.5 * r.alpha) ** 2) > tol:
            bad.append("quantum-limit")
        if abs(r.p_quad + rows[last - j].p_quad - 1.0) > 2.0 * tol:
            bad.append("mirror")
        if r.validity == "valid" and not abs(r.p_closed_form - r.p_quad) <= tol:
            bad.append("closed-form")
        if not mc_agrees(r.p_mc, r.mc_stderr, r.p_quad, mc_trials):
            bad.append("mc")
        if bad:
            out[j] = bad
    return out


def census_failures(census, model) -> list[str]:
    """Fractions sum to 1, and each question's certain-yes share matches its
    cap area (1 - epsilon - d) / 2 within MC_SIGMAS standard errors."""
    bad = []
    if abs(sum(census.fractions.values()) - 1.0) > 1e-12:
        bad.append("census-sum")
    for k, fq in enumerate(model.questions):
        e = fq.experiment
        share = sum(p for key, p in census.fractions.items() if key[k] == "yes")
        area = 0.5 * (1.0 - e.epsilon - e.d)
        if not mc_agrees(share, 0.0, area, census.trials):
            bad.append(f"census-yes-share-{fq.label}")
    return bad


def pair_sums_to_one(row, given_yes: bool, tol: float) -> bool:
    """yes|c + no|c = 1 for one conditioning answer c of a question pair."""
    if given_yes:
        return abs(row.yes_given_yes + row.no_given_yes - 1.0) <= 2.0 * tol
    return abs(row.yes_given_no + row.no_given_no - 1.0) <= 2.0 * tol


def verdict_failures(triad, gamma2, kolmogorov, hilbert, model_class, embedding, expect_kolmogorov=None) -> list[str]:
    """Consistency of one set of verdicts on a triad.

    A feasible Kolmogorov verdict carries a witness that satisfies every
    joint constraint exactly; an infeasible one a contradictory bound pair.
    The Hilbert verdict follows the 3/4 threshold, the class is the
    combination of both, and `expect_kolmogorov`, when the triad's verdict
    is known by construction, must match.
    """
    bad = []
    if kolmogorov.feasible:
        w = kolmogorov.witness
        if w is None or any(x < 0 for x in w):
            bad.append("witness-negative")
        elif any(sum(c * x for c, x in zip(con.coeffs, w)) != con.rhs for con in embedding.joint_constraints(triad)):
            bad.append("witness-constraints")
    elif kolmogorov.certificate is None or not kolmogorov.certificate.lower > kolmogorov.certificate.upper:
        bad.append("certificate")
    if expect_kolmogorov is not None and kolmogorov.feasible != expect_kolmogorov:
        bad.append("kolmogorov-verdict")
    if hilbert.feasible != (Fraction(gamma2) <= HILBERT_LIMIT):
        bad.append("hilbert-verdict")
    expected = {
        (True, True): embedding.ModelClass.BOTH,
        (True, False): embedding.ModelClass.KOLMOGOROVIAN,
        (False, True): embedding.ModelClass.HILBERTIAN_2D,
        (False, False): embedding.ModelClass.NEITHER,
    }[(kolmogorov.feasible, hilbert.feasible)]
    if model_class is not expected:
        bad.append("classification")
    return bad
