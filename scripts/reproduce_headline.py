#!/usr/bin/env python3
"""Print the model's headline numbers in one run.

Covers: the maximal-band (quantum) law and its Monte Carlo check, the two
limit laws of the conditional probability, the intermediate-band values at
the flagship geometry, the exact Kolmogorov and Hilbert impossibility
certificates, and the survey pipeline classifications.
"""

import argparse
import math
from fractions import Fraction

from qmachine.conditional import conditional_closed_form, conditional_mc, conditional_quad, symmetric_query
from qmachine.embedding import check_hilbert2d, check_kolmogorov, paper_triad
from qmachine.geometry import Z_AXIS, unit_vector_at_angle
from qmachine.machine import EpsilonExperiment, estimate_probability_mc
from qmachine.survey import QuestionStats, build_survey_model, classify_survey, region_census

SQ2 = math.sqrt(2) / 2


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=1_000_000)
    args = parser.parse_args()

    print("== maximal band: half-angle law ==")
    e = EpsilonExperiment(Z_AXIS, 1.0, 0.0)
    for theta_deg in (60, 90, 120):
        theta = math.radians(theta_deg)
        est, err = estimate_probability_mc(e, unit_vector_at_angle(Z_AXIS, theta), args.trials, args.seed)
        print(f"  theta={theta_deg:3d}deg  exact={math.cos(theta / 2) ** 2:.6f}  mc={est:.6f} +- {err:.6f}")

    print("== conditional probability limits ==")
    for alpha_deg in (45, 90, 135):
        alpha = math.radians(alpha_deg)
        q = conditional_quad(symmetric_query(1.0, alpha)).value
        c = conditional_quad(symmetric_query(1e-6, alpha)).value
        print(
            f"  alpha={alpha_deg:3d}deg  band=1: {q:.6f} (cos^2 {math.cos(alpha / 2) ** 2:.6f})"
            f"   band->0: {c:.6f} (linear {1 - alpha / math.pi:.6f})"
        )

    print("== intermediate band (epsilon = sqrt(2)/2), axes at 0/60/120 deg ==")
    for alpha_deg in (60, 120):
        alpha = math.radians(alpha_deg)
        quad = conditional_quad(symmetric_query(SQ2, alpha)).value
        mc = conditional_mc(symmetric_query(SQ2, alpha), args.trials, args.seed)
        closed = conditional_closed_form(SQ2, alpha).value
        print(f"  alpha={alpha_deg:3d}deg  quad={quad:.6f}  mc={mc.value:.6f} +- {mc.error_bound:.6f}  closed={closed:.6f}")

    print("== exact impossibility certificates ==")
    kv = check_kolmogorov(paper_triad())
    cert = kv.certificate
    print(
        f"  joint distribution: infeasible; every joint needs "
        f"{cert.lower} <= P({cert.expression}) <= {cert.upper}"
    )
    hv = check_hilbert2d(Fraction("0.78"))
    print(
        f"  2-D transition model: infeasible; the phases would need "
        f"cos(phase) = {hv.required_cosine} = {float(hv.required_cosine):.4f}"
    )

    print("== survey pipeline ==")
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    angles = [math.radians(a) for a in (0, 60, 120)]
    fitted = build_survey_model(stats, angles)
    forced = build_survey_model(stats, angles, force_epsilon=SQ2)
    print(f"  fitted epsilon from 15%/15% predetermined: {fitted.epsilon:.4f}")
    outcome = classify_survey(forced)
    print(f"  classification at forced epsilon sqrt(2)/2: {outcome.model_class.value}")
    census = region_census(forced, args.trials, args.seed)
    none_key = ("none", "none", "none")
    print(
        f"  census ({args.trials} draws, seed {args.seed}): {len(census.fractions)} regions; "
        f"no predetermined opinion at all: {census.fractions[none_key]:.4f} "
        f"+- {census.std_errors[none_key]:.4f}"
    )


if __name__ == "__main__":
    main()
