"""Command-line front end.

Subcommands: prob (exact outcome probabilities), simulate (seeded trial
frequencies), conditional (the three routes), sweep (CSV table over
alpha), check (exact embeddability verdicts), survey (poll pipeline).
check takes a kind and exactly its flags: kolmogorov --triad, hilbert
--gamma2, classify --triad --gamma2.

Output: each command prints one JSON object on stdout, non-finite numbers
as null (NaN) or "Infinity" / "-Infinity".  The exception is `sweep --out
-`, which writes its CSV on stdout and its JSON summary on stderr.  A
non-finite state or survey angle is a usage error.

Exit codes: 0 for any successfully computed result, including infeasible
verdicts; 2 for usage errors; 3 for domain errors (a well-formed request
the model cannot answer).  Stochastic outputs embed their seed, trial
count and version, and rerunning with the same flags is byte-identical.
The seed default comes from QMACHINE_SEED when set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .conditional import (
    ConditionalQuery,
    SweepRow,
    conditional_closed_form,
    conditional_mc,
    conditional_quad,
    sweep,
)
from .embedding import (
    CondProb,
    HilbertVerdict,
    KolmogorovVerdict,
    TriadData,
    atom_label,
    check_hilbert2d,
    check_kolmogorov,
    model_class,
    parse_event,
    to_fraction,
)
from .errors import DomainError
from .geometry import Z_AXIS, UnitVector, unit_vector_at_angle
from .machine import EpsilonExperiment, estimate_probability_mc, p1_given_projection
from .survey import QuestionStats, build_survey_model, classify_survey, predict_conditionals, region_census

USAGE_ERROR = 2
DOMAIN_ERROR = 3


def _default_seed() -> int:
    text = os.environ.get("QMACHINE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"QMACHINE_SEED must be an integer, got {text!r}") from None


def _sanitize(value):
    """Strict JSON has no NaN/Infinity; map them to null / signed strings."""
    # Reachable: the closed form overflows at subnormal epsilon (value nan, error_bound inf).
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    return value


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _state_projection(args) -> float:
    if args.x is not None and args.theta is not None:
        raise ValueError("give either --theta or --x, not both")
    if args.x is not None:
        if not -1.0 <= args.x <= 1.0:
            raise ValueError("--x must lie in [-1, 1]")
        return args.x
    if args.theta is None:
        raise ValueError("one of --theta or --x is required")
    if not math.isfinite(args.theta):
        raise ValueError(f"--theta must be finite, got {args.theta}")
    return math.cos(_angle(args.theta, args.degrees))


def _state_with_projection(x: float) -> UnitVector:
    """The state in the x-z plane whose projection on Z_AXIS is exactly x,
    so the tie x = d at epsilon = 0 stays a tie."""
    return UnitVector(math.sqrt(1.0 - x * x), 0.0, x)


def _cmd_prob(args) -> dict:
    x = _state_projection(args)
    p1 = p1_given_projection(EpsilonExperiment(Z_AXIS, args.epsilon, args.d), x)
    return {"epsilon": args.epsilon, "d": args.d, "x": x, "p1": p1, "p2": 1.0 - p1}


def _cmd_simulate(args) -> dict:
    x = _state_projection(args)
    e = EpsilonExperiment(Z_AXIS, args.epsilon, args.d)
    estimate, stderr = estimate_probability_mc(e, _state_with_projection(x), args.trials, args.seed)
    return {
        "epsilon": args.epsilon,
        "d": args.d,
        "x": x,
        "estimate": estimate,
        "std_error": stderr,
        "trials": args.trials,
        "seed": args.seed,
        "version": __version__,
    }


def _cmd_conditional(args) -> dict:
    alpha = _angle(args.alpha, args.degrees)
    if not 0.0 <= alpha <= math.pi:
        raise ValueError("alpha must lie in [0, pi] (after unit conversion)")
    payload = {"epsilon": args.epsilon, "alpha": alpha, "d": args.d, "c": args.c, "method": args.method}
    if args.method == "formula":
        if args.d != 0.0 or args.c != 0.0:
            raise ValueError("the closed form is defined for d = c = 0 only")
        result = conditional_closed_form(args.epsilon, alpha)
        payload["diagnostics"] = result.diagnostics
    else:
        query = ConditionalQuery(
            target=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, alpha), args.epsilon, args.d),
            cond=EpsilonExperiment(Z_AXIS, args.epsilon, args.c),
        )
        if args.method == "quad":
            result = conditional_quad(query)
        else:
            result = conditional_mc(query, args.trials, args.seed)
            payload.update(trials=args.trials, seed=args.seed, version=__version__)
    payload.update(value=result.value, error_bound=result.error_bound, validity=result.validity.value)
    return payload


def _cmd_sweep(args) -> Optional[dict]:
    epsilons = [float(tok) for tok in args.epsilons.split(",") if tok.strip()]
    if not epsilons:
        raise ValueError("--epsilons needs at least one value")
    rows = sweep(epsilons, args.alpha_steps, mc_trials=args.mc_trials, seed=args.seed)

    def write(stream) -> None:
        # csv writes a float as its repr and a str as itself.
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([f.name for f in dataclasses.fields(SweepRow)])
        writer.writerows(dataclasses.astuple(r) for r in rows)

    summary = {
        "rows": len(rows),
        "seed": args.seed,
        "mc_trials": args.mc_trials,
        "out": args.out,
        "version": __version__,
    }
    if args.out == "-":
        write(sys.stdout)
        print(json.dumps(summary), file=sys.stderr)
        return None
    with open(args.out, "w", encoding="utf-8") as fh:
        write(fh)
    return summary


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _rational(value, name: str) -> Fraction:
    """An exact rational from a flag or a triad file; anything else, such
    as 1/0, Infinity, true or a list, is a usage error that names the value."""
    try:
        return to_fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{name} must be an exact rational, got {value!r}") from None


def _shaped(value, kind: type, path: str):
    """`value`, read from an input file at `path` (such as "cond[1]"),
    provided it is a JSON object (kind dict) or list (kind list); anything
    else is a usage error that names the path and the value."""
    if not isinstance(value, kind):
        raise ValueError(f"{path} must be {'an object' if kind is dict else 'a list'}, got {value!r}")
    return value


def _load_triad(path: str) -> TriadData:
    with open(path, "r", encoding="utf-8") as fh:
        raw = _shaped(json.load(fh, parse_float=Fraction, parse_int=Fraction), dict, "the triad file")
    marginals = {str(k): _rational(v, f"marginal {k}") for k, v in _shaped(raw["marg"], dict, "marg").items()}
    conds = []
    for i, c in enumerate(_shaped(raw["cond"], list, "cond")):
        c = _shaped(c, dict, f"cond[{i}]")
        conds.append(
            CondProb(parse_event(str(c["event"])), parse_event(str(c["given"])), _rational(c["p"], f"p of conditional {i + 1}"))
        )
    return TriadData(marginals, tuple(conds))


def _kolmogorov_payload(verdict: KolmogorovVerdict) -> dict:
    payload: dict = {"kolmogorov": "feasible" if verdict.feasible else "infeasible"}
    if verdict.witness is not None:
        payload["witness"] = {atom_label(i): _fraction_str(x) for i, x in enumerate(verdict.witness)}
    if verdict.certificate is not None:
        payload["certificate"] = {
            "lower": _fraction_str(verdict.certificate.lower),
            "upper": _fraction_str(verdict.certificate.upper),
            "expression": verdict.certificate.expression,
        }
    return payload


def _hilbert_payload(verdict: HilbertVerdict) -> dict:
    cosine = verdict.required_cosine
    return {
        "hilbert2d": "feasible" if verdict.feasible else "infeasible",
        "gamma2": _fraction_str(verdict.gamma2),
        "delta2": _fraction_str(verdict.delta2),
        "required_cosine": None if cosine is None else _fraction_str(cosine),
        "required_cosine_decimal": None if cosine is None else float(cosine),
    }


def _classification_payload(kolmogorov: KolmogorovVerdict, hilbert: HilbertVerdict) -> dict:
    return {
        "classification": model_class(kolmogorov, hilbert).value,
        "kolmogorov": _kolmogorov_payload(kolmogorov),
        "hilbert2d": _hilbert_payload(hilbert),
    }


def _cmd_kolmogorov(args) -> dict:
    return _kolmogorov_payload(check_kolmogorov(_load_triad(args.triad)))


def _cmd_hilbert(args) -> dict:
    return _hilbert_payload(check_hilbert2d(_rational(args.gamma2, "--gamma2")))


def _cmd_classify(args) -> dict:
    kolmogorov = check_kolmogorov(_load_triad(args.triad))
    return _classification_payload(kolmogorov, check_hilbert2d(_rational(args.gamma2, "--gamma2")))


def _number(value, name: str) -> float:
    """A finite number from a survey file; anything else (a boolean, a
    string, null, NaN or an infinity) is a usage error that names the value.
    The bound test is exact on any JSON integer, so none overflows float."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _load_survey(path: str) -> tuple[list[QuestionStats], list[float]]:
    with open(path, "r", encoding="utf-8") as fh:
        raw = _shaped(json.load(fh), dict, "the survey file")

    def question(i: int, q) -> QuestionStats:
        q = _shaped(q, dict, f"questions[{i}]")
        label = str(q["label"])
        yes, pre_yes, pre_no = (_number(q[key], f"{key} of question {label!r}") for key in ("yes", "pre_yes", "pre_no"))
        return QuestionStats(label=label, yes_fraction=yes, predetermined_yes=pre_yes, predetermined_no=pre_no)

    stats = [question(i, q) for i, q in enumerate(_shaped(raw["questions"], list, "questions"))]
    angles = _shaped(raw["angles_deg"], list, "angles_deg")
    return stats, [math.radians(_number(a, f"angle {i}")) for i, a in enumerate(angles, 1)]


def _cmd_survey(args) -> dict:
    stats, angles = _load_survey(args.input)
    model = build_survey_model(stats, angles, force_epsilon=args.force_epsilon)
    census = region_census(model, args.census_trials, args.seed)
    outcome = classify_survey(model)
    return {
        "forced_epsilon": args.force_epsilon,
        "questions": [
            {
                "label": fq.label,
                "angle_deg": math.degrees(fq.angle),
                "epsilon": fq.experiment.epsilon,
                "d": fq.experiment.d,
                "predicted_yes_rate": fq.diagnostics.predicted_yes_rate,
                "yes_rate_mismatch": fq.diagnostics.yes_rate_mismatch,
            }
            for fq in model.questions
        ],
        "conditionals": [dataclasses.asdict(row) for row in predict_conditionals(model)],
        "census": {
            "fractions": {",".join(k): v for k, v in sorted(census.fractions.items())},
            "std_errors": {",".join(k): v for k, v in sorted(census.std_errors.items())},
            "trials": census.trials,
            "seed": census.seed,
        },
        **_classification_payload(outcome.kolmogorov, outcome.hilbert),
        "version": __version__,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmachine", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qmachine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    pure_state = argparse.ArgumentParser(add_help=False)
    pure_state.add_argument("--epsilon", type=float, required=True)
    pure_state.add_argument("--d", type=float, default=0.0)
    pure_state.add_argument("--theta", type=float, help="angle between state and axis")
    pure_state.add_argument("--x", type=float, help="projection of the state on the axis")
    pure_state.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=_default_seed())

    p = sub.add_parser("prob", parents=[pure_state], help="exact outcome probabilities for a pure state")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("simulate", parents=[pure_state, seeded], help="seeded trial frequency for a pure state")
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("conditional", parents=[seeded], help="conditional probability between two experiments")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True, help="angle between the two axes")
    p.add_argument("--d", type=float, default=0.0, help="offset of the target experiment")
    p.add_argument("--c", type=float, default=0.0, help="offset of the conditioning experiment")
    p.add_argument("--method", choices=("quad", "mc", "formula"), default="quad")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--degrees", action="store_true")
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("sweep", parents=[seeded], help="CSV table of the conditional over alpha")
    p.add_argument("--epsilons", type=str, required=True, help="comma-separated epsilon values")
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--mc-trials", type=int, default=10_000)
    p.add_argument("--out", type=str, required=True, help="output path, or - for stdout")
    p.set_defaults(func=_cmd_sweep)

    triad = argparse.ArgumentParser(add_help=False)
    triad.add_argument("--triad", type=str, required=True, help="triad JSON file")
    gamma2 = argparse.ArgumentParser(add_help=False)
    gamma2.add_argument("--gamma2", type=str, required=True, help="adjacent transition probability, exact decimal")
    check = sub.add_parser("check", help="exact embeddability verdicts").add_subparsers(dest="kind", required=True)
    check.add_parser("kolmogorov", parents=[triad], help="joint distribution").set_defaults(func=_cmd_kolmogorov)
    check.add_parser("hilbert", parents=[gamma2], help="2-D transition model").set_defaults(func=_cmd_hilbert)
    p = check.add_parser("classify", parents=[triad, gamma2], help="both checks and the model class")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("survey", parents=[seeded], help="poll pipeline: fit, predict, census, classify")
    p.add_argument("--input", type=str, required=True, help="survey JSON file")
    p.add_argument("--force-epsilon", type=float, default=None)
    p.add_argument("--census-trials", type=int, default=1_000_000)
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # reads QMACHINE_SEED
        payload = args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        missing = "missing key " if isinstance(exc, KeyError) else ""  # str(KeyError) is the key's repr alone
        print(f"error: {missing}{exc}", file=sys.stderr)
        return USAGE_ERROR
    if payload is not None:  # sweep --out - has already written its CSV
        print(json.dumps(_sanitize(payload)))
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
