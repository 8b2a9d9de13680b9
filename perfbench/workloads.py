"""Workload inputs, the library calls they make, and their verification.

A workload is an endless sequence of cycles; cycle k is a fixed list of
ops generated from (seed, k) alone, so two runs with one seed give the
same inputs whatever code they measure.  An op is one timed library call
(the entry points the CLI uses) plus an untimed verification of its
output by the oracles.

The workloads leave out the inputs on which the program is known to
give wrong output (KNOWN_DEFECT_EPSILONS, KNOWN_DEFECT_SURVEYS), so that
any failure in a timed run is news.  Those inputs are still run and
verified, untimed, by known_defects() at the start of every run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

import oracles

TOL = 1e-8

# sweep: the paper's main figure, as the CLI `sweep` command computes it.
# Of its epsilons (1e-6, 0.1, ..., 0.9, 1), the four in
# KNOWN_DEFECT_EPSILONS have alphas where conditional_quad misses its
# error bound at TOL, so their rows fail the closed-form or mirror check.
SWEEP_EPSILONS = (1e-6, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0)
KNOWN_DEFECT_EPSILONS = (0.2, 0.4, 0.7, 0.8)
ALPHA_STEPS = 181
SWEEP_MC_TRIALS = 10_000

# bulk_mc: 1e7 trials per call, so conditional_mc's arrays (about 70 B per
# trial) are far larger than a last-level cache.
BULK_TRIALS = 10_000_000
FLAGSHIP_EPSILON = math.sqrt(2.0) / 2.0

# survey: the census is kept small here because bulk_mc measures it at scale.
SURVEY_CENSUS_TRIALS = 100_000

# Surveys are drawn from a fixed pool of random instances.  qmachine 0.1.0
# fails on the pool indices below, so the workload skips them;
# scan_survey_pool() recomputes both sets.
SURVEY_POOL_SEED = 20011
SURVEY_POOL_SIZE = 256
QUAD_MISS = "conditional_quad misses its error bound"
GAMMA_CRASH = "classify_survey raises on P(V yes | W yes) snapped to 0 or 1"
KNOWN_DEFECT_SURVEYS = {
    QUAD_MISS: (40, 84, 85, 185, 205, 239),
    GAMMA_CRASH: (
        20, 22, 31, 33, 48, 53, 55, 57, 68, 72, 91, 103, 104, 108, 119, 120, 132, 135,
        156, 157, 163, 181, 187, 188, 192, 194, 209, 221, 229, 230, 232, 233, 239, 241, 245, 255,
    ),
}


@dataclass
class Failure:
    unit: str  # what was checked: a row, a call, an instance; counted once
    checks: list[str]


@dataclass
class Op:
    kind: str
    inputs: tuple  # everything the call receives, for the input digest
    items: int  # throughput units: rows, trials or survey instances
    checks: int  # outputs verified, counted as attempted
    call: Callable[[dict], object]  # fills the dict with stage outputs
    verify: Callable[[dict, Optional[BaseException]], list[Failure]]


# ---------------------------------------------------------------- sweep


def _sweep_call(qm, eps: float, mc_seed: int, out: dict) -> None:
    out["rows"] = qm.conditional.sweep([eps], ALPHA_STEPS, TOL, SWEEP_MC_TRIALS, mc_seed)


def _sweep_verify(eps: float, out: dict, exc) -> list[Failure]:
    if exc is not None:
        return [Failure(f"eps={eps} alpha_step={j}", [repr(exc)]) for j in range(ALPHA_STEPS)]
    failures = oracles.sweep_row_failures(out["rows"], TOL, SWEEP_MC_TRIALS)
    return [Failure(f"eps={eps} alpha_step={j}", checks) for j, checks in failures.items()]


def _sweep_op(qm, eps: float, mc_seed: int) -> Op:
    return Op(
        "sweep",
        (eps, ALPHA_STEPS, TOL, SWEEP_MC_TRIALS, mc_seed),
        ALPHA_STEPS,
        ALPHA_STEPS,
        partial(_sweep_call, qm, eps, mc_seed),
        partial(_sweep_verify, eps),
    )


def sweep_cycle(qm, seed: int, cycle: int) -> list[Op]:
    rng = np.random.default_rng([seed, cycle])
    return [_sweep_op(qm, eps, int(rng.integers(0, 2**32))) for eps in SWEEP_EPSILONS]


# -------------------------------------------------------------- bulk_mc


def _flagship_model(qm):
    stats = [qm.survey.QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    angles = [math.radians(a) for a in (0, 60, 120)]
    return qm.survey.build_survey_model(stats, angles, force_epsilon=FLAGSHIP_EPSILON)


def _mc_verify(unit: str, p_ref: float, out: dict, exc) -> list[Failure]:
    if exc is not None:
        return [Failure(unit, [repr(exc)])]
    p_hat, stderr = out["estimate"]
    return [] if oracles.mc_agrees(p_hat, stderr, p_ref, BULK_TRIALS) else [Failure(unit, ["mc"])]


def _conditional_mc_call(qm, alpha_deg: int, seed: int, out: dict) -> None:
    q = qm.conditional.symmetric_query(FLAGSHIP_EPSILON, math.radians(alpha_deg))
    r = qm.conditional.conditional_mc(q, BULK_TRIALS, seed)
    out["estimate"] = (r.value, r.error_bound)


def _estimate_call(qm, theta: float, seed: int, out: dict) -> None:
    g = qm.geometry
    e = qm.machine.EpsilonExperiment(g.Z_AXIS, 1.0, 0.0)
    out["estimate"] = qm.machine.estimate_probability_mc(e, g.unit_vector_at_angle(g.Z_AXIS, theta), BULK_TRIALS, seed)


def _census_call(qm, model, seed: int, out: dict) -> None:
    out["census"] = qm.survey.region_census(model, BULK_TRIALS, seed)


def _census_verify(model, out: dict, exc) -> list[Failure]:
    if exc is not None:
        return [Failure("census", [repr(exc)])]
    checks = oracles.census_failures(out["census"], model)
    return [Failure("census", checks)] if checks else []


class BulkMC:
    """Reference values are computed once per run, outside any timing."""

    def __init__(self, qm):
        self.qm = qm
        self.model = _flagship_model(qm)
        self.refs = {
            a: qm.conditional.conditional_quad(
                qm.conditional.symmetric_query(FLAGSHIP_EPSILON, math.radians(a)), 1e-10
            ).value
            for a in (60, 120)
        }

    def cycle(self, seed: int, cycle: int) -> list[Op]:
        """Five calls, so that the median call is one of a kind rather than
        the boundary between two kinds of call."""
        qm = self.qm
        rng = np.random.default_rng([seed, cycle])
        seeds = [int(s) for s in rng.integers(0, 2**32, 5)]
        ops = []
        for a, s in zip((60, 120), seeds):
            ops.append(
                Op(
                    "conditional_mc",
                    (FLAGSHIP_EPSILON, a, BULK_TRIALS, s),
                    BULK_TRIALS,
                    1,
                    partial(_conditional_mc_call, qm, a, s),
                    partial(_mc_verify, f"conditional_mc alpha={a}", self.refs[a]),
                )
            )
        for s in seeds[2:4]:
            theta = float(rng.uniform(0.0, math.pi))
            ops.append(
                Op(
                    "estimate_probability_mc",
                    (1.0, theta, BULK_TRIALS, s),
                    BULK_TRIALS,
                    1,
                    partial(_estimate_call, qm, theta, s),
                    partial(_mc_verify, f"estimate_probability_mc theta={theta!r}", math.cos(0.5 * theta) ** 2),
                )
            )
        ops.append(
            Op(
                "region_census",
                ("flagship", BULK_TRIALS, seeds[4]),
                BULK_TRIALS,
                1,
                partial(_census_call, qm, self.model, seeds[4]),
                partial(_census_verify, self.model),
            )
        )
        return ops


# --------------------------------------------------------------- survey


def _survey_call(qm, stats, angles, census_seed: int, out: dict) -> None:
    s = qm.survey
    out["model"] = s.build_survey_model(stats, angles)
    out["conditionals"] = s.predict_conditionals(out["model"])
    out["census"] = s.region_census(out["model"], SURVEY_CENSUS_TRIALS, census_seed)
    out["classification"] = s.classify_survey(out["model"])


def _survey_verify(qm, unit: str, out: dict, exc) -> list[Failure]:
    checks = []
    model = out.get("model")
    for row in out.get("conditionals", ()):
        for given_yes in (True, False):
            if not oracles.pair_sums_to_one(row, given_yes, TOL):
                checks.append(f"pair-sum {row.target}|{row.given}={'yes' if given_yes else 'no'}")
    if "census" in out:
        checks += oracles.census_failures(out["census"], model)
    if "classification" in out:
        c = out["classification"]
        checks += oracles.verdict_failures(c.triad, c.gamma2, c.kolmogorov, c.hilbert, c.model_class, qm.embedding)
    if exc is not None:
        checks.append(repr(exc))
    return [Failure(unit, checks)] if checks else []


def _triad_call(qm, triad, gamma2, out: dict) -> None:
    # The order of the CLI `check classify` command.
    e = qm.embedding
    out["classification"] = e.classify(triad, gamma2)
    out["kolmogorov"] = e.check_kolmogorov(triad)
    out["hilbert"] = e.check_hilbert2d(gamma2)


def _triad_verify(qm, unit: str, triad, gamma2, expect_kolmogorov: bool, out: dict, exc) -> list[Failure]:
    if exc is not None:
        return [Failure(unit, [repr(exc)])]
    checks = oracles.verdict_failures(
        triad, gamma2, out["kolmogorov"], out["hilbert"], out["classification"], qm.embedding, expect_kolmogorov
    )
    return [Failure(unit, checks)] if checks else []


def _pool_survey(qm, k: int):
    """Pool instance k: one shared epsilon in (0, 1), each d anywhere in its
    valid range [-(1 - epsilon), 1 - epsilon], and three coplanar axes at
    random angles."""
    rng = np.random.default_rng([SURVEY_POOL_SEED, k])
    eps = 0.0
    while eps == 0.0:
        eps = float(rng.uniform(0.0, 1.0))
    stats = []
    for label in ("W", "V", "U"):
        d = float(rng.uniform(-(1.0 - eps), 1.0 - eps))
        stats.append(qm.survey.QuestionStats(label, 0.5 * (1.0 - d), 0.5 * (1.0 - eps - d), 0.5 * (1.0 - eps + d)))
    angles = [float(a) for a in rng.uniform(0.0, math.pi, 3)]
    return stats, angles


def _joint_triad(qm, rng):
    """Marginals and conditionals of a random rational joint distribution:
    feasible by construction."""
    weights = [int(w) for w in rng.integers(1, 1001, 8)]
    total = sum(weights)
    # Atom index bits: U = 4, V = 2, W = 1.
    atoms = [Fraction(w, total) for w in weights]

    def prob(*events) -> Fraction:
        return sum(
            (a for i, a in enumerate(atoms) if all(bool(i & bit) == positive for bit, positive in events)),
            Fraction(0),
        )

    u, v, w = 4, 2, 1
    e = qm.embedding
    marginals = {"U": prob((u, True)), "V": prob((v, True)), "W": prob((w, True))}
    gamma2 = prob((v, True), (w, True)) / marginals["W"]
    conds = (
        e.CondProb(("V", True), ("W", True), gamma2),
        e.CondProb(("U", True), ("W", True), prob((u, True), (w, True)) / marginals["W"]),
        e.CondProb(("U", False), ("V", True), prob((u, False), (v, True)) / marginals["V"]),
    )
    return e.TriadData(marginals, conds), gamma2


def _half_triad(qm, rng):
    """The half-marginal family: Kolmogorov-feasible iff g <= 2/3."""
    pick = rng.uniform()
    if pick < 0.1:
        g = Fraction(2, 3)
    elif pick < 0.2:
        g = Fraction(3, 4)
    else:
        g = Fraction(int(rng.integers(1, 10_000)), 10_000)
    e = qm.embedding
    half = Fraction(1, 2)
    triad = e.TriadData(
        {"U": half, "V": half, "W": half},
        (
            e.CondProb(("V", True), ("W", True), g),
            e.CondProb(("U", True), ("W", True), 1 - g),
            e.CondProb(("U", False), ("V", True), 1 - g),
        ),
    )
    return triad, g, g <= oracles.HALF_FAMILY_KOLMOGOROV_LIMIT


def _triad_inputs(triad, gamma2) -> tuple:
    return (tuple(sorted(triad.marginals.items())), triad.conditionals, gamma2)


def _survey_op(qm, k: int, census_seed: int, unit: str) -> Op:
    stats, angles = _pool_survey(qm, k)
    return Op(
        "survey",
        (k, tuple(stats), tuple(angles), census_seed),
        1,
        1,
        partial(_survey_call, qm, stats, angles, census_seed),
        partial(_survey_verify, qm, unit),
    )


SURVEY_POOL = tuple(
    k for k in range(SURVEY_POOL_SIZE) if not any(k in ks for ks in KNOWN_DEFECT_SURVEYS.values())
)


def survey_cycle(qm, seed: int, cycle: int) -> list[Op]:
    """One survey instance interleaved with two CLI-check-style triad ops."""
    rng = np.random.default_rng([seed, cycle])
    k = int(rng.choice(SURVEY_POOL))
    ops = [_survey_op(qm, k, int(rng.integers(0, 2**32)), f"survey pool={k}")]
    joint, g_joint = _joint_triad(qm, rng)
    half, g_half, half_feasible = _half_triad(qm, rng)
    triads = (("triad-joint", joint, g_joint, True), ("triad-half", half, g_half, half_feasible))
    for kind, triad, gamma2, feasible in triads:
        ops.append(
            Op(
                kind,
                _triad_inputs(triad, gamma2),
                0,
                1,
                partial(_triad_call, qm, triad, gamma2),
                partial(_triad_verify, qm, f"{kind} cycle={cycle}", triad, gamma2, feasible),
            )
        )
    return ops


# --------------------------------------------------------- known defects


def _run(op: Op) -> list[Failure]:
    out: dict = {}
    try:
        op.call(out)
    except Exception as e:  # a raising call is a failure to report, not a crash
        return op.verify(out, e)
    return op.verify(out, None)


def known_defects(qm) -> dict[str, tuple[int, list[Failure]]]:
    """Run the inputs the workloads leave out because the program fails
    on them: every KNOWN_DEFECT_EPSILONS sweep and the first two pool
    surveys of each defect.  Returns, per defect, how many inputs were
    run and the failures the oracles found on them."""
    found = {}
    ops = [_sweep_op(qm, eps, 0) for eps in KNOWN_DEFECT_EPSILONS]
    found["sweep: " + QUAD_MISS] = (len(ops), [f for op in ops for f in _run(op)])
    for cause, ks in KNOWN_DEFECT_SURVEYS.items():
        ops = [_survey_op(qm, k, 0, f"survey pool={k}") for k in ks[:2]]
        found["survey: " + cause] = (len(ops), [f for op in ops for f in _run(op)])
    return found


def scan_survey_pool(qm) -> dict[str, list[int]]:
    """The pool indices whose survey op fails, by defect: the Hilbert
    check's range error is GAMMA_CRASH, a pair that does not sum to 1 is
    QUAD_MISS, and any other failed check is listed as unexplained."""
    found: dict[str, list[int]] = {QUAD_MISS: [], GAMMA_CRASH: [], "unexplained": []}
    for k in range(SURVEY_POOL_SIZE):
        for failure in _run(_survey_op(qm, k, 0, f"survey pool={k}")):
            for check in failure.checks:
                if check == repr(ValueError("gamma^2 must lie strictly between 0 and 1")):
                    cause = GAMMA_CRASH
                elif check.startswith("pair-sum"):
                    cause = QUAD_MISS
                else:
                    cause = "unexplained"
                if k not in found[cause]:
                    found[cause].append(k)
    return found


# ------------------------------------------------------------ self-check


def self_check(qm) -> list[str]:
    """Plant a wrong value in genuine outputs and confirm that verification
    counts it as a failure of the planted unit and check; returns the
    plantings that went unnoticed."""
    missed = []

    def caught(what: str, failures: list[Failure], unit: str, check: str) -> None:
        if not any(f.unit == unit and check in f.checks for f in failures):
            missed.append(what)

    eps = 0.5
    rows = qm.conditional.sweep([eps], 19, TOL, SWEEP_MC_TRIALS, 0)
    j = 5
    for what, bad, check, flagged_row in (
        ("wrong MC estimate", dataclasses.replace(rows[j], p_mc=rows[j].p_quad + 0.05), "mc", j),
        ("broken mirror pair", dataclasses.replace(rows[j], p_quad=rows[j].p_quad + 1e-6), "mirror", len(rows) - 1 - j),
    ):
        tampered = rows[:j] + [bad] + rows[j + 1:]
        caught(what, _sweep_verify(eps, {"rows": tampered}, None), f"eps={eps} alpha_step={flagged_row}", check)

    caught("wrong bulk MC estimate", _mc_verify("mc", 0.5, {"estimate": (0.51, 1e-4)}, None), "mc", "mc")
    model = _flagship_model(qm)
    census = qm.survey.region_census(model, 10_000, 0)
    skewed = dataclasses.replace(census, fractions={k: 2 * p for k, p in census.fractions.items()})
    caught("wrong census", _census_verify(model, {"census": skewed}, None), "census", "census-sum")

    rows = qm.survey.predict_conditionals(model)
    bad = [dataclasses.replace(rows[0], yes_given_yes=rows[0].yes_given_yes + 1e-6)] + rows[1:]
    failures = _survey_verify(qm, "survey", {"model": model, "conditionals": bad}, None)
    caught("broken conditional pair", failures, "survey", f"pair-sum {rows[0].target}|{rows[0].given}=yes")

    triad, g, feasible = _half_triad(qm, np.random.default_rng(0))
    out: dict = {}
    _triad_call(qm, triad, g, out)
    k, h = out["kolmogorov"], out["hilbert"]
    model_class = qm.embedding.ModelClass
    for what, key, wrong, check in (
        ("wrong Kolmogorov verdict", "kolmogorov", dataclasses.replace(k, feasible=not k.feasible), "kolmogorov-verdict"),
        ("wrong Hilbert verdict", "hilbert", dataclasses.replace(h, feasible=not h.feasible), "hilbert-verdict"),
        ("wrong classification", "classification", model_class.NEITHER if feasible else model_class.BOTH, "classification"),
    ):
        tampered = dict(out, **{key: wrong})
        caught(what, _triad_verify(qm, "triad", triad, g, feasible, tampered, None), "triad", check)
    return missed


def make(qm, name: str) -> Callable[[int, int], list[Op]]:
    """The cycle generator of a workload: (seed, cycle index) -> ops."""
    if name == "sweep":
        return partial(sweep_cycle, qm)
    if name == "bulk_mc":
        return BulkMC(qm).cycle
    if name == "survey":
        return partial(survey_cycle, qm)
    raise ValueError(f"unknown workload {name!r}")


# What `throughput` counts on each workload.
ITEMS = {"sweep": "rows", "bulk_mc": "trials", "survey": "survey instances"}


if __name__ == "__main__":
    # Recompute KNOWN_DEFECT_SURVEYS: python3 perfbench/workloads.py
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qmachine

    for cause, ks in scan_survey_pool(qmachine).items():
        print(f"{cause}: {tuple(ks)}")
