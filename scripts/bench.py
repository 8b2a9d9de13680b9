#!/usr/bin/env python3
"""Layer benchmark: MC kernels, cap overlap, conditionals, checker, survey, CLI sweep.

Every timing follows one rule (`timed`): after a warm-up, call(item) runs
a fixed number of times for each of an entry's items, and the item's
figures are the medians over those calls of its wall seconds
(time.perf_counter around the call alone), its CPU seconds
(time.process_time, which a preempted process does not accrue, read just
outside the wall window) and its minor page faults (resource.getrusage
of this process, read outside both).  An entry reports the median over
its items with their quartiles, in its own unit.  Its items, calls per
item and warm-up:

* MC kernels: conditional_mc on the flagship query (its conditioned state
  is uniform on a cap, so every trial runs the cap sampler),
  estimate_probability_mc on one pure state and region_census on the
  flagship survey.  REPEATS seeds, one call of TRIALS trials each, warmed
  by 1,000 trials; ms per 1e6 trials, the median minor faults per call
  and the tracemalloc peak of one more call.
* Sweep-row MC: conditional_mc at SWEEP_ROW_TRIALS trials for the
  flagship epsilon at each of SWEEP_ALPHA_STEPS alphas with the sweep's
  seeds, REPEATS calls each; us per call.
* Cap overlap: cap_intersection_fraction on CAP_PAIRS seeded pairs of
  caps (uniform centers, half-angles uniform on [0, pi]), REPEATS calls
  each; us per call.
* Conditionals: conditional_closed_form and conditional_quad (the exact
  route: the band average of the cap overlap from the lens's first
  moment) on the symmetric query at every point of the CLI sweep grid
  (CLI_SWEEP_EPSILONS x SWEEP_ALPHA_STEPS alphas), REPEATS calls each;
  us per call and each route's largest error_bound.  The closed form
  also reports its counts of `valid` and `inaccurate` rows, and the
  exact route its misses: rows farther from a `valid` closed form than
  the two routes' error_bounds add up to, and rows whose mirror identity
  f(alpha) + f(pi - alpha) = 1 is off by more than the two rows'
  error_bounds.  A row where both routes meet their claims is never a
  miss; the mirror check involves the exact route alone.
* Exact checker: check_kolmogorov on CHECKER_TRIADS seeded triads of
  each family (random rational joints with the three standard
  conditionals, the half-marginal family, random rational triads with
  0-5 random conditionals, constant-row certificates among them),
  CHECKER_REPEATS calls each, warmed by the verdict pass over every
  triad; wall and CPU ms per triad, the verdict mix, and the median and
  largest tracemalloc peak of one call per triad.
* Survey stages, on the flagship survey (three questions at 0, 60 and
  120 degrees, 15% predetermined each way, epsilon forced to sqrt(2)/2):
  the fit (build_survey_model), predict_conditionals, region_census at
  SURVEY_CENSUS_DRAWS draws and classify_survey, each REPEATS single
  calls; wall and CPU ms.
* End to end: CLI `sweep` over CLI_SWEEP_EPSILONS x SWEEP_ALPHA_STEPS
  alphas (the sweep's defaults otherwise, CSV to stdout, discarded),
  CLI_RUNS single subprocess runs with no warm-up; s per run, and the
  rows per second its median gives.

Then the Python, numpy and qmachine versions and a machine note.
Standard library and numpy only.

    PYTHONPATH=src python scripts/bench.py --out BENCH_<n>.json

Page faults and CPU time are this process's alone, so run it on an
otherwise quiet machine and compare files made on the same one.  TRIALS,
REPEATS and the checker, sweep and CLI constants are fixed so that every
BENCH_<n>.json is comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np

import qmachine
from qmachine.conditional import conditional_closed_form, conditional_mc, conditional_quad, symmetric_query
from qmachine.embedding import VARIABLES, CondProb, TriadData, check_kolmogorov
from qmachine.geometry import Z_AXIS, SectorCap, cap_intersection_fraction, unit_vector_at_angle
from qmachine.machine import EpsilonExperiment, estimate_probability_mc
from qmachine.survey import QuestionStats, build_survey_model, classify_survey, predict_conditionals, region_census

SQ2 = math.sqrt(2) / 2
TRIALS = 10_000_000
REPEATS = 5
CHECKER_TRIADS = 100  # per family
CHECKER_REPEATS = 5
CHECKER_SEED = 5
SWEEP_ROW_TRIALS = 10_000
SWEEP_ALPHA_STEPS = 181
CLI_SWEEP_EPSILONS = "0.000001,0.25,0.5,0.7071068,1"
CLI_RUNS = 5
CAP_PAIRS = 1_000
CAP_SEED = 8
SURVEY_CENSUS_DRAWS = 1_000_000
CONSTANT_ROW = "0"  # the expression of a constant-row certificate
ATOM_BIT = {"U": 4, "V": 2, "W": 1}  # bit of each event in an atom index


def _flagship_model():
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    return build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)], force_epsilon=SQ2)


KERNELS = {
    "conditional_mc": lambda n, seed: conditional_mc(symmetric_query(SQ2, math.radians(120)), n, seed),
    "estimate_probability_mc": lambda n, seed: estimate_probability_mc(
        EpsilonExperiment(Z_AXIS, SQ2, 0.0), unit_vector_at_angle(Z_AXIS, 1.2), n, seed
    ),
    "region_census": lambda n, seed: region_census(_flagship_model(), n, seed),
}


def timed(call, items, repeats: int = REPEATS, warm=None) -> tuple[list, list, list]:
    """Each item's median wall seconds, CPU seconds and minor page faults
    over `repeats` calls of call(item), after warm-up calls of the items in
    `warm` (items[0] by default).  The wall window holds the call alone: the
    CPU clock is read outside it and the fault counter outside both."""
    for item in items[:1] if warm is None else warm:
        call(item)  # warm caches and lazy set-up before timing
    wall, cpu, faults = [], [], []
    for item in items:
        runs = []
        for _ in range(repeats):
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            cpu_start = time.process_time()
            start = time.perf_counter()
            call(item)
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            runs.append((seconds, cpu_seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt))
        for out, values in zip((wall, cpu, faults), zip(*runs)):
            out.append(statistics.median(values))
    return wall, cpu, faults


def spread(key: str, seconds, scale: float) -> dict:
    """The median of `seconds` times `scale` under `key`, and their
    quartiles under `key`_quartiles."""
    values = [s * scale for s in seconds]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {key: statistics.median(values), f"{key}_quartiles": [q1, q3]}


def traced_peak(call, *args) -> int:
    """The tracemalloc peak of one call(*args), in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def measure(call) -> dict:
    runs = [(TRIALS, seed) for seed in range(REPEATS)]
    wall, _, faults = timed(lambda run: call(*run), runs, repeats=1, warm=[(1_000, 0)])
    return {
        **spread("ms_per_1e6_trials", wall, 1e9 / TRIALS),
        "minor_faults_per_call": statistics.median(faults),
        "tracemalloc_peak_bytes": traced_peak(call, TRIALS, REPEATS),
    }


def per_call_us(call, items) -> dict:
    """The item count and the median us per call(item), with quartiles."""
    return {"calls": len(items), **spread("us_per_call", timed(call, items)[0], 1e6)}


def measure_sweep_row() -> dict:
    """conditional_mc as one sweep row calls it, at every alpha of one epsilon."""
    queries = [symmetric_query(SQ2, math.pi * j / (SWEEP_ALPHA_STEPS - 1)) for j in range(SWEEP_ALPHA_STEPS)]
    runs = [(q, SWEEP_ROW_TRIALS, [0, 0, j]) for j, q in enumerate(queries)]
    wall = timed(lambda run: conditional_mc(*run), runs, warm=[(queries[1], SWEEP_ROW_TRIALS, 0)])[0]
    entry = {"epsilon": SQ2, "alphas": SWEEP_ALPHA_STEPS, "trials_per_call": SWEEP_ROW_TRIALS}
    return {**entry, **spread("us_per_call", wall, 1e6)}


def measure_cli_sweep() -> dict:
    """Wall time of the CLI sweep, interpreter start-up included."""
    argv = [sys.executable, "-m", "qmachine.cli", "sweep", "--epsilons", CLI_SWEEP_EPSILONS]
    argv += ["--alpha-steps", str(SWEEP_ALPHA_STEPS), "--seed", "0", "--out", "-"]

    def run(_) -> None:
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    timing = spread("s_per_run", timed(run, [None] * CLI_RUNS, repeats=1, warm=())[0], 1.0)
    rows = len(CLI_SWEEP_EPSILONS.split(",")) * SWEEP_ALPHA_STEPS
    return {
        "epsilons": CLI_SWEEP_EPSILONS,
        "alpha_steps": SWEEP_ALPHA_STEPS,
        "runs": CLI_RUNS,
        **timing,
        "rows_per_s": rows / timing["s_per_run"],
    }


def measure_cap_overlap() -> dict:
    rnd = random.Random(CAP_SEED)

    def cap() -> SectorCap:
        center = unit_vector_at_angle(Z_AXIS, math.acos(rnd.uniform(-1.0, 1.0)), rnd.uniform(0.0, 2.0 * math.pi))
        return SectorCap(center, rnd.uniform(0.0, math.pi))

    pairs = [(cap(), cap()) for _ in range(CAP_PAIRS)]
    return {"seed": CAP_SEED, **per_call_us(lambda ab: cap_intersection_fraction(*ab), pairs)}


def measure_quad(queries, closed) -> dict:
    """conditional_quad over the grid: time, largest error_bound, misses."""
    results = [conditional_quad(q) for q in queries]
    mirror_misses = 0
    for i, r in enumerate(results):
        j = i % SWEEP_ALPHA_STEPS  # the row at pi - alpha is SWEEP_ALPHA_STEPS - 1 - j
        mirror = results[i - j + SWEEP_ALPHA_STEPS - 1 - j]
        mirror_misses += abs(r.value + mirror.value - 1.0) > r.error_bound + mirror.error_bound
    return {
        **per_call_us(conditional_quad, queries),
        "max_error_bound": max(r.error_bound for r in results),
        "closed_form_misses": sum(
            c.validity.value == "valid" and abs(r.value - c.value) > r.error_bound + c.error_bound
            for r, c in zip(results, closed)
        ),
        "mirror_misses": mirror_misses,
    }


def measure_conditionals() -> dict:
    """Closed form and the exact route per call over the CLI sweep grid."""
    grid = [
        (float(eps), math.pi * j / (SWEEP_ALPHA_STEPS - 1))
        for eps in CLI_SWEEP_EPSILONS.split(",")
        for j in range(SWEEP_ALPHA_STEPS)
    ]
    queries = [symmetric_query(eps, alpha) for eps, alpha in grid]
    closed_results = [conditional_closed_form(*p) for p in grid]
    closed = per_call_us(lambda p: conditional_closed_form(*p), grid)
    closed["valid"] = sum(c.validity.value == "valid" for c in closed_results)
    closed["inaccurate"] = sum(c.validity.value == "inaccurate" for c in closed_results)
    closed["max_error_bound"] = max(c.error_bound for c in closed_results)
    return {
        "epsilons": CLI_SWEEP_EPSILONS,
        "alpha_steps": SWEEP_ALPHA_STEPS,
        "conditional_closed_form": closed,
        "conditional_quad": measure_quad(queries, closed_results),
    }


def median_ms(call) -> dict:
    """Wall and CPU ms of REPEATS single calls."""
    wall, cpu, _ = timed(lambda _: call(), [None] * REPEATS, repeats=1)
    return {**spread("ms", wall, 1e3), **spread("cpu_ms", cpu, 1e3)}


def measure_survey() -> dict:
    """The flagship survey's pipeline, stage by stage."""
    model = _flagship_model()
    return {
        "fit": median_ms(_flagship_model),
        "predict_conditionals": median_ms(lambda: predict_conditionals(model)),
        "census": {"draws": SURVEY_CENSUS_DRAWS, **median_ms(lambda: region_census(model, SURVEY_CENSUS_DRAWS, 0))},
        "classify_survey": median_ms(lambda: classify_survey(model)),
    }


def _joint_triad(rnd: random.Random) -> TriadData:
    """Marginals and the three standard conditionals of a random rational
    joint: feasible by construction."""
    weights = [rnd.randint(1, 1000) for _ in range(8)]
    total = sum(weights)

    def prob(*events) -> Fraction:
        hits = (w for i, w in enumerate(weights) if all(bool(i & ATOM_BIT[n]) == pos for n, pos in events))
        return Fraction(sum(hits), total)

    marginals = {name: prob((name, True)) for name in VARIABLES}
    conds = (
        CondProb(("V", True), ("W", True), prob(("V", True), ("W", True)) / marginals["W"]),
        CondProb(("U", True), ("W", True), prob(("U", True), ("W", True)) / marginals["W"]),
        CondProb(("U", False), ("V", True), prob(("U", False), ("V", True)) / marginals["V"]),
    )
    return TriadData(marginals, conds)


def _half_triad(rnd: random.Random) -> TriadData:
    """Half marginals with conditionals g, 1 - g, 1 - g: feasible iff
    g <= 2/3; g = 2/3 and 3/4 each one time in ten."""
    pick = rnd.random()
    g = Fraction(2, 3) if pick < 0.1 else Fraction(3, 4) if pick < 0.2 else Fraction(rnd.randint(1, 9999), 10_000)
    half = Fraction(1, 2)
    conds = (
        CondProb(("V", True), ("W", True), g),
        CondProb(("U", True), ("W", True), 1 - g),
        CondProb(("U", False), ("V", True), 1 - g),
    )
    return TriadData({name: half for name in VARIABLES}, conds)


def _rational_triad(rnd: random.Random) -> TriadData:
    """Random rational marginals and 0-5 conditionals on any pair of events."""
    events = [(name, positive) for name in VARIABLES for positive in (True, False)]

    def prob(low: int) -> Fraction:
        den = rnd.choice((2, 4, 10, 25, 100, 997))
        return Fraction(rnd.randint(low, den - low), den)

    marginals = {name: prob(1) for name in VARIABLES}
    conds = tuple(CondProb(rnd.choice(events), rnd.choice(events), prob(0)) for _ in range(rnd.randint(0, 5)))
    return TriadData(marginals, conds)


TRIAD_FAMILIES = {"random_joint": _joint_triad, "half_family": _half_triad, "random_rational": _rational_triad}


def measure_checker(make) -> dict:
    rnd = random.Random(CHECKER_SEED)
    triads = [make(rnd) for _ in range(CHECKER_TRIADS)]
    verdicts = [check_kolmogorov(t) for t in triads]  # also warms caches
    wall, cpu, _ = timed(check_kolmogorov, triads, CHECKER_REPEATS, warm=())
    peaks = [traced_peak(check_kolmogorov, t) for t in triads]
    return {
        **spread("ms_per_triad", wall, 1e3),
        **spread("cpu_ms_per_triad", cpu, 1e3),
        "feasible": sum(v.feasible for v in verdicts),
        "constant_contradiction": sum(not v.feasible and v.certificate.expression == CONSTANT_ROW for v in verdicts),
        "tracemalloc_peak_bytes": statistics.median(peaks),
        "tracemalloc_peak_bytes_max": max(peaks),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=str, default=None, help="JSON output path (default: print only)")
    args = parser.parse_args()

    result = {
        "layer": "mc_kernels",
        "trials_per_call": TRIALS,
        "repeats": REPEATS,
        "kernels": {name: measure(call) for name, call in KERNELS.items()},
        "sweep_row": measure_sweep_row(),
        "cap_overlap": measure_cap_overlap(),
        "conditionals": measure_conditionals(),
        "checker": {
            "triads_per_family": CHECKER_TRIADS,
            "repeats": CHECKER_REPEATS,
            "seed": CHECKER_SEED,
            "families": {name: measure_checker(make) for name, make in TRIAD_FAMILIES.items()},
        },
        "survey": measure_survey(),
        "end_to_end": {"cli_sweep": measure_cli_sweep()},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "qmachine": qmachine.__version__,
        },
        "machine": {
            "platform": platform.platform(),
            "cpu": _cpu_model(),
            "cpus": os.cpu_count(),
        },
    }
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
