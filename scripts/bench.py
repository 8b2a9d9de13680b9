#!/usr/bin/env python3
"""Kernel-layer benchmark of the three Monte Carlo paths.

Times conditional_mc on the flagship query (its conditioned state is
uniform on a cap, so every trial runs the cap sampler), estimate_probability_mc
on one pure state, and region_census on the flagship survey.  For each it
reports the median of REPEATS runs of TRIALS trials each, in ms per 1e6
trials (with the runs' quartiles), the median count of minor page faults
per call, and the tracemalloc peak of one more call; then the Python, numpy and qmachine
versions and a machine note.  Standard library and numpy only.

    PYTHONPATH=src python scripts/bench.py --out BENCH_<n>.json

Page faults come from resource.getrusage of this process alone, so run it
on an otherwise quiet machine and compare files made on the same one.
TRIALS and REPEATS are fixed so that every BENCH_<n>.json is comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

import qmachine
from qmachine.conditional import conditional_mc, symmetric_query
from qmachine.geometry import Z_AXIS, unit_vector_at_angle
from qmachine.machine import EpsilonExperiment, estimate_probability_mc
from qmachine.survey import QuestionStats, build_survey_model, region_census

SQ2 = math.sqrt(2) / 2
TRIALS = 10_000_000
REPEATS = 5


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


def measure(call) -> dict:
    call(1_000, 0)  # warm caches and lazy set-up before timing
    times, faults = [], []
    for seed in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        call(TRIALS, seed)
        times.append(time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    tracemalloc.start()
    try:
        call(TRIALS, REPEATS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_1e6 = sorted(t * 1e9 / TRIALS for t in times)
    q1, _, q3 = statistics.quantiles(per_1e6, n=4)
    return {
        "ms_per_1e6_trials": statistics.median(per_1e6),
        "ms_per_1e6_trials_quartiles": [q1, q3],
        "minor_faults_per_call": statistics.median(faults),
        "tracemalloc_peak_bytes": peak,
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
