#!/usr/bin/env python3
"""qmachine benchmark; see README.md in this directory.

    python3 perfbench/run.py --workload {sweep,bulk_mc,survey} --seed N --seconds S --trace {0,1}

The last line of stdout is the result as JSON; the lines before it are
the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 11
IMPORT_PROBE = "import time; t = time.perf_counter(); import qmachine; print(time.perf_counter() - t)"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=("sweep", "bulk_mc", "survey"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cap_threads() -> None:
    """All load comes from this one process: BLAS / OpenMP threads are
    capped at the CPUs it may run on, before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_package():
    if not (SRC / "qmachine" / "__init__.py").is_file():
        sys.exit(f"error: no qmachine package under {SRC}; run inside a source checkout")
    sys.path.insert(0, str(SRC))
    import qmachine

    return qmachine


def environment(qm) -> dict:
    import numpy

    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = read(f"{base}/level"), read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qmachine": qm.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "l2_per_core": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_seconds() -> float:
    """Median fresh-interpreter `import qmachine` time, from the checkout's src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=SRC, capture_output=True, text=True, check=True, timeout=60
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


class Run:
    """Timings, counts and failures of the ops executed so far.  With a
    tracer, each op runs twice in a row, untraced and then traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests: list[str] = []

    def execute(self, ops) -> None:
        self.digests.append(hashlib.sha256(repr([(op.kind, op.inputs) for op in ops]).encode()).hexdigest()[:12])
        for op in ops:
            self.latencies.append(self._timed(op, traced=False))
            self.items += op.items
            if self.tracer:
                self.traced_latencies.append(self._timed(op, traced=True))

    def _timed(self, op, traced: bool) -> float:
        """Time the library call alone, then verify its output."""
        out: dict = {}
        exc = None
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        try:
            op.call(out)
        except Exception as e:  # an op that raises is a failed op, not a failed run
            exc = e
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
        failures = op.verify(out, exc)
        self.attempted += op.checks
        self.failed += len({f.unit for f in failures})
        self.failures.extend(failures)
        return elapsed

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_cycles(cycle_ops, seed: int, seconds: float, run: Run) -> int:
    """Whole cycles until `seconds` of wall time have passed; returns how many."""
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        run.execute(cycle_ops(seed, k))
        k += 1
    return k


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of sorted samples."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of n samples beyond it,
    never below the median: with fewer than 20 samples it is p50."""
    return max(50.0, 100.0 * (n - 10) / n)


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(correct: bool, run: Run, values: dict[str, float], kind: str) -> None:
    units = declared(kind)
    if set(units) != set(values):
        sys.exit(f"error: emitted metrics {sorted(values)} differ from BENCHMARK.json {kind} {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))


def describe(failures) -> list[str]:
    return [f"{f.unit}: {','.join(f.checks)}" for f in failures]


def report_failures(run: Run) -> None:
    print(f"# failed_ratio {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} checked outputs)")
    if run.failures:
        print(f"# failures, e.g. {describe(run.failures)[:5]}")


def report_known_defects(qm, workloads) -> None:
    """The inputs the workloads leave out, run untimed: whether each known
    defect still shows."""
    for defect, (inputs, failures) in workloads.known_defects(qm).items():
        shown = f"reproduced, {len(failures)} failed outputs, e.g. {describe(failures)[:3]}" if failures else "not reproduced"
        print(f"# known defect [{defect}] on {inputs} left-out inputs: {shown}")


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    qm = import_package()
    import workloads

    print("# env " + json.dumps(environment(qm)))
    missed = workloads.self_check(qm)
    print(f"# oracle self-check: {'ok' if not missed else 'MISSED ' + ', '.join(missed)}")
    report_known_defects(qm, workloads)
    cycle_ops = workloads.make(qm, args.workload)

    if args.trace == 0:
        setup = setup_seconds()
        run = Run()
        cycles = run_cycles(cycle_ops, args.seed, args.seconds, run)
        ordered = sorted(run.latencies)
        tail_pct = tail_percentile(len(ordered))
        values = {
            "throughput": run.items / run.busy,
            "op_p50_ms": 1e3 * percentile(ordered, 50.0),
            "op_tail_ms": 1e3 * percentile(ordered, tail_pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup,
        }
        n = len(ordered)
        print(f"# inputs seed={args.seed} cycles={cycles} sha256[:12] per cycle={run.digests}")
        item = workloads.ITEMS[args.workload]
        print(f"# throughput {values['throughput']:.6g} {item}/s over {n} ops, {run.busy:.3f} s busy")
        print(f"# op_p50_ms {values['op_p50_ms']:.6g} ms, n={n}")
        print(f"# op_tail_ms {values['op_tail_ms']:.6g} ms at p{tail_pct:.1f}, n={n}")
        print(f"# peak_rss_mb {values['peak_rss_mb']:.6g} MB")
        print(f"# setup_s {setup:.6g} s, median of {SETUP_REPEATS} fresh imports")
    else:
        import tracing

        tracer = tracing.Tracer(qm)
        run = Run(tracer)
        cycles = run_cycles(cycle_ops, args.seed, args.seconds, run)
        values = tracer.layer_metrics(len(run.traced_latencies))
        values["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(run.traced_latencies, run.latencies)
        )
        print(f"# inputs seed={args.seed} cycles={cycles} sha256[:12] per cycle={run.digests}")
        print(f"# trace: {len(tracer.spans)} spans over {len(run.traced_latencies)} ops, each also run untraced")
    report_failures(run)
    emit(not run.failed and not missed, run, values, "end_to_end" if args.trace == 0 else "per_layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
