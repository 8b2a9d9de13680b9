"""scripts/bench.py, shrunk to tiny sizes, writes BENCH_14.json's key tree
plus the machine's `split_cpus` (BENCH_24.json's tree), with a finite
positive figure for every timing."""

import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "TRIALS": 1_000,
    "REPEATS": 3,
    "CHECKER_TRIADS": 3,
    "SWEEP_ALPHA_STEPS": 3,
    "CLI_SWEEP_EPSILONS": "0.5",
    "CLI_RUNS": 2,
    "CAP_PAIRS": 3,
    "SURVEY_CENSUS_DRAWS": 1_000,
}
TIME_UNITS = {"ms", "us", "s"}  # a key naming one of these holds a timing


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _key_tree(node):
    return {k: _key_tree(v) for k, v in node.items()} if isinstance(node, dict) else None


def _timings(node):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _timings(value)
        elif TIME_UNITS & set(key.split("_")):
            yield from ((key, v) for v in (value if isinstance(value, list) else [value]))


def test_bench_writes_bench_14_key_tree(tmp_path, monkeypatch):
    bench = _load_bench()
    for name, value in TINY.items():
        monkeypatch.setattr(bench, name, value)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out)])
    bench.main()
    result = json.loads(out.read_text())
    reference = _key_tree(json.loads((ROOT / "BENCH_14.json").read_text()))
    reference["machine"]["split_cpus"] = None
    assert _key_tree(result) == reference == _key_tree(json.loads((ROOT / "BENCH_24.json").read_text()))
    assert result["machine"]["split_cpus"] == bench.qmachine.machine._CPUS
    timings = list(_timings(result))
    assert len(timings) == 67
    bad = [(key, v) for key, v in timings if not (math.isfinite(v) and v > 0.0)]
    assert not bad, bad
