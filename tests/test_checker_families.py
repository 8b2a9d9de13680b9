"""check_kolmogorov on the bench's feasible-heavy triad families and
check_hilbert2d on dense rational grids, pinned as qmachine 0.8.1 printed
them.

tests/test_checker_golden.py draws 0-5 random conditionals, so few of its
triads are feasible and few witnesses get pinned.  Here 300 seeded triads
from each of scripts/bench.py's `random_joint` (feasible by construction)
and `half_family` (feasible iff g <= 2/3) constructions are checked, and
one sha256 over their verdict reprs is recorded per family: any change to
a bound, witness atom or certificate fails here.  The Hilbert hash covers
k/997 and k/1000 on [0, 1] and the two neighbours of the 3/4 threshold.
"""

import hashlib
import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest

from qmachine.embedding import check_hilbert2d, check_kolmogorov

ROOT = Path(__file__).resolve().parent.parent
FAMILY_SEED = 2021
FAMILY_CASES = 300

# Recorded with qmachine 0.8.1: (feasible count, sha256 of the verdict
# reprs joined by newlines) per family.
RECORDED_FAMILIES = {
    "random_joint": (300, "654cae6ac4a7dfc6fc0ffce6c8caf8ca00d9b0de3c9c397ecfbb6dbc0728914a"),
    "half_family": (184, "02cb0faed8e651d21f3a220cab13c41d61e19d7bdb688aa12127d4a0eb02553b"),
}
RECORDED_HILBERT_SHA256 = "971d252c5eb179799178df915c8a965d46aafb7412b197d46e1f19a85dea2a50"


def _triad_families() -> dict:
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRIAD_FAMILIES


def _digest(items) -> str:
    return hashlib.sha256("\n".join(repr(x) for x in items).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(RECORDED_FAMILIES))
def test_family_verdicts_match_recorded_output(family):
    make = _triad_families()[family]
    rnd = random.Random(FAMILY_SEED)
    verdicts = [check_kolmogorov(make(rnd)) for _ in range(FAMILY_CASES)]
    assert (sum(v.feasible for v in verdicts), _digest(verdicts)) == RECORDED_FAMILIES[family]


def hilbert_grid() -> list[Fraction]:
    grid = [Fraction(k, 997) for k in range(998)] + [Fraction(k, 1000) for k in range(1001)]
    return grid + [Fraction(3, 4) - Fraction(1, 10_000), Fraction(3, 4) + Fraction(1, 10_000)]


def test_hilbert_verdicts_match_recorded_output():
    assert _digest(check_hilbert2d(g) for g in hilbert_grid()) == RECORDED_HILBERT_SHA256


def test_hilbert_accepts_int_and_str():
    # The same verdict, with Fraction fields, whatever exact type comes in.
    for value, exact in ((0, Fraction(0)), (1, Fraction(1)), ("0.78", Fraction(39, 50)), ("3/4", Fraction(3, 4))):
        assert repr(check_hilbert2d(value)) == repr(check_hilbert2d(exact))
