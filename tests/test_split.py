"""A large Monte Carlo call splits its chunk columns over the process's
CPUs (machine.run_chunks).  The counts at 2^21 + 7 trials below were
recorded on one core with qmachine 0.8.1 (the offset conditional with
0.12.0), so the split has to reproduce the serial stream draw for draw;
the other tests force the split on small calls, where the fixed-seed
counts, the streaming memory bounds, worker failures and thread counts are
checked."""

import collections
import math
import sys
import threading
import time

import numpy as np
import pytest
import test_fixed_seed
import test_streaming

from qmachine import machine
from qmachine.conditional import conditional_mc, symmetric_query
from qmachine.geometry import Z_AXIS, unit_vector_at_angle
from qmachine.machine import MC_CHUNK, EpsilonExperiment, chunk_sizes, estimate_probability_mc, run_chunks
from qmachine.survey import region_census
from test_fixed_seed import CENSUS_COUNTS, CENSUS_KEYS, NS, QUERIES, SEED
from test_streaming import flagship_model

N = 2**21 + 7

LARGE_CONDITIONAL_HITS = {
    "uniform": 547794,
    "offset_o1": 923630,
    # epsilon = 1: a zero-radius conditioning cap pins every trial's state.
    "pinned": 612288,
}
LARGE_ESTIMATE_HITS = 1442020
LARGE_CENSUS_COUNTS = (73084, 160248, 73146, 73734, 160675, 160779, 693636, 160203, 160435, 73871, 73385, 160350, 73613)

LARGE_QUERIES = {"uniform": QUERIES["uniform"], "offset_o1": QUERIES["offset_o1"], "pinned": symmetric_query(1.0, 2.0)}


def census_counts(n):
    census = region_census(flagship_model(), n, SEED)
    assert len(census.fractions) == len(CENSUS_KEYS)
    return tuple(round(census.fractions[key] * n) for key in CENSUS_KEYS)


def test_large_conditional_mc_is_pinned():
    got = {name: round(conditional_mc(q, N, SEED).value * N) for name, q in LARGE_QUERIES.items()}
    assert got == LARGE_CONDITIONAL_HITS


def test_large_estimate_is_pinned():
    e = EpsilonExperiment(Z_AXIS, 0.7, 0.1)
    assert round(estimate_probability_mc(e, unit_vector_at_angle(Z_AXIS, 1.2), N, SEED)[0] * N) == LARGE_ESTIMATE_HITS


def test_large_census_is_pinned():
    assert census_counts(N) == LARGE_CENSUS_COUNTS


@pytest.mark.parametrize("parts", [1, 2], ids=["serial", "split"])
@pytest.mark.parametrize("n", [MC_CHUNK - 1, N])
@pytest.mark.parametrize("alpha", [0.7, 2.0])
def test_a_pinned_conditional_is_the_estimate_at_the_pinned_state(monkeypatch, parts, n, alpha):
    # At epsilon = 1 the zero-radius conditioning cap pins every state to Z,
    # so both calls count the same trials at one projection.
    monkeypatch.setattr(machine, "_CPUS", parts)
    q = symmetric_query(1.0, alpha)
    assert conditional_mc(q, n, SEED).value == estimate_probability_mc(q.target, Z_AXIS, n, SEED)[0]


class Windows(machine._Window):
    """machine._Window that records the columns of every part it serves."""

    made: list = []

    def __init__(self, rng, n, lo, hi):
        super().__init__(rng, n, lo, hi)
        self.made.append((lo, hi))


@pytest.fixture(params=[2, 3], ids=["2-parts", "3-parts"])
def split(request, monkeypatch):
    """Split every eligible call of at least 2 MC_CHUNKs into request.param
    parts, whatever the CPU count; returns the list the parts' columns go to."""
    monkeypatch.setattr(machine, "_SPLIT_MIN", 2 * MC_CHUNK)
    monkeypatch.setattr(machine, "_CPUS", request.param)
    monkeypatch.setattr(machine, "_Window", Windows)
    Windows.made = []
    return Windows.made


def test_default_split_runs_at_the_pinned_size():
    assert MC_CHUNK <= machine._SPLIT_MIN <= N and machine._SPLIT_MIN % MC_CHUNK == 0


def owned(parts):
    """Each part's columns of a chunk, for a call of at least MC_CHUNK trials."""
    return [(MC_CHUNK * p // parts, MC_CHUNK * (p + 1) // parts) for p in range(parts)]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_split_conditional_mc_keeps_the_fixed_seed_counts(split, name):
    test_fixed_seed.test_conditional_mc_is_pinned(name)
    # An epsilon = 0 target draws its tie coins in a data-dependent number,
    # so it stays serial.
    assert sorted(split) == ([] if name == "ties" else owned(machine._CPUS))


def test_split_estimate_keeps_the_fixed_seed_counts(split):
    test_fixed_seed.test_estimate_probability_mc_is_pinned()
    assert sorted(split) == owned(machine._CPUS)


def test_split_census_keeps_the_fixed_seed_counts(split):
    test_fixed_seed.test_region_census_is_pinned()
    assert sorted(split) == owned(machine._CPUS)


def test_epsilon_zero_estimate_stays_serial(split):
    e = EpsilonExperiment(Z_AXIS, 0.0, 0.0)
    estimate_probability_mc(e, unit_vector_at_angle(Z_AXIS, 0.5 * math.pi), 3 * MC_CHUNK, SEED)
    assert split == []


def test_a_lagging_first_part_keeps_its_columns(split, monkeypatch):
    # Part 0 stalls after its first fill while the other parts run on to the
    # short last chunk.  Each part owns its columns for the whole call, so
    # nothing the others write there reaches part 0's first chunk.
    fill = machine._Window.random
    lagged = []

    def random(self, out):
        fill(self, out)
        if self.cols[0] == 0 and not lagged:
            lagged.append(True)
            time.sleep(0.02)
        return out

    monkeypatch.setattr(machine._Window, "random", random)
    assert census_counts(NS[2]) == CENSUS_COUNTS[2]
    assert lagged


def column(view):
    """The workspace column a step's view of it starts at."""
    return (view.ctypes.data - view.base.ctypes.data) // view.itemsize % view.base.shape[1]


def draws_by_window(n):
    """Every chunk's draws of an n-trial call through run_chunks, one fill
    per chunk, put back at their trial positions; returns them and the
    caller's generator afterwards.  A part's steps come chunk by chunk on
    its own columns, so its j-th step fills chunk j at the column its
    workspace view starts at."""
    rng = np.random.default_rng(SEED)
    got = np.full(n, np.nan)
    steps = collections.Counter()

    def step(stream, work, marks):
        lo = column(work)
        start = MC_CHUNK * steps[lo] + lo
        got[start : start + work.shape[1]] = stream.random(out=work[0])
        steps[lo] += 1
        return 0

    run_chunks(rng, n, step, True, 1)
    assert sorted(steps) == [lo for lo, hi in owned(machine._CPUS)]
    return got, rng


@pytest.mark.parametrize("n", [2 * MC_CHUNK, 3 * MC_CHUNK + 7, 4 * MC_CHUNK - 1])
def test_windows_read_the_serial_stream(split, n):
    got, rng = draws_by_window(n)
    expected = np.random.default_rng(SEED)
    assert got.tobytes() == expected.random(n).tobytes()
    # Part 0 ran on the caller's generator and left it where a serial call would.
    assert rng.bit_generator.state == expected.bit_generator.state
    assert sorted(split) == owned(machine._CPUS)


def test_more_parts_than_cpus_under_fast_switching(monkeypatch):
    # Parts interleave at every bytecode boundary the interpreter allows; a
    # part writing outside its columns or drawing out of turn changes counts.
    monkeypatch.setattr(machine, "_SPLIT_MIN", 2 * MC_CHUNK)
    monkeypatch.setattr(machine, "_CPUS", machine._CPUS + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert census_counts(NS[2]) == CENSUS_COUNTS[2]
        test_fixed_seed.test_conditional_mc_is_pinned("uniform")
        got, rng = draws_by_window(3 * MC_CHUNK + 7)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == np.random.default_rng(SEED).random(3 * MC_CHUNK + 7).tobytes()


def test_a_failing_part_raises_in_the_caller(split):
    before = threading.active_count()
    raised = {}

    def step(stream, work, marks):
        lo = column(work)
        if lo > 0:
            raised[lo] = ZeroDivisionError(f"part at column {lo}")
            raise raised[lo]
        return 1

    with pytest.raises(ZeroDivisionError) as caught:
        run_chunks(np.random.default_rng(0), 3 * MC_CHUNK, step, True, 1)
    # The first failing part's exception, once every part has ended.
    assert caught.value is raised[MC_CHUNK // machine._CPUS]
    assert threading.active_count() == before
    assert run_chunks(np.random.default_rng(0), 3 * MC_CHUNK, lambda stream, work, marks: 1, True, 1) == 3 * machine._CPUS
    assert threading.active_count() == before


def test_a_small_call_is_one_part_on_the_callers_generator(split):
    rng = np.random.default_rng(0)
    seen = []

    def step(stream, work, marks):
        seen.append((stream, column(work), work.shape, column(marks), marks.shape))
        return 0

    run_chunks(rng, 2 * MC_CHUNK - 1, step, True, 2, 3)
    assert seen == [(rng, 0, (2, k), 0, (3, k)) for k in chunk_sizes(2 * MC_CHUNK - 1)] and split == []


@pytest.mark.parametrize("name", sorted(test_streaming.CALLS))
def test_split_memory_is_one_workspace(split, name):
    test_streaming.test_peak_memory_is_bounded(name)
    assert sorted(split) == owned(machine._CPUS)


def test_split_census_memory_is_lean(split):
    test_streaming.test_census_peak_memory_is_lean()
    assert sorted(split) == owned(machine._CPUS)
