"""Monte Carlo paths stream their trials in MC_CHUNK pieces: memory stays
bounded whatever the trial count, and chunk boundaries neither drop nor
double-count a trial."""

import math
import tracemalloc

import pytest

from qmachine.conditional import conditional_mc, symmetric_query
from qmachine.geometry import Z_AXIS, unit_vector_at_angle
from qmachine.machine import MC_CHUNK, EpsilonExperiment, estimate_probability_mc
from qmachine.survey import QuestionStats, build_survey_model, region_census

SQ2 = math.sqrt(2) / 2
BOUNDARY_NS = (MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7)


def flagship_model():
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    return build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)], force_epsilon=SQ2)


CALLS = {
    "conditional_mc": lambda n: conditional_mc(symmetric_query(SQ2, 1.0), n, 3),
    "estimate_probability_mc": lambda n: estimate_probability_mc(
        EpsilonExperiment(Z_AXIS, 0.5, 0.1), unit_vector_at_angle(Z_AXIS, 1.2), n, 3
    ),
    "region_census": lambda n: region_census(flagship_model(), n, 3),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_peak_memory_is_bounded(name):
    # Unchunked, 2e6 trials held whole (n, 3) state arrays: 138 MB for
    # conditional_mc.  Chunked, the peak is a few chunks' worth.
    tracemalloc.start()
    try:
        CALLS[name](2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("name", sorted(CALLS))
def test_chunk_boundaries_are_reproducible(name):
    for n in BOUNDARY_NS:
        assert CALLS[name](n) == CALLS[name](n)


def test_estimate_counts_every_trial_once():
    # One uniform break per trial, drawn chunk after chunk from one stream,
    # so a run of n + 1 trials has at most one hit more than a run of n.
    e = EpsilonExperiment(Z_AXIS, 0.5, 0.1)
    state = unit_vector_at_angle(Z_AXIS, 1.2)
    hits = [round(estimate_probability_mc(e, state, n, 8)[0] * n) for n in BOUNDARY_NS[:3]]
    assert hits[1] - hits[0] in (0, 1) and hits[2] - hits[1] in (0, 1)
    # A state above the band: every trial of every chunk is a hit.
    for n in BOUNDARY_NS:
        assert estimate_probability_mc(e, Z_AXIS, n, 8) == (1.0, 0.0)


def test_census_counts_sum_to_trials():
    for n in BOUNDARY_NS:
        census = region_census(flagship_model(), n, 4)
        assert sum(round(p * n) for p in census.fractions.values()) == n
