"""Fixed-seed Monte Carlo output is pinned: these counts were recorded with
qmachine 0.3.0, so any change to how a kernel consumes its random stream
(draw order, chunking, arithmetic order) fails here rather than in a manual
diff of CLI output."""

import math

import numpy as np
import pytest

from qmachine.conditional import ConditionalQuery, conditional_mc, symmetric_query
from qmachine.geometry import X_AXIS, Z_AXIS, SectorCap, unit_vector_at_angle
from qmachine.machine import MC_CHUNK, EpsilonExperiment, Outcome, estimate_probability_mc, uniform_into
from qmachine.measures import UNIFORM, CapUniform, Mixture
from qmachine.survey import QuestionStats, build_survey_model, region_census

SQ2 = math.sqrt(2) / 2
NS = (MC_CHUNK - 1, MC_CHUNK + 1, 3 * MC_CHUNK + 7)
SEED = 5


def experiment(angle, epsilon, d):
    return EpsilonExperiment(unit_vector_at_angle(Z_AXIS, angle), epsilon, d)


QUERIES = {
    # Uniform base, conditioned to a cap.
    "uniform": symmetric_query(SQ2, 2.0),
    # Cap base inside the conditioning cap: sampled as given.
    "cap": ConditionalQuery(
        experiment(1.1, 0.5, 0.1),
        experiment(0.0, 0.5, -0.2),
        base=CapUniform(SectorCap(unit_vector_at_angle(Z_AXIS, 0.3), 0.5)),
    ),
    "mixture": ConditionalQuery(
        experiment(0.9, 0.3, 0.2),
        experiment(0.0, 0.3, -0.5),
        Outcome.O2,
        Outcome.O1,
        Mixture(((0.4, UNIFORM), (0.6, CapUniform(SectorCap(Z_AXIS, 2.0))))),
    ),
    # epsilon = 0, conditioning cap of zero radius at Z: every trial sits at
    # projection 0 = d on the X target, a tie settled by a fair coin.
    "ties": ConditionalQuery(EpsilonExperiment(X_AXIS, 0.0, 0.0), EpsilonExperiment(Z_AXIS, 0.0, 1.0)),
}

CONDITIONAL_HITS = {
    "uniform": (17171, 17212, 51429),
    "cap": (62094, 62118, 186450),
    "mixture": (28258, 28281, 85136),
    "ties": (32763, 32763, 98287),
}

ESTIMATE_HITS = (50046, 50047, 150007)

CENSUS_KEYS = (
    ("no", "no", "none"),
    ("no", "none", "none"),
    ("no", "none", "yes"),
    ("none", "no", "no"),
    ("none", "no", "none"),
    ("none", "none", "no"),
    ("none", "none", "none"),
    ("none", "none", "yes"),
    ("none", "yes", "none"),
    ("none", "yes", "yes"),
    ("yes", "none", "no"),
    ("yes", "none", "none"),
    ("yes", "yes", "none"),
)
CENSUS_COUNTS = (
    (2214, 5079, 2227, 2320, 4988, 4937, 21689, 5025, 5028, 2344, 2357, 5030, 2297),
    (2280, 4924, 2317, 2409, 4920, 4893, 21739, 5028, 5041, 2302, 2313, 5094, 2277),
    (6867, 14926, 6989, 6963, 15055, 14958, 64942, 15028, 15121, 6914, 6948, 15087, 6817),
)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_conditional_mc_is_pinned(name):
    assert tuple(round(conditional_mc(QUERIES[name], n, SEED).value * n) for n in NS) == CONDITIONAL_HITS[name]


def test_estimate_probability_mc_is_pinned():
    e = EpsilonExperiment(Z_AXIS, 0.5, 0.1)
    state = unit_vector_at_angle(Z_AXIS, 1.2)
    assert tuple(round(estimate_probability_mc(e, state, n, SEED)[0] * n) for n in NS) == ESTIMATE_HITS


def test_region_census_is_pinned():
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    model = build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)], force_epsilon=SQ2)
    for n, counts in zip(NS, CENSUS_COUNTS):
        census = region_census(model, n, SEED)
        assert {key: round(p * n) for key, p in census.fractions.items()} == dict(zip(CENSUS_KEYS, counts))


@pytest.mark.parametrize(
    "low, high",
    [(-1.0, 1.0), (math.cos(0.7), 1.0), (0.0, 2.0 * math.pi), (0.1 - SQ2, 0.1 + SQ2)],
    ids=["hat-box", "cap-z", "azimuth", "band"],
)
def test_uniform_into_is_bitwise_rng_uniform(low, high):
    for n in (1, MC_CHUNK - 1, MC_CHUNK):
        expected_rng, rng = np.random.default_rng(n), np.random.default_rng(n)
        expected = expected_rng.uniform(low, high, n)
        got = uniform_into(rng, low, high, np.empty(n))
        assert got.tobytes() == expected.tobytes()
        # Both generators are at the same point of the stream afterwards.
        assert rng.random() == expected_rng.random()
