"""The float32 ring screen decides every trial as float64 would.

ring_into takes cos(phi) in float32 and the kernels settle the trials
within RING_ERR of their threshold in float64.  These tests check the
error bound the screen rests on, compare conditional_mc and region_census
with a test-local copy of the float64 draw that the fixed-seed counts
were recorded with, and plant trials whose screened and float64 values
straddle a threshold, so that a kernel that skipped the settling step
would miscount them.
"""

import math

import numpy as np
import pytest

from qmachine import measures, survey
from qmachine.conditional import ConditionalQuery, conditional_mc, symmetric_query
from qmachine.geometry import X_AXIS, Z_AXIS, SectorCap, angle_between, unit_vector_at_angle
from qmachine.machine import MC_CHUNK, RING_ERR, EpsilonExperiment, Outcome, count_o1, ring_into, settle_into
from qmachine.measures import condition, eig_set, sample_projection
from qmachine.survey import FitDiagnostics, FittedQuestion, QuestionStats, SurveyModel, build_survey_model, region_census

SQ2 = math.sqrt(2) / 2
NS = (MC_CHUNK - 1, MC_CHUNK + 1)


class Planted:
    """Stands in for a Generator: each random(out=...) call takes the next
    of the given blocks of U(0, 1) values."""

    def __init__(self, *blocks):
        self.blocks = list(blocks)

    def random(self, out):
        out[:] = self.blocks.pop(0)
        return out


def float64_ring(z, phi):
    """The float64 ring term cos(phi) sqrt(1 - z^2), in settle_into's order."""
    return np.cos(phi) * np.sqrt(1.0 - z * z)


def screened_cosines(r_phi):
    """ring_into's ring term at z = 0 (r = 1/2 on U(-1, 1)), where it is the
    screened cosine itself, with the float64 cosine of the same phi."""
    n = len(r_phi)
    z, phi, ring, scratch = np.empty((4, n))
    ring_into(Planted(np.full(n, 0.5), r_phi), -1.0, z, phi, ring, scratch)
    assert not z.any()
    return ring, float64_ring(z, phi)


def test_float32_cosine_is_within_half_the_screen():
    # A numpy whose float32 cosine is worse than the bound fails here
    # rather than miscounting trials.
    offsets = np.arange(-5_000, 5_000) * 2.0**-32
    planted = [np.random.default_rng(11).random(1_000_000)]
    planted += [np.clip(k / 4 + offsets, 0.0, 1.0 - 2.0**-53) for k in range(5)]  # phi near k pi / 2
    planted.append(1.0 - np.arange(1, 10_001) * 2.0**-53)  # phi just under 2 pi
    for r_phi in planted:
        screened, exact = screened_cosines(r_phi)
        assert np.max(np.abs(screened - exact)) <= RING_ERR / 2


def _uniform(rng, low, high, n):
    # uniform_into's arithmetic: r * (high - low) + low.
    return rng.random(n) * (high - low) + low


def oracle_ring(rng, zlow, n):
    """The float64 ring_into: z, then sqrt(1 - z^2) cos(phi) with float64 cos."""
    z = _uniform(rng, zlow, 1.0, n)
    ring = np.cos(_uniform(rng, 0.0, 2.0 * math.pi, n))
    ring *= np.sqrt(1.0 - z * z)
    return z, ring


def oracle_projection(cap, axis, rng, n):
    gamma = angle_between(cap.center, axis)
    z, ring = oracle_ring(rng, math.cos(cap.half_angle), n)
    return z * math.cos(gamma) + ring * math.sin(gamma)


def oracle_conditional_hits(q, trials, seed):
    """conditional_mc's count of the queried outcome with the float64 draw,
    for a conditioning cap of positive radius."""
    rng = np.random.default_rng(seed)
    cap = condition(q.cond, q.condition_outcome).cap
    e = q.target
    hits = 0
    for start in range(0, trials, MC_CHUNK):
        k = min(MC_CHUNK, trials - start)
        x = oracle_projection(cap, e.axis, rng, k)
        if e.epsilon > 0.0:
            hits += int(np.count_nonzero(_uniform(rng, e.band_low, e.band_high, k) < x))
        else:
            up = x > e.d
            ties = x == e.d
            up[ties] = rng.integers(0, 2, int(np.count_nonzero(ties))).astype(bool)
            hits += int(np.count_nonzero(up))
    return hits if q.target_outcome is Outcome.O1 else trials - hits


def oracle_census_counts(m, trials, seed):
    """region_census's tally with the float64 draw, as {key: count}."""
    rng = np.random.default_rng(seed)
    names = ("none", "yes", "no")
    tally = np.zeros(27, dtype=np.int64)
    for start in range(0, trials, MC_CHUNK):
        k = min(MC_CHUNK, trials - start)
        z, x = oracle_ring(rng, -1.0, k)
        codes = np.zeros(k, dtype=np.int64)
        for fq in m.questions:
            e = fq.experiment
            dot = x * e.axis.x + z * e.axis.z
            closed = e.band_low < e.band_high
            yes = dot >= e.band_high if closed else dot > e.band_high
            no = dot <= e.band_low if closed else dot < e.band_low
            codes = codes * 3 + yes + 2 * no
        tally += np.bincount(codes, minlength=27)
    return {(names[c // 9], names[c // 3 % 3], names[c % 3]): int(tally[c]) for c in np.flatnonzero(tally)}


def experiment(angle, epsilon, d):
    return EpsilonExperiment(unit_vector_at_angle(Z_AXIS, angle), epsilon, d)


QUERIES = {
    "uniform": symmetric_query(SQ2, 2.0),
    "offset_o1": ConditionalQuery(experiment(1.6, 0.5, 0.1), experiment(0.0, 0.5, -0.2), Outcome.O1, Outcome.O2),
    "offset_o2": ConditionalQuery(experiment(2.0, 0.3, 0.2), experiment(0.0, 0.3, -0.5), Outcome.O2, Outcome.O2),
    "epsilon_1e-6": symmetric_query(1e-6, 1.3),
    "classical": ConditionalQuery(experiment(1.7, 0.0, 0.05), experiment(0.0, 0.0, -0.1)),
}


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("n", NS)
def test_conditional_mc_counts_equal_float64(name, n):
    q = QUERIES[name]
    assert round(conditional_mc(q, n, [n, 1]).value * n) == oracle_conditional_hits(q, n, [n, 1])


def test_conditional_mc_ties_are_unchanged():
    # epsilon = 0 and a zero-radius conditioning cap: every projection is the
    # exact tie 0 = d, settled by a fair coin; nothing is screened.
    q = ConditionalQuery(EpsilonExperiment(X_AXIS, 0.0, 0.0), EpsilonExperiment(Z_AXIS, 0.0, 1.0))
    rng = np.random.default_rng(3)
    n = MC_CHUNK + 1
    coins = sum(int(rng.integers(0, 2, k).sum()) for k in (MC_CHUNK, 1))
    assert round(conditional_mc(q, n, 3).value * n) == coins


def survey_model(epsilon):
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    return build_survey_model(stats, [math.radians(a) for a in (0, 50, 130)], force_epsilon=epsilon)


@pytest.mark.parametrize("epsilon", (0.0, SQ2, 1.0))
@pytest.mark.parametrize("n", NS)
def test_region_census_counts_equal_float64(epsilon, n):
    census = region_census(survey_model(epsilon), n, n)
    got = {key: round(p * n) for key, p in census.fractions.items()}
    assert got == oracle_census_counts(survey_model(epsilon), n, n)


# ---------------------------------------------------------------- settling


def replay_ring(seed, zlow, k):
    """The first chunk's z and phi as ring_into draws them from `seed`, the
    generator left where the break points start, and the screened and
    float64 ring terms."""
    rng = np.random.default_rng(seed)
    z, phi, ring, scratch = np.empty((4, k))
    ring_into(rng, zlow, z, phi, ring, scratch)
    return rng, z, phi, ring, float64_ring(z, phi)


def first_split(screened, exact):
    """Index of a trial whose screened and float64 values differ."""
    i = int(np.flatnonzero(screened != exact)[0])
    assert abs(screened[i] - exact[i]) <= RING_ERR / 2
    return i


@pytest.fixture
def refined(monkeypatch):
    """Counts the trials whose values the kernels recompute in float64."""
    seen = []

    def counting(out, idx, z, phi, along, across):
        seen.append(len(idx))
        settle_into(out, idx, z, phi, along, across)

    monkeypatch.setattr(measures, "settle_into", counting)
    monkeypatch.setattr(survey, "settle_into", counting)
    return seen


def test_settle_rewrites_only_values_near_their_threshold(refined):
    k = 1_000
    rng = np.random.default_rng(4)
    cap = SectorCap(Z_AXIS, 1.0)
    axis = unit_vector_at_angle(Z_AXIS, 0.7)
    x, work, gap = np.empty(k), np.empty((3, k)), np.empty(k, dtype=np.float32)
    settle = sample_projection(cap, axis, rng, x, work, gap)
    screened = x.copy()
    gamma = angle_between(Z_AXIS, axis)
    exact = work[0] * math.cos(gamma) + float64_ring(work[0], work[1]) * math.sin(gamma)
    # Thresholds far from every value, but for three planted within RING_ERR.
    threshold = screened + 1.0
    planted = [first_split(screened, exact), k // 2, k - 1]
    threshold[planted] = screened[planted] + np.array([RING_ERR / 2, -RING_ERR, 0.0])
    settle(threshold, np.empty(k, dtype=bool))
    assert sum(refined) == len(planted)
    assert np.array_equal(x[planted], exact[planted])
    assert x[planted[0]] != screened[planted[0]]
    rest = np.setdiff1d(np.arange(k), planted)
    assert np.array_equal(x[rest], screened[rest])


def test_kernel_settles_before_deciding():
    # A settle step that moves every value above the band must decide every
    # trial as outcome 1, on both kernel branches.
    for e in (EpsilonExperiment(Z_AXIS, 0.5, 0.0), EpsilonExperiment(Z_AXIS, 0.0, 0.0)):
        x = np.full(100, -0.9)
        breaks, up = np.empty(100), np.empty(100, dtype=bool)
        assert count_o1(e, x, np.random.default_rng(0), breaks, up, lambda threshold, flags: x.fill(0.9)) == 100


@pytest.mark.parametrize("epsilon", (0.0, 0.5))
def test_conditional_mc_settles_a_planted_split(epsilon, refined):
    # The first trial whose screened and float64 projections differ gets a
    # threshold halfway between them: the screen alone would decide it the
    # wrong way.  For epsilon = 0 the threshold is d; for epsilon > 0 it is
    # the trial's break point, placed by choosing d.
    k, seed, alpha = 1_000, 9, 1.2
    cond = experiment(0.0, epsilon, 0.0)
    cap = eig_set(cond, Outcome.O1)
    rng, z, phi, ring, exact_ring = replay_ring(seed, math.cos(cap.half_angle), k)
    r_breaks = rng.random(k)
    gamma = angle_between(cap.center, unit_vector_at_angle(Z_AXIS, alpha))
    screened = z * math.cos(gamma) + ring * math.sin(gamma)
    exact = z * math.cos(gamma) + exact_ring * math.sin(gamma)
    # d puts the threshold, d or the break point d - epsilon + 2 epsilon r,
    # halfway between the values; the first split with d in range is used.
    middles = 0.5 * (screened + exact) - (2.0 * r_breaks - 1.0) * epsilon
    split = np.flatnonzero((screened != exact) & (np.abs(middles) < 1.0 - epsilon))
    d = middles[split[0]]
    q = ConditionalQuery(experiment(alpha, epsilon, d), cond)
    got = round(conditional_mc(q, k, seed).value * k)
    assert sum(refined) >= 1
    assert got == oracle_conditional_hits(q, k, seed)


def test_region_census_settles_a_planted_split(refined):
    # One question on the x axis with a zero-width band at d halfway between
    # the first differing respondent's screened and float64 x.
    k, seed = 1_000, 12
    _, z, _, ring, exact = replay_ring(seed, -1.0, k)
    i = first_split(ring, exact)
    axis = unit_vector_at_angle(Z_AXIS, math.pi / 2)
    middle = 0.5 * (ring[i] + exact[i]) * axis.x + z[i] * axis.z
    diag = FitDiagnostics(0.5, 0.0)
    questions = [
        FittedQuestion("a", EpsilonExperiment(axis, 0.0, middle), math.pi / 2, diag),
        FittedQuestion("b", EpsilonExperiment(Z_AXIS, 0.0, 0.0), 0.0, diag),
        FittedQuestion("c", EpsilonExperiment(unit_vector_at_angle(Z_AXIS, 1.0), 0.0, 0.0), 1.0, diag),
    ]
    m = SurveyModel(tuple(questions))
    census = region_census(m, k, seed)
    assert sum(refined) >= 1
    assert {key: round(p * k) for key, p in census.fractions.items()} == oracle_census_counts(m, k, seed)
