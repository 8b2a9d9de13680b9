import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from qmachine.geometry import Z_AXIS, unit_vector_at_angle
from qmachine.machine import (
    EpsilonExperiment,
    count_o1,
    estimate_probability_mc,
    p1_given_projection,
)


def state_at(theta):
    return unit_vector_at_angle(Z_AXIS, theta)


def experiment(epsilon, d=0.0):
    return EpsilonExperiment(Z_AXIS, epsilon, d)


@pytest.mark.parametrize("epsilon, d", [(1.5, 0.0), (-0.1, 0.0), (0.5, 0.7), (0.5, -0.7), (1.0, 0.1)])
def test_experiment_parameter_validation(epsilon, d):
    with pytest.raises(ValueError):
        EpsilonExperiment(Z_AXIS, epsilon, d)


def test_maximal_band_is_the_half_angle_law():
    assert p1_given_projection(experiment(1.0), state_at(math.pi / 2).z) == pytest.approx(0.5, abs=1e-15)
    for k in range(181):
        theta = math.pi * k / 180
        assert abs(p1_given_projection(experiment(1.0), state_at(theta).z) - math.cos(theta / 2) ** 2) <= 1e-12


def test_band_midpoint_is_even():
    for epsilon in (0.2, 0.5, 1.0):
        assert p1_given_projection(experiment(epsilon, 0.0), 0.0) == 0.5
    assert p1_given_projection(experiment(0.5, 0.3), 0.3) == 0.5


def test_band_interior_value():
    assert p1_given_projection(experiment(0.5, 0.2), 0.4) == pytest.approx(0.7, abs=1e-15)


def test_outside_band_is_deterministic():
    assert p1_given_projection(experiment(0.3, 0.0), state_at(math.acos(-0.9)).z) == 0.0
    assert p1_given_projection(experiment(0.3, 0.0), state_at(math.acos(0.95)).z) == 1.0


def test_zero_band_tie_break():
    e = experiment(0.0, 0.25)
    assert p1_given_projection(e, 0.25) == 0.5
    assert p1_given_projection(e, 0.2500001) == 1.0
    assert p1_given_projection(e, 0.2499999) == 0.0


@st.composite
def band_experiment(draw):
    epsilon = draw(st.floats(0.0, 1.0))
    d = draw(st.floats(-1.0 + epsilon, 1.0 - epsilon))
    return EpsilonExperiment(Z_AXIS, epsilon, d)


@given(band_experiment(), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_p1_monotone_in_projection(e, x1, x2):
    lo, hi = sorted((x1, x2))
    assert p1_given_projection(e, lo) <= p1_given_projection(e, hi)


@given(band_experiment(), st.floats(-1.0, 1.0))
def test_outcome_distribution_sums_to_one(e, x):
    # The two outcome probabilities are p1 and 1 - p1, both in [0, 1].
    p1 = p1_given_projection(e, unit_vector_at_angle(Z_AXIS, math.acos(x)).z)
    assert 0.0 <= p1 <= 1.0 and p1 + (1.0 - p1) == 1.0


def trials(e, x, n, seed):
    """count_o1 over n slots at projection(s) x: the count, the break
    points and the outcome-1 flags."""
    breaks, up = np.empty(n), np.empty(n, dtype=bool)
    hits = count_o1(e, x, np.random.default_rng(seed), breaks, up)
    return hits, breaks, up


def test_count_o1_certain_region():
    e = experiment(0.4, 0.1)
    for x in (e.band_high, 0.9):  # at and above the band's top
        hits, _, up = trials(e, x, 100, 0)
        assert hits == 100 and up.all()


def test_count_o1_decides_by_the_hidden_break_point():
    e = experiment(0.8, 0.0)
    x = state_at(1.0).dot(e.axis)
    hits, breaks, up = trials(e, x, 500, 1)
    assert ((e.band_low <= breaks) & (breaks < e.band_high)).all()
    # The trial is deterministic given the hidden break point: the particle
    # goes to the axis point (outcome 1) when the band breaks below x.
    assert (up == (breaks < x)).all() and hits == np.count_nonzero(up)


def test_count_o1_zero_band_ties_go_to_a_coin():
    e = experiment(0.0, 0.25)
    x = np.tile([0.2, 0.25, 0.3], 1000)
    hits, breaks, up = trials(e, x, len(x), 4)
    assert (breaks == e.d).all()
    assert not up[0::3].any() and up[2::3].all()
    assert 400 < np.count_nonzero(up[1::3]) < 600 and hits == np.count_nonzero(up)


def test_count_o1_deterministic_given_seed():
    e = experiment(0.6, -0.2)
    x = state_at(2.0).dot(e.axis)
    (hits_a, breaks_a, up_a), (hits_b, breaks_b, up_b) = trials(e, x, 10, 11), trials(e, x, 10, 11)
    assert hits_a == hits_b and (breaks_a == breaks_b).all() and (up_a == up_b).all()


def test_break_points_are_uniform_on_the_band():
    e = experiment(0.7, 0.1)
    _, breaks, _ = trials(e, state_at(1.2).dot(e.axis), 20_000, 2)
    counts, _ = np.histogram(breaks, bins=20, range=(e.band_low, e.band_high))
    assert stats.chisquare(counts).pvalue > 0.01


def test_estimate_matches_exact_probability():
    rng = np.random.default_rng(3)
    for i in range(50):
        epsilon = rng.uniform(0.05, 1.0)
        d = rng.uniform(-1 + epsilon, 1 - epsilon)
        x = rng.uniform(d - epsilon, d + epsilon)
        e = experiment(epsilon, d)
        p = p1_given_projection(e, x)
        est, err = estimate_probability_mc(e, state_at(math.acos(x)), 100_000, seed=1000 + i)
        assert abs(est - p) <= 4 * max(err, 1e-9)


def test_estimate_certain_state_is_exact():
    est, err = estimate_probability_mc(experiment(0.5, 0.1), Z_AXIS, 1000, seed=0)
    assert (est, err) == (1.0, 0.0)


def test_estimate_deterministic_and_validates():
    e = experiment(1.0)
    s = state_at(math.pi / 3)
    assert estimate_probability_mc(e, s, 10_000, seed=5) == estimate_probability_mc(e, s, 10_000, seed=5)
    with pytest.raises(ValueError):
        estimate_probability_mc(e, s, 0, seed=5)
