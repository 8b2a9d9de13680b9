import math

import numpy as np
import pytest

from qmachine.geometry import UnitVector, Z_AXIS, sample_uniform_sphere, unit_vector_at_angle
from qmachine.machine import EpsilonExperiment, p1_given_projection
from qmachine.spin import SpinObservable, SpinState, inner, spin_operator, spin_state, transition_probability


def test_state_at_the_poles():
    s = spin_state(Z_AXIS)
    assert s.up == 1.0 and s.down == 0.0
    s = spin_state(-Z_AXIS)
    assert abs(s.up) == pytest.approx(0.0, abs=1e-15) and abs(s.down) == pytest.approx(1.0)


def test_state_on_the_equator():
    s = spin_state(UnitVector(1.0, 0.0, 0.0))
    assert s.up == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert s.down == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


def test_state_normalization_enforced():
    with pytest.raises(ValueError):
        SpinState(1.0, 1.0)
    assert abs(inner(spin_state(UnitVector(0, 1, 0)), spin_state(UnitVector(0, 1, 0)))) == pytest.approx(1.0)


def test_operator_at_the_pole_is_diagonal():
    h = spin_operator(Z_AXIS)
    assert h.rows[0][0] == 0.5 and h.rows[1][1] == -0.5
    assert h.rows[0][1] == 0.0


def test_operator_validation():
    with pytest.raises(ValueError):
        SpinObservable(((0.5, 1.0), (2.0, -0.5)))  # not Hermitian
    with pytest.raises(ValueError):
        SpinObservable(((0.5, 0.0), (0.0, 0.5)))  # not traceless


def test_operator_eigen_relation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        u = sample_uniform_sphere(rng)
        h = spin_operator(u)
        psi = spin_state(u)
        hu, hd = h.apply(psi)
        assert abs(hu - 0.5 * psi.up) <= 1e-12
        assert abs(hd - 0.5 * psi.down) <= 1e-12
        # Traceless with det -1/4: eigenvalues are +-1/2.
        (a, b), (c, d) = h.rows
        assert abs(a * d - b * c + 0.25) <= 1e-12


def test_transition_probability_values():
    u = Z_AXIS
    assert transition_probability(u, u) == pytest.approx(1.0, abs=1e-15)
    v = unit_vector_at_angle(u, math.pi / 2, 0.7)
    assert transition_probability(u, v) == pytest.approx(0.5, abs=1e-12)


def test_transition_probability_is_half_angle_cosine():
    for k in range(181):
        theta = math.pi * k / 180
        v = unit_vector_at_angle(Z_AXIS, theta, 0.3)
        assert abs(transition_probability(Z_AXIS, v) - math.cos(theta / 2) ** 2) <= 1e-12


def test_transition_probability_symmetry_and_complement():
    rng = np.random.default_rng(1)
    for _ in range(50):
        u = sample_uniform_sphere(rng)
        v = sample_uniform_sphere(rng)
        assert transition_probability(u, v) == pytest.approx(transition_probability(v, u), abs=1e-12)
        assert transition_probability(u, v) + transition_probability(-u, v) == pytest.approx(1.0, abs=1e-12)


def test_transition_probability_matches_the_machine():
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = sample_uniform_sphere(rng)
        v = sample_uniform_sphere(rng)
        machine_p1 = p1_given_projection(EpsilonExperiment(u, 1.0, 0.0), v.dot(u))
        assert abs(transition_probability(u, v) - machine_p1) <= 1e-12
