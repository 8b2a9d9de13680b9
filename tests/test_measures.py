import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qmachine import measures
from qmachine.errors import ConditioningError
from qmachine.geometry import (
    SectorCap,
    Z_AXIS,
    cap_area_fraction,
    cap_intersection_fraction,
    cap_lens,
    sample_uniform_sphere,
    unit_vector_at_angle,
)
from qmachine.machine import EpsilonExperiment, Outcome
from qmachine.measures import CapUniform, Uniform, cap_averaged_p1, condition, eig_set, outcome_law

SQ2 = math.sqrt(2) / 2


def experiment(epsilon, d=0.0, axis=Z_AXIS):
    return EpsilonExperiment(axis, epsilon, d)


def other(a):
    return Outcome.O2 if a is Outcome.O1 else Outcome.O1


def measure(mu, cap):
    """mu(cap) for the uniform or a cap-uniform measure, by cap arithmetic."""
    if isinstance(mu, Uniform):
        return cap.area_fraction
    return cap_intersection_fraction(mu.cap, cap) / mu.cap.area_fraction


def sandwich(e, a, mu):
    """mu(eig(e, a)), P(a | mu) and mu(pos(e, a)), the possibility region
    pos(e, a) being the complement of eig(e, not a): the paper's bounds
    around the outcome probability."""
    return measure(mu, eig_set(e, a)), outcome_law(e, a, mu)[0], 1.0 - measure(mu, eig_set(e, other(a)))


def holds(lower, mid, upper):
    return lower <= mid + 1e-9 and mid <= upper + 1e-9


def test_eig_set_shapes():
    cap = eig_set(experiment(1.0), Outcome.O1)
    assert cap.center == Z_AXIS and cap.half_angle == 0.0 and cap.closed
    cap = eig_set(experiment(0.0), Outcome.O1)
    assert cap.half_angle == pytest.approx(math.pi / 2) and not cap.closed
    cap = eig_set(experiment(SQ2), Outcome.O1)
    assert cap.half_angle == pytest.approx(math.pi / 4, abs=1e-12)
    cap = eig_set(experiment(0.4, 0.1), Outcome.O2)
    assert cap.center == -Z_AXIS and cap.half_angle == pytest.approx(math.acos(0.3), abs=1e-12)


# (epsilon, d, half-angles of eig O1, eig O2, pos O1, pos O2 as float.hex),
# recorded at the band's limits, at d = -+(1 - epsilon) and at the 1e-15
# slack EpsilonExperiment allows beyond them.  pos(e, a), where outcome a is
# possible, is the complement of eig(e, not a): half-angle pi minus its own.
_PI, _HALF_PI, _ZERO = "0x1.921fb54442d18p+1", "0x1.921fb54442d18p+0", "0x0.0p+0"
CAP_PINS = [
    (0.0, -1.0, (_PI, _ZERO, _PI, _ZERO)),
    (0.0, 0.0, (_HALF_PI, _HALF_PI, _HALF_PI, _HALF_PI)),
    (0.0, 1.0, (_ZERO, _PI, _ZERO, _PI)),
    (0.0, -1.0 - 1e-15, (_PI, _ZERO, _PI, _ZERO)),
    (0.0, 1.0 + 1e-15, (_ZERO, _PI, _ZERO, _PI)),
    (1.0, 0.0, (_ZERO, _ZERO, _PI, _PI)),
    (1.0, -1e-15, ("0x1.8000000000001p-25", _ZERO, _PI, "0x1.921fb4e442d18p+1")),
    (1.0, 1e-15, (_ZERO, "0x1.8000000000001p-25", "0x1.921fb4e442d18p+1", _PI)),
    (0.5, -0.5, (_HALF_PI, _ZERO, _PI, _HALF_PI)),
    (0.5, 0.5, (_ZERO, _HALF_PI, _HALF_PI, _PI)),
    (0.5, -0.5 - 1e-15, ("0x1.921fb54442d1dp+0", _ZERO, _PI, "0x1.921fb54442d13p+0")),
    (0.5, 0.5 + 1e-15, (_ZERO, "0x1.921fb54442d1dp+0", "0x1.921fb54442d13p+0", _PI)),
]


@pytest.mark.parametrize("epsilon, d, halves", CAP_PINS)
def test_certainty_caps_at_the_boundaries(epsilon, d, halves):
    axis = unit_vector_at_angle(Z_AXIS, 1.0)
    e = experiment(epsilon, d, axis)
    caps = [eig_set(e, a) for a in (Outcome.O1, Outcome.O2)]
    pos = [math.pi - c.half_angle for c in reversed(caps)]
    assert [c.half_angle for c in caps] + pos == [float.fromhex(h) for h in halves]
    assert [c.center for c in caps] == [axis, -axis]
    assert [c.closed for c in caps] == [epsilon > 0.0] * 2


@st.composite
def epsilon_d(draw):
    epsilon = draw(st.floats(0.0, 1.0))
    d = draw(st.floats(-1.0 + epsilon, 1.0 - epsilon))
    return epsilon, d


@given(epsilon_d())
def test_certainty_inside_possibility(params):
    # eig(e, a) lies inside pos(e, a), the complement of eig(e, not a):
    # the two certainty caps do not overlap, and leave the band between them.
    epsilon, d = params
    e = experiment(epsilon, d)
    up, down = eig_set(e, Outcome.O1), eig_set(e, Outcome.O2)
    assert up.half_angle + down.half_angle <= math.pi + 1e-12
    assert cap_intersection_fraction(up, down) <= 1e-12
    assert up.area_fraction + down.area_fraction == pytest.approx(1.0 - epsilon, abs=1e-12)


def test_uniform_measures_of_certainty_regions():
    assert eig_set(experiment(1.0), Outcome.O1).area_fraction == 0.0
    assert 1.0 - eig_set(experiment(1.0), Outcome.O2).area_fraction == 1.0
    for d in (-0.4, 0.0, 0.25):
        cap = eig_set(experiment(0.0, d), Outcome.O1)
        assert cap_area_fraction(cap.half_angle) == pytest.approx((1 - d) / 2, abs=1e-12)


def test_cap_uniform_measure():
    # At epsilon = 0 the outcome is certain on eig_set and impossible off it,
    # so the outcome law is the cap-uniform measure of the certainty cap.
    mu = CapUniform(SectorCap(Z_AXIS, 1.0))
    assert outcome_law(experiment(0.0, math.cos(1.0)), Outcome.O1, mu)[0] == pytest.approx(1.0, abs=1e-12)
    expected = cap_area_fraction(0.5) / cap_area_fraction(1.0)
    assert outcome_law(experiment(0.0, math.cos(0.5)), Outcome.O1, mu)[0] == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        CapUniform(SectorCap(Z_AXIS, 0.0))


def test_uniform_outcome_probability_is_epsilon_independent():
    for epsilon in (0.0, 0.3, SQ2, 1.0):
        d_max = 1 - epsilon
        for d in (-d_max, 0.0, d_max / 2):
            e = experiment(epsilon, d)
            assert outcome_law(e, Outcome.O1, Uniform())[0] == pytest.approx(
                (1 - d) / 2, abs=1e-12
            )
            assert outcome_law(e, Outcome.O2, Uniform())[0] == pytest.approx(
                (1 + d) / 2, abs=1e-12
            )


def test_cap_uniform_outcome_probability_complement():
    e = experiment(0.6, 0.1, axis=unit_vector_at_angle(Z_AXIS, 1.1))
    mu = CapUniform(SectorCap(Z_AXIS, 0.8))
    p1 = outcome_law(e, Outcome.O1, mu)[0]
    p2 = outcome_law(e, Outcome.O2, mu)[0]
    assert p1 + p2 == pytest.approx(1.0, abs=1e-8)


def test_sandwich_quantum_uniform():
    assert sandwich(experiment(1.0), Outcome.O1, Uniform()) == (0.0, 0.5, 1.0)


def test_sandwich_classical_collapses():
    for d in (-0.3, 0.0, 0.5):
        lower, mid, upper = sandwich(experiment(0.0, d), Outcome.O1, Uniform())
        assert holds(lower, mid, upper)
        assert abs(lower - mid) <= 1e-9 and abs(mid - upper) <= 1e-9
        assert mid == pytest.approx((1 - d) / 2, abs=1e-9)


def test_sandwich_classical_collapses_on_cap_uniform():
    mu = CapUniform(SectorCap(unit_vector_at_angle(Z_AXIS, 0.6), 1.3))
    for d in (-0.2, 0.4):
        lower, mid, upper = sandwich(experiment(0.0, d), Outcome.O1, mu)
        assert holds(lower, mid, upper)
        assert abs(lower - mid) <= 1e-7 and abs(mid - upper) <= 1e-7


def test_sandwich_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(60):
        epsilon = rng.uniform(0.0, 1.0)
        d = rng.uniform(-1 + epsilon, 1 - epsilon)
        e = experiment(epsilon, d, axis=sample_uniform_sphere(rng))
        if rng.integers(0, 2):
            mu = Uniform()
        else:
            mu = CapUniform(SectorCap(sample_uniform_sphere(rng), rng.uniform(0.2, math.pi)))
        a = Outcome.O1 if rng.integers(0, 2) else Outcome.O2
        assert holds(*sandwich(e, a, mu))


def test_condition_uniform_gives_cap_uniform():
    f = experiment(SQ2, 0.0, axis=unit_vector_at_angle(Z_AXIS, 0.4))
    mu = condition(f, Outcome.O1)
    assert isinstance(mu, CapUniform)
    assert mu.cap.center == f.axis
    assert mu.cap.half_angle == pytest.approx(math.pi / 4, abs=1e-12)


def test_condition_zero_measure_raises():
    with pytest.raises(ConditioningError):
        condition(experiment(1.0), Outcome.O1)


def test_bayes_formula_for_classical_experiments():
    # For zero-band experiments, P(a_e | conditioned on a_f) * mu(eig_f)
    # equals the overlap measure of the two certainty caps.
    rng = np.random.default_rng(14)
    for _ in range(200):
        d_e = rng.uniform(-0.95, 0.95)
        d_f = rng.uniform(-0.95, 0.95)
        e = experiment(0.0, d_e, axis=unit_vector_at_angle(Z_AXIS, rng.uniform(0.0, math.pi)))
        f = experiment(0.0, d_f)
        mu_f = condition(f, Outcome.O1)
        lhs = outcome_law(e, Outcome.O1, mu_f)[0] * cap_area_fraction(eig_set(f, Outcome.O1).half_angle)
        rhs = cap_intersection_fraction(eig_set(e, Outcome.O1), eig_set(f, Outcome.O1))
        assert lhs == pytest.approx(rhs, abs=1e-14)


def test_band_average_solves_one_lens_per_band_edge(monkeypatch):
    # The moment route reads a band edge's overlap and moment from one lens
    # solve; the point rule reads m at d and at the two widened edges.
    calls = []

    def counting(gamma, rho, beta):
        calls.append(beta)
        return cap_lens(gamma, rho, beta)

    monkeypatch.setattr(measures, "cap_lens", counting)
    cap = SectorCap(unit_vector_at_angle(Z_AXIS, 0.4), 0.5)
    for epsilon, d, lenses in ((0.3, 0.5, 2), (0.3, 0.1, 3), (0.0, 0.5, 3), (1.0, 0.0, 2)):
        calls.clear()
        cap_averaged_p1(experiment(epsilon, d), cap)
        assert len(calls) == lenses, (epsilon, d)
