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
from qmachine.measures import (
    CapUniform,
    Mixture,
    Uniform,
    cap_averaged_p1,
    condition,
    eig_set,
    is_classical,
    measure_of,
    outcome_law,
    pos_set,
    sandwich_check,
)

SQ2 = math.sqrt(2) / 2


def experiment(epsilon, d=0.0, axis=Z_AXIS):
    return EpsilonExperiment(axis, epsilon, d)


def test_eig_set_shapes():
    cap = eig_set(experiment(1.0), Outcome.O1)
    assert cap.center == Z_AXIS and cap.half_angle == 0.0 and cap.closed
    cap = eig_set(experiment(0.0), Outcome.O1)
    assert cap.half_angle == pytest.approx(math.pi / 2) and not cap.closed
    cap = eig_set(experiment(SQ2), Outcome.O1)
    assert cap.half_angle == pytest.approx(math.pi / 4, abs=1e-12)
    cap = eig_set(experiment(0.4, 0.1), Outcome.O2)
    assert cap.center == -Z_AXIS and cap.half_angle == pytest.approx(math.acos(0.3), abs=1e-12)


def test_pos_set_shapes():
    cap = pos_set(experiment(1.0), Outcome.O1)
    assert cap.half_angle == pytest.approx(math.pi) and not cap.closed
    cap = pos_set(experiment(0.0, 0.3), Outcome.O1)
    assert cap.half_angle == pytest.approx(math.acos(0.3), abs=1e-12) and cap.closed


# (epsilon, d, half-angles of eig O1, eig O2, pos O1, pos O2 as float.hex),
# recorded at the band's limits, at d = -+(1 - epsilon) and at the 1e-15
# slack EpsilonExperiment allows beyond them.
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
    caps = [f(e, a) for f in (eig_set, pos_set) for a in (Outcome.O1, Outcome.O2)]
    assert [c.half_angle for c in caps] == [float.fromhex(h) for h in halves]
    assert [c.center for c in caps] == [axis, -axis, axis, -axis]
    assert [c.closed for c in caps] == [epsilon > 0.0] * 2 + [epsilon == 0.0] * 2


@st.composite
def epsilon_d(draw):
    epsilon = draw(st.floats(0.0, 1.0))
    d = draw(st.floats(-1.0 + epsilon, 1.0 - epsilon))
    return epsilon, d


@given(epsilon_d())
def test_certainty_inside_possibility(params):
    epsilon, d = params
    e = experiment(epsilon, d)
    for a in (Outcome.O1, Outcome.O2):
        assert eig_set(e, a).half_angle <= pos_set(e, a).half_angle + 1e-12


def test_uniform_measures_of_certainty_regions():
    assert measure_of(Uniform(), eig_set(experiment(1.0), Outcome.O1)) == 0.0
    assert measure_of(Uniform(), pos_set(experiment(1.0), Outcome.O1)) == pytest.approx(1.0)
    for d in (-0.4, 0.0, 0.25):
        assert measure_of(Uniform(), eig_set(experiment(0.0, d), Outcome.O1)) == pytest.approx(
            (1 - d) / 2, abs=1e-12
        )


def test_cap_uniform_measure():
    cap = SectorCap(Z_AXIS, 1.0)
    mu = CapUniform(cap)
    assert measure_of(mu, cap) == pytest.approx(1.0, abs=1e-9)
    inner = SectorCap(Z_AXIS, 0.5)
    expected = cap_area_fraction(0.5) / cap_area_fraction(1.0)
    assert measure_of(mu, inner) == pytest.approx(expected, abs=1e-9)


def test_mixture_measure_is_linear():
    cap_a = SectorCap(Z_AXIS, 1.2)
    mu = Mixture(((0.25, Uniform()), (0.75, CapUniform(cap_a))))
    region = SectorCap(Z_AXIS, 0.7)
    expected = 0.25 * measure_of(Uniform(), region) + 0.75 * measure_of(CapUniform(cap_a), region)
    assert measure_of(mu, region) == pytest.approx(expected, abs=1e-9)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        Mixture(((0.6, Uniform()), (0.6, Uniform())))


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
    r = sandwich_check(experiment(1.0), Outcome.O1, Uniform())
    assert (r.lower, r.mid, r.upper) == (0.0, 0.5, 1.0)
    assert r.holds


def test_sandwich_classical_collapses():
    for d in (-0.3, 0.0, 0.5):
        r = sandwich_check(experiment(0.0, d), Outcome.O1, Uniform())
        assert r.holds
        assert abs(r.lower - r.mid) <= 1e-9 and abs(r.mid - r.upper) <= 1e-9
        assert r.mid == pytest.approx((1 - d) / 2, abs=1e-9)


def test_sandwich_classical_collapses_on_cap_uniform():
    mu = CapUniform(SectorCap(unit_vector_at_angle(Z_AXIS, 0.6), 1.3))
    for d in (-0.2, 0.4):
        r = sandwich_check(experiment(0.0, d), Outcome.O1, mu)
        assert r.holds
        assert abs(r.lower - r.mid) <= 1e-7 and abs(r.mid - r.upper) <= 1e-7


def test_sandwich_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(60):
        epsilon = rng.uniform(0.0, 1.0)
        d = rng.uniform(-1 + epsilon, 1 - epsilon)
        e = experiment(epsilon, d, axis=sample_uniform_sphere(rng))
        kind = rng.integers(0, 3)
        if kind == 0:
            mu = Uniform()
        elif kind == 1:
            mu = CapUniform(SectorCap(sample_uniform_sphere(rng), rng.uniform(0.2, math.pi)))
        else:
            w = rng.uniform(0.2, 0.8)
            mu = Mixture(
                (
                    (w, CapUniform(SectorCap(sample_uniform_sphere(rng), rng.uniform(0.2, math.pi)))),
                    (1 - w, Uniform()),
                )
            )
        a = Outcome.O1 if rng.integers(0, 2) else Outcome.O2
        assert sandwich_check(e, a, mu).holds


def test_is_classical():
    assert is_classical(experiment(0.0, 0.2), Uniform())
    assert not is_classical(experiment(1.0), Uniform())
    assert not is_classical(experiment(0.5), Uniform())
    # The open band has uniform measure epsilon > 0, however small.
    for epsilon in (1e-12, 1e-10, 1e-9):
        assert not is_classical(experiment(epsilon, 0.1), Uniform())


def some_measures():
    cap = CapUniform(SectorCap(unit_vector_at_angle(Z_AXIS, 0.6), 1.3))
    return [Uniform(), cap, Mixture(((0.3, cap), (0.7, Uniform())))]


@pytest.mark.parametrize("mu", some_measures(), ids=["uniform", "cap", "mixture"])
def test_a_zero_band_is_classical_under_every_measure(mu):
    for d in (-0.4, 0.0, 0.7):
        assert is_classical(experiment(0.0, d), mu)


@pytest.mark.parametrize("a", [Outcome.O1, Outcome.O2])
def test_a_cap_is_classical_up_to_a_certainty_cap_and_no_further(a):
    e = experiment(0.3, 0.1, axis=unit_vector_at_angle(Z_AXIS, 0.8))
    region = eig_set(e, a)
    assert is_classical(e, CapUniform(region))
    assert condition(CapUniform(region), e, a) == CapUniform(region)
    for widening in (1e-11, 5e-13):
        wider = CapUniform(SectorCap(region.center, region.half_angle + widening))
        assert not is_classical(e, wider)
        # Conditioning restricts the wider cap to the certainty cap.
        assert condition(wider, e, a) == CapUniform(region)


def test_a_mixture_is_classical_when_every_weighted_component_is():
    e = experiment(0.3, 0.1)
    inside = [CapUniform(eig_set(e, a)) for a in (Outcome.O1, Outcome.O2)]
    assert is_classical(e, Mixture(((0.4, inside[0]), (0.6, inside[1]))))
    assert is_classical(e, Mixture(((1.0, inside[0]), (0.0, Uniform()))))
    assert not is_classical(e, Mixture(((0.9, inside[0]), (0.1, Uniform()))))


def test_condition_uniform_gives_cap_uniform():
    f = experiment(SQ2, 0.0, axis=unit_vector_at_angle(Z_AXIS, 0.4))
    mu = condition(Uniform(), f, Outcome.O1)
    assert isinstance(mu, CapUniform)
    assert mu.cap.center == f.axis
    assert mu.cap.half_angle == pytest.approx(math.pi / 4, abs=1e-12)


def test_condition_is_idempotent():
    f = experiment(0.5, 0.1)
    once = condition(Uniform(), f, Outcome.O1)
    twice = condition(once, f, Outcome.O1)
    assert once == twice


def test_condition_zero_measure_raises():
    with pytest.raises(ConditioningError):
        condition(Uniform(), experiment(1.0), Outcome.O1)


def test_condition_partial_overlap_unsupported():
    mu = CapUniform(SectorCap(unit_vector_at_angle(Z_AXIS, 1.5), 0.8))
    f = experiment(0.3, 0.0)  # certainty cap of half-angle ~1.266 around Z
    with pytest.raises(ConditioningError):
        condition(mu, f, Outcome.O1)


def test_condition_mixture_reweights():
    f = experiment(0.2, 0.0)
    cap_in = SectorCap(Z_AXIS, 0.5)  # inside the certainty cap
    mu = Mixture(((0.5, CapUniform(cap_in)), (0.5, Uniform())))
    cond = condition(mu, f, Outcome.O1)
    assert isinstance(cond, Mixture)
    weights = [w for w, _ in cond.components]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    # The cap component is entirely inside the conditioning region, so its
    # weight grows relative to the uniform one.
    assert weights[0] > 0.5


def test_bayes_formula_for_classical_experiments():
    # For zero-band experiments, P(a_e | conditioned on a_f) * mu(eig_f)
    # equals the overlap measure of the two certainty caps.
    rng = np.random.default_rng(14)
    for _ in range(200):
        d_e = rng.uniform(-0.95, 0.95)
        d_f = rng.uniform(-0.95, 0.95)
        e = experiment(0.0, d_e, axis=unit_vector_at_angle(Z_AXIS, rng.uniform(0.0, math.pi)))
        f = experiment(0.0, d_f)
        mu_f = condition(Uniform(), f, Outcome.O1)
        lhs = outcome_law(e, Outcome.O1, mu_f)[0] * measure_of(
            Uniform(), eig_set(f, Outcome.O1)
        )
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
