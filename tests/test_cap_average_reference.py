"""The cap-averaged outcome law against an independent 30-digit reference.

cap_averaged_p1 averages, over where the band breaks, the cap's exact
overlap with the axis cap above the break point, in closed form from the
lens's first moment, and bounds its own error.  Each test checks the value
against the reference and against that error claim.  The reference here is
a different model of the same law, ported to mpmath: the outcome kernel
averaged analytically over each ring around the cap's center, integrated
over the ring's polar angle, with the polar angles where a band edge is
tangent to a ring as breakpoints.
"""

import math
import random

import mpmath as mp
import pytest

from qmachine.conditional import ConditionalQuery, conditional_closed_form, conditional_quad, symmetric_query
from qmachine.geometry import Z_AXIS, SectorCap, angle_between, unit_vector_at_angle
from qmachine.machine import EpsilonExperiment, Outcome
from qmachine.measures import UNIFORM, CapUniform, Mixture, condition, outcome_law

TOL = 1e-9
BASES = {
    "uniform": UNIFORM,
    "uniform_and_cap": Mixture(((0.4, UNIFORM), (0.6, CapUniform(SectorCap(Z_AXIS, 2.0))))),
    "two_caps": Mixture(((0.3, CapUniform(SectorCap(Z_AXIS, 0.9))), (0.7, CapUniform(SectorCap(Z_AXIS, 2.6))))),
}
# The paper's epsilons.
EPSILONS = (1e-6, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


def _ring_mean_p1(t, cg, sg, eps, d):
    """Outcome-1 kernel averaged over the ring at polar angle t from a cap
    center gamma from the axis: the projection is A + B cos(phi)."""
    cos_t, sin_t = mp.cos_sin(t)
    A, B = cos_t * cg, sin_t * sg
    if B == 0:
        if eps == 0:
            return mp.mpf(1) if A > d else mp.mpf(0)
        return min(mp.mpf(1), max(mp.mpf(0), (A - d + eps) / (2 * eps)))
    if eps == 0:
        return mp.acos(min(mp.mpf(1), max(mp.mpf(-1), (d - A) / B))) / mp.pi
    # phi_a: where the projection crosses the band's top edge; phi_b: its bottom.
    ua = min(mp.mpf(1), max(mp.mpf(-1), (d + eps - A) / B))
    ub = min(mp.mpf(1), max(mp.mpf(-1), (d - eps - A) / B))
    phi_a, phi_b = mp.acos(ua), mp.acos(ub)
    ramp = (A - d + eps) * (phi_b - phi_a) + B * (mp.sqrt(1 - ub * ub) - mp.sqrt(1 - ua * ua))
    return (phi_a + ramp / (2 * eps)) / mp.pi


def reference_cap_p1(e: EpsilonExperiment, cap: SectorCap):
    """P(outcome 1) for a state uniform on `cap`, to 30 digits."""
    with mp.workdps(30):
        c = [mp.mpf(v) for v in (cap.center.x, cap.center.y, cap.center.z)]
        u = [mp.mpf(v) for v in (e.axis.x, e.axis.y, e.axis.z)]
        cross = [c[1] * u[2] - c[2] * u[1], c[2] * u[0] - c[0] * u[2], c[0] * u[1] - c[1] * u[0]]
        gamma = mp.atan2(mp.sqrt(sum(x * x for x in cross)), sum(x * y for x, y in zip(c, u)))
        rho, eps, d = mp.mpf(cap.half_angle), mp.mpf(e.epsilon), mp.mpf(e.d)
        cg, sg = mp.cos(gamma), mp.sin(gamma)
        cuts = {mp.mpf(0), rho}
        for edge in {d - eps, d + eps}:
            if -1 < edge < 1:
                a = mp.acos(edge)
                cuts |= {t for t in (gamma - a, a - gamma, gamma + a, 2 * mp.pi - gamma - a) if 0 < t < rho}
        total = mp.quad(lambda t: _ring_mean_p1(t, cg, sg, eps, d) * mp.sin(t), sorted(cuts))
        return total / (1 - mp.cos(rho))


def reference_p1(e: EpsilonExperiment, mu):
    if isinstance(mu, CapUniform):
        return reference_cap_p1(e, mu.cap)
    return sum(w * reference_p1(e, m) for w, m in mu.components)


def _cases():
    """(epsilon, alpha, d, c, base, target outcome, condition outcome),
    seeded; one in ten at epsilon = 1e-6, one in ten with d = -+(1 - epsilon),
    and one in five with alpha drawn from {0, pi, random}.  Mixture bases
    condition on outcome 1 only: their caps, centered on the conditioning
    axis, are then nested in the certainty cap or contain it."""
    rnd = random.Random(9)
    cases = []
    for k in range(100):
        epsilon = 1e-6 if k % 10 == 1 else rnd.uniform(0.0, 1.0)
        span = 1.0 - epsilon
        d, c = rnd.uniform(-span, span), rnd.uniform(-span, span)
        if k % 10 == 0:
            d = rnd.choice((-span, span))
        alpha = rnd.uniform(0.0, math.pi)
        if k % 5 == 0:
            alpha = rnd.choice((0.0, math.pi, alpha))
        base = ("uniform", "uniform_and_cap", "two_caps")[k % 3]
        target_outcome = rnd.choice(list(Outcome))
        condition_outcome = rnd.choice(list(Outcome)) if base == "uniform" else Outcome.O1
        cases.append((epsilon, alpha, d, c, base, target_outcome, condition_outcome))
    return cases


def test_conditional_quad_meets_its_tolerance_against_the_reference():
    worst = 0.0
    for epsilon, alpha, d, c, base, target_outcome, condition_outcome in _cases():
        q = ConditionalQuery(
            target=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, alpha), epsilon, d),
            cond=EpsilonExperiment(Z_AXIS, epsilon, c),
            target_outcome=target_outcome,
            condition_outcome=condition_outcome,
            base=BASES[base],
        )
        result = conditional_quad(q)
        target = q.target if target_outcome is Outcome.O1 else q.target.flipped()
        mu = condition(q.base, q.cond, condition_outcome)
        err = float(abs(result.value - reference_p1(target, mu)))
        assert err <= TOL, (epsilon, alpha, d, c, base, target_outcome, condition_outcome, err)
        assert err <= result.error_bound, (epsilon, alpha, d, c, base, err, result.error_bound)
        worst = max(worst, err)
    assert worst > 0.0  # the reference is independent: it does not round the same way


@pytest.mark.parametrize("epsilon, d", [(0.0, 0.3), (0.0, -0.8), (0.4, 0.1), (0.05, 0.95 - 1e-9)])
def test_outcome_probability_of_an_off_axis_cap_matches_the_reference(epsilon, d):
    rnd = random.Random(int(1000 * epsilon) + int(10 * d))
    for _ in range(5):
        center = unit_vector_at_angle(Z_AXIS, rnd.uniform(0.0, math.pi), rnd.uniform(0.0, 2 * math.pi))
        cap = SectorCap(center, rnd.uniform(0.01, math.pi))
        axis = unit_vector_at_angle(Z_AXIS, rnd.uniform(0.0, math.pi), rnd.uniform(0.0, 2 * math.pi))
        e = EpsilonExperiment(axis, epsilon, d)
        value, bound = outcome_law(e, Outcome.O1, CapUniform(cap))
        err = float(abs(value - reference_cap_p1(e, cap)))
        assert err <= TOL
        assert err <= bound, (err, bound)


def test_paper_grid_meets_the_closed_form_and_the_mirror_identity():
    tol = 1e-8
    for epsilon in EPSILONS:
        results = [conditional_quad(symmetric_query(epsilon, math.pi * j / 180)) for j in range(181)]
        assert max(r.error_bound for r in results) <= tol, epsilon
        values = [r.value for r in results]
        for j, value in enumerate(values):
            alpha = math.pi * j / 180
            assert abs(value + values[180 - j] - 1.0) <= 2 * tol, (epsilon, j)
            closed = conditional_closed_form(epsilon, alpha)
            assert closed.validity.value == "valid", (epsilon, j)
            assert abs(value - closed.value) <= tol, (epsilon, j)


def test_zero_band_is_exact():
    # d = c = 0, epsilon = 0: the conditioned state is uniform on a
    # hemisphere, and the answer is the lune fraction 1 - alpha / pi.
    for j in range(37):
        alpha = math.pi * j / 36
        result = conditional_quad(symmetric_query(0.0, alpha))
        err = abs(result.value - (1.0 - alpha / math.pi))
        assert err <= 1e-14
        assert err <= result.error_bound, (j, err, result.error_bound)


def test_zero_band_past_the_poles_is_certain():
    # The band check allows d up to 1e-15 beyond the poles at epsilon = 0.
    mu = CapUniform(SectorCap(unit_vector_at_angle(Z_AXIS, 0.7), 1.2))
    axis = unit_vector_at_angle(Z_AXIS, 0.3)
    assert outcome_law(EpsilonExperiment(axis, 0.0, 1.0 + 1e-15), Outcome.O1, mu)[0] == 0.0
    assert outcome_law(EpsilonExperiment(axis, 0.0, -1.0 - 1e-15), Outcome.O1, mu)[0] == 1.0
    for d, exact in ((1.0 + 1e-15, 0.0), (-1.0 - 1e-15, 1.0)):
        value, bound = outcome_law(EpsilonExperiment(axis, 0.0, d), Outcome.O1, mu)
        assert abs(value - exact) <= bound <= 1e-14


@pytest.mark.parametrize("total", [1.0 - 1e-15, 1.0 - 2.0**-52])
@pytest.mark.parametrize("c", [0.0, 0.5])
def test_small_conditioning_cap_meets_the_reference(total, c):
    # epsilon + c near 1 leaves a conditioning cap of radius acos(epsilon + c),
    # 4.5e-8 and 2.1e-8 here, whose share of each overlap is a ratio of
    # areas near 1e-16.
    epsilon = total - c
    assert epsilon + c == total
    for alpha in (0.5, 1.0, math.pi / 2, 2.0, 3.0):
        for d in {0.0, -0.5 * c}:
            q = ConditionalQuery(
                target=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, alpha), epsilon, d),
                cond=EpsilonExperiment(Z_AXIS, epsilon, c),
            )
            mu = condition(q.base, q.cond, Outcome.O1)
            assert mu.cap.half_angle < 5e-8
            result = conditional_quad(q)
            err = float(abs(result.value - reference_p1(q.target, mu)))
            assert err <= TOL, (total, c, alpha, d, err)
            assert err <= result.error_bound, (total, c, alpha, d, err, result.error_bound)


def test_band_below_an_ulp_of_d_is_the_point_value():
    # 0.5 -+ 1e-17 both round to 0.5, so the band as floats is the point d.
    cap = SectorCap(unit_vector_at_angle(Z_AXIS, 1.0), 0.7)
    point = outcome_law(EpsilonExperiment(Z_AXIS, 0.0, 0.5), Outcome.O1, CapUniform(cap))[0]
    assert 0.1 < point < 0.9
    for epsilon in (1e-17, 5e-17):
        e = EpsilonExperiment(Z_AXIS, epsilon, 0.5)
        value, bound = outcome_law(e, Outcome.O1, CapUniform(cap))
        assert value == point
        assert float(abs(value - reference_cap_p1(e, cap))) <= bound


@pytest.mark.parametrize("epsilon, d", [(1e-9, 0.3), (1e-12, -0.3), (5.551115123125783e-17, 0.4)])
def test_narrow_band_meets_the_reference(epsilon, d):
    # The band's float edges are off its true edges by up to half an ulp
    # of d each, a large part of a band this narrow.
    for gamma in (0.8, 1.3, 1.9):
        for rho in (0.3, 1.0):
            cap = SectorCap(unit_vector_at_angle(Z_AXIS, gamma), rho)
            e = EpsilonExperiment(Z_AXIS, epsilon, d)
            value, bound = outcome_law(e, Outcome.O1, CapUniform(cap))
            err = float(abs(value - reference_cap_p1(e, cap)))
            assert err <= TOL, (gamma, rho)
            assert err <= bound, (gamma, rho, err, bound)


@pytest.mark.parametrize("epsilon", [0.3, 0.9, 1.0])
def test_band_holding_the_whole_cap_meets_the_reference(epsilon):
    # Every state's projection lies in the band, where the outcome-1
    # probability is linear in it: the answer comes from the mean projection.
    rnd = random.Random(int(100 * epsilon))
    for rho in (2e-8, 1e-3, 0.1, 0.25):
        for _ in range(3):
            gamma = rnd.uniform(0.0, math.pi)
            x_min, x_max = math.cos(min(math.pi, gamma + rho)), math.cos(max(0.0, gamma - rho))
            d = rnd.uniform(x_max - epsilon, x_min + epsilon)
            e = EpsilonExperiment(Z_AXIS, epsilon, max(-1.0 + epsilon, min(1.0 - epsilon, d)))
            assert e.band_low <= x_min and x_max <= e.band_high
            cap = SectorCap(unit_vector_at_angle(Z_AXIS, gamma), rho)
            value, bound = outcome_law(e, Outcome.O1, CapUniform(cap))
            err = float(abs(value - reference_cap_p1(e, cap)))
            assert err <= TOL, (gamma, rho, e.d)
            assert err <= bound, (gamma, rho, e.d, err, bound)


def _band_with_edge(epsilon: float, edge: float, side: int):
    """The experiment on Z_AXIS whose upper (side 1) or lower (side -1) float
    band edge is exactly `edge`, or None when no float d gives it."""
    d = edge - side * epsilon
    for _ in range(8):
        got = d + side * epsilon
        if got == edge:
            return EpsilonExperiment(Z_AXIS, epsilon, d) if abs(d) <= 1.0 - epsilon else None
        d = math.nextafter(d, math.copysign(math.inf, edge - got))
    return None


@pytest.mark.parametrize("gamma, rho", [(0.9, 0.4), (0.5, 0.3), (1.3, 2.0), (2.2, 1.7), (2.8, 2.5)])
def test_band_edge_tangent_to_the_cap_meets_the_reference(gamma, rho):
    # A band edge at cos(gamma -+ rho), where the ring at the break point
    # touches the cap's rim, and 1-4 ulps either side of it.  The lens
    # angles there come from arguments near 0, which arccos forms lose.
    cap = SectorCap(unit_vector_at_angle(Z_AXIS, gamma), rho)
    g = angle_between(cap.center, Z_AXIS)
    checked = 0
    for tangent in (math.cos(g - rho), math.cos(g + rho)):
        for k in range(-4, 5):
            edge = tangent
            for _ in range(abs(k)):
                edge = math.nextafter(edge, math.copysign(math.inf, k))
            for epsilon, side in ((0.0, 1), (0.25, 1), (0.25, -1)):
                e = _band_with_edge(epsilon, edge, side)
                if e is None:
                    continue
                value, bound = outcome_law(e, Outcome.O1, CapUniform(cap))
                err = float(abs(value - reference_cap_p1(e, cap)))
                assert err <= 1e-12, (tangent, k, epsilon, side, err)
                assert err <= bound, (tangent, k, epsilon, side, err, bound)
                checked += 1
    assert checked >= 27
