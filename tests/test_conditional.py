import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qmachine.conditional import (
    ConditionalQuery,
    Validity,
    conditional_closed_form,
    conditional_mc,
    conditional_quad,
    sweep,
    symmetric_query,
)
from qmachine import conditional, geometry, measures
from qmachine.geometry import Z_AXIS, unit_vector_at_angle
from qmachine.machine import MC_CHUNK, EpsilonExperiment, Outcome
from qmachine.survey import QuestionStats, build_survey_model, classify_survey, predict_conditionals

SQ2 = math.sqrt(2) / 2


def test_query_requires_shared_epsilon():
    with pytest.raises(ValueError):
        ConditionalQuery(
            target=EpsilonExperiment(Z_AXIS, 0.5),
            cond=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, 1.0), 0.6),
        )


def test_quantum_case_via_degenerate_cap():
    # epsilon = 1: conditioning pins the state to the axis point.
    for alpha in (0.0, math.pi / 3, math.pi / 2, 2.5):
        r = conditional_quad(symmetric_query(1.0, alpha))
        assert r.value == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)


UNIT = 2.0**-53


def exact_pinned_kernel(target, center):
    """The kernel at a zero-radius cap's center in exact rationals, from the
    same float inputs: the exact dot, then the exact clamped ramp (or step)."""
    x = sum(Fraction(c) * Fraction(a) for c, a in zip((center.x, center.y, center.z), (target.axis.x, target.axis.y, target.axis.z)))
    eps, d = Fraction(target.epsilon), Fraction(target.d)
    if eps == 0:
        return Fraction(1) if x > d else Fraction(0) if x < d else Fraction(1, 2)
    return min(max((x - d + eps) / (2 * eps), Fraction(0)), Fraction(1))


def pinned_cases():
    """Zero-radius conditioning caps: epsilon = 1 on the bench's 181-alpha
    grid, then epsilon < 1 with the conditioning band against the pole and
    random targets, a third of them with the dot on a band edge."""
    for j in range(181):
        for t_out in Outcome:
            for c_out in Outcome:
                yield symmetric_query(1.0, math.pi * j / 180, t_out, c_out)
    rng = np.random.default_rng(2718)
    for epsilon in (0.5, 0.1, 1e-3, 1e-6, 0.0):
        for i in range(60):
            c_out = Outcome.O1 if i % 2 else Outcome.O2
            d = 1.0 - epsilon
            while epsilon + d < 1.0:
                d = math.nextafter(d, 2.0)
            cond_axis = unit_vector_at_angle(Z_AXIS, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            cond = EpsilonExperiment(cond_axis, epsilon, d if c_out is Outcome.O1 else -d)
            axis = unit_vector_at_angle(Z_AXIS, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
            limit = 1.0 - epsilon
            target_d = float(rng.uniform(-limit, limit))
            if i % 3 == 0:
                dot = (cond_axis if c_out is Outcome.O1 else -cond_axis).dot(axis)
                edge = dot + (epsilon if i % 6 else -epsilon)
                target_d = min(max(edge, -limit), limit)
                for _ in range(int(rng.integers(0, 4))):
                    target_d = math.nextafter(target_d, 0.0)
            target = EpsilonExperiment(axis, epsilon, target_d)
            yield ConditionalQuery(target, cond, Outcome.O1 if i % 4 < 2 else Outcome.O2, c_out)


def test_zero_radius_bound_holds_against_exact_evaluation():
    n = 0
    for q in pinned_cases():
        cap = conditional._conditioning_cap(q)
        assert cap.half_angle == 0.0
        r = conditional_quad(q)
        exact = exact_pinned_kernel(conditional._oriented_target(q), cap.center)
        assert abs(Fraction(r.value) - exact) <= Fraction(r.error_bound), (q, r)
        if q.target.epsilon == 1.0:
            assert r.error_bound <= 8 * UNIT  # a few units, not a blanket tolerance
        n += 1
    assert n == 181 * 4 + 5 * 60


def test_zero_radius_mirror_identity_within_the_bounds():
    # At epsilon = 1 the pinned value is a float dot through a ramp, so
    # f(alpha) + f(pi - alpha) - 1 is a few units off; the two error_bounds
    # must cover it.
    rows = [conditional_quad(symmetric_query(1.0, math.pi * j / 180)) for j in range(181)]
    for j, r in enumerate(rows):
        mirror = rows[180 - j]
        assert abs(r.value + mirror.value - 1.0) <= r.error_bound + mirror.error_bound, j


def test_classical_case_is_linear_in_the_angle():
    for alpha in (0.3, math.pi / 2, 2.6):
        r = conditional_quad(symmetric_query(1e-6, alpha))
        assert r.value == pytest.approx(1 - alpha / math.pi, abs=1e-3)


def test_flagship_values():
    p_near = conditional_quad(symmetric_query(SQ2, math.pi / 3)).value
    p_far = conditional_quad(symmetric_query(SQ2, 2 * math.pi / 3)).value
    assert p_near == pytest.approx(0.78, abs=0.01)
    assert p_far == pytest.approx(0.22, abs=0.01)
    assert p_near + p_far == pytest.approx(1.0, abs=1e-7)


def test_same_axis_same_outcome_is_certain():
    q = ConditionalQuery(
        target=EpsilonExperiment(Z_AXIS, SQ2),
        cond=EpsilonExperiment(Z_AXIS, SQ2),
    )
    assert conditional_quad(q).value == 1.0
    assert conditional_mc(q, 10_000, 3).value == 1.0


def test_complement_law_quadrature():
    for eps, alpha in ((0.4, 1.1), (SQ2, 2.2), (0.9, 0.5)):
        p1 = conditional_quad(symmetric_query(eps, alpha, target_outcome=Outcome.O1)).value
        p2 = conditional_quad(symmetric_query(eps, alpha, target_outcome=Outcome.O2)).value
        assert p1 + p2 == pytest.approx(1.0, abs=1e-7)


def test_complement_law_monte_carlo_same_seed():
    q1 = symmetric_query(0.6, 1.3, target_outcome=Outcome.O1)
    q2 = symmetric_query(0.6, 1.3, target_outcome=Outcome.O2)
    for n in (50_000, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7):
        a = conditional_mc(q1, n, 9)
        b = conditional_mc(q2, n, 9)
        assert a.value + b.value == pytest.approx(1.0, abs=1e-12)
        # Both outcomes see one stream, so the counts are exact complements.
        assert round(a.value * n) + round(b.value * n) == n


def test_antipodal_symmetry():
    for k in range(0, 21):
        alpha = math.pi * k / 20
        p = conditional_quad(symmetric_query(0.55, alpha)).value
        q = conditional_quad(symmetric_query(0.55, math.pi - alpha)).value
        assert p + q == pytest.approx(1.0, abs=1e-7)


def test_monte_carlo_agrees_with_quadrature():
    rng = np.random.default_rng(21)
    for i in range(10):
        eps = rng.uniform(0.05, 1.0)
        alpha = rng.uniform(0.1, math.pi - 0.1)
        q = symmetric_query(eps, alpha)
        exact = conditional_quad(q).value
        mc = conditional_mc(q, 20_000, seed=100 + i)
        assert abs(mc.value - exact) <= 4 * max(mc.error_bound, 1e-9)


@pytest.mark.parametrize(
    "epsilon, d, c, alpha, target_outcome",
    [
        (0.2, 0.3, -0.7, 1.1, Outcome.O1),
        (0.2, 0.3, 0.1, 1.1, Outcome.O2),
        # epsilon = 0 targets: the step kernel under cap-uniform states.
        (0.0, 0.2, -0.5, 0.9, Outcome.O1),
        (0.0, -0.1, 0.3, 2.0, Outcome.O2),
    ],
)
def test_monte_carlo_agrees_with_quadrature_on_offset_bands(epsilon, d, c, alpha, target_outcome):
    q = ConditionalQuery(
        target=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, alpha), epsilon, d),
        cond=EpsilonExperiment(Z_AXIS, epsilon, c),
        target_outcome=target_outcome,
    )
    exact = conditional_quad(q).value
    mc = conditional_mc(q, 200_000, seed=[31, int(1000 * alpha)])
    assert abs(mc.value - exact) <= 5 * mc.error_bound


def test_monte_carlo_validates_trials():
    with pytest.raises(ValueError):
        conditional_mc(symmetric_query(0.5, 1.0), 0, seed=1)


@pytest.mark.parametrize("seed, recorded", [(np.int64(3), 3), (3, 3), ([np.int64(3), 4], [3, 4]), ((3, 4), [3, 4])])
def test_monte_carlo_records_an_integral_seed_as_int(seed, recorded):
    # default_rng takes numpy integers as it takes ints; the diagnostics
    # record plain ints (json.dumps rejects a numpy integer).
    q = symmetric_query(0.5, 1.0)
    r = conditional_mc(q, 100, seed)
    assert json.dumps(r.diagnostics["seed"]) == json.dumps(recorded)
    assert r.value == conditional_mc(q, 100, recorded).value


def test_closed_form_quantum_branch():
    for alpha in (0.2, 1.0, 2.0, 3.0):
        r = conditional_closed_form(1.0, alpha)
        assert r.validity is Validity.VALID
        assert r.value == pytest.approx(math.cos(alpha / 2) ** 2, abs=1e-12)


def test_closed_form_classical_limit():
    for alpha in (0.4, 1.5, 2.7):
        r = conditional_closed_form(1e-4, alpha)
        assert r.validity is Validity.VALID
        assert r.value == pytest.approx(1 - alpha / math.pi, abs=1e-3)


def test_closed_form_matches_quadrature_in_valid_regimes():
    # One point in each single-gate regime.
    cases = [(0.3, 0.4), (0.3, 1.2), (0.85, 1.5), (SQ2, math.pi / 3), (0.2, 2.0)]
    for eps, alpha in cases:
        cf = conditional_closed_form(eps, alpha)
        assert cf.validity is Validity.VALID
        ref = conditional_quad(symmetric_query(eps, alpha)).value
        assert cf.value == pytest.approx(ref, abs=1e-8)


def test_closed_form_flagship_is_mirrored():
    alpha = 2 * math.pi / 3
    r = conditional_closed_form(SQ2, alpha)
    assert r.validity is Validity.VALID
    assert r.diagnostics == {"mirrored": True}
    assert abs(r.value - conditional_quad(symmetric_query(SQ2, alpha)).value) <= 1e-12


def test_closed_form_is_total_at_regime_boundaries():
    # epsilon = cos(alpha/2) and sin(alpha/2), and one ulp either side, put
    # a rim radius at zero, where rounding alone can make its radicand
    # negative (the printed form's asin argument passed 1 at alpha = 0.6075).
    rng = np.random.default_rng(2400)
    n = 0
    for alpha in [0.6075, *rng.uniform(0.0, math.pi, 399)]:
        alpha = float(alpha)
        for edge in (math.cos(alpha / 2), math.sin(alpha / 2)):
            for epsilon in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)):
                if 0.0 < epsilon <= 1.0:
                    r = conditional_closed_form(epsilon, alpha)
                    assert r.validity is Validity.VALID and math.isfinite(r.value), (epsilon, alpha)
                    n += 1
    assert n >= 2350


def test_mirror_identity_holds_on_every_route():
    # d = c = 0, uniform base: f(alpha) + f(pi - alpha) = 1.
    rng = np.random.default_rng(1013)
    tol, trials = 1e-8, 20_000
    for i in range(8):
        epsilon, alpha = float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, math.pi))
        pair = (symmetric_query(epsilon, alpha), symmetric_query(epsilon, math.pi - alpha))
        quad = [conditional_quad(q).value for q in pair]
        assert abs(sum(quad) - 1.0) <= 2 * tol, (epsilon, alpha)
        mc = [conditional_mc(q, trials, [1013, i, k]) for k, q in enumerate(pair)]
        sigma = math.hypot(*(max(m.error_bound, 1.0 / trials) for m in mc))
        assert abs(mc[0].value + mc[1].value - 1.0) <= 6 * sigma, (epsilon, alpha)
        closed = [conditional_closed_form(epsilon, a).value for a in (alpha, math.pi - alpha)]
        assert abs(sum(closed) - 1.0) <= 1e-15, (epsilon, alpha)


def test_closed_form_reaches_no_exact_route(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the closed form ran the exact route")

    for name in ("conditional_quad", "condition", "outcome_law"):
        monkeypatch.setattr(conditional, name, refuse)
    for epsilon, alpha in ((0.5, 1.0), (SQ2, 2 * math.pi / 3), (0.9, 0.2), (1.0, 2.0), (1e-17, 1.0)):
        r = conditional_closed_form(epsilon, alpha)
        assert r.validity is (Validity.INACCURATE if epsilon < 1e-9 else Validity.VALID)
    assert conditional_closed_form(0.5, 1.0).error_bound <= 1e-14


def _printed_form(epsilon: float, alpha: float) -> mp.mpf:
    """The printed Heaviside form at 50 digits, with its acos/asin arcs:
    evaluated at a = min(alpha, pi - alpha), where one regime holds, and
    mirrored past pi/2."""
    with mp.workdps(50):
        e, alpha = mp.mpf(epsilon), mp.mpf(alpha)
        mirrored = alpha > mp.pi / 2
        a = mp.pi - alpha if mirrored else alpha
        c, s, cos_a = mp.cos(a / 2), mp.sin(a / 2), mp.cos(a)

        def terms(c, s):
            root = mp.sqrt(1 - e * e)
            radicand = 1 - (e / c) ** 2
            omega = 4 * e * mp.acos(mp.sqrt(radicand) / root) - 4 * mp.asin(s / root)
            sigma = e * (s / c) * mp.sqrt(radicand) - (1 - e * e) * mp.acos(e * (s / c) / root)
            return omega, sigma

        p1 = cos_a * (1 + e) / (4 * e) + mp.mpf(1) / 2
        if e >= c:
            value = p1
        elif e >= s:
            omega_c, sigma_c = terms(c, s)
            value = p1 + mp.mpf(1) / 2 + omega_c / (4 * mp.pi * (1 - e))
            value += (cos_a + 1) * sigma_c / (4 * mp.pi * e * (1 - e))
        else:
            (omega_c, sigma_c), (omega_s, sigma_s) = terms(c, s), terms(s, c)
            value = p1 + (omega_c - omega_s) / (4 * mp.pi * (1 - e))
            value += ((cos_a + 1) * sigma_c + (cos_a - 1) * sigma_s) / (4 * mp.pi * e * (1 - e))
        return 1 - value if mirrored else value


def _assert_within_bound(epsilon: float, alpha: float) -> None:
    r = conditional_closed_form(epsilon, alpha)
    assert r.validity is Validity.VALID, (epsilon, alpha, r.error_bound)
    assert abs(r.value - _printed_form(epsilon, alpha)) <= r.error_bound, (epsilon, alpha)


EDGE_ANGLES = [x for a in (1e-3, 0.0202, 0.1, 0.3, 1.0, 1.5) for x in (a, math.pi - a)]


@pytest.mark.parametrize("alpha", EDGE_ANGLES)
def test_closed_form_meets_the_printed_form_below_the_cos_edge(alpha):
    # Up to 64 ulps below epsilon = cos(alpha/2) and cos(a/2), where a rim
    # radius vanishes; at the latter the terms cancel against 1 - epsilon.
    for edge in {math.cos(0.5 * alpha), math.cos(0.5 * min(alpha, math.pi - alpha))}:
        epsilon = edge
        for _ in range(65):
            _assert_within_bound(epsilon, alpha)
            epsilon = math.nextafter(epsilon, 0.0)


@pytest.mark.parametrize("alpha", EDGE_ANGLES)
def test_closed_form_meets_the_printed_form_at_the_sin_edge(alpha):
    # Within 8 ulps of epsilon = sin(a/2), where the second gate opens.
    edge = math.sin(0.5 * min(alpha, math.pi - alpha))
    epsilon = edge
    for _ in range(8):
        epsilon = math.nextafter(epsilon, 0.0)
    for _ in range(17):
        _assert_within_bound(epsilon, alpha)
        epsilon = math.nextafter(epsilon, 2.0)


def test_closed_form_meets_the_printed_form_at_random_points():
    rng = np.random.default_rng(1212)
    for _ in range(300):
        epsilon = float(10.0 ** rng.uniform(-6.0, 0.0))
        _assert_within_bound(epsilon, float(rng.uniform(0.0, math.pi)))


@pytest.mark.parametrize("epsilon", [1e-12, 1e-17, 1e-300, 5e-324])
def test_closed_form_reports_tiny_epsilon_inaccurate(epsilon):
    for alpha in (0.0, 0.4, 1.0, math.pi / 2, 2.5, math.pi):
        r = conditional_closed_form(epsilon, alpha)
        assert r.validity is Validity.INACCURATE, (epsilon, alpha)
        assert not r.error_bound <= 1e-9


def test_closed_form_domain_validation():
    with pytest.raises(ValueError):
        conditional_closed_form(0.0, 1.0)
    with pytest.raises(ValueError):
        conditional_closed_form(0.5, 3.5)


def test_continuity_in_epsilon():
    alpha = 1.0
    grid = np.linspace(0.05, 1.0, 96)  # spacing 0.01
    values = [conditional_quad(symmetric_query(e, alpha)).value for e in grid]
    jumps = np.abs(np.diff(values))
    assert jumps.max() <= 0.02


def test_sweep_table_shape_and_order():
    rows = sweep([1.0, 0.25], alpha_steps=9, mc_trials=2_000, seed=4)
    assert len(rows) == 18
    assert [r.epsilon for r in rows[:9]] == [0.25] * 9  # sorted by epsilon
    alphas = [r.alpha for r in rows[:9]]
    assert alphas == sorted(alphas) and alphas[0] == 0.0 and alphas[-1] == pytest.approx(math.pi)


def test_sweep_quantum_rows_and_monotonicity():
    rows = sweep([1.0, 0.5], alpha_steps=19, mc_trials=1_000, seed=4)
    for r in rows:
        if r.epsilon == 1.0:
            assert r.p_quad == pytest.approx(math.cos(r.alpha / 2) ** 2, abs=1e-6)
    for eps in (0.5, 1.0):
        vals = [r.p_quad for r in rows if r.epsilon == eps]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sweep_is_deterministic():
    a = sweep([0.7], alpha_steps=5, mc_trials=1_000, seed=12)
    b = sweep([0.7], alpha_steps=5, mc_trials=1_000, seed=12)
    assert a == b


def test_sweep_validates_steps():
    with pytest.raises(ValueError):
        sweep([0.5], alpha_steps=1)


def test_sweep_handles_zero_band():
    rows = sweep([0.0], alpha_steps=5, mc_trials=200, seed=1)
    for r in rows:
        assert r.p_quad == pytest.approx(1 - r.alpha / math.pi, abs=1e-7)
        assert math.isnan(r.p_closed_form) and r.validity == "domain-invalid"


def test_no_library_path_runs_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive_simpson was called")

    for module in (measures, geometry):
        monkeypatch.setattr(module, "adaptive_simpson", refuse)
    sweep([0.0, 1e-6, 0.5, 1.0], 19, mc_trials=100, seed=0)
    stats = [QuestionStats(label, 0.5, 0.15, 0.15) for label in ("w", "v", "u")]
    model = build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)], force_epsilon=SQ2)
    predict_conditionals(model)
    classify_survey(model)
    q = ConditionalQuery(
        target=EpsilonExperiment(unit_vector_at_angle(Z_AXIS, 1.0), 0.3, 0.1),
        cond=EpsilonExperiment(Z_AXIS, 0.3, -0.2),
    )
    assert 0.0 <= conditional_quad(q).value <= 1.0
