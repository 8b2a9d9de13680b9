import math
from fractions import Fraction

import numpy as np
import pytest

from qmachine import survey
from qmachine.embedding import ModelClass
from qmachine.errors import InconsistentDataError
from qmachine.geometry import (
    UnitVector,
    cap_area_fraction,
    cap_intersection_fraction,
    sample_uniform_sphere_array,
    sector_angles,
)
from qmachine.machine import MC_CHUNK, EpsilonExperiment, chunk_sizes
from qmachine.measures import OutcomeSet, eig_set
from qmachine.survey import (
    FitDiagnostics,
    FittedQuestion,
    QuestionStats,
    SurveyModel,
    build_survey_model,
    classify_survey,
    fit_epsilon_model,
    predict_conditionals,
    region_census,
)

SQ2 = math.sqrt(2) / 2


def stats_for(label="q", yes=0.5, pre_yes=0.15, pre_no=0.15):
    return QuestionStats(label, yes, pre_yes, pre_no)


def flagship_model(force=None):
    stats = [stats_for(l) for l in ("w", "v", "u")]
    return build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)], force_epsilon=force)


def test_fit_symmetric_case():
    epsilon, d, diag = fit_epsilon_model(stats_for())
    assert epsilon == pytest.approx(0.70, abs=1e-12)
    assert d == 0.0
    assert diag.predicted_yes_rate == pytest.approx(0.5) and not diag.flagged


def test_fit_asymmetric_case():
    epsilon, d, diag = fit_epsilon_model(QuestionStats("q", 0.45, 0.1, 0.2))
    assert epsilon == pytest.approx(0.70, abs=1e-12)
    assert d == pytest.approx(0.1, abs=1e-12)
    assert not diag.flagged


def test_fit_no_predetermined_is_maximal_band():
    epsilon, d, _ = fit_epsilon_model(QuestionStats("q", 0.5, 0.0, 0.0))
    assert (epsilon, d) == (1.0, 0.0)


def test_fit_flags_inconsistent_yes_rate():
    _, _, diag = fit_epsilon_model(QuestionStats("q", 0.40, 0.15, 0.15))
    assert diag.flagged and diag.yes_rate_mismatch == pytest.approx(0.10, abs=1e-12)


def test_fit_rejects_overfull_fractions():
    with pytest.raises(InconsistentDataError):
        fit_epsilon_model(QuestionStats("q", 0.5, 0.7, 0.7))


def test_fit_round_trips_through_cap_fractions():
    for a, b in ((0.15, 0.15), (0.1, 0.2), (0.0, 0.4), (0.33, 0.12)):
        epsilon, d, _ = fit_epsilon_model(QuestionStats("q", 0.5, a, b))
        up, down = sector_angles(epsilon, d)
        assert cap_area_fraction(up) == pytest.approx(a, abs=1e-12)
        assert cap_area_fraction(down) == pytest.approx(b, abs=1e-12)


def test_build_model_fits_and_forces():
    model = flagship_model()
    assert model.epsilon == pytest.approx(0.70, abs=1e-12)
    forced = flagship_model(force=SQ2)
    assert forced.epsilon == SQ2
    assert [q.experiment.epsilon for q in forced.questions] == [SQ2] * 3


def test_build_model_warns_on_epsilon_mismatch():
    stats = [stats_for("a"), QuestionStats("b", 0.5, 0.25, 0.25), stats_for("c")]
    with pytest.warns(UserWarning):
        build_survey_model(stats, [0.0, 1.0, 2.0])


def test_build_model_validates_angle_count():
    with pytest.raises(ValueError):
        build_survey_model([stats_for()], [0.0, 1.0])


def test_predicted_conditionals_rows():
    rows = predict_conditionals(flagship_model(force=SQ2))
    assert len(rows) == 6
    by_pair = {(r.target, r.given): r for r in rows}
    near = by_pair[("v", "w")]
    assert near.yes_given_yes == pytest.approx(0.78, abs=0.01)
    far = by_pair[("u", "w")]
    assert far.yes_given_yes == pytest.approx(0.22, abs=0.01)
    for r in rows:
        assert r.yes_given_yes + r.no_given_yes == pytest.approx(1.0, abs=1e-7)
        assert r.yes_given_no + r.no_given_no == pytest.approx(1.0, abs=1e-7)


def test_census_flagship_has_thirteen_regions():
    census = region_census(flagship_model(force=SQ2), 200_000, seed=5)
    assert sum(census.fractions.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(census.fractions) == 13
    # No point is predetermined on all three questions at this geometry.
    assert all(key.count("none") >= 1 for key in census.fractions)


def test_census_maximal_band_has_single_region():
    stats = [QuestionStats(l, 0.5, 0.0, 0.0) for l in ("a", "b", "c")]
    model = build_survey_model(stats, [0.0, 1.0, 2.0])
    census = region_census(model, 50_000, seed=6)
    assert census.fractions == {("none", "none", "none"): 1.0}


def test_census_rotation_invariance():
    base = [math.radians(a) for a in (0, 60, 120)]
    rotated = [a + math.radians(17.0) for a in base]
    stats = [stats_for(l) for l in ("w", "v", "u")]
    c1 = region_census(build_survey_model(stats, base, force_epsilon=SQ2), 200_000, seed=7)
    c2 = region_census(build_survey_model(stats, rotated, force_epsilon=SQ2), 200_000, seed=8)
    for key in c1.fractions:
        sigma = math.hypot(c1.std_errors[key], c2.std_errors.get(key, 0.0))
        assert abs(c1.fractions[key] - c2.fractions.get(key, 0.0)) <= 4 * sigma


def test_census_needs_three_questions():
    stats = [stats_for("a"), stats_for("b")]
    model = build_survey_model(stats, [0.0, 1.0])
    with pytest.raises(ValueError):
        region_census(model, 100, seed=0)


BOUNDARY_NS = (MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 7)
STATUS_NAMES = ("none", "yes", "no")


def whole_point_census(m, trials, seed):
    """The census by whole points: per chunk, uniform (k, 3) states times
    the axes, statuses and a 27-bin count, on the census's own stream."""
    rng = np.random.default_rng(seed)
    axes = np.array([fq.experiment.axis.as_array() for fq in m.questions]).T
    high = np.array([fq.experiment.band_high for fq in m.questions])
    low = np.array([fq.experiment.band_low for fq in m.questions])
    tally = np.zeros(27, dtype=np.int64)
    for k in chunk_sizes(trials):
        dots = sample_uniform_sphere_array(rng, k) @ axes
        yes = dots >= high
        status = yes + 2 * ((dots <= low) & ~yes)
        tally += np.bincount(status @ np.array([9, 3, 1]), minlength=27)
    return {
        (STATUS_NAMES[c // 9], STATUS_NAMES[c // 3 % 3], STATUS_NAMES[c % 3]): int(tally[c])
        for c in np.flatnonzero(tally)
    }


def census_counts(census):
    return {key: round(p * census.trials) for key, p in census.fractions.items()}


def random_coplanar_model(rng, epsilon):
    """Three questions sharing epsilon, offsets d anywhere in
    [-(1 - epsilon), 1 - epsilon], axes at random angles in the plane."""
    stats = []
    for label in ("a", "b", "c"):
        d = rng.uniform(-(1.0 - epsilon), 1.0 - epsilon)
        stats.append(QuestionStats(label, 0.5 * (1.0 - d), 0.5 * (1.0 - epsilon - d), 0.5 * (1.0 - epsilon + d)))
    return build_survey_model(stats, list(rng.uniform(-math.pi, math.pi, 3)), force_epsilon=epsilon)


def test_census_equals_whole_point_census():
    # Regression oracle: the in-plane census draws the same stream as whole
    # points and must put every draw in the same region.
    rng = np.random.default_rng(2024)
    epsilons = [0.0, 1.0] + list(rng.uniform(0.0, 1.0, 18))
    models = [flagship_model(force=SQ2)] + [random_coplanar_model(rng, eps) for eps in epsilons]
    for i, m in enumerate(models):
        for n in BOUNDARY_NS:
            assert census_counts(region_census(m, n, i)) == whole_point_census(m, n, i), (i, n)


def test_census_pair_overlaps_match_cap_intersections():
    # Independent oracle: the share of respondents predetermined yes on two
    # questions is the uniform measure of the two yes-caps' overlap.
    n = 1_000_000
    rng = np.random.default_rng(77)
    models = [flagship_model(force=SQ2), random_coplanar_model(rng, 0.3), random_coplanar_model(rng, 0.05)]
    for seed, m in enumerate(models):
        census = region_census(m, n, seed)
        caps = [eig_set(fq.experiment, OutcomeSet.O1) for fq in m.questions]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            share = sum(p for key, p in census.fractions.items() if key[i] == key[j] == "yes")
            expected = cap_intersection_fraction(caps[i], caps[j])
            se = math.sqrt(expected * (1.0 - expected) / n)
            assert abs(share - expected) <= 5 * se + 1e-12, (seed, i, j, share, expected)


def test_census_rejects_axes_off_the_plane():
    model = flagship_model(force=SQ2)
    tilted = UnitVector.normalized(0.6, 0.1, math.sqrt(1.0 - 0.37))
    fq = model.questions[1]
    off_plane = FittedQuestion(fq.label, EpsilonExperiment(tilted, SQ2, 0.0), fq.angle, FitDiagnostics(0.5, 0.0, False))
    bad = SurveyModel(model.epsilon, (model.questions[0], off_plane, model.questions[2]))
    with pytest.raises(ValueError, match="plane"):
        region_census(bad, 1_000, seed=0)


def test_classify_flagship_is_neither():
    outcome = classify_survey(flagship_model(force=SQ2))
    assert outcome.model_class is ModelClass.NEITHER
    assert not outcome.kolmogorov.feasible
    assert not outcome.hilbert.feasible
    assert float(outcome.gamma2) == pytest.approx(0.78, abs=0.01)
    cert = outcome.kolmogorov.certificate
    assert float(cert.lower) == pytest.approx(0.28, abs=0.01)
    assert float(cert.upper) == pytest.approx(0.11, abs=0.01)


def test_classify_runs_each_check_once(monkeypatch):
    calls = []
    for name in ("check_kolmogorov", "check_hilbert2d"):
        check = getattr(survey, name)
        monkeypatch.setattr(survey, name, lambda arg, check=check, name=name: calls.append(name) or check(arg))
    classify_survey(flagship_model(force=SQ2))
    assert sorted(calls) == ["check_hilbert2d", "check_kolmogorov"]


def test_classify_all_predetermined_narrow_angles_is_kolmogorovian():
    stats = [QuestionStats(l, 0.5, 0.5, 0.5) for l in ("w", "v", "u")]
    model = build_survey_model(stats, [math.radians(a) for a in (0, 30, 60)])
    outcome = classify_survey(model)
    assert outcome.model_class is ModelClass.KOLMOGOROVIAN
    assert outcome.kolmogorov.feasible and not outcome.hilbert.feasible
    # Exact classical conditionals are recovered by the rational snap.
    assert [c.p for c in outcome.triad.conditionals] == [Fraction(5, 6), Fraction(2, 3), Fraction(1, 6)]
    # A second, irregular triple: still classical, still Kolmogorovian.
    model = build_survey_model(stats, [math.radians(a) for a in (0, 20, 45)])
    outcome = classify_survey(model)
    assert outcome.model_class is ModelClass.KOLMOGOROVIAN
    assert [c.p for c in outcome.triad.conditionals] == [Fraction(8, 9), Fraction(3, 4), Fraction(5, 36)]


def test_classify_all_predetermined_wide_angles_is_both():
    # At 0/60/120 the classical triad also fits the symmetric 2-D family
    # (gamma^2 = 2/3 <= 3/4), so the combined verdict is "both".
    stats = [QuestionStats(l, 0.5, 0.5, 0.5) for l in ("w", "v", "u")]
    model = build_survey_model(stats, [math.radians(a) for a in (0, 60, 120)])
    outcome = classify_survey(model)
    assert outcome.model_class is ModelClass.BOTH
    assert outcome.gamma2 == Fraction(2, 3)


def test_classify_maximal_band_mutual_120_is_hilbertian():
    stats = [QuestionStats(l, 0.5, 0.0, 0.0) for l in ("w", "v", "u")]
    model = build_survey_model(stats, [math.radians(a) for a in (0, 120, 240)])
    outcome = classify_survey(model)
    assert outcome.model_class is ModelClass.HILBERTIAN_2D
    assert outcome.gamma2 == Fraction(1, 4)


def pool_like_model(epsilon, ds, degrees):
    """A survey whose fit gives back `epsilon` and the offsets `ds`."""
    stats = [
        QuestionStats(label, 0.5 * (1 - d), 0.5 * (1 - epsilon - d), 0.5 * (1 - epsilon + d))
        for label, d in zip(("w", "v", "u"), ds)
    ]
    return build_survey_model(stats, [math.radians(a) for a in degrees])


def test_classify_gamma2_snapped_to_one():
    # V's certainty cap holds W's: P(V yes | W yes) is 1 to within the snap.
    outcome = classify_survey(pool_like_model(0.59, (0.0, -0.3, -0.14), (151, 161, 110)))
    assert outcome.gamma2 == 1
    assert not outcome.hilbert.feasible and outcome.hilbert.required_cosine is None
    assert outcome.model_class is ModelClass.KOLMOGOROVIAN


def test_classify_gamma2_snapped_to_zero():
    outcome = classify_survey(pool_like_model(0.3, (0.63, 0.4, 0.65), (6.5, 138.4, 127.3)))
    assert outcome.gamma2 == 0
    assert outcome.hilbert.feasible and outcome.hilbert.required_cosine == Fraction(1, 2)
    assert outcome.model_class is ModelClass.HILBERTIAN_2D


def test_classify_triad_is_the_snapped_predicted_conditionals():
    # The flagship and two surveys with d != 0: the triad's P(V yes | W yes),
    # P(U yes | W yes) and P(U no | V yes) are the snapped table entries.
    models = (
        flagship_model(force=SQ2),
        pool_like_model(0.59, (0.0, -0.3, -0.14), (151, 161, 110)),
        pool_like_model(0.3, (0.63, 0.4, 0.65), (6.5, 138.4, 127.3)),
    )
    for model in models:
        rows = {(r.target, r.given): r for r in predict_conditionals(model)}
        expected = (rows["v", "w"].yes_given_yes, rows["u", "w"].yes_given_yes, rows["u", "v"].no_given_yes)
        triad = classify_survey(model).triad.conditionals
        assert [c.p for c in triad] == [survey._snap(p) for p in expected]


def test_forced_epsilon_beyond_a_question_offset_names_it():
    stats = [stats_for(l, yes=0.525, pre_yes=0.15, pre_no=0.1) for l in ("w", "v", "u")]
    with pytest.raises(InconsistentDataError, match="question 'w'"):
        build_survey_model(stats, [0.0, 1.0, 2.0], force_epsilon=1.0)
    with pytest.raises(ValueError, match="epsilon 1.5"):
        build_survey_model(stats, [0.0, 1.0, 2.0], force_epsilon=1.5)
