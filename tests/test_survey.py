import math
from fractions import Fraction

import pytest

from qmachine import survey
from qmachine.embedding import ModelClass
from qmachine.errors import InconsistentDataError
from qmachine.geometry import cap_area_fraction, sector_angles
from qmachine.survey import (
    QuestionStats,
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
