import json
import math
import re
from pathlib import Path

import pytest

import qmachine
from qmachine.cli import main
from qmachine.conditional import conditional_quad, symmetric_query

SQ2 = "0.7071067811865476"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_prob_quantum_law(capsys):
    code, out, _ = run_cli(capsys, "prob", "--epsilon", "1", "--d", "0", "--theta", "1.5707963267948966")
    assert code == 0
    payload = json.loads(out)
    assert payload["p1"] == pytest.approx(0.5, abs=1e-9)
    assert payload["p2"] == pytest.approx(0.5, abs=1e-9)


def test_prob_band_value(capsys):
    code, out, _ = run_cli(capsys, "prob", "--epsilon", "0.5", "--d", "0.2", "--x", "0.4")
    assert code == 0
    assert json.loads(out)["p1"] == pytest.approx(0.7, abs=1e-12)


def test_prob_degrees_flag(capsys):
    code, out, _ = run_cli(capsys, "prob", "--epsilon", "1", "--theta", "90", "--degrees")
    assert code == 0
    assert json.loads(out)["p1"] == pytest.approx(0.5, abs=1e-9)


def test_prob_range_validation_exits_2(capsys):
    code, _, err = run_cli(capsys, "prob", "--epsilon", "2", "--theta", "1")
    assert code == 2 and "epsilon" in err


def test_prob_requires_some_state(capsys):
    code, _, _ = run_cli(capsys, "prob", "--epsilon", "0.5")
    assert code == 2


def test_simulate_reruns_are_byte_identical(capsys):
    args = ("simulate", "--epsilon", "1", "--theta", "1.0471975511965976", "--trials", "100000", "--seed", "9")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 9 and payload["trials"] == 100000 and "version" in payload
    assert payload["estimate"] == pytest.approx(0.75, abs=4 * payload["std_error"])


# x = d at epsilon = 0 is the tie the model splits evenly; it survives only
# if the state projects on the axis at exactly x (cos(acos(x)) != x here).
TIES = [("0", "0"), ("0.3", "0.3"), ("-0.5", "-0.5")]


@pytest.mark.parametrize("d, x", TIES)
def test_prob_tie_at_epsilon_zero_is_half(capsys, d, x):
    code, out, _ = run_cli(capsys, "prob", "--epsilon", "0", "--d", d, "--x", x)
    assert code == 0
    payload = json.loads(out)
    assert payload["x"] == float(x)
    assert payload["p1"] == payload["p2"] == 0.5


@pytest.mark.parametrize("d, x", TIES)
def test_simulate_tie_at_epsilon_zero_is_half(capsys, d, x):
    trials = 100_000
    code, out, _ = run_cli(capsys, "simulate", "--epsilon", "0", "--d", d, "--x", x, "--trials", str(trials), "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["estimate"] - 0.5) <= 5 * math.sqrt(0.25 / trials)
    assert payload["std_error"] > 0


def test_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1) == qmachine.__version__


def test_conditional_mc_reruns_are_byte_identical(capsys):
    args = ("conditional", "--epsilon", SQ2, "--alpha", "60", "--degrees", "--method", "mc", "--trials", "100000", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["seed"] == 5 and payload["trials"] == 100000
    assert payload["value"] == pytest.approx(0.78, abs=0.01)


def test_simulate_zero_trials_exits_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--epsilon", "1", "--theta", "1", "--trials", "0")
    assert code == 2 and out == ""
    assert err == "error: trial count must be at least 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("prob", "--epsilon", "0.5", "--theta", "1", "--x", "0.5"), "give either --theta or --x, not both"),
        (("prob", "--epsilon", "0.5", "--x", "1.5"), "--x must lie in [-1, 1]"),
        (("conditional", "--epsilon", "0.5", "--alpha", "200", "--degrees"), "alpha must lie in [0, pi]"),
        (("sweep", "--epsilons", ",", "--alpha-steps", "3", "--out", "-"), "--epsilons needs at least one value"),
    ],
)
def test_usage_errors_exit_2_with_their_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("theta", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("command", [("prob",), ("simulate", "--trials", "10")], ids=["prob", "simulate"])
def test_non_finite_theta_names_the_flag(capsys, command, theta):
    code, out, err = run_cli(capsys, *command, "--epsilon", "0.5", f"--theta={theta}")
    assert code == 2 and out == ""
    assert err == f"error: --theta must be finite, got {theta}\n"


def test_non_finite_values_print_as_null_and_signed_strings(capsys, monkeypatch):
    monkeypatch.setattr(qmachine.cli, "_cmd_prob", lambda args: {"a": math.nan, "b": [math.inf, -math.inf]})
    code, out, _ = run_cli(capsys, "prob", "--epsilon", "0.5", "--x", "0")
    assert code == 0
    assert out == '{"a": null, "b": ["Infinity", "-Infinity"]}\n'


def test_closed_form_overflow_at_subnormal_epsilon_prints_strict_json(capsys):
    code, out, _ = run_cli(capsys, "conditional", "--method", "formula", "--epsilon", "1e-320", "--alpha", "1")
    assert code == 0
    payload = json.loads(out, parse_constant=pytest.fail)
    assert payload["value"] is None and payload["error_bound"] == "Infinity"


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QMACHINE_SEED", "31337")
    code, out, _ = run_cli(capsys, "simulate", "--epsilon", "0.5", "--x", "0.1", "--trials", "10")
    assert code == 0 and json.loads(out)["seed"] == 31337


def test_seed_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("QMACHINE_SEED", "abc")
    code, out, err = run_cli(capsys, "prob", "--epsilon", "0.5", "--x", "0.1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: QMACHINE_SEED must be an integer, got 'abc'"]


def test_conditional_quad_flagship(capsys):
    code, out, _ = run_cli(capsys, "conditional", "--epsilon", SQ2, "--alpha", "2.0943951023931953", "--method", "quad")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(0.22, abs=0.01)
    assert payload["validity"] == "valid"


def test_conditional_formula_mirrors_the_flagship(capsys):
    code, out, _ = run_cli(capsys, "conditional", "--epsilon", SQ2, "--alpha", "120", "--degrees", "--method", "formula")
    assert code == 0
    payload = json.loads(out)
    assert payload["validity"] == "valid"
    assert payload["diagnostics"] == {"mirrored": True}
    ref = conditional_quad(symmetric_query(float(SQ2), math.radians(120))).value
    assert abs(payload["value"] - ref) <= 1e-12


def test_conditional_alpha_zero_is_certain(capsys):
    code, out, _ = run_cli(capsys, "conditional", "--epsilon", "0.5", "--alpha", "0", "--method", "quad")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


def test_conditional_formula_rejects_offsets(capsys):
    code, _, _ = run_cli(capsys, "conditional", "--epsilon", "0.5", "--alpha", "1", "--d", "0.1", "--method", "formula")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("conditional", "--epsilon", "0.5", "--alpha", "1", "--tol", "1e-8"),
        ("sweep", "--epsilons", "0.5", "--alpha-steps", "3", "--tol", "1e-8", "--out", "-"),
    ],
)
def test_tol_is_not_an_option(argv):
    # The conditional is computed in closed form, so there is no tolerance to set.
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2


def test_sweep_csv_contract(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = (
        "sweep", "--epsilons", "1,0.5", "--alpha-steps", "5",
        "--mc-trials", "500", "--seed", "3", "--out", str(out_path),
    )
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 10 and summary["seed"] == 3
    lines = out_path.read_text().splitlines()
    assert lines[0] == "epsilon,alpha,p_quad,p_closed_form,validity,p_mc,mc_stderr"
    assert len(lines) == 11
    rows = [line.split(",") for line in lines[1:]]
    keys = [(float(r[0]), float(r[1])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        if float(r[0]) == 1.0:
            assert float(r[2]) == pytest.approx(math.cos(float(r[1]) / 2) ** 2, abs=1e-6)
    first = out_path.read_bytes()
    run_cli(capsys, *args)
    assert out_path.read_bytes() == first  # reruns are byte-identical


def test_sweep_to_stdout(capsys):
    code, out, err = run_cli(capsys, "sweep", "--epsilons", "0.5", "--alpha-steps", "3", "--mc-trials", "100", "--out", "-")
    assert code == 0
    assert out.splitlines()[0].startswith("epsilon,alpha")
    assert json.loads(err)["rows"] == 3


def triad_file(tmp_path):
    path = tmp_path / "triad.json"
    path.write_text(
        json.dumps(
            {
                "marg": {"U": 0.5, "V": 0.5, "W": 0.5},
                "cond": [
                    {"event": "V", "given": "W", "p": 0.78},
                    {"event": "U", "given": "W", "p": 0.22},
                    {"event": "not U", "given": "V", "p": 0.22},
                ],
            }
        )
    )
    return str(path)


def test_check_kolmogorov_flagship(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", "kolmogorov", "--triad", triad_file(tmp_path))
    assert code == 0  # infeasible is still a successful computation
    payload = json.loads(out)
    assert payload["kolmogorov"] == "infeasible"
    cert = payload["certificate"]
    assert cert["lower"] == "7/25" and cert["upper"] == "11/100"
    assert cert["expression"] == "not U & V & W"


def test_check_kolmogorov_feasible_witness(tmp_path, capsys):
    path = tmp_path / "ind.json"
    path.write_text(
        json.dumps(
            {
                "marg": {"U": 0.5, "V": 0.5, "W": 0.5},
                "cond": [
                    {"event": "V", "given": "W", "p": 0.5},
                    {"event": "U", "given": "W", "p": 0.5},
                    {"event": "not U", "given": "V", "p": 0.5},
                ],
            }
        )
    )
    code, out, _ = run_cli(capsys, "check", "kolmogorov", "--triad", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["kolmogorov"] == "feasible"
    assert payload["witness"]["U & V & W"] == "1/8"


def test_check_hilbert(capsys):
    code, out, _ = run_cli(capsys, "check", "hilbert", "--gamma2", "0.78")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert2d"] == "infeasible"
    assert payload["required_cosine"] == "-14/11"
    assert payload["required_cosine_decimal"] == pytest.approx(-1.2727, abs=1e-3)
    code, out, _ = run_cli(capsys, "check", "hilbert", "--gamma2", "0.5")
    assert json.loads(out)["hilbert2d"] == "feasible"
    assert json.loads(out)["required_cosine"] == "0"
    code, out, _ = run_cli(capsys, "check", "hilbert", "--gamma2", "0")
    assert code == 0 and json.loads(out)["hilbert2d"] == "feasible"
    assert json.loads(out)["required_cosine"] == "1/2"
    code, out, _ = run_cli(capsys, "check", "hilbert", "--gamma2", "1")
    payload = json.loads(out)
    assert code == 0 and payload["hilbert2d"] == "infeasible"
    assert payload["required_cosine"] is None and payload["required_cosine_decimal"] is None


def test_check_classify(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "check", "classify", "--triad", triad_file(tmp_path), "--gamma2", "0.78")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "neither"


def test_check_classify_runs_each_check_once(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("check_kolmogorov", "check_hilbert2d"):
        check = getattr(qmachine.cli, name)
        monkeypatch.setattr(qmachine.cli, name, lambda arg, check=check, name=name: calls.append(name) or check(arg))
    code, out, _ = run_cli(capsys, "check", "classify", "--triad", triad_file(tmp_path), "--gamma2", "0.78")
    assert code == 0
    assert sorted(calls) == ["check_hilbert2d", "check_kolmogorov"]
    assert json.loads(out)["kolmogorov"]["certificate"]["lower"] == "7/25"


@pytest.mark.parametrize(
    "argv, missing",
    [
        (("check",), "kind"),
        (("check", "kolmogorov"), "--triad"),
        (("check", "hilbert"), "--gamma2"),
        (("check", "classify", "--gamma2", "0.78"), "--triad"),
        (("check", "classify", "--triad", "t.json"), "--gamma2"),
        (("check", "classify"), "--triad, --gamma2"),
    ],
    ids=["no-kind", "kolmogorov", "hilbert", "classify-triad", "classify-gamma2", "classify-both"],
)
def test_check_missing_flags(capsys, argv, missing):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "kolmogorov", "--triad", "t.json", "--gamma2", "0.5"),
        ("check", "hilbert", "--gamma2", "0.5", "--triad", "t.json"),
    ],
)
def test_check_rejects_a_flag_its_kind_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["hilbert", "classify"])
@pytest.mark.parametrize("gamma2", ["1/0", "abc"])
def test_check_gamma2_that_is_no_rational_exits_2(tmp_path, capsys, kind, gamma2):
    triad = ("--triad", triad_file(tmp_path)) if kind == "classify" else ()
    code, out, err = run_cli(capsys, "check", kind, *triad, "--gamma2", gamma2)
    assert code == 2 and out == ""
    assert err == f"error: --gamma2 must be an exact rational, got '{gamma2}'\n"


@pytest.mark.parametrize(
    "marg, cond, message",
    [
        ({"U": "1/0"}, None, "marginal U must be an exact rational, got '1/0'"),
        ({"W": "Infinity"}, None, "marginal W must be an exact rational, got inf"),
        ({}, "1/0", "p of conditional 2 must be an exact rational, got '1/0'"),
        ({}, [0.5], "p of conditional 2 must be an exact rational, got [Fraction(1, 2)]"),
        ({"V": True}, None, "marginal V must be an exact rational, got True"),
        ({"X": "1/3"}, None, "marginal for unknown variable 'X'"),
    ],
    ids=["zero-denominator-marginal", "infinite-marginal", "zero-denominator-p", "list-p", "boolean-marginal", "unknown-marginal"],
)
def test_check_triad_that_is_no_rational_triad_exits_2(tmp_path, capsys, marg, cond, message):
    conds = [{"event": "V", "given": "W", "p": 0.5}, {"event": "U", "given": "W", "p": 0.5 if cond is None else cond}]
    text = json.dumps({"marg": {"U": 0.5, "V": 0.5, "W": 0.5, **marg}, "cond": conds})
    path = tmp_path / "triad.json"
    path.write_text(text.replace('"Infinity"', "Infinity"))  # the JSON constant, which parses to a float
    for kind, gamma2 in (("kolmogorov", ()), ("classify", ("--gamma2", "0.5"))):
        code, out, err = run_cli(capsys, "check", kind, "--triad", str(path), *gamma2)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")


def survey_file(tmp_path, pre=0.15, angles=(0, 60, 120)):
    path = tmp_path / "survey.json"
    path.write_text(
        json.dumps(
            {
                "questions": [
                    {"label": l, "yes": 0.5, "pre_yes": pre, "pre_no": pre} for l in ("w", "v", "u")
                ],
                "angles_deg": list(angles),
            }
        )
    )
    return str(path)


def test_survey_pipeline(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--input", survey_file(tmp_path),
        "--force-epsilon", SQ2, "--census-trials", "50000", "--seed", "11",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["epsilon"] == pytest.approx(float(SQ2))
    assert payload["classification"] == "neither"
    assert payload["census"]["trials"] == 50000 and payload["census"]["seed"] == 11
    assert len(payload["census"]["fractions"]) == 13
    assert payload["questions"][0]["epsilon"] == pytest.approx(float(SQ2))


def test_survey_reruns_are_byte_identical(tmp_path, capsys):
    args = ("survey", "--input", survey_file(tmp_path), "--census-trials", "100000", "--seed", "12")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["census"]["seed"] == 12


def test_survey_fitted_epsilon_without_forcing(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "survey", "--input", survey_file(tmp_path), "--census-trials", "1000")
    assert code == 0
    assert json.loads(out)["epsilon"] == pytest.approx(0.70, abs=1e-12)


def test_survey_all_predetermined_is_kolmogorovian(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "survey", "--input", survey_file(tmp_path, pre=0.5, angles=(0, 30, 60)),
        "--census-trials", "1000",
    )
    assert code == 0
    assert json.loads(out)["classification"] == "kolmogorovian"


def test_survey_forced_epsilon_beyond_an_offset_exits_3(tmp_path, capsys):
    path = tmp_path / "offset.json"
    questions = [{"label": l, "yes": 0.525, "pre_yes": 0.15, "pre_no": 0.1} for l in ("w", "v", "u")]
    path.write_text(json.dumps({"questions": questions, "angles_deg": [0, 60, 120]}))
    code, out, err = run_cli(capsys, "survey", "--input", str(path), "--force-epsilon", "1", "--census-trials", "10")
    assert code == 3 and not out
    assert "question 'w'" in err


def test_survey_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "survey", "--input", str(path), "--census-trials", "10")
    assert code == 2 and err


def test_survey_nan_angle_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "survey", "--input", survey_file(tmp_path, angles=(0, math.nan, 120)), "--census-trials", "10")
    assert code == 2 and out == ""
    assert err == "error: angle 2 must be a finite number, got nan\n"


def test_survey_missing_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"questions": [{"label": "a"}], "angles_deg": [0]}))
    code, out, err = run_cli(capsys, "survey", "--input", str(path), "--census-trials", "10")
    assert code == 2 and out == ""
    assert err == "error: missing key 'yes'\n"


@pytest.mark.parametrize(
    "field, value, name",
    [
        ("yes", True, "yes of question 'v'"),
        ("pre_yes", False, "pre_yes of question 'v'"),
        ("pre_no", True, "pre_no of question 'v'"),
        ("angles_deg", True, "angle 2"),
        ("angles_deg", math.inf, "angle 2"),
        ("angles_deg", None, "angle 2"),
        ("angles_deg", "60", "angle 2"),
        pytest.param("angles_deg", 10**400, "angle 2", id="angles_deg-10**400-angle 2"),
    ],
)
def test_survey_boolean_exits_2(tmp_path, capsys, field, value, name):
    # A JSON boolean would otherwise read as the number 1 or 0.  An infinite
    # angle (also 1e400) failed as a math domain error, and null or a string
    # as float()'s conversion error, neither of which named the angle.
    raw = json.loads(Path(survey_file(tmp_path)).read_text())
    target, key = (raw["angles_deg"], 1) if field == "angles_deg" else (raw["questions"][1], field)
    target[key] = value
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "survey", "--input", str(path), "--census-trials", "10")
    assert code == 2 and out == ""
    assert err == f"error: {name} must be a finite number, got {value!r}\n"


def test_survey_angles_not_a_list_exits_2(tmp_path, capsys):
    # A string was read angle by angle: "could not convert string to float: 'a'".
    path = Path(survey_file(tmp_path))
    path.write_text(path.read_text().replace("[0, 60, 120]", '"abc"'))
    code, out, err = run_cli(capsys, "survey", "--input", str(path), "--census-trials", "10")
    assert code == 2 and out == ""
    assert err == "error: angles_deg must be a list, got 'abc'\n"


@pytest.mark.parametrize(
    "command, raw, message",
    [
        ("check", {"marg": "abc", "cond": []}, "marg must be an object, got 'abc'"),
        ("check", {"marg": {"U": 0.5}, "cond": [5]}, "cond[0] must be an object, got Fraction(5, 1)"),
        ("survey", [1, 2], "the survey file must be an object, got [1, 2]"),
        ("survey", {"questions": "abc", "angles_deg": []}, "questions must be a list, got 'abc'"),
        ("survey", {"questions": [{"label": "w", "yes": 0.5, "pre_yes": 0.1, "pre_no": 0.1}, 5], "angles_deg": [0, 60]},
         "questions[1] must be an object, got 5"),
    ],
    ids=["marg-string", "cond-number", "survey-list", "questions-string", "question-number"],
)
def test_input_file_of_the_wrong_shape_exits_2_naming_the_path(tmp_path, capsys, command, raw, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(raw))
    argv = ("check", "kolmogorov", "--triad", str(path)) if command == "check" else ("survey", "--input", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_check_triad_missing_key_exits_2(tmp_path, capsys):
    path = tmp_path / "triad.json"
    path.write_text(json.dumps({"marg": {"U": 0.5, "V": 0.5, "W": 0.5}}))
    code, out, err = run_cli(capsys, "check", "kolmogorov", "--triad", str(path))
    assert code == 2 and out == ""
    assert err == "error: missing key 'cond'\n"
