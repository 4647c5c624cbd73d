"""End-to-end CLI behavior through in-process main() calls."""

import json
import math
from pathlib import Path

import pytest

from rlp.cli import main

ROOT = Path(__file__).resolve().parent.parent
BOX = str(ROOT / "models" / "box_log_jump.json")
MERTON = str(ROOT / "models" / "merton_power.json")


def run(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out


def run_json(capsys, argv):
    status, out = run(capsys, argv)
    return status, json.loads(out)


def test_solve_reproduces_the_reference_box_model(capsys):
    status, report = run_json(capsys, ["solve", "--model", BOX])
    assert status == 0
    assert report["command"] == "solve"
    results = report["results"]
    assert results["y_hat"][0] == pytest.approx(2.0, abs=1e-6)
    expected = 0.12 + 0.03 * (math.log(3.0) - 2.0)
    assert results["value"] == pytest.approx(expected, abs=1e-6)
    assert results["robust_g"] == pytest.approx(expected, abs=1e-6)
    assert report["timings"]["total_s"] >= 0.0


def test_solve_csv_format(capsys):
    status, out = run(capsys, ["solve", "--model", BOX, "--format", "csv"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "quantity,value,stderr"
    names = [line.split(",")[0] for line in lines[1:]]
    assert "y_hat[0]" in names
    assert "robust_g" in names
    assert "value" in names


def test_validate_reports_the_model_shape(capsys):
    status, report = run_json(capsys, ["validate", "--model", BOX])
    assert status == 0
    results = report["results"]
    assert results["ok"] is True
    assert results["compact"] is True
    assert results["dimension"] == 1
    assert results["n_vertices"] == 8
    # the box contributes two halfspaces, the jump atom one more
    assert results["n_constraints"] == 3
    assert results["kappa"] == pytest.approx(0.12 + 0.04 + 0.03 * math.log(2.0))
    assert results["messages"] == []


def test_simulate_zero_strategy_has_no_noise(capsys):
    status, report = run_json(
        capsys, ["simulate", "--model", BOX, "--pi", "0", "--paths", "500"])
    assert status == 0
    results = report["results"]
    assert results["pi_source"] == "user"
    assert results["mc"]["mean"] == pytest.approx(0.0, abs=1e-12)
    assert results["mc"]["stderr"] <= 1e-15
    assert results["closed_form"] == 0.0
    assert results["within_3p5_sigma"] is True


def test_infinite_values_keep_the_report_valid_json(capsys):
    # a short unit position goes bankrupt at the box model's +1 jump
    status, out = run(
        capsys, ["simulate", "--model", BOX, "--pi", "-1", "--paths", "1000"])
    assert status == 0

    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")

    results = json.loads(out, parse_constant=refuse)["results"]
    assert results["closed_form"] == "-inf"
    assert results["mc"]["mean"] == "-inf"
    assert results["mc"]["stderr"] == "inf"
    assert results["mc"]["minus_inf"] is True
    assert results["within_3p5_sigma"] is True


def test_simulate_solves_when_no_strategy_is_given(capsys):
    status, report = run_json(
        capsys, ["simulate", "--model", MERTON, "--paths", "2000"])
    assert status == 0
    results = report["results"]
    assert results["pi_source"] == "solved"
    assert results["solve"]["y_hat"][0] == pytest.approx(3.0, abs=1e-6)
    assert results["within_3p5_sigma"] is True


def test_saddle_is_certified_on_the_box_model(capsys):
    status, report = run_json(capsys, ["saddle", "--model", BOX])
    assert status == 0
    results = report["results"]
    assert results["certified"] is True
    assert results["y_hat"][0] == pytest.approx(2.0, abs=1e-6)
    assert abs(results["residual_max_y"]) <= 1e-6
    assert abs(results["residual_min_theta"]) <= 1e-6
    assert len(results["theta_hat_weights"]) == 8


def test_verify_passes_on_the_merton_model(capsys):
    status, report = run_json(
        capsys, ["verify", "--model", MERTON, "--paths", "20000"])
    assert status == 0
    results = report["results"]
    assert results["passed"] is True
    assert results["saddle"]["certified"] is True
    assert results["independent_recheck"]["passed"] is True
    assert results["mc_vs_closed_form"]["passed"] is True
    assert results["martingale"]["applicable"] is True
    assert results["martingale"]["passed"] is True


def test_verify_skips_the_martingale_check_for_log_utility(capsys):
    status, report = run_json(
        capsys, ["verify", "--model", BOX, "--paths", "20000"])
    assert status == 0
    assert report["results"]["martingale"] == {"applicable": False}


def test_out_writes_the_report_to_a_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    status, stdout = run(capsys, ["solve", "--model", BOX, "--out", str(out)])
    assert status == 0
    assert stdout == ""
    assert json.loads(out.read_text())["command"] == "solve"


def test_missing_model_file_exits_1(capsys):
    status, report = run_json(capsys, ["solve", "--model", "no-such-model.json"])
    assert status == 1
    assert report["status"] == 1
    assert report["results"]["error"]["code"] == "IoError"


def test_wrong_pi_length_exits_1(capsys):
    status, report = run_json(
        capsys, ["simulate", "--model", BOX, "--pi", "0.5,0.5"])
    assert status == 1
    assert report["results"]["error"]["code"] == "ModelError"


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["solve"],
        ["frobnicate", "--model", BOX],
        ["simulate", "--model", BOX, "--seed", "-5"],
        ["simulate", "--model", BOX, "--seed", str(2 ** 64)],
        ["simulate", "--model", BOX, "--paths", "0"],
        ["simulate", "--model", BOX, "--pi", "nan"],
        ["verify", "--model", BOX, "--tol", "-1"],
        ["verify", "--model", BOX, "--tol", "inf"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "Traceback" not in captured.err, argv


def write_model(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    return str(path)


def test_non_finite_model_numbers_exit_1_without_nan(capsys, tmp_path):
    text = Path(BOX).read_text().replace('"T": 1.0', '"T": NaN')
    assert "NaN" in text
    status, out = run(capsys, ["solve", "--model", write_model(tmp_path, text)])
    assert status == 1
    assert "NaN" not in out
    report = json.loads(out)
    assert report["results"]["error"]["code"] == "SchemaError"


def test_negative_simulation_seed_exits_1(capsys, tmp_path):
    model = json.loads(Path(BOX).read_text())
    model["simulation"]["seed"] = -1
    status, report = run_json(
        capsys, ["simulate", "--model", write_model(tmp_path, json.dumps(model)), "--pi", "0"])
    assert status == 1
    assert report["results"]["error"]["code"] == "ModelError"


def test_solver_seed_has_no_effect_in_two_dimensions(capsys, tmp_path):
    model = {
        "dimension": 2,
        "utility": {"kind": "log"},
        "T": 1.0,
        "x0": 1.0,
        "Theta": {"vertices": [
            {"b": [0.06, 0.04], "c": [[0.04, 0.01], [0.01, 0.05]],
             "jumps": {"atoms": [{"rate": 0.1, "location": [-0.5, 0.2]}]}},
            {"b": [0.03, 0.05], "c": [[0.05, 0.0], [0.0, 0.04]]},
        ]},
        "C": {"box": [[-1.0, 1.0], [-1.0, 1.0]]},
    }
    path = write_model(tmp_path, json.dumps(model))
    status, default = run_json(capsys, ["solve", "--model", path])
    assert status == 0
    model["solver"] = {"seed": -3}
    path = write_model(tmp_path, json.dumps(model))
    status, seeded = run_json(capsys, ["solve", "--model", path])
    assert status == 0
    assert seeded["results"] == default["results"]
    assert seeded["results"]["diagnostics"]["method"] == "slsqp-epigraph"


def test_uncertified_saddle_exits_2(capsys, tmp_path):
    # the worst case switches vertices exactly at the optimum, so the
    # kink location limits the attainable residuals
    model = {
        "dimension": 1,
        "utility": {"kind": "log"},
        "T": 1.0,
        "x0": 1.0,
        "Theta": {"vertices": [
            {"b": [0.02], "c": [[0.001]]},
            {"b": [0.06], "c": [[0.03]]},
        ]},
        "C": {"box": [[0.0, 5.0]]},
        "solver": {"value_tol": 1e-16},
    }
    path = tmp_path / "kink.json"
    path.write_text(json.dumps(model))
    status, report = run_json(
        capsys, ["saddle", "--model", str(path), "--tol", "1e-15"])
    assert status == 2
    assert report["status"] == 2
    assert "saddle_uncertified" in report["provenance"]
    results = report["results"]
    assert results["certified"] is False
    assert "reason" in results
    # the candidate itself is still sound at practical tolerances
    y_star = 0.04 / 0.0145
    assert results["value"] == pytest.approx(
        0.02 * y_star - 0.0005 * y_star ** 2, abs=1e-8)
