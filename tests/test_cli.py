"""End-to-end CLI behavior through in-process main() calls."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import rlp.simulator
from rlp import load_model, maximize_robust
from rlp.cli import main

from helpers_oracle import martingale_check

ROOT = Path(__file__).resolve().parent.parent
BOX = str(ROOT / "models" / "box_log_jump.json")
MERTON = str(ROOT / "models" / "merton_power.json")
TWO_ASSET = str(ROOT / "models" / "two_asset_log.json")
LONG_ONLY = str(ROOT / "models" / "long_only_log.json")
MARKET_NEUTRAL = str(ROOT / "models" / "market_neutral_log.json")
NEGATIVE_POWER = str(ROOT / "models" / "negative_power_jump.json")


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
    assert results["compact"] is True
    assert results["dimension"] == 1
    assert results["n_vertices"] == 8
    # the box contributes two halfspaces, the jump atom one more
    assert results["n_constraints"] == 3
    assert results["kappa"] == pytest.approx(0.12 + 0.04 + 0.03 * math.log(2.0))


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


def long_horizon(tmp_path, path, horizon, drop_jumps=False):
    model = json.loads(Path(path).read_text())
    model["T"] = horizon
    if drop_jumps:
        for vertex in model["Theta"]["vertices"]:
            vertex.pop("jumps", None)
    return write_model(tmp_path, json.dumps(model))


def test_an_overflowing_mean_is_not_agreement(capsys, tmp_path):
    # over so long a horizon both the Monte Carlo mean and the closed form
    # overflow to +inf: nothing is compared, so nothing agrees
    status, out = run(capsys, ["simulate", "--model", long_horizon(tmp_path, MERTON, 1e6),
                               "--paths", "20000"])
    assert status == 0
    assert "NaN" not in out
    results = json.loads(out)["results"]
    assert results["mc"]["mean"] == results["closed_form"] == "inf"
    assert results["abs_error"] == "inf"
    assert results["within_3p5_sigma"] is False


@pytest.mark.parametrize("path, horizon, drop_jumps", [
    (MERTON, 1e6, False),        # Monte Carlo mean and closed form both +inf
    (NEGATIVE_POWER, 1e5, True),  # closed form underflows to -0.0
], ids=["overflow", "underflow"])
def test_an_undefined_martingale_quotient_fails_without_nan(capsys, tmp_path, path,
                                                            horizon, drop_jumps):
    model = long_horizon(tmp_path, path, horizon, drop_jumps)
    status, out = run(capsys, ["verify", "--model", model, "--paths", "20000"])
    assert status == 2
    assert "NaN" not in out
    results = json.loads(out)["results"]
    assert results["martingale"]["mean"] == results["martingale"]["stderr"] == "inf"
    assert results["martingale"]["passed"] is False
    assert results["passed"] is False


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_an_underflowed_closed_form_is_not_agreement(capsys, tmp_path, command):
    # without jumps and over T = 1e5 every path's utility and the closed form
    # x0^p e^{pTg}/p underflow to zero, which that formula never is: nothing
    # is compared, so nothing agrees
    model = long_horizon(tmp_path, NEGATIVE_POWER, 1e5, drop_jumps=True)
    status, report = run_json(capsys, [command, "--model", model, "--paths", "20000"])
    results = report["results"]
    check = results if command == "simulate" else results["mc_vs_closed_form"]
    assert check["mc"]["mean"] == check["closed_form"] == 0.0
    assert check["abs_error"] == "inf"
    assert check["within_3p5_sigma" if command == "simulate" else "passed"] is False


def test_an_expected_jump_total_over_the_cap_exits_1(capsys, tmp_path):
    # over T = 1e6, 20 000 paths expect billions of jumps: refused with a
    # report before any is drawn
    model = long_horizon(tmp_path, NEGATIVE_POWER, 1e6)
    status = main(["verify", "--model", model, "--paths", "20000"])
    captured = capsys.readouterr()
    assert status == 1 and captured.err == ""
    error = json.loads(captured.out)["results"]["error"]
    assert error["code"] == "ModelError"
    assert error["message"].startswith("20000 paths expect ")
    assert "jumps in all, above the cap of 1e+08" in error["message"]


def test_a_path_count_too_large_to_allocate_exits_1(capsys):
    # 10**15 paths need 8e15 bytes: the allocation fails at once, touching
    # no memory
    n_paths = 10 ** 15
    status = main(["simulate", "--model", MERTON, "--pi", "0.5", "--paths", str(n_paths)])
    captured = capsys.readouterr()
    assert status == 1 and captured.err == ""
    error = json.loads(captured.out)["results"]["error"]
    assert error["code"] == "ModelError"
    assert f"{n_paths} paths" in error["message"]
    assert f"{8 * n_paths}-byte" in error["message"]


def test_simulate_solves_when_no_strategy_is_given(capsys):
    status, report = run_json(
        capsys, ["simulate", "--model", MERTON, "--paths", "2000"])
    assert status == 0
    results = report["results"]
    assert results["pi_source"] == "solved"
    assert results["solve"]["y_hat"][0] == pytest.approx(3.0, abs=1e-6)
    assert results["solve"]["certified"] is True
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


@pytest.mark.parametrize("model", [MERTON, NEGATIVE_POWER], ids=["merton", "negative_power"])
@pytest.mark.parametrize("seed", ["3", "11"])
def test_power_verify_draws_one_sample_and_matches_the_martingale_oracle(
        capsys, monkeypatch, model, seed):
    draws = []
    log_wealth = rlp.simulator._log_wealth

    def counted(*args):
        draws.append(args)
        return log_wealth(*args)

    monkeypatch.setattr(rlp.simulator, "_log_wealth", counted)
    status, report = run_json(
        capsys, ["verify", "--model", model, "--paths", "20000", "--seed", seed])
    assert status == 0
    assert len(draws) == 1
    monkeypatch.undo()
    results = report["results"]
    spec = load_model(model)
    theta_hat = spec.theta.mix(np.array(results["saddle"]["theta_hat_weights"]))
    oracle, passed = martingale_check(theta_hat, np.array(results["saddle"]["y_hat"]),
                                      spec.utility, spec.horizon, 20000, int(seed))
    martingale = results["martingale"]
    assert martingale["mean"] == pytest.approx(oracle.mean, rel=1e-12, abs=0.0)
    assert martingale["stderr"] == pytest.approx(oracle.stderr, rel=1e-12, abs=0.0)
    assert martingale["passed"] is passed
    assert martingale["passed"] is results["mc_vs_closed_form"]["passed"]
    assert (martingale["n_paths"], martingale["seed"]) == (20000, int(seed))
    assert martingale["minus_inf"] is False


def test_out_writes_the_report_to_a_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    status, stdout = run(capsys, ["solve", "--model", BOX, "--out", str(out)])
    assert status == 0
    assert stdout == ""
    assert json.loads(out.read_text())["command"] == "solve"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_nan_result_ends_in_an_error_report(capsys, tmp_path, fmt):
    # at so large a position every Monte Carlo log-wealth is -inf + inf * g;
    # the overflow ends in the report, not in numpy warnings on stderr
    out = tmp_path / f"report.{fmt}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["simulate", "--model", MERTON, "--pi", "1e200",
                       "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == "" and captured.err == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    text = out.read_text()
    if fmt == "json":
        report = json.loads(text)
        assert report["status"] == 1
        assert report["results"]["error"]["code"] == "NanResult"
    else:
        assert "error.code,NanResult," in text.splitlines()


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


def test_negative_box_rate_exits_1(capsys, tmp_path):
    model = json.loads(Path(BOX).read_text())
    atom = model["Theta"]["box"]["atoms"][0]
    atom["rate"] = [-1.0, 1.0]
    status, report = run_json(
        capsys, ["validate", "--model", write_model(tmp_path, json.dumps(model))])
    assert status == 1
    error = report["results"]["error"]
    assert error["code"] == "ModelError"
    assert "Theta.box.atoms[0].rate" in error["message"]
    # a zero lower endpoint stays legal: those corners drop the atom
    atom["rate"] = [0.0, 1.0]
    status, report = run_json(
        capsys, ["validate", "--model", write_model(tmp_path, json.dumps(model))])
    assert status == 0
    assert report["results"]["n_vertices"] == 8


def overflowing_box_model() -> dict:
    model = json.loads(Path(BOX).read_text())
    model["Theta"]["box"]["c_base"] = [[1e308]]
    model["Theta"]["box"]["c_scale"] = [10.0, 20.0]
    return model


def overflowing_vertex_model() -> dict:
    # finite but too large to add to itself; the C box lets the load reach kappa
    return {"dimension": 1, "utility": {"kind": "log"}, "T": 1, "x0": 1,
            "C": {"box": [[-1.0, 1.0]]},
            "Theta": {"vertices": [{"b": [0.1], "c": [[1e308]]}]}}


@pytest.mark.parametrize("model, message", [
    (overflowing_box_model(), "diffusion matrix has non-finite entries"),
    (overflowing_vertex_model(), "the characteristics bound kappa is not finite"),
], ids=["box", "vertex-list"])
def test_overflowing_box_diffusion_exits_1_without_a_warning(capsys, tmp_path, model, message):
    path = write_model(tmp_path, json.dumps(model))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = main(["validate", "--model", path])
    captured = capsys.readouterr()
    assert status == 1
    error = json.loads(captured.out)["results"]["error"]
    assert error["code"] == "ModelError"
    assert message in error["message"]
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in captured.err


def two_asset_model() -> dict:
    return json.loads(Path(TWO_ASSET).read_text())


def test_the_bundled_two_asset_model_solves_and_verifies(capsys):
    status, report = run_json(capsys, ["solve", "--model", TWO_ASSET])
    assert status == 0
    results = report["results"]
    assert results["diagnostics"]["method"] == "slsqp-epigraph"
    assert results["certified"] is True
    assert 0.0 <= results["gap"] <= 1e-8
    status, report = run_json(capsys, ["saddle", "--model", TWO_ASSET])
    assert status == 0
    results = report["results"]
    assert results["certified"] is True
    # both vertices bind: the worst case is an interior mixture
    assert results["theta_hat_weights"] == pytest.approx([0.2418, 0.7582], abs=1e-3)
    status, report = run_json(capsys, ["verify", "--model", TWO_ASSET])
    assert status == 0
    results = report["results"]
    assert results["passed"] is True
    assert results["independent_recheck"]["residuals"]["gap"] <= 1e-12
    assert results["mc_vs_closed_form"]["mc"]["n_paths"] == 100000


def test_the_bundled_long_only_model_keeps_its_maximizer_on_the_face(capsys):
    # closed form: vertex 1 is worst, and on the face y_2 = 0 its growth
    # 0.04 y_1 - 0.025 y_1^2 peaks at y_1 = 0.8 with value 0.016; its gradient
    # there, (0, -0.01), is 0.01 times the normal of -y_2 <= 0. SLSQP ends a
    # rounding error past that face, which passes through the origin, and
    # the projection clips y_2 back onto it exactly.
    status, report = run_json(capsys, ["solve", "--model", LONG_ONLY])
    assert status == 0
    results = report["results"]
    assert results["y_hat"][0] == pytest.approx(0.8, abs=1e-7)
    assert results["y_hat"][1] == 0.0
    assert results["robust_g"] == pytest.approx(0.016, abs=1e-9)
    assert results["worst_vertex"] == 1
    status, report = run_json(capsys, ["saddle", "--model", LONG_ONLY])
    assert status == 0
    results = report["results"]
    assert results["certified"] is True
    assert results["theta_hat_weights"] == pytest.approx([0.0, 1.0], abs=1e-9)
    # rows of C.box: y_1 <= 1, -y_1 <= 0, y_2 <= 1, -y_2 <= 0
    assert results["face_multipliers"] == pytest.approx([0.0, 0.0, 0.0, 0.01], abs=1e-9)
    status, report = run_json(capsys, ["verify", "--model", LONG_ONLY])
    assert status == 0
    assert report["results"]["passed"] is True


def density_model(**density) -> dict:
    model = json.loads(Path(MERTON).read_text())
    model["Theta"]["vertices"][0]["jumps"] = {"density": {
        "form": "linear", "level": 0.5, "slope": 0.1, "support": [0.5, 1.5],
        "grid_points": 4, **density}}
    return model


def box_model(**box) -> dict:
    model = json.loads(Path(BOX).read_text())
    model["Theta"]["box"].update(box)
    return model


def log_model(**utility) -> dict:
    model = json.loads(Path(BOX).read_text())
    model["utility"].update(utility)
    return model


@pytest.mark.parametrize("model, code, where", [
    (box_model(c_base=True), "SchemaError", "Theta.box.c_base"),
    (density_model(grid_points=1), "ModelError", "Theta.vertices[0].jumps.density"),
    (density_model(grid_points=4097), "ModelError", "Theta.vertices[0].jumps.density"),
    (density_model(support=[1.5, 0.5]), "ModelError", "Theta.vertices[0].jumps.density"),
    # level + slope z is -0.1375 at the first cell midpoint, z = 0.625
    (density_model(level=-0.2), "ModelError", "Theta.vertices[0].jumps.density"),
    (log_model(p=False), "SchemaError", "utility.p"),
    (log_model(zz=1), "SchemaError", "unknown key 'zz' in 'utility'"),
], ids=["bool-c-base", "one-grid-point", "too-many-grid-points", "reversed-support",
        "negative-density", "bool-log-p", "unknown-utility-key"])
def test_malformed_models_exit_1_with_an_error_report(capsys, tmp_path, model, code, where):
    status = main(["validate", "--model", write_model(tmp_path, json.dumps(model))])
    captured = capsys.readouterr()
    assert status == 1
    assert "Traceback" not in captured.err
    error = json.loads(captured.out)["results"]["error"]
    assert error["code"] == code
    assert where in error["message"]


def test_solve_reports_its_certificate_in_two_dimensions(capsys, tmp_path):
    path = write_model(tmp_path, json.dumps(two_asset_model()))
    status, report = run_json(capsys, ["solve", "--model", path, "--tol", "1e-7"])
    assert status == 0
    results = report["results"]
    spec = load_model(path)
    certificate = maximize_robust(spec.theta, spec.feasible, spec.utility).certificate
    assert results["y_hat"] == certificate.y_hat.tolist()
    assert results["gap"] == certificate.gap
    assert results["certified"] is True
    status, report = run_json(capsys, ["simulate", "--model", path, "--paths", "500",
                                       "--tol", "1e-7"])
    assert status == 0
    solved = report["results"]["solve"]
    assert (solved["gap"], solved["certified"]) == (certificate.gap, True)


def assert_solver_block_is_refused(capsys, tmp_path, solver):
    # the solver takes no options, so the keys earlier releases accepted are
    # refused with the rest of the unknown keys
    model = {**two_asset_model(), "solver": solver}
    status = main(["solve", "--model", write_model(tmp_path, json.dumps(model))])
    captured = capsys.readouterr()
    assert (status, captured.err) == (1, "")
    assert json.loads(captured.out)["results"]["error"] == {
        "code": "SchemaError", "message": "unknown top-level key 'solver'"}


def test_a_solver_seed_block_exits_1_as_an_unknown_key(capsys, tmp_path):
    for solver in ({}, {"seed": -3}):
        assert_solver_block_is_refused(capsys, tmp_path, solver)


def test_a_solver_tolerance_block_exits_1_as_an_unknown_key(capsys, tmp_path):
    assert_solver_block_is_refused(
        capsys, tmp_path, {"value_tol": 1e-3, "y_tol": 1e-13, "shrink_schedule": [2, 3]})


# The flags each subcommand reads besides --model, --format and --out, with
# a value that runs on the box model.
KEPT_FLAGS = {"validate": (), "solve": ("--tol",), "saddle": ("--tol",),
              "simulate": ("--pi", "--paths", "--seed", "--tol"),
              "verify": ("--paths", "--seed", "--tol")}
FLAG_VALUES = {"--pi": "1.5", "--paths": "2000", "--seed": "3", "--tol": "1e-6"}


@pytest.mark.parametrize("command, flag", [(command, flag) for command in KEPT_FLAGS
                                           for flag in FLAG_VALUES])
def test_each_command_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = [command, "--model", BOX, flag, FLAG_VALUES[flag]]
    if flag not in KEPT_FLAGS[command]:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert (excinfo.value.code, captured.out) == (1, "")
        assert f"unrecognized arguments: {flag}" in captured.err
        return
    status, report = run_json(capsys, argv)
    assert (status, report["command"]) == (0, command)


@pytest.mark.parametrize("command", ["saddle", "solve"])
def test_uncertified_saddle_exits_2(capsys, tmp_path, command):
    # the solver stops within about 6e-12 of the optimum y = b / c = 2, and
    # the dual bound's linear term over the box turns that into a gap of
    # about 5e-13, far above an absurdly small tolerance
    model = {
        "dimension": 1,
        "utility": {"kind": "log"},
        "T": 1.0,
        "x0": 1.0,
        "Theta": {"vertices": [{"b": [0.06], "c": [[0.03]]}]},
        "C": {"box": [[0.0, 5.0]]},
    }
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps(model))
    status, report = run_json(
        capsys, [command, "--model", str(path), "--tol", "1e-15"])
    assert status == 2
    assert report["status"] == 2
    assert f"{command}_uncertified" in report["provenance"]
    results = report["results"]
    assert results["certified"] is False
    assert results["gap"] > 1e-15
    assert ("reason" in results) == (command == "saddle")
    # the candidate itself is still sound at practical tolerances:
    # b^2 / (2 c) = 0.06
    assert results["value"] == pytest.approx(0.06, abs=1e-8)


def test_the_bundled_market_neutral_model_solves_on_its_face(capsys):
    # the long-only model's vertices on the line y_1 + y_2 = 0, written as two
    # faces through the origin: on y = (t, -t) vertex 1 is worst, and its
    # growth 0.05 t - 0.04 t^2 peaks at t = 0.625 with value 0.015625
    status, report = run_json(capsys, ["solve", "--model", MARKET_NEUTRAL])
    assert status == 0
    results = report["results"]
    assert results["y_hat"] == pytest.approx([0.625, -0.625], abs=1e-7)
    assert results["robust_g"] == pytest.approx(0.015625, abs=1e-9)
    assert results["certified"] is True
    status, report = run_json(capsys, ["saddle", "--model", MARKET_NEUTRAL])
    assert status == 0
    assert report["results"]["certified"] is True
