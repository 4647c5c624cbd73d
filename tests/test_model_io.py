"""Model file loading, validation, and report serialization."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from rlp import (
    FileIoError,
    ModelError,
    NanResultError,
    ParseError,
    Report,
    SchemaError,
    canonical_json,
    emit_report,
    load_model,
)

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def write_model(tmp_path, obj):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    return str(path)


def minimal_model(**overrides):
    model = {
        "dimension": 1,
        "utility": {"kind": "log"},
        "T": 1.0,
        "x0": 1.0,
        "Theta": {"vertices": [
            {"b": [0.1], "c": [[0.04]],
             "jumps": {"atoms": [{"location": [0.5], "rate": 0.2}]}},
        ]},
        "C": {"box": [[0.0, 2.0]]},
    }
    model.update(overrides)
    return model


def test_box_model_loads():
    spec = load_model(str(MODELS / "box_log_jump.json"))
    assert spec.dimension == 1
    assert spec.utility.is_log
    assert len(spec.theta) == 8
    assert spec.compact
    assert spec.kappa == pytest.approx(0.12 + 0.04 + 0.03 * math.log(2.0), rel=1e-14)
    assert spec.provenance == ()
    assert spec.simulation.n_paths == 100000
    assert spec.simulation.seed == 7


def test_merton_model_loads():
    spec = load_model(str(MODELS / "merton_power.json"))
    assert spec.utility.p == 0.5
    assert len(spec.theta) == 1
    assert spec.theta.vertices[0].jumps.m == 0


def test_negative_power_model_loads():
    spec = load_model(str(MODELS / "negative_power_jump.json"))
    assert spec.utility.p == -1.0
    assert spec.horizon == 2.0
    assert spec.x0 == 1.5
    assert len(spec.theta) == 2


def test_digest_is_stable_and_matches_the_resolved_form():
    path = str(MODELS / "box_log_jump.json")
    first = load_model(path)
    second = load_model(path)
    assert first.digest == second.digest
    recomputed = hashlib.sha256(
        canonical_json(first.resolved).encode("utf-8")).hexdigest()
    assert first.digest == recomputed


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(SchemaError, match="unknown top-level key"):
        load_model(write_model(tmp_path, minimal_model(extra=1)))


def test_unknown_key_in_a_box_atom(tmp_path):
    model = minimal_model(Theta={"box": {
        "b": [[0.0, 0.1]],
        "atoms": [{"location": [0.5], "rate": [0.1, 0.2], "size": 1.0}],
    }})
    with pytest.raises(SchemaError, match=r"unknown key 'size' in 'Theta.box.atoms\[0\]'"):
        load_model(write_model(tmp_path, model))


def test_unknown_key_in_a_halfspace(tmp_path):
    model = minimal_model(C={"box": [[0.0, 2.0]], "halfspaces": [
        {"normal": [1.0], "offset": 1.0, "strict": True}]})
    with pytest.raises(SchemaError, match=r"unknown key 'strict' in 'C.halfspaces\[0\]'"):
        load_model(write_model(tmp_path, model))


@pytest.mark.parametrize("path, value", [
    (("T",), math.nan),
    (("x0",), math.inf),
    (("Theta", "vertices", 0, "b", 0), -math.inf),
    (("Theta", "vertices", 0, "c"), math.nan),
    (("C", "box", 0, 1), math.inf),
])
def test_non_finite_numbers_are_rejected(tmp_path, path, value):
    model = minimal_model()
    target = model
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(SchemaError, match="finite"):
        load_model(write_model(tmp_path, model))


def test_missing_required_key(tmp_path):
    model = minimal_model()
    del model["Theta"]
    with pytest.raises(SchemaError, match="missing required key 'Theta'"):
        load_model(write_model(tmp_path, model))


def test_booleans_are_not_numbers(tmp_path):
    with pytest.raises(SchemaError):
        load_model(write_model(tmp_path, minimal_model(dimension=True)))
    with pytest.raises(SchemaError):
        load_model(write_model(tmp_path, minimal_model(T=True)))


def test_theta_forms_are_exclusive(tmp_path):
    model = minimal_model()
    model["Theta"]["box"] = {"b": [[0.0, 0.1]], "c_scale": [0.01, 0.02]}
    with pytest.raises(SchemaError):
        load_model(write_model(tmp_path, model))


def test_parse_error_reports_the_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dimension": }\n')
    with pytest.raises(ParseError, match="line 2"):
        load_model(str(path))


def test_missing_file_is_an_io_error(tmp_path):
    with pytest.raises(FileIoError):
        load_model(str(tmp_path / "absent.json"))


def test_indefinite_diffusion_is_rejected(tmp_path):
    model = minimal_model()
    model["Theta"]["vertices"][0]["c"] = [[-1.0]]
    with pytest.raises(ModelError, match="vertex 0.*not PSD"):
        load_model(write_model(tmp_path, model))


def test_unbounded_problems_are_rejected(tmp_path):
    # no C and no jumps: nothing stops arbitrarily long positions
    model = minimal_model()
    del model["C"]
    del model["Theta"]["vertices"][0]["jumps"]
    with pytest.raises(ModelError, match="feasible set not compact"):
        load_model(write_model(tmp_path, model))


def test_inert_solver_keys_are_still_validated(tmp_path):
    for solver in ({"restarts": 0}, {"max_iters": 0}):
        with pytest.raises(ModelError, match="at least 1"):
            load_model(write_model(tmp_path, minimal_model(solver=solver)))
    for solver in ({"seed": 1.5}, {"max_iters": True}):
        with pytest.raises(SchemaError, match="must be an integer"):
            load_model(write_model(tmp_path, minimal_model(solver=solver)))
    spec = load_model(write_model(tmp_path, minimal_model(
        solver={"max_iters": 60, "restarts": 1, "seed": -3})))
    assert spec.resolved["solver"]["max_iters"] == 60
    assert spec.resolved["solver"]["seed"] == -3


def test_scalar_domains(tmp_path):
    with pytest.raises(ModelError, match="horizon"):
        load_model(write_model(tmp_path, minimal_model(T=0.0)))
    with pytest.raises(ModelError, match="x0"):
        load_model(write_model(tmp_path, minimal_model(x0=-2.0)))
    with pytest.raises(SchemaError, match="dimension"):
        load_model(write_model(tmp_path, minimal_model(dimension=0)))


def test_density_models_are_discretized(tmp_path):
    model = minimal_model()
    model["Theta"]["vertices"][0]["jumps"] = {
        "density": {"form": "constant", "level": 0.5,
                    "support": [0.5, 1.5], "grid_points": 4},
    }
    spec = load_model(write_model(tmp_path, model))
    assert spec.provenance == ("density_discretized",)
    jumps = spec.theta.vertices[0].jumps
    assert jumps.m == 4
    # midpoint rule: each cell carries level * width mass
    assert jumps.total_rate == pytest.approx(0.5, rel=1e-14)
    assert jumps.locations[0, 0] == pytest.approx(0.625)


def test_report_roundtrips_through_json():
    report = Report(command="solve", model="m.json", digest="abc", status=0,
                    results={"y_hat": [2.0, 0.5], "robust_g": 0.0929,
                             "flags": {"certified": True}},
                    provenance=["density_discretized"], timings={"total_s": 0.12})
    recovered = Report.from_dict(json.loads(report.to_json()))
    assert recovered.to_dict() == report.to_dict()


def test_reports_encode_infinities_and_refuse_nan():
    report = Report(command="simulate", model="m.json", digest="abc", status=0,
                    results={"closed_form": -math.inf, "mc": {"stderr": math.inf}})
    results = json.loads(report.to_json())["results"]
    assert results == {"closed_form": "-inf", "mc": {"stderr": "inf"}}
    assert report.results["closed_form"] == -math.inf
    report.results["closed_form"] = math.nan
    for fmt in ("json", "csv"):
        with pytest.raises(NanResultError):
            emit_report(report, fmt)


def test_csv_rows_flatten_vectors_and_estimates():
    report = Report(command="solve", model="m.json", digest="abc", status=0,
                    results={"y_hat": [2.0], "robust_g": 0.09, "value": 0.09,
                             "mc": {"mean": 1.5, "stderr": 0.01},
                             "certified": True})
    rows = {row[0]: row for row in report.csv_rows()}
    assert rows["y_hat[0]"] == ("y_hat[0]", "2.0", "")
    assert rows["robust_g"][1] == "0.09"
    assert rows["value"][1] == "0.09"
    assert rows["mc.mean"] == ("mc.mean", "1.5", "0.01")
    assert rows["certified"][1] == "true"
    text = report.to_csv()
    assert text.splitlines()[0] == "quantity,value,stderr"


def test_emit_report_writes_files(tmp_path):
    report = Report(command="validate", model="m.json", digest="d", status=0,
                    results={"ok": True})
    out = tmp_path / "report.json"
    emit_report(report, "json", str(out))
    assert json.loads(out.read_text())["results"]["ok"] is True
    with pytest.raises(FileIoError):
        emit_report(report, "json", str(tmp_path / "no-such-dir" / "x.json"))
    with pytest.raises(ValueError):
        emit_report(report, "yaml", str(out))


def test_canonical_json_ignores_key_order():
    a = canonical_json({"b": 1, "a": [1.5, 2.0]})
    b = canonical_json({"a": [1.5, 2.0], "b": 1})
    assert a == b
    assert a == '{"a":[1.5,2.0],"b":1}'
