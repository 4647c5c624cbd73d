"""Model file loading, validation, and report serialization."""

import copy
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from rlp import (
    FileIoError,
    ModelError,
    NanResultError,
    ParseError,
    ProblemSpec,
    Report,
    RlpError,
    SchemaError,
    canonical_json,
    emit_report,
    load_model,
    validate_triplet,
)

from helpers_instances import pooled_vertices
from helpers_oracle import resolved_digest, triplets_of, unique_atom_table

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
SADDLE_INPUTS = ROOT / "bench" / "inputs" / "saddle-nd"


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


def test_overflowing_diffusion_ends_in_the_non_finite_error(tmp_path):
    # the box corners scale c_base past the float range: equal infinities
    # off the diagonal, so the matrix is symmetric to np.allclose
    model = minimal_model(dimension=2, C={"box": [[0.0, 1.0], [0.0, 1.0]]})
    model["Theta"] = {"box": {"b": [[0.1, 0.12], [0.1, 0.1]], "c_scale": [10.0, 20.0],
                              "c_base": [[1.0, 1e308], [1e308, 1.0]]}}
    with np.errstate(over="ignore"), pytest.raises(
            ModelError, match="^vertex 0: diffusion matrix has non-finite entries;"):
        load_model(write_model(tmp_path, model))


def test_log_utility_checks_its_epsilon(tmp_path):
    with pytest.raises(SchemaError, match="'utility.epsilon' must be a finite number"):
        load_model(write_model(tmp_path, minimal_model(
            utility={"kind": "log", "epsilon": "abc"})))
    # a valid epsilon is inert for log utility and leaves the digest alone
    plain = load_model(write_model(tmp_path, minimal_model()))
    with_epsilon = load_model(write_model(tmp_path, minimal_model(
        utility={"kind": "log", "epsilon": 0.5})))
    assert with_epsilon.digest == plain.digest


def test_unbounded_problems_are_rejected(tmp_path):
    # no C and no jumps: nothing stops arbitrarily long positions
    model = minimal_model()
    del model["C"]
    del model["Theta"]["vertices"][0]["jumps"]
    with pytest.raises(ModelError, match="feasible set not compact"):
        load_model(write_model(tmp_path, model))


def test_solver_is_an_unknown_top_level_key(tmp_path):
    # the solver takes no options, so a solver block, even an empty one, is
    # refused like any other unknown key
    for solver in ({}, {"seed": 3}, {"max_iters": 60, "restarts": 1}):
        with pytest.raises(SchemaError, match="^unknown top-level key 'solver'$"):
            load_model(write_model(tmp_path, minimal_model(solver=solver)))
    assert "solver" not in load_model(write_model(tmp_path, minimal_model())).resolved


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


# the bundled models, plus one with a density so that branch is reached too
FUZZ_BASES = [json.loads(path.read_text()) for path in sorted(MODELS.glob("*.json"))]
FUZZ_BASES.append(json.loads((MODELS / "merton_power.json").read_text()))
FUZZ_BASES[-1]["Theta"]["vertices"][0]["jumps"] = {"density": {
    "form": "linear", "level": 0.5, "slope": 0.1, "support": [0.5, 1.5], "grid_points": 4}}

# integers stay small so grid_points, n_paths and dimension stay cheap
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 1000) | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=6), children, max_size=3)),
    max_leaves=8)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def test_every_model_object_rejects_unknown_keys(tmp_path):
    checked = 0
    for base in FUZZ_BASES:
        for path in _paths(base):
            model = copy.deepcopy(base)
            target = _at(model, path)
            if not isinstance(target, dict):
                continue
            target["zz"] = 1
            with pytest.raises(SchemaError, match="unknown"):
                load_model(write_model(tmp_path, model))
            checked += 1
    assert checked >= 42


@st.composite
def mutated_models(draw):
    """A bundled model with the value at one path replaced by random JSON."""
    model = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    path = draw(st.sampled_from(list(_paths(model))))
    value = draw(JSON_VALUES)
    if not path:
        return value
    _at(model, path[:-1])[path[-1]] = value
    return model


@seed(20261018)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_models())
def test_load_model_returns_a_spec_or_raises_an_rlp_error(tmp_path, model):
    try:
        spec = load_model(write_model(tmp_path, model))
    except RlpError:
        return
    assert isinstance(spec, ProblemSpec)


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


def assert_loaded_as_listed(spec, model):
    """The stacked load equals the model's triplets built one at a time, bit
    for bit: each vertex, the atom table and the digest."""
    reference = triplets_of(model)
    assert len(spec.theta.vertices) == len(reference)

    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    for got, want in zip(spec.theta.vertices, reference):
        assert same(got.b, want.b) and same(got.c, want.c)
        assert same(got.jumps.rates, want.jumps.rates)
        assert same(got.jumps.locations, want.jumps.locations)
    assert same(spec.theta.drifts, np.array([v.b for v in reference]))
    assert same(spec.theta.diffusions, np.array([v.c for v in reference]))
    locations, rates = unique_atom_table(reference)
    assert same(spec.theta.locations, locations) and same(spec.theta.rates, rates)
    assert spec.digest == resolved_digest(spec, reference)


@pytest.mark.parametrize(
    "path", sorted(MODELS.glob("*.json")) + sorted(SADDLE_INPUTS.glob("saddle_*.json")),
    ids=lambda path: path.stem)
def test_models_load_as_one_triplet_at_a_time(path):
    assert_loaded_as_listed(load_model(str(path)), json.loads(path.read_text()))


def pooled_model(rng: np.random.Generator) -> dict:
    """A vertex-list model of pooled draws: shared and repeated atoms, (z, -0.0)
    beside (z, 0.0), and half the d >= 2 diffusions written as a rank d - 1
    product a a^T, whose rounding the loader clamps."""
    d = int(rng.integers(1, 5))
    vertices = []
    for vertex in pooled_vertices(rng, d, int(rng.integers(1, 5))):
        c = vertex.c
        if d >= 2 and rng.uniform() < 0.5:
            a = rng.uniform(-0.3, 0.3, (d, d - 1))
            c = a @ a.T
        vertices.append({"b": vertex.b.tolist(), "c": c.tolist(), "jumps": {"atoms": [
            {"rate": rate, "location": z} for rate, z
            in zip(vertex.jumps.rates.tolist(), vertex.jumps.locations.tolist())]}})
    return {"dimension": d, "utility": {"kind": "log"}, "T": 1.0, "x0": 1.0,
            "C": {"box": [[-0.5, 0.5]] * d}, "Theta": {"vertices": vertices}}


def test_pooled_models_load_as_one_triplet_at_a_time(tmp_path):
    clamped = merged = negative_zero = 0
    for draw in range(60):
        model = pooled_model(np.random.default_rng(draw))
        spec = load_model(write_model(tmp_path, model))
        assert_loaded_as_listed(spec, model)
        raw = [np.array(vertex["c"]) for vertex in model["Theta"]["vertices"]]
        clamped += sum(not np.array_equal(c, v.c) for c, v in zip(raw, spec.theta.vertices))
        listed = [z for vertex in model["Theta"]["vertices"]
                  for z in (atom["location"] for atom in vertex["jumps"]["atoms"])]
        merged += len(listed) > len(spec.theta.locations)
        negative_zero += any(math.copysign(1.0, x) < 0.0 for z in listed for x in z if x == 0.0)
    assert clamped and merged and negative_zero


def test_bad_vertices_are_reported_as_one_at_a_time(tmp_path):
    model = minimal_model(Theta={"vertices": [
        {"b": [0.1], "c": [[-1.0]]},
        {"b": [0.1], "c": [[0.04]]},
        {"b": [0.1], "c": [[0.04]], "jumps": {"atoms": [
            {"rate": -0.2, "location": [0.5]}, {"rate": 0.1, "location": [0.0]}]}},
    ]})
    with pytest.raises(ModelError) as info:
        load_model(write_model(tmp_path, model))
    assert str(info.value) == "; ".join(
        f"vertex {i}: {message}" for i, vertex in enumerate(triplets_of(model))
        for message in validate_triplet(vertex))
    assert str(info.value) == (
        "vertex 0: diffusion matrix is not PSD (min eigenvalue -1.000e+00); "
        "vertex 2: every jump rate must be strictly positive; "
        "vertex 2: jump atom at the origin is not allowed")


def test_loading_decomposes_the_diffusions_in_batches(monkeypatch):
    # one batched eigh both clamps and checks all 16 diffusions
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _name=name, _decompose=getattr(np.linalg, name), **kwargs):
            shapes.append((_name, np.shape(a)))
            return _decompose(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    spec = load_model(str(SADDLE_INPUTS / "saddle_2_03.json"))
    assert len(spec.theta) == 16
    assert shapes == [("eigh", (16, 4, 4))]


def test_a_bad_vertex_is_reported_before_a_bad_simulation_block(tmp_path):
    model = minimal_model(Theta={"vertices": [{"b": [0.1], "c": [[-1.0]]}]},
                          simulation={"n_paths": 0})
    with pytest.raises(ModelError) as info:
        load_model(write_model(tmp_path, model))
    assert str(info.value) == "vertex 0: diffusion matrix is not PSD (min eigenvalue -1.000e+00)"
