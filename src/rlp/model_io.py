"""Model-file loading, schema checks, and report serialization.

The model format is JSON with field names matching the mathematical symbols:
drift b, diffusion c, jump measure under "jumps", strategy constraints under
"C", the uncertainty set under "Theta", utility exponent p, horizon T, and
initial capital x0. See docs/schema.md for the full schema and examples.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import FileIoError, ModelError, NanResultError, ParseError, SchemaError
from .levy import (
    Polyhedron,
    UncertaintySet,
    UtilitySpec,
    characteristics_bound,
    compile_box_to_vertices,
    discretize_density,
    effective_domain,
)

_TOP_KEYS = {"dimension", "utility", "T", "x0", "C", "Theta", "simulation"}


@dataclass(frozen=True)
class SimulationOptions:
    n_paths: int = 100000
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 1:
            raise ValueError("n_paths must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must lie in [0, 2**64)")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """A fully resolved problem: model data, simulation options, and derived checks."""

    dimension: int
    utility: UtilitySpec
    horizon: float
    x0: float
    constraints: Polyhedron
    theta: UncertaintySet
    simulation: SimulationOptions
    feasible: Polyhedron
    compact: bool
    kappa: float
    provenance: tuple[str, ...]
    digest: str
    resolved: dict


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def _fields(obj, where: str, allowed) -> dict:
    """The JSON object obj, once every key of it is in allowed."""
    # the messages are formatted only on failure: this runs once per atom
    if not isinstance(obj, dict):
        raise SchemaError(f"'{where}' must be an object")
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key '{key}' in '{where}'")
    return obj


def _is_number(obj) -> bool:
    """A finite number that fits a float; Python's json also admits NaN and Infinity."""
    return (isinstance(obj, (int, float)) and not isinstance(obj, bool)
            and abs(obj) <= sys.float_info.max)


def _all_numbers(values: list) -> bool:
    """_is_number of every entry; a list of floats only is tested in C."""
    if set(map(type, values)) == {float}:
        return all(map(math.isfinite, values))
    return all(map(_is_number, values))


def _number(obj, name: str) -> float:
    _require(_is_number(obj), f"'{name}' must be a finite number")
    return float(obj)


def _integer(obj, name: str) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool),
             f"'{name}' must be an integer")
    return obj


def _numbers(obj, name: str, length: int | None = None) -> list:
    """obj, once it is a list of finite numbers (of the given length)."""
    if not (isinstance(obj, list) and _all_numbers(obj)):
        raise SchemaError(f"'{name}' must be a list of finite numbers")
    if length is not None and len(obj) != length:
        raise SchemaError(f"'{name}' must have length {length}")
    return obj


def _vector(obj, name: str, length: int | None = None) -> np.ndarray:
    return np.array(_numbers(obj, name, length), dtype=float)


def _matrix(obj, name: str, dimension: int) -> list:
    """A dimension x dimension matrix as a list of rows, given so or as a bare
    number in one dimension."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        _require(dimension == 1, f"'{name}' must be a matrix for dimension > 1")
        return [[_number(obj, name)]]
    _require(isinstance(obj, list) and len(obj) == dimension,
             f"'{name}' must be a {dimension}x{dimension} matrix")
    return [_numbers(row, name, dimension) for row in obj]


def _parse_utility(obj) -> UtilitySpec:
    obj = _fields(obj, "utility", ("kind", "p", "epsilon"))
    kind = obj.get("kind")
    _require(kind in ("log", "power"), "'utility.kind' must be 'log' or 'power'")
    try:
        if kind == "log":
            _require(_number(obj.get("p", 0.0), "utility.p") == 0.0,
                     "log utility fixes p = 0")
            # checked although only a fractional power reads it
            _number(obj.get("epsilon", 0.01), "utility.epsilon")
            return UtilitySpec.log_utility()
        _require("p" in obj, "power utility requires 'utility.p'")
        p = _number(obj["p"], "utility.p")
        epsilon = _number(obj.get("epsilon", 0.01), "utility.epsilon")
        return UtilitySpec.power_utility(p, epsilon)
    except ValueError as exc:
        raise ModelError(f"invalid utility: {exc}") from exc


def _parse_jumps(obj, dimension: int, where: str) -> tuple[list, list, bool]:
    """One vertex's listed atoms: rates, locations, and whether they
    discretize a density."""
    if obj is None:
        return [], [], False
    obj = _fields(obj, where, ("atoms", "density"))
    _require(("atoms" in obj) != ("density" in obj),
             f"'{where}' needs exactly one of 'atoms' or 'density'")
    if "atoms" in obj:
        atoms = obj["atoms"]
        _require(isinstance(atoms, list), f"'{where}.atoms' must be a list")
        rates, locations = [], []
        for j, atom in enumerate(atoms):
            atom = _fields(atom, f"{where}.atoms[{j}]", ("rate", "location"))
            rates.append(_number(atom.get("rate"), f"{where}.atoms[{j}].rate"))
            locations.append(_numbers(atom.get("location"), f"{where}.atoms[{j}].location",
                                      dimension))
        return rates, locations, False
    density = _fields(obj["density"], f"{where}.density",
                      ("form", "level", "slope", "support", "grid_points"))
    _require(dimension == 1, "density-specified jumps require dimension 1")
    form = density.get("form", "constant")
    _require(form in ("constant", "linear"), f"'{where}.density.form' must be "
             "'constant' or 'linear'")
    level = _number(density.get("level"), f"{where}.density.level")
    slope = _number(density.get("slope", 0.0), f"{where}.density.slope")
    support = _vector(density.get("support"), f"{where}.density.support", 2)
    grid_points = _integer(density.get("grid_points", 16), f"{where}.density.grid_points")
    try:
        jumps = discretize_density(lambda z: level + slope * z,
                                   (support[0], support[1]), grid_points)
    except ValueError as exc:
        raise ModelError(f"invalid '{where}.density': {exc}") from exc
    return jumps.rates.tolist(), jumps.locations.tolist(), True


def _parse_vertices(vertices, dimension: int) -> UncertaintySet:
    """A vertex list, parsed straight into the stacked arrays of the set."""
    drifts, diffusions, rates, locations, counts, approximate = [], [], [], [], [], []
    for i, vertex in enumerate(vertices):
        where = f"Theta.vertices[{i}]"
        vertex = _fields(vertex, where, ("b", "c", "jumps"))
        drifts.append(_numbers(vertex.get("b"), f"{where}.b", dimension))
        diffusions.append(_matrix(vertex.get("c"), f"{where}.c", dimension))
        jump_rates, jump_locations, discretized = _parse_jumps(
            vertex.get("jumps"), dimension, f"{where}.jumps")
        rates += jump_rates
        locations += jump_locations
        counts.append(len(jump_rates))
        approximate.append(discretized)
    return UncertaintySet.stacked(drifts, diffusions, rates, locations, counts, approximate)


def _parse_interval(obj, name: str) -> tuple[float, float]:
    pair = _vector(obj, name, 2)
    _require(pair[0] <= pair[1], f"'{name}' must be ordered [low, high]")
    return float(pair[0]), float(pair[1])


def _parse_theta(obj, dimension: int) -> UncertaintySet:
    obj = _fields(obj, "Theta", ("vertices", "box"))
    _require(("vertices" in obj) != ("box" in obj),
             "'Theta' needs exactly one of 'vertices' or 'box'")
    if "vertices" in obj:
        vertices = obj["vertices"]
        _require(isinstance(vertices, list) and vertices,
                 "'Theta.vertices' must be a nonempty list")
        return _parse_vertices(vertices, dimension)
    box = _fields(obj["box"], "Theta.box", ("b", "c_scale", "c_base", "atoms"))
    b_rows = box.get("b")
    _require(isinstance(b_rows, list) and len(b_rows) == dimension,
             "'Theta.box.b' must list one interval per coordinate")
    b_intervals = [_parse_interval(row, f"Theta.box.b[{i}]") for i, row in enumerate(b_rows)]
    c_scale = _parse_interval(box.get("c_scale", [1.0, 1.0]), "Theta.box.c_scale")
    c_base = (np.eye(dimension) if box.get("c_base") is None
              else np.array(_matrix(box["c_base"], "Theta.box.c_base", dimension)))
    atoms = box.get("atoms", [])
    _require(isinstance(atoms, list), "'Theta.box.atoms' must be a list")
    locations, rate_intervals = [], []
    for j, atom in enumerate(atoms):
        atom = _fields(atom, f"Theta.box.atoms[{j}]", ("rate", "location"))
        locations.append(_vector(atom.get("location"),
                                 f"Theta.box.atoms[{j}].location", dimension))
        rate = _parse_interval(atom.get("rate"), f"Theta.box.atoms[{j}].rate")
        if rate[0] < 0.0:
            raise ModelError(f"'Theta.box.atoms[{j}].rate' must not go below 0 "
                             "(a zero lower endpoint drops the atom)")
        rate_intervals.append(rate)
    return compile_box_to_vertices(
        b_intervals=b_intervals, c_scale=c_scale, c_base=c_base,
        atom_locations=locations, rate_intervals=rate_intervals)


def _parse_constraints(obj, dimension: int) -> Polyhedron:
    poly = Polyhedron.whole_space(dimension)
    if obj is None:
        return poly
    obj = _fields(obj, "C", ("box", "halfspaces"))
    if "box" in obj:
        rows = obj["box"]
        _require(isinstance(rows, list) and len(rows) == dimension,
                 "'C.box' must list one [low, high] pair per coordinate")
        bounds = []
        for i, row in enumerate(rows):
            _require(isinstance(row, list) and len(row) == 2,
                     f"'C.box[{i}]' must be a [low, high] pair")
            lo = None if row[0] is None else _number(row[0], f"C.box[{i}][0]")
            hi = None if row[1] is None else _number(row[1], f"C.box[{i}][1]")
            if lo is not None and hi is not None:
                _require(lo <= hi, f"'C.box[{i}]' must be ordered [low, high]")
            bounds.append((lo, hi))
        poly = poly.intersect(Polyhedron.box(bounds))
    if "halfspaces" in obj:
        rows = obj["halfspaces"]
        _require(isinstance(rows, list), "'C.halfspaces' must be a list")
        normals, offsets = [], []
        for i, row in enumerate(rows):
            row = _fields(row, f"C.halfspaces[{i}]", ("normal", "offset"))
            normals.append(_vector(row.get("normal"), f"C.halfspaces[{i}].normal", dimension))
            offsets.append(_number(row.get("offset"), f"C.halfspaces[{i}].offset"))
        if normals:
            poly = poly.intersect(Polyhedron(np.array(normals), np.array(offsets)))
    return poly


def _parse_simulation(obj) -> SimulationOptions:
    obj = _fields({} if obj is None else obj, "simulation", ("n_paths", "seed"))
    try:
        return SimulationOptions(**{key: _integer(value, f"simulation.{key}")
                                    for key, value in obj.items()})
    except ValueError as exc:
        raise ModelError(f"invalid simulation options: {exc}") from exc


def _resolved_dict(dimension: int, utility: UtilitySpec, horizon: float, x0: float,
                   constraints: Polyhedron, theta: UncertaintySet,
                   simulation: SimulationOptions) -> dict:
    return {
        "dimension": dimension,
        "utility": {"kind": utility.kind, "p": utility.p, "epsilon": utility.epsilon},
        "T": horizon,
        "x0": x0,
        "C": {"halfspaces": [{"normal": n, "offset": o} for n, o in
                             zip(constraints.normals.tolist(), constraints.offsets.tolist())]},
        "Theta": {"vertices": [
            {"b": v.b.tolist(), "c": v.c.tolist(),
             "jumps": {"atoms": [{"rate": r, "location": z} for r, z in
                                 zip(v.jumps.rates.tolist(), v.jumps.locations.tolist())]}}
            for v in theta.vertices]},
        "simulation": {"n_paths": simulation.n_paths, "seed": simulation.seed},
    }


def load_model(path: str) -> ProblemSpec:
    """Load, validate, and resolve a JSON model file.

    A vertex list is parsed in one pass straight into stacked arrays, and
    :meth:`UncertaintySet.stacked` clamps and checks every vertex of Theta at
    once while Theta is parsed, before C and simulation: the
    diffusion matrices are decomposed in one batched call, not one per vertex.

    Raises ParseError for invalid JSON, SchemaError for structural problems,
    and ModelError for well-formed files describing invalid problems: bad
    diffusion matrices, a non-compact feasible set, an infinite
    characteristics bound.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise FileIoError(f"cannot read model file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    _require(isinstance(raw, dict), "the model must be a JSON object")
    for key in raw:
        _require(key in _TOP_KEYS, f"unknown top-level key '{key}'")
    for key in ("dimension", "utility", "T", "x0", "Theta"):
        _require(key in raw, f"missing required key '{key}'")
    dimension = raw["dimension"]
    _require(isinstance(dimension, int) and not isinstance(dimension, bool)
             and dimension >= 1, "'dimension' must be a positive integer")
    utility = _parse_utility(raw["utility"])
    horizon = _number(raw["T"], "T")
    if horizon <= 0.0:
        raise ModelError("the horizon T must be positive")
    x0 = _number(raw["x0"], "x0")
    if x0 <= 0.0:
        raise ModelError("the initial capital x0 must be positive")
    theta = _parse_theta(raw["Theta"], dimension)
    constraints = _parse_constraints(raw.get("C"), dimension)
    simulation = _parse_simulation(raw.get("simulation"))
    feasible, compact = effective_domain(constraints, theta)
    kappa = characteristics_bound(theta, utility)
    if not compact:
        raise ModelError("feasible set not compact: C together with the natural "
                         "constraints leaves an unbounded direction")
    if not np.isfinite(kappa):
        raise ModelError("the characteristics bound kappa is not finite")
    discretized = any(v.jumps.approximate for v in theta.vertices)
    resolved = _resolved_dict(dimension, utility, horizon, x0, constraints, theta, simulation)
    digest = hashlib.sha256(canonical_json(resolved).encode("utf-8")).hexdigest()
    return ProblemSpec(
        dimension=dimension, utility=utility, horizon=horizon, x0=x0,
        constraints=constraints, theta=theta, simulation=simulation,
        feasible=feasible, compact=compact, kappa=kappa,
        provenance=("density_discretized",) if discretized else (), digest=digest,
        resolved=resolved)


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class Report:
    """Structured command output with provenance and timings.

    JSON output is canonical, so reports for the same inputs are
    byte-identical apart from the timing block. CSV output flattens scalar
    results into quantity, value, stderr rows.
    """

    command: str
    model: str
    digest: str
    status: int
    results: dict
    provenance: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "model": self.model,
            "digest": self.digest,
            "status": self.status,
            "results": self.results,
            "provenance": list(self.provenance),
            "timings": self.timings,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(command=data["command"], model=data["model"],
                   digest=data["digest"], status=data["status"],
                   results=data["results"], provenance=list(data["provenance"]),
                   timings=data["timings"])

    def to_json(self) -> str:
        """Canonical JSON; +-inf become the strings "inf" and "-inf", NaN raises."""
        try:
            return json.dumps(_infinities_as_strings(self.to_dict()), sort_keys=True,
                              indent=2, separators=(",", ": "), allow_nan=False) + "\n"
        except ValueError as exc:
            raise NanResultError(f"the {self.command} report contains NaN") from exc

    def csv_rows(self) -> list[tuple[str, str, str]]:
        rows: list[tuple[str, str, str]] = []

        def walk(prefix: str, value):
            if isinstance(value, dict):
                if "mean" in value and "stderr" in value:
                    rows.append((prefix + ".mean" if prefix else "mean",
                                 repr(float(value["mean"])),
                                 repr(float(value["stderr"]))))
                    remaining = {k: v for k, v in value.items()
                                 if k not in ("mean", "stderr")}
                else:
                    remaining = value
                for key in remaining:
                    walk(f"{prefix}.{key}" if prefix else key, remaining[key])
            elif isinstance(value, (list, tuple)):
                if all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in value):
                    for i, v in enumerate(value):
                        rows.append((f"{prefix}[{i}]", repr(float(v)), ""))
                else:
                    for i, v in enumerate(value):
                        walk(f"{prefix}[{i}]", v)
            elif isinstance(value, bool):
                rows.append((prefix, str(value).lower(), ""))
            elif isinstance(value, (int, float)):
                rows.append((prefix, repr(float(value)), ""))
            else:
                rows.append((prefix, str(value), ""))

        walk("", self.results)
        return rows

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["quantity", "value", "stderr"])
        for row in self.csv_rows():
            if "nan" in row[1:]:
                raise NanResultError(f"the {self.command} report contains NaN")
            writer.writerow(row)
        return buffer.getvalue()


def _infinities_as_strings(value):
    """Copy with +-inf replaced by "inf"/"-inf", as the CSV prints them."""
    if isinstance(value, float) and math.isinf(value):
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _infinities_as_strings(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_infinities_as_strings(item) for item in value]
    return value


def emit_report(report: Report, fmt: str = "json", out: str | None = None) -> str:
    """Render the report as JSON or CSV and write it to stdout or a file."""
    if fmt not in ("json", "csv"):
        raise ValueError("format must be 'json' or 'csv'")
    text = report.to_json() if fmt == "json" else report.to_csv()
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise FileIoError(f"cannot write report to '{out}': {exc}") from exc
    return text
