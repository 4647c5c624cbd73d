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
    JumpMeasure,
    LevyTriplet,
    Polyhedron,
    UncertaintyBox,
    UncertaintySet,
    UtilitySpec,
    ValidationReport,
    characteristics_bound,
    compile_box_to_vertices,
    discretize_density,
    effective_domain,
    validate_triplet,
)
from .optimizer import SolveOptions

_TOP_KEYS = {"dimension", "utility", "T", "x0", "C", "Theta", "solver", "simulation"}

# Solver keys of earlier releases, with their defaults: still validated and
# kept in the resolved model (so digests do not change), but they set nothing.
_INERT_SOLVER_KEYS = {"max_iters": 10000, "restarts": 8, "seed": 0}


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
    """A fully resolved problem: model data, solver options, and derived checks."""

    dimension: int
    utility: UtilitySpec
    horizon: float
    x0: float
    constraints: Polyhedron
    theta: UncertaintySet
    solver: SolveOptions
    simulation: SimulationOptions
    feasible: Polyhedron
    compact: bool
    kappa: float
    validation: ValidationReport
    provenance: tuple[str, ...]
    digest: str
    resolved: dict


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def _is_number(obj) -> bool:
    """A finite number that fits a float; Python's json also admits NaN and Infinity."""
    return (isinstance(obj, (int, float)) and not isinstance(obj, bool)
            and abs(obj) <= sys.float_info.max)


def _number(obj, name: str) -> float:
    _require(_is_number(obj), f"'{name}' must be a finite number")
    return float(obj)


def _vector(obj, name: str, length: int | None = None) -> np.ndarray:
    _require(isinstance(obj, list) and all(_is_number(v) for v in obj),
             f"'{name}' must be a list of finite numbers")
    vec = np.array(obj, dtype=float)
    if length is not None:
        _require(len(vec) == length, f"'{name}' must have length {length}")
    return vec


def _parse_utility(obj) -> UtilitySpec:
    _require(isinstance(obj, dict), "'utility' must be an object")
    kind = obj.get("kind")
    _require(kind in ("log", "power"), "'utility.kind' must be 'log' or 'power'")
    try:
        if kind == "log":
            _require(obj.get("p", 0.0) in (0, 0.0), "log utility fixes p = 0")
            return UtilitySpec.log_utility()
        p = _number(obj.get("p"), "utility.p") if "p" in obj else None
        _require(p is not None, "power utility requires 'utility.p'")
        epsilon = _number(obj.get("epsilon", 0.01), "utility.epsilon")
        return UtilitySpec.power_utility(p, epsilon)
    except ValueError as exc:
        raise ModelError(f"invalid utility: {exc}") from exc


def _parse_jumps(obj, dimension: int, where: str) -> tuple[JumpMeasure, bool]:
    """Returns the measure and whether it came from discretizing a density."""
    if obj is None:
        return JumpMeasure.empty(dimension), False
    _require(isinstance(obj, dict), f"'{where}' must be an object")
    has_atoms = "atoms" in obj
    has_density = "density" in obj
    _require(has_atoms != has_density,
             f"'{where}' needs exactly one of 'atoms' or 'density'")
    if has_atoms:
        atoms = obj["atoms"]
        _require(isinstance(atoms, list), f"'{where}.atoms' must be a list")
        pairs = []
        for j, atom in enumerate(atoms):
            _require(isinstance(atom, dict), f"'{where}.atoms[{j}]' must be an object")
            for key in atom:
                _require(key in ("rate", "location"),
                         f"unknown key '{key}' in '{where}.atoms[{j}]'")
            rate = _number(atom.get("rate"), f"{where}.atoms[{j}].rate")
            location = _vector(atom.get("location"), f"{where}.atoms[{j}].location",
                               dimension)
            pairs.append((rate, location))
        return JumpMeasure.from_atoms(pairs, dimension=dimension), False
    density = obj["density"]
    _require(isinstance(density, dict), f"'{where}.density' must be an object")
    for key in density:
        _require(key in ("form", "level", "slope", "support", "grid_points"),
                 f"unknown key '{key}' in '{where}.density'")
    _require(dimension == 1, "density-specified jumps require dimension 1")
    form = density.get("form", "constant")
    _require(form in ("constant", "linear"), f"'{where}.density.form' must be "
             "'constant' or 'linear'")
    level = _number(density.get("level"), f"{where}.density.level")
    slope = _number(density.get("slope", 0.0), f"{where}.density.slope")
    support = _vector(density.get("support"), f"{where}.density.support", 2)
    grid_points = density.get("grid_points", 16)
    _require(isinstance(grid_points, int) and not isinstance(grid_points, bool),
             f"'{where}.density.grid_points' must be an integer")
    measure = discretize_density(lambda z: level + slope * z,
                                 (support[0], support[1]), grid_points)
    return measure, True


def _parse_triplet(obj, dimension: int, where: str) -> tuple[LevyTriplet, bool]:
    _require(isinstance(obj, dict), f"'{where}' must be an object")
    for key in obj:
        _require(key in ("b", "c", "jumps"), f"unknown key '{key}' in '{where}'")
    b = _vector(obj.get("b"), f"{where}.b", dimension)
    c_raw = obj.get("c")
    if isinstance(c_raw, (int, float)) and not isinstance(c_raw, bool):
        _require(dimension == 1, f"'{where}.c' must be a matrix for dimension > 1")
        c = np.array([[_number(c_raw, f"{where}.c")]])
    else:
        _require(isinstance(c_raw, list) and len(c_raw) == dimension,
                 f"'{where}.c' must be a {dimension}x{dimension} matrix")
        c = np.array([_vector(row, f"{where}.c", dimension) for row in c_raw])
    jumps, discretized = _parse_jumps(obj.get("jumps"), dimension, f"{where}.jumps")
    return LevyTriplet(b, c, jumps), discretized


def _parse_interval(obj, name: str) -> tuple[float, float]:
    pair = _vector(obj, name, 2)
    _require(pair[0] <= pair[1], f"'{name}' must be ordered [low, high]")
    return float(pair[0]), float(pair[1])


def _parse_theta(obj, dimension: int) -> tuple[UncertaintySet, bool]:
    _require(isinstance(obj, dict), "'Theta' must be an object")
    has_vertices = "vertices" in obj
    has_box = "box" in obj
    _require(has_vertices != has_box, "'Theta' needs exactly one of 'vertices' or 'box'")
    if has_vertices:
        vertices = obj["vertices"]
        _require(isinstance(vertices, list) and vertices,
                 "'Theta.vertices' must be a nonempty list")
        parsed = []
        discretized = False
        for i, vertex in enumerate(vertices):
            triplet, used_density = _parse_triplet(vertex, dimension, f"Theta.vertices[{i}]")
            discretized = discretized or used_density
            parsed.append(triplet)
        return UncertaintySet(tuple(parsed)), discretized
    box = obj["box"]
    _require(isinstance(box, dict), "'Theta.box' must be an object")
    for key in box:
        _require(key in ("b", "c_scale", "c_base", "atoms"),
                 f"unknown key '{key}' in 'Theta.box'")
    b_rows = box.get("b")
    _require(isinstance(b_rows, list) and len(b_rows) == dimension,
             "'Theta.box.b' must list one interval per coordinate")
    b_intervals = np.array([_parse_interval(row, f"Theta.box.b[{i}]")
                            for i, row in enumerate(b_rows)])
    c_scale = _parse_interval(box.get("c_scale", [1.0, 1.0]), "Theta.box.c_scale")
    c_base_raw = box.get("c_base")
    if c_base_raw is None:
        c_base = np.eye(dimension)
    elif isinstance(c_base_raw, (int, float)) and not isinstance(c_base_raw, bool):
        _require(dimension == 1, "'Theta.box.c_base' must be a matrix for dimension > 1")
        c_base = np.array([[_number(c_base_raw, "Theta.box.c_base")]])
    else:
        c_base = np.array([_vector(row, "Theta.box.c_base", dimension)
                           for row in c_base_raw])
    atoms = box.get("atoms", [])
    _require(isinstance(atoms, list), "'Theta.box.atoms' must be a list")
    locations, rate_intervals = [], []
    for j, atom in enumerate(atoms):
        _require(isinstance(atom, dict), f"'Theta.box.atoms[{j}]' must be an object")
        for key in atom:
            _require(key in ("rate", "location"),
                     f"unknown key '{key}' in 'Theta.box.atoms[{j}]'")
        locations.append(_vector(atom.get("location"),
                                 f"Theta.box.atoms[{j}].location", dimension))
        rate_intervals.append(_parse_interval(atom.get("rate"),
                                              f"Theta.box.atoms[{j}].rate"))
    compiled = compile_box_to_vertices(UncertaintyBox(
        b_intervals=b_intervals, c_scale=c_scale, c_base=c_base,
        atom_locations=np.array(locations) if locations else np.zeros((0, dimension)),
        rate_intervals=np.array(rate_intervals) if rate_intervals else np.zeros((0, 2)),
    ))
    return compiled, False


def _parse_constraints(obj, dimension: int) -> Polyhedron:
    if obj is None:
        return Polyhedron.whole_space(dimension)
    _require(isinstance(obj, dict), "'C' must be an object")
    for key in obj:
        _require(key in ("box", "halfspaces"), f"unknown key '{key}' in 'C'")
    poly = Polyhedron.whole_space(dimension)
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
        pairs = []
        for i, row in enumerate(rows):
            _require(isinstance(row, dict), f"'C.halfspaces[{i}]' must be an object")
            for key in row:
                _require(key in ("normal", "offset"),
                         f"unknown key '{key}' in 'C.halfspaces[{i}]'")
            normal = _vector(row.get("normal"), f"C.halfspaces[{i}].normal", dimension)
            offset = _number(row.get("offset"), f"C.halfspaces[{i}].offset")
            pairs.append((normal, offset))
        if pairs:
            poly = poly.intersect(Polyhedron.from_halfspaces(pairs))
    return poly


def _parse_solver(obj) -> tuple[SolveOptions, dict]:
    """The solver options and their resolved form.

    The resolved form also keeps the inert keys (validated, part of the
    digest, without effect on any solve).
    """
    obj = {} if obj is None else obj
    _require(isinstance(obj, dict), "'solver' must be an object")
    for key in obj:
        _require(key in ("value_tol", "y_tol", "shrink_schedule", *_INERT_SOLVER_KEYS),
                 f"unknown key '{key}' in 'solver'")
    kwargs = {}
    for key in ("value_tol", "y_tol"):
        if key in obj:
            kwargs[key] = _number(obj[key], f"solver.{key}")
    inert = dict(_INERT_SOLVER_KEYS)
    for key in inert:
        if key in obj:
            _require(isinstance(obj[key], int) and not isinstance(obj[key], bool),
                     f"'solver.{key}' must be an integer")
            inert[key] = obj[key]
    if "shrink_schedule" in obj:
        schedule = obj["shrink_schedule"]
        _require(isinstance(schedule, list) and all(
            isinstance(n, int) and not isinstance(n, bool) for n in schedule),
            "'solver.shrink_schedule' must be a list of integers")
        kwargs["shrink_schedule"] = tuple(schedule)
    if inert["max_iters"] < 1 or inert["restarts"] < 1:
        raise ModelError("invalid solver options: max_iters and restarts must be at least 1")
    try:
        options = SolveOptions(**kwargs)
    except ValueError as exc:
        raise ModelError(f"invalid solver options: {exc}") from exc
    resolved = {"value_tol": options.value_tol, "y_tol": options.y_tol,
                "shrink_schedule": list(options.shrink_schedule), **inert}
    return options, resolved


def _parse_simulation(obj) -> SimulationOptions:
    if obj is None:
        return SimulationOptions()
    _require(isinstance(obj, dict), "'simulation' must be an object")
    for key in obj:
        _require(key in ("n_paths", "seed"), f"unknown key '{key}' in 'simulation'")
    kwargs = {}
    for key in ("n_paths", "seed"):
        if key in obj:
            _require(isinstance(obj[key], int) and not isinstance(obj[key], bool),
                     f"'simulation.{key}' must be an integer")
            kwargs[key] = obj[key]
    try:
        return SimulationOptions(**kwargs)
    except ValueError as exc:
        raise ModelError(f"invalid simulation options: {exc}") from exc


def _resolved_dict(dimension: int, utility: UtilitySpec, horizon: float, x0: float,
                   constraints: Polyhedron, theta: UncertaintySet,
                   solver: dict, simulation: SimulationOptions) -> dict:
    return {
        "dimension": dimension,
        "utility": {"kind": utility.kind, "p": utility.p, "epsilon": utility.epsilon},
        "T": horizon,
        "x0": x0,
        "C": {"halfspaces": [{"normal": list(n), "offset": float(o)}
                             for n, o in zip(constraints.normals, constraints.offsets)]},
        "Theta": {"vertices": [
            {"b": list(v.b), "c": [list(row) for row in v.c],
             "jumps": {"atoms": [{"rate": float(r), "location": list(z)}
                                 for r, z in zip(v.jumps.rates, v.jumps.locations)]}}
            for v in theta.vertices]},
        "solver": solver,
        "simulation": {"n_paths": simulation.n_paths, "seed": simulation.seed},
    }


def load_model(path: str) -> ProblemSpec:
    """Load, validate, and resolve a JSON model file.

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
    theta, discretized = _parse_theta(raw["Theta"], dimension)
    constraints = _parse_constraints(raw.get("C"), dimension)
    solver, resolved_solver = _parse_solver(raw.get("solver"))
    simulation = _parse_simulation(raw.get("simulation"))
    violations = []
    for i, vertex in enumerate(theta.vertices):
        for message in validate_triplet(vertex):
            violations.append(f"vertex {i}: {message}")
    if violations:
        raise ModelError("; ".join(violations))
    feasible, compact = effective_domain(constraints, theta)
    kappa = characteristics_bound(theta, utility)
    if not compact:
        raise ModelError("feasible set not compact: C together with the natural "
                         "constraints leaves an unbounded direction")
    if not np.isfinite(kappa):
        raise ModelError("the characteristics bound kappa is not finite")
    validation = ValidationReport(kappa=kappa, compact=compact, messages=())
    provenance = []
    if discretized:
        provenance.append("density_discretized")
    resolved = _resolved_dict(dimension, utility, horizon, x0, constraints, theta,
                              resolved_solver, simulation)
    digest = hashlib.sha256(canonical_json(resolved).encode("utf-8")).hexdigest()
    return ProblemSpec(
        dimension=dimension, utility=utility, horizon=horizon, x0=x0,
        constraints=constraints, theta=theta, solver=solver, simulation=simulation,
        feasible=feasible, compact=compact, kappa=kappa, validation=validation,
        provenance=tuple(provenance), digest=digest, resolved=resolved)


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
