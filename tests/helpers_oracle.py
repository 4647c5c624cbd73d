"""Independent oracles: best responses, Kelley's cutting planes, nearest
points and the martingale test.

The library certifies a saddle by a dual bound at its own solution. These
helpers solve the mixture player's side of the game separately, by repeated
best responses, so criterion 3 and the bound tests compare the library
against a second computation; :func:`nearest_point` does the same for the
library's least-distance projection, and :func:`martingale_check` for the
`verify` report's martingale block, which the command line reads off its
expected-utility estimate. The last four rebuild what the library builds in
one pass, the obvious way: a model's vertices one triplet and one clamped
diffusion matrix at a time, their
atom table by np.unique, its digest from NumPy scalars, and a Monte Carlo
sample with every jump of a chunk drawn at once.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
from scipy.optimize import linprog, minimize

from rlp import (
    GrowthModel,
    JumpMeasure,
    LevyTriplet,
    McEstimate,
    Polyhedron,
    UncertaintySet,
    UtilitySpec,
    canonical_json,
    growth_rate,
    natural_constraints,
)
from rlp.levy import PSD_TOL, SYMMETRY_TOL
from rlp.optimizer import FeasibleRegion, _slsqp_max
from rlp.simulator import _CHUNK, _CHUNK_STREAM, _estimate, _generator, _log_wealth

# Kelley's cutting planes stop on this relative bracket width, or this many cuts.
KELLEY_RTOL = 1e-7
KELLEY_MAX_CUTS = 60

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# Best responses in several dimensions hold every jump factor 1 + z . y at
# 1/RESPONSE_LEVEL or more, so they stay clear of the bankruptcy faces.
RESPONSE_LEVEL = 1024


def response_region(theta: UncertaintySet, feasible: Polyhedron) -> FeasibleRegion:
    """Region for best responses: the feasible polytope tightened to
    RESPONSE_LEVEL in several dimensions, untightened in one."""
    if feasible.dimension > 1:
        feasible = feasible.intersect(natural_constraints(theta, RESPONSE_LEVEL))
    return FeasibleRegion(feasible)


def golden_max(fun, lo: float, hi: float, xtol: float = 1e-11) -> tuple[float, float]:
    """Golden-section maximization of a concave function on [lo, hi].

    Only interior points are evaluated, so boundary values of -inf are
    handled naturally.
    """
    a, b = float(lo), float(hi)
    if b - a <= xtol:
        x = 0.5 * (a + b)
        return x, fun(x)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > xtol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = fun(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = fun(x1)
    x = 0.5 * (a + b)
    fx = fun(x)
    for xc, fc in ((x1, f1), (x2, f2)):
        if fc > fx:
            x, fx = xc, fc
    return x, fx


def single_max(triplet: LevyTriplet, region: FeasibleRegion, utility: UtilitySpec,
               y0: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Maximize one triplet's growth rate over the region.

    The growth rate is concave in the strategy, so one local solve is global:
    golden-section search (:func:`golden_max`) in one dimension, a second
    algorithm beside the library's SLSQP solve, otherwise one SLSQP solve
    from y0 (the origin when y0 is None).
    """
    model = GrowthModel(UncertaintySet((triplet,)), utility)
    if region.d == 1:
        lo, hi = region.poly.bounds
        x, value = golden_max(lambda t: model.robust(np.array([t]))[0], lo[0], hi[0])
        return np.array([x]), value
    start = np.zeros(region.d) if y0 is None else y0
    y, _ = _slsqp_max(model, region, start)
    return y, model.robust(y)[0]


def mixture_min(theta: UncertaintySet, feasible: Polyhedron,
                utility: UtilitySpec) -> tuple[float, float, np.ndarray]:
    """Bracket min over mixtures w of max over y of sum_i w_i G_i(y) by
    Kelley's cutting planes; return (lower, upper, weights).

    That function of w is convex, and a best response y_w to any mixture
    gives the cut w' -> sum_i w'_i G_i(y_w) below it. From uniform weights,
    each round runs one best response on :func:`response_region` (warm-started
    from the last), adds its cut and solves the master LP min t subject to
    cut_j . w <= t over the simplex: its optimum is the lower bound and its
    argmin the next mixture. The smallest best-response value is the upper
    bound, and weights the mixture that reached it. Stops when the bracket is
    within 1e-7 (1 + |upper|) or after 60 cuts.
    """
    k = len(theta.vertices)
    model = GrowthModel(theta, utility)
    region = response_region(theta, feasible)
    cost = np.append(np.zeros(k), 1.0)
    a_eq = np.append(np.ones(k), 0.0)[None, :]
    bounds = [(0.0, None)] * k + [(None, None)]
    weights = np.full(k, 1.0 / k)
    lower, upper, best, y = -math.inf, math.inf, weights, None
    cuts: list[np.ndarray] = []
    while len(cuts) < KELLEY_MAX_CUTS:
        y, value = single_max(theta.mix(weights), region, utility, y0=y)
        if value < upper:
            upper, best = value, weights
        if k == 1:
            return value, value, weights
        cuts.append(np.append(model.vertex_values(y), -1.0))
        res = linprog(cost, A_ub=np.array(cuts), b_ub=np.zeros(len(cuts)),
                      A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
        lower = float(res.fun)
        weights = np.clip(res.x[:k], 0.0, None)
        weights /= weights.sum()
        if upper - lower <= KELLEY_RTOL * (1.0 + abs(upper)):
            break
    return lower, upper, best


def nearest_point(poly: Polyhedron, y: np.ndarray) -> np.ndarray:
    """The point of poly nearest to y, by SLSQP on half the squared distance,
    started at the origin, which every polytope here contains."""
    y = np.asarray(y, dtype=float)
    faces = {"type": "ineq", "fun": lambda x: poly.offsets - poly.normals @ x,
             "jac": lambda x: -poly.normals}
    res = minimize(lambda x: 0.5 * float((x - y) @ (x - y)), np.zeros_like(y),
                   jac=lambda x: x - y, method="SLSQP", constraints=[faces],
                   options={"maxiter": 500, "ftol": 1e-16})
    return res.x


def martingale_check(triplet: LevyTriplet, pi: np.ndarray, utility: UtilitySpec,
                     horizon: float, n_paths: int, seed: int) -> tuple[McEstimate, bool]:
    """Unit-expectation test of the normalized power wealth process.

    Estimates E[(W_T)^p / exp(p T g)] at unit capital, which is exactly 1,
    and passes when the estimate is within 3.5 standard errors of 1. Only
    defined for power utility and strategies with a finite growth rate.
    """
    if utility.p == 0.0:
        raise ValueError("the martingale check requires power utility")
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    rate = growth_rate(triplet, pi, utility).value
    if not math.isfinite(rate):
        raise ValueError("the growth rate must be finite at this strategy")
    log_w = _log_wealth(triplet, pi, horizon, n_paths, seed)
    p = utility.p
    with np.errstate(over="ignore"):
        values = np.exp(p * log_w - p * horizon * rate)
    estimate = _estimate(values, n_paths, seed)
    passed = bool(abs(estimate.mean - 1.0) <= 3.5 * estimate.stderr)
    return estimate, passed


def unique_atom_table(vertices) -> tuple[np.ndarray, np.ndarray]:
    """(locations, rates) of the vertices' atom table as np.unique(axis=0)
    merges the listed atoms: distinct rows in order of first appearance, and
    their rates summed per vertex in listing order."""
    listed = np.concatenate([v.jumps.locations for v in vertices])
    owner = np.repeat(np.arange(len(vertices)), [v.jumps.m for v in vertices])
    _, first, atom = np.unique(listed, axis=0, return_index=True, return_inverse=True)
    rates = np.zeros((len(first), len(vertices)))
    np.add.at(rates, (np.argsort(np.argsort(first))[atom.ravel()], owner),
              np.concatenate([v.jumps.rates for v in vertices]))
    return listed[np.sort(first)], rates


def clamped_matrix(c: np.ndarray) -> np.ndarray:
    """A (d, d) diffusion matrix clamped one matrix at a time: if c is
    symmetric and the smallest eigenvalue of (c + c^T) / 2 lies in
    [-PSD_TOL, 0), c is rebuilt from those eigenpairs with the eigenvalues
    clipped to 0; otherwise c is returned as given."""
    with np.errstate(invalid="ignore"):
        symmetric = np.abs(c - c.T).max() <= SYMMETRY_TOL
    if symmetric:
        w, v = np.linalg.eigh((c + c.T) / 2.0)
        if -PSD_TOL <= w.min() < 0.0:
            return (v * np.clip(w, 0.0, None)) @ v.T
    return c


def one_triplet(b: np.ndarray, c: np.ndarray, jumps: JumpMeasure) -> LevyTriplet:
    """LevyTriplet(b, c, jumps) holding clamped_matrix(c), so the library's
    batched clamp is compared with the per-matrix one, not with itself."""
    triplet = LevyTriplet(b, c, jumps)
    object.__setattr__(triplet, "c", clamped_matrix(c))
    return triplet


def triplets_of(model: dict) -> tuple[LevyTriplet, ...]:
    """The vertices of a model file's Theta, built one triplet at a time by
    :func:`one_triplet`: a vertex list as listed, a box corner by corner."""
    d = model["dimension"]
    theta = model["Theta"]
    if "vertices" in theta:
        vertices = []
        for vertex in theta["vertices"]:
            c = np.array(vertex["c"], dtype=float).reshape(d, d)
            atoms = [(atom["rate"], atom["location"])
                     for atom in (vertex.get("jumps") or {}).get("atoms", [])]
            vertices.append(one_triplet(np.array(vertex["b"], dtype=float), c,
                                        JumpMeasure.from_atoms(atoms, dimension=d)))
        return tuple(vertices)
    box = theta["box"]
    base = np.array(box.get("c_base", np.eye(d)), dtype=float)
    atoms = box.get("atoms", [])
    params = [(lo,) if lo == hi else (lo, hi)
              for lo, hi in (*box["b"], box.get("c_scale", [1.0, 1.0]),
                             *(atom["rate"] for atom in atoms))]
    return tuple(
        one_triplet(np.array(corner[:d], dtype=float), corner[d] * base,
                    JumpMeasure.from_atoms([(rate, atom["location"]) for rate, atom
                                            in zip(corner[d + 1:], atoms) if rate > 0.0],
                                           dimension=d))
        for corner in itertools.product(*params))


def resolved_digest(spec, vertices) -> str:
    """The digest of spec with its constraints and the given vertices
    serialized one NumPy scalar at a time."""
    resolved = dict(spec.resolved)
    resolved["C"] = {"halfspaces": [{"normal": list(n), "offset": float(o)} for n, o
                                    in zip(spec.constraints.normals, spec.constraints.offsets)]}
    resolved["Theta"] = {"vertices": [
        {"b": list(v.b), "c": [list(row) for row in v.c],
         "jumps": {"atoms": [{"rate": float(r), "location": list(z)}
                             for r, z in zip(v.jumps.rates, v.jumps.locations)]}}
        for v in vertices]}
    return hashlib.sha256(canonical_json(resolved).encode("utf-8")).hexdigest()


def one_shot_log_wealth(triplet: LevyTriplet, pi: np.ndarray, horizon: float,
                        n_paths: int, seed: int) -> np.ndarray:
    """log(W_T / x0) drawn as the sampler first drew it: per chunk, every jump
    at once through Generator.choice, summed per path by np.bincount."""
    jumps = triplet.jumps
    total = jumps.total_rate
    drift = triplet.b - jumps.truncated_mean()
    base = float(pi @ drift) * horizon - 0.5 * float(pi @ triplet.c @ pi) * horizon
    scale = math.sqrt(max(float(pi @ triplet.c @ pi), 0.0) * horizon)
    jump_proj = jumps.locations @ pi
    out = np.empty(n_paths)
    for chunk_id, start in enumerate(range(0, n_paths, _CHUNK)):
        chunk = out[start:start + _CHUNK]
        rng = _generator(seed, int(_CHUNK_STREAM) + chunk_id)
        counts = rng.poisson(total * horizon, size=len(chunk))
        projected = jump_proj[rng.choice(jumps.m, size=int(counts.sum()),
                                         p=jumps.rates / total)]
        jump_sum = np.bincount(np.repeat(np.arange(len(chunk)), counts),
                               weights=np.log1p(projected), minlength=len(chunk))
        rng.standard_normal(out=chunk)
        chunk *= scale
        chunk += base
        chunk += jump_sum
    return out
