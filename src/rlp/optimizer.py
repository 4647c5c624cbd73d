"""Robust growth maximization over a strategy polytope and saddle-point extraction.

The solver maximizes the worst-case growth rate (a concave function of the
strategy) over the compact intersection of the user constraints with the
no-bankruptcy halfspaces. Multidimensional problems run one smooth epigraph
solve (SLSQP) at each of the two most tightened levels of the shrink
schedule; one-dimensional problems use golden-section search directly.
:func:`optimality_residual` gives a strategy's first-order residual, which
the ``solve`` report carries for multidimensional problems. The saddle's
mixture on the uncertainty simplex comes from a stationarity LP at the
maximizer; the best response to it and the worst vertex value at the
maximizer bracket the game value, and the bracket certifies the pair.
:func:`mixture_min` solves the mixture player's side by Kelley's cutting
planes and brackets its value the same way. Every multidimensional solve,
robust or a best response to one triplet, is the same SLSQP epigraph
problem; a best response is its one-vertex case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, linprog, minimize

from .errors import (
    AtSingularityError,
    DidNotConvergeError,
    NotCompactError,
    SaddleNotCertifiedError,
)
from .growth import GrowthModel
from .levy import (
    LevyTriplet,
    Polyhedron,
    UncertaintySet,
    UtilitySpec,
    natural_constraints,
)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Kelley's cutting planes stop on this relative bracket width, or this many cuts.
_KELLEY_RTOL = 1e-7
_KELLEY_MAX_CUTS = 60


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs; the defaults match the documented behaviour."""

    value_tol: float = 1e-8
    y_tol: float = 1e-8
    shrink_schedule: tuple[int, ...] = (4, 16, 64, 256, 1024)

    def __post_init__(self):
        if self.value_tol <= 0 or self.y_tol <= 0:
            raise ValueError("tolerances must be positive")
        schedule = tuple(int(n) for n in self.shrink_schedule)
        if not schedule or any(n < 2 for n in schedule):
            raise ValueError("shrink levels must be integers of at least 2")
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            raise ValueError("shrink levels must be strictly increasing")
        object.__setattr__(self, "shrink_schedule", schedule)


@dataclass(frozen=True, eq=False)
class Solution:
    """Robust maximizer, its worst-case growth rate, and solve diagnostics."""

    y_hat: np.ndarray
    robust_g: float
    worst_vertex_weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SaddleCertificate:
    """Candidate saddle point with its three residual checks.

    residual_max_y
        How far the mixture is from making y_hat a global maximizer.
    residual_min_theta
        How far y_hat is from making the mixture a worst case.
    gap
        Width of the value bracket: the mixture's best response value (an
        upper bound) minus the worst vertex value at y_hat (a lower bound).
    """

    y_hat: np.ndarray
    theta_hat_weights: np.ndarray
    value: float
    residual_max_y: float
    residual_min_theta: float
    gap: float

    def passes(self, tol: float) -> bool:
        worst = max(abs(self.residual_max_y), abs(self.residual_min_theta), abs(self.gap))
        return math.isfinite(self.value) and worst <= tol


class FeasibleRegion:
    """A constraint polyhedron that contains the origin, with a projection
    helper that pulls solver output back inside."""

    def __init__(self, poly: Polyhedron):
        self.poly = poly
        self.d = poly.dimension

    @property
    def interval(self) -> tuple[float, float]:
        if self.d != 1:
            raise ValueError("interval is only defined in one dimension")
        lo, hi = self.poly.bounds
        return float(lo[0]), float(hi[0])

    def project(self, y: np.ndarray) -> np.ndarray:
        """Return y when inside, else y scaled toward the origin until every
        halfspace holds, with a relative 1e-12 inward margin. The origin is
        feasible because every offset is nonnegative."""
        y = np.asarray(y, dtype=float)
        if self.poly.contains(y, tol=0.0):
            return y
        vals = self.poly.normals @ y
        outside = vals > self.poly.offsets
        scale = float(np.min(self.poly.offsets[outside] / vals[outside], initial=1.0))
        return y * scale * (1.0 - 1e-12)


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


def problem_value(robust_growth: float, utility: UtilitySpec, x0: float, horizon: float) -> float:
    """Expected-utility value from a growth rate: initial capital and horizon applied.

    log:    log(x0) + T * g
    power:  (1/p) * x0**p * exp(p * T * g)

    A growth rate of -inf propagates (value -inf for log and negative powers,
    value 0 for fractional powers). The x0 factor multiplies last, so scaling
    in x0 is exact.
    """
    if x0 <= 0.0:
        raise ValueError("initial capital must be positive")
    if horizon <= 0.0:
        raise ValueError("the horizon must be positive")
    if utility.is_log:
        return math.log(x0) + horizon * robust_growth
    p = utility.p
    if robust_growth == -math.inf:
        exponent = math.inf if p < 0 else -math.inf
    else:
        exponent = p * horizon * robust_growth
    try:
        unit = math.exp(exponent) / p
    except OverflowError:
        unit = math.inf / p
    return (x0 ** p) * unit


def _slsqp_max(model: GrowthModel, region: FeasibleRegion, y0: np.ndarray,
               floor: float) -> tuple[np.ndarray, OptimizeResult]:
    """Smooth epigraph solve from y0: maximize t over (y, t) subject to
    G_j(y) >= t for each vertex's smoothed growth rate G_j, and y in the
    region. With one vertex (a best response) this is the maximization of
    G_1 itself.

    Returns the solution, scaled back into the region when SLSQP ends just
    outside it, and the raw SLSQP result.
    """
    d = region.d
    poly = region.poly
    cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def smoothed(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = y.tobytes()
        if key not in cache:
            if len(cache) > 128:
                cache.clear()
            cache[key] = model.smoothed(y, floor)
        return cache[key]

    y0 = np.asarray(y0, dtype=float)

    def vert_fun(x):
        vals, _ = smoothed(x[:d])
        return vals - x[d]

    def vert_jac(x):
        _, grads = smoothed(x[:d])
        return np.hstack([grads, -np.ones((model.k, 1))])

    constraints = [{"type": "ineq", "fun": vert_fun, "jac": vert_jac}]
    if poly.m:
        lifted = np.hstack([poly.normals, np.zeros((poly.m, 1))])
        constraints.append({
            "type": "ineq",
            "fun": lambda x: poly.offsets - lifted @ x,
            "jac": lambda x: -lifted,
        })
    v0, _ = smoothed(y0)
    x0 = np.append(y0, v0.min())
    obj_grad = np.zeros(d + 1)
    obj_grad[d] = -1.0
    res = minimize(lambda x: -x[d], x0, jac=lambda x: obj_grad,
                   method="SLSQP", constraints=constraints,
                   options={"maxiter": 300, "ftol": 1e-14})
    return region.project(res.x[:d]), res


def _single_max(triplet: LevyTriplet, region: FeasibleRegion, utility: UtilitySpec,
                y0: np.ndarray | None = None,
                floor: float = -1.0 + 0.5 / 1024) -> tuple[np.ndarray, float]:
    """Maximize one triplet's growth rate over the region.

    The growth rate is concave in the strategy, so one local solve is global:
    golden-section search in one dimension, otherwise one SLSQP solve from y0
    (the origin when y0 is None).
    """
    model = GrowthModel(UncertaintySet((triplet,)), utility)
    if region.d == 1:
        lo, hi = region.interval
        x, value = golden_max(lambda t: model.robust_value(np.array([t])), lo, hi)
        return np.array([x]), value
    start = np.zeros(region.d) if y0 is None else y0
    y, _ = _slsqp_max(model, region, start, floor)
    return y, model.robust_value(y)


def _response_region(theta: UncertaintySet, feasible: Polyhedron,
                     n_last: int) -> tuple[FeasibleRegion, float]:
    """Region and smoothing floor for best responses: the final shrink level
    in several dimensions, the untightened polytope in one."""
    if feasible.dimension > 1:
        feasible = feasible.intersect(natural_constraints(theta, n_last))
    return FeasibleRegion(feasible), -1.0 + 0.5 / n_last


def maximize_robust(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                    opts: SolveOptions | None = None) -> Solution:
    """Maximize the worst-case growth rate over the feasible polytope.

    One-dimensional problems are solved by golden-section search on the
    concave worst-case envelope. Otherwise one smooth epigraph solve (SLSQP)
    runs from the origin at each of the final two shrink levels; earlier
    levels are subsets of the last one and could only lose to it. The
    diagnostics record each solved level's value, SLSQP status and iteration
    count; the first-order residual of the returned strategy is left to
    :func:`optimality_residual`, which the ``solve`` report adds. Raises
    DidNotConvergeError when the value still moves by more than value_tol
    across the final two levels, and NotCompactError when the feasible set
    is unbounded.
    """
    opts = opts or SolveOptions()
    model = GrowthModel(theta, utility)
    region = FeasibleRegion(feasible)
    if not feasible.compact:
        raise NotCompactError("the feasible set is unbounded; no maximizer exists in general")
    diagnostics: dict = {}
    if region.d == 1:
        lo, hi = region.interval
        y_scalar, value = golden_max(lambda t: model.robust_value(np.array([t])),
                                     lo, hi, xtol=min(opts.y_tol * 1e-2, 1e-11))
        y = np.array([y_scalar])
        diagnostics["method"] = "golden-section"
    else:
        floor = -1.0 + 0.5 / opts.shrink_schedule[-1]
        levels: list[dict] = []
        level_values: list[float] = []
        best_y, best_v = None, -math.inf
        previous_signature = None
        for n in opts.shrink_schedule[-2:]:
            shrunk = feasible.intersect(natural_constraints(theta, n))
            signature = shrunk.normals.tobytes() + shrunk.offsets.tobytes()
            if signature == previous_signature:
                level_values.append(level_values[-1])
                continue
            previous_signature = signature
            level_y, res = _slsqp_max(model, FeasibleRegion(shrunk), np.zeros(region.d), floor)
            level_v = model.robust_value(level_y)
            levels.append({"n": n, "value": float(level_v), "status": int(res.status),
                           "nit": int(res.nit)})
            level_values.append(level_v)
            if level_v > best_v:
                best_y, best_v = level_y, level_v
        if len(level_values) >= 2:
            drift = abs(level_values[-1] - level_values[-2])
            if drift > opts.value_tol:
                raise DidNotConvergeError(
                    f"value still moved by {drift:.3e} across the final shrink levels")
        y, value = best_y, best_v
        diagnostics.update({"method": "slsqp-epigraph", "levels_run": len(levels),
                            "levels": levels})
    if value <= 0.0:
        # The zero strategy is always feasible here and earns exactly 0.
        y = np.zeros(region.d)
        value = model.robust_value(y)
    _, worst_idx = model.robust(y)
    weights = np.zeros(model.k)
    weights[worst_idx] = 1.0
    return Solution(y_hat=y, robust_g=value, worst_vertex_weights=weights,
                    diagnostics=diagnostics)


def _stationarity_weights(model: GrowthModel, poly: Polyhedron, y: np.ndarray,
                          gvals: np.ndarray, atol: float) -> tuple[float, np.ndarray]:
    """LP check that some active-vertex mixture gradient lies in the normal cone.

    Returns the best achievable infinity-norm residual and the mixture.
    """
    k = model.k
    gmin = float(np.min(gvals))
    fallback = np.zeros(k)
    fallback[int(np.argmin(gvals))] = 1.0
    if not math.isfinite(gmin):
        return math.inf, fallback
    active_v = np.flatnonzero(gvals <= gmin + atol)
    try:
        grads = np.array([model.gradient(i, y) for i in active_v])
    except AtSingularityError:
        return math.inf, fallback
    if poly.m:
        slack = poly.offsets - poly.normals @ y
        active_f = np.flatnonzero(np.abs(slack) <= 1e-8 * (1.0 + np.abs(poly.offsets)))
        normals = poly.normals[active_f]
    else:
        normals = np.zeros((0, model.d))
    na, nf, d = len(active_v), len(normals), model.d
    # Variables: mixture weights, face multipliers, residual bound t.
    cost = np.zeros(na + nf + 1)
    cost[-1] = 1.0
    rows = []
    for i in range(d):
        row = np.concatenate([grads[:, i], -normals[:, i], [-1.0]])
        rows.append(row)
        rows.append(np.concatenate([-grads[:, i], normals[:, i], [-1.0]]))
    a_ub = np.array(rows)
    b_ub = np.zeros(2 * d)
    a_eq = np.zeros((1, na + nf + 1))
    a_eq[0, :na] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0.0, None)] * (na + nf + 1), method="highs")
    if res.status != 0:
        return math.inf, fallback
    weights = np.zeros(k)
    weights[active_v] = np.clip(res.x[:na], 0.0, None)
    total = weights.sum()
    if total <= 0.0:
        return math.inf, fallback
    return float(res.x[-1]), weights / total


def optimality_residual(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                        y: np.ndarray, atol: float | None = None) -> float:
    """First-order optimality residual of y: distance of the best active-vertex
    mixture gradient from the normal cone of the polytope, via an LP."""
    model = GrowthModel(theta, utility)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    gvals = model.vertex_values(y)
    if atol is None:
        atol = 1e-7 * (1.0 + abs(float(np.min(gvals))))
    residual, _ = _stationarity_weights(model, feasible, y, gvals, atol)
    return residual


def find_saddle(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                opts: SolveOptions | None = None,
                certify_tol: float | None = None) -> SaddleCertificate:
    """Solve for the strategy, then extract and certify a worst-case mixture.

    The mixture is the one the stationarity LP finds at the maximizer: its
    gradient lies in the normal cone of the polytope there. Vertices count as
    active within a quarter of certify_tol, but never closer than the
    solver's 1e-9 resolution (both relative to the worst value). The best
    response to the mixture and the worst vertex value at the maximizer
    bracket the game value; certification requires the bracket and both
    residuals within certify_tol, which defaults to 10 * value_tol;
    otherwise SaddleNotCertifiedError carries the candidate.
    """
    opts = opts or SolveOptions()
    solution = maximize_robust(theta, feasible, utility, opts)
    model = GrowthModel(theta, utility)
    y = solution.y_hat
    gvals = model.vertex_values(y)
    gmin = float(np.min(gvals))
    tol_cert = 10.0 * opts.value_tol if certify_tol is None else float(certify_tol)
    _, weights = _stationarity_weights(model, feasible, y, gvals,
                                       atol=max(0.25 * tol_cert, 1e-9) * (1.0 + abs(gmin)))
    support = weights > 0.0
    value = float(weights[support] @ gvals[support])
    inner_region, floor = _response_region(theta, feasible, opts.shrink_schedule[-1])
    _, sup = _single_max(theta.mix(weights), inner_region, utility, y0=y, floor=floor)
    certificate = SaddleCertificate(
        y_hat=y, theta_hat_weights=weights, value=value,
        residual_max_y=sup - value,
        residual_min_theta=value - gmin,
        gap=sup - solution.robust_g)
    if certificate.passes(tol_cert):
        return certificate
    raise SaddleNotCertifiedError(
        "the stationarity mixture's residuals exceed the tolerance", certificate=certificate)


def verify_saddle(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                  candidate: SaddleCertificate, tol: float = 1e-6) -> tuple[bool, dict]:
    """Recheck a saddle candidate by bracketing the game value.

    ``max_y``, the best response to the candidate mixture (one concave
    maximization on the default final shrink level, started from the
    candidate strategy), is an upper bound on the value; ``min_theta``, the
    worst vertex value at the candidate strategy, is a lower bound. The
    candidate passes when both lie within tol of its value and the bracket
    width ``gap`` = max_y - min_theta is within tol too.
    """
    model = GrowthModel(theta, utility)
    inner_region, floor = _response_region(theta, feasible, SolveOptions().shrink_schedule[-1])
    mixed = theta.mix(candidate.theta_hat_weights)
    _, sup_mixture = _single_max(mixed, inner_region, utility, y0=candidate.y_hat,
                                 floor=floor)
    worst_at_y = float(np.min(model.vertex_values(candidate.y_hat)))
    checks = {"max_y": sup_mixture, "min_theta": worst_at_y}
    residuals = {name: abs(value - candidate.value) for name, value in checks.items()}
    residuals["gap"] = sup_mixture - worst_at_y
    ok = all(abs(r) <= tol for r in residuals.values())
    return ok, {"checks": checks, "residuals": residuals, "tolerance": tol}


def mixture_min(theta: UncertaintySet, feasible: Polyhedron,
                utility: UtilitySpec) -> tuple[float, float, np.ndarray]:
    """Bracket min over mixtures w of max over y of sum_i w_i G_i(y) by
    Kelley's cutting planes; return (lower, upper, weights).

    That function of w is convex, and a best response y_w to any mixture
    gives the cut w' -> sum_i w'_i G_i(y_w) below it. From uniform weights,
    each round runs one best response on the final shrink level (warm-started
    from the last), adds its cut and solves the master LP min t subject to
    cut_j . w <= t over the simplex: its optimum is the lower bound and its
    argmin the next mixture. The smallest best-response value is the upper
    bound, and weights the mixture that reached it. Stops when the bracket is
    within 1e-7 (1 + |upper|) or after 60 cuts.
    """
    k = len(theta.vertices)
    model = GrowthModel(theta, utility)
    region, floor = _response_region(theta, feasible, SolveOptions().shrink_schedule[-1])
    cost = np.append(np.zeros(k), 1.0)
    a_eq = np.append(np.ones(k), 0.0)[None, :]
    bounds = [(0.0, None)] * k + [(None, None)]
    weights = np.full(k, 1.0 / k)
    lower, upper, best, y = -math.inf, math.inf, weights, None
    cuts: list[np.ndarray] = []
    while len(cuts) < _KELLEY_MAX_CUTS:
        y, value = _single_max(theta.mix(weights), region, utility, y0=y, floor=floor)
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
        if upper - lower <= _KELLEY_RTOL * (1.0 + abs(upper)):
            break
    return lower, upper, best
