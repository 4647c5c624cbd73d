"""Robust growth maximization over a strategy polytope and saddle-point extraction.

The solver maximizes the worst-case growth rate (a concave function of the
strategy) over the compact intersection of the user constraints with the
no-bankruptcy halfspaces. Multidimensional problems run one smooth epigraph
solve (SLSQP) at each of the two most tightened levels of the shrink
schedule and report its first-order residual; one-dimensional problems use
golden-section search directly. The saddle's mixture on the uncertainty
simplex comes from a stationarity LP at the maximizer, and it must pass
explicit residual checks before it is returned.
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
    """Robust maximizer, its worst-case growth rate, and solve diagnostics.

    ``value`` is the expected-utility value at unit capital and unit horizon;
    rescale with :func:`problem_value` for other capital or horizons.
    """

    y_hat: np.ndarray
    robust_g: float
    value: float
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
        Difference between the mixture's best response value and the
        solved worst-case value (outer minus inner estimate).
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
    """A constraint polyhedron with projection and sampling helpers."""

    def __init__(self, poly: Polyhedron):
        self.poly = poly
        self.d = poly.dimension
        self._row_norm2 = (poly.normals ** 2).sum(axis=1) if poly.m else np.zeros(0)

    @property
    def interval(self) -> tuple[float, float]:
        if self.d != 1:
            raise ValueError("interval is only defined in one dimension")
        lo, hi = self.poly.bounds
        return float(lo[0]), float(hi[0])

    def contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        return self.poly.contains(y, tol)

    def project(self, y: np.ndarray) -> np.ndarray:
        """Euclidean projection by Dykstra's algorithm over the halfspaces."""
        y = np.asarray(y, dtype=float)
        if self.poly.contains(y, tol=0.0):
            return y
        x = y.copy()
        corrections = np.zeros((self.poly.m, self.d))
        for _ in range(100):
            shift = 0.0
            for j in range(self.poly.m):
                z = x + corrections[j]
                viol = self.poly.normals[j] @ z - self.poly.offsets[j]
                if viol > 0.0:
                    x_new = z - (viol / self._row_norm2[j]) * self.poly.normals[j]
                else:
                    x_new = z
                corrections[j] = z - x_new
                shift = max(shift, float(np.max(np.abs(x - x_new))))
                x = x_new
            if shift < 1e-13:
                break
        return self._pull_inside(x)

    def _pull_inside(self, y: np.ndarray) -> np.ndarray:
        """Scale toward the origin until feasible; valid because offsets are >= 0."""
        if self.poly.m == 0 or np.any(self.poly.offsets < 0.0):
            return y
        vals = self.poly.normals @ y
        scale = 1.0
        for v, o in zip(vals, self.poly.offsets):
            if v > o:
                scale = min(scale, o / v if v > 0 else 0.0)
        if scale < 1.0:
            y = y * scale * (1.0 - 1e-12)
        return y

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random interior point along a ray from the origin.

        The ray's exit distance comes from the halfspaces alone: a ray that
        stays inside them forever has no bounded exit, box or not.
        """
        for _ in range(32):
            direction = rng.standard_normal(self.d)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            direction /= norm
            t_max = math.inf
            if self.poly.m:
                rays = self.poly.normals @ direction
                for r, o in zip(rays, self.poly.offsets):
                    if r > 1e-14:
                        t_max = min(t_max, o / r)
            if not math.isfinite(t_max) or t_max <= 1e-12:
                continue
            return direction * t_max * rng.uniform(0.05, 0.9)
        return np.zeros(self.d)


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
    """Smooth epigraph solve of max over y of min over vertices, from y0.

    Returns the solution projected onto the region and the raw SLSQP result.
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
    if model.k == 1:
        constraints = []
        if poly.m:
            constraints.append({
                "type": "ineq",
                "fun": lambda y: poly.offsets - poly.normals @ y,
                "jac": lambda y: -poly.normals,
            })
        res = minimize(lambda y: -smoothed(y)[0][0], y0,
                       jac=lambda y: -smoothed(y)[1][0],
                       method="SLSQP", constraints=constraints,
                       options={"maxiter": 300, "ftol": 1e-14})
        return region.project(res.x), res

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
                y0: np.ndarray | None = None, floor: float = -1.0 + 0.5 / 1024,
                extra_starts: int = 0, seed: int = 0) -> tuple[np.ndarray, float]:
    """Concave maximization of a single triplet's growth rate over the region."""
    model = GrowthModel(UncertaintySet((triplet,)), utility)
    if region.d == 1:
        lo, hi = region.interval
        x, value = golden_max(lambda t: model.robust_value(np.array([t])), lo, hi)
        return np.array([x]), value
    starts: list[np.ndarray] = []
    if y0 is not None:
        starts.append(np.asarray(y0, dtype=float))
    starts.append(np.zeros(region.d))
    rng = np.random.default_rng([seed, 7])
    for _ in range(extra_starts):
        starts.append(region.sample(rng))
    best_y, best_v = None, -math.inf
    for start in starts:
        y, _ = _slsqp_max(model, region, start, floor)
        value = model.robust_value(y)
        if value > best_v:
            best_y, best_v = y, value
    return best_y, best_v


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
    count, and the first-order residual of the returned strategy on the
    untightened polytope. Raises DidNotConvergeError when the value still
    moves by more than value_tol across the final two levels, and
    NotCompactError when the feasible set is unbounded.
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
    if region.d > 1:
        diagnostics["kkt_residual"] = optimality_residual(theta, feasible, utility, y)
    _, worst_idx = model.robust(y)
    weights = np.zeros(model.k)
    weights[worst_idx] = 1.0
    return Solution(y_hat=y, robust_g=value,
                    value=problem_value(value, utility, 1.0, 1.0),
                    worst_vertex_weights=weights, diagnostics=diagnostics)


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
    solver's 1e-9 resolution (both relative to the worst value). Certification
    requires all three residuals to stay within certify_tol, which defaults
    to 10 * value_tol; otherwise SaddleNotCertifiedError carries the
    candidate.
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
    """Recheck a saddle candidate from scratch.

    Recomputes (a) the best response value against the candidate mixture by
    single-triplet concave maximization, (b) the worst vertex value at the
    candidate strategy, and (c) a fresh robust solve, and compares each with
    the candidate value.
    """
    model = GrowthModel(theta, utility)
    defaults = SolveOptions()
    inner_region, floor = _response_region(theta, feasible, defaults.shrink_schedule[-1])
    mixed = theta.mix(candidate.theta_hat_weights)
    _, sup_mixture = _single_max(mixed, inner_region, utility, y0=candidate.y_hat,
                                 floor=floor, extra_starts=3, seed=99991)
    worst_at_y = float(np.min(model.vertex_values(candidate.y_hat)))
    fresh = maximize_robust(theta, feasible, utility, defaults)
    checks = {
        "max_y": sup_mixture,
        "min_theta": worst_at_y,
        "sup_inf": fresh.robust_g,
    }
    residuals = {name: abs(value - candidate.value) for name, value in checks.items()}
    ok = all(r <= tol for r in residuals.values())
    return ok, {"checks": checks, "residuals": residuals, "tolerance": tol}


def _composition_grid(k: int, m: int) -> np.ndarray:
    """All nonnegative integer compositions of m into k parts, scaled to the simplex."""

    def rec(remaining: int, parts: int):
        if parts == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    return np.array(list(rec(m, k)), dtype=float) / m


def mixture_grid_min(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                     n_points: int = 200, seed: int = 0) -> tuple[float, np.ndarray]:
    """Grid estimate of the mixture player's optimal best-response value.

    Spends roughly 60 percent of the ``n_points`` evaluation budget on the
    densest uniform simplex grid that fits, then refines around the incumbent
    on the same lattice: single-coordinate transfer moves at the current mesh,
    halving the mesh whenever no neighbour improves. Lattice points are exact
    integer fractions, so revisits cost nothing and the search is
    deterministic. Returns the smallest best-response value seen and its
    mixture.
    """
    k = len(theta.vertices)
    inner_region, floor = _response_region(theta, feasible, SolveOptions().shrink_schedule[-1])

    warm: list[np.ndarray | None] = [None]

    def best_response(weights: np.ndarray) -> float:
        mixed = theta.mix(weights)
        y_w, value = _single_max(mixed, inner_region, utility, y0=warm[0],
                                 floor=floor, seed=seed)
        warm[0] = y_w
        return value

    if k == 1:
        w = np.ones(1)
        return best_response(w), w

    memo: dict[tuple, float] = {}
    spent = [0]

    def value_at(counts: np.ndarray, denom: int) -> float:
        g = int(np.gcd.reduce(np.concatenate([counts, [denom]])))
        key = (denom // g, tuple(int(c) // g for c in counts))
        if key not in memo:
            spent[0] += 1
            memo[key] = best_response(counts / denom)
        return memo[key]

    mesh = 1
    while math.comb(mesh + k, k - 1) <= int(0.6 * n_points):
        mesh += 1
    coarse = np.rint(_composition_grid(k, mesh) * mesh).astype(int)
    best_value, best_counts, denom = math.inf, coarse[0], mesh
    for counts in coarse:
        value = value_at(counts, mesh)
        if value < best_value:
            best_value, best_counts = value, counts
    while spent[0] < n_points and denom <= 4096:
        step_value, step_counts = best_value, None
        for i in range(k):
            for j in range(k):
                if i == j or best_counts[j] == 0:
                    continue
                neighbour = best_counts.copy()
                neighbour[i] += 1
                neighbour[j] -= 1
                value = value_at(neighbour, denom)
                if value < step_value:
                    step_value, step_counts = value, neighbour
                if spent[0] >= n_points:
                    break
            if spent[0] >= n_points:
                break
        if step_counts is None:
            denom *= 2
            best_counts = best_counts * 2
        else:
            best_value, best_counts = step_value, step_counts
    return best_value, best_counts / denom
