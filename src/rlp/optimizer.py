"""Robust growth maximization over a strategy polytope and saddle-point extraction.

The solver maximizes the worst-case growth rate (a concave function of the
strategy) over the compact intersection of the user constraints with the
no-bankruptcy halfspaces. It takes no tuning parameters: every dimension
runs one smooth epigraph solve (SLSQP) on that polytope itself.
:func:`certificate_at` certifies a strategy, and every answer, ``solve``'s
included, carries its certificate. The saddle's mixture on the uncertainty
simplex and its face multipliers come from a nonnegative least-squares fit
of the stationarity condition at the strategy. Concavity turns them into an
upper bound on the game value by arithmetic alone (:func:`_bracket`); with
the worst vertex value at the strategy as the lower bound, the bracket
certifies the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import OptimizeResult, minimize, nnls

from .errors import AtSingularityError, NotCompactError, SaddleNotCertifiedError
from .growth import GrowthModel
from .levy import Polyhedron, UncertaintySet, UtilitySpec

@dataclass(frozen=True, eq=False)
class Solution:
    """Robust maximizer, its worst-case growth rate, the index of the vertex
    attaining it (first on ties), and solve diagnostics."""

    y_hat: np.ndarray
    robust_g: float
    worst_vertex: int
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class SaddleCertificate:
    """Candidate saddle point with its three residual checks.

    face_multipliers
        One nonnegative multiplier per halfspace of the feasible polytope,
        zero on the inactive ones; with the weights they make the dual bound.
    residual_max_y
        How far the mixture is from making y_hat a global maximizer: the
        dual bound minus the mixture's value at y_hat.
    residual_min_theta
        How far y_hat is from making the mixture a worst case.
    gap
        Width of the value bracket: the dual bound (an upper bound) minus the
        worst vertex value at y_hat (a lower bound).
    """

    y_hat: np.ndarray
    theta_hat_weights: np.ndarray
    face_multipliers: np.ndarray
    value: float
    residual_max_y: float
    residual_min_theta: float
    gap: float

    def passes(self, tol: float) -> bool:
        worst = max(abs(self.residual_max_y), abs(self.residual_min_theta), abs(self.gap))
        return math.isfinite(self.value) and worst <= tol


class FeasibleRegion:
    """A constraint polyhedron that contains the origin, with a projection
    that pulls solver output back inside."""

    def __init__(self, poly: Polyhedron):
        self.poly = poly
        self.d = poly.dimension

    def project(self, y: np.ndarray) -> np.ndarray:
        """The point of the polyhedron {x : N x <= o} nearest to y, y itself
        when inside: the least-distance step min |x| s.t. N (y + x) <= o from
        one NNLS (Lawson and Hanson, ch. 23) on h = N y - o scaled to max 1.
        When rounding leaves its point outside, the step is solved again once
        from that point with every face pulled a relative 1e-12 inward, and
        when that fails too the origin is returned."""
        y = np.asarray(y, dtype=float)
        poly = self.poly
        if poly.contains(y):
            return y
        target = np.eye(self.d + 1)[-1]
        start = y
        for inward in (0.0, 1e-12):
            h = poly.normals @ start - poly.offsets + inward * (1.0 + np.abs(poly.offsets))
            scale = float(np.max(h))
            system = np.vstack([-poly.normals.T, h / scale])
            try:
                u, _ = nnls(system, target)
            except (ValueError, RuntimeError):  # non-finite input, or no convergence
                continue
            r = system @ u
            if r[-1] < 1.0:
                x = start + r[:-1] * (scale / (1.0 - r[-1]))
                if poly.contains(x):
                    return x
                start = x
        return np.zeros(self.d)


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


def _slsqp_max(model: GrowthModel, region: FeasibleRegion,
               y0: np.ndarray) -> tuple[np.ndarray, OptimizeResult]:
    """Smooth epigraph solve from y0: maximize t over (y, t) subject to
    G_j(y) >= t for each vertex's smoothed growth rate G_j
    (:meth:`GrowthModel.smoothed`), and y in the region. With one vertex this
    is the maximization of G_1 itself.

    Returns the solution, moved to the region's nearest point when SLSQP
    ends just outside it, and the raw SLSQP result.
    """
    d = region.d
    poly = region.poly
    cache: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    def smoothed(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = y.tobytes()
        if key not in cache:
            if len(cache) > 128:
                cache.clear()
            cache[key] = model.smoothed(y)
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


def maximize_robust(theta: UncertaintySet, feasible: Polyhedron,
                    utility: UtilitySpec) -> Solution:
    """Maximize the worst-case growth rate over the feasible polytope.

    One smooth epigraph solve (SLSQP) runs from the origin on the feasible
    polytope itself, in every dimension; its no-bankruptcy faces hold every
    jump factor 1 + z . y at 0 or more, and the jump terms are continued
    linearly below the jump factor SINGULARITY_TOL, where gradients are
    refused. The diagnostics record the SLSQP status, its iteration count and
    the smallest jump factor at the answer (inf without atoms); a nonzero
    status is not an error, as the certificate (:func:`certificate_at`)
    judges the answer. Raises NotCompactError when the feasible set is
    unbounded.
    """
    model = GrowthModel(theta, utility)
    if not feasible.compact:
        raise NotCompactError("the feasible set is unbounded; no maximizer exists in general")
    d = feasible.dimension
    y, res = _slsqp_max(model, FeasibleRegion(feasible), np.zeros(d))
    jump = float(np.min(1.0 + theta.locations @ y, initial=math.inf))
    diagnostics = {"method": "slsqp-epigraph", "status": int(res.status),
                   "nit": int(res.nit), "min_jump_factor": jump}
    value, worst = model.robust(y)
    if value <= 0.0:
        # The zero strategy is always feasible here and earns exactly 0 at every vertex.
        y, value, worst = np.zeros(d), 0.0, 0
    return Solution(y_hat=y, robust_g=value, worst_vertex=worst, diagnostics=diagnostics)


def _stationarity_weights(model: GrowthModel, poly: Polyhedron, y: np.ndarray,
                          gvals: np.ndarray, atol: float) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares search for an active-vertex mixture whose gradient lies in
    the normal cone of the active faces.

    Nonnegative least squares (Lawson-Hanson) fits the mixture weights w and
    face multipliers lam to G^T w - N^T lam = 0, with one extra row
    rho * sum(w) = rho, rho = 1 + max |G|, that holds the weights near the
    simplex; both are then divided by sum(w). Returns the mixture and the
    face multipliers (one per row of poly, zero on the inactive rows).
    """
    k = model.k
    gmin = float(np.min(gvals))
    fallback = np.zeros(k)
    fallback[int(np.argmin(gvals))] = 1.0
    multipliers = np.zeros(poly.m)
    if not math.isfinite(gmin):
        return fallback, multipliers
    active_v = np.flatnonzero(gvals <= gmin + atol)
    try:
        grads = np.array([model.gradient(i, y) for i in active_v])
    except AtSingularityError:
        return fallback, multipliers
    slack = poly.offsets - poly.normals @ y
    active_f = np.flatnonzero(np.abs(slack) <= 1e-8 * (1.0 + np.abs(poly.offsets)))
    na = len(active_v)
    system = np.hstack([grads.T, -poly.normals[active_f].T])
    rho = 1.0 + float(np.max(np.abs(grads)))
    simplex_row = np.concatenate([np.full(na, rho), np.zeros(len(active_f))])
    target = np.append(np.zeros(model.d), rho)
    try:
        x, _ = nnls(np.vstack([system, simplex_row]), target)
    except (ValueError, RuntimeError):  # a non-finite gradient, or no convergence
        return fallback, multipliers
    total = float(x[:na].sum())
    if not total > 0.0:
        return fallback, multipliers
    x /= total
    weights = np.zeros(k)
    weights[active_v] = x[:na]
    multipliers[active_f] = x[na:]
    return weights, multipliers


def _bracket(model: GrowthModel, feasible: Polyhedron, y, weights,
             multipliers) -> tuple[float, float]:
    """Bracket on the game value over the feasible polytope {x : N x <= o}
    from a strategy y, a mixture w and face multipliers lam, by arithmetic
    alone: returns (dual bound, worst vertex value at y).

    The bracket is sound only for y inside the polytope, w on the simplex and
    finite lam >= 0, one per halfspace; otherwise it is (inf, -inf). Each
    vertex growth rate is concave, so the mixture f = sum_i w_i G_i lies below
    its tangent plane at y, and for every feasible x

        f(x) <= f(y) + lam . (o - N y) + r . (x - y),  r = g - N^T lam,

    where g is the gradient of f at y (weak duality, the linearization bound
    behind the Frank-Wolfe duality gap). The polytope lies in its cached
    bounding box [lo, hi], so the last term is at most
    sum_j max(r_j (hi_j - y_j), r_j (lo_j - y_j)), coordinate by coordinate,
    and the game value is at most the maximum of f. The dual bound is inf
    where a mixture gradient is singular at y or the sum is not finite.
    """
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    multipliers = np.asarray(multipliers, dtype=float)
    sound = (y.shape == (model.d,) and np.all(np.isfinite(y))
             and feasible.contains(y)
             and weights.shape == (model.k,) and np.all(weights >= 0.0)
             and abs(weights.sum() - 1.0) <= 1e-12
             and multipliers.shape == (feasible.m,) and np.all(np.isfinite(multipliers))
             and np.all(multipliers >= 0.0))
    if not sound:
        return math.inf, -math.inf
    gvals = model.vertex_values(y)
    lower = float(np.min(gvals))
    support = np.flatnonzero(weights > 0.0)
    try:
        grads = np.array([model.gradient(i, y) for i in support])
    except AtSingularityError:
        return math.inf, lower
    residual = weights[support] @ grads - feasible.normals.T @ multipliers
    slack = feasible.offsets - feasible.normals @ y
    lo, hi = feasible.bounds
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN: the bound is inf
        reach = float(np.sum(np.maximum(residual * (hi - y), residual * (lo - y))))
    bound = float(weights[support] @ gvals[support]) + float(multipliers @ slack) + reach
    return (bound if math.isfinite(bound) else math.inf), lower


def _residuals(value: float, upper: float, lower: float) -> tuple[float, float, float]:
    """Distances of value from both bounds, and the bracket width; all inf unless finite."""
    if not math.isfinite(value):
        return math.inf, math.inf, math.inf
    return upper - value, value - lower, upper - lower


def certificate_at(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                   y: np.ndarray, tol: float) -> SaddleCertificate:
    """The saddle certificate of strategy y at tolerance tol.

    The mixture and the face multipliers are the least-squares stationarity
    fit at y (:func:`_stationarity_weights`): the mixture's gradient lies in,
    or as near as the fit gets to, the normal cone of the polytope there.
    Vertices count as active within a quarter of tol, but never closer than
    the solver's 1e-9 resolution (both relative to the worst value).
    :func:`_bracket` bounds the game value from above and below; the
    residuals are the distances of the mixture's value from the two bounds,
    and the gap is the bracket's width (:func:`_residuals`). The certificate
    passes at tol when all three are within it.
    """
    model = GrowthModel(theta, utility)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    gvals = model.vertex_values(y)
    gmin = float(np.min(gvals))
    weights, multipliers = _stationarity_weights(
        model, feasible, y, gvals, atol=max(0.25 * tol, 1e-9) * (1.0 + abs(gmin)))
    support = weights > 0.0
    value = float(weights[support] @ gvals[support])
    upper, lower = _bracket(model, feasible, y, weights, multipliers)
    return SaddleCertificate(y, weights, multipliers, value, *_residuals(value, upper, lower))


def find_saddle(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                certify_tol: float = 1e-7) -> SaddleCertificate:
    """Solve for the strategy (:func:`maximize_robust`) and certify it
    (:func:`certificate_at`) at certify_tol; an uncertified candidate is
    raised with SaddleNotCertifiedError.
    """
    solution = maximize_robust(theta, feasible, utility)
    certificate = certificate_at(theta, feasible, utility, solution.y_hat, certify_tol)
    if certificate.passes(certify_tol):
        return certificate
    raise SaddleNotCertifiedError(
        "the stationarity mixture's residuals exceed the tolerance", certificate=certificate)


def verify_saddle(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                  candidate: SaddleCertificate, tol: float = 1e-6) -> tuple[bool, dict]:
    """Recheck a saddle candidate by bracketing the game value from its own numbers.

    ``max_y`` and ``min_theta`` are the candidate's bracket (see
    :func:`_bracket`): the dual bound of its mixture and face multipliers at
    its strategy, an upper bound on the value, and the worst vertex value at
    its strategy, a lower bound. The candidate passes when both lie within
    tol of its value and the bracket width ``gap`` = max_y - min_theta is
    within tol too. An unsound candidate fails with max_y = inf and
    min_theta = -inf, and one whose mixture gradient is singular with
    max_y = inf.
    """
    max_y, min_theta = _bracket(GrowthModel(theta, utility), feasible, candidate.y_hat,
                                candidate.theta_hat_weights, candidate.face_multipliers)
    above, below, gap = _residuals(candidate.value, max_y, min_theta)
    residuals = {"max_y": abs(above), "min_theta": abs(below), "gap": gap}
    ok = all(abs(r) <= tol for r in residuals.values())
    return ok, {"checks": {"max_y": max_y, "min_theta": min_theta},
                "residuals": residuals, "tolerance": tol}
