"""Robust growth maximization over a strategy polytope and saddle-point extraction.

The solver maximizes the worst-case growth rate (a concave function of the
strategy) over the compact intersection of the user constraints with the
no-bankruptcy halfspaces. It takes no tuning parameters: every dimension
runs one smooth epigraph solve (SLSQP) on that polytope itself, and every
answer, ``solve``'s included, carries its certificate from that solve. The
saddle's mixture on the uncertainty simplex and its face multipliers are the
solve's own KKT multipliers. Concavity turns them into an upper bound on the
game value by arithmetic alone (:func:`_bracket`); with the worst vertex
value at the strategy as the lower bound, the bracket certifies the pair.
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
    attaining it (first on ties), the saddle certificate read from the same
    solve, and solve diagnostics."""

    y_hat: np.ndarray
    robust_g: float
    worst_vertex: int
    certificate: SaddleCertificate
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
        when inside. The polyhedron lies in its bounding box, so y clipped to
        that box is the answer whenever it is inside. Otherwise: the
        least-distance step min |x| s.t. N (y + x) <= o from one NNLS (Lawson
        and Hanson, ch. 23) on h = N y - o scaled to max 1. When rounding
        leaves its point outside, the step is solved again once from that
        point with every face pulled a relative 1e-12 inward, and when that
        fails too the origin is returned."""
        y = np.asarray(y, dtype=float)
        poly = self.poly
        if poly.contains(y):
            return y
        clipped = np.clip(y, *poly.bounds)
        if poly.contains(clipped):
            return clipped
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
    """Maximize the worst-case growth rate over the feasible polytope, and
    certify the answer from the same solve.

    One smooth epigraph solve (SLSQP) runs from the origin on the feasible
    polytope itself, in every dimension; its no-bankruptcy faces hold every
    jump factor 1 + z . y at 0 or more, and the jump terms are continued
    linearly below the jump factor SINGULARITY_TOL, where gradients are
    refused. The solve's KKT multipliers are the saddle's mixture and face
    multipliers (:func:`_kkt_weights`), which :func:`_bracket` turns into the
    answer's certificate. The diagnostics record the SLSQP status, its
    iteration count and the smallest jump factor at the answer (inf without
    atoms); a nonzero status is not an error, as the certificate judges the
    answer. Raises NotCompactError when the feasible set is unbounded.
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
    weights, multipliers = _kkt_weights(res.multipliers, model.k, feasible.m, worst)
    gvals = model.vertex_values(y)
    support = weights > 0.0
    mixed = float(weights[support] @ gvals[support])
    upper, lower = _bracket(model, feasible, y, weights, multipliers)
    certificate = SaddleCertificate(y, weights, multipliers, mixed,
                                    *_residuals(mixed, upper, lower))
    return Solution(y_hat=y, robust_g=value, worst_vertex=worst, certificate=certificate,
                    diagnostics=diagnostics)


def _kkt_weights(kkt: np.ndarray, k: int, m: int, worst: int) -> tuple[np.ndarray, np.ndarray]:
    """The mixture and the face multipliers from the epigraph solve's KKT
    multipliers, one per constraint row: the k vertex rows G_j(y) >= t, then
    the m faces N y <= o.

    Stationarity in t makes the vertex rows sum to 1 and stationarity in y
    puts the mixture's gradient in the normal cone of the active faces, so
    both are clipped at 0 and divided by the vertex rows' sum. Multipliers
    that are not finite, or vertex rows that sum to 0, give the worst vertex
    alone with zero face multipliers.
    """
    kkt = np.maximum(np.asarray(kkt, dtype=float), 0.0)
    total = float(kkt[:k].sum())
    if not (np.all(np.isfinite(kkt)) and total > 0.0):
        weights = np.zeros(k)
        weights[worst] = 1.0
        return weights, np.zeros(m)
    kkt /= total
    return kkt[:k], kkt[k:]


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


def find_saddle(theta: UncertaintySet, feasible: Polyhedron, utility: UtilitySpec,
                certify_tol: float = 1e-7) -> SaddleCertificate:
    """The certificate of the robust solve (:func:`maximize_robust`) when it
    passes at certify_tol; an uncertified candidate is raised with
    SaddleNotCertifiedError.
    """
    certificate = maximize_robust(theta, feasible, utility).certificate
    if certificate.passes(certify_tol):
        return certificate
    raise SaddleNotCertifiedError(
        "the solve's certificate exceeds the tolerance", certificate=certificate)


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
