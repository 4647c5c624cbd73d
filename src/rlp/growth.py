"""Growth rate of expected utility for constant-proportion strategies.

For a triplet (b, c, F) and a strategy y, the growth rate is

    y . b + ((p - 1) / 2) y . c y + sum over atoms of rate * J_y(z)

with the per-jump term J_y(z) = log(1 + y . z) - y . h(z) for log utility and
J_y(z) = ((1 + y . z)^p - 1) / p - y . h(z) for power utility. Values live in
[-inf, inf): the log and negative-power branches degrade to -inf at or beyond
the bankruptcy boundary 1 + y . z = 0, while the fractional-power branch is
finite on [-1, inf) and undefined to the left of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AtSingularityError, OutsideDomainError
from .levy import LevyTriplet, UncertaintySet, UtilitySpec, truncation

# Gradients are refused when a jump factor is this close to the singularity.
SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class GrowthEvaluation:
    """Growth rate split into its drift, diffusion, and jump contributions."""

    value: float
    drift_term: float
    diffusion_term: float
    jump_term: float


def _phi(s: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The jump function of s = y . z and its slope in s: log(1 + s) and
    1 / (1 + s) for p = 0, ((1 + s)^p - 1) / p and (1 + s)^(p - 1) otherwise.
    Callers handle s <= -1, where either may be inf or nan."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if p == 0.0:
            return np.log1p(s), 1.0 / (1.0 + s)
        return ((1.0 + s) ** p - 1.0) / p, (1.0 + s) ** (p - 1.0)


def _jump_terms(s: np.ndarray, hterm: np.ndarray, p: float) -> np.ndarray:
    """Vectorized J_y(z) from s = y . z and hterm = y . h(z). May contain -inf."""
    s = np.asarray(s, dtype=float)
    vals = _phi(s, p)[0] - hterm
    if 0.0 < p < 1.0:
        if np.any(s < -1.0):
            raise OutsideDomainError(
                "fractional-power jump term is undefined where 1 + y . z < 0")
        # Finite at s = -1 since 0^p = 0 for p > 0.
        return vals
    return np.where(s > -1.0, vals, -np.inf)


def jump_integrand(y: np.ndarray, z: np.ndarray, utility: UtilitySpec) -> float:
    """Single-jump term J_y(z); -inf past the bankruptcy boundary for p <= 0."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    s = float(y @ z)
    hterm = float(y @ truncation(z))
    return float(_jump_terms(np.array([s]), np.array([hterm]), utility.p)[0])


class GrowthModel:
    """Vectorized growth-rate evaluator over the vertices of an uncertainty set.

    Reads the set's stacked drift, diffusion and atom arrays (see
    :class:`UncertaintySet`), so the per-vertex values at a strategy y come
    out of a handful of numpy calls over the m distinct atoms: ``rates`` is
    the (m, k) table of rates per atom and vertex.
    """

    def __init__(self, theta: UncertaintySet, utility: UtilitySpec):
        self.theta = theta
        self.utility = utility
        self.p = utility.p
        self.k = len(theta)
        self.d = theta.dimension
        self.drifts = theta.drifts
        self.diffusions = theta.diffusions
        self.locations = theta.locations
        self.rates = theta.rates
        self.truncated = truncation(self.locations)

    def _per_vertex(self, terms: np.ndarray) -> np.ndarray:
        """Rate-weighted sums of the per-atom terms, one per vertex; an atom a
        vertex lacks adds nothing there, even where its term is -inf."""
        return (self.rates * np.where(self.rates != 0.0, terms[:, None], 0.0)).sum(axis=0)

    def _atoms(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rates, locations and truncated locations of the atoms vertex i carries."""
        idx = np.flatnonzero(self.rates[:, i])
        return self.rates[idx, i], self.locations[idx], self.truncated[idx]

    def vertex_values(self, y: np.ndarray) -> np.ndarray:
        """Growth rates of all vertices at y, shape (k,), entries in [-inf, inf)."""
        y = np.asarray(y, dtype=float)
        vals = self.drifts @ y + 0.5 * (self.p - 1.0) * ((self.diffusions @ y) @ y)
        if len(self.rates):
            vals = vals + self._per_vertex(
                _jump_terms(self.locations @ y, self.truncated @ y, self.p))
        return vals

    def robust(self, y: np.ndarray) -> tuple[float, int]:
        """Worst-case growth rate and the first vertex within a relative 1e-9
        of it, the certificate's resolution floor, so rounding breaks no tie."""
        vals = self.vertex_values(y)
        idx = int(np.argmin(vals))
        low = float(vals[idx])
        if np.isfinite(low):
            idx = int(np.argmax(vals <= low + 1e-9 * (1.0 + abs(low))))
        return low, idx

    def gradient(self, i: int, y: np.ndarray) -> np.ndarray:
        """Supergradient of vertex i at y.

        Refuses points at or numerically at a jump singularity, where the
        one-sided derivative blows up.
        """
        y = np.asarray(y, dtype=float)
        grad = self.drifts[i] + (self.p - 1.0) * (self.diffusions[i] @ y)
        rates, locations, truncated = self._atoms(i)
        if len(rates):
            s = locations @ y
            if np.any(s <= -1.0 + SINGULARITY_TOL):
                raise AtSingularityError(
                    "gradient undefined where a jump factor 1 + y . z hits zero")
            slope = _phi(s, self.p)[1]
            grad = grad + rates @ (locations * slope[:, None] - truncated)
        return grad

    def smoothed(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-vertex values and gradients with each jump term continued along
        its tangent below the jump factor SINGULARITY_TOL.

        The continuation keeps the function finite and C1 for solvers whose
        steps reach or pass a bankruptcy face. Where every jump factor exceeds
        SINGULARITY_TOL, which is wherever :meth:`gradient` is defined, the
        results are exact.
        """
        y = np.asarray(y, dtype=float)
        vals = self.drifts @ y + 0.5 * (self.p - 1.0) * ((self.diffusions @ y) @ y)
        grads = self.drifts + (self.p - 1.0) * (self.diffusions @ y)
        if len(self.rates):
            s = self.locations @ y
            floor = -1.0 + SINGULARITY_TOL
            base, slope = _phi(np.maximum(s, floor), self.p)
            terms = base + slope * np.minimum(s - floor, 0.0) - self.truncated @ y
            vals = vals + self._per_vertex(terms)
            grads = grads + self.rates.T @ (self.locations * slope[:, None] - self.truncated)
        return vals, grads


def growth_rate(triplet: LevyTriplet, y: np.ndarray, utility: UtilitySpec) -> GrowthEvaluation:
    """Growth rate of one triplet at strategy y, with its term decomposition,
    from the triplet's own arrays."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    jumps = triplet.jumps
    drift = float(triplet.b @ y)
    diffusion = 0.5 * (utility.p - 1.0) * float(y @ triplet.c @ y)
    jump = float(jumps.rates @ _jump_terms(jumps.locations @ y,
                                           truncation(jumps.locations) @ y, utility.p))
    return GrowthEvaluation(drift + diffusion + jump, drift, diffusion, jump)


def worst_case_growth(theta: UncertaintySet, y: np.ndarray,
                      utility: UtilitySpec) -> tuple[float, int]:
    """Minimum growth rate over the vertices and the attaining index (first on ties)."""
    return GrowthModel(theta, utility).robust(np.atleast_1d(np.asarray(y, dtype=float)))


def growth_gradient(triplet: LevyTriplet, y: np.ndarray, utility: UtilitySpec) -> np.ndarray:
    """Supergradient of one triplet's growth rate at y."""
    model = GrowthModel(UncertaintySet((triplet,)), utility)
    return model.gradient(0, np.atleast_1d(np.asarray(y, dtype=float)))
