"""Exact simulation of finite-activity Levy wealth and Monte Carlo cross-checks.

Jumps are compound Poisson, so paths are sampled exactly: a Poisson jump
count, uniform jump times, atom locations drawn proportionally to their
rates, and a Gaussian diffusion increment through the symmetric square root
of the diffusion matrix. Randomness is counter-based: per-path streams derive
from (seed, path index) and chunked estimates derive from (seed, chunk
index), so results never depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeWealthError
from .growth import growth_rate
from .levy import LevyTriplet, UtilitySpec
from .optimizer import problem_value

_CHUNK = 25000
# Chunk streams live in a different key range than per-path streams.
_CHUNK_STREAM = np.uint64(1) << np.uint64(62)


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One exact path summary: diffusion endpoint and the jump list.

    brownian_terminal is the d-vector sqrt(c) B_T, jump_times are increasing
    in [0, horizon], and jump_locations align with them row by row.
    """

    brownian_terminal: np.ndarray
    jump_times: np.ndarray
    jump_locations: np.ndarray
    horizon: float


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error.

    minus_inf marks estimates dragged to -inf by zero-wealth paths under log
    or negative-power utility.
    """

    mean: float
    stderr: float
    n_paths: int
    seed: int
    minus_inf: bool = False


def _generator(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _diffusion_root(c: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(np.asarray(c, dtype=float))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def sample_path(triplet: LevyTriplet, horizon: float, seed: int, index: int) -> PathRecord:
    """Sample one path, reproducibly keyed by (seed, index).

    Draw order is fixed: jump count, jump times, atom choices, then the
    Gaussian vector, so identical keys give identical records.
    """
    if horizon <= 0.0:
        raise ValueError("the horizon must be positive")
    rng = _generator(seed, index)
    d = triplet.dimension
    jumps = triplet.jumps
    total = jumps.total_rate
    if total > 0.0:
        count = int(rng.poisson(total * horizon))
    else:
        count = 0
    if count:
        times = np.sort(rng.uniform(0.0, horizon, size=count))
        chosen = rng.choice(jumps.m, size=count, p=jumps.rates / total)
        locations = jumps.locations[chosen]
    else:
        times = np.zeros(0)
        locations = np.zeros((0, d))
    gauss = rng.standard_normal(d)
    brownian = _diffusion_root(triplet.c) @ gauss * math.sqrt(horizon)
    return PathRecord(brownian_terminal=brownian, jump_times=times,
                      jump_locations=locations, horizon=horizon)


def terminal_wealth(path: PathRecord, triplet: LevyTriplet, strategy: np.ndarray,
                    x0: float) -> float:
    """Terminal wealth of a constant-proportion strategy along one path.

    Compensates the drift by the truncated jump mean, applies the diffusion
    endpoint with its quadratic correction, and multiplies one factor
    1 + strategy . z per jump. A zero factor gives wealth exactly 0; a
    negative factor raises NegativeWealthError.
    """
    if x0 <= 0.0:
        raise ValueError("initial capital must be positive")
    pi = np.atleast_1d(np.asarray(strategy, dtype=float))
    horizon = path.horizon
    drift = triplet.b - triplet.jumps.truncated_mean()
    log_cont = (float(pi @ drift) * horizon + float(pi @ path.brownian_terminal)
                - 0.5 * float(pi @ triplet.c @ pi) * horizon)
    factors = 1.0 + path.jump_locations @ pi if len(path.jump_times) else np.ones(0)
    if np.any(factors < 0.0):
        raise NegativeWealthError(
            "a jump drove wealth negative; the strategy leaves the admissible region")
    if np.any(factors == 0.0):
        return 0.0
    return x0 * math.exp(log_cont) * float(np.prod(factors))


def _log_wealth(triplet: LevyTriplet, pi: np.ndarray, horizon: float,
                n_paths: int, seed: int) -> np.ndarray:
    """log(W_T / x0) for n_paths paths; -inf entries mark zero wealth."""
    pi = np.atleast_1d(np.asarray(pi, dtype=float))
    jumps = triplet.jumps
    total = jumps.total_rate
    drift = triplet.b - jumps.truncated_mean()
    base = float(pi @ drift) * horizon - 0.5 * float(pi @ triplet.c @ pi) * horizon
    scale = math.sqrt(max(float(pi @ triplet.c @ pi), 0.0) * horizon)
    jump_proj = jumps.locations @ pi if jumps.m else np.zeros(0)
    probabilities = jumps.rates / total if total > 0.0 else None

    def one_chunk(chunk_id: int, count: int) -> np.ndarray:
        rng = _generator(seed, int(_CHUNK_STREAM) + chunk_id)
        jump_sum = np.zeros(count)
        if total > 0.0:
            counts = rng.poisson(total * horizon, size=count)
            drawn = int(counts.sum())
            if drawn:
                chosen = rng.choice(jumps.m, size=drawn, p=probabilities)
                projected = jump_proj[chosen]
                if np.any(projected < -1.0):
                    raise NegativeWealthError(
                        "a jump drove wealth negative; the strategy leaves the "
                        "admissible region")
                with np.errstate(divide="ignore"):
                    logs = np.log1p(projected)
                owners = np.repeat(np.arange(count), counts)
                jump_sum = np.bincount(owners, weights=logs, minlength=count)
        gauss = rng.standard_normal(count)
        return base + scale * gauss + jump_sum

    sizes = [_CHUNK] * (n_paths // _CHUNK)
    if n_paths % _CHUNK:
        sizes.append(n_paths % _CHUNK)
    parts = [one_chunk(i, c) for i, c in enumerate(sizes)]
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def _estimate(values: np.ndarray, n_paths: int, seed: int) -> McEstimate:
    if np.any(np.isneginf(values)):
        return McEstimate(mean=-math.inf, stderr=math.inf, n_paths=n_paths,
                          seed=seed, minus_inf=True)
    mean = float(np.mean(values))
    if not math.isfinite(mean):
        return McEstimate(mean=mean, stderr=math.inf, n_paths=n_paths, seed=seed)
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return McEstimate(mean=mean, stderr=stderr, n_paths=n_paths, seed=seed)


def mc_expected_utility(triplet: LevyTriplet, pi: np.ndarray, utility: UtilitySpec,
                        x0: float, horizon: float, n_paths: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of expected terminal utility under one triplet.

    Deterministic given (seed, n_paths). Paths hitting zero wealth push the
    estimate to -inf (flagged) under log or negative-power utility.
    """
    if x0 <= 0.0:
        raise ValueError("initial capital must be positive")
    if horizon <= 0.0:
        raise ValueError("the horizon must be positive")
    if n_paths < 1:
        raise ValueError("at least one path is required")
    log_w = _log_wealth(triplet, pi, horizon, n_paths, seed)
    if utility.is_log:
        utilities = math.log(x0) + log_w
    else:
        p = utility.p
        with np.errstate(over="ignore"):
            utilities = (x0 ** p) * np.exp(p * log_w) / p
    return _estimate(utilities, n_paths, seed)


def closed_form_expected_utility(triplet: LevyTriplet, pi: np.ndarray,
                                 utility: UtilitySpec, x0: float,
                                 horizon: float) -> float:
    """Expected terminal utility through the growth rate, no simulation."""
    rate = growth_rate(triplet, np.atleast_1d(np.asarray(pi, dtype=float)), utility).value
    return problem_value(rate, utility, x0, horizon)


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
