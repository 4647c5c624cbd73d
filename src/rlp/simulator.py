"""Exact simulation of finite-activity Levy log-wealth and Monte Carlo cross-checks.

Under a constant-proportion strategy pi, terminal log-wealth is a
deterministic drift term, a Gaussian term of variance T pi.c.pi and a
compound Poisson sum of log(1 + pi.z), so it is sampled exactly without a
time grid: per path one Poisson jump count, atom locations drawn in
proportion to their rates, and one normal draw. Paths are drawn in
fixed-size chunks into one buffer per estimate, each chunk from its own
counter-based Philox stream keyed by (seed, chunk index), so an estimate
depends only on the seed and the path count. Atoms come from one uniform per
jump mapped through the estimate's one CDF of the rates (inversion, as
Generator.choice(p=...) draws them), at most _CHUNK jumps at a time, and an
estimate expecting more than MAX_EXPECTED_JUMPS jumps is refused before
anything is drawn. The estimate then turns the buffer into utilities and
reduces it to a mean and a standard error in place, so one estimate allocates
the sample once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, NegativeWealthError
from .growth import growth_rate
from .levy import LevyTriplet, UtilitySpec
from .optimizer import problem_value

_CHUNK = 25000
# Largest expected jump count, lambda T times the path count, of one
# estimate. Memory per chunk is bounded, but time grows with this number.
MAX_EXPECTED_JUMPS = 1e8
# Chunk i draws from the Philox key (seed, _CHUNK_STREAM + i). Every Monte
# Carlo number depends on this offset; changing it changes every estimate.
_CHUNK_STREAM = np.uint64(1) << np.uint64(62)


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


def _jump_sums(rng: np.random.Generator, count: int, lam: float,
               cdf: np.ndarray, jump_proj: np.ndarray) -> np.ndarray | float:
    """Per path of one chunk of count paths, the sum of log(1 + pi.z) over its
    jumps, or 0.0 when the chunk draws none.

    Draws one Poisson count of mean lam per path, then one uniform per jump,
    mapped through cdf to an atom. Jumps are taken at most _CHUNK at a time
    and added to their paths' sums in jump order, as np.bincount adds them.
    """
    counts = rng.poisson(lam, size=count)
    drawn = int(counts.sum())
    if not drawn:
        return 0.0
    sums = np.zeros(count)
    # one batch repeats every path by its count; more batches need the
    # running counts, which cost a pass that one batch does without
    ends = counts.cumsum() if drawn > _CHUNK else None
    for first in range(0, drawn, _CHUNK):
        last = min(first + _CHUNK, drawn)
        projected = jump_proj[cdf.searchsorted(rng.random(last - first), side="right")]
        if np.any(projected < -1.0):
            raise NegativeWealthError(
                "a jump drove wealth negative; the strategy leaves the "
                "admissible region")
        with np.errstate(divide="ignore"):
            np.log1p(projected, out=projected)
        if ends is None:
            owners = np.repeat(np.arange(count), counts)
        else:
            # paths lo..hi hold the jumps [first, last), each its share of them
            lo, hi = ends.searchsorted([first, last - 1], side="right")
            owners = np.repeat(np.arange(lo, hi + 1),
                               np.diff(np.minimum(ends[lo:hi + 1], last), prepend=first))
        np.add.at(sums, owners, projected)
    return sums


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
    if total > 0.0:
        if not np.all(np.isfinite(jumps.rates)) or np.any(jumps.rates < 0.0):
            raise ValueError("jump rates must be finite and nonnegative")
        expected = total * horizon * n_paths
        if expected > MAX_EXPECTED_JUMPS:
            raise ModelError(f"{n_paths} paths expect {expected:.3e} jumps in all, above "
                             f"the cap of {MAX_EXPECTED_JUMPS:.0e}")
        cdf = (jumps.rates / total).cumsum()
        cdf /= cdf[-1]

    try:
        out = np.empty(n_paths)
    except MemoryError as exc:
        raise ModelError(f"{n_paths} paths need a {8 * n_paths}-byte sample, "
                         "more memory than can be allocated") from exc
    for chunk_id, start in enumerate(range(0, n_paths, _CHUNK)):
        chunk = out[start:start + _CHUNK]
        count = len(chunk)
        rng = _generator(seed, int(_CHUNK_STREAM) + chunk_id)
        jump_sum = 0.0
        if total > 0.0:
            # a chunk's jumps are drawn from its stream before its normals
            jump_sum = _jump_sums(rng, count, total * horizon, cdf, jump_proj)
        # base + scale * gauss + jump_sum, in place and in that order
        rng.standard_normal(out=chunk)
        chunk *= scale
        chunk += base
        chunk += jump_sum
    return out


def _estimate(values: np.ndarray, n_paths: int, seed: int) -> McEstimate:
    """Mean and standard error of the sample; consumes values.

    The variance is reduced in place in np.std(ddof=1)'s order: subtract the
    mean, square, sum, divide by n - 1, so both numbers equal NumPy's bit for
    bit.
    """
    mean = float(np.mean(values))
    if not math.isfinite(mean):
        # a -inf entry makes the mean -inf or NaN, so only then is it sought
        if np.any(np.isneginf(values)):
            return McEstimate(mean=-math.inf, stderr=math.inf, n_paths=n_paths,
                              seed=seed, minus_inf=True)
        return McEstimate(mean=mean, stderr=math.inf, n_paths=n_paths, seed=seed)
    if n_paths == 1:
        return McEstimate(mean=mean, stderr=0.0, n_paths=n_paths, seed=seed)
    values -= mean
    values *= values
    variance = float(values.sum()) / (n_paths - 1)
    stderr = math.sqrt(variance) / math.sqrt(n_paths)
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
    # utilities in place, in the order of math.log(x0) + log_w and
    # (x0 ** p) * np.exp(p * log_w) / p
    utilities = _log_wealth(triplet, pi, horizon, n_paths, seed)
    if utility.is_log:
        utilities += math.log(x0)
    else:
        p = utility.p
        with np.errstate(over="ignore"):
            utilities *= p
            np.exp(utilities, out=utilities)
            utilities *= x0 ** p
            utilities /= p
    return _estimate(utilities, n_paths, seed)


def closed_form_expected_utility(triplet: LevyTriplet, pi: np.ndarray,
                                 utility: UtilitySpec, x0: float,
                                 horizon: float) -> float:
    """Expected terminal utility through the growth rate, no simulation."""
    rate = growth_rate(triplet, np.atleast_1d(np.asarray(pi, dtype=float)), utility).value
    return problem_value(rate, utility, x0, horizon)
