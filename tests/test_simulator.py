"""Monte Carlo wealth simulation against the closed forms."""

import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rlp import (
    JumpMeasure,
    LevyTriplet,
    ModelError,
    NegativeWealthError,
    UtilitySpec,
    closed_form_expected_utility,
    load_model,
    mc_expected_utility,
)
from rlp.simulator import _CHUNK, _estimate, _log_wealth

from helpers_instances import random_sim_instance
from helpers_oracle import martingale_check, one_shot_log_wealth

ROOT = Path(__file__).resolve().parent.parent

LOG = UtilitySpec.log_utility()


def jump_diffusion(b=0.1, c=0.04, atoms=((0.5, (-0.1,)),)):
    return LevyTriplet(np.array([b]), np.array([[c]]),
                       JumpMeasure.from_atoms(list(atoms), dimension=1))


def test_mc_agrees_with_closed_form():
    for seed in (501, 502, 503):
        triplet, pi, utility, horizon = random_sim_instance(seed)
        est = mc_expected_utility(triplet, pi, utility, 1.2, horizon, 40000, seed)
        closed = closed_form_expected_utility(triplet, pi, utility, 1.2, horizon)
        assert abs(est.mean - closed) <= 3.5 * est.stderr


def test_zero_strategy_is_noise_free():
    # every path produces the same utility; only mean-accumulation rounding
    # at the last ulp survives
    t = jump_diffusion()
    for utility, x0 in ((LOG, 2.0), (UtilitySpec.power_utility(0.5), 3.0),
                        (UtilitySpec.power_utility(-1.0), 1.5)):
        est = mc_expected_utility(t, np.array([0.0]), utility, x0, 1.0, 100, 0)
        exact = math.log(x0) if utility.is_log else x0 ** utility.p / utility.p
        assert est.mean == pytest.approx(exact, rel=5e-16)
        assert abs(est.stderr) < 1e-15


def test_log_wealth_bits_are_pinned():
    # two full chunks and a partial one; a change of stream, draw order or
    # arithmetic order changes every Monte Carlo number and shows here
    vertex = load_model(str(ROOT / "models" / "box_log_jump.json")).theta.vertices[0]
    log_w = _log_wealth(vertex, np.array([2.0]), 1.0, 60001, 7)
    assert log_w.shape == (60001,) and log_w.dtype == np.float64
    assert hashlib.sha256(log_w.tobytes()).hexdigest() == (
        "7f3dacfee1c69d1d7bdf58bfe8fcb6b5577eb26133d03dd158d905d61755e2eb")


def test_mc_estimate_is_deterministic():
    t = jump_diffusion()
    a = mc_expected_utility(t, np.array([0.8]), LOG, 1.0, 1.0, 60000, 9)
    b = mc_expected_utility(t, np.array([0.8]), LOG, 1.0, 1.0, 60000, 9)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_ruin_paths_flag_minus_infinity():
    # jumps of size -1 wipe wealth out; log utility of 0 is -inf
    t = jump_diffusion(b=0.0, c=0.01, atoms=((5.0, (-1.0,)),))
    est = mc_expected_utility(t, np.array([1.0]), LOG, 1.0, 1.0, 500, 4)
    assert est.minus_inf
    assert est.mean == -math.inf


def test_negative_jump_factors_are_refused():
    # 1 + pi z = -0.5 < 0 at the atom: wealth would turn negative
    t = jump_diffusion(b=0.0, c=0.01, atoms=((5.0, (-1.5,)),))
    with pytest.raises(NegativeWealthError):
        mc_expected_utility(t, np.array([1.0]), LOG, 1.0, 1.0, 500, 4)


def test_closed_form_matches_the_growth_formula():
    t = jump_diffusion(b=0.1, c=0.04, atoms=((0.5, (-0.1,)),))
    pi = 0.8
    g = 0.1 * pi - 0.5 * 0.04 * pi ** 2 + 0.5 * (math.log(1 - 0.1 * pi) + 0.1 * pi)
    assert closed_form_expected_utility(t, np.array([pi]), LOG, 1.0, 2.0) \
        == pytest.approx(2.0 * g, abs=1e-15)
    u = UtilitySpec.power_utility(0.5)
    gp = (0.1 * pi - 0.25 * 0.04 * pi ** 2
          + 0.5 * (((1 - 0.1 * pi) ** 0.5 - 1.0) / 0.5 + 0.1 * pi))
    assert closed_form_expected_utility(t, np.array([pi]), u, 1.0, 1.0) \
        == pytest.approx(2.0 * math.exp(0.5 * gp), rel=1e-14)


def test_martingale_check_passes_on_power_utilities():
    for seed in (701, 702):
        triplet, pi, utility, horizon = random_sim_instance(seed, power_only=True)
        est, ok = martingale_check(triplet, pi, utility, horizon, 50000, seed)
        assert ok, (est.mean, est.stderr)


def test_martingale_check_zero_strategy_is_exact():
    t = jump_diffusion()
    est, ok = martingale_check(t, np.array([0.0]), UtilitySpec.power_utility(-1.0),
                               1.0, 200, 0)
    assert ok
    assert est.mean == 1.0
    assert est.stderr == 0.0


def test_single_path_estimate_has_no_stderr():
    est = mc_expected_utility(jump_diffusion(), np.array([0.5]), LOG, 1.0, 1.0, 1, 0)
    assert est.n_paths == 1
    assert est.stderr == 0.0


def numpy_estimate(values):
    """Mean and standard error the out-of-place way: np.mean and
    np.std(ddof=1) / sqrt(n)."""
    n = len(values)
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), stderr


def test_estimate_reduces_in_place_to_numpys_bits():
    rng = np.random.default_rng(3)
    for n in (2, 3, 17, 1000, 25001, 300000):
        for scale in (1e-8, 1.0, 1e8):
            values = scale * (rng.standard_normal(n) ** 3 + rng.normal())
            est = _estimate(values.copy(), n, 0)
            assert (est.mean, est.stderr) == numpy_estimate(values)


def test_estimate_of_non_finite_and_single_samples():
    est = _estimate(np.array([1.0, -math.inf, 2.0]), 3, 5)
    assert (est.mean, est.stderr, est.minus_inf) == (-math.inf, math.inf, True)
    est = _estimate(np.array([1.0, math.inf, 2.0]), 3, 5)
    assert (est.mean, est.stderr, est.minus_inf) == (math.inf, math.inf, False)
    est = _estimate(np.array([0.25]), 1, 5)
    assert (est.mean, est.stderr, est.minus_inf) == (0.25, 0.0, False)


@pytest.mark.parametrize("utility", [LOG, UtilitySpec.power_utility(0.5),
                                     UtilitySpec.power_utility(-1.0)],
                         ids=["log", "p=0.5", "p=-1"])
def test_mc_estimate_matches_the_out_of_place_expressions(utility):
    # the utilities are formed in place in the order of these expressions
    t, pi, x0 = jump_diffusion(), np.array([0.8]), 1.3
    log_w = _log_wealth(t, pi, 1.5, 60001, 5)
    if utility.is_log:
        utilities = math.log(x0) + log_w
    else:
        p = utility.p
        utilities = (x0 ** p) * np.exp(p * log_w) / p
    est = mc_expected_utility(t, pi, utility, x0, 1.5, 60001, 5)
    assert (est.mean, est.stderr) == numpy_estimate(utilities)


@pytest.mark.parametrize("name", ["box_log_jump", "merton_power", "negative_power_jump"])
def test_an_estimate_allocates_its_sample_once(name):
    # the path buffer becomes the utilities and is reduced in place; the
    # rest of the peak is chunk-sized (jump counts, draws and sums)
    spec = load_model(str(ROOT / "models" / f"{name}.json"))
    args = (spec.theta.vertices[0], np.array([1.0]), spec.utility, spec.x0, spec.horizon)
    mc_expected_utility(*args, 1000, 1)
    n_paths = 100000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        mc_expected_utility(*args, n_paths, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 8 * n_paths


def test_inverse_cdf_draws_the_atoms_generator_choice_draws():
    # the sampler maps its uniforms through one CDF per estimate; that is
    # what Generator.choice(p=...) does, bit for bit, with zero rates too
    rng = np.random.default_rng(0)
    for trial in range(200):
        m = int(rng.integers(1, 7))
        p = rng.uniform(0.0, 1.0, m) * (rng.uniform(size=m) < 0.8)
        p[rng.integers(m)] += 0.1
        p = p / p.sum()
        key = np.array([trial, 5], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).choice(m, size=500, p=p)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(500)
        assert np.array_equal(cdf.searchsorted(uniforms, side="right"), want)


@pytest.mark.parametrize("n_paths", [25000, 30001])
def test_jumps_drawn_in_batches_keep_every_bit(n_paths):
    # lambda T = 6: about 150 000 jumps per chunk, so six batches of at most
    # one chunk's length each, paths straddling the batch boundaries
    triplet = jump_diffusion(atoms=((1.0, (-0.3,)), (0.5, (0.2,)), (1.5, (0.1,))))
    pi = np.array([0.8])
    log_w = _log_wealth(triplet, pi, 2.0, n_paths, 3)
    assert log_w.tobytes() == one_shot_log_wealth(triplet, pi, 2.0, n_paths, 3).tobytes()


def test_a_path_whose_jumps_span_batches_keeps_every_bit():
    # lambda T = 60 000 over three paths: each path's jumps run over two or
    # three batches
    triplet = jump_diffusion(atoms=((30000.0, (-1e-4,)), (30000.0, (1.2e-4,))))
    pi = np.array([0.7])
    log_w = _log_wealth(triplet, pi, 1.0, 3, 3)
    assert log_w.tobytes() == one_shot_log_wealth(triplet, pi, 1.0, 3, 3).tobytes()


def test_jump_draws_stay_chunk_sized():
    # lambda T = 20: about 500 000 jumps per chunk, 4 MB for each array of
    # them drawn at once; in batches the peak stays about ten chunk-sized
    # arrays above the sample
    triplet = jump_diffusion(atoms=((20.0, (0.1,)),))
    n_paths = 2 * _CHUNK
    _log_wealth(triplet, np.array([0.5]), 1.0, 100, 1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _log_wealth(triplet, np.array([0.5]), 1.0, n_paths, 1)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_paths + 12 * 8 * _CHUNK


def test_an_expected_jump_total_over_the_cap_is_refused_first():
    # 10**15 paths expect 5e14 jumps; refused before the 8e15-byte sample is
    # asked for
    with pytest.raises(ModelError, match=r"^1000000000000000 paths expect 5\.000e\+14 jumps"):
        mc_expected_utility(jump_diffusion(), np.array([0.5]), LOG, 1.0, 1.0, 10 ** 15, 1)


def test_a_negative_rate_is_refused():
    triplet = jump_diffusion(atoms=((0.3, (0.1,)), (-0.1, (-0.2,))))
    with pytest.raises(ValueError):
        mc_expected_utility(triplet, np.array([0.5]), LOG, 1.0, 1.0, 1000, 1)
