"""Growth-rate evaluation: values, decomposition, gradients, edge semantics."""

import math

import numpy as np
import pytest

from rlp import (
    AtSingularityError,
    GrowthModel,
    JumpMeasure,
    LevyTriplet,
    OutsideDomainError,
    UncertaintySet,
    UtilitySpec,
    growth_gradient,
    growth_rate,
    jump_integrand,
    worst_case_growth,
)

from helpers_instances import random_instance, random_triplet, random_utility
from helpers_oracle import supergradient

LOG = UtilitySpec.log_utility()


def one_asset(b, c, atoms):
    return LevyTriplet(np.array([b]), np.array([[c]]),
                       JumpMeasure.from_atoms(atoms, dimension=1))


def test_jump_integrand_log_inside_unit_ball():
    # J = log(1 + y z) - y z for |z| <= 1
    value = jump_integrand(np.array([1.0]), np.array([-0.1]), LOG)
    assert value == pytest.approx(math.log(0.9) + 0.1, abs=1e-15)


def test_jump_integrand_log_outside_unit_ball():
    # h vanishes for |z| > 1, leaving log(1 + y z)
    value = jump_integrand(np.array([1.0]), np.array([2.0]), LOG)
    assert value == pytest.approx(math.log(3.0), abs=1e-15)


def test_jump_integrand_log_hits_minus_infinity():
    assert jump_integrand(np.array([1.0]), np.array([-1.0]), LOG) == -math.inf
    assert jump_integrand(np.array([2.0]), np.array([-1.0]), LOG) == -math.inf


def test_jump_integrand_fractional_power_boundary_is_finite():
    u = UtilitySpec.power_utility(0.5)
    # (0^p - 1)/p - y h(z) = -2 + 1 at y = 1, z = -1
    value = jump_integrand(np.array([1.0]), np.array([-1.0]), u)
    assert value == pytest.approx(-1.0, abs=1e-15)


def test_jump_integrand_fractional_power_outside_domain():
    u = UtilitySpec.power_utility(0.5)
    with pytest.raises(OutsideDomainError):
        jump_integrand(np.array([2.0]), np.array([-1.0]), u)


def test_jump_integrand_negative_power_boundary():
    u = UtilitySpec.power_utility(-1.0)
    assert jump_integrand(np.array([1.0]), np.array([-1.0]), u) == -math.inf
    assert jump_integrand(np.array([2.0]), np.array([-1.0]), u) == -math.inf


def test_growth_rate_decomposition():
    t = one_asset(0.1, 0.04, [(0.05, (1.0,))])
    ev = growth_rate(t, np.array([1.5]), LOG)
    assert ev.drift_term == pytest.approx(0.15)
    assert ev.diffusion_term == pytest.approx(-0.5 * 0.04 * 1.5 ** 2)
    assert ev.jump_term == pytest.approx(0.05 * (math.log(2.5) - 1.5))
    assert ev.value == pytest.approx(ev.drift_term + ev.diffusion_term + ev.jump_term)


def test_growth_rate_power_diffusion_factor():
    t = one_asset(0.06, 0.04, [])
    u = UtilitySpec.power_utility(0.5)
    ev = growth_rate(t, np.array([3.0]), u)
    # (p - 1)/2 = -0.25
    assert ev.value == pytest.approx(0.18 - 0.25 * 0.04 * 9.0, abs=1e-15)


def test_growth_at_zero_is_exactly_zero():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        t = random_triplet(rng, int(rng.integers(1, 3)), n_atoms=2)
        u = random_utility(rng)
        assert growth_rate(t, np.zeros(t.dimension), u).value == 0.0


def test_gradient_vanishes_at_the_frozen_optimum():
    # at y = 2: 0.10 - 0.04 * 2 + 0.03 (1/3 - 1) = 0 exactly
    t = one_asset(0.10, 0.04, [(0.03, (1.0,))])
    grad = growth_gradient(t, np.array([2.0]), LOG)
    assert abs(grad[0]) < 1e-15


def test_gradient_matches_finite_differences():
    step = 1e-6
    for seed in range(12):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(1, 3))
        t = random_triplet(rng, d, n_atoms=2)
        u = random_utility(rng)
        y = rng.uniform(-0.4, 0.4, d)
        grad = growth_gradient(t, y, u)
        for i in range(d):
            bump = np.zeros(d)
            bump[i] = step
            numeric = (growth_rate(t, y + bump, u).value
                       - growth_rate(t, y - bump, u).value) / (2 * step)
            scale = max(1.0, abs(grad[i]))
            assert abs(grad[i] - numeric) / scale < 1e-5


def test_gradient_refuses_the_singularity():
    t = one_asset(0.1, 0.04, [(0.05, (-0.5,))])
    with pytest.raises(AtSingularityError):
        growth_gradient(t, np.array([2.0]), LOG)


def test_concavity_in_y_along_random_segments():
    for seed in range(8):
        theta, feasible, u = random_instance(300 + seed)
        model = GrowthModel(theta, u)
        rng = np.random.default_rng(seed)
        d = theta.dimension
        for _ in range(25):
            a = rng.uniform(-0.3, 0.3, d)
            b = rng.uniform(-0.3, 0.3, d)
            lam = rng.uniform()
            mid = model.robust(lam * a + (1 - lam) * b)[0]
            chord = lam * model.robust(a)[0] + (1 - lam) * model.robust(b)[0]
            assert mid >= chord - 1e-9


def test_linearity_in_theta():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        t1 = random_triplet(rng, d, n_atoms=1)
        t2 = random_triplet(rng, d, n_atoms=2)
        theta = UncertaintySet((t1, t2))
        u = random_utility(rng)
        y = rng.uniform(-0.3, 0.3, d)
        lam = float(rng.uniform())
        mixed = growth_rate(theta.mix([lam, 1 - lam]), y, u).value
        parts = (lam * growth_rate(t1, y, u).value
                 + (1 - lam) * growth_rate(t2, y, u).value)
        assert mixed == pytest.approx(parts, rel=1e-12, abs=1e-14)


def test_vertex_reduction_inequality():
    # the worst case over vertices is attained at a vertex, so every mixture
    # is at least the vertex minimum
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        theta = UncertaintySet(tuple(random_triplet(rng, d, n_atoms=1)
                                     for _ in range(3)))
        u = random_utility(rng)
        model = GrowthModel(theta, u)
        y = rng.uniform(-0.3, 0.3, d)
        w = rng.dirichlet(np.ones(3))
        vertex_min = model.robust(y)[0]
        assert growth_rate(theta.mix(w), y, u).value >= vertex_min - 1e-12


def test_robust_breaks_ties_on_the_first_vertex():
    t = one_asset(0.1, 0.04, [])
    model = GrowthModel(UncertaintySet((t, t)), LOG)
    _, idx = model.robust(np.array([0.5]))
    assert idx == 0


def test_worst_case_growth_picks_the_minimum():
    good = one_asset(0.2, 0.02, [])
    bad = one_asset(0.01, 0.08, [])
    value, idx = worst_case_growth(UncertaintySet((good, bad)), np.array([0.5]), LOG)
    assert idx == 1
    assert value == pytest.approx(0.01 * 0.5 - 0.5 * 0.08 * 0.25)


def test_smoothed_matches_exact_values_above_the_floor():
    theta, _, u = random_instance(901)
    model = GrowthModel(theta, u)
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-0.3, 0.3, theta.dimension)
        vals, grads = model.smoothed(y)
        exact = model.vertex_values(y)
        assert vals == pytest.approx(exact, rel=1e-12, abs=1e-14)
        for i, t in enumerate(theta.vertices):
            oracle = supergradient(t, y, u)
            assert grads[i] == pytest.approx(oracle, rel=1e-12, abs=1e-14)
            assert model.gradient(i, y) == pytest.approx(oracle, rel=1e-12, abs=1e-14)


def test_the_atom_table_matches_each_vertex_on_its_own():
    # the vertices share atoms, the first lists one location twice, (0.4, 0.0)
    # and (0.4, -0.0) are one atom, and the second diffusion is singular
    za, zb, zc = np.array([0.4, 0.0]), np.array([0.4, -0.0]), np.array([-0.3, 0.9])
    t1 = LevyTriplet(np.array([0.05, 0.02]), np.array([[0.04, 0.01], [0.01, 0.09]]),
                     JumpMeasure.from_atoms([(0.2, za), (0.1, zc), (0.05, za)]))
    t2 = LevyTriplet(np.array([0.08, -0.01]), np.array([[0.02, 0.0], [0.0, 0.0]]),
                     JumpMeasure.from_atoms([(0.3, zc), (0.15, zb)]))
    t3 = LevyTriplet(np.array([0.01, 0.03]), 0.05 * np.eye(2), JumpMeasure.empty(2))
    theta = UncertaintySet((t1, t2, t3))
    mixed = theta.mix([0.5, 0.5, 0.0])
    assert mixed.jumps.m == 2
    rates = {tuple(z): r for r, z in zip(mixed.jumps.rates, mixed.jumps.locations)}
    assert rates[(0.4, 0.0)] == pytest.approx(0.5 * 0.25 + 0.5 * 0.15, abs=1e-15)
    for u in (LOG, UtilitySpec.power_utility(0.5), UtilitySpec.power_utility(-1.5)):
        model = GrowthModel(theta, u)
        for y in (np.array([0.3, -0.2]), np.array([-1.0, 0.5]), np.array([2.0, 0.7])):
            vals = model.vertex_values(y)
            smooth_vals, smooth_grads = model.smoothed(y)
            for i, t in enumerate(theta.vertices):
                listed = sum(r * jump_integrand(y, z, u)
                             for r, z in zip(t.jumps.rates, t.jumps.locations))
                direct = t.b @ y + 0.5 * (u.p - 1.0) * (y @ t.c @ y) + listed
                for value in (vals[i], smooth_vals[i]):
                    assert value == pytest.approx(growth_rate(t, y, u).value, abs=1e-12)
                    assert value == pytest.approx(direct, abs=1e-12)
                for grad in (model.gradient(i, y), smooth_grads[i], growth_gradient(t, y, u)):
                    np.testing.assert_allclose(grad, supergradient(t, y, u), rtol=0, atol=1e-12)
    # past the bankruptcy face of zc the vertices holding it are -inf and the
    # one without it stays finite, not nan
    vals = GrowthModel(theta, LOG).vertex_values(np.array([0.0, -1.2]))
    assert vals[:2].tolist() == [-math.inf, -math.inf]
    assert math.isfinite(vals[2])


def test_jump_factors_read_each_vertex_own_atoms():
    # vertex 0 holds za, vertex 1 zb and zc, vertex 2 no atom
    za, zb, zc = np.array([0.4, 0.0]), np.array([-0.5, 0.2]), np.array([-0.3, 0.9])
    c = 0.04 * np.eye(2)
    theta = UncertaintySet((
        LevyTriplet(np.array([0.05, 0.02]), c, JumpMeasure.from_atoms([(0.2, za)])),
        LevyTriplet(np.array([0.08, -0.01]), c, JumpMeasure.from_atoms([(0.3, zc), (0.1, zb)])),
        LevyTriplet(np.array([0.01, 0.03]), c, JumpMeasure.empty(2))))
    model = GrowthModel(theta, LOG)
    rng = np.random.default_rng(5)
    for y in rng.uniform(-1.5, 1.5, (20, 2)):
        factors = model.jump_factors(y)
        assert factors[0] == pytest.approx(1.0 + za @ y, abs=1e-15)
        assert factors[1] == pytest.approx(min(1.0 + zb @ y, 1.0 + zc @ y), abs=1e-15)
        assert factors[2] == math.inf
        assert factors.min() == np.min(1.0 + model.locations @ y)
    # on the face of za only vertex 0 refuses its gradient; the others are
    # exact rows of smoothed
    y = np.array([-2.5, 0.3])
    assert model.jump_factors(y)[0] == 0.0
    with pytest.raises(AtSingularityError):
        model.gradient(0, y)
    for i in (1, 2):
        np.testing.assert_allclose(model.gradient(i, y), supergradient(theta.vertices[i], y, LOG),
                                   rtol=0, atol=1e-12)
    # a set without any atom has an empty atom table
    model = GrowthModel(UncertaintySet((one_asset(0.1, 0.04, []),) * 2), LOG)
    assert model.jump_factors(np.array([3.0])).tolist() == [math.inf, math.inf]


@pytest.mark.filterwarnings("error")
def test_an_overflowing_slope_stays_with_the_vertex_that_carries_its_atom():
    # with p = -60 the slope (1 + s)^(p - 1) of z = (-0.5, 0) passes the float
    # range where the jump factor drops below 10^-5.05, and its value term
    # where it drops below 10^-5.14; vertex 0 has no atom
    u = UtilitySpec.power_utility(-60.0)
    c = 0.01 * np.eye(2)
    theta = UncertaintySet((
        LevyTriplet(np.array([0.1, 0.05]), c, JumpMeasure.empty(2)),
        LevyTriplet(np.array([0.2, 0.1]), c, JumpMeasure.from_atoms([(0.05, (-0.5, 0.0))]))))
    model = GrowthModel(theta, u)
    for factor in (8e-6, 5e-6):
        y = np.array([2.0 * (1.0 - factor), 0.3])
        vals, grads = model.smoothed(y)
        exact = model.vertex_values(y)
        assert math.isfinite(exact[0])
        assert math.isfinite(exact[1]) == (factor == 8e-6)
        assert vals == pytest.approx(exact, rel=1e-12)
        np.testing.assert_allclose(grads[0], supergradient(theta.vertices[0], y, u), rtol=1e-12)
        # the atom pulls coordinate 0 of vertex 1 to -inf and leaves
        # coordinate 1, where it is 0, at 0.1 + (p - 1) 0.01 y_1
        assert grads[1][0] == -math.inf
        assert grads[1][1] == pytest.approx(0.1 - 61 * 0.01 * 0.3, rel=1e-12)
        for i in (0, 1):
            np.testing.assert_array_equal(model.gradient(i, y), grads[i])
    # past the face the continuation is -inf for vertex 1 and vertex 0 is exact
    y = np.array([2.1, 0.3])
    vals, grads = model.smoothed(y)
    assert vals[0] == pytest.approx(model.vertex_values(y)[0], rel=1e-12)
    assert vals[1] == -math.inf
    np.testing.assert_allclose(grads[0], supergradient(theta.vertices[0], y, u), rtol=1e-12)
    with pytest.raises(AtSingularityError):
        model.gradient(1, y)


def test_smoothed_is_finite_past_the_boundary():
    t = one_asset(0.1, 0.04, [(0.05, (-0.5,))])
    model = GrowthModel(UncertaintySet((t,)), LOG)
    vals, grads = model.smoothed(np.array([5.0]))  # 1 + y z = -1.5
    assert np.all(np.isfinite(vals))
    assert np.all(np.isfinite(grads))
    # exact value there is -inf
    assert model.robust(np.array([5.0]))[0] == -math.inf
