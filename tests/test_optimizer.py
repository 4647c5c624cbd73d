"""Robust maximization, saddle extraction, and the mixture grid oracle."""

import math

import numpy as np
import pytest

from rlp import (
    DidNotConvergeError,
    JumpMeasure,
    LevyTriplet,
    NotCompactError,
    Polyhedron,
    SaddleNotCertifiedError,
    SolveOptions,
    UncertaintyBox,
    UncertaintySet,
    UtilitySpec,
    compile_box_to_vertices,
    effective_domain,
    find_saddle,
    maximize_robust,
    mixture_grid_min,
    optimality_residual,
    problem_value,
    verify_saddle,
)
from rlp.optimizer import FeasibleRegion, golden_max

from helpers_instances import random_instance

LOG = UtilitySpec.log_utility()


def one_asset(b, c, atoms=()):
    return LevyTriplet(np.array([b]), np.array([[c]]),
                       JumpMeasure.from_atoms(list(atoms), dimension=1))


def corner_box_instance():
    """Box of jump diffusions whose worst corner and optimum are known exactly."""
    box = UncertaintyBox(
        b_intervals=np.array([[0.10, 0.12]]),
        c_scale=(0.03, 0.04),
        c_base=np.array([[1.0]]),
        atom_locations=np.array([[1.0]]),
        rate_intervals=np.array([[0.02, 0.03]]),
    )
    theta = compile_box_to_vertices(box)
    feasible, compact = effective_domain(Polyhedron.box([(0.0, 3.0)]), theta)
    assert compact
    return theta, feasible


def test_golden_max_concave_parabola():
    x, fx = golden_max(lambda t: -(t - 0.3) ** 2, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-9)
    assert fx == pytest.approx(0.0, abs=1e-15)


def test_golden_max_handles_boundary_infinities():
    x, _ = golden_max(lambda t: math.log(t) + math.log(1.0 - t), 0.0, 1.0)
    assert x == pytest.approx(0.5, abs=1e-9)


def test_problem_value_formulas():
    assert problem_value(0.07, LOG, 1.0, 1.0) == 0.07
    assert problem_value(0.07, LOG, 2.0, 3.0) == pytest.approx(math.log(2.0) + 0.21)
    u = UtilitySpec.power_utility(0.5)
    assert problem_value(0.09, u, 1.0, 1.0) == pytest.approx(2.0 * math.exp(0.045))
    u_neg = UtilitySpec.power_utility(-1.0)
    assert problem_value(0.05, u_neg, 1.0, 2.0) == pytest.approx(-math.exp(-0.1))


def test_problem_value_capital_scaling_is_exact():
    # power: value(x0) = x0^p value(1), bitwise because the factor applies last
    for p in (0.5, -1.0, -2.5):
        u = UtilitySpec.power_utility(p)
        for g in (0.02, 0.11):
            assert problem_value(g, u, 2.7, 1.3) == 2.7 ** p * problem_value(g, u, 1.0, 1.3)
    # log: value(x0) = log x0 + value(1)
    diff = problem_value(0.04, LOG, 2.7, 1.3) - problem_value(0.04, LOG, 1.0, 1.3)
    assert diff == pytest.approx(math.log(2.7), abs=1e-14)


def test_problem_value_propagates_minus_infinity():
    assert problem_value(-math.inf, LOG, 1.0, 1.0) == -math.inf
    assert problem_value(-math.inf, UtilitySpec.power_utility(-1.0), 1.0, 1.0) == -math.inf
    # for 0 < p < 1 ruin gives utility 0, the infimum of x^p / p
    assert problem_value(-math.inf, UtilitySpec.power_utility(0.5), 1.0, 1.0) == 0.0


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(value_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(shrink_schedule=(16, 4))


def test_feasible_region_projection_is_optimal():
    rng = np.random.default_rng(0)
    box_2d = Polyhedron.box([(-1.0, 1.0), (-0.5, 2.0)])
    box_3d = Polyhedron.box([(0.0, 0.3), (-2.0, 0.0), (-0.25, 0.75)])
    cut_box = box_2d.intersect(Polyhedron(np.array([[1.0, 1.0]]), np.array([1.5])))
    for poly, is_box in ((cut_box, False), (box_2d, True), (box_3d, True)):
        region = FeasibleRegion(poly)
        lo, hi = poly.bounds
        for _ in range(50):
            y = rng.uniform(-3.0, 3.0, region.d)
            proj = region.project(y)
            assert region.contains(proj, tol=1e-8)
            if is_box:
                # Dykstra over axis-aligned halfspaces is a clip, up to the
                # relative 1e-12 inward margin of the final feasibility pull
                assert proj == pytest.approx(np.clip(y, lo, hi), rel=2e-12, abs=1e-12)
            # no sampled feasible point may be closer
            for _ in range(20):
                other = region.sample(rng)
                assert np.linalg.norm(y - proj) <= np.linalg.norm(y - other) + 1e-7


def test_feasible_region_sampling_stays_inside():
    theta, feasible, _ = random_instance(77)
    region = FeasibleRegion(feasible)
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert region.contains(region.sample(rng), tol=1e-9)


def test_corner_box_optimum():
    theta, feasible = corner_box_instance()
    sol = maximize_robust(theta, feasible, LOG)
    assert sol.y_hat[0] == pytest.approx(2.0, abs=1e-6)
    expected = 0.12 + 0.03 * (math.log(3.0) - 2.0)
    assert sol.robust_g == pytest.approx(expected, abs=1e-9)
    # worst vertex is the low-drift, high-diffusion, high-rate corner
    assert int(np.argmax(sol.worst_vertex_weights)) == 3


def test_merton_closed_form():
    theta = UncertaintySet((one_asset(0.06, 0.04),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 10.0)]), theta)
    u = UtilitySpec.power_utility(0.5)
    sol = maximize_robust(theta, feasible, u)
    assert sol.y_hat[0] == pytest.approx(3.0, abs=1e-6)
    assert sol.robust_g == pytest.approx(0.09, abs=1e-9)
    assert problem_value(sol.robust_g, u, 1.0, 1.0) == pytest.approx(
        2.0 * math.exp(0.045), abs=1e-6)


def test_two_asset_interior_optimum():
    b = np.array([0.06, 0.04])
    c = np.array([[0.04, 0.01], [0.01, 0.05]])
    theta = UncertaintySet((LevyTriplet(b, c, JumpMeasure.empty(2)),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 5.0)] * 2), theta)
    u = UtilitySpec.power_utility(0.5)
    sol = maximize_robust(theta, feasible, u)
    expected = np.linalg.solve((1.0 - u.p) * c, b)
    assert sol.y_hat == pytest.approx(expected, abs=1e-6)
    g_star = float(b @ expected + 0.5 * (u.p - 1.0) * expected @ c @ expected)
    assert sol.robust_g == pytest.approx(g_star, abs=1e-10)


def test_origin_wins_when_every_direction_loses():
    # both drifts point down in every feasible direction that avoids jumps
    t1 = one_asset(-0.05, 0.04, [(0.1, (0.5,))])
    t2 = one_asset(0.05, 0.08, [(0.2, (-0.5,))])
    theta = UncertaintySet((t1, t2))
    feasible, _ = effective_domain(Polyhedron.box([(-0.7, 0.7)]), theta)
    sol = maximize_robust(theta, feasible, LOG)
    assert np.array_equal(sol.y_hat, [0.0])
    assert sol.robust_g == 0.0


def test_unbounded_region_is_refused():
    theta_1d = UncertaintySet((one_asset(0.1, 0.04),))
    theta_2d = UncertaintySet((LevyTriplet(np.array([0.1, 0.05]), 0.04 * np.eye(2),
                                           JumpMeasure.empty(2)),))
    # a strip: bounded in the first coordinate only
    strip = Polyhedron.box([(0.0, 1.0), (None, None)])
    for theta, poly in ((theta_1d, Polyhedron.box([(0.0, None)])), (theta_2d, strip)):
        with pytest.raises(NotCompactError):
            maximize_robust(theta, poly, LOG)


def test_compactness_is_proved_once_per_polytope(monkeypatch):
    import rlp.levy
    import rlp.optimizer

    calls = []
    original = rlp.levy.bounding_box

    def counted(poly):
        calls.append(poly)
        return original(poly)

    # also where the optimizer would find a by-name import of it
    for module in (rlp.levy, rlp.optimizer):
        monkeypatch.setattr(module, "bounding_box", counted, raising=False)
    theta, feasible, u = random_instance(1017)  # runs effective_domain
    assert theta.dimension == 2
    maximize_robust(theta, feasible, u)
    cert = find_saddle(theta, feasible, u)
    ok, details = verify_saddle(theta, feasible, u, cert)
    assert ok, details
    assert len(calls) == 1
    assert calls[0] is feasible


def test_boundary_chasing_raises_did_not_converge():
    # fractional power keeps the growth rate finite at the no-bankruptcy
    # boundary, and a strong drift pushes the optimum onto it, so the
    # tightened solutions keep moving between shrink levels
    t = LevyTriplet(np.array([3.0, 0.01]), 0.01 * np.eye(2),
                    JumpMeasure.from_atoms([(0.05, (-1.0, 0.0))]))
    theta = UncertaintySet((t,))
    feasible, compact = effective_domain(Polyhedron.box([(0.0, 2.0)] * 2), theta)
    assert compact
    with pytest.raises(DidNotConvergeError):
        maximize_robust(theta, feasible, UtilitySpec.power_utility(0.5))


def test_solution_is_deterministic():
    theta, feasible, u = random_instance(1017)
    first = maximize_robust(theta, feasible, u)
    second = maximize_robust(theta, feasible, u)
    assert first.y_hat.tobytes() == second.y_hat.tobytes()
    assert first.robust_g == second.robust_g


def test_multidimensional_solutions_report_their_certificate():
    opts = SolveOptions()
    solved = 0
    for seed in range(1000, 1020):
        theta, feasible, u = random_instance(seed)
        if theta.dimension != 2:
            continue
        diagnostics = maximize_robust(theta, feasible, u, opts).diagnostics
        assert diagnostics["method"] == "slsqp-epigraph"
        assert diagnostics["kkt_residual"] <= opts.value_tol
        levels = diagnostics["levels"]
        assert len(levels) == diagnostics["levels_run"] >= 1
        for level in levels:
            assert level["n"] in opts.shrink_schedule[-2:]
            assert isinstance(level["status"], int) and level["nit"] >= 1
        solved += 1
    assert solved >= 5


def test_saddle_on_the_corner_box():
    theta, feasible = corner_box_instance()
    cert = find_saddle(theta, feasible, LOG)
    assert cert.passes(1e-7)
    assert cert.theta_hat_weights[3] == pytest.approx(1.0, abs=1e-9)
    assert cert.value == pytest.approx(0.12 + 0.03 * (math.log(3.0) - 2.0), abs=1e-8)


def test_saddle_with_interior_mixture():
    # two diffusion models whose mixture gradient vanishes at 0 only for
    # weights (1/3, 2/3); the origin is the robust optimum
    theta = UncertaintySet((one_asset(0.10, 0.03), one_asset(-0.05, 0.01)))
    feasible, _ = effective_domain(Polyhedron.box([(-1.0, 1.0)]), theta)
    cert = find_saddle(theta, feasible, LOG)
    assert cert.passes(1e-7)
    assert cert.value == pytest.approx(0.0, abs=1e-8)
    assert cert.theta_hat_weights == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-6)


def test_saddle_certifies_on_random_instances():
    for seed in range(24):
        theta, feasible, u = random_instance(4000 + seed)
        cert = find_saddle(theta, feasible, u)
        assert cert.passes(1e-7)
        ok, details = verify_saddle(theta, feasible, u, cert, tol=1e-6)
        assert ok, details


def test_verify_saddle_rejects_an_off_optimum_candidate():
    theta, feasible = corner_box_instance()
    cert = find_saddle(theta, feasible, LOG)
    shifted = type(cert)(
        y_hat=cert.y_hat * 0.5,
        theta_hat_weights=cert.theta_hat_weights,
        value=cert.value - 0.01,
        residual_max_y=0.0, residual_min_theta=0.0, gap=0.0)
    ok, details = verify_saddle(theta, feasible, LOG, shifted, tol=1e-6)
    assert not ok
    assert details["residuals"]["sup_inf"] > 1e-4


def test_optimality_residual_separates_optimum_from_rest():
    theta, feasible = corner_box_instance()
    assert optimality_residual(theta, feasible, LOG, np.array([2.0])) < 1e-9
    assert optimality_residual(theta, feasible, LOG, np.array([1.0])) > 1e-3


def test_mixture_grid_finds_the_interior_mixture():
    theta = UncertaintySet((one_asset(0.10, 0.03), one_asset(-0.05, 0.01)))
    feasible, _ = effective_domain(Polyhedron.box([(-1.0, 1.0)]), theta)
    gmin, weights = mixture_grid_min(theta, feasible, LOG)
    assert gmin == pytest.approx(0.0, abs=1e-6)
    assert weights == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=0.02)


def test_mixture_grid_matches_the_robust_value():
    for seed in (1017, 2024):
        theta, feasible, u = random_instance(seed)
        sol = maximize_robust(theta, feasible, u)
        gmin, _ = mixture_grid_min(theta, feasible, u)
        assert abs(gmin - sol.robust_g) <= 1e-5


def test_saddle_not_certified_carries_the_best_candidate():
    # the robust optimum is the kink where the two parabolas cross, so the
    # residuals are floor-limited by the solver's kink location error; an
    # absurdly small tolerance then rejects the candidate
    theta = UncertaintySet((one_asset(0.02, 0.001), one_asset(0.06, 0.03)))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 5.0)]), theta)
    opts = SolveOptions(value_tol=1e-16)
    with pytest.raises(SaddleNotCertifiedError) as info:
        find_saddle(theta, feasible, LOG, opts)
    best = info.value.certificate
    assert best is not None
    y_star = 0.04 / 0.0145
    assert best.value == pytest.approx(0.02 * y_star - 0.0005 * y_star ** 2, abs=1e-8)
    assert best.passes(1e-7)
