"""Robust maximization, saddle extraction, and the mixture player's bracket."""

import dataclasses
import inspect
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from rlp import (
    GrowthModel,
    JumpMeasure,
    LevyTriplet,
    NotCompactError,
    Polyhedron,
    SaddleCertificate,
    SaddleNotCertifiedError,
    SchemaError,
    UncertaintySet,
    UtilitySpec,
    compile_box_to_vertices,
    effective_domain,
    find_saddle,
    load_model,
    maximize_robust,
    problem_value,
    verify_saddle,
)
from rlp.optimizer import FeasibleRegion

from helpers_instances import (
    BOX_RADIUS,
    pooled_vertices,
    random_instance,
    random_triplet,
    random_utility,
)
from helpers_oracle import (
    golden_max,
    mixture_min,
    nearest_point,
    response_region,
    single_max,
)

LOG = UtilitySpec.log_utility()
TWO_ASSET = Path(__file__).resolve().parent.parent / "models" / "two_asset_log.json"


def one_asset(b, c, atoms=()):
    return LevyTriplet(np.array([b]), np.array([[c]]),
                       JumpMeasure.from_atoms(list(atoms), dimension=1))


def corner_box_instance():
    """Box of jump diffusions whose worst corner and optimum are known exactly."""
    box = dict(
        b_intervals=np.array([[0.10, 0.12]]),
        c_scale=(0.03, 0.04),
        c_base=np.array([[1.0]]),
        atom_locations=np.array([[1.0]]),
        rate_intervals=np.array([[0.02, 0.03]]),
    )
    theta = compile_box_to_vertices(**box)
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


def test_solve_options_validation(tmp_path):
    # the solver takes no options, and a model file cannot give it any: a
    # solver block is an unknown top-level key
    assert "options" not in inspect.signature(maximize_robust).parameters
    assert list(inspect.signature(find_saddle).parameters) == [
        "theta", "feasible", "utility", "certify_tol"]
    base = {"dimension": 1, "utility": {"kind": "log"}, "T": 1.0, "x0": 1.0,
            "Theta": {"vertices": [{"b": [0.1], "c": [[0.04]]}]},
            "C": {"box": [[0.0, 2.0]]}}
    path = tmp_path / "model.json"
    for solver in ({}, {"value_tol": 1e-8}, {"shrink_schedule": [4, 16]}):
        path.write_text(json.dumps({**base, "solver": solver}))
        with pytest.raises(SchemaError, match="unknown top-level key 'solver'"):
            load_model(str(path))


def test_projection_returns_the_nearest_feasible_point():
    rng = np.random.default_rng(0)
    box_2d = Polyhedron.box([(-1.0, 1.0), (-0.5, 2.0)])
    box_3d = Polyhedron.box([(0.0, 0.3), (-2.0, 0.0), (-0.25, 0.75)])
    cut_box = box_2d.intersect(Polyhedron(np.array([[1.0, 1.0]]), np.array([1.5])))
    wedge = box_2d.intersect(Polyhedron(np.array([[1.0, 3.0]]), np.array([0.0])))
    _, random_poly, _ = random_instance(77)
    for poly in (cut_box, box_2d, box_3d, wedge, random_poly):
        region = FeasibleRegion(poly)
        outside = 0
        for _ in range(60):
            y = rng.uniform(-3.0, 3.0, region.d)
            proj = region.project(y)
            assert poly.contains(proj)
            if poly.contains(y):
                assert np.array_equal(proj, y)
                continue
            outside += 1
            np.testing.assert_allclose(proj, nearest_point(poly, y), rtol=0, atol=1e-9)
        assert outside > 0
    # a rounding error past a face through the origin that is not a
    # coordinate face stays where it is, up to rounding, not at the origin
    y = np.array([0.6, -0.2]) + 1e-15 * np.array([1.0, 3.0])
    assert not wedge.contains(y)
    proj = FeasibleRegion(wedge).project(y)
    assert wedge.contains(proj)
    assert np.max(np.abs(proj - y)) <= 1e-12
    # the line y_1 + y_2 = 0 as two opposite faces: every output is feasible,
    # on the line where both dot products round to 0, else the origin
    line = box_2d.intersect(Polyhedron(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2)))
    region = FeasibleRegion(line)
    for y in rng.uniform(-3.0, 3.0, (60, 2)):
        assert line.contains(region.project(y))
    on_line = np.array([0.4, -0.4])
    assert np.array_equal(region.project(on_line), on_line)
    # hundreds of units outside: the step is solved for in units of the
    # largest violation, so its length costs no digits
    for y in ([300.0, 0.5], [-300.0, 30.0], [100.0, 100.0], [-100.0, -100.0]):
        np.testing.assert_allclose(FeasibleRegion(box_2d).project(np.array(y)),
                                   np.clip(y, [-1.0, -0.5], [1.0, 2.0]), rtol=0, atol=1e-10)
    # thousands to millions of units outside a box: the clipped point is
    # the nearest corner or edge point, with no step to round
    unit_box = FeasibleRegion(Polyhedron.box([(0.0, 1.0), (-1.0, 1.0)]))
    for spread in (1e3, 1e6):
        for y in rng.normal(0.0, spread, (2000, 2)):
            np.testing.assert_allclose(unit_box.project(y), np.clip(y, [0.0, -1.0], [1.0, 1.0]),
                                       rtol=0, atol=1e-12 * (1.0 + np.max(np.abs(y))))


def test_projection_lands_exactly_on_a_coordinate_face():
    # the polytope lies in its bounding box, so the clipped point, once the
    # polytope contains it, is the nearest point: a rounding error past a
    # coordinate face ends on that face, not a rounding error inside it
    unit_box = FeasibleRegion(Polyhedron.box([(0.0, 1.0), (-1.0, 1.0)]))
    assert unit_box.project(np.array([-1e-10, 0.5])).tolist() == [0.0, 0.5]


def test_worst_vertex_ignores_rounding_at_a_tie():
    # at the two-asset optimum both vertices bind, their values a rounding
    # error apart, so a 1e-12 move must not flip the reported vertex
    spec = load_model(str(TWO_ASSET))
    model = GrowthModel(spec.theta, spec.utility)
    y_hat = maximize_robust(spec.theta, spec.feasible, spec.utility).y_hat
    gvals = model.vertex_values(y_hat)
    assert abs(gvals[0] - gvals[1]) <= 1e-13
    for step in itertools.product((-1e-12, 0.0, 1e-12), repeat=2):
        y = y_hat + np.array(step)
        assert model.robust(y) == (float(np.min(model.vertex_values(y))), 0)


def test_corner_box_optimum():
    theta, feasible = corner_box_instance()
    sol = maximize_robust(theta, feasible, LOG)
    assert sol.y_hat[0] == pytest.approx(2.0, abs=1e-6)
    expected = 0.12 + 0.03 * (math.log(3.0) - 2.0)
    assert sol.robust_g == pytest.approx(expected, abs=1e-9)
    # worst vertex is the low-drift, high-diffusion, high-rate corner
    assert sol.worst_vertex == 3


def test_merton_closed_form():
    theta = UncertaintySet((one_asset(0.06, 0.04),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 10.0)]), theta)
    u = UtilitySpec.power_utility(0.5)
    sol = maximize_robust(theta, feasible, u)
    assert sol.y_hat[0] == pytest.approx(3.0, abs=1e-6)
    assert sol.robust_g == pytest.approx(0.09, abs=1e-9)
    assert problem_value(sol.robust_g, u, 1.0, 1.0) == pytest.approx(
        2.0 * math.exp(0.045), abs=1e-6)


def test_a_strongly_curved_power_utility_certifies_at_1e_6():
    # p = -60: SLSQP stops with a gradient of about 3e-8 left at y_hat
    # (0.0223, 0.0083), and the bracket is 1.9e-7 wide. That fails the
    # default 1e-7 until SLSQP's answer is polished by Newton steps
    # (ROADMAP item 3); its last digits vary by platform, so 1e-7 is not
    # pinned here either way.
    jumps = JumpMeasure.from_atoms([(0.5, [-0.5, 0.0]), (0.2, [0.0, -0.8])], dimension=2)
    theta = UncertaintySet((LevyTriplet(np.array([0.3, 0.1]), 0.04 * np.eye(2), jumps),))
    feasible, _ = effective_domain(Polyhedron.box([(-5.0, 5.0)] * 2), theta)
    certificate = find_saddle(theta, feasible, UtilitySpec.power_utility(-60.0),
                              certify_tol=1e-6)
    np.testing.assert_allclose(certificate.y_hat, [0.0223, 0.0083], atol=1e-4)
    assert 0.0 <= certificate.gap <= 1e-6


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


def test_a_two_dimensional_verify_runs_no_lp(monkeypatch):
    import rlp.levy
    import rlp.optimizer

    slsqp_calls = []

    def counted_minimize(*args, _minimize=rlp.optimizer.minimize, **kwargs):
        slsqp_calls.append(kwargs.get("method"))
        return _minimize(*args, **kwargs)

    monkeypatch.setattr(rlp.optimizer, "minimize", counted_minimize)
    theta, feasible, u = random_instance(1017)  # runs effective_domain
    assert theta.dimension == 2
    cert = find_saddle(theta, feasible, u)
    ok, details = verify_saddle(theta, feasible, u, cert)
    assert ok, details
    # the bounding box is closed-form or certified by NNLS and the
    # stationarity mixture is the solve's own KKT multipliers, so no LP runs
    assert not hasattr(rlp.levy, "linprog")
    assert not hasattr(rlp.optimizer, "linprog")
    # find_saddle's one robust solve on the feasible set; both upper
    # bounds are arithmetic
    assert slsqp_calls == ["SLSQP"]


def boundary_chasing_instance():
    # fractional power keeps the growth rate finite at the no-bankruptcy
    # boundary, and a strong drift pushes the optimum to within a jump factor
    # of 2.7e-4 of it
    t = LevyTriplet(np.array([3.0, 0.01]), 0.01 * np.eye(2),
                    JumpMeasure.from_atoms([(0.05, (-1.0, 0.0))]))
    theta = UncertaintySet((t,))
    feasible, compact = effective_domain(Polyhedron.box([(0.0, 2.0)] * 2), theta)
    assert compact
    return theta, feasible, UtilitySpec.power_utility(0.5)


def test_boundary_chasing_game_certifies_at_its_interior_optimum():
    theta, feasible, u = boundary_chasing_instance()
    solution = maximize_robust(theta, feasible, u)
    np.testing.assert_allclose(solution.y_hat, [0.99973, 2.0], atol=1e-5)
    assert solution.diagnostics["min_jump_factor"] == pytest.approx(2.7e-4, rel=0.01)
    cert = find_saddle(theta, feasible, u)
    assert 0.0 <= cert.gap <= 1e-12
    ok, details = verify_saddle(theta, feasible, u, cert)
    assert ok, details


def test_solution_is_deterministic():
    theta, feasible, u = random_instance(1017)
    first = maximize_robust(theta, feasible, u)
    second = maximize_robust(theta, feasible, u)
    assert first.y_hat.tobytes() == second.y_hat.tobytes()
    assert first.robust_g == second.robust_g


def test_every_solution_reports_its_certificate():
    solved = {1: 0, 2: 0}
    for seed in range(1000, 1020):
        theta, feasible, u = random_instance(seed)
        solution = maximize_robust(theta, feasible, u)
        diagnostics = solution.diagnostics
        assert diagnostics["method"] == "slsqp-epigraph"
        assert solution.certificate.passes(1e-8)
        assert set(diagnostics) == {"method", "status", "nit", "min_jump_factor"}
        assert isinstance(diagnostics["status"], int) and diagnostics["nit"] >= 1
        assert 0.0 < diagnostics["min_jump_factor"] <= math.inf
        solved[theta.dimension] += 1
    assert min(solved.values()) >= 5


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
    # the symmetric boxes of the first 24 seeds, and long-only boxes [0, r]^d
    # on all 100, whose maximizers often lie on faces through the origin
    for seed in range(100):
        theta, symmetric, u = random_instance(4000 + seed)
        d = theta.dimension
        long_only, _ = effective_domain(Polyhedron.box([(0.0, BOX_RADIUS[d])] * d), theta)
        for feasible in ((symmetric, long_only) if seed < 24 else (long_only,)):
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
        face_multipliers=cert.face_multipliers,
        value=cert.value - 0.01,
        residual_max_y=0.0, residual_min_theta=0.0, gap=0.0)
    ok, details = verify_saddle(theta, feasible, LOG, shifted, tol=1e-6)
    assert not ok
    assert details["residuals"]["gap"] > 1e-4


def certified_two_asset_saddle():
    spec = load_model(str(TWO_ASSET))
    cert = find_saddle(spec.theta, spec.feasible, spec.utility)
    assert np.count_nonzero(cert.face_multipliers) >= 1
    return spec.theta, spec.feasible, spec.utility, cert


def test_verify_saddle_fails_a_strategy_outside_the_feasible_set():
    # the unconstrained Merton optimum y = 3 is stationary, so its bound
    # closes at 0.09, but the game on [0, 1] is worth less: only the
    # feasibility guard keeps min_theta from being a false lower bound
    u = UtilitySpec.power_utility(0.5)
    theta = UncertaintySet((one_asset(0.06, 0.04),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 1.0)]), theta)
    outside = SaddleCertificate(
        y_hat=np.array([3.0]), theta_hat_weights=np.array([1.0]),
        face_multipliers=np.zeros(feasible.m), value=0.09,
        residual_max_y=0.0, residual_min_theta=0.0, gap=0.0)
    ok, details = verify_saddle(theta, feasible, u, outside)
    assert not ok
    assert details["checks"] == {"max_y": math.inf, "min_theta": -math.inf}


def test_verify_saddle_fails_weights_off_the_simplex():
    theta, feasible, u, cert = certified_two_asset_saddle()
    w = cert.theta_hat_weights
    # twice the weights, a negative entry summing to 1, the wrong length, NaN
    for weights in (2.0 * w, np.array([1.5, -0.5]), np.append(w, 0.0),
                    np.full_like(w, math.nan)):
        ok, details = verify_saddle(theta, feasible, u, dataclasses.replace(
            cert, theta_hat_weights=weights))
        assert not ok
        assert details["checks"]["max_y"] == math.inf


def test_verify_saddle_fails_malformed_face_multipliers():
    theta, feasible, u, cert = certified_two_asset_saddle()
    lam = cert.face_multipliers
    negative = lam.copy()
    negative[np.argmax(lam)] = -1.0
    for multipliers in (lam[:-1], negative, np.where(lam > 0, math.inf, 0.0),
                        np.full_like(lam, math.nan)):
        ok, details = verify_saddle(theta, feasible, u, dataclasses.replace(
            cert, face_multipliers=multipliers))
        assert not ok
        assert details["checks"]["max_y"] == math.inf


def bankrupt_bystander():
    """A two-vertex game whose robust optimum y = 2 lies on the bankruptcy
    face of vertex 1's atom z = -0.5. Vertex 0 has no atom and is the worst
    there, so the saddle puts all weight on it, with face multiplier 0.18 =
    its slope 0.1 - 0.5 * 0.01 * 2 over the face normal 0.5."""
    u = UtilitySpec.power_utility(0.5)
    theta = UncertaintySet((one_asset(0.1, 0.01), one_asset(0.2, 0.01, [(0.05, (-0.5,))])))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 3.0)]), theta)
    y = np.array([2.0])
    model = GrowthModel(theta, u)
    assert model.jump_factors(y).tolist() == [math.inf, 0.0]
    candidate = SaddleCertificate(
        y_hat=y, theta_hat_weights=np.array([1.0, 0.0]),
        face_multipliers=np.where(feasible.normals[:, 0] == 0.5, 0.18, 0.0),
        value=float(model.vertex_values(y)[0]),
        residual_max_y=0.0, residual_min_theta=0.0, gap=0.0)
    return theta, feasible, u, candidate


def test_a_bankrupt_vertex_outside_the_support_keeps_the_bound_finite():
    theta, feasible, u, candidate = bankrupt_bystander()
    ok, details = verify_saddle(theta, feasible, u, candidate, tol=1e-12)
    assert ok
    assert math.isfinite(details["checks"]["max_y"])
    assert maximize_robust(theta, feasible, u).certificate.passes(1e-9)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_slope_outside_the_support_leaves_the_bound_alone():
    # with p = -60 the slope (1 + y z)^(p - 1) of vertex 1's atom passes the
    # float range at y = 1.99999, a jump factor 5e-6 short of its face; the
    # bound on vertex 0 is the one it has in a game without vertex 1
    theta, feasible, _, candidate = bankrupt_bystander()
    u = UtilitySpec.power_utility(-60.0)
    y = np.array([1.99999])
    candidate = dataclasses.replace(
        candidate, y_hat=y, value=float(GrowthModel(theta, u).vertex_values(y)[0]))
    _, details = verify_saddle(theta, feasible, u, candidate)
    _, alone = verify_saddle(UncertaintySet(theta.vertices[:1]), feasible, u,
                             dataclasses.replace(candidate, theta_hat_weights=np.array([1.0])))
    assert math.isfinite(details["checks"]["max_y"])
    assert details["checks"]["max_y"] == alone["checks"]["max_y"]


def test_a_bankrupt_vertex_inside_the_support_makes_the_bound_infinite():
    theta, feasible, u, candidate = bankrupt_bystander()
    for weights in ([0.0, 1.0], [0.5, 0.5]):
        ok, details = verify_saddle(theta, feasible, u, dataclasses.replace(
            candidate, theta_hat_weights=np.array(weights)))
        assert not ok
        assert details["checks"]["max_y"] == math.inf


def test_verify_saddle_fails_a_singular_gradient():
    # y = 1 sits on the bankruptcy boundary of the jump z = -1: the
    # fractional-power growth rate is finite there but its slope is not
    u = UtilitySpec.power_utility(0.5)
    theta = UncertaintySet((one_asset(0.1, 0.04, [(0.2, (-1.0,))]),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 2.0)]), theta)
    y = np.array([1.0])
    assert feasible.contains(y)
    value = float(GrowthModel(theta, u).vertex_values(y)[0])
    candidate = SaddleCertificate(
        y_hat=y, theta_hat_weights=np.array([1.0]), face_multipliers=np.zeros(feasible.m),
        value=value, residual_max_y=0.0, residual_min_theta=0.0, gap=0.0)
    ok, details = verify_saddle(theta, feasible, u, candidate)
    assert not ok
    assert details["checks"]["max_y"] == math.inf
    assert details["checks"]["min_theta"] == value


def test_dual_bound_dominates_best_responses_and_grows_with_the_multipliers():
    spec = load_model(str(TWO_ASSET))
    cases = [(spec.theta, spec.feasible, spec.utility)]
    cases += [case for case in map(random_instance, range(1000, 1020))
              if case[0].dimension >= 2]
    assert len(cases) >= 6
    rng = np.random.default_rng(7)
    for theta, feasible, u in cases:
        cert = find_saddle(theta, feasible, u)
        _, details = verify_saddle(theta, feasible, u, cert)
        bound = details["checks"]["max_y"]
        # the best response to the same mixture on the tightened set is a
        # feasible value of the mixture, so the bound is above it up to rounding
        _, response = single_max(theta.mix(cert.theta_hat_weights),
                                 response_region(theta, feasible), u, y0=cert.y_hat)
        assert bound >= response - 4 * np.finfo(float).eps * (1.0 + abs(response))
        lam = cert.face_multipliers
        for multipliers in (1.5 * lam, 10.0 * lam,
                            *(lam + rng.uniform(0.0, 1.0, lam.shape) for _ in range(5))):
            _, moved = verify_saddle(theta, feasible, u, dataclasses.replace(
                cert, face_multipliers=multipliers))
            assert moved["checks"]["max_y"] >= bound


def moved_candidate(theta, utility, cert, y):
    """The solved certificate's mixture and face multipliers, moved to strategy
    y, with the mixture's value there."""
    y = np.asarray(y, dtype=float)
    support = cert.theta_hat_weights > 0.0
    gvals = GrowthModel(theta, utility).vertex_values(y)
    value = float(cert.theta_hat_weights[support] @ gvals[support])
    return SaddleCertificate(
        y_hat=y, theta_hat_weights=cert.theta_hat_weights,
        face_multipliers=cert.face_multipliers, value=value,
        residual_max_y=0.0, residual_min_theta=0.0, gap=0.0)


def test_certificate_at_separates_optimum_from_rest():
    # the solved mixture closes the bracket at the exact optimum y = 2, and
    # leaves it wide open at y = 1
    theta, feasible = corner_box_instance()
    cert = maximize_robust(theta, feasible, LOG).certificate
    ok, details = verify_saddle(theta, feasible, LOG, moved_candidate(theta, LOG, cert, [2.0]),
                                tol=1e-9)
    assert ok, details
    ok, details = verify_saddle(theta, feasible, LOG, moved_candidate(theta, LOG, cert, [1.0]),
                                tol=1e-3)
    assert details["residuals"]["gap"] > 1e-3 and not ok


def test_certificate_at_is_infinite_past_the_bankruptcy_boundary():
    # a short position of 1.5 goes bankrupt at the box model's +1 jump, so the
    # value is -inf and no residual of the recheck may come out NaN
    spec = load_model(str(TWO_ASSET.parent / "box_log_jump.json"))
    cert = maximize_robust(spec.theta, spec.feasible, spec.utility).certificate
    candidate = moved_candidate(spec.theta, spec.utility, cert, [-1.5])
    assert candidate.value == -math.inf
    ok, details = verify_saddle(spec.theta, spec.feasible, spec.utility, candidate)
    assert not ok
    assert details["residuals"] == {"max_y": math.inf, "min_theta": math.inf, "gap": math.inf}
    assert not any(math.isnan(v) for v in details["checks"].values())


def random_polytope_game(rng: np.random.Generator, pooled: bool = False):
    """(theta, feasible, utility) with d, k <= 4 on the box of
    radius 0.75 / sqrt(d), to which half the d >= 2 draws add one or two
    random faces, each through the origin with probability 1/2.

    With ``pooled`` the vertices come from :func:`pooled_vertices`, and with
    probability 1/2 the box radius is instead drawn so that the box reaches
    past the bankruptcy face -z . y <= 1 of one atom z, where 1 + y . z falls
    to 0 on the feasible set."""
    d = int(rng.integers(1, 5))
    k = int(rng.integers(1, 5))
    if pooled:
        theta = UncertaintySet(pooled_vertices(rng, d, k))
    else:
        theta = UncertaintySet(tuple(random_triplet(rng, d, int(rng.integers(0, 3)))
                                     for _ in range(k)))
    radius = 0.75 / math.sqrt(d)
    if pooled and len(theta.locations) and rng.uniform() < 0.5:
        z = theta.locations[rng.integers(len(theta.locations))]
        radius = float(rng.uniform(1.0, 1.5)) / float(np.abs(z).sum())
    constraints = Polyhedron.box([(-radius, radius)] * d)
    if d >= 2 and rng.uniform() < 0.5:
        m = int(rng.integers(1, 3))
        normals = rng.normal(size=(m, d))
        offsets = np.where(rng.uniform(size=m) < 0.5, 0.0, rng.uniform(0.0, 0.3, m))
        constraints = constraints.intersect(Polyhedron(normals, offsets))
    utility = random_utility(rng)
    feasible, compact = effective_domain(constraints, theta)
    assert compact
    return theta, feasible, utility


def test_an_optimum_between_the_last_two_shrink_levels_certifies():
    # the maximizer's smallest jump factor, 0.003, lies between 1/1024 and
    # 1/256: near a bankruptcy face, but off it
    theta, feasible, u = random_polytope_game(np.random.default_rng(1589), pooled=True)
    solution = maximize_robust(theta, feasible, u)
    assert 1.0 / 1024 < solution.diagnostics["min_jump_factor"] < 1.0 / 256
    assert solution.certificate.passes(1e-6)


@seed(20261019)
@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
@example(109)  # the solver's point lies 6.4e-19 past a face through the origin
@example(33)  # SLSQP ends past a face through the origin that is not a coordinate face
@example(58)
@example(4530)  # a box of radius 150 around a 0.01-long atom
@example(5965)  # the pooled maximizer is on the bankruptcy face of a non-worst vertex's atom
def test_a_passing_certificate_is_never_beaten(case_seed):
    for pooled in (False, True):
        rng = np.random.default_rng(case_seed)
        theta, feasible, u = random_polytope_game(rng, pooled)
        solution = maximize_robust(theta, feasible, u)
        cert = solution.certificate
        fields = (cert.y_hat, cert.theta_hat_weights, cert.face_multipliers, cert.value,
                  cert.residual_max_y, cert.residual_min_theta, cert.gap)
        assert not any(np.any(np.isnan(f)) for f in fields)
        assert cert.passes(1e-6), (pooled, cert.y_hat, cert.gap)
        ok, details = verify_saddle(theta, feasible, u, cert, tol=1e-6)
        assert ok, (pooled, details)
        lo, hi = feasible.bounds
        samples = [y for y in rng.uniform(lo, hi, (500, theta.dimension))
                   if feasible.contains(y)]
        model = GrowthModel(theta, u)
        assert all(model.robust(y)[0] <= solution.robust_g + 1e-6 for y in samples)


def test_stationarity_mixture_at_a_one_dimensional_kink():
    # the two parabolas cross inside the box, where their slopes have
    # opposite signs; the mixture that levels them is unique
    theta = UncertaintySet((one_asset(0.02, 0.001), one_asset(0.06, 0.03)))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 5.0)]), theta)
    cert = maximize_robust(theta, feasible, LOG).certificate
    np.testing.assert_allclose(cert.y_hat, [0.04 / 0.0145], rtol=1e-9)
    model = GrowthModel(theta, LOG)
    g1, g2 = (float(model.gradient(i, cert.y_hat)[0]) for i in range(2))
    assert g1 > 0.0 > g2
    weights = cert.theta_hat_weights
    np.testing.assert_allclose(weights, np.array([-g2, g1]) / (g1 - g2), rtol=0, atol=1e-12)
    assert np.all(cert.face_multipliers == 0.0)
    assert abs(weights @ [g1, g2]) <= 1e-15


def test_stationarity_multiplier_at_an_active_endpoint():
    # one vertex rising through the upper end of the box: the face multiplier
    # is the slope over the endpoint's normal
    theta = UncertaintySet((one_asset(0.1, 0.01),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 1.0)]), theta)
    cert = maximize_robust(theta, feasible, LOG).certificate
    y, multipliers = cert.y_hat, cert.face_multipliers
    assert y.tolist() == [1.0]
    assert cert.theta_hat_weights.tolist() == [1.0]
    model = GrowthModel(theta, LOG)
    upper = np.flatnonzero(feasible.normals[:, 0] > 0.0)
    np.testing.assert_allclose(multipliers[upper] * feasible.normals[upper, 0],
                               model.gradient(0, y), rtol=0, atol=1e-12)
    residual = model.gradient(0, y) - feasible.normals.T @ multipliers
    assert np.max(np.abs(residual)) <= 1e-15


def test_unusable_solve_multipliers_fall_back_to_the_worst_vertex(monkeypatch):
    # NaN multipliers, or vertex rows that sum to 0, leave the certificate
    # on the worst vertex alone with zero face multipliers; at an interior
    # optimum of one vertex that is the exact saddle
    import rlp.optimizer

    theta = UncertaintySet((one_asset(0.06, 0.03),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 5.0)]), theta)
    for fill in (math.nan, 0.0):
        def broken(*args, _minimize=rlp.optimizer.minimize, **kwargs):
            res = _minimize(*args, **kwargs)
            res.multipliers = np.full_like(res.multipliers, fill)
            return res

        monkeypatch.setattr(rlp.optimizer, "minimize", broken)
        cert = maximize_robust(theta, feasible, LOG).certificate
        assert cert.theta_hat_weights.tolist() == [1.0]
        assert np.all(cert.face_multipliers == 0.0)
        fields = (cert.y_hat, cert.theta_hat_weights, cert.face_multipliers, cert.value,
                  cert.residual_max_y, cert.residual_min_theta, cert.gap)
        assert not any(np.any(np.isnan(f)) for f in fields)
        assert cert.passes(1e-7)


def test_min_jump_factor_describes_the_returned_strategy(monkeypatch):
    # a solve that ends where the robust growth is negative is replaced by
    # the zero strategy, and the diagnostics describe that strategy
    import rlp.optimizer

    theta = UncertaintySet((one_asset(0.05, 0.04, [(0.3, [-0.5])]),))
    feasible, _ = effective_domain(Polyhedron.box([(-1.5, 1.9)]), theta)

    def stray(*args, _minimize=rlp.optimizer.minimize, **kwargs):
        res = _minimize(*args, **kwargs)
        res.x = np.array([1.9, 0.0])
        return res

    monkeypatch.setattr(rlp.optimizer, "minimize", stray)
    solution = maximize_robust(theta, feasible, LOG)
    assert solution.y_hat.tolist() == [0.0]
    assert solution.diagnostics["min_jump_factor"] == 1.0


def test_mixture_min_finds_the_interior_mixture():
    theta = UncertaintySet((one_asset(0.10, 0.03), one_asset(-0.05, 0.01)))
    feasible, _ = effective_domain(Polyhedron.box([(-1.0, 1.0)]), theta)
    _, upper, weights = mixture_min(theta, feasible, LOG)
    assert upper == pytest.approx(0.0, abs=1e-6)
    assert weights == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-6)


def test_mixture_min_brackets_the_robust_value():
    for seed in (1017, 2024):
        theta, feasible, u = random_instance(seed)
        sol = maximize_robust(theta, feasible, u)
        lower, upper, _ = mixture_min(theta, feasible, u)
        assert lower - 1e-9 <= sol.robust_g <= upper + 1e-9
        assert upper - lower <= 1e-7 * (1.0 + abs(upper))


def test_saddle_not_certified_carries_the_best_candidate():
    # the solver stops within about 6e-12 of the optimum y = b / c = 2, and
    # the dual bound's linear term over the box turns that into a gap of
    # about 5e-13; an absurdly small tolerance then rejects the candidate
    theta = UncertaintySet((one_asset(0.06, 0.03),))
    feasible, _ = effective_domain(Polyhedron.box([(0.0, 5.0)]), theta)
    with pytest.raises(SaddleNotCertifiedError) as info:
        find_saddle(theta, feasible, LOG, certify_tol=1e-15)
    best = info.value.certificate
    assert best is not None
    assert best.gap > 1e-15
    assert best.value == pytest.approx(0.06, abs=1e-8)
    assert best.passes(1e-7)
