"""Acceptance gate: the bundled reference models plus randomized suites.

Each test prints one pass/fail line; capture is suspended around the print
so the line always lands in the console log.
"""

import math
import time
from pathlib import Path

import numpy as np

from rlp import (
    JumpMeasure,
    LevyTriplet,
    Polyhedron,
    UncertaintySet,
    UtilitySpec,
    bounding_box,
    closed_form_expected_utility,
    find_saddle,
    growth_gradient,
    growth_rate,
    load_model,
    maximize_robust,
    mc_expected_utility,
    natural_constraints,
    problem_value,
    worst_case_growth,
)

from helpers_instances import random_instance, random_sim_instance, random_triplet
from helpers_oracle import martingale_check, mixture_min

ROOT = Path(__file__).resolve().parent.parent


def _verdict(capfd, label: str, ok: bool, elapsed: float):
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_reference_box_model(capfd):
    started = time.perf_counter()
    spec = load_model(str(ROOT / "models" / "box_log_jump.json"))
    solution = maximize_robust(spec.theta, spec.feasible, spec.utility)
    value = problem_value(solution.robust_g, spec.utility, spec.x0, spec.horizon)
    certificate = find_saddle(spec.theta, spec.feasible, spec.utility)
    elapsed = time.perf_counter() - started
    ok = (abs(solution.y_hat[0] - 2.0) <= 1e-6
          and abs(value - 0.0929584) <= 1e-6
          and abs(certificate.residual_max_y) <= 1e-6
          and abs(certificate.residual_min_theta) <= 1e-6
          and elapsed <= 5.0)
    _verdict(capfd, "criterion 1 (box model reproduction)", ok, elapsed)


def test_criterion_2_merton_model(capfd):
    started = time.perf_counter()
    spec = load_model(str(ROOT / "models" / "merton_power.json"))
    solution = maximize_robust(spec.theta, spec.feasible, spec.utility)
    value = problem_value(solution.robust_g, spec.utility, spec.x0, spec.horizon)
    elapsed = time.perf_counter() - started
    ok = (abs(solution.y_hat[0] - 3.0) <= 1e-6
          and abs(value - 2.0 * math.exp(0.045)) <= 1e-6
          and elapsed <= 1.0)
    _verdict(capfd, "criterion 2 (Merton closed form)", ok, elapsed)


def test_criterion_3_minimax_identity(capfd):
    started = time.perf_counter()
    worst_gap = 0.0
    ok = True
    for seed in range(1000, 1020):
        theta, feasible, utility = random_instance(seed)
        sup_inf = maximize_robust(theta, feasible, utility).robust_g
        _, inf_sup, _ = mixture_min(theta, feasible, utility)
        gap = abs(sup_inf - inf_sup)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-5:
            ok = False
    elapsed = time.perf_counter() - started
    ok = ok and elapsed <= 60.0
    _verdict(capfd, f"criterion 3 (minimax identity, worst gap {worst_gap:.2e})",
             ok, elapsed)


def test_criterion_4_monte_carlo_vs_closed_form(capfd):
    started = time.perf_counter()
    agreeing = 0
    for seed in range(500, 550):
        triplet, pi, utility, horizon = random_sim_instance(seed)
        est = mc_expected_utility(triplet, pi, utility, 1.0, horizon, 100000, seed)
        closed = closed_form_expected_utility(triplet, pi, utility, 1.0, horizon)
        if abs(est.mean - closed) <= 3.5 * est.stderr:
            agreeing += 1
    elapsed = time.perf_counter() - started
    ok = agreeing >= 47 and elapsed <= 300.0
    _verdict(capfd, f"criterion 4 (Monte Carlo vs closed form, {agreeing}/50)",
             ok, elapsed)


def test_criterion_5_unit_expectation_martingale(capfd):
    started = time.perf_counter()
    passing = 0
    for seed in range(700, 750):
        triplet, pi, utility, horizon = random_sim_instance(seed, power_only=True)
        _, passed = martingale_check(triplet, pi, utility, horizon, 100000, seed)
        if passed:
            passing += 1
    elapsed = time.perf_counter() - started
    ok = passing >= 47 and elapsed <= 300.0
    _verdict(capfd, f"criterion 5 (martingale unit expectation, {passing}/50)",
             ok, elapsed)


def _concavity_holds(seed: int) -> bool:
    theta, feasible, utility = random_instance(seed)
    rng = np.random.default_rng(seed)
    triplet = theta.vertices[0]
    lo, hi = bounding_box(feasible)
    for _ in range(20):
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        t = rng.uniform()
        ga = growth_rate(triplet, a, utility).value
        gb = growth_rate(triplet, b, utility).value
        gm = growth_rate(triplet, t * a + (1 - t) * b, utility).value
        if not math.isfinite(ga) or not math.isfinite(gb):
            continue
        if gm < t * ga + (1 - t) * gb - 1e-9:
            return False
    return True


def _theta_linearity_holds(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    t1 = random_triplet(rng, d, n_atoms=1)
    t2 = random_triplet(rng, d, n_atoms=1)
    y = rng.uniform(-0.3, 0.3, size=d)
    utility = UtilitySpec.power_utility(0.5)
    w = float(rng.uniform(0.2, 0.8))
    theta = UncertaintySet((t1, t2))
    mixed = theta.mix([w, 1.0 - w])
    gm = growth_rate(mixed, y, utility).value
    g1 = growth_rate(t1, y, utility).value
    g2 = growth_rate(t2, y, utility).value
    return abs(gm - (w * g1 + (1.0 - w) * g2)) <= 1e-12 * max(1.0, abs(gm))


def _vertex_reduction_holds(seed: int) -> bool:
    theta, feasible, utility = random_instance(seed, max_vertices=4)
    if len(theta) < 2:
        return True
    sub = UncertaintySet(theta.vertices[:-1])
    rng = np.random.default_rng(seed)
    lo, hi = bounding_box(feasible)
    for _ in range(10):
        y = rng.uniform(lo, hi)
        g_sub, _ = worst_case_growth(sub, y, utility)
        g_all, _ = worst_case_growth(theta, y, utility)
        if g_sub < g_all - 1e-12:
            return False
    return True


def _supergradient_matches_fd(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    triplet = random_triplet(rng, d, n_atoms=2)
    utility = UtilitySpec.log_utility()
    y = rng.uniform(-0.2, 0.2, size=d)
    grad = growth_gradient(triplet, y, utility)
    step = 1e-6
    for i in range(d):
        plus = y.copy()
        minus = y.copy()
        plus[i] += step
        minus[i] -= step
        fd = (growth_rate(triplet, plus, utility).value
              - growth_rate(triplet, minus, utility).value) / (2 * step)
        if abs(fd - grad[i]) > 1e-5 * max(1.0, abs(grad[i])):
            return False
    return True


def _zero_is_zero(seed: int) -> bool:
    theta, _, utility = random_instance(seed)
    value, _ = worst_case_growth(theta, np.zeros(theta.dimension), utility)
    return value == 0.0


def _natural_constraints_nest(seed: int) -> bool:
    theta, _, _ = random_instance(seed)
    rng = np.random.default_rng(seed)
    inner = natural_constraints(theta, 4)
    outer = natural_constraints(theta, 8)
    for _ in range(50):
        y = rng.uniform(-2.0, 2.0, size=theta.dimension)
        if inner.contains(y) and not outer.contains(y):
            return False
    return True


def _theta_monotonicity_holds(seed: int) -> bool:
    theta, feasible, utility = random_instance(seed, max_vertices=3)
    rng = np.random.default_rng(seed + 1)
    extra = random_triplet(rng, theta.dimension, n_atoms=1)
    bigger = UncertaintySet(tuple(theta.vertices) + (extra,))
    base = maximize_robust(theta, feasible, utility).robust_g
    feasible2 = feasible.intersect(natural_constraints(bigger))
    widened = maximize_robust(bigger, feasible2, utility).robust_g
    return widened <= base + 1e-9


def _scaling_identities_hold(seed: int) -> bool:
    rng = np.random.default_rng(seed)
    g = float(rng.uniform(-0.1, 0.2))
    horizon = float(rng.uniform(0.5, 3.0))
    x0 = float(rng.uniform(0.5, 4.0))
    log_u = UtilitySpec.log_utility()
    if problem_value(g, log_u, x0, horizon) != math.log(x0) + problem_value(
            g, log_u, 1.0, horizon):
        return False
    for p in (0.5, -1.0):
        u = UtilitySpec.power_utility(p)
        scaled = problem_value(g, u, x0, horizon)
        if scaled != (x0 ** p) * problem_value(g, u, 1.0, horizon):
            return False
    return True


def _determinism_holds(seed: int) -> bool:
    theta, feasible, utility = random_instance(seed)
    a = maximize_robust(theta, feasible, utility)
    b = maximize_robust(theta, feasible, utility)
    if a.y_hat.tobytes() != b.y_hat.tobytes() or a.robust_g != b.robust_g:
        return False
    triplet, pi, sim_utility, horizon = random_sim_instance(seed)
    m1 = mc_expected_utility(triplet, pi, sim_utility, 1.0, horizon, 20000, seed)
    m2 = mc_expected_utility(triplet, pi, sim_utility, 1.0, horizon, 20000, seed)
    return m1.mean == m2.mean and m1.stderr == m2.stderr


def test_criterion_6_property_suites(capfd):
    started = time.perf_counter()
    checks = {
        "concavity": all(_concavity_holds(s) for s in range(3100, 3106)),
        "theta linearity": all(_theta_linearity_holds(s) for s in range(3200, 3210)),
        "vertex reduction": all(_vertex_reduction_holds(s) for s in range(3300, 3308)),
        "supergradient": all(_supergradient_matches_fd(s) for s in range(3400, 3410)),
        "zero strategy": all(_zero_is_zero(s) for s in range(3500, 3510)),
        "constraint nesting": all(_natural_constraints_nest(s) for s in range(3600, 3608)),
        "uncertainty monotonicity": all(_theta_monotonicity_holds(s) for s in range(3700, 3706)),
        "capital scaling": all(_scaling_identities_hold(s) for s in range(3800, 3820)),
        "determinism": all(_determinism_holds(s) for s in range(3900, 3903)),
    }
    elapsed = time.perf_counter() - started
    failed = sorted(name for name, ok in checks.items() if not ok)
    _verdict(capfd,
             f"criterion 6 (property suites{': ' + ', '.join(failed) + ' failed' if failed else ''})",
             not failed, elapsed)


def test_criterion_7_ruinous_jumps(capfd):
    started = time.perf_counter()
    ok = True
    for rate, c, b in ((0.2, 0.02, 0.05), (0.5, 0.01, 0.1), (0.1, 0.05, -0.02)):
        utility = UtilitySpec.power_utility(-1.0)
        triplet = LevyTriplet(np.array([b]), np.array([[c]]),
                              JumpMeasure.from_atoms([(rate, (-1.0,))], dimension=1))
        # pi = 1 puts the single jump exactly at the ruin boundary
        closed = closed_form_expected_utility(triplet, np.array([1.0]), utility,
                                              1.0, 1.0)
        if closed != -math.inf:
            ok = False
        theta = UncertaintySet((triplet,))
        feasible = Polyhedron.box([(0.0, 2.0)]).intersect(
            natural_constraints(theta))
        solution = maximize_robust(theta, feasible, utility)
        g_hat = worst_case_growth(theta, solution.y_hat, utility)[0]
        if not math.isfinite(g_hat) or g_hat < 0.0:
            ok = False
        if 1.0 + solution.y_hat[0] * (-1.0) <= 0.0:
            ok = False
    elapsed = time.perf_counter() - started
    _verdict(capfd, "criterion 7 (ruin boundary behavior)", ok, elapsed)
