"""Seeded random instances shared by the oracle suites.

Scales are chosen so every instance is well inside the solver's comfort
zone: the strategy box times the largest jump size stays at or below 0.75,
which keeps every feasible strategy strictly inside the natural constraints
and the worst-case optimum away from the singular boundary.
"""

from __future__ import annotations

import numpy as np

from rlp import (
    JumpMeasure,
    LevyTriplet,
    Polyhedron,
    UncertaintySet,
    UtilitySpec,
    effective_domain,
)

BOX_RADIUS = {1: 0.7, 2: 0.5}


def random_location(rng: np.random.Generator, d: int) -> np.ndarray:
    """A jump size in the closed unit ball, away from the origin."""
    z = rng.uniform(-1.0, 1.0, d)
    norm = np.linalg.norm(z)
    if norm > 1.0:
        z = z / norm
    if norm < 1e-3:
        z = np.full(d, 0.5)
    return z


def random_triplet(rng: np.random.Generator, d: int, n_atoms: int,
                   drift_low: float = -0.08) -> LevyTriplet:
    b = rng.uniform(drift_low, 0.12, d)
    a = rng.uniform(-0.15, 0.15, (d, d))
    c = a @ a.T + rng.uniform(0.01, 0.05) * np.eye(d)
    atoms = []
    for _ in range(n_atoms):
        z = random_location(rng, d)
        atoms.append((float(rng.uniform(0.02, 0.3)), z))
    return LevyTriplet(b, c, JumpMeasure.from_atoms(atoms, dimension=d))


def pooled_vertices(rng: np.random.Generator, d: int, k: int) -> tuple[LevyTriplet, ...]:
    """k triplets whose atoms come from one pool of one to three locations,
    so vertices share atoms. A d >= 2 pool holds, with probability 1/2, a
    location and its copy with -0.0 in place of 0.0. Each vertex lists one of
    its atoms twice with probability 1/4, and has a singular diffusion
    (rank d - 1) with probability 1/4."""
    pool = [random_location(rng, d) for _ in range(int(rng.integers(1, 4)))]
    if d >= 2 and rng.uniform() < 0.5:
        pool[0][-1] = 0.0
        pool.append(pool[0] * np.append(np.ones(d - 1), -1.0))
    vertices = []
    for _ in range(k):
        t = random_triplet(rng, d, 0)
        c = t.c
        if rng.uniform() < 0.25:
            a = rng.uniform(-0.3, 0.3, (d, d - 1))
            c = a @ a.T
        picks = list(rng.permutation(len(pool))[:int(rng.integers(0, len(pool) + 1))])
        if picks and rng.uniform() < 0.25:
            picks.append(picks[0])
        atoms = [(float(rng.uniform(0.02, 0.3)), pool[j]) for j in picks]
        vertices.append(LevyTriplet(t.b, c, JumpMeasure.from_atoms(atoms, dimension=d)))
    return tuple(vertices)


def random_instance(seed: int, utility: UtilitySpec | None = None,
                    max_vertices: int = 4):
    """One solvable instance: (theta, feasible polytope, utility).

    Dimension is 1 or 2 and the vertex count 1..max_vertices, both drawn
    from the seed. The constraint box radius keeps |y . z| <= 0.75 for all
    feasible y and every jump size z.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    k = int(rng.integers(1, max_vertices + 1))
    vertices = tuple(random_triplet(rng, d, n_atoms=int(rng.integers(0, 3)))
                     for _ in range(k))
    theta = UncertaintySet(vertices)
    radius = BOX_RADIUS[d]
    constraints = Polyhedron.box([(-radius, radius)] * d)
    if utility is None:
        utility = random_utility(rng)
    feasible, compact = effective_domain(constraints, theta)
    assert compact
    return theta, feasible, utility


def random_utility(rng: np.random.Generator) -> UtilitySpec:
    roll = rng.uniform()
    if roll < 1.0 / 3.0:
        return UtilitySpec.log_utility()
    if roll < 2.0 / 3.0:
        return UtilitySpec.power_utility(float(rng.uniform(0.2, 0.8)))
    return UtilitySpec.power_utility(float(rng.uniform(-2.0, -0.3)))


def random_sim_instance(seed: int, power_only: bool = False):
    """One (triplet, strategy, utility, horizon) tuple for simulator oracles.

    The strategy stays inside the open admissibility region: |pi . z| <= 0.75
    for every atom, so log terms and power moments are finite and Monte Carlo
    noise stays moderate. power_only restricts the utility draw to p != 0 for
    checks that are undefined at p = 0.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    triplet = random_triplet(rng, d, n_atoms=int(rng.integers(0, 3)))
    radius = BOX_RADIUS[d]
    pi = rng.uniform(-radius, radius, d)
    utility = random_utility(rng)
    while power_only and utility.p == 0.0:
        utility = random_utility(rng)
    horizon = float(rng.uniform(0.5, 2.0))
    return triplet, pi, utility, horizon
