"""Seeded inputs for the rlp benchmark.

Every workload's task list comes from ``generate(workload, seed, out_dir)``.
It writes the model files the tasks read and a ``manifest.json`` that lists
the tasks in the order the benchmark runs them, so the program under test
receives only model files and command-line flags. The same seed gives
byte-identical files on any machine: derived numbers are computed in plain
Python floating point, never through BLAS. The files for ``DEFAULT_SEED`` are
kept in ``bench/inputs/``.

A generated task set cycles through a few *slots*. A slot fixes a problem's
shape, and with it the work of a task; a slot has a pool of ``POOL`` members
whose numbers are drawn from the member's index. The seed picks
``MEMBERS_PER_RUN`` members of each slot for a run, and their order.
``bench/reference.json`` holds the answers of every pool member, so every
task of every seed is checked against a reference, and each member's Monte
Carlo check was seen to pass when the pool was made (``bench/reference.py``).

Why each workload exists and why its parameter ranges were chosen is in
``bench/README.md``. The benchmark's workloads are ``cli-1d`` and
``saddle-nd``; ``mc-paths`` is the task set of the traced run's thread probe.
In short:

cli-1d     the three bundled models under every subcommand, one fresh
           process per task; the seed only shuffles the order.
saddle-nd  the ``verify`` pipeline on d = 2, 3, 4 vertex-list models. Drifts
           of magnitude 0.3-0.5, well above the diffusion scale, push the
           optimum onto a corner of the strategy box, never the origin (the
           test suite's drift range collapses d >= 4 to robust_g = 0).
mc-paths   ``simulate`` with a fixed strategy and two million paths on
           d = 1..6 models with 0..8 atoms, under log and power utility.

Run as a script to write one workload's inputs:

    python3 bench/generate.py --workload saddle-nd --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-1d", "saddle-nd")
DEFAULT_SEED = 1
BUNDLED = ("models/box_log_jump.json", "models/merton_power.json",
           "models/negative_power_jump.json")
COMMANDS = ("validate", "solve", "saddle", "simulate", "verify")
POOL = 16
MEMBERS_PER_RUN = 4

# A slot fixes the problem's shape, and with it the work a task does; a pool
# member's index draws the numbers. An odd slot count keeps the median task
# inside one slot whatever the run's last partial cycle holds.
# saddle-nd slots: (dimension, vertices, atom locations shared by all vertices).
SADDLE_SLOTS = ((2, 4, 2), (3, 8, 3), (4, 16, 4))
# mc-paths slots: (dimension, atoms, utility).
MC_SLOTS = ((1, 0, {"kind": "log"}),
            (2, 2, {"kind": "power", "p": 0.5}),
            (3, 8, {"kind": "log"}),
            (5, 4, {"kind": "power", "p": -1.0}),
            (6, 6, {"kind": "power", "p": 0.5}))
MC_PATHS = 2_000_000


def _r(x) -> float:
    """Six significant decimals keep the files short and exactly reproducible."""
    return round(float(x), 6)


def _vec(v) -> list[float]:
    return [_r(x) for x in v]


def _mat(m) -> list[list[float]]:
    return [_vec(row) for row in m]


def _locations(rng: np.random.Generator, d: int, n: int) -> list[list[float]]:
    """Jump sizes inside the unit ball, away from the origin."""
    out = []
    for _ in range(n):
        z = [float(x) for x in rng.uniform(-1.0, 1.0, d)]
        norm = math.sqrt(math.fsum(x * x for x in z))
        if norm < 0.05:
            z = [0.5 / math.sqrt(d)] * d
        elif norm > 1.0:
            z = [x / norm for x in z]
        out.append(_vec(z))
    return out


def _diffusion(rng: np.random.Generator, d: int, floor: float) -> list[list[float]]:
    """a a^T + floor I for a random a, summed in plain Python floats."""
    a = rng.uniform(-0.1, 0.1, (d, d)).tolist()
    return [[math.fsum(a[i][k] * a[j][k] for k in range(d)) + (floor if i == j else 0.0)
             for j in range(d)] for i in range(d)]


def _radius(d: int, reach: float = 0.75) -> float:
    """Box radius with |y . z| <= reach for every y in the box and |z| <= 1, so
    no feasible strategy comes near the bankruptcy boundary."""
    return _r(reach / math.sqrt(d))


def _drift_signs(rng: np.random.Generator, d: int) -> list[float]:
    """One sign per asset, shared by every vertex. Drifts of 0.3-0.5 in these
    directions against diffusions of 0.02-0.1 put the robust optimum on a
    corner of the strategy box, never at the origin, and keep the solver's
    work per task nearly the same from seed to seed."""
    return [float(x) for x in rng.choice([-1.0, 1.0], d)]


def saddle_model(slot: int, member: int) -> dict:
    d, k, n_loc = SADDLE_SLOTS[slot]
    rng = np.random.default_rng([member, 1, slot])
    locations = _locations(rng, d, n_loc)
    signs = _drift_signs(rng, d)
    vertices = []
    for _ in range(k):
        b = [s * float(u) for s, u in zip(signs, rng.uniform(0.3, 0.5, d))]
        c = _diffusion(rng, d, float(rng.uniform(0.02, 0.05)))
        atoms = [{"rate": _r(rng.uniform(0.02, 0.1)), "location": z}
                 for z in locations]
        vertices.append({"b": _vec(b), "c": _mat(c), "jumps": {"atoms": atoms}})
    r = _radius(d)
    return {"dimension": d, "utility": {"kind": "log"}, "T": 1.0, "x0": 1.0,
            "C": {"box": [[-r, r]] * d},
            "Theta": {"vertices": vertices},
            "simulation": {"n_paths": 100000, "seed": 100 * member + slot}}


def mc_model(slot: int, member: int) -> tuple[dict, list[float]]:
    d, n_atoms, utility = MC_SLOTS[slot]
    rng = np.random.default_rng([member, 3, slot])
    b = rng.uniform(0.0, 0.15, d)
    c = _diffusion(rng, d, float(rng.uniform(0.02, 0.05)))
    # A total jump rate of 0.25 per atom and a unit horizon fix the expected
    # number of jumps per path, and with it the work per path, per slot.
    shares = [float(x) for x in rng.uniform(0.2, 1.0, n_atoms)]
    total = math.fsum(shares)
    rates = [0.25 * n_atoms * x / total for x in shares]
    atoms = [{"rate": _r(rate), "location": z}
             for rate, z in zip(rates, _locations(rng, d, n_atoms))]
    triplet = {"b": _vec(b), "c": _mat(c)}
    if atoms:
        triplet["jumps"] = {"atoms": atoms}
    # |pi . z| <= 0.5 keeps the utility's tails light enough for the
    # 3.5-sigma agreement check to hold at its nominal rate.
    r = _radius(d, reach=0.5)
    pi = _vec(rng.uniform(-r, r, d))
    model = {"dimension": d, "utility": utility, "T": 1.0,
             "x0": 1.0, "C": {"box": [[-r, r]] * d},
             "Theta": {"vertices": [triplet]},
             "simulation": {"seed": 100 * member + slot}}
    return model, pi


def _task(command: str, model: str, bundled: bool, *extra: str) -> dict:
    return {"command": command, "model": model, "bundled": bundled, "args": list(extra)}


SLOTS = {"saddle-nd": SADDLE_SLOTS, "mc-paths": MC_SLOTS}


def member_task(workload: str, slot: int, member: int) -> tuple[dict, str, dict]:
    """The task, model file name and model of one pool member."""
    if workload == "saddle-nd":
        name = f"saddle_{slot}_{member:02d}.json"
        return _task("verify", name, False), name, saddle_model(slot, member)
    name = f"mc_{slot}_{member:02d}.json"
    model, pi = mc_model(slot, member)
    # "--pi=" form: a leading minus sign would read as an option.
    return (_task("simulate", name, False, "--pi=" + ",".join(repr(x) for x in pi),
                  "--paths", str(MC_PATHS)), name, model)


def tasks_for(workload: str, seed: int) -> tuple[list[dict], dict[str, dict]]:
    """The workload's ordered task list and the model files it needs, by name."""
    if seed < 0:
        raise ValueError("the seed must be nonnegative")
    rng = np.random.default_rng([seed, 0])
    if workload == "cli-1d":
        pairs = [(c, m) for m in BUNDLED for c in COMMANDS]
        return [_task(*pairs[i], True) for i in rng.permutation(len(pairs))], {}
    if workload not in SLOTS:
        raise ValueError(f"unknown workload '{workload}'")
    # Every slot in turn, so a cycle's tasks add up to the same work.
    picks = [rng.choice(POOL, MEMBERS_PER_RUN, replace=False) for _ in SLOTS[workload]]
    tasks, models = [], {}
    for cycle in range(MEMBERS_PER_RUN):
        for slot, members in enumerate(picks):
            task, name, models[name] = member_task(workload, slot, int(members[cycle]))
            tasks.append(task)
    return tasks, models


def pool_tasks(workload: str) -> tuple[list[dict], dict[str, dict]]:
    """Every member of every slot of a generated workload."""
    tasks, models = [], {}
    for slot in range(len(SLOTS[workload])):
        for member in range(POOL):
            task, name, models[name] = member_task(workload, slot, member)
            tasks.append(task)
    return tasks, models


def _dump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write(out_dir: Path, header: dict, tasks: list[dict], models: dict[str, dict]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, model in models.items():
        (out_dir / name).write_text(_dump(model), encoding="utf-8")
    (out_dir / "manifest.json").write_text(_dump({**header, "tasks": tasks}),
                                           encoding="utf-8")


def generate(workload: str, seed: int, out_dir: Path) -> list[dict]:
    """Write the workload's model files and manifest into out_dir; return the tasks."""
    tasks, models = tasks_for(workload, seed)
    write(out_dir, {"workload": workload, "seed": seed}, tasks, models)
    return tasks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cli-1d", *SLOTS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
