"""Per-layer timers for the benchmark's traced run.

``Tracer.install()`` wraps public functions of the rlp modules, and the scipy
solvers they call, at runtime. A function imported by name into several rlp
modules is replaced in every one of them (``rlp.levy.bounding_box`` and
``rlp.optimizer.bounding_box`` alike), and methods are replaced on their
class. Nothing under ``src/`` changes. ``uninstall()`` restores the originals.

Each wrapped call is a span. A span's time counts in its own layer and, as
child time, in the span that was open when it started, so a layer's self time
is its span time minus the time of the wrapped calls beneath it. Counts that
the program reports (ascent iterations, SLSQP iterations, solver statuses,
Monte Carlo paths, atoms evaluated) are collected at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import scipy.optimize

import rlp
import rlp.growth
import rlp.levy
import rlp.model_io
import rlp.optimizer
import rlp.simulator

# (home module, attribute, layer name). scipy functions are replaced only
# where an rlp module imported them, never inside scipy.
FUNCTIONS = (
    (rlp.model_io, "load_model", "model_io.load_model"),
    (rlp.model_io, "emit_report", "model_io.emit_report"),
    (rlp.levy, "compile_box_to_vertices", "levy.compile_box_to_vertices"),
    (rlp.levy, "validate_triplet", "levy.validate_triplet"),
    (rlp.levy, "bounding_box", "levy.bounding_box"),
    (rlp.optimizer, "maximize_robust", "optimizer.maximize_robust"),
    (rlp.optimizer, "find_saddle", "optimizer.find_saddle"),
    (rlp.optimizer, "verify_saddle", "optimizer.verify_saddle"),
    (rlp.simulator, "mc_expected_utility", "simulator.mc_expected_utility"),
    (scipy.optimize, "linprog", "scipy.linprog"),
    (scipy.optimize, "minimize", "scipy.minimize_slsqp"),
)
# (class, method, layer name). Best responses are counted as UncertaintySet.mix
# calls: each one in the saddle search and its recheck starts with one, and
# ``verify`` adds one more per task for its Monte Carlo triplet.
METHODS = (
    (rlp.growth.GrowthModel, "vertex_values", "growth.vertex_values"),
    (rlp.growth.GrowthModel, "smoothed", "growth.smoothed"),
    (rlp.growth.GrowthModel, "gradient", "growth.gradient"),
    (rlp.optimizer.FeasibleRegion, "project", "optimizer.project"),
    (rlp.levy.UncertaintySet, "mix", "optimizer.best_response"),
)


class Tracer:
    """Span and count accumulator; single-threaded callers only."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _counted(self, layer: str, result, args) -> None:
        if layer == "scipy.linprog":
            self.counts["scipy.linprog.status_nonzero"] += int(result.status != 0)
        elif layer == "scipy.minimize_slsqp":
            self.counts["scipy.minimize_slsqp.nit"] += int(result.nit)
            self.counts["scipy.minimize_slsqp.status_nonzero"] += int(result.status != 0)
        elif layer == "optimizer.maximize_robust":
            self.counts["optimizer.ascent_iterations"] += result.diagnostics.get("iterations", 0)
            self.counts["optimizer.levels_run"] += result.diagnostics.get("levels_run", 0)
        elif layer == "simulator.mc_expected_utility":
            self.counts["simulator.paths"] += result.n_paths
        elif layer in ("growth.vertex_values", "growth.smoothed"):
            self.counts["growth.jump_terms.count"] += len(args[0].rates)
        elif layer == "growth.gradient":
            model, vertex = args[0], args[1]
            self.counts["growth.jump_terms.count"] += model.theta.vertices[vertex].jumps.m

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = tracer._open.pop()
                tracer.calls[layer] += 1
                tracer.seconds[layer] += elapsed
                tracer.self_seconds[layer] += elapsed - child
                if tracer._open:
                    tracer._open[-1] += elapsed
            tracer._counted(layer, result, args)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        rlp_modules = [m for name, m in sys.modules.items()
                       if m is not None and (name == "rlp" or name.startswith("rlp."))]
        for home, attr, layer in FUNCTIONS:
            original = getattr(home, attr)
            wrapper = self._wrap(layer, original)
            for module in rlp_modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for cls, attr, layer in METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict:
        """Plain-dict state, mergeable with ``merge``."""
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds), "counts": dict(self.counts)}

    def merge(self, snapshot: dict) -> None:
        for key in ("calls", "seconds", "self_seconds", "counts"):
            target = getattr(self, key)
            for name, value in snapshot[key].items():
                target[name] += value
