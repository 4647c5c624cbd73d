"""Market primitives: jump measures, Levy triplets, uncertainty sets, constraint polyhedra.

All types are plain frozen dataclasses holding read-only numpy arrays, so
instances can be shared freely between threads after construction.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import (
    InfeasibleError,
    OriginExcludedError,
    SupportContainsZeroError,
    TooManyVerticesError,
)

# Diffusion eigenvalues are accepted down to this level and clamped to zero.
PSD_TOL = 1e-12

# Corner enumeration cap for interval boxes: 2**k corners must stay below this.
MAX_BOX_VERTICES = 4096


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def truncation(z: np.ndarray) -> np.ndarray:
    """Jump truncation h(z) = z inside the closed Euclidean unit ball, 0 outside.

    The ball is closed, so a one-dimensional jump of size exactly 1 is kept.
    Accepts a single point (d,) or a stack of points (m, d).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        return z if np.linalg.norm(z) <= 1.0 else np.zeros_like(z)
    keep = np.linalg.norm(z, axis=1) <= 1.0
    return z * keep[:, None]


@dataclass(frozen=True, eq=False)
class JumpMeasure:
    """Finite-activity jump measure: a finite list of Poisson atoms.

    rates
        (m,) expected jumps per unit time, all strictly positive.
    locations
        (m, d) jump sizes, none at the origin.
    approximate
        True when the atoms were produced by discretizing a density.
    """

    rates: np.ndarray
    locations: np.ndarray
    approximate: bool = False

    def __post_init__(self):
        rates = _readonly(np.atleast_1d(np.asarray(self.rates, dtype=float)))
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim == 1:
            loc = loc.reshape(len(rates), 1) if len(rates) else loc.reshape(0, 1)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "locations", _readonly(loc))

    @classmethod
    def empty(cls, dimension: int) -> "JumpMeasure":
        return cls(np.zeros(0), np.zeros((0, dimension)))

    @classmethod
    def from_atoms(cls, atoms: Iterable[tuple[float, Sequence[float]]],
                   dimension: int | None = None, approximate: bool = False) -> "JumpMeasure":
        atoms = list(atoms)
        if not atoms:
            if dimension is None:
                raise ValueError("dimension is required for an empty atom list")
            return cls(np.zeros(0), np.zeros((0, dimension)), approximate)
        rates = np.array([a[0] for a in atoms], dtype=float)
        locs = np.array([np.atleast_1d(a[1]) for a in atoms], dtype=float)
        return cls(rates, locs, approximate)

    @property
    def m(self) -> int:
        return len(self.rates)

    @property
    def dimension(self) -> int:
        return self.locations.shape[1]

    @property
    def total_rate(self) -> float:
        return float(self.rates.sum())

    def truncated_mean(self) -> np.ndarray:
        """The d-vector of sum(rate * h(z)) over all atoms."""
        if self.m == 0:
            return np.zeros(self.dimension)
        return truncation(self.locations).T @ self.rates


@dataclass(frozen=True, eq=False)
class LevyTriplet:
    """Model characteristics (b, c, F): drift, diffusion matrix, jump measure.

    The diffusion matrix must be symmetric positive semidefinite; eigenvalues
    down to -1e-12 are tolerated and clamped to zero at construction.
    """

    b: np.ndarray
    c: np.ndarray
    jumps: JumpMeasure

    def __post_init__(self):
        b = _readonly(np.atleast_1d(np.asarray(self.b, dtype=float)))
        d = len(b)
        c = np.asarray(self.c, dtype=float)
        if c.ndim == 0:
            c = c.reshape(1, 1)
        if c.shape == (d, d) and np.allclose(c, c.T, rtol=0.0, atol=1e-9):
            sym = (c + c.T) / 2.0
            w, v = np.linalg.eigh(sym)
            if w.min() >= -PSD_TOL and w.min() < 0.0:
                c = (v * np.clip(w, 0.0, None)) @ v.T
        jumps = self.jumps
        if jumps.m == 0 and jumps.dimension != d:
            jumps = JumpMeasure.empty(d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", _readonly(c))
        object.__setattr__(self, "jumps", jumps)

    @property
    def dimension(self) -> int:
        return len(self.b)


def validate_triplet(triplet: LevyTriplet) -> list[str]:
    """Check one triplet and return a list of violation messages (empty if valid)."""
    msgs: list[str] = []
    d = triplet.dimension
    if not np.all(np.isfinite(triplet.b)):
        msgs.append("drift vector has non-finite entries")
    c = triplet.c
    if c.shape != (d, d):
        msgs.append(f"diffusion matrix has shape {c.shape}, expected {(d, d)}")
        return msgs
    if not np.all(np.isfinite(c)):
        msgs.append("diffusion matrix has non-finite entries")
        return msgs
    if not np.allclose(c, c.T, rtol=0.0, atol=1e-9):
        msgs.append("diffusion matrix is not symmetric")
    else:
        w = np.linalg.eigvalsh((c + c.T) / 2.0)
        if w.min() < -PSD_TOL:
            msgs.append(f"diffusion matrix is not PSD (min eigenvalue {w.min():.3e})")
    jm = triplet.jumps
    if jm.locations.shape[1] != d:
        msgs.append("jump locations do not match the drift dimension")
        return msgs
    if jm.m:
        if not np.all(np.isfinite(jm.rates)) or not np.all(np.isfinite(jm.locations)):
            msgs.append("jump measure has non-finite entries")
        if np.any(jm.rates <= 0.0):
            msgs.append("every jump rate must be strictly positive")
        if np.any(np.linalg.norm(jm.locations, axis=1) == 0.0):
            msgs.append("jump atom at the origin is not allowed")
    return msgs


@dataclass(frozen=True, eq=False)
class UncertaintySet:
    """Polytope of plausible triplets, stored by its vertex list."""

    vertices: tuple[LevyTriplet, ...]

    def __post_init__(self):
        vertices = tuple(self.vertices)
        if not vertices:
            raise ValueError("an uncertainty set needs at least one vertex")
        d = vertices[0].dimension
        if any(v.dimension != d for v in vertices):
            raise ValueError("all vertices must share one dimension")
        object.__setattr__(self, "vertices", vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def dimension(self) -> int:
        return self.vertices[0].dimension

    def atom_locations(self) -> np.ndarray:
        """Distinct jump locations across all vertices, as an (m, d) array."""
        stacks = [v.jumps.locations for v in self.vertices if v.jumps.m]
        if not stacks:
            return np.zeros((0, self.dimension))
        return np.unique(np.concatenate(stacks, axis=0), axis=0)

    def mix(self, weights: Sequence[float]) -> LevyTriplet:
        """Convex combination of the vertices; equal atom locations merge their rates."""
        w = np.asarray(weights, dtype=float)
        if len(w) != len(self.vertices):
            raise ValueError("one weight per vertex is required")
        if np.any(w < -1e-12):
            raise ValueError("mixture weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        s = w.sum()
        if s <= 0.0:
            raise ValueError("mixture weights must not all vanish")
        w = w / s
        b = sum(wi * v.b for wi, v in zip(w, self.vertices))
        c = sum(wi * v.c for wi, v in zip(w, self.vertices))
        acc: dict[bytes, tuple[np.ndarray, float]] = {}
        for wi, v in zip(w, self.vertices):
            if wi == 0.0:
                continue
            for rate, z in zip(v.jumps.rates, v.jumps.locations):
                key = z.tobytes()
                old = acc.get(key)
                acc[key] = (z, (old[1] if old else 0.0) + wi * float(rate))
        atoms = [(r, z) for z, r in acc.values() if r > 0.0]
        return LevyTriplet(b, c, JumpMeasure.from_atoms(atoms, dimension=self.dimension))


def mix_triplets(first: LevyTriplet, second: LevyTriplet, weight: float) -> LevyTriplet:
    """weight * first + (1 - weight) * second as a single triplet."""
    return UncertaintySet((first, second)).mix([weight, 1.0 - weight])


@dataclass(frozen=True)
class UtilitySpec:
    """Utility choice: log wealth, or a power p in (-inf, 0) or (0, 1).

    epsilon enters only the finiteness bound for p in (0, 1), where the jump
    weight uses the exponent p * (1 + epsilon), which must stay below 1.
    """

    kind: str
    p: float = 0.0
    epsilon: float = 0.01

    def __post_init__(self):
        if self.kind not in ("log", "power"):
            raise ValueError("utility kind must be 'log' or 'power'")
        if self.kind == "log" and self.p != 0.0:
            raise ValueError("log utility fixes p = 0")
        if self.kind == "power":
            if self.p == 0.0 or self.p >= 1.0:
                raise ValueError("power utility needs p < 1 and p != 0")
            if 0.0 < self.p < 1.0:
                if self.epsilon <= 0.0:
                    raise ValueError("epsilon must be positive")
                if self.p * (1.0 + self.epsilon) >= 1.0:
                    raise ValueError("p * (1 + epsilon) must stay below 1")

    @classmethod
    def log_utility(cls) -> "UtilitySpec":
        return cls("log", 0.0)

    @classmethod
    def power_utility(cls, p: float, epsilon: float = 0.01) -> "UtilitySpec":
        return cls("power", p, epsilon)

    @property
    def is_log(self) -> bool:
        return self.kind == "log"


@dataclass(frozen=True)
class ValidationReport:
    """Summary of model-level checks: finiteness bound, compactness, violations."""

    kappa: float
    compact: bool
    messages: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.compact and math.isfinite(self.kappa) and not self.messages


def characteristics_bound(theta: UncertaintySet, utility: UtilitySpec) -> float:
    """Uniform bound on the characteristics over the vertex set.

    Per vertex: |b| + |c|_F + sum of rate * min(|z|^2, w(z)), where the jump
    weight w depends on the utility:

    * log:            w(z) = log(1 + |z|)
    * power, 0<p<1:   w(z) = |z|^(p (1 + epsilon))
    * power, p<0:     w(z) = 1

    Returns the maximum over vertices. Finite whenever every jump measure is
    finite, which the atom representation guarantees.
    """
    p = utility.p
    best = 0.0
    for v in theta.vertices:
        total = float(np.linalg.norm(v.b)) + float(np.linalg.norm(v.c, ord="fro"))
        if v.jumps.m:
            norms = np.linalg.norm(v.jumps.locations, axis=1)
            if p == 0.0:
                w = np.log1p(norms)
            elif p > 0.0:
                w = norms ** (p * (1.0 + utility.epsilon))
            else:
                w = np.ones_like(norms)
            total += float(v.jumps.rates @ np.minimum(norms ** 2, w))
        best = max(best, total)
    return best


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Intersection of halfspaces {y : normal . y <= offset}, one row each.

    ``bounds`` and ``compact`` run the 2 d bounding-box LPs on first use and
    keep the result, so a polyhedron is proved compact at most once.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        normals = np.asarray(self.normals, dtype=float)
        if normals.ndim == 1:
            normals = normals.reshape(1, -1) if normals.size else normals.reshape(0, 1)
        offsets = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if len(offsets) != len(normals):
            raise ValueError("one offset per normal is required")
        object.__setattr__(self, "normals", _readonly(normals))
        object.__setattr__(self, "offsets", _readonly(offsets))

    @classmethod
    def whole_space(cls, dimension: int) -> "Polyhedron":
        return cls(np.zeros((0, dimension)), np.zeros(0))

    @classmethod
    def from_halfspaces(cls, halfspaces: Iterable[tuple[Sequence[float], float]],
                        dimension: int | None = None) -> "Polyhedron":
        halfspaces = list(halfspaces)
        if not halfspaces:
            if dimension is None:
                raise ValueError("dimension is required for an empty halfspace list")
            return cls.whole_space(dimension)
        normals = np.array([np.atleast_1d(n) for n, _ in halfspaces], dtype=float)
        offsets = np.array([o for _, o in halfspaces], dtype=float)
        return cls(normals, offsets)

    @classmethod
    def box(cls, bounds: Sequence[tuple[float | None, float | None]]) -> "Polyhedron":
        """Axis-aligned box; a None bound leaves that side open."""
        d = len(bounds)
        rows, offs = [], []
        for i, (lo, hi) in enumerate(bounds):
            e = np.zeros(d)
            if hi is not None:
                e_hi = e.copy()
                e_hi[i] = 1.0
                rows.append(e_hi)
                offs.append(float(hi))
            if lo is not None:
                e_lo = e.copy()
                e_lo[i] = -1.0
                rows.append(e_lo)
                offs.append(-float(lo))
        if not rows:
            return cls.whole_space(d)
        return cls(np.array(rows), np.array(offs))

    @property
    def m(self) -> int:
        return len(self.offsets)

    @property
    def dimension(self) -> int:
        return self.normals.shape[1]

    def intersect(self, other: "Polyhedron") -> "Polyhedron":
        """Merged halfspace list with exact duplicates dropped."""
        if self.dimension != other.dimension:
            raise ValueError("dimension mismatch")
        normals = np.concatenate([self.normals, other.normals], axis=0)
        offsets = np.concatenate([self.offsets, other.offsets])
        seen: set[bytes] = set()
        keep = []
        for j in range(len(offsets)):
            key = normals[j].tobytes() + offsets[j].tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(j)
        return Polyhedron(normals[keep], offsets[keep])

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate bounds from :func:`bounding_box`; +-inf marks open sides."""
        lo, hi = bounding_box(self)
        return _readonly(lo), _readonly(hi)

    @property
    def compact(self) -> bool:
        lo, hi = self.bounds
        return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

    def contains(self, y: np.ndarray, tol: float = 1e-9) -> bool:
        y = np.asarray(y, dtype=float)
        if self.m == 0:
            return True
        return bool(np.all(self.normals @ y <= self.offsets + tol))


def natural_constraints(theta: UncertaintySet, n: int | None = None) -> Polyhedron:
    """No-bankruptcy halfspaces induced by the jump atoms.

    One halfspace -z . y <= 1 per distinct atom location z across all
    vertices, keeping every jump factor 1 + y . z nonnegative. With ``n``
    given, the tightened version -z . y <= 1 - 1/n is returned instead; these
    sets increase to the untightened one as n grows.
    """
    if n is not None and n < 1:
        raise ValueError("n must be a positive integer")
    locations = theta.atom_locations()
    offset = 1.0 if n is None else 1.0 - 1.0 / n
    if len(locations) == 0:
        return Polyhedron.whole_space(theta.dimension)
    return Polyhedron(-locations, np.full(len(locations), offset))


def bounding_box(poly: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate LP bounds of the polyhedron; +-inf marks unbounded sides.

    Raises InfeasibleError when the polyhedron is empty.
    """
    d = poly.dimension
    lo = np.full(d, -np.inf)
    hi = np.full(d, np.inf)
    if poly.m == 0:
        return lo, hi
    a_ub, b_ub = poly.normals, poly.offsets
    free = [(None, None)] * d
    for i in range(d):
        cost = np.zeros(d)
        cost[i] = 1.0
        for sign, target in ((1.0, "lo"), (-1.0, "hi")):
            res = linprog(sign * cost, A_ub=a_ub, b_ub=b_ub, bounds=free, method="highs")
            if res.status == 2:
                raise InfeasibleError("constraint polyhedron is empty")
            if res.status == 3:
                continue
            if res.status != 0:
                raise RuntimeError(f"boundedness LP failed with status {res.status}")
            if target == "lo":
                lo[i] = res.fun
            else:
                hi[i] = -res.fun
    return lo, hi


def effective_domain(constraints: Polyhedron, theta: UncertaintySet) -> tuple[Polyhedron, bool]:
    """Intersect the strategy constraints with the no-bankruptcy halfspaces.

    Returns the merged polyhedron and its ``compact`` flag, whose 2 d
    boundedness LPs stay cached on that polyhedron. Raises OriginExcludedError
    when the zero strategy is not allowed (some constraint offset is negative)
    and InfeasibleError when the intersection is empty.
    """
    if constraints.dimension != theta.dimension:
        raise ValueError("constraint dimension does not match the uncertainty set")
    if constraints.m and np.any(constraints.offsets < 0.0):
        raise OriginExcludedError("the zero strategy must satisfy every constraint")
    merged = constraints.intersect(natural_constraints(theta))
    return merged, merged.compact


@dataclass(frozen=True, eq=False)
class UncertaintyBox:
    """Interval box over characteristics, compiled to vertices by corner enumeration.

    b_intervals
        (d, 2) per-coordinate drift intervals.
    c_scale
        Interval for a scalar multiplier of ``c_base``.
    c_base
        (d, d) PSD template for the diffusion matrix.
    atom_locations
        (m, d) fixed jump locations.
    rate_intervals
        (m, 2) per-atom rate intervals; a zero lower endpoint drops the atom
        in the corresponding corners.
    """

    b_intervals: np.ndarray
    c_scale: tuple[float, float]
    c_base: np.ndarray
    atom_locations: np.ndarray
    rate_intervals: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b_intervals, dtype=float).reshape(-1, 2)
        locs = np.asarray(self.atom_locations, dtype=float)
        if locs.ndim == 1:
            locs = locs.reshape(-1, 1) if locs.size else locs.reshape(0, b.shape[0])
        rates = np.asarray(self.rate_intervals, dtype=float).reshape(-1, 2)
        if len(rates) != len(locs):
            raise ValueError("one rate interval per atom location is required")
        lo_scale, hi_scale = (float(s) for s in self.c_scale)
        base = np.asarray(self.c_base, dtype=float)
        if base.ndim == 0:
            base = base.reshape(1, 1)
        object.__setattr__(self, "b_intervals", _readonly(b))
        object.__setattr__(self, "c_scale", (lo_scale, hi_scale))
        object.__setattr__(self, "c_base", _readonly(base))
        object.__setattr__(self, "atom_locations", _readonly(locs))
        object.__setattr__(self, "rate_intervals", _readonly(rates))

    @property
    def dimension(self) -> int:
        return self.b_intervals.shape[0]


def compile_box_to_vertices(box: UncertaintyBox) -> UncertaintySet:
    """Enumerate the corner triplets of an interval box.

    Degenerate intervals contribute no factor, so k free parameters yield
    2**k vertices. Raises TooManyVerticesError when that count would exceed
    4096 (13 or more free parameters).
    """
    params: list[tuple[float, ...]] = []
    for lo, hi in box.b_intervals:
        params.append((lo,) if lo == hi else (lo, hi))
    lo_s, hi_s = box.c_scale
    params.append((lo_s,) if lo_s == hi_s else (lo_s, hi_s))
    for lo, hi in box.rate_intervals:
        params.append((lo,) if lo == hi else (lo, hi))
    n_free = sum(1 for p in params if len(p) == 2)
    if 2 ** n_free > MAX_BOX_VERTICES:
        raise TooManyVerticesError(
            f"{n_free} free interval parameters enumerate {2 ** n_free} corners "
            f"(cap {MAX_BOX_VERTICES})")
    d = box.dimension
    m = len(box.atom_locations)
    vertices = []
    for corner in itertools.product(*params):
        b = np.array(corner[:d])
        c = corner[d] * box.c_base
        atoms = [(corner[d + 1 + j], box.atom_locations[j])
                 for j in range(m) if corner[d + 1 + j] > 0.0]
        vertices.append(LevyTriplet(b, c, JumpMeasure.from_atoms(atoms, dimension=d)))
    return UncertaintySet(tuple(vertices))


def discretize_density(density: Callable[[float], float],
                       support: tuple[float, float],
                       grid_points: int) -> JumpMeasure:
    """Midpoint-rule discretization of a one-dimensional jump intensity.

    The support must not straddle the origin (jumps of size zero are not
    jumps). Cells where the density vanishes are dropped. The result is
    flagged ``approximate``.
    """
    a, b = (float(s) for s in support)
    if not a < b:
        raise ValueError("support must be a nondegenerate interval")
    if a <= 0.0 <= b:
        raise SupportContainsZeroError(f"support [{a}, {b}] contains the origin")
    if grid_points < 2:
        raise ValueError("at least two grid points are required")
    width = (b - a) / grid_points
    centers = a + (np.arange(grid_points) + 0.5) * width
    levels = np.array([float(density(z)) for z in centers])
    if np.any(levels < 0.0):
        raise ValueError("the density must be nonnegative on its support")
    keep = levels > 0.0
    return JumpMeasure(levels[keep] * width, centers[keep].reshape(-1, 1),
                       approximate=True)
