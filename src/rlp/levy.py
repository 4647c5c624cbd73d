"""Market primitives: jump measures, Levy triplets, uncertainty sets, constraint polyhedra.

All types are plain frozen dataclasses holding read-only numpy arrays, so
instances can be shared freely between threads after construction.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .errors import (
    InfeasibleError,
    ModelError,
    OriginExcludedError,
    SupportContainsZeroError,
    TooManyVerticesError,
)

# Diffusion eigenvalues are accepted down to this level and clamped to zero.
PSD_TOL = 1e-12

# Largest entrywise asymmetry |c - c^T| a diffusion matrix may have.
SYMMETRY_TOL = 1e-9

# Corner enumeration cap for interval boxes: 2**k corners must stay below this.
MAX_BOX_VERTICES = 4096

# Cell cap for a discretized jump density: one atom, hence one natural
# constraint, per cell.
MAX_GRID_POINTS = 4096


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _built(cls, **fields):
    """An instance of the frozen dataclass cls holding fields that are already
    in its canonical form, so __post_init__ is skipped."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _vertex_rules(drifts: np.ndarray, diffusions: np.ndarray, rates: np.ndarray,
                  locations: np.ndarray, counts: Sequence[int]
                  ) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """The diffusions with the PSD clamp applied, and (vertex, message) for
    every rule a vertex breaks, in vertex order.

    The vertices are stacked: drifts (k, d), diffusions (k, d, d), and the
    listed jump atoms, rates (n,) and locations (n, d), of which vertex i owns
    the next counts[i]. A diffusion matrix must be symmetric, |c - c^T| <=
    SYMMETRY_TOL entrywise (a non-finite entry fails, where np.allclose would
    call equal infinities close). One batched eigh of the symmetric part
    c / 2 + c^T / 2 (halved before the sum, so no finite entry overflows) over
    the symmetric matrices decides the rest: a smallest eigenvalue in
    [-PSD_TOL, 0) is clipped to 0 with the others and the matrix rebuilt from
    the eigenpairs, one below -PSD_TOL is reported. The input is not written
    to. A vertex with a non-finite diffusion matrix gets no further checks.
    """
    k = len(drifts)
    bad_b = ~np.isfinite(drifts).all(axis=1)
    bad_c = ~np.isfinite(diffusions).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        sym = np.abs(diffusions - diffusions.transpose(0, 2, 1)).max(axis=(1, 2)) <= SYMMETRY_TOL
    low = np.zeros(k)
    if sym.any():
        c = diffusions[sym]
        w, v = np.linalg.eigh(c / 2.0 + c.transpose(0, 2, 1) / 2.0)
        low[sym] = w.min(axis=1)
        clip = (low[sym] >= -PSD_TOL) & (low[sym] < 0.0)
        if clip.any():
            diffusions = diffusions.copy()
            w, v = np.clip(w[clip], 0.0, None), v[clip]
            diffusions[np.flatnonzero(sym)[clip]] = (v * w[:, None, :]) @ v.transpose(0, 2, 1)
    owner = np.repeat(np.arange(k), counts)
    bad_atom = np.zeros((3, k), dtype=bool)
    for row, broken in enumerate((
            ~(np.isfinite(rates) & np.isfinite(locations).all(axis=1)),
            rates <= 0.0,
            np.linalg.norm(locations, axis=1) == 0.0)):
        bad_atom[row, owner[broken]] = True
    bad_atom[:, bad_c] = False
    found = []
    for i in np.flatnonzero(bad_b | bad_c | ~sym | (low < -PSD_TOL) | bad_atom.any(axis=0)):
        if bad_b[i]:
            found.append((i, "drift vector has non-finite entries"))
        if bad_c[i]:
            found.append((i, "diffusion matrix has non-finite entries"))
            continue
        if not sym[i]:
            found.append((i, "diffusion matrix is not symmetric"))
        elif low[i] < -PSD_TOL:
            found.append((i, f"diffusion matrix is not PSD (min eigenvalue {low[i]:.3e})"))
        found.extend((i, message) for message, bad in zip(
            ("jump measure has non-finite entries", "every jump rate must be strictly positive",
             "jump atom at the origin is not allowed"), bad_atom[:, i]) if bad)
    return diffusions, [(int(i), message) for i, message in found]


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

    The diffusion matrix must be d x d and the jump locations, unless there
    are none, d-dimensional; otherwise ValueError is raised. The matrix should
    be symmetric positive semidefinite (:func:`validate_triplet` reports
    where it is not); eigenvalues down to -1e-12 are tolerated and clamped to
    zero at construction, by the rule :meth:`UncertaintySet.stacked` applies
    to a whole vertex stack.
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
        if c.shape != (d, d):
            raise ValueError(f"diffusion matrix has shape {c.shape}, expected {(d, d)}")
        jumps = self.jumps
        if jumps.dimension != d:
            if jumps.m:
                raise ValueError("jump locations do not match the drift dimension")
            jumps = JumpMeasure.empty(d)
        c = _vertex_rules(b[None], c[None], jumps.rates, jumps.locations, [jumps.m])[0][0]
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", _readonly(c))
        object.__setattr__(self, "jumps", jumps)

    @property
    def dimension(self) -> int:
        return len(self.b)


def validate_triplet(triplet: LevyTriplet) -> list[str]:
    """Check one triplet and return a list of violation messages (empty if
    valid): the rules of :func:`_vertex_rules` for a stack of one vertex."""
    jumps = triplet.jumps
    return [message for _, message in _vertex_rules(
        triplet.b[None], triplet.c[None], jumps.rates, jumps.locations, [jumps.m])[1]]


@dataclass(frozen=True, eq=False)
class UncertaintySet:
    """Polytope of plausible triplets, stored by its vertex list and stacked
    once into the atom table that growth evaluation, mixing and the
    no-bankruptcy faces read: ``drifts`` (k, d), ``diffusions`` (k, d, d),
    the distinct jump ``locations`` (m, d) in order of first appearance,
    merged by value so that (z, -0.0) and (z, 0.0) are one atom, and
    ``rates`` (m, k), summed over repeated listings in listing order and zero
    where a vertex lacks an atom. The vertices are not checked again: each
    was clamped when it was built. :meth:`stacked` builds a set straight
    from stacked arrays.
    """

    vertices: tuple[LevyTriplet, ...]

    def __post_init__(self):
        vertices = tuple(self.vertices)
        if not vertices:
            raise ValueError("an uncertainty set needs at least one vertex")
        d = vertices[0].dimension
        if any(v.dimension != d for v in vertices):
            raise ValueError("all vertices must share one dimension")
        atoms: dict[tuple, int] = {}
        atom = [atoms.setdefault(row, len(atoms))
                for v in vertices for row in map(tuple, v.jumps.locations.tolist())]
        rates = np.zeros((len(atoms), len(vertices)))
        np.add.at(rates, (np.array(atom, dtype=np.intp),
                          np.repeat(np.arange(len(vertices)), [v.jumps.m for v in vertices])),
                  np.concatenate([v.jumps.rates for v in vertices]))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "drifts", _readonly([v.b for v in vertices]))
        object.__setattr__(self, "diffusions", _readonly([v.c for v in vertices]))
        object.__setattr__(self, "locations", _readonly(np.reshape(list(atoms), (-1, d))))
        object.__setattr__(self, "rates", _readonly(rates))

    @classmethod
    def stacked(cls, drifts: np.ndarray, diffusions: np.ndarray, rates: np.ndarray,
                locations: np.ndarray, counts: Sequence[int],
                approximate: Sequence[bool]) -> "UncertaintySet":
        """The set of the k vertices stacked as drifts (k, d) and diffusions
        (k, d, d), vertex i carrying the next counts[i] of the listed atoms
        rates (n,) and locations (n, d), discretized where approximate[i].

        The vertex rules (:func:`_vertex_rules`) run once over the whole
        stack: one batched eigh clamps each diffusion matrix as
        :class:`LevyTriplet` clamps it and checks it. A vertex that breaks a
        rule raises ModelError "vertex i: message; ...". The vertex objects
        are views of these arrays, so no matrix is decomposed on its own.
        """
        drifts, diffusions, rates, locations = (
            np.array(a, dtype=float) for a in (drifts, diffusions, rates, locations))
        locations = locations.reshape(-1, drifts.shape[1])
        diffusions, found = _vertex_rules(drifts, diffusions, rates, locations, counts)
        if found:
            raise ModelError("; ".join(f"vertex {i}: {message}" for i, message in found))
        for a in (drifts, diffusions, rates, locations):
            a.setflags(write=False)
        ends = np.cumsum(counts).tolist()
        return cls(tuple(
            _built(LevyTriplet, b=b, c=c, jumps=_built(
                JumpMeasure, rates=rates[start:end], locations=locations[start:end],
                approximate=bool(flag)))
            for b, c, start, end, flag in zip(drifts, diffusions, [0] + ends, ends,
                                              approximate)))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def dimension(self) -> int:
        return self.vertices[0].dimension

    def atom_locations(self) -> np.ndarray:
        """The distinct jump locations in lexicographic order, as an (m, d) array."""
        return self.locations[np.lexsort(self.locations.T[::-1])]

    def mix(self, weights: Sequence[float]) -> LevyTriplet:
        """Convex combination of the vertices; its atoms are the table's atoms
        that keep a positive rate, in table order."""
        w = np.asarray(weights, dtype=float)
        if len(w) != len(self.vertices):
            raise ValueError("one weight per vertex is required")
        if not np.all(np.isfinite(w)):
            raise ValueError("mixture weights must be finite")
        if np.any(w < -1e-12):
            raise ValueError("mixture weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        s = w.sum()
        if s <= 0.0:
            raise ValueError("mixture weights must not all vanish")
        w = w / s
        rates = self.rates @ w
        return LevyTriplet(w @ self.drifts, np.tensordot(w, self.diffusions, axes=1),
                           JumpMeasure(rates[rates > 0.0], self.locations[rates > 0.0]))


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
    norms = np.linalg.norm(theta.locations, axis=1)
    if p == 0.0:
        w = np.log1p(norms)
    elif p > 0.0:
        w = norms ** (p * (1.0 + utility.epsilon))
    else:
        w = np.ones_like(norms)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        totals = (np.linalg.norm(theta.drifts, axis=1)
                  + np.linalg.norm(theta.diffusions, axis=(1, 2))
                  + np.minimum(norms ** 2, w) @ theta.rates)
    return float(totals.max())


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """Intersection of halfspaces {y : normal . y <= offset}, one row each.

    ``bounds`` and ``compact`` find the bounding box on first use, in closed
    form when the single-coordinate rows decide it and by one stacked LP
    otherwise (see :func:`bounding_box`), and keep the result, so a
    polyhedron is proved compact at most once.
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

    def contains(self, y: np.ndarray) -> bool:
        """Exact membership: every halfspace holds at y with no tolerance."""
        y = np.asarray(y, dtype=float)
        if self.m == 0:
            return True
        return bool(np.all(self.normals @ y <= self.offsets))


def natural_constraints(theta: UncertaintySet, n: int | None = None) -> Polyhedron:
    """No-bankruptcy halfspaces induced by the jump atoms.

    One halfspace -z . y <= 1 per distinct location z of the set's atom
    table, in lexicographic order (:meth:`UncertaintySet.atom_locations`),
    keeping every jump factor 1 + y . z nonnegative. With ``n`` given, the
    tightened version -z . y <= 1 - 1/n is returned instead; these sets
    increase to the untightened one as n grows.
    """
    if n is not None and n < 1:
        raise ValueError("n must be a positive integer")
    locations = theta.atom_locations()
    offset = 1.0 if n is None else 1.0 - 1.0 / n
    return Polyhedron(-locations, np.full(len(locations), offset))


def bounding_box(poly: Polyhedron) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate bounds of the polyhedron; +-inf marks unbounded sides.

    Rows with exactly one nonzero coefficient a bound their coordinate at
    offset / a and cut out a box B, whose sides may be infinite. When every
    other row holds on all of B (its largest value over B, summed over its
    nonzero coefficients only, stays within its offset), B is the polyhedron
    itself and is returned in closed form; this covers every one-dimensional
    polyhedron. Otherwise the 2 d side problems (minimise, then maximise,
    each coordinate) run as one LP over 2 d independent copies of the
    variables. It separates, so each copy sits at its own side's optimum.
    When that LP is unbounded, the sides are solved one at a time to tell
    which ones are open. Raises InfeasibleError when the polyhedron is empty.
    """
    d = poly.dimension
    lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
    if poly.m == 0:
        return lo, hi
    normals, offsets = poly.normals, poly.offsets
    touches = normals != 0.0
    axis = np.count_nonzero(touches, axis=1) == 1
    coord = np.argmax(touches[axis], axis=1)
    coef = normals[axis][np.arange(len(coord)), coord]
    cut = offsets[axis] / coef
    np.maximum.at(lo, coord[coef < 0.0], cut[coef < 0.0])
    np.minimum.at(hi, coord[coef > 0.0], cut[coef > 0.0])
    if np.any(lo > hi):
        raise InfeasibleError("constraint polyhedron is empty")
    with np.errstate(invalid="ignore"):  # 0 * inf on rows that miss an open side
        reach = np.where(touches, normals * np.where(normals > 0.0, hi, lo), 0.0)
    if np.all(reach[~axis].sum(axis=1) <= offsets[~axis]):
        return lo, hi
    # side j bounds coordinate j % d from below (j < d) or from above
    ends = np.concatenate([np.full(d, -np.inf), np.full(d, np.inf)])
    batches = [np.arange(2 * d)]
    for sides in batches:
        n = len(sides)
        coords = sides % d
        cost = np.zeros((n, d))
        cost[np.arange(n), coords] = np.where(sides < d, 1.0, -1.0)
        res = linprog(cost.ravel(), A_ub=np.kron(np.eye(n), poly.normals),
                      b_ub=np.tile(poly.offsets, n), bounds=(None, None), method="highs")
        if res.status == 2:
            raise InfeasibleError("constraint polyhedron is empty")
        if res.status == 3:
            if n > 1:
                batches.extend(sides[[j]] for j in range(n))
            continue
        if res.status != 0:
            raise RuntimeError(f"boundedness LP failed with status {res.status}")
        ends[sides] = res.x.reshape(n, d)[np.arange(n), coords]
    return ends[:d], ends[d:]


def effective_domain(constraints: Polyhedron, theta: UncertaintySet) -> tuple[Polyhedron, bool]:
    """Intersect the strategy constraints with the no-bankruptcy halfspaces.

    Returns the merged polyhedron and its ``compact`` flag, whose bounding
    box (see :func:`bounding_box`) stays cached on that polyhedron. Raises
    OriginExcludedError when the zero strategy is not allowed (some
    constraint offset is negative) and InfeasibleError when the intersection
    is empty.
    """
    if constraints.dimension != theta.dimension:
        raise ValueError("constraint dimension does not match the uncertainty set")
    if constraints.m and np.any(constraints.offsets < 0.0):
        raise OriginExcludedError("the zero strategy must satisfy every constraint")
    merged = constraints.intersect(natural_constraints(theta))
    return merged, merged.compact


def compile_box_to_vertices(*, b_intervals: Sequence[Sequence[float]],
                            c_scale: Sequence[float], c_base: np.ndarray,
                            atom_locations: Sequence[Sequence[float]],
                            rate_intervals: Sequence[Sequence[float]]) -> UncertaintySet:
    """Enumerate the corner triplets of an interval box over the characteristics.

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

    Degenerate intervals contribute no factor, so k free parameters yield
    2**k vertices. Raises TooManyVerticesError when that count would exceed
    4096 (13 or more free parameters), and ModelError when a corner breaks
    a vertex rule (see :meth:`UncertaintySet.stacked`).
    """
    if len(rate_intervals) != len(atom_locations):
        raise ValueError("one rate interval per atom location is required")
    params = [(lo,) if lo == hi else (lo, hi)
              for lo, hi in (*b_intervals, c_scale, *rate_intervals)]
    n_free = sum(1 for p in params if len(p) == 2)
    if 2 ** n_free > MAX_BOX_VERTICES:
        raise TooManyVerticesError(
            f"{n_free} free interval parameters enumerate {2 ** n_free} corners "
            f"(cap {MAX_BOX_VERTICES})")
    d = len(b_intervals)
    corners = np.array(list(itertools.product(*params)), dtype=float)
    with np.errstate(over="ignore"):  # the vertex rules refuse the inf
        diffusions = corners[:, d, None, None] * np.asarray(c_base, dtype=float)
    kept = corners[:, d + 1:] > 0.0
    locations = np.reshape(np.asarray(atom_locations, dtype=float), (-1, d))
    return UncertaintySet.stacked(corners[:, :d], diffusions, corners[:, d + 1:][kept],
                                  locations[np.nonzero(kept)[1]], kept.sum(axis=1),
                                  [False] * len(corners))


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
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must lie in [2, {MAX_GRID_POINTS}]")
    width = (b - a) / grid_points
    centers = a + (np.arange(grid_points) + 0.5) * width
    levels = np.array([float(density(z)) for z in centers])
    if np.any(levels < 0.0):
        raise ValueError("the density must be nonnegative on its support")
    keep = levels > 0.0
    return JumpMeasure(levels[keep] * width, centers[keep].reshape(-1, 1),
                       approximate=True)
