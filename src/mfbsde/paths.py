"""Time grids, Brownian increment bundles and per-particle path storage.

The solver discretizes [0, T] on a uniform grid.  X and Y values live on
the N_t + 1 grid nodes; Z values live on the N_t steps (left endpoints),
because Z multiplies dW over a step.  One ``BrownianBundle`` is drawn per
solve and reused across all outer iterations (common random numbers), so
two runs with the same configuration and seed are bit-identical.

Ensembles and bundles are stored time-major: one C-contiguous
``(nodes, particles, dim)`` array, ``time_major``, so the solver's
per-step work reads one contiguous block ``time_major[k]``.  The
particle-major ``(particles, nodes, dim)`` arrays of the public API
(``PathEnsemble.values``, ``BrownianBundle.increments``) are read-only
transposed views of it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .measure import EmpiricalMeasure

__all__ = [
    "TimeGrid",
    "BrownianBundle",
    "PathEnsemble",
    "from_time_major",
    "make_bundle",
    "marginal",
    "joint_marginal",
    "moments_to_csv",
    "node_msd",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_{steps} = horizon."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


def _time_major_copy(arr: np.ndarray) -> np.ndarray:
    """Read-only C-contiguous (nodes, particles, dim) copy of a particle-major array."""
    out = np.swapaxes(arr, 0, 1).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BrownianBundle:
    """Reusable bundle of Brownian increments, one N(0, dt) draw per
    (particle, step, component).

    Drawn from a counter-based Philox stream keyed on ``seed``, so the
    array is reproducible bit-for-bit and independent of scheduling order.
    ``time_major`` is (steps, particles, dim); ``increments`` is its
    read-only (particles, steps, dim) view.
    """

    seed: int
    time_major: np.ndarray

    @property
    def increments(self) -> np.ndarray:
        return np.swapaxes(self.time_major, 0, 1)

    @property
    def particles(self) -> int:
        return self.time_major.shape[1]

    @property
    def steps(self) -> int:
        return self.time_major.shape[0]

    @property
    def dim(self) -> int:
        return self.time_major.shape[2]


@dataclass(frozen=True)
class PathEnsemble:
    """Per-particle process values, given as an array (particles, nodes, dim).

    The constructor copies and checks the array and stores it time-major
    (``time_major``, C-contiguous (nodes, particles, dim)); ``values`` is
    the read-only particle-major view.  For matrix-valued processes (Z)
    the trailing axis stores the row-major flattening; ``dim`` is then
    rows * cols.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError(f"values must be (particles, nodes, dim), got shape {vals.shape}")
        tm = _time_major_copy(vals)
        if not np.all(np.isfinite(tm)):
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "time_major", tm)
        object.__setattr__(self, "values", np.swapaxes(tm, 0, 1))

    @property
    def particles(self) -> int:
        return self.time_major.shape[1]

    @property
    def nodes(self) -> int:
        return self.time_major.shape[0]

    @property
    def dim(self) -> int:
        return self.time_major.shape[2]


def from_time_major(arr: np.ndarray) -> PathEnsemble:
    """The ensemble whose ``time_major`` array equals ``arr`` (nodes, particles, dim)."""
    return PathEnsemble(values=np.swapaxes(arr, 0, 1))


def make_bundle(grid: TimeGrid, particles: int, dim: int, seed: int) -> BrownianBundle:
    """Draw the (particles, steps, dim) increment array for ``grid``.

    Deterministic given (grid, particles, dim, seed).
    """
    if particles < 1 or dim < 1:
        raise ValueError(f"particles and dim must be positive, got {particles}, {dim}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))
    incr = rng.standard_normal((particles, grid.steps, dim)) * np.sqrt(grid.dt)
    return BrownianBundle(seed=seed, time_major=_time_major_copy(incr))


def marginal(e: PathEnsemble, node: int, components: slice | None = None) -> EmpiricalMeasure:
    """Cloud of the selected components at a grid node, one point per particle."""
    if not (0 <= node < e.nodes):
        raise IndexError(f"node {node} out of range [0, {e.nodes})")
    pts = e.time_major[node] if components is None else e.time_major[node][:, components]
    return EmpiricalMeasure(points=pts)


def joint_marginal(x_ens: PathEnsemble, y_ens: PathEnsemble, node: int) -> EmpiricalMeasure:
    """Joint (X, Y) cloud at a node: per-particle concatenation of components."""
    if x_ens.particles != y_ens.particles or x_ens.nodes != y_ens.nodes:
        raise ValueError("x and y ensembles must share particle and node counts")
    if not (0 <= node < x_ens.nodes):
        raise IndexError(f"node {node} out of range [0, {x_ens.nodes})")
    pts = np.concatenate([x_ens.time_major[node], y_ens.time_major[node]], axis=1)
    return EmpiricalMeasure(points=pts)


def node_msd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-node mean over particles of |a - b|^2, for time-major arrays
    (nodes, particles, dim)."""
    d = a - b
    d *= d
    return d.reshape(d.shape[0], -1).sum(axis=1) / d.shape[1]


def _node_times(e: PathEnsemble, grid: TimeGrid) -> np.ndarray:
    # X/Y ensembles carry steps+1 nodes; Z carries one value per step,
    # stamped with the left endpoint.
    return grid.nodes[: e.nodes]


def moments_to_csv(e: PathEnsemble, grid: TimeGrid, fileobj) -> None:
    """Write rows (time, mean_0, ..., var_0, ...) of the cross-particle moments."""
    times = _node_times(e, grid)
    means = e.time_major.mean(axis=1)
    variances = e.time_major.var(axis=1)
    writer = csv.writer(fileobj)
    writer.writerow(["time"] + [f"mean_{j}" for j in range(e.dim)] + [f"var_{j}" for j in range(e.dim)])
    for k, t in enumerate(times):
        row = [repr(float(t))]
        row += [repr(float(v)) for v in means[k]]
        row += [repr(float(v)) for v in variances[k]]
        writer.writerow(row)
