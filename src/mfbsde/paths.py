"""Time grids, Brownian increment bundles and per-particle path storage.

The solver discretizes [0, T] on a uniform grid.  X and Y values live on
the N_t + 1 grid nodes; Z values live on the N_t steps (left endpoints),
because Z multiplies dW over a step.  One ``BrownianBundle`` is drawn per
solve and reused across all outer iterations (common random numbers), so
two runs with the same configuration and seed are bit-identical.
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
    "make_bundle",
    "marginal",
    "joint_marginal",
    "moments_to_csv",
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


@dataclass(frozen=True)
class BrownianBundle:
    """Reusable bundle of Brownian increments, one N(0, dt) draw per
    (particle, step, component).

    Drawn from a counter-based Philox stream keyed on ``seed``, so the
    array is reproducible bit-for-bit and independent of scheduling order.
    """

    seed: int
    increments: np.ndarray  # (particles, steps, dim)

    @property
    def particles(self) -> int:
        return self.increments.shape[0]

    @property
    def steps(self) -> int:
        return self.increments.shape[1]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]


@dataclass(frozen=True)
class PathEnsemble:
    """Per-particle process values: array (particles, nodes, dim).

    For matrix-valued processes (Z) the trailing axis stores the row-major
    flattening; ``dim`` is then rows * cols.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError(f"values must be (particles, nodes, dim), got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("ensemble values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def particles(self) -> int:
        return self.values.shape[0]

    @property
    def nodes(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def make_bundle(grid: TimeGrid, particles: int, dim: int, seed: int) -> BrownianBundle:
    """Draw the (particles, steps, dim) increment array for ``grid``.

    Deterministic given (grid, particles, dim, seed).
    """
    if particles < 1 or dim < 1:
        raise ValueError(f"particles and dim must be positive, got {particles}, {dim}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))
    incr = rng.standard_normal((particles, grid.steps, dim)) * np.sqrt(grid.dt)
    incr.flags.writeable = False
    return BrownianBundle(seed=seed, increments=incr)


def marginal(e: PathEnsemble, node: int, components: slice | None = None) -> EmpiricalMeasure:
    """Cloud of the selected components at a grid node, one point per particle."""
    if not (0 <= node < e.nodes):
        raise IndexError(f"node {node} out of range [0, {e.nodes})")
    pts = e.values[:, node, :] if components is None else e.values[:, node, components]
    return EmpiricalMeasure(points=pts)


def joint_marginal(x_ens: PathEnsemble, y_ens: PathEnsemble, node: int) -> EmpiricalMeasure:
    """Joint (X, Y) cloud at a node: per-particle concatenation of components."""
    if x_ens.particles != y_ens.particles or x_ens.nodes != y_ens.nodes:
        raise ValueError("x and y ensembles must share particle and node counts")
    if not (0 <= node < x_ens.nodes):
        raise IndexError(f"node {node} out of range [0, {x_ens.nodes})")
    pts = np.concatenate([x_ens.values[:, node, :], y_ens.values[:, node, :]], axis=1)
    return EmpiricalMeasure(points=pts)


def _node_times(e: PathEnsemble, grid: TimeGrid) -> np.ndarray:
    # X/Y ensembles carry steps+1 nodes; Z carries one value per step,
    # stamped with the left endpoint.
    return grid.nodes[: e.nodes]


def moments_to_csv(e: PathEnsemble, grid: TimeGrid, fileobj) -> None:
    """Write rows (time, mean_0, ..., var_0, ...) of the cross-particle moments."""
    times = _node_times(e, grid)
    means = e.values.mean(axis=0)
    variances = e.values.var(axis=0)
    writer = csv.writer(fileobj)
    writer.writerow(["time"] + [f"mean_{j}" for j in range(e.dim)] + [f"var_{j}" for j in range(e.dim)])
    for k, t in enumerate(times):
        row = [repr(float(t))]
        row += [repr(float(v)) for v in means[k]]
        row += [repr(float(v)) for v in variances[k]]
        writer.writerow(row)
