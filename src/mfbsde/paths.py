"""Time grids, Brownian increment bundles and per-particle path storage.

The solver discretizes [0, T] on a uniform grid.  X and Y values live on
the N_t + 1 grid nodes; Z values live on the N_t steps (left endpoints),
because Z multiplies dW over a step.  One ``BrownianBundle`` is drawn per
solve and reused across all outer iterations (common random numbers), so
two runs with the same configuration and seed are bit-identical.

Ensembles are stored component-major: one read-only ``(nodes, dim,
particles)`` array of C-contiguous node blocks, ``component_major``
(C-contiguous, or one slot of the solver's path slab), so the solver's
per-step work reads one contiguous ``(dim, particles)`` block per node,
passes it to the coefficient tables, which read and return such blocks,
and averages along its last axis.  The one Brownian motion's bundle is a
``(steps, particles)`` array.  The particle-major arrays of the public
API (``PathEnsemble.values``, ``BrownianBundle.increments``) are
read-only transposed views.

A table reads a law only through its mean, so a frozen flow is one
``(nodes, 2m)`` table of (E[X_k], E[Y_k]), :func:`joint_marginal`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TimeGrid",
    "BrownianBundle",
    "PathEnsemble",
    "from_component_major",
    "make_bundle",
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


@dataclass(frozen=True)
class BrownianBundle:
    """Reusable bundle of the one Brownian motion's increments, one N(0, dt)
    draw per (particle, step).

    :func:`make_bundle` draws it from a Philox stream keyed on its seed, so
    the array is reproducible bit-for-bit and independent of scheduling order.
    ``component_major`` is a (steps, particles) array, made read-only (any
    other rank is rejected), and ``increments`` its (particles, steps) view.
    """

    component_major: np.ndarray

    def __post_init__(self):
        if np.ndim(self.component_major) != 2:
            raise ValueError(f"a bundle is a (steps, particles) array, got shape {np.shape(self.component_major)}")
        self.component_major.flags.writeable = False

    @property
    def increments(self) -> np.ndarray:
        return self.component_major.T

    @property
    def particles(self) -> int:
        return self.component_major.shape[1]

    @property
    def steps(self) -> int:
        return self.component_major.shape[0]


@dataclass(frozen=True)
class PathEnsemble:
    """Per-particle process values, given as an array (particles, nodes, dim).

    The constructor copies and checks the array and stores it
    component-major (``component_major``, C-contiguous (nodes, dim,
    particles)); ``values`` is the read-only particle-major view.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError(f"values must be (particles, nodes, dim), got shape {vals.shape}")
        cm = vals.transpose(1, 2, 0).copy()
        cm.flags.writeable = False
        if not np.all(np.isfinite(cm)):
            raise ValueError("ensemble values must be finite")
        object.__setattr__(self, "component_major", cm)
        object.__setattr__(self, "values", cm.transpose(2, 0, 1))

    @property
    def particles(self) -> int:
        return self.component_major.shape[2]

    @property
    def nodes(self) -> int:
        return self.component_major.shape[0]

    @property
    def dim(self) -> int:
        return self.component_major.shape[1]

    def node(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (dim, particles) block of node k, a read-only view or copied to ``out`` (a fitted map's interface)."""
        return self.component_major[k] if out is None else np.copyto(out, self.component_major[k]) or out

    def __iter__(self):
        return iter(self.component_major)


def from_component_major(arr: np.ndarray) -> PathEnsemble:
    """The ensemble that stores ``arr``, a finite (nodes, dim, particles)
    array whose node blocks are C-contiguous (a C-contiguous array, or one
    slot of the solver's path slab), itself: no copy and no finiteness scan
    (the solver's sweeps check their own output), and ``arr`` becomes
    read-only."""
    if arr.ndim != 3 or not (len(arr) and arr[0].flags.c_contiguous):
        raise ValueError(f"expected a (nodes, dim, particles) array of C-contiguous nodes, got shape {arr.shape}")
    arr.flags.writeable = False
    e = object.__new__(PathEnsemble)
    object.__setattr__(e, "component_major", arr)
    object.__setattr__(e, "values", arr.transpose(2, 0, 1))
    return e


def make_bundle(grid: TimeGrid, particles: int, seed: int) -> BrownianBundle:
    """Draw the (particles, steps) increment array for ``grid``.

    Deterministic given (grid, particles, seed); ``seed`` is the Philox
    key, so it must lie in [0, 2**64).
    """
    if particles < 1:
        raise ValueError(f"particles must be positive, got {particles}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    incr = rng.standard_normal((particles, grid.steps)) * np.sqrt(grid.dt)
    return BrownianBundle(component_major=incr.T.copy())


def joint_marginal(x_ens: PathEnsemble, y) -> np.ndarray:
    """The flow table of (X, Y): the read-only (nodes, 2m) array whose row k is (E[X_k], E[Y_k]), with ``y`` a
    path ensemble or a fitted map on the same particles, read one node at a time.  Each row has the bits of the
    mean of the node's concatenated (P, 2m) cloud."""
    if x_ens.particles != y.particles or x_ens.nodes != y.nodes:
        raise ValueError("x and y ensembles must share particle and node counts")
    table = np.array([np.concatenate([xk.mean(axis=-1), yk.mean(axis=-1)]) for xk, yk in zip(x_ens, y)])
    table.flags.writeable = False
    return table


def node_msd(a, b) -> np.ndarray:
    """Per-node mean over particles of |a - b|^2, for two equal-length sequences of (dim, particles) node
    blocks: component-major (nodes, dim, particles) arrays, path ensembles or fitted maps.  One node block is
    differenced and squared at a time, in one buffer; each block's sum has the bits of the whole-array
    ``((a - b) ** 2).reshape(nodes, -1).sum(axis=1)``."""
    d, sums = None, []
    for u, v in zip(a, b, strict=True):
        d = np.subtract(u, v, out=d)
        sums.append(np.square(d, out=d).sum())
    return np.array(sums) / d.shape[-1]


def all_finite(a: np.ndarray) -> bool:
    """Whether every value of a is finite: one sum, no temporary, and a scan only if the sum is inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(a.sum()) or np.isfinite(a).all())


def moments_to_csv(e: PathEnsemble, grid: TimeGrid, fileobj) -> None:
    """Write rows (time, mean_0, ..., var_0, ...) of the cross-particle moments."""
    times = grid.nodes[: e.nodes]  # X and Y carry steps + 1 nodes; Z one per step, stamped with its left endpoint
    means = e.component_major.mean(axis=2)
    variances = e.component_major.var(axis=2)
    writer = csv.writer(fileobj)
    writer.writerow(["time"] + [f"mean_{j}" for j in range(e.dim)] + [f"var_{j}" for j in range(e.dim)])
    for k, t in enumerate(times):
        row = [repr(float(t))]
        row += [repr(float(v)) for v in means[k]]
        row += [repr(float(v)) for v in variances[k]]
        writer.writerow(row)
