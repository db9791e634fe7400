"""Empirical probability measures on R^d and the 2-Wasserstein distance.

Measures are uniform clouds of N points.  Between two equal-size uniform
clouds the squared 2-Wasserstein distance is an assignment problem

    W2(a, b)^2 = min_pi (1/N) sum_i |a_i - b_{pi(i)}|^2

over permutations ``pi``.  In one dimension the optimum is attained by
pairing order statistics, so ``w2_exact`` sorts; in higher dimension it
solves the assignment exactly up to a configurable size cap.  Above the
cap callers fall back on ``w2_paired_bound``, the coupling upper bound
``W2(law(xi), law(xi'))^2 <= E|xi - xi'|^2`` which is the quantity the
solver's contraction estimates actually use (the iteration evolves the
same particles under successive laws, so index pairing is a coupling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

__all__ = ["EmpiricalMeasure", "mean", "w2_exact", "w2_paired_bound"]

#: default point-count cap for the exact assignment solve in d > 1
DEFAULT_ASSIGNMENT_CAP = 512


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform empirical measure (1/N) sum_i delta_{points[i]} on R^d.

    Parameters
    ----------
    points : ndarray, shape (n, d)
        Support points, one row per atom.  Must be nonempty and finite.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise ValueError(f"points must be a nonempty (n, d) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def mean(self) -> np.ndarray:
        """Coordinate-wise mean of the cloud, shape (d,): computed on first
        use, then kept and returned read-only."""
        cached = self.__dict__.get("_mean")
        if cached is None:
            cached = self.points.mean(axis=0)
            cached.flags.writeable = False
            object.__setattr__(self, "_mean", cached)
        return cached


def mean(m: EmpiricalMeasure) -> np.ndarray:
    """Coordinate-wise mean of the cloud, shape (d,)."""
    return m.mean()


def _check_pair(a: EmpiricalMeasure, b: EmpiricalMeasure) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if a.size != b.size:
        raise ValueError(f"cardinality mismatch: {a.size} vs {b.size} points")


def w2_exact(a: EmpiricalMeasure, b: EmpiricalMeasure, max_points: int = DEFAULT_ASSIGNMENT_CAP) -> float:
    """Exact 2-Wasserstein distance between equal-size uniform clouds.

    For d == 1 pairs order statistics (stable sort; the cost is invariant
    to tie order).  For d > 1 solves the assignment problem on the squared
    distance matrix, which requires ``a.size <= max_points``.

    Raises
    ------
    ValueError
        On dimension or cardinality mismatch, or when the size cap is
        exceeded (use :func:`w2_paired_bound` instead).
    """
    _check_pair(a, b)
    if a.dim == 1:
        pa = np.sort(a.points[:, 0], kind="stable")
        pb = np.sort(b.points[:, 0], kind="stable")
        return float(np.sqrt(np.mean((pa - pb) ** 2)))
    if a.size > max_points:
        raise ValueError(
            f"cloud size {a.size} exceeds the exact-assignment cap {max_points}; "
            "use w2_paired_bound for large ensembles"
        )
    cost = cdist(a.points, b.points, metric="sqeuclidean")
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def w2_paired_bound(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Index-paired coupling upper bound on the 2-Wasserstein distance.

    Valid when particle i of ``a`` and particle i of ``b`` are the same
    sample path's values under two laws; always >= ``w2_exact(a, b)``.
    """
    _check_pair(a, b)
    diff = a.points - b.points
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))
