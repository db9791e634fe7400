"""Least-squares Monte Carlo solver for the backward pair (Y, Z).

Conditional expectations are estimated by global polynomial regression
on the state: at each step the targets are projected onto a basis of
monomials in the components of X_k, so the fitted Y_k and Z_k are
measurable functions of X_k by construction.  Degree 1 is exact for the
linear-quadratic problems this library targets (the solution is affine
in the state); degree 2 is available for mildly nonlinear drivers, and
the per-step regression residuals are reported so users can judge basis
adequacy beyond that.

The recursion, for k = steps-1 .. 0 with dt the step size:

    Y_N = g(X_T, mu_T)                      (mu_T from the frozen iterate)
    Z_k = regress(Y_{k+1} dW_k / dt | X_k)
    Y_k = regress(Y_{k+1} - h(t_k, X_k, Y_k, Z_k, nu_k) dt | X_k)

with h's implicit Y_k resolved by two predictor-corrector sub-iterations
started from Y_{k+1}, and nu_k always the FROZEN flow's cloud (the
measure-freezing that decouples the outer iteration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .measure import EmpiricalMeasure
from .paths import BrownianBundle, PathEnsemble, TimeGrid, from_component_major
from .problem import MfProblem

__all__ = ["RegressionBasis", "RegressionDiagnostics", "solve_backward"]

# ridge scale used when the design matrix is rank deficient
_RIDGE = 1e-10
# predictor-corrector passes that resolve h's implicit Y_k on each step
_PICARD_PASSES = 2


@dataclass(frozen=True)
class RegressionBasis:
    """Polynomial regression basis in the state components.

    ``degree`` 0 gives the plain Monte Carlo mean, 1 an affine fit
    (exact for LQ problems), 2 adds the squares and the pairwise products.
    """

    degree: int = 1

    def __post_init__(self):
        if self.degree < 0 or self.degree > 2:
            raise ValueError(f"degree must be 0, 1 or 2, got {self.degree}")

    def features(self, x: np.ndarray) -> np.ndarray:
        """Design matrix (P, n_features) for states x of shape (P, m): the
        transposed view of a C-contiguous (n_features, P) array."""
        rows = [np.ones((1, x.shape[0]))]
        if self.degree >= 1:
            rows.append(x.T)
        if self.degree >= 2:
            rows.append(x.T * x.T)
            for i, j in combinations(range(x.shape[1]), 2):
                rows.append((x[:, i] * x[:, j])[None])
        return np.concatenate(rows).T


@dataclass
class RegressionDiagnostics:
    """Per-step regression residual norms and rank-deficiency flags."""

    y_residuals: list = field(default_factory=list)
    z_residuals: list = field(default_factory=list)
    ridge_steps: list = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        res = self.y_residuals + self.z_residuals
        return max(res) if res else 0.0

    @property
    def used_ridge(self) -> bool:
        return bool(self.ridge_steps)


def _ridge_fit(design: np.ndarray, step: int, diag: RegressionDiagnostics):
    """Ridge-stabilized least squares via the normal equations: returns the
    map from targets to fitted values at the sample points.  ``design`` is
    (n_features, P) and targets and fitted values are (n_targets, P).

    The Gram matrix, its ridge shift and the rank-deficiency flag are
    formed once per step and shared by every fit on that step's design.
    The tiny relative regularizer is always on: it keeps the fit a smooth
    (branch-free) function of the particle states even when the cloud
    degenerates onto an affine subspace and the design matrix turns rank
    deficient, where hard rank decisions would flip between sweeps and
    destabilize the outer iteration.  Fitted values at the sample points
    match the unregularized fit to O(ridge).  Steps with a near-singular
    design are flagged for diagnostics.
    """
    gram = design @ design.T
    scale = np.trace(gram) / design.shape[0]
    shifted = gram + _RIDGE * (scale + 1.0) * np.eye(design.shape[0])
    if np.linalg.eigvalsh(gram)[0] < 1e-10 * (scale + 1.0):
        diag.ridge_steps.append(step)
    return lambda targets: np.linalg.solve(shifted, design @ targets.T).T @ design


def solve_backward(
    p: MfProblem,
    grid: TimeGrid,
    bundle: BrownianBundle,
    x_ens: PathEnsemble,
    frozen_flow,
    terminal_law: EmpiricalMeasure,
    basis: RegressionBasis,
) -> tuple[PathEnsemble, PathEnsemble, RegressionDiagnostics]:
    """Backward regression sweep along given forward paths.

    ``terminal_law`` must be the X_T cloud of the FROZEN iterate, not of
    ``x_ens``.  Returns (y_ens, z_ens, diagnostics); z_ens stores one
    (m x d) matrix per step, flattened row-major.
    """
    m, d = p.dim_state, p.dim_bm
    particles, steps = bundle.particles, bundle.steps
    if x_ens.particles != particles or x_ens.nodes != steps + 1 or x_ens.dim != m:
        raise ValueError(
            f"x_ens has shape {x_ens.values.shape}, expected ({particles}, {steps + 1}, {m})"
        )
    if len(frozen_flow) < steps:
        raise ValueError("frozen_flow must provide one measure per node")

    dt = grid.dt
    times = grid.nodes
    # component-major (nodes, dim, particles); callbacks get (particles, ...) views
    xv = x_ens.component_major
    y = np.empty((steps + 1, m, particles))
    z = np.empty((steps, m, d, particles))
    diag = RegressionDiagnostics()

    y[steps] = np.asarray(p.g(xv[steps].T, terminal_law)).T
    if not np.all(np.isfinite(y[steps])):
        raise FloatingPointError("terminal condition produced non-finite values")

    for k in range(steps - 1, -1, -1):
        t_k = float(times[k])
        nu_k = frozen_flow[k]
        xk = xv[k].T
        y_next = y[k + 1]
        fit = _ridge_fit(basis.features(xk).T, k, diag)

        dw = bundle.component_major[k]
        z_targets = (y_next[:, None, :] * dw[None, :, :] / dt).reshape(m * d, particles)
        z_fit = fit(z_targets)
        diag.z_residuals.append(float(np.sqrt(np.mean((z_targets - z_fit) ** 2))))
        z[k] = z_fit.reshape(m, d, particles)
        zk = z[k].transpose(2, 0, 1)

        y_guess = y_next
        for _ in range(_PICARD_PASSES):
            hk = np.asarray(p.h(t_k, xk, y_guess.T, zk, nu_k)).T
            targets = y_next - hk * dt
            y_guess = fit(targets)
        diag.y_residuals.append(float(np.sqrt(np.mean((targets - y_guess) ** 2))))
        if not (np.all(np.isfinite(y_guess)) and np.all(np.isfinite(z[k]))):
            raise FloatingPointError(f"backward regression produced non-finite values at step {k}")
        y[k] = y_guess

    diag.y_residuals.reverse()
    diag.z_residuals.reverse()
    return from_component_major(y), from_component_major(z.reshape(steps, m * d, particles)), diag
