"""Least-squares Monte Carlo solver for the backward pair (Y, Z).

Conditional expectations are estimated by global affine regression on
the state: at each step the targets are projected onto the constant and
the components of X_k (the scheme of Gobet, Lemor & Warin, AAP 2005,
with an affine basis), so the fitted Y_k and Z_k are measurable
functions of X_k by construction.  The problem's coefficients are affine
tables, so the solution is affine in the state and the affine design is
exact; the per-step regression residuals in :class:`RegressionDiagnostics`
show the Monte Carlo misfit.

The recursion, for k = steps-1 .. 0 with dt the step size:

    Y_N = g(X_T, m_N)
    Z_k = regress(Y_{k+1} dW_k / dt | X_k)
    Y_k = regress(Y_{k+1} - h(t_k, X_k, Y_k, Z_k, m_k) dt | X_k)

with h's implicit Y_k resolved by two predictor-corrector sub-iterations
started from Y_{k+1} (one when h reads no Y), and m_k = (E[X_k], E[Y_k])
always row k of the FROZEN flow's table (the measure-freezing that
decouples the outer iteration), so g reads the frozen E[X_T].
Each fit solves for a (1 + m, m) table c_k with fitted values c_k^T [1; X_k];
a sweep returns the tables as :class:`FittedMap`s on its paths, which
evaluate nodes with the sweep's bits and build (nodes, m, P) paths on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .paths import BrownianBundle, PathEnsemble, TimeGrid, all_finite, from_component_major
from .problem import MfProblem

__all__ = ["FittedMap", "RegressionDiagnostics", "regression_factors", "solve_backward"]

# ridge scale used when the design matrix is rank deficient
_RIDGE = 1e-10
# predictor-corrector passes that resolve h's implicit Y_k on each step
_PICARD_PASSES = 2
# steps per batched Gram product.  An einsum over >= 2 steps has the bits of the whole-path einsum; a 1-step one
# does not for more than 8,192 particles (numpy's einsum buffer), so every batch holds this many steps, or all
_GRAM_CHUNK = 8


def _rms(targets: np.ndarray, fit: np.ndarray) -> float:
    """Root mean square of targets - fit: the bits of np.sqrt(np.mean((targets - fit) ** 2)) with one temporary."""
    r = targets - fit
    return math.sqrt(np.square(r, out=r).sum() / r.size)


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


class FittedMap:
    """The affine map a backward sweep fitted, V_k = coef_k^T [1; X_k], on the X paths ``x_ens`` it was
    fitted on: ``coef`` is (fits, 1 + m, dim), ``last`` the read-only (dim, P) node past the tables (Y's g(X_T))
    or None, and ``design`` a (1 + m, P) buffer of ones that maps on the same paths may share.  :meth:`node`
    evaluates a node as the product the sweep made, iterating yields them through one buffer, and :meth:`paths`
    builds the ensemble."""

    def __init__(self, x_ens: PathEnsemble, coef: np.ndarray, last: np.ndarray | None = None, design=None):
        self.x, self.coef, self.last = x_ens.component_major, coef, last
        self.nodes, self.dim, self.particles = len(coef) + (last is not None), coef.shape[2], x_ens.particles
        self.design = np.ones((1 + x_ens.dim, x_ens.particles)) if design is None else design
        if last is not None:
            last.flags.writeable = False

    def node(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (dim, P) values at node k, written to ``out`` when given."""
        if k == len(self.coef):
            return self.last if out is None else np.copyto(out, self.last) or out
        self.design[1:] = self.x[k]
        return np.matmul(self.coef[k].T, self.design, out=out)

    def __iter__(self):
        buf = np.empty((self.dim, self.particles))
        return (self.node(k, out=buf) for k in range(self.nodes))

    def paths(self) -> PathEnsemble:
        out = np.empty((self.nodes, self.dim, self.particles))
        for k, block in enumerate(out):
            self.node(k, out=block)
        return from_component_major(out)


def regression_factors(x_ens: PathEnsemble) -> tuple[np.ndarray, list]:
    """What every backward sweep along the forward paths ``x_ens`` shares:
    the ridge-shifted Gram matrices (steps, F, F) of the affine designs
    [1, X_k] and the steps with a near-singular design, last step first.
    The Grams are formed through one design buffer of min(steps,
    _GRAM_CHUNK) steps, the last chunk aligned to the final step, so no
    whole-path design is held.  The tiny relative regularizer is always on:
    it keeps the fit a smooth (branch-free) function of the particle states
    even when the cloud degenerates onto an affine subspace and the design
    matrix turns rank deficient, where hard rank decisions would flip
    between sweeps and destabilize the outer iteration.  Fitted values at
    the sample points match the unregularized fit to O(ridge).  Gram sums
    that overflow raise FloatingPointError naming the first such step.
    """
    xv = x_ens.component_major
    steps, features = len(xv) - 1, 1 + xv.shape[1]
    chunk = min(steps, _GRAM_CHUNK)
    design = np.ones((chunk, features, xv.shape[2]))
    gram = np.empty((steps, features, features))
    for start in range(0, steps, chunk):
        lo = min(start, steps - chunk)
        design[:, 1:] = xv[lo : lo + chunk]
        gram[lo : lo + chunk] = np.einsum("kfp,kgp->kfg", design, design)
    if not all_finite(gram):
        k = int(np.argmin(np.isfinite(gram).all(axis=(1, 2))))
        raise FloatingPointError(f"regression Gram matrix overflows at step {k}")
    scale = np.trace(gram, axis1=1, axis2=2) / features + 1.0
    flagged = np.linalg.eigvalsh(gram)[:, 0] < 1e-10 * scale
    shifted = gram + (_RIDGE * scale)[:, None, None] * np.eye(features)
    return shifted, np.flatnonzero(flagged)[::-1].tolist()


def solve_backward(
    p: MfProblem,
    grid: TimeGrid,
    bundle: BrownianBundle,
    x_ens: PathEnsemble,
    frozen_flow: np.ndarray,
    factors: tuple | None = None,
) -> tuple[FittedMap, FittedMap, RegressionDiagnostics]:
    """Backward regression sweep along given forward paths.

    ``frozen_flow`` is the frozen iterate's (steps + 1, 2m) table of means
    (:func:`~mfbsde.paths.joint_marginal`): h reads row k and g the last.
    ``factors`` is :func:`regression_factors` of ``x_ens``, for callers that
    sweep the same paths more than once; it is built here when omitted.
    Returns (y_map, z_map, diagnostics), the fitted maps on ``x_ens`` (Z's
    with one m-vector per step): only each step's (1 + m, m) tables and the
    node being swept are stored.  A non-finite Y or Z raises
    FloatingPointError naming the step swept first that made one.
    """
    m = p.dim_state
    particles, steps = bundle.particles, bundle.steps
    if x_ens.particles != particles or x_ens.nodes != steps + 1 or x_ens.dim != m:
        raise ValueError(
            f"x_ens has shape {x_ens.values.shape}, expected ({particles}, {steps + 1}, {m})"
        )
    if np.shape(frozen_flow) != (steps + 1, 2 * m):
        raise ValueError(f"frozen_flow has shape {np.shape(frozen_flow)}, expected ({steps + 1}, {2 * m})")

    dt = grid.dt
    times = grid.nodes
    xv = x_ens.component_major
    coef_y, coef_z = np.empty((2, steps, 1 + m, m))
    diag = RegressionDiagnostics()

    terminal = p.g(p.horizon, xv[steps], mean=frozen_flow[steps])
    if not all_finite(terminal):
        raise FloatingPointError("terminal condition produced non-finite values")
    shifted, ridge_steps = regression_factors(x_ens) if factors is None else factors
    diag.ridge_steps.extend(ridge_steps)
    passes = 1 if "y" not in p.h.terms else _PICARD_PASSES
    design = np.ones((1 + m, particles))  # [1, X_k] of the step being swept
    y_next = terminal

    for k in range(steps - 1, -1, -1):
        t_k = float(times[k])
        design[1:] = xv[k]

        z_targets = y_next * bundle.component_major[k] / dt
        coef_z[k] = np.linalg.solve(shifted[k], design @ z_targets.T)
        z_k = coef_z[k].T @ design
        diag.z_residuals.append(_rms(z_targets, z_k))

        y_guess = y_next
        for _ in range(passes):
            hk = p.h(t_k, xv[k], y_guess, z_k, frozen_flow[k])
            targets = y_next - hk * dt
            coef_y[k] = np.linalg.solve(shifted[k], design @ targets.T)
            y_guess = coef_y[k].T @ design
        diag.y_residuals.append(_rms(targets, y_guess))
        # a non-finite fit makes its residual non-finite (the converse fails only when squares overflow)
        res = diag.y_residuals[-1] + diag.z_residuals[-1]
        if not (math.isfinite(res) or np.isfinite(y_guess).all() and np.isfinite(z_k).all()):
            raise FloatingPointError(f"backward regression produced non-finite values at step {k}")
        y_next = y_guess

    diag.y_residuals.reverse()
    diag.z_residuals.reverse()
    return FittedMap(x_ens, coef_y, terminal, design), FittedMap(x_ens, coef_z, design=design), diag
