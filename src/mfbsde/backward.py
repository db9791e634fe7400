"""Least-squares Monte Carlo solver for the backward pair (Y, Z).

Conditional expectations are estimated by global affine regression on
the state (the scheme of Gobet, Lemor & Warin, AAP 2005, with an affine
basis), so the fitted Y_k and Z_k are affine functions of X_k.  The
recursion, for k = steps-1 .. 0 with dt the step size:

    Y_N = g(X_T, m_N)
    Z_k = regress(Y_{k+1} dW_k / dt | X_k)
    Y_k = regress(Y_{k+1} - h(t_k, X_k, Y_k, Z_k, m_k) dt | X_k)

with h's implicit Y_k resolved by two predictor-corrector sub-iterations
started from Y_{k+1}, and m_k = (E[X_k], E[Y_k]) always row k of the
FROZEN flow's table (the measure-freezing that decouples the outer
iteration), so g reads the frozen E[X_T].  Each fit is the moment form

    fit(T) = E[T] + Cov(T, X_k) Cov(X_k)^+ (X_k - E[X_k]),

whose pseudo-inverse drops the directions the cloud does not span.  The
coefficients are affine tables, so every target is affine in X_k and in
w_k = [dW_k; dW_k X_{k+1}; X_{k+1}]: a sweep reads only the per-step
moments of :func:`regression_factors`, runs on (1 + m, m) tables (Y_N's
is g's own) and returns them as :class:`FittedMap`s on its paths, which
evaluate nodes and build (nodes, m, P) paths on request.  The per-step
residuals in :class:`RegressionDiagnostics` show the Monte Carlo misfit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import BrownianBundle, PathEnsemble, TimeGrid, from_component_major
from .problem import MfProblem

__all__ = ["FittedMap", "RegressionDiagnostics", "regression_factors", "solve_backward"]

# predictor-corrector passes that resolve h's implicit Y_k on each step
_PICARD_PASSES = 2


@dataclass
class RegressionDiagnostics:
    """Per-step regression residual norms (the root mean square of targets - fit over particles and
    components), the steps where the fit dropped a direction the cloud does not span, and the
    :func:`regression_factors` the sweep read, for later sweeps along the same paths."""

    y_residuals: list = field(default_factory=list)
    z_residuals: list = field(default_factory=list)
    ridge_steps: list = field(default_factory=list)
    factors: tuple | None = field(default=None, repr=False)

    @property
    def max_residual(self) -> float:
        res = self.y_residuals + self.z_residuals
        return max(res) if res else 0.0

    @property
    def used_ridge(self) -> bool:
        return bool(self.ridge_steps)


class FittedMap:
    """The affine map V_k = coef_k^T [1; X_k] on the X paths ``x_ens``, the stored form of every fitted
    quantity a solve returns (Y, Z, each p_i and q_i, each control): ``coef`` is (nodes, 1 + m, dim), one
    table per node (Y's last is g's), made read-only, and ``design`` a (1 + m, P) buffer of ones that maps on
    the same paths may share; inside a solve ``x_ens`` is a slot of the path slab, kept while a map on it is in
    use.  :meth:`node` evaluates a node as that product, iterating yields them through one buffer,
    :meth:`paths` builds the ensemble and ``values`` its particle-major array, on each read."""

    def __init__(self, x_ens: PathEnsemble, coef: np.ndarray, design=None):
        self.x, self.coef = x_ens.component_major, coef
        coef.flags.writeable = False
        self.nodes, self.dim, self.particles = len(coef), coef.shape[2], x_ens.particles
        self.design = np.ones((1 + x_ens.dim, x_ens.particles)) if design is None else design

    def node(self, k: int, out: np.ndarray | None = None) -> np.ndarray:
        """The (dim, P) values at node k, written to ``out`` when given."""
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

    @property
    def values(self) -> np.ndarray:  # the (particles, nodes, dim) values, built on each read
        return self.paths().values


def regression_factors(x_ens: PathEnsemble, bundle: BrownianBundle) -> tuple:
    """What every backward sweep along the forward paths ``x_ens`` and the
    increments of ``bundle`` shares, as (mu, proj, innov_w, innov_x,
    dropped), with Xc_k = X_k - mu_k, c_k = [1; Xc_k] and w_k = [dW_k;
    dW_k Xc_{k+1}; Xc_{k+1}]:

    - ``mu``, the (steps + 1, m) node means;
    - ``proj``, the (steps, 1 + m, 1 + 2m) projections of w_k on c_k, so
      that proj_k' c_k is w_k's fit: E[w_k] over Cov(X_k)^+ E[Xc_k w_k'];
    - ``innov_w`` and ``innov_x``, the second moments of the innovations
      w_k - proj_k' c_k of the [dW_k; dW_k Xc_{k+1}] and Xc_{k+1} blocks;
    - ``dropped``, the steps where Cov(X_k)^+, the pseudo-inverse from
      ``eigh``, drops an eigenvalue below 1e-12 (tr Cov(X_k) + |mu_k|^2 +
      1), last step first (a point mass drops every direction).

    The sums run through one product per step of [Xc_k; w_k] against
    [Xc_k; w_k; 1] (distinct operands: numpy's syrk path for a @ a.T is
    slower), in one row buffer whose two Xc blocks trade places each step,
    so that each node is centred once.  Moments that overflow raise
    FloatingPointError naming the first such step.
    """
    xv, dw = x_ens.component_major, bundle.component_major
    steps, m, particles = len(xv) - 1, xv.shape[1], xv.shape[2]
    rows = np.empty((2 + 3 * m, particles))  # [Xc_k; dW_k; dW_k Xc_{k+1}; Xc_{k+1}; 1] at even k
    rows[-1] = 1.0
    centred = rows[:m], rows[1 + 2 * m : -1]  # at odd k Xc_{k+1} is in the first block and Xc_k in the last
    mom = np.empty((steps, 1 + 3 * m, 2 + 3 * m))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, naming its step
        mu = xv.sum(axis=2) / particles
        np.subtract(xv[0], mu[0, :, None], out=centred[0])
        for k in range(steps):
            nxt = centred[1 - k % 2]
            rows[m] = dw[k]
            np.subtract(xv[k + 1], mu[k + 1, :, None], out=nxt)
            np.multiply(rows[m], nxt, out=rows[m + 1 : 1 + 2 * m])
            np.matmul(rows[:-1], rows.T, out=mom[k])
        order = np.r_[1 + 2 * m : 1 + 3 * m, m : 1 + 2 * m, :m]  # the odd steps' moments in even-step order
        mom[1::2] = mom[1::2][:, order][:, :, np.r_[order, 1 + 3 * m]]
        mom /= particles
    finite = np.isfinite(mom).all(axis=(1, 2))
    if not finite.all():
        raise FloatingPointError(f"regression Gram matrix overflows at step {int(np.argmin(finite))}")
    cov, cross, mean_w = mom[:, :m, :m], mom[:, :m, m:-1], mom[:, m:, -1]
    lam, vec = np.linalg.eigh(cov)
    keep = lam > 1e-12 * (np.trace(cov, axis1=1, axis2=2) + np.square(mu[:-1]).sum(axis=1) + 1.0)[:, None]
    pinv = (vec * np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)[:, None, :]) @ vec.transpose(0, 2, 1)
    proj = np.concatenate([mean_w[:, None], pinv @ cross], axis=1)
    innov = mom[:, m:, m:-1] - mean_w[:, :, None] * mean_w[:, None, :] - cross.transpose(0, 2, 1) @ proj[:, 1:]
    dropped = np.flatnonzero(~keep.all(axis=1))[::-1].tolist()
    return mu, proj, innov[:, : 1 + m, : 1 + m], innov[:, 1 + m :, 1 + m :], dropped


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
    ``factors`` is :func:`regression_factors` of ``x_ens`` and ``bundle``,
    for callers that sweep the same paths more than once; it is built here
    when omitted, and the diagnostics carry the factors the sweep read.
    The recursion runs on tables on [1; X_k - mu_k]: Y_N's from g's terms,
    then Z_k's and E[Y_{k+1} | X_k]'s by projection and the predictor
    passes with h's term matrices, read for all steps in one call.  Returns
    (y_map, z_map, diagnostics), the fitted maps on ``x_ens``: Y's with a
    table per node, its last g's, and Z's with one per step.  A non-finite g table raises
    FloatingPointError, and so does a non-finite step table, naming the
    step swept first that made one.
    """
    m = p.dim_state
    particles, steps = bundle.particles, bundle.steps
    if x_ens.particles != particles or x_ens.nodes != steps + 1 or x_ens.dim != m:
        raise ValueError(f"x_ens has shape {x_ens.values.shape}, expected ({particles}, {steps + 1}, {m})")
    if np.shape(frozen_flow) != (steps + 1, 2 * m):
        raise ValueError(f"frozen_flow has shape {np.shape(frozen_flow)}, expected ({steps + 1}, {2 * m})")

    dt, times = grid.dt, grid.nodes
    mu, proj, innov_w, innov_x, dropped = factors = regression_factors(x_ens, bundle) if factors is None else factors

    # centred tables: values tab' [1; X_k - mu_k]; args holds [X_k, Y guess, Z_k]'s tables for h's slopes
    y_tab, z_tab = np.empty((steps + 1, 1 + m, m)), np.empty((steps, 1 + m, m))
    slopes, shift = (a[0] for a in p.g.affine([p.horizon], frozen_flow[steps:]))
    y_tab[steps, 0], y_tab[steps, 1:] = slopes[:, :m] @ mu[steps] + shift, slopes[:, :m].T
    if not np.isfinite(y_tab[steps]).all():
        raise FloatingPointError("terminal condition produced non-finite values")
    args = np.zeros((1 + m, 3 * m))
    args[1:, :m] = np.eye(m)
    h_slopes, h_shifts = p.h.affine(times[:-1], frozen_flow[:-1])
    for k in range(steps - 1, -1, -1):
        a = y_tab[k + 1]
        np.divide(proj[k, :, : 1 + m] @ a, dt, out=z_tab[k])
        cond = proj[k, :, 1 + m :] @ a[1:]  # E[Y_{k+1} | X_k]
        cond[0] += a[0]
        slopes, shift = h_slopes[k], h_shifts[k]
        args[0, :m], args[:, 2 * m :] = mu[k], z_tab[k]
        guess = cond
        for _ in range(_PICARD_PASSES):
            args[:, m : 2 * m] = guess
            guess = cond - dt * (args @ slopes.T)
            guess[0] -= dt * shift
        y_tab[k] = guess

    bad = np.flatnonzero(~(np.isfinite(y_tab[:steps]).all(axis=(1, 2)) & np.isfinite(z_tab).all(axis=(1, 2))))
    if bad.size:
        raise FloatingPointError(f"backward regression produced non-finite values at step {bad[-1]}")
    # the misfits: Y's targets miss by Y_{k+1}'s innovation (the h terms are affine in X_k), Z's by Y_{k+1} dW_k / dt's
    y_ms = np.einsum("kij,kil,klj->k", y_tab[1:, 1:], innov_x, y_tab[1:, 1:]) / m
    z_ms = np.einsum("kij,kil,klj->k", y_tab[1:], innov_w, y_tab[1:]) / (m * dt * dt)
    diag = RegressionDiagnostics(*(np.sqrt(np.maximum(ms, 0.0)).tolist() for ms in (y_ms, z_ms)), list(dropped),
                                 factors)
    for tab in (y_tab, z_tab):  # the tables on [1; X_k]
        tab[:, 0] -= np.einsum("ki,kij->kj", mu[: len(tab)], tab[:, 1:])
    design = np.ones((1 + m, particles))
    return FittedMap(x_ens, y_tab, design), FittedMap(x_ens, z_tab, design), diag
