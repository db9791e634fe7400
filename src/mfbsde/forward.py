"""Euler-Maruyama propagation of the forward particle system.

Propagates under a frozen measure flow with the iteration's damping
terms: the drift is perturbed by -delta (Y - Y_prev) and, for problems
whose sigma depends on the measure, the diffusion by -delta (Z - Z_prev),
where (Y_prev, Z_prev) come from the previous outer iterate.  For a
law-free sigma the diffusion perturbation is dropped.  Coefficients are
evaluated at left endpoints, and the noise is one Brownian motion.
"""

from __future__ import annotations

import numpy as np

from .paths import BrownianBundle, PathEnsemble, TimeGrid, all_finite, from_component_major
from .problem import MfProblem

__all__ = ["propagate"]


def propagate(
    p: MfProblem,
    grid: TimeGrid,
    bundle: BrownianBundle,
    y_ens: PathEnsemble,
    z_ens: PathEnsemble,
    y_prev,
    z_prev,
    frozen_flow: np.ndarray,
    delta: float,
) -> PathEnsemble:
    """One forward Euler sweep; returns the X ensemble on all grid nodes.

    ``frozen_flow`` is the previous iterate's (steps + 1, 2m) table of
    (E[X_k], E[Y_k]) (:func:`~mfbsde.paths.joint_marginal`); the step from
    t_k reads row k.  The damping pair (``y_prev``, ``z_prev``) is path
    ensembles or fitted maps, read a node at a time into a buffer.  All particles start at the problem's x0.
    A non-finite X, checked once after the last step, raises
    FloatingPointError naming the first step that made one (later steps
    only carry it forward).
    """
    m = p.dim_state
    particles, steps = bundle.particles, bundle.steps
    if steps != grid.steps:
        raise ValueError("bundle and grid step counts differ")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    for name, e, nodes in (("y_ens", y_ens, steps + 1), ("y_prev", y_prev, steps + 1),
                           ("z_ens", z_ens, steps), ("z_prev", z_prev, steps)):
        if (e.particles, e.nodes, e.dim) != (particles, nodes, m):
            raise ValueError(f"{name} has shape {(e.particles, e.nodes, e.dim)}, expected ({particles}, {nodes}, {m})")
    if np.shape(frozen_flow) != (steps + 1, 2 * m):
        raise ValueError(f"frozen_flow has shape {np.shape(frozen_flow)}, expected ({steps + 1}, {2 * m})")

    dt = grid.dt
    times = grid.nodes
    x = np.empty((steps + 1, m, particles))
    x[0] = p.x0[:, None]
    yv, zv = y_ens.component_major, z_ens.component_major
    dw = bundle.component_major
    damp_sigma = delta > 0.0 and not p.law_free_sigma
    dy, dz = np.empty((2, m, particles))  # the damping differences, one node at a time

    for k in range(steps):
        t_k = float(times[k])
        drift = p.f(t_k, x[k], yv[k], zv[k], frozen_flow[k])
        if delta > 0.0:
            drift = drift - delta * np.subtract(yv[k], y_prev.node(k, out=dy), out=dy)
        diff = p.sigma(t_k, x[k], yv[k], zv[k], frozen_flow[k])
        if damp_sigma:
            diff = diff - delta * np.subtract(zv[k], z_prev.node(k, out=dz), out=dz)
        x[k + 1] = x[k] + drift * dt + diff * dw[k]

    if not all_finite(x):
        k = next(k for k in range(steps) if not all_finite(x[k + 1]))
        raise FloatingPointError(f"forward propagation produced non-finite values at step {k}")
    return from_component_major(x)
