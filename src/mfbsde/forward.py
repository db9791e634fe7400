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
    t_k reads row k.  The iterate (``y_ens``, ``z_ens``) and the damping
    pair (``y_prev``, ``z_prev``) are path ensembles or fitted maps, each
    read a node at a time into the step's design rows, and the damping
    differences subtract from the iterate's rows.  All particles start at
    the problem's x0.  Each step is
    x_{k+1} = D' [1; x_k; y_k; z_k; dW_k; y_k - y_prev] + diffusion dW_k, one
    stacked product with f's and sigma's tables at (t_k, row k).
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

    dt, times = grid.dt, grid.nodes
    x = np.empty((steps + 1, m, particles))
    x[0] = p.x0[:, None]
    dw = bundle.component_major
    # the damping differences that are on: y - y_prev and, unless sigma is law-free, z - z_prev
    damp = [y_prev, z_prev][: 0 if delta <= 0.0 else 1 if p.law_free_sigma else 2]
    noisy = len(damp) == 2 or bool({"x", "y", "z"} & set(p.sigma.terms))  # else the diffusion is shift * dW_k
    # one product per step: the table [drift dt | diffusion slopes], with dt, the identity and -delta folded in,
    # on the design [1; x_k; y_k; z_k; dW_k; the damping differences]
    design = np.ones((2 + (3 + len(damp)) * m, particles))
    rows = design[1 + m : 1 + 2 * m], design[1 + 2 * m : 1 + 3 * m]  # y_k's and z_k's
    table, eye = np.zeros((len(design), 2 * m if noisy else m)), np.eye(m)
    for j in range(len(damp)):  # -delta dt on y's difference in the drift, -delta on z's in the diffusion
        table[2 + (3 + j) * m : 2 + (4 + j) * m, j * m : (j + 1) * m] = -delta * (dt, 1.0)[j] * eye
    out = np.empty((2 * m, particles)) if noisy else None

    for k in range(steps):
        t_k = float(times[k])
        slopes, shift = p.f.affine(t_k, frozen_flow[k])
        table[0, :m], table[1 : 1 + 3 * m, :m] = shift * dt, slopes.T * dt
        table[1 : 1 + m, :m] += eye
        slopes, table[1 + 3 * m, :m] = p.sigma.affine(t_k, frozen_flow[k])
        if noisy:
            table[1 : 1 + 3 * m, m:] = slopes.T
        design[1 : 1 + m], design[1 + 3 * m] = x[k], dw[k]
        for e, r in zip((y_ens, z_ens), rows):
            e.node(k, out=r)
        for j, (prev, r) in enumerate(zip(damp, rows)):
            diff = design[2 + (3 + j) * m : 2 + (4 + j) * m]
            np.subtract(r, prev.node(k, out=diff), out=diff)
        np.matmul(table.T, design, out=out if noisy else x[k + 1])
        if noisy:
            np.add(out[:m], np.multiply(out[m:], dw[k], out=out[m:]), out=x[k + 1])

    if not all_finite(x):
        k = next(k for k in range(steps) if not all_finite(x[k + 1]))
        raise FloatingPointError(f"forward propagation produced non-finite values at step {k}")
    return from_component_major(x)
