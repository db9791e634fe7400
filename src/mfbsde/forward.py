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
    slab: np.ndarray,
    slot: int,
    iterate: tuple,
    damping: tuple,
    frozen_flow: np.ndarray,
    delta: float,
    prev: int,
) -> tuple[PathEnsemble, np.ndarray]:
    """One forward Euler sweep into slot ``slot`` of the path slab ``slab``;
    returns its X paths (a view of the slot) and their per-node mean squared
    gap to slot ``prev``, with the bits of :func:`~mfbsde.paths.node_msd`.

    ``slab`` is a C-contiguous (steps + 1, S, m, P) array, so node k of its
    S path sets is one (S m, P) block.  The iterate ``iterate`` = (Y, Z)
    and the damping pair ``damping`` = (Y_prev, Z_prev) are tables on those
    blocks, V_k = T_k' [1; slab_k], (steps + 1, 1 + S m, m) for Y and
    (steps, 1 + S m, m) for Z; ``frozen_flow`` is the previous iterate's
    (steps + 1, 2m) table of (E[X_k], E[Y_k]).  All particles start at x0.
    f's and sigma's tables, the iterate's, the identity on x_k's rows and
    -delta times the damping differences (left out when the iterate is the
    damping pair) fold into one (1 + S m, 2m) table [drift dt | diffusion]
    per step, for all steps at once, so that x_{k+1} = drift_k +
    diffusion_k dW_k takes one product with the node block.  Slots that
    no table reads must hold finite values.  A non-finite gap starts a scan
    that raises FloatingPointError naming the first step that made a
    non-finite X (later steps only carry it forward).
    """
    m = p.dim_state
    particles, steps = bundle.particles, bundle.steps
    if steps != grid.steps:
        raise ValueError("bundle and grid step counts differ")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if np.ndim(slab) != 4 or slab.shape[::2] != (steps + 1, m) or slab.shape[3] != particles:
        raise ValueError(f"slab has shape {np.shape(slab)}, expected ({steps + 1}, slots, {m}, {particles})")
    rows = slab.shape[1] * m
    for name, table, nodes in (("iterate Y", iterate[0], steps + 1), ("iterate Z", iterate[1], steps),
                               ("damping Y", damping[0], steps + 1), ("damping Z", damping[1], steps)):
        if np.shape(table) != (nodes, 1 + rows, m):
            raise ValueError(f"{name} table has shape {np.shape(table)}, expected ({nodes}, {1 + rows}, {m})")
    if np.shape(frozen_flow) != (steps + 1, 2 * m):
        raise ValueError(f"frozen_flow has shape {np.shape(frozen_flow)}, expected ({steps + 1}, {2 * m})")

    dt, times = grid.dt, grid.nodes[:-1]
    # [x_k; y_k; z_k] as tables on [1; slab_k], then f's and sigma's slopes on them, and their shifts on the 1
    args = np.zeros((steps, 1 + rows, 3 * m))
    x_rows = slice(1 + slot * m, 1 + (slot + 1) * m)
    args[:, x_rows, :m] = np.eye(m)
    args[:, :, m : 2 * m], args[:, :, 2 * m :] = iterate[0][:steps], iterate[1]
    (f_slopes, f_shifts), (s_slopes, s_shifts) = (c.affine(times, frozen_flow[:-1]) for c in (p.f, p.sigma))
    table = np.concatenate([args @ (dt * f_slopes).transpose(0, 2, 1), args @ s_slopes.transpose(0, 2, 1)], axis=2)
    table[:, 0] += np.concatenate([dt * f_shifts, s_shifts], axis=1)
    table[:, x_rows, :m] += np.eye(m)
    # the damping differences that are on: y - y_prev in the drift and, unless sigma is law-free, z - z_prev in
    # the diffusion; on the first sweep of an inner solve they are exact zeros
    if delta > 0 and iterate is not damping:
        table[:, :, :m] -= (delta * dt) * (iterate[0][:steps] - damping[0][:steps])
        if not p.law_free_sigma:
            table[:, :, m:] -= delta * (iterate[1] - damping[1])

    blocks, x, dw = slab.reshape(steps + 1, rows, particles), slab[:, slot], bundle.component_major
    out, d, sums = np.empty((2 * m, particles)), np.empty((m, particles)), np.empty(steps + 1)
    x[0] = p.x0[:, None]
    sums[0] = np.square(np.subtract(x[0], slab[0, prev], out=d), out=d).sum()
    for k in range(steps):
        np.matmul(table[k, 1:].T, blocks[k], out=out)
        out += table[k, 0, :, None]
        out[m:] *= dw[k]
        np.add(out[:m], out[m:], out=x[k + 1])
        sums[k + 1] = np.square(np.subtract(x[k + 1], slab[k + 1, prev], out=d), out=d).sum()

    bad = [] if np.isfinite(sums).all() else [k for k in range(steps) if not all_finite(x[k + 1])]
    if bad:
        raise FloatingPointError(f"forward propagation produced non-finite values at step {bad[0]}")
    return from_component_major(slab[:, slot]), sums / particles
