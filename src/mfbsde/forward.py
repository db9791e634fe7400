"""Euler-Maruyama propagation of the forward particle system.

Propagates under a frozen measure flow with the iteration's damping
terms: the drift is perturbed by -delta (Y - Y_prev) and, for problems
whose sigma depends on the measure, the diffusion by -delta (Z - Z_prev),
where (Y_prev, Z_prev) come from the previous outer iterate.  For
law-free sigma the diffusion perturbation is dropped and sigma is called
with ``nu=None``.  Coefficients are evaluated at left endpoints.
"""

from __future__ import annotations

import numpy as np

from .measure import EmpiricalMeasure
from .paths import BrownianBundle, PathEnsemble, TimeGrid, from_time_major
from .problem import MfProblem

__all__ = ["propagate"]


def _shapes_ok(e: PathEnsemble, particles: int, nodes: int, dim: int) -> bool:
    return e.particles == particles and e.nodes == nodes and e.dim == dim


def propagate(
    p: MfProblem,
    grid: TimeGrid,
    bundle: BrownianBundle,
    y_ens: PathEnsemble,
    z_ens: PathEnsemble,
    y_prev: PathEnsemble,
    z_prev: PathEnsemble,
    frozen_flow,
    delta: float,
) -> PathEnsemble:
    """One forward Euler sweep; returns the X ensemble on all grid nodes.

    ``frozen_flow`` supplies the joint (X, Y) cloud at each node of the
    previous iterate; the step from t_k uses the cloud at t_k.  All
    particles start at the problem's x0.
    """
    m, d = p.dim_state, p.dim_bm
    particles, steps = bundle.particles, bundle.steps
    if steps != grid.steps or d != bundle.dim:
        raise ValueError("bundle does not match the grid or the problem's Brownian dimension")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    for name, e, nodes, dim in (
        ("y_ens", y_ens, steps + 1, m),
        ("y_prev", y_prev, steps + 1, m),
        ("z_ens", z_ens, steps, m * d),
        ("z_prev", z_prev, steps, m * d),
    ):
        if not _shapes_ok(e, particles, nodes, dim):
            raise ValueError(f"{name} has shape {e.values.shape}, expected ({particles}, {nodes}, {dim})")
    if len(frozen_flow) < steps:
        raise ValueError(f"frozen_flow must provide one measure per node, got {len(frozen_flow)}")

    dt = grid.dt
    times = grid.nodes
    x = np.empty((steps + 1, particles, m))
    x[0] = p.x0
    yv = y_ens.time_major
    ypv = y_prev.time_major
    zv = z_ens.time_major.reshape(steps, particles, m, d)
    zpv = z_prev.time_major.reshape(steps, particles, m, d)

    for k in range(steps):
        t_k = float(times[k])
        nu_k: EmpiricalMeasure = frozen_flow[k]
        xk, yk, zk = x[k], yv[k], zv[k]
        drift = np.asarray(p.f(t_k, xk, yk, zk, nu_k))
        if delta > 0.0:
            drift = drift - delta * (yk - ypv[k])
        if p.law_free_sigma:
            diff = np.asarray(p.sigma(t_k, xk, yk, zk, None))
        else:
            diff = np.asarray(p.sigma(t_k, xk, yk, zk, nu_k))
            if delta > 0.0:
                diff = diff - delta * (zk - zpv[k])
        x[k + 1] = xk + drift * dt + np.einsum("pmd,pd->pm", diff, bundle.time_major[k])
        if not np.all(np.isfinite(x[k + 1])):
            raise FloatingPointError(f"forward propagation produced non-finite values at step {k}")

    return from_time_major(x)
