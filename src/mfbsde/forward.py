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
from .paths import BrownianBundle, PathEnsemble, TimeGrid, all_finite, from_component_major
from .problem import MfProblem

__all__ = ["propagate"]


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
    particles start at the problem's x0.  A non-finite X, checked once after
    the last step, raises FloatingPointError naming the first step that made
    one (later steps only carry it forward).
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
        if e.values.shape != (particles, nodes, dim):
            raise ValueError(f"{name} has shape {e.values.shape}, expected ({particles}, {nodes}, {dim})")
    if len(frozen_flow) < steps:
        raise ValueError(f"frozen_flow must provide one measure per node, got {len(frozen_flow)}")

    dt = grid.dt
    times = grid.nodes
    # component-major (nodes, dim, particles); callbacks get (particles, ...) views
    x = np.empty((steps + 1, m, particles))
    x[0] = p.x0[:, None]
    yv = y_ens.component_major
    ypv = y_prev.component_major
    zv = z_ens.component_major.reshape(steps, m, d, particles)
    zpv = z_prev.component_major.reshape(steps, m, d, particles)
    dw = bundle.component_major

    for k in range(steps):
        t_k = float(times[k])
        nu_k: EmpiricalMeasure = frozen_flow[k]
        xk, yk, zk = x[k].T, yv[k].T, zv[k].transpose(2, 0, 1)
        drift = np.asarray(p.f(t_k, xk, yk, zk, nu_k)).T
        if delta > 0.0:
            drift = drift - delta * (yv[k] - ypv[k])
        if p.law_free_sigma:
            diff = np.asarray(p.sigma(t_k, xk, yk, zk, None))
        else:
            diff = np.asarray(p.sigma(t_k, xk, yk, zk, nu_k))
            if delta > 0.0:
                diff = diff - delta * (zk - zpv[k].transpose(2, 0, 1))
        # for d = 1 the noise is a broadcast: the einsum's values without its call (a zero keeps its sign)
        x[k + 1] = x[k] + drift * dt + (diff[:, :, 0].T * dw[k] if d == 1 else np.einsum("pmd,dp->mp", diff, dw[k]))

    if not all_finite(x):
        k = next(k for k in range(steps) if not all_finite(x[k + 1]))
        raise FloatingPointError(f"forward propagation produced non-finite values at step {k}")
    return from_component_major(x)
