"""Outer measure-freezing iteration for coupled mean-field BFSDEs.

Starting from the zero triple (X^0, Y^0, Z^0) = (0, 0, 0), each outer
step freezes the empirical flow nu^n_t = law(X^n_t, Y^n_t) and terminal
law mu^n_T = law(X^n_T) of the previous iterate and solves the resulting
standard (non-mean-field) FBSDE for iterate n+1, with damping terms
-delta (Y^{n+1} - Y^n) in the forward drift (and -delta (Z^{n+1} - Z^n)
in the diffusion unless sigma is law-free).  The inner coupled FBSDE is
itself approximated by alternating forward/backward sweeps.

Convergence is monitored through the Cauchy functional the contraction
estimate controls,

    gap(n) = E|X^n_T - X^{n-1}_T|^2 + E int_0^T ||U^n - U^{n-1}||^2 dt,

and the iteration stops when gap < tol^2 or aborts with :class:`Diverged`
when the gap grows by more than a factor of 10 over a 3-step window (the
expected outcome on nonexistence instances).  One Brownian bundle is
reused across all iterations (common random numbers), so a run is a
deterministic function of (problem, grid, params, seed).

The observed gap ratio is reported next to the theoretical theta/lambda
contraction ratio; with regression-approximate inner solves the observed
ratio includes a bias floor, so agreement is indicative, not exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backward import RegressionBasis, solve_backward
from .forward import propagate
from .measure import EmpiricalMeasure
from .paths import (
    BrownianBundle, PathEnsemble, TimeGrid, from_time_major, joint_marginal, make_bundle, marginal, node_msd,
)
from .problem import MfProblem, contraction_constants

__all__ = [
    "SchemeParams",
    "IterationDiagnostics",
    "MfSolution",
    "Diverged",
    "diverging",
    "solve",
    "residual",
    "diagnostics_to_jsonl",
]

_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_WINDOW = 3


def diverging(gaps: Sequence[float]) -> bool:
    """The divergence rule: the last gap exceeds _DIVERGENCE_FACTOR times
    the positive gap _DIVERGENCE_WINDOW iterations earlier."""
    if len(gaps) <= _DIVERGENCE_WINDOW:
        return False
    ref = gaps[-1 - _DIVERGENCE_WINDOW]
    return ref > 0 and gaps[-1] > _DIVERGENCE_FACTOR * ref


@dataclass
class SchemeParams:
    """Knobs of the outer scheme.

    delta is the damping weight of the iteration (any small positive
    value is admissible; 0 disables the damping terms).  eps, alpha and
    rho are the Young-inequality parameters used only to evaluate the
    theoretical contraction ratio for diagnostics; alpha=None picks the
    variant's optimizer.

    Each outer step's standard FBSDE is solved by forward/backward
    alternations: at least inner_sweeps of them, and up to
    inner_max_sweeps until the sweep self-consistency gap falls below
    (tol/10)^2.  Sweep updates are Anderson-accelerated with memory
    depth inner_accel (0 disables), which keeps strongly coupled inner
    problems convergent where plain alternation stalls or oscillates;
    inner_relaxation optionally damps the raw sweep update.
    """

    delta: float = 1e-3
    eps: float = 1.0
    alpha: float | None = None
    rho: float = 1.0
    tol: float = 1e-3
    max_outer: int = 50
    inner_sweeps: int = 3
    particles: int = 4096
    basis: RegressionBasis = field(default_factory=RegressionBasis)
    picard_inner: int = 2
    inner_max_sweeps: int = 60
    inner_accel: int = 3
    inner_relaxation: float | None = None

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if self.inner_sweeps < 1:
            raise ValueError("inner_sweeps must be >= 1")
        if self.particles < 2:
            raise ValueError("particles must be >= 2")
        if self.picard_inner < 1:
            raise ValueError("picard_inner must be >= 1")
        if self.inner_max_sweeps < self.inner_sweeps:
            raise ValueError("inner_max_sweeps must be >= inner_sweeps")
        if self.inner_accel < 0:
            raise ValueError("inner_accel must be >= 0")
        if self.inner_relaxation is not None and not (0 < self.inner_relaxation <= 1):
            raise ValueError("inner_relaxation must lie in (0, 1]")


@dataclass
class IterationDiagnostics:
    """One outer iteration's Cauchy gaps and contraction ratios."""

    n: int
    gap_xt: float
    gap_u: float
    ratio: float
    theory_ratio: float
    max_regression_residual: float
    ridge_fallback: bool
    converged: bool

    @property
    def gap_total(self) -> float:
        return self.gap_xt + self.gap_u

    def to_record(self) -> dict:
        def _num(v):
            return None if (v is None or not math.isfinite(v)) else float(v)

        return {
            "n": self.n,
            "gap_XT": _num(self.gap_xt),
            "gap_U": _num(self.gap_u),
            "ratio": _num(self.ratio),
            "theory_ratio": _num(self.theory_ratio),
        }


@dataclass
class MfSolution:
    """Converged (or last) iterate of the scheme with its own flow."""

    grid: TimeGrid
    bundle: BrownianBundle
    x_ens: PathEnsemble
    y_ens: PathEnsemble
    z_ens: PathEnsemble
    flow: list
    terminal_law: EmpiricalMeasure
    history: list
    converged: bool


class Diverged(RuntimeError):
    """Raised when the outer gaps blow up; carries the iteration history."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


def _zero_ensembles(particles: int, steps: int, m: int, d: int):
    x = PathEnsemble(values=np.zeros((particles, steps + 1, m)))
    y = PathEnsemble(values=np.zeros((particles, steps + 1, m)))
    z = PathEnsemble(values=np.zeros((particles, steps, m * d)))
    return x, y, z


def _freeze_flow(x_ens: PathEnsemble, y_ens: PathEnsemble):
    return [joint_marginal(x_ens, y_ens, k) for k in range(x_ens.nodes)]


def _gaps(grid: TimeGrid, new, old) -> tuple[float, float]:
    """Cauchy gap pair: terminal X gap and the time-integrated U gap
    (trapezoid on nodes for X and Y, left rectangles for the step-indexed Z)."""
    xn, yn, zn = new
    xo, yo, zo = old
    per_x = node_msd(xn.time_major, xo.time_major)
    per_node = per_x + node_msd(yn.time_major, yo.time_major)
    gap_u = float(np.trapezoid(per_node, dx=grid.dt))
    gap_u += float(np.sum(node_msd(zn.time_major, zo.time_major)) * grid.dt)
    return float(per_x[-1]), gap_u


def _flatten_pair(y: PathEnsemble, z: PathEnsemble) -> np.ndarray:
    return np.concatenate([y.time_major.ravel(), z.time_major.ravel()])


def _split_pair(u: np.ndarray, y_shape, z_shape) -> tuple[PathEnsemble, PathEnsemble]:
    """Inverse of :func:`_flatten_pair`; the shapes are time-major."""
    cut = int(np.prod(y_shape))
    return from_time_major(u[:cut].reshape(y_shape)), from_time_major(u[cut:].reshape(z_shape))


class _Anderson:
    """Anderson mixing of the sweep map u -> F(u) with memory ``depth``
    (Walker & Ni, SIAM J. Numer. Anal. 2011).

    Each step stores the residual r = F(u) - u once, keeps the last
    ``depth`` differences of residuals and of outputs, and picks gamma
    from the small Gram system of the residual differences,
    (dR' dR) gamma = dR' r.  ``lstsq`` keeps the minimum-norm answer when
    that system is singular, as on the stacked residuals.  The mixed
    iterate is F(u) - dFU gamma, or F(u) itself when the step is not
    finite.
    """

    def __init__(self, depth: int):
        self.depth = depth
        self.r = self.fu = None
        self.dr: list[np.ndarray] = []
        self.dfu: list[np.ndarray] = []
        self.gram = np.zeros((0, 0))

    def next(self, u: np.ndarray, fu: np.ndarray) -> np.ndarray:
        r = fu - u
        if self.r is not None:
            dr = r - self.r
            self.dr.append(dr)
            self.dfu.append(fu - self.fu)
            row = np.array([dr @ v for v in self.dr])
            gram = np.empty((len(row), len(row)))
            gram[:-1, :-1] = self.gram
            gram[-1, :] = gram[:, -1] = row
            if len(self.dr) > self.depth:
                del self.dr[0], self.dfu[0]
                gram = gram[1:, 1:]
            self.gram = gram
        self.r, self.fu = r, fu
        rhs = np.array([v @ r for v in self.dr])
        if not (self.dr and np.all(np.isfinite(self.gram)) and np.all(np.isfinite(rhs))):
            return fu
        gamma = np.linalg.lstsq(self.gram, rhs, rcond=None)[0]
        out = fu.copy()
        for g, v in zip(gamma, self.dfu):
            out -= g * v
        return out if np.all(np.isfinite(out)) else fu


def _inner_solve(p, grid, bundle, params: SchemeParams, flow, mu_t, start):
    """Solve the frozen-flow (standard) FBSDE by alternating sweeps.

    One sweep propagates X under the current (Y, Z) and re-regresses the
    backward pair along the new paths; updates between sweeps are
    Anderson-accelerated.  Runs at least params.inner_sweeps sweeps and
    stops once the sweep-to-sweep gap drops below (tol/10)^2, giving the
    outer iteration an inner solution accurate well below its own
    stopping threshold.
    """
    x_prev, y_prev, z_prev = start
    target = (0.1 * params.tol) ** 2
    omega = params.inner_relaxation
    x_cur, y_cur, z_cur = x_prev, y_prev, z_prev
    accel = _Anderson(params.inner_accel)
    reg_diag = None
    gap_min = math.inf
    growing = 0
    for sweep in range(1, params.inner_max_sweeps + 1):
        x_new = propagate(p, grid, bundle, y_cur, z_cur, y_prev, z_prev, flow, params.delta)
        y_hat, z_hat, reg_diag = solve_backward(
            p, grid, bundle, x_new, flow, mu_t, params.basis, params.picard_inner
        )
        if omega is not None and omega < 1.0:
            y_hat = from_time_major(y_cur.time_major + omega * (y_hat.time_major - y_cur.time_major))
            z_hat = from_time_major(z_cur.time_major + omega * (z_hat.time_major - z_cur.time_major))
        gap = sum(_gaps(grid, (x_new, y_hat, z_hat), (x_cur, y_cur, z_cur)))
        if not math.isfinite(gap):
            raise FloatingPointError(f"inner sweep gap became non-finite at sweep {sweep}")
        if sweep >= params.inner_sweeps and gap < target:
            return x_new, y_hat, z_hat, reg_diag
        # hand clearly exploding inner iterations to the outer divergence detector
        gap_min = min(gap_min, gap)
        growing = growing + 1 if gap > 100.0 * gap_min else 0
        if growing >= 3 and sweep >= params.inner_sweeps:
            return x_new, y_hat, z_hat, reg_diag
        if params.inner_accel > 0:
            mixed = accel.next(_flatten_pair(y_cur, z_cur), _flatten_pair(y_hat, z_hat))
            y_next, z_next = _split_pair(mixed, y_hat.time_major.shape, z_hat.time_major.shape)
        else:
            y_next, z_next = y_hat, z_hat
        x_cur, y_cur, z_cur = x_new, y_next, z_next
    return x_cur, y_cur, z_cur, reg_diag


def _theory_ratio(p: MfProblem, params: SchemeParams) -> float:
    if p.lipschitz is None or p.monotonicity is None or params.delta <= 0:
        return math.nan
    lam, theta = contraction_constants(
        p.lipschitz, p.monotonicity, eps=params.eps, alpha=params.alpha,
        rho=params.rho, delta=params.delta,
    )
    if lam <= 0:
        return math.nan
    return theta / lam


def solve(
    p: MfProblem,
    grid: TimeGrid,
    params: SchemeParams,
    seed: int = 0,
    warm_start: MfSolution | None = None,
) -> MfSolution:
    """Run the frozen-measure iteration until the Cauchy gap is below
    tol^2 or max_outer is reached.

    The iterate starts from the zero triple (a warm start from a previous
    solution can be supplied for parameter sweeps).  Raises
    :class:`Diverged` when the gap grows by more than 10x across 3
    consecutive outer steps or the particle system blows up.
    """
    if abs(grid.horizon - p.horizon) > 1e-12 * max(1.0, p.horizon):
        raise ValueError(f"grid horizon {grid.horizon} does not match problem horizon {p.horizon}")
    p.spot_check(seed=seed)
    m, d = p.dim_state, p.dim_bm
    bundle = make_bundle(grid, params.particles, d, seed)
    theory = _theory_ratio(p, params)

    if warm_start is not None:
        x_prev, y_prev, z_prev = warm_start.x_ens, warm_start.y_ens, warm_start.z_ens
        if x_prev.particles != params.particles or x_prev.nodes != grid.steps + 1:
            raise ValueError("warm start shapes do not match the requested grid/particles")
    else:
        x_prev, y_prev, z_prev = _zero_ensembles(params.particles, grid.steps, m, d)

    history: list[IterationDiagnostics] = []
    converged = False
    x_cur, y_cur, z_cur = x_prev, y_prev, z_prev
    prev_gap = math.nan

    for n in range(1, params.max_outer + 1):
        flow = _freeze_flow(x_prev, y_prev)
        mu_t = marginal(x_prev, x_prev.nodes - 1)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                x_cur, y_cur, z_cur, reg_diag = _inner_solve(
                    p, grid, bundle, params, flow, mu_t, (x_prev, y_prev, z_prev)
                )
        except FloatingPointError as exc:
            raise Diverged(f"particle system blew up at outer iteration {n}: {exc}", history) from exc

        gap_xt, gap_u = _gaps(grid, (x_cur, y_cur, z_cur), (x_prev, y_prev, z_prev))
        gap_total = gap_xt + gap_u
        ratio = gap_total / prev_gap if (math.isfinite(prev_gap) and prev_gap > 0) else math.nan
        converged = gap_total < params.tol**2
        history.append(
            IterationDiagnostics(
                n=n,
                gap_xt=gap_xt,
                gap_u=gap_u,
                ratio=ratio,
                theory_ratio=theory,
                max_regression_residual=reg_diag.max_residual,
                ridge_fallback=reg_diag.used_ridge,
                converged=converged,
            )
        )
        x_prev, y_prev, z_prev = x_cur, y_cur, z_cur
        prev_gap = gap_total
        if converged:
            break
        if not math.isfinite(gap_total):
            raise Diverged(f"non-finite Cauchy gap at outer iteration {n}", history)
        if diverging([rec.gap_total for rec in history]):
            raise Diverged(
                f"Cauchy gap grew more than {_DIVERGENCE_FACTOR:g}x over "
                f"{_DIVERGENCE_WINDOW} outer steps (n={n})",
                history,
            )

    return MfSolution(
        grid=grid,
        bundle=bundle,
        x_ens=x_cur,
        y_ens=y_cur,
        z_ens=z_cur,
        flow=_freeze_flow(x_cur, y_cur),
        terminal_law=marginal(x_cur, x_cur.nodes - 1),
        history=history,
        converged=converged,
    )


def residual(p: MfProblem, sol: MfSolution) -> tuple[float, float, float]:
    """A-posteriori residuals of the discretized system under the
    solution's OWN empirical flow (self-consistency of the fixed point).

    Returns (forward_residual, backward_residual, terminal_residual): the
    max over steps of the mean squared one-step defects of the forward
    and backward Euler relations, and the mean squared terminal mismatch.
    """
    grid, bundle = sol.grid, sol.bundle
    m, d = p.dim_state, p.dim_bm
    particles, steps = bundle.particles, bundle.steps
    xv, yv = sol.x_ens.time_major, sol.y_ens.time_major
    zv = sol.z_ens.time_major.reshape(steps, particles, m, d)
    dt = grid.dt
    times = grid.nodes

    fwd = 0.0
    bwd = 0.0
    for k in range(steps):
        t_k = float(times[k])
        nu_k = sol.flow[k]
        xk, yk, zk = xv[k], yv[k], zv[k]
        dw = bundle.time_major[k]
        fv = np.asarray(p.f(t_k, xk, yk, zk, nu_k))
        sv = np.asarray(p.sigma(t_k, xk, yk, zk, None if p.law_free_sigma else nu_k))
        fdef = xv[k + 1] - xk - fv * dt - np.einsum("pmd,pd->pm", sv, dw)
        fwd = max(fwd, float(np.mean(np.sum(fdef * fdef, axis=1))))
        hv = np.asarray(p.h(t_k, xk, yk, zk, nu_k))
        bdef = yv[k + 1] - yk - hv * dt - np.einsum("pmd,pd->pm", zk, dw)
        bwd = max(bwd, float(np.mean(np.sum(bdef * bdef, axis=1))))

    tdef = yv[steps] - np.asarray(p.g(xv[steps], sol.terminal_law))
    term = float(np.mean(np.sum(tdef * tdef, axis=1)))
    return fwd, bwd, term


def diagnostics_to_jsonl(history, fileobj) -> None:
    """Stream one JSON record per outer iteration."""
    for rec in history:
        fileobj.write(json.dumps(rec.to_record(), sort_keys=True))
        fileobj.write("\n")
