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
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backward import RegressionBasis, solve_backward
from .forward import propagate
from .paths import (
    BrownianBundle, PathEnsemble, TimeGrid, from_component_major, joint_marginal, make_bundle, marginal, node_msd,
)
from .problem import MfProblem, contraction_constants

__all__ = [
    "SchemeParams",
    "IterationDiagnostics",
    "MfSolution",
    "Diverged",
    "diverging",
    "blowups_diverge",
    "solve",
    "residual",
    "diagnostics_to_jsonl",
]

_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_WINDOW = 3


def diverging(gaps: Sequence[float]) -> bool:
    """The divergence rule: the last gap is not finite, or it exceeds
    _DIVERGENCE_FACTOR times the positive gap _DIVERGENCE_WINDOW iterations
    earlier."""
    if gaps and not math.isfinite(gaps[-1]):
        return True
    if len(gaps) <= _DIVERGENCE_WINDOW:
        return False
    ref = gaps[-1 - _DIVERGENCE_WINDOW]
    return ref > 0 and gaps[-1] > _DIVERGENCE_FACTOR * ref


# the inner solve's sweep cap and the memory depth of its Anderson mixing
_INNER_MAX_SWEEPS = 60
_ANDERSON_DEPTH = 3


@dataclass
class SchemeParams:
    """Knobs of the outer scheme.

    delta is the damping weight of the iteration (any small positive
    value is admissible; 0 disables the damping terms); the diagnostics'
    theoretical contraction ratio uses it with the default Young parameters.

    Each outer step's standard FBSDE is solved by forward/backward
    alternations: at least inner_sweeps of them (at most the fixed cap of
    60), continuing until the sweep self-consistency gap falls below
    (tol/10)^2.
    """

    delta: float = 1e-3
    tol: float = 1e-3
    max_outer: int = 50
    inner_sweeps: int = 3
    particles: int = 4096
    basis: RegressionBasis = field(default_factory=RegressionBasis)

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if not 1 <= self.inner_sweeps <= _INNER_MAX_SWEEPS:
            raise ValueError(f"inner_sweeps must be between 1 and {_INNER_MAX_SWEEPS}")
        if self.particles < 2:
            raise ValueError("particles must be >= 2")


@dataclass
class IterationDiagnostics:
    """One outer iteration's Cauchy gaps and contraction ratios, and how its
    inner solve ended: its sweep count, its last sweep-to-sweep gap and why
    it stopped ("target", "growth" or "cap")."""

    n: int
    gap_xt: float
    gap_u: float
    ratio: float
    theory_ratio: float
    max_regression_residual: float
    ridge_fallback: bool
    converged: bool
    inner_sweeps: int
    inner_gap: float
    inner_exit: str

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
            "max_regression_residual": _num(self.max_regression_residual),
            "ridge_fallback": self.ridge_fallback,
            "inner_sweeps": self.inner_sweeps,
            "inner_gap": _num(self.inner_gap),
            "inner_exit": self.inner_exit,
        }


@dataclass
class MfSolution:
    """Converged (or last) iterate of the scheme."""

    grid: TimeGrid
    bundle: BrownianBundle
    x_ens: PathEnsemble
    y_ens: PathEnsemble
    z_ens: PathEnsemble
    history: list
    converged: bool


class Diverged(RuntimeError):
    """Raised when the outer gaps blow up; carries the iteration history."""

    def __init__(self, message: str, history: list):
        super().__init__(message)
        self.history = history


@contextmanager
def blowups_diverge(what: str, history: list):
    """The failure rule of an iteration step: numpy overflow and invalid
    values pass silently (every step checks its own output), and a
    FloatingPointError raised inside is re-raised as :class:`Diverged`
    with the message "``what``: error" and ``history``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except FloatingPointError as exc:
        raise Diverged(f"{what}: {exc}", history) from exc


def _zero_ensembles(particles: int, steps: int, m: int, d: int):
    x = from_component_major(np.zeros((steps + 1, m, particles)))
    y = from_component_major(np.zeros((steps + 1, m, particles)))
    z = from_component_major(np.zeros((steps, m * d, particles)))
    return x, y, z


def _gap_parts(per_x, per_y, per_z, dt: float) -> tuple[float, float]:
    """Cauchy gap pair (terminal X gap, time-integrated U gap) from per-node mean squared
    differences: trapezoid on nodes for X and Y, left rectangles for the step-indexed Z."""
    gap_u = float(np.trapezoid(per_x + per_y, dx=dt))
    gap_u += float(np.sum(per_z) * dt)
    return float(per_x[-1]), gap_u


def _gaps(grid: TimeGrid, new, old) -> tuple[float, float]:
    """Cauchy gap pair of two (X, Y, Z) iterates."""
    return _gap_parts(*(node_msd(a.component_major, b.component_major) for a, b in zip(new, old)), grid.dt)


def _rows(*arrays) -> list[np.ndarray]:
    """The node blocks of component-major arrays in order, each a flat (dim * P,) view."""
    return [row for a in arrays for row in a.reshape(len(a), -1)]


class _Anderson:
    """Anderson mixing of the sweep map u -> F(u), u = (Y, Z), with memory
    ``depth`` (Walker & Ni, SIAM J. Numer. Anal. 2011).

    The last residual r = F(u) - u and ring buffers of the last ``depth``
    residual (dR) and output (dFU) differences are allocated once per
    solve.  gamma solves the Gram system (dR' dR) gamma = dR' r with
    ``lstsq`` (minimum norm when singular); the mix is F(u) - dFU gamma, or
    F(u) when the Gram matrix, the right-hand side or the mix is not
    finite.  Both passes of a sweep run one node block (a Y node or a Z
    step, (dim, P)) at a time, while it is in cache: :meth:`observe` forms
    r, the differences, the Gram row, the right-hand side and the sweep
    gap, and :meth:`mix` writes the mix.
    """

    def __init__(self, depth: int, y_shape: tuple, z_shape: tuple):
        self.depth, self.shapes, self.cut = depth, (y_shape, z_shape), int(np.prod(y_shape))
        cuts = np.cumsum([int(np.prod(s[1:])) for s in self.shapes for _ in range(s[0])])
        ring = np.empty((2, depth, cuts[-1]))
        self.r, self.out = np.empty((2, cuts[-1]))
        # per node block: its columns of dR and dFU, and its part of r and of the mix
        self.blocks = list(zip(*(np.split(a, cuts[:-1], axis=-1) for a in (*ring, self.r, self.out))))
        self.gram, self.rhs = np.zeros((depth, depth)), np.zeros(depth)
        self.restart()

    def restart(self) -> None:
        """Forget the history (a new inner solve starts)."""
        self.fu, self.stored = None, 0

    def observe(self, new, old, dt: float) -> float:
        """Pass 1 for the sweep from the iterate ``old`` = (X, Y, Z) to
        ``new``, whose (Y, Z) is F of old's; returns the sweep gap."""
        fu = tuple(new[1:])
        new, old = [e.component_major for e in new], [e.component_major for e in old]
        first = self.fu is None
        if not first:
            slot, self.stored = self.stored % self.depth, self.stored + 1
            hist = min(self.stored, self.depth)
            row, rhs = np.zeros(hist), np.zeros(hist)
            prev = _rows(*(e.component_major for e in self.fu))
        sq = np.empty(len(self.blocks))
        for b, (f, v, (dr, dfu, r_old, _)) in enumerate(zip(_rows(*new[1:]), _rows(*old[1:]), self.blocks)):
            r = f - v
            sq[b] = r @ r
            if not first:
                np.subtract(r, r_old, out=dr[slot])
                np.subtract(f, prev[b], out=dfu[slot])
                row += dr[:hist] @ dr[slot]
                rhs += dr[:hist] @ r
            r_old[:] = r
        per_x = np.array([d @ d for d in map(np.subtract, _rows(new[0]), _rows(old[0]))])
        if not first:
            self.gram[slot, :hist] = self.gram[:hist, slot] = row
            self.rhs[:hist] = rhs
        self.fu = fu
        particles, nodes = new[0].shape[-1], len(new[0])
        return sum(_gap_parts(per_x / particles, sq[:nodes] / particles, sq[nodes:] / particles, dt))

    def mix(self) -> tuple[PathEnsemble, PathEnsemble]:
        """Pass 2: the next iterate (Y, Z) after the output last observed,
        or that output itself when there is no history or the step is not
        finite."""
        hist = min(self.stored, self.depth)
        order = [(self.stored - hist + i) % self.depth for i in range(hist)]
        gram, rhs = self.gram[np.ix_(order, order)], self.rhs[order]
        if not (order and np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))):
            return self.fu
        gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        for f, (_, dfu, _, out) in zip(_rows(*(e.component_major for e in self.fu)), self.blocks):
            np.copyto(out, f)
            for g, j in zip(gamma, order):
                out -= g * dfu[j]
            if not np.all(np.isfinite(out)):
                return self.fu
        return tuple(from_component_major(a.reshape(s)) for a, s in zip(np.split(self.out, [self.cut]), self.shapes))


def _inner_solve(p, grid, bundle, params: SchemeParams, flow, mu_t, start, accel: _Anderson):
    """Solve the frozen-flow (standard) FBSDE by alternating sweeps.

    One sweep propagates X under the current (Y, Z) and re-regresses the
    backward pair along the new paths; the next sweep starts from the
    Anderson mix of the swept pairs.  Runs at least params.inner_sweeps
    sweeps and stops once the sweep-to-sweep gap drops below (tol/10)^2
    (well below the outer stopping threshold), when the gaps grow (left
    to the outer divergence rule) or at the sweep cap.  Returns the last
    swept (X, Y, Z), its regression diagnostics, why the solve stopped
    ("target", "growth" or "cap"), its sweep count and its last
    sweep-to-sweep gap.
    """
    x_prev, y_prev, z_prev = start
    target = (0.1 * params.tol) ** 2
    x_cur, y_cur, z_cur = start
    accel.restart()
    gap_min = math.inf
    growing = 0
    for sweep in range(1, _INNER_MAX_SWEEPS + 1):
        x_new = propagate(p, grid, bundle, y_cur, z_cur, y_prev, z_prev, flow, params.delta)
        y_hat, z_hat, reg_diag = solve_backward(p, grid, bundle, x_new, flow, mu_t, params.basis)
        gap = accel.observe((x_new, y_hat, z_hat), (x_cur, y_cur, z_cur), grid.dt)
        if not math.isfinite(gap):
            raise FloatingPointError(f"inner sweep gap became non-finite at sweep {sweep}")
        met = gap < target
        gap_min = min(gap_min, gap)
        growing = growing + 1 if gap > 100.0 * gap_min else 0
        if sweep == _INNER_MAX_SWEEPS or (sweep >= params.inner_sweeps and (met or growing >= 3)):
            break
        y_cur, z_cur = accel.mix()
        x_cur = x_new
    return x_new, y_hat, z_hat, reg_diag, "target" if met else "growth" if growing >= 3 else "cap", sweep, gap


def _theory_ratio(p: MfProblem, params: SchemeParams) -> float:
    if p.lipschitz is None or p.monotonicity is None or params.delta <= 0:
        return math.nan
    lam, theta = contraction_constants(p.lipschitz, p.monotonicity, delta=params.delta)
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
    :class:`Diverged` when the gap is not finite or grows by more than 10x
    across 3 consecutive outer steps, or when the particle system blows up
    (:func:`blowups_diverge`).
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
    accel = _Anderson(_ANDERSON_DEPTH, (grid.steps + 1, m, params.particles), (grid.steps, m * d, params.particles))

    for n in range(1, params.max_outer + 1):
        flow = [joint_marginal(x_prev, y_prev, k) for k in range(x_prev.nodes)]
        mu_t = marginal(x_prev, x_prev.nodes - 1)
        with blowups_diverge(f"particle system blew up at outer iteration {n}", history):
            x_cur, y_cur, z_cur, reg_diag, inner_exit, sweeps, inner_gap = _inner_solve(
                p, grid, bundle, params, flow, mu_t, (x_prev, y_prev, z_prev), accel
            )

        gap_xt, gap_u = _gaps(grid, (x_cur, y_cur, z_cur), (x_prev, y_prev, z_prev))
        gap_total = gap_xt + gap_u
        ratio = gap_total / prev_gap if (math.isfinite(prev_gap) and prev_gap > 0) else math.nan
        # an outer step counts only when its inner solve met its own target
        converged = gap_total < params.tol**2 and inner_exit == "target"
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
                inner_sweeps=sweeps,
                inner_gap=inner_gap,
                inner_exit=inner_exit,
            )
        )
        x_prev, y_prev, z_prev = x_cur, y_cur, z_cur
        prev_gap = gap_total
        if converged:
            break
        if diverging([rec.gap_total for rec in history]):
            raise Diverged(
                f"Cauchy gap {gap_total:.3g} at outer iteration {n} is not finite or more than "
                f"{_DIVERGENCE_FACTOR:g}x the gap {_DIVERGENCE_WINDOW} steps earlier",
                history,
            )

    return MfSolution(
        grid=grid,
        bundle=bundle,
        x_ens=x_cur,
        y_ens=y_cur,
        z_ens=z_cur,
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
    xv, yv = sol.x_ens.component_major, sol.y_ens.component_major
    zv = sol.z_ens.component_major.reshape(steps, m, d, particles)
    dt = grid.dt
    times = grid.nodes

    fwd = 0.0
    bwd = 0.0
    for k in range(steps):
        t_k = float(times[k])
        nu_k = joint_marginal(sol.x_ens, sol.y_ens, k)
        xk, yk, zk = xv[k].T, yv[k].T, zv[k].transpose(2, 0, 1)
        dw = bundle.component_major[k]
        fv = np.asarray(p.f(t_k, xk, yk, zk, nu_k)).T
        sv = np.asarray(p.sigma(t_k, xk, yk, zk, None if p.law_free_sigma else nu_k))
        fdef = xv[k + 1] - xv[k] - fv * dt - np.einsum("pmd,dp->mp", sv, dw)
        fwd = max(fwd, float(np.mean(np.sum(fdef * fdef, axis=0))))
        hv = np.asarray(p.h(t_k, xk, yk, zk, nu_k)).T
        bdef = yv[k + 1] - yv[k] - hv * dt - np.einsum("mdp,dp->mp", zv[k], dw)
        bwd = max(bwd, float(np.mean(np.sum(bdef * bdef, axis=0))))

    tdef = yv[steps] - np.asarray(p.g(xv[steps].T, marginal(sol.x_ens, steps))).T
    term = float(np.mean(np.sum(tdef * tdef, axis=0)))
    return fwd, bwd, term


def diagnostics_to_jsonl(history, fileobj) -> None:
    """Stream one JSON record per outer iteration."""
    for rec in history:
        fileobj.write(json.dumps(rec.to_record(), sort_keys=True))
        fileobj.write("\n")
