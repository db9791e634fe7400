"""Outer measure-freezing iteration for coupled mean-field BFSDEs.

Starting from the zero triple (X^0, Y^0, Z^0) = (0, 0, 0), each outer
step freezes the previous iterate's flow nu^n_t = law(X^n_t, Y^n_t), kept
as its table of means (E[X^n_t], E[Y^n_t]), and solves the resulting
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

The observed gap ratio is reported next to the theta/lambda contraction
ratio of the constants :func:`check_H1` computes; with regression-approximate
inner solves it includes a bias floor, so agreement is indicative, not exact.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backward import FittedMap, solve_backward
from .forward import propagate
from .paths import (
    BrownianBundle, PathEnsemble, TimeGrid, all_finite, from_component_major, joint_marginal, make_bundle, node_msd,
)
from .problem import MfProblem, check_H1, contraction_constants

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


# the inner solve's sweep floor and cap, and the memory depth of its Anderson mixing
_INNER_MIN_SWEEPS = 3
_INNER_MAX_SWEEPS = 60
_ANDERSON_DEPTH = 3


@dataclass
class SchemeParams:
    """Knobs of the outer scheme.

    delta is the damping weight of the iteration (any small positive
    value is admissible; 0 disables the damping terms); the diagnostics'
    theoretical contraction ratio uses it with the default Young parameters.

    Each outer step's standard FBSDE is solved by 3 to 60 forward/backward
    alternations, continuing until the sweep self-consistency gap falls
    below (tol/10)^2; a tol for which that target underflows to 0 is
    rejected.
    """

    delta: float = 1e-3
    tol: float = 1e-3
    max_outer: int = 50
    particles: int = 4096

    def __post_init__(self):
        for name in ("delta", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.tol * self.tol == math.inf:
            raise ValueError(f"tol {self.tol!r} is too large: the outer target tol^2 overflows")
        if (0.1 * self.tol) ** 2 == 0:
            raise ValueError(f"tol {self.tol!r} is too small: the inner target (tol/10)^2 underflows to 0")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
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
    """Converged (or last) iterate of the scheme: X paths and the last sweep's (Y, Z) fitted maps on them."""

    grid: TimeGrid
    bundle: BrownianBundle
    x_ens: PathEnsemble
    y_ens: FittedMap
    z_ens: FittedMap
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
    values pass silently (every sweep checks its own output), and a
    FloatingPointError raised inside is re-raised as :class:`Diverged`
    with the message "``what``: error" and ``history``."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except FloatingPointError as exc:
        raise Diverged(f"{what}: {exc}", history) from exc


def _gap_parts(per_x, per_y, per_z, dt: float) -> tuple[float, float]:
    """Cauchy gap pair (terminal X gap, time-integrated U gap) from per-node mean squared
    differences: trapezoid on nodes for X and Y, left rectangles for the step-indexed Z."""
    gap_u = float(np.trapezoid(per_x + per_y, dx=dt))
    gap_u += float(np.sum(per_z) * dt)
    return float(per_x[-1]), gap_u


def _gaps(grid: TimeGrid, new, old) -> tuple[float, float]:
    """Cauchy gap pair of two (X, Y, Z) iterates, each part path ensembles or fitted maps, read node by node."""
    return _gap_parts(*(node_msd(a, b) for a, b in zip(new, old)), grid.dt)


class _Anderson:
    """Anderson mixing of the sweep map u -> F(u), u = (Y, Z), with memory
    ``depth`` (Walker & Ni, SIAM J. Numer. Anal. 2011).  X is not mixed.

    The sweep outputs F are the (Y, Z) fitted maps of the backward sweeps,
    each pair on its sweep's X paths; the last ``depth + 1`` are kept.  Y
    and Z each have a mix array of their paths' shape, which only
    :meth:`mix` writes, and a (depth, *shape) ring of the last residual
    differences dR, r = F(u) - u, allocated once per solve; the ring slot
    the next observe overwrites holds the last r itself.  gamma solves
    (dR' dR) gamma = dR' r with ``lstsq`` (minimum norm when singular), and
    the mix F_n - sum_i gamma_i (F_{i+1} - F_i) is sum_j alpha_j F_j,
    alpha = diff([0, gamma, 1]); alpha = [1] on the newest output when
    there is no history or the Gram matrix, the right-hand side or the mix
    is not finite.  Both passes run one node block (part, k) of (dim, P)
    values at a time, while it is in cache: :meth:`observe` forms r, its
    ring difference, the Gram row, the right-hand side and the per-node
    squared residuals; :meth:`mix` writes each node of both parts as
    products of the window's alpha-scaled, stacked tables with one design
    [1; X^(0)_k; X^(1)_k; ...] of the outputs' X paths.  The sums over
    particles are ``einsum``s, so their bits do not depend on the BLAS
    thread count.
    """

    def __init__(self, depth: int, y_shape: tuple, z_shape: tuple):
        self.depth, shapes = depth, (y_shape, z_shape)
        self.mixes = [np.empty(s) for s in shapes]
        self.dr = [np.zeros((depth, *s)) for s in shapes]
        self.scratch = [np.empty(s[1:]) for s in shapes]
        self.gram, self.rhs = np.zeros((depth, depth)), np.zeros(depth)
        self.restart()

    def restart(self) -> None:
        """Forget the history and the outputs in it (an inner solve ends)."""
        self.maps, self.stored = [], -1

    def observe(self, new, old) -> tuple[np.ndarray, np.ndarray]:
        """Pass 1 for the sweep from the iterate ``old`` = (Y, Z), path
        ensembles or fitted maps, to ``new`` = F(old), a (Y, Z) pair of
        fitted maps; returns the per-node means over particles of |r|^2, for
        the Y nodes and for the Z steps."""
        self.maps.append(tuple(new))
        slot, self.stored = self.stored % self.depth, self.stored + 1
        hist, nxt = min(self.stored, self.depth), self.stored % self.depth
        row, rhs, msr = np.zeros(hist), np.zeros(hist), []
        for fmap, e, dr, buf in zip(new, old, self.dr, self.scratch):
            sq = np.empty(fmap.nodes)
            for k in range(fmap.nodes):
                r = np.subtract(fmap.node(k, out=buf), e.node(k), out=buf)
                sq[k] = np.einsum("ij,ij->", r, r)
                if hist:
                    np.subtract(r, dr[slot, k], out=dr[slot, k])
                    row += np.einsum("hij,ij->h", dr[:hist, k], dr[slot, k])
                    rhs += np.einsum("hij,ij->h", dr[:hist, k], r)
                dr[nxt, k] = r
            msr.append(sq / fmap.particles)
        if hist:
            self.gram[slot, :hist] = self.gram[:hist, slot] = row
            self.rhs[:hist] = rhs
        return tuple(msr)

    def mix(self) -> tuple[PathEnsemble, PathEnsemble]:
        """Pass 2: the next iterate (Y, Z) after the output last observed,
        or that output's values when there is no history or the step is
        not finite, as views of the mix arrays."""
        hist = min(self.stored, self.depth)
        order = [(self.stored - hist + i) % self.depth for i in range(hist)]
        gram, rhs = self.gram[np.ix_(order, order)], self.rhs[order]
        alpha = np.ones(1)  # the newest output
        if order and np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs)):
            alpha = np.diff(np.linalg.lstsq(gram, rhs, rcond=None)[0], prepend=0.0, append=1.0)
        if not self._combine(alpha) and len(alpha) > 1:
            self._combine(np.ones(1))
        del self.maps[: -self.depth]
        return tuple(from_component_major(a[:]) for a in self.mixes)

    def _combine(self, alpha: np.ndarray) -> bool:
        """Write sum_j alpha_j F_j over the last len(alpha) outputs, oldest first, to the mix arrays and
        return whether it is finite: node k of a part is one product [sum_j alpha_j c_j; alpha_0 C_0; ...]'
        [1; X^(0)_k; ...] of the outputs' tables [c_j; C_j], through one design for both parts (an output's Y
        and Z maps share its X paths)."""
        window = self.maps[-len(alpha) :]
        tables = [np.concatenate([np.einsum("i,ikd->kd", alpha, [f.coef[:, 0] for f in maps])[:, None],
                                  *(a * f.coef[:, 1:] for a, f in zip(alpha, maps))], axis=1)
                  for maps in zip(*window)]
        design = np.ones((tables[0].shape[1], self.mixes[0].shape[-1]))
        for k in range(len(self.mixes[0])):
            np.concatenate([y.x[k] for y, _ in window], out=design[1:])
            for table, out in zip(tables, self.mixes):
                if k < len(table):
                    np.matmul(table[k].T, design, out=out[k])
        return all(map(all_finite, self.mixes))


def _inner_solve(p, grid, bundle, params: SchemeParams, flow, prev, accel: _Anderson):
    """Solve the frozen-flow (standard) FBSDE by alternating sweeps.

    ``prev`` is the previous outer iterate, X paths and (Y, Z) fitted maps:
    the maps give the damping pair and the first sweep's (Y, Z); later
    sweeps start from the Anderson mix of the swept pairs, which the
    mixer's arrays hold.  One sweep propagates X under the current (Y, Z)
    and re-regresses the backward pair along the new paths.  The X part of
    the sweep gap is taken as soon as the new paths exist.  Runs at least
    _INNER_MIN_SWEEPS sweeps and stops once the sweep-to-sweep gap drops
    below (tol/10)^2 (well below the outer stopping threshold), when
    :func:`diverging` flags the sweep gaps (left to the outer solve to
    classify) or at the sweep cap.  Returns the last swept X paths and
    (Y, Z) maps, its regression diagnostics, why the solve stopped
    ("target", "growth" or "cap"), its sweep count and its last
    sweep-to-sweep gap.
    """
    x_cur, y_prev, z_prev = prev
    y_cur, z_cur = y_prev, z_prev
    target = (0.1 * params.tol) ** 2
    gaps = []
    for sweep in range(1, _INNER_MAX_SWEEPS + 1):
        x_new = propagate(p, grid, bundle, y_cur, z_cur, y_prev, z_prev, flow, params.delta)
        per_x, x_cur = node_msd(x_new, x_cur), x_new
        y_hat, z_hat, reg_diag = solve_backward(p, grid, bundle, x_new, flow)
        gap = sum(_gap_parts(per_x, *accel.observe((y_hat, z_hat), (y_cur, z_cur)), grid.dt))
        if not math.isfinite(gap):
            raise FloatingPointError(f"inner sweep gap became non-finite at sweep {sweep}")
        gaps.append(gap)
        stop = "target" if gap < target else "growth" if diverging(gaps) else None
        if sweep == _INNER_MAX_SWEEPS or (sweep >= _INNER_MIN_SWEEPS and stop):
            break
        y_cur, z_cur = accel.mix()
    accel.restart()  # the kept outputs and their X paths go; the last output lives on as the outer iterate
    return x_new, y_hat, z_hat, reg_diag, stop or "cap", sweep, gap


def _theory_ratio(p: MfProblem, params: SchemeParams) -> float:
    """theta/lambda of the constants :func:`check_H1` computes; NaN with no damping, when k, k' or lambda is
    not positive, or when a slope overflows."""
    if params.delta <= 0:
        return math.nan
    try:
        rep = check_H1(p)
    except FloatingPointError:
        return math.nan
    lam, theta = contraction_constants(rep.computed, rep.variant, delta=params.delta)
    return theta / lam if lam > 0 and min(rep.computed["k"], rep.computed["k_prime"]) > 0 else math.nan


def solve(
    p: MfProblem,
    grid: TimeGrid,
    params: SchemeParams,
    seed: int = 0,
) -> MfSolution:
    """Run the frozen-measure iteration until the Cauchy gap is below
    tol^2 or max_outer is reached.

    The iterate starts from the zero triple and is kept as X paths and the
    last sweep's (Y, Z) fitted maps, which the solution returns as they
    are (no (Y, Z) paths are built).  Raises :class:`Diverged` when
    the gap is not finite or grows by more than 10x across 3 consecutive
    outer steps, or when the particle system blows up
    (:func:`blowups_diverge`).
    """
    if abs(grid.horizon - p.horizon) > 1e-12 * max(1.0, p.horizon):
        raise ValueError(f"grid horizon {grid.horizon} does not match problem horizon {p.horizon}")
    m = p.dim_state
    bundle = make_bundle(grid, params.particles, seed)
    theory = _theory_ratio(p, params)

    # the (Y, Z) shapes; X shares Y's, and the iteration starts from the zero triple: zero tables on zero paths
    shapes = (grid.steps + 1, m, params.particles), (grid.steps, m, params.particles)
    x_cur, tables = from_component_major(np.zeros(shapes[0])), np.zeros((grid.steps + 1, 1 + m, m))
    prev = x_cur, FittedMap(x_cur, tables), FittedMap(x_cur, tables[:-1])

    history: list[IterationDiagnostics] = []
    converged = False
    accel = _Anderson(_ANDERSON_DEPTH, *shapes)

    for n in range(1, params.max_outer + 1):
        flow = joint_marginal(prev[0], prev[1])
        with blowups_diverge(f"particle system blew up at outer iteration {n}", history):
            x_cur, y_cur, z_cur, reg_diag, inner_exit, sweeps, inner_gap = _inner_solve(
                p, grid, bundle, params, flow, prev, accel
            )

        gap_xt, gap_u = _gaps(grid, (x_cur, y_cur, z_cur), prev)
        gap_total = gap_xt + gap_u
        prev_gap = history[-1].gap_total if history else math.nan
        ratio = gap_total / prev_gap if 0 < prev_gap < math.inf else math.nan
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
                inner_sweeps=sweeps,
                inner_gap=inner_gap,
                inner_exit=inner_exit,
            )
        )
        prev = x_cur, y_cur, z_cur
        if converged:
            break
        if diverging([rec.gap_total for rec in history]):
            raise Diverged(
                f"Cauchy gap {gap_total:.3g} at outer iteration {n} is not finite or more than "
                f"{_DIVERGENCE_FACTOR:g}x the gap {_DIVERGENCE_WINDOW} steps earlier",
                history,
            )

    return MfSolution(grid=grid, bundle=bundle, x_ens=x_cur, y_ens=y_cur, z_ens=z_cur, history=history,
                      converged=converged)


def residual(p: MfProblem, sol: MfSolution) -> tuple[float, float, float]:
    """A-posteriori residuals of the discretized system under the
    solution's OWN empirical flow (self-consistency of the fixed point).

    Returns (forward_residual, backward_residual, terminal_residual): the
    max over steps of the mean squared one-step defects of the forward
    and backward Euler relations, and the mean squared terminal mismatch.
    Y and Z, fitted maps or path ensembles, are read node by node.
    """
    grid, bundle = sol.grid, sol.bundle
    steps = bundle.steps
    xv, y_next = sol.x_ens.component_major, sol.y_ens.node(0)
    dt, times = grid.dt, grid.nodes

    flow = joint_marginal(sol.x_ens, sol.y_ens)
    fwd = bwd = 0.0
    for k in range(steps):
        t_k = float(times[k])
        dw = bundle.component_major[k]
        yk, y_next, zk = y_next, sol.y_ens.node(k + 1), sol.z_ens.node(k)
        fv = p.f(t_k, xv[k], yk, zk, flow[k])
        sv = p.sigma(t_k, xv[k], yk, zk, flow[k])
        fdef = xv[k + 1] - xv[k] - fv * dt - sv * dw
        fwd = max(fwd, float(np.mean(np.sum(fdef * fdef, axis=0))))
        hv = p.h(t_k, xv[k], yk, zk, flow[k])
        bdef = y_next - yk - hv * dt - zk * dw
        bwd = max(bwd, float(np.mean(np.sum(bdef * bdef, axis=0))))

    tdef = y_next - p.g(p.horizon, xv[steps], mean=flow[steps])
    term = float(np.mean(np.sum(tdef * tdef, axis=0)))
    return fwd, bwd, term


def diagnostics_to_jsonl(history, fileobj) -> None:
    """Stream one JSON record per outer iteration."""
    for rec in history:
        fileobj.write(json.dumps(rec.to_record(), sort_keys=True))
        fileobj.write("\n")
