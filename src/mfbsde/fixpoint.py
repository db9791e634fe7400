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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .backward import FittedMap, solve_backward
from .forward import propagate
from .paths import BrownianBundle, PathEnsemble, TimeGrid, from_component_major, joint_marginal, make_bundle, node_msd
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
    """Converged (or last) iterate of the scheme: X paths, the last sweep's (Y, Z) fitted maps on them and
    the :func:`~mfbsde.backward.regression_factors` of the paths that the sweep read, if given."""

    grid: TimeGrid
    bundle: BrownianBundle
    x_ens: PathEnsemble
    y_ens: FittedMap
    z_ens: FittedMap
    history: list
    converged: bool
    factors: tuple | None = field(default=None, repr=False)


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


def _slab_table(coefs, slots, weights, rows: int) -> np.ndarray:
    """sum_j w_j V_j as a (nodes, 1 + rows, d) table on the path slab's node blocks [1; slab_k], for the
    affine maps V_j with (nodes, 1 + m, d) tables ``coefs[j]`` on the distinct slab slots ``slots[j]``."""
    m = coefs[0].shape[1] - 1
    table = np.zeros((len(coefs[0]), 1 + rows, coefs[0].shape[2]))
    table[:, 0] = np.einsum("j,jkd->kd", weights, [c[:, 0] for c in coefs])
    for w, c, s in zip(weights, coefs, slots):
        np.multiply(w, c[:, 1:], out=table[:, 1 + s * m : 1 + (s + 1) * m])
    return table


class _Anderson:
    """Anderson mixing of the sweep map u -> F(u), u = (Y, Z), with memory
    ``depth`` (Walker & Ni, SIAM J. Numer. Anal. 2011).  X is not mixed.

    The sweep outputs F are the (Y, Z) fitted maps of the backward sweeps,
    each on its slot of the path slab ``slab`` (:func:`solve`); the last
    ``depth + 1`` are kept in ``window`` with their slots.  The iterate u
    and the mix are (Y, Z) tables on the slab's node blocks.  A node-major
    (nodes, depth, dy + dz, P) ring, Y rows above Z rows (the last node
    has no Z), holds the last residual differences dR, r = F(u) - u; the
    slot the next observe overwrites holds the last r itself.  gamma solves
    (dR' dR) gamma = dR' r with ``lstsq`` (minimum norm when singular), and
    the mix F_n - sum_i gamma_i (F_{i+1} - F_i) is the table of sum_j
    alpha_j F_j, alpha = diff([0, gamma, 1]); alpha = [1] on the newest
    output when there is no history or the Gram matrix, the right-hand side
    or the mixed tables are not finite.  :meth:`observe` forms each node's
    r as one product of the stacked [F - u] table with the slab's node
    block and takes its ring difference, Gram row, right-hand side and
    squares while it is in cache; the sums over particles are ``einsum``s,
    so their bits do not depend on the BLAS thread count.
    """

    def __init__(self, depth: int, slab: np.ndarray, dims: tuple[int, int]):
        nodes, slots, m, particles = slab.shape
        self.depth, self.dims = depth, dims
        self.blocks = slab.reshape(nodes, slots * m, particles)
        self.ring = np.zeros((nodes, depth, sum(dims), particles))
        self.buf = np.empty((sum(dims), particles))
        self.gram, self.rhs = np.zeros((depth, depth)), np.zeros(depth)
        self.restart()

    def restart(self) -> None:
        """Forget the history and the outputs in it (an inner solve ends)."""
        self.window, self.stored = [], -1

    def observe(self, slot: int, new, old) -> tuple[np.ndarray, np.ndarray]:
        """The sweep from the iterate ``old`` = (Y, Z), slab tables, to
        ``new`` = F(old), a (Y, Z) pair of fitted maps on slab slot ``slot``;
        returns the per-node means over particles of |r|^2, for the Y nodes
        and for the Z steps."""
        self.window = (self.window + [(slot, [f.coef for f in new])])[-(self.depth + 1) :]
        (nodes, rows, particles), dy, steps = self.blocks.shape, self.dims[0], len(new[1].coef)
        table = np.zeros((nodes, 1 + rows, sum(self.dims)))  # [F_Y - u_Y | F_Z - u_Z]
        table[:, :, :dy] = _slab_table([new[0].coef], [slot], [1.0], rows) - old[0]
        table[:steps, :, dy:] = _slab_table([new[1].coef], [slot], [1.0], rows) - old[1]
        last, self.stored = self.stored % self.depth, self.stored + 1
        hist, nxt = min(self.stored, self.depth), self.stored % self.depth
        ring, row, rhs, sq = self.ring, np.zeros(hist), np.zeros(hist), np.empty((nodes, sum(self.dims)))
        for k in range(nodes):
            r = np.matmul(table[k, 1:].T, self.blocks[k], out=self.buf)
            r += table[k, 0, :, None]
            sq[k] = np.einsum("ij,ij->i", r, r)
            if hist:
                np.subtract(r, ring[k, last], out=ring[k, last])
                row += np.einsum("hij,ij->h", ring[k, :hist], ring[k, last])
                rhs += np.einsum("hij,ij->h", ring[k, :hist], r)
            ring[k, nxt] = r
        if hist:
            self.gram[last, :hist] = self.gram[:hist, last] = row
            self.rhs[:hist] = rhs
        return sq[:, :dy].sum(axis=1) / particles, sq[:steps, dy:].sum(axis=1) / particles

    def mix(self) -> tuple[np.ndarray, np.ndarray]:
        """The next iterate (Y, Z) after the output last observed, as slab
        tables, or that output's tables when there is no history or the
        step is not finite."""
        hist = min(self.stored, self.depth)
        order = [(self.stored - hist + i) % self.depth for i in range(hist)]
        gram, rhs = self.gram[np.ix_(order, order)], self.rhs[order]
        alpha = np.ones(1)  # the newest output
        if order and np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs)):
            alpha = np.diff(np.linalg.lstsq(gram, rhs, rcond=None)[0], prepend=0.0, append=1.0)
        tables = self._combine(alpha)
        if not all(np.isfinite(t).all() for t in tables) and len(alpha) > 1:
            tables = self._combine(np.ones(1))
        return tables

    def _combine(self, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sum_j alpha_j F_j over the last len(alpha) outputs, oldest first, as (Y, Z) slab tables."""
        window = self.window[-len(alpha) :]
        slots, rows = [slot for slot, _ in window], self.blocks.shape[1]
        return tuple(_slab_table([coefs[i] for _, coefs in window], slots, alpha, rows) for i in (0, 1))


def _inner_solve(p, grid, bundle, params: SchemeParams, flow, slab, outer: int, prev, accel: _Anderson):
    """Solve the frozen-flow (standard) FBSDE by alternating sweeps.

    ``prev`` is the previous outer iterate's (Y, Z) fitted maps on slab
    slot ``outer``, its X paths: they give the damping pair and the first
    sweep's (Y, Z); later sweeps start from the Anderson mix of the swept
    pairs.  One sweep propagates X into a free slot under the current
    (Y, Z), which also gives the X part of the sweep gap, and re-regresses
    the backward pair along the new paths.  Runs at least _INNER_MIN_SWEEPS
    sweeps and stops once the sweep-to-sweep gap drops below (tol/10)^2
    (well below the outer stopping threshold), when :func:`diverging` flags
    the sweep gaps (left to the outer solve to classify) or at the sweep
    cap.  Returns the last swept slot, its X paths and (Y, Z) maps, its
    regression diagnostics, why the solve stopped ("target", "growth" or
    "cap"), its sweep count and its last sweep-to-sweep gap.
    """
    rows = slab.shape[1] * slab.shape[2]
    damping = tuple(_slab_table([f.coef], [outer], [1.0], rows) for f in prev)
    iterate, last = damping, outer
    target = (0.1 * params.tol) ** 2
    gaps = []
    for sweep in range(1, _INNER_MAX_SWEEPS + 1):
        slot = min(set(range(slab.shape[1])) - {outer, *(s for s, _ in accel.window)})
        x_new, per_x = propagate(p, grid, bundle, slab, slot, iterate, damping, flow, params.delta, last)
        y_hat, z_hat, reg_diag = solve_backward(p, grid, bundle, x_new, flow)
        gap = sum(_gap_parts(per_x, *accel.observe(slot, (y_hat, z_hat), iterate), grid.dt))
        if not math.isfinite(gap):
            raise FloatingPointError(f"inner sweep gap became non-finite at sweep {sweep}")
        gaps.append(gap)
        stop = "target" if gap < target else "growth" if diverging(gaps) else None
        if sweep == _INNER_MAX_SWEEPS or (sweep >= _INNER_MIN_SWEEPS and stop):
            break
        iterate, last = accel.mix(), slot
    accel.restart()  # the kept outputs' slots are free again; the last output lives on as the outer iterate
    return slot, x_new, y_hat, z_hat, reg_diag, stop or "cap", sweep, gap


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

    Every X path set an inner solve reads is a slot of one path slab, a
    (nodes, _ANDERSON_DEPTH + 3, m, P) array: the outer iterate's X, the
    mixer's window of up to depth + 1 outputs and the X being propagated,
    so that node k of all of them is one contiguous block.  The iterate
    starts from the zero triple and is kept as its slot's X paths and the
    last sweep's (Y, Z) fitted maps on them; the solution returns a copy of
    the last slot, made once the mixer's ring is freed, the maps' tables
    on it and the last sweep's regression factors.  Raises :class:`Diverged` when
    the gap is not finite or grows by more than 10x across 3 consecutive
    outer steps, or when the particle system blows up
    (:func:`blowups_diverge`).
    """
    if abs(grid.horizon - p.horizon) > 1e-12 * max(1.0, p.horizon):
        raise ValueError(f"grid horizon {grid.horizon} does not match problem horizon {p.horizon}")
    m = p.dim_state
    bundle = make_bundle(grid, params.particles, seed)
    theory = _theory_ratio(p, params)

    # every X path set an inner solve reads, node-major; the iteration starts from the zero triple: zero tables
    # on slot 0's zero paths
    slab = np.zeros((grid.steps + 1, _ANDERSON_DEPTH + 3, m, params.particles))
    outer, tables = 0, np.zeros((grid.steps + 1, 1 + m, m))
    x_cur = from_component_major(slab[:, outer])
    prev = x_cur, FittedMap(x_cur, tables), FittedMap(x_cur, tables[:-1])

    history: list[IterationDiagnostics] = []
    converged = False
    accel = _Anderson(_ANDERSON_DEPTH, slab, (m, m))

    for n in range(1, params.max_outer + 1):
        flow = joint_marginal(prev[0], prev[1])
        with blowups_diverge(f"particle system blew up at outer iteration {n}", history):
            slot, x_cur, y_cur, z_cur, reg_diag, inner_exit, sweeps, inner_gap = _inner_solve(
                p, grid, bundle, params, flow, slab, outer, prev[1:], accel
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
        prev, outer = (x_cur, y_cur, z_cur), slot
        if converged:
            break
        if diverging([rec.gap_total for rec in history]):
            raise Diverged(
                f"Cauchy gap {gap_total:.3g} at outer iteration {n} is not finite or more than "
                f"{_DIVERGENCE_FACTOR:g}x the gap {_DIVERGENCE_WINDOW} steps earlier",
                history,
            )

    del accel  # the ring goes before the last X paths are copied out of the slab
    x_ens = from_component_major(slab[:, outer].copy())
    return MfSolution(grid=grid, bundle=bundle, x_ens=x_ens, y_ens=FittedMap(x_ens, y_cur.coef),
                      z_ens=FittedMap(x_ens, z_cur.coef), history=history, converged=converged,
                      factors=reg_diag.factors)


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
