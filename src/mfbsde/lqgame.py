"""Linear-quadratic mean-field nonzero-sum games, open-loop framework.

The game: n-dimensional state driven by a scalar Brownian motion,

    dX_t = (A_t X_t + sum_k C^k u^k_t + D_t E[X_t] + beta_t) dt
         + (sigma_t X_t + alpha_t) dW_t,

with player i minimizing

    J_i(u) = 1/2 ( E[X_T' Q_i X_T] + E[X_T]' R_i E[X_T]
           + E int_0^T (X' M_i X + u_i' N_i u_i + E[X]' Gamma_i E[X]) dt ).

Candidate open-loop Nash controls have the closed form
u_i = -N_i^{-1} C_i' p_i with (p_i, q_i) the adjoint pair of player i.
Setting K_i = C_i N_i^{-1} C_i', the weighted sums Ytilde = sum K_i p_i
and Ztilde = sum K_i q_i solve a single aggregated mean-field BFSDE, so
synthesis runs in three stages: solve the aggregated system with the
frozen-measure scheme, reconstruct per-player adjoints by regression
backward solves along the solved state, and read off the controls.

The module also provides the solvability gate (the aggregated system's
gate, :func:`~mfbsde.problem.check_H1`, plus the commutation of each K_i
with the dynamics), Monte Carlo cost evaluation, a statistical
unilateral-deviation check of the Nash property, and the deterministic
mean reduction whose boundary matrix B(T) detects nonexistence: taking
expectations turns the adjoint system into a linear two-point boundary
problem for the means, and a singular B(T) means no solution for that
horizon (the built-in two-player counterexample has det B(T) =
(1 - T)(1 + 3T), singular exactly at T = 1).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import fixpoint
from .backward import FittedMap, solve_backward
from .paths import BrownianBundle, PathEnsemble, TimeGrid, all_finite, from_component_major, joint_marginal, node_msd
from .problem import (
    AffineCoeffs,
    H1Report,
    MfProblem,
    PiecewiseConstant,
    check_config_keys,
    check_H1,
    coerce,
    map_path,
    matmul,
    require_json,
    require_keys,
    require_numbers,
    sample_times,
    shaped_path,
)

__all__ = [
    "GameSpec",
    "H2Report",
    "NashResult",
    "DeviationReport",
    "MeanSolution",
    "Nonexistence",
    "check_H2",
    "build_aggregated",
    "solve_nash",
    "cost",
    "deviation_test",
    "solve_mean_fbode",
    "simulate_state",
    "game_from_config",
    "example3_game",
]

_SYMMETRY_TOL = 1e-12
_COMMUTATION_TOL = 1e-10
_SINGULARITY_RTOL = 1e-9
# cap on the passes of one player's adjoint iteration
_ADJOINT_MAX_PASSES = 50
# contiguous particle blocks behind a cost's batch-means standard error
_COST_BATCHES = 20


def _check_player(gs: GameSpec, i: int) -> None:
    if not 0 <= i < gs.players:
        raise ValueError(f"player index {i} is out of range for a game of {gs.players} players")


def _check_symmetric(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.T, atol=_SYMMETRY_TOL, rtol=0.0):
        raise ValueError(f"{name} must be symmetric (tolerance {_SYMMETRY_TOL:g})")


@dataclass
class GameSpec:
    """Coefficients of one LQ mean-field game.

    Dynamics paths (A, D, sigma: t -> n x n; beta, alpha: t -> n) are
    constants or piecewise tables, stored as :class:`PiecewiseConstant`
    tables; a callable is rejected.  Per-player data: C_i (n x m_i) and
    N_i (m_i x m_i symmetric positive definite) must be constant; M_i and
    Gamma_i are symmetric nonnegative paths (constants or tables); Q_i and
    R_i constant symmetric nonnegative matrices.
    """

    n: int
    horizon: float
    x0: np.ndarray
    A: object
    C: Sequence[np.ndarray]
    N: Sequence[np.ndarray]
    Q: Sequence[np.ndarray]
    D: object = 0.0
    beta: object = 0.0
    sigma: object = 0.0
    alpha: object = 0.0
    M: Sequence = ()
    Gamma: Sequence = ()
    R: Sequence = ()

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise ValueError("state dimension n must be positive")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        self.x0 = coerce(self.x0, (n,), "x0")

        self.A = shaped_path(self.A, (n, n), "A")
        self.D = shaped_path(self.D, (n, n), "D")
        self.sigma = shaped_path(self.sigma, (n, n), "sigma")
        self.beta = shaped_path(self.beta, (n,), "beta")
        self.alpha = shaped_path(self.alpha, (n,), "alpha")

        players = len(self.C)
        if players < 1:
            raise ValueError("at least one player (one C matrix) is required")
        if len(self.N) != players:
            raise ValueError("need one N matrix per player")
        C_list, N_list = [], []
        for i, (c, nn) in enumerate(zip(self.C, self.N)):
            c = np.asarray(c, dtype=float)
            if c.ndim == 0:
                c = c.reshape(1, 1)
            elif c.ndim == 1:
                c = c.reshape(n, 1)
            if c.shape[0] != n:
                raise ValueError(f"C[{i}] must have {n} rows, got shape {c.shape}")
            c = coerce(c, c.shape, f"C[{i}]")
            m_i = c.shape[1]
            nn = coerce(nn, (m_i, m_i), f"N[{i}]")
            _check_symmetric(nn, f"N[{i}]")
            try:
                np.linalg.cholesky(nn)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"N[{i}] must be positive definite") from exc
            C_list.append(c)
            N_list.append(nn)
        self.C, self.N = C_list, N_list

        def one_each(values, what):
            vals = list(values) if len(values) else [np.zeros((n, n))] * players
            if len(vals) != players:
                raise ValueError(f"need one {what} per player")
            return enumerate(vals)

        def symmetric_matrices(values, name):
            out = []
            for i, v in one_each(values, f"{name} matrix"):
                out.append(coerce(v, (n, n), f"{name}[{i}]"))
                _check_symmetric(out[-1], f"{name}[{i}]")
            return out

        def symmetric_paths(values, name):
            out = []
            for i, v in one_each(values, f"{name} path"):
                out.append(shaped_path(v, (n, n), f"{name}[{i}]"))
                for t in sample_times(self.horizon, out[-1:]):
                    _check_symmetric(out[-1](t), f"{name}[{i}](t={t:g})")
            return out

        self.Q, self.R = symmetric_matrices(self.Q, "Q"), symmetric_matrices(self.R, "R")
        self.M, self.Gamma = symmetric_paths(self.M, "M"), symmetric_paths(self.Gamma, "Gamma")

    @property
    def players(self) -> int:
        return len(self.C)

    @property
    def control_dims(self) -> list[int]:
        return [c.shape[1] for c in self.C]

    def control_gains(self) -> list[np.ndarray]:
        """N_i^{-1} C_i' per player (the feedback gain from the adjoint)."""
        return [np.linalg.solve(nn, c.T) for c, nn in zip(self.C, self.N)]

    def k_matrices(self) -> list[np.ndarray]:
        """K_i = C_i N_i^{-1} C_i', symmetric positive semidefinite; one that overflows raises
        FloatingPointError naming it."""
        out = []
        for i, (c, nn) in enumerate(zip(self.C, self.N)):
            with np.errstate(over="ignore", invalid="ignore"):
                k = c @ np.linalg.solve(nn, c.T)
                out.append((k + k.T) / 2.0)
            if not np.isfinite(out[-1]).all():
                raise FloatingPointError(f"K_{i} = C_{i} N_{i}^-1 C_{i}' overflows")
        return out


# ---------------------------------------------------------------------------
# solvability gate
# ---------------------------------------------------------------------------


@dataclass
class H2Report:
    """The game's gate: the gate of its aggregated problem (``aggregated``,
    :func:`~mfbsde.problem.check_H1` of :func:`build_aggregated`) and the
    largest residual ||K_i M - M K_i|| over M in (A, D, sigma), which must
    vanish for the players' adjoints to aggregate."""

    aggregated: H1Report
    commutation_residual: float
    commutation_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return {**self.aggregated.to_dict(), "commutation_residual": self.commutation_residual,
                "commutation_ok": self.commutation_ok, "pass": self.passed}


def _gate_times(gs: GameSpec) -> np.ndarray:
    """Where the commutation test and build_aggregated's overflow guard evaluate the
    coefficients: t = 0 and every breakpoint of A, D, sigma, the M_i and the Gamma_i in [0, T]."""
    return sample_times(gs.horizon, [gs.A, gs.D, gs.sigma, *gs.M, *gs.Gamma])


def _spectral(mat: np.ndarray) -> float:
    """Spectral norm of a matrix, or the largest over a stack of them."""
    return float(np.linalg.norm(mat, 2, axis=(-2, -1)).max())


def check_H2(gs: GameSpec, grid: TimeGrid | None = None) -> H2Report:
    """The aggregated problem's gate, ``check_H1(build_aggregated(gs))``,
    and the commutation of every K_i with A, D and sigma at
    :func:`_gate_times`; the game passes when both do.  A coefficient
    that overflows raises FloatingPointError, as in :func:`build_aggregated`
    and :func:`~mfbsde.problem.check_H1`.  ``grid`` is not read (the gate
    reads every table once per piece); it stays for existing callers."""
    aggregated = check_H1(build_aggregated(gs))
    times = _gate_times(gs)
    mats = np.stack([path(t) for path in (gs.A, gs.D, gs.sigma) for t in times])
    commut = max(_spectral(k @ mats - mats @ k) for k in gs.k_matrices())
    commutation_ok = commut < _COMMUTATION_TOL
    return H2Report(aggregated, commut, commutation_ok, aggregated.passed and commutation_ok)


# ---------------------------------------------------------------------------
# aggregated system
# ---------------------------------------------------------------------------


def build_aggregated(gs: GameSpec) -> MfProblem:
    """Aggregated mean-field BFSDE in (X, sum K_i p_i, sum K_i q_i).

    Coefficients:

        f(t, x, y, z, mean)   = A_t x - y + D_t E[X] + beta_t
        sigma(t, x, y, z)     = sigma_t x + alpha_t              (law-free)
        h(t, x, y, z, mean)   = -A_t' y - (sum K_i M_i) x - (sum K_i Gamma_i) E[X]
                                - D_t' E[Y] - sigma_t' z
        g(x, mean)            = (sum K_i Q_i) x + (sum K_i R_i) E[X_T]

    (h and g are the K-weighted sums of the players' adjoint tables).  The
    problem declares no constants: :func:`~mfbsde.problem.check_H1` computes
    them.  A coefficient whose sup norm over :func:`_gate_times` overflows
    raises FloatingPointError naming it.
    """
    K = gs.k_matrices()
    skq = sum(k @ q for k, q in zip(K, gs.Q))
    skr = sum(k @ r for k, r in zip(K, gs.R))
    skm, skg = (map_path(lambda *ps: sum(k @ p for k, p in zip(K, ps)), *paths) for paths in (gs.M, gs.Gamma))
    times = _gate_times(gs)
    a, d, s, m, g = (np.stack([path(t) for t in times]) for path in (gs.A, gs.D, gs.sigma, skm, skg))
    coupling = np.block([[d, np.zeros_like(d)], [g, np.swapaxes(d, -1, -2)]])
    names = ("A", "sum K_i M_i", "sigma", "[[D, 0], [sum K_i Gamma_i, D']]", "sum K_i Q_i", "sum K_i R_i")
    for name, mat in zip(names, (a, m, s, coupling, skq, skr)):
        if not math.isfinite(_spectral(mat)):
            raise FloatingPointError(f"the sup norm of {name} over [0, {gs.horizon:g}] overflows")

    f, sigma = _dynamics(gs, y=-np.eye(gs.n))
    h, g = _adjoint_tables(gs, skm, skg, skq, skr)
    return MfProblem(gs.x0, gs.horizon, f, h, sigma, g)


def _adjoint_tables(gs: GameSpec, m, gamma, q, r) -> tuple[AffineCoeffs, AffineCoeffs]:
    """The adjoint equation's driver and terminal map for the cost weights
    (M, Gamma, Q, R), on the means (E[X], E[p]) of the joint (X, p) law:

        h(t, x, y, z, mean) = -A_t' y - M_t x - Gamma_t E[X] - D_t' E[p] - sigma_t' z
        g(x, mean)          = Q x + R E[X_T]
    """
    h = AffineCoeffs(gs.n, "h", x=map_path(np.negative, m), y=_neg_t(gs.A), z=_neg_t(gs.sigma),
                     mean_x=map_path(np.negative, gamma), mean_y=_neg_t(gs.D))
    return h, AffineCoeffs(gs.n, "g", x=q, mean_x=r)


def _neg_t(path):
    """The path t -> -M(t)', kept as a transposed view so products see M's memory layout (same rounding)."""
    return map_path(lambda a: -np.swapaxes(a, -1, -2), path)


def _dynamics(gs: GameSpec, **terms) -> tuple[AffineCoeffs, AffineCoeffs]:
    """Affine tables of the state drift A x + D E[X] + beta (plus ``terms``) and diffusion sigma x + alpha."""
    drift = AffineCoeffs(gs.n, "f", x=gs.A, mean_x=gs.D, const=gs.beta, **terms)
    return drift, AffineCoeffs(gs.n, "sigma", x=gs.sigma, const=gs.alpha)


# ---------------------------------------------------------------------------
# state simulation under explicit controls
# ---------------------------------------------------------------------------


def _check_control(gs: GameSpec, i: int, controls, grid: TimeGrid, particles: int) -> None:
    """``controls`` must hold one control per player, and player i's must be a PathEnsemble or a FittedMap
    with (nodes, dim, particles) = (steps + 1, m_i, particles)."""
    if len(controls) != gs.players:
        raise ValueError(f"need one control per player, got {len(controls)}")
    u, want = controls[i], (grid.steps + 1, gs.control_dims[i], particles)
    got = (u.nodes, u.dim, u.particles) if isinstance(u, (PathEnsemble, FittedMap)) else type(u).__name__
    if got != want:
        raise ValueError(f"control of player {i} must be a PathEnsemble or a FittedMap with "
                         f"(nodes, dim, particles) = {want}, got {got}")


def simulate_state(gs: GameSpec, grid: TimeGrid, bundle: BrownianBundle, controls) -> PathEnsemble:
    """Euler simulation of the controlled state with plug-in ensemble mean.

    ``controls`` holds one control per player, a PathEnsemble or a
    FittedMap of its values on the grid nodes, read node by node, with
    (nodes, dim, particles) = (steps + 1, m_i, particles).  Anything else
    raises ValueError naming the player.
    """
    if bundle.steps != grid.steps:
        raise ValueError("bundle and grid step counts differ")
    for i in range(gs.players):
        _check_control(gs, i, controls, grid, bundle.particles)
    f, sigma = _dynamics(gs)
    x = np.empty((grid.steps + 1, gs.n, bundle.particles))
    x[0] = gs.x0[:, None]
    times = grid.nodes
    for k in range(grid.steps):
        t_k = float(times[k])
        drift = f(t_k, x[k], mean=x[k].mean(axis=-1))
        for c, u in zip(gs.C, controls):
            drift += matmul(c, u.node(k))
        # (x + drift dt) + sigma dW, built in place
        nxt = np.multiply(drift, grid.dt, out=x[k + 1])
        nxt += x[k]
        nxt += sigma(t_k, x[k]) * bundle.component_major[k]
        if not all_finite(nxt):
            raise FloatingPointError(f"state simulation produced non-finite values at step {k}")
    return from_component_major(x)


# ---------------------------------------------------------------------------
# cost functional
# ---------------------------------------------------------------------------


def _batch_stderr(batch_vals: np.ndarray) -> float:
    """Batch-means standard error of the mean of ``batch_vals``."""
    return float(np.std(batch_vals, ddof=1) / math.sqrt(len(batch_vals))) if len(batch_vals) > 1 else 0.0


def _cost_with_batches(gs: GameSpec, i: int, slots, grid: TimeGrid) -> np.ndarray:
    """The bilinear form B of player i's cost on slots z_0, ..., z_q, whole sample first and then per particle block.

    A slot z = (X, u) is a state and a control of player i, and

        B(z, z') = 1/2 ( E[X_T' Q_i X'_T] + E[X_T]' R_i E[X'_T]
                 + E int_0^T (X' M_i X' + u' N_i u' + E[X]' Gamma_i E[X']) dt ),

    so J_i(z) = B(z, z): the one place the cost is written down.  ``slots``
    yields per grid node the slots' states (1 + q, n, particles) and
    controls (1 + q, m_i, particles), each pair read before the next is
    asked for (and none after the last node), so a generator may step them
    in place.  The integral is trapezoidal, and every expectation is the
    plug-in mean of one sample: the whole ensemble, then each of the
    min(_COST_BATCHES, particles) contiguous particle blocks.  Returns the
    (1 + batches, 1 + q, 1 + q) stack of these Gram matrices."""
    w = np.full(grid.steps + 1, grid.dt)
    w[[0, -1]] *= 0.5

    def means(v):
        """Means of v over its particle (last) axis, moved first: the whole sample, then each block."""
        bounds = np.linspace(0, v.shape[-1], min(_COST_BATCHES, v.shape[-1]) + 1).astype(int)
        blocks = np.add.reduceat(v, bounds[:-1], axis=-1) / np.diff(bounds)
        return np.concatenate([v.mean(axis=-1)[None], np.moveaxis(blocks, -1, 0)])

    def gram(v, weight):
        """(1 + q, 1 + q, particles) per-particle products v_a' weight v_b."""
        wv = matmul(weight, v)
        out = v[:, None, 0] * wv[None, :, 0]
        for c in range(1, v.shape[1]):
            out += v[:, None, c] * wv[None, :, c]
        return out

    def mean_gram(v, weight):
        mv = means(v)
        return mv @ weight @ np.swapaxes(mv, -1, -2)

    per_particle = mean_terms = 0.0
    for k, (t, (x, u)) in enumerate(zip(grid.nodes, slots)):
        running = gram(u, gs.N[i])
        m_k, gamma_k = gs.M[i](t), gs.Gamma[i](t)
        if np.any(m_k):
            running += gram(x, m_k)
        running *= w[k]
        per_particle += running
        if np.any(gamma_k):
            mean_terms += w[k] * mean_gram(x, gamma_k)
    # x is the last node's: the terminal terms
    per_particle += gram(x, gs.Q[i])
    mean_terms += mean_gram(x, gs.R[i])
    return 0.5 * (means(per_particle) + mean_terms)


def cost(gs: GameSpec, i: int, x_ens: PathEnsemble, controls, grid: TimeGrid) -> tuple[float, float]:
    """Monte Carlo estimate of J_i, B(z, z) of :func:`_cost_with_batches` on
    the one slot z = (X, u_i), with its batch-means standard error.

    ``x_ens`` is the state (n components on the grid nodes) and
    ``controls`` holds one control per player; player i's, a PathEnsemble
    or a FittedMap read node by node, must have the shape
    :func:`simulate_state` asks for, on the state's particles.
    Either of another shape, another number of controls, or a player
    index outside [0, players), raises ValueError.
    """
    _check_player(gs, i)
    x_cm = x_ens.component_major
    if x_cm.shape[:2] != (grid.steps + 1, gs.n):
        raise ValueError(f"state must have {grid.steps + 1} nodes of {gs.n} components, got {x_cm.shape[:2]}")
    _check_control(gs, i, controls, grid, x_ens.particles)
    b = _cost_with_batches(gs, i, ((x[None], u[None]) for x, u in zip(x_cm, controls[i])), grid)[:, 0, 0]
    return float(b[0]), _batch_stderr(b[1:])


# ---------------------------------------------------------------------------
# Nash synthesis
# ---------------------------------------------------------------------------


@dataclass
class NashResult:
    """Synthesized equilibrium candidate with Monte Carlo costs; converged
    means the aggregated solve converged and every player's adjoint gap
    trace ends below tol^2.  The controls and adjoints are fitted maps on
    the solved state's paths."""

    aggregated: fixpoint.MfSolution
    converged: bool
    controls: list
    adjoints_p: list
    adjoints_q: list
    costs: list
    cost_stderrs: list
    aggregation_residual_y: float
    aggregation_residual_z: float
    adjoint_gaps: list

    @property
    def x_ens(self) -> PathEnsemble:
        return self.aggregated.x_ens

    @property
    def adjoint_iterations(self) -> list:
        return [len(gaps) for gaps in self.adjoint_gaps]

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "costs": [
                {"player": i, "J": c, "stderr": s}
                for i, (c, s) in enumerate(zip(self.costs, self.cost_stderrs))
            ],
            "aggregation_residual_y": self.aggregation_residual_y,
            "aggregation_residual_z": self.aggregation_residual_z,
            "adjoint_iterations": self.adjoint_iterations,
            "adjoint_gaps": self.adjoint_gaps,
        }


def _adjoint_problem(gs: GameSpec, i: int) -> MfProblem:
    """Player i's adjoint backward equation (:func:`_adjoint_tables` with
    (M_i, Gamma_i, Q_i, R_i)) packaged for the regression solver; its
    mean argument is a row (E[X], E[p_i]) of the frozen (X, p_i) flow table."""
    h, g = _adjoint_tables(gs, gs.M[i], gs.Gamma[i], gs.Q[i], gs.R[i])
    return MfProblem(gs.x0, gs.horizon, f=AffineCoeffs(gs.n), h=h, sigma=AffineCoeffs(gs.n), g=g)


def _solve_adjoint(gs, i, sol, params, factors) -> tuple[FittedMap, FittedMap, list]:
    """Iterate the adjoint mean-field BSDE, regressing on the solved
    state's shared ``factors``, to a fixed point of its own mean coupling
    (frozen (X, p_i) flow, refrozen each pass) until a gap is below tol^2,
    for at most _ADJOINT_MAX_PASSES passes; p_i stays a fitted map (zero at
    first) that the flow and the gap read node by node.  Returns the last
    pass's (p_i, q_i) maps and the gap of every pass; the iteration count
    is its length.  A pass that blows up, and gaps that :func:`fixpoint.diverging`
    flags, raise :class:`fixpoint.Diverged` with the aggregated solve's history."""
    prob = _adjoint_problem(gs, i)
    grid, bundle, x_ens = sol.grid, sol.bundle, sol.x_ens
    p_map = FittedMap(x_ens, np.zeros((grid.steps + 1, 1 + gs.n, gs.n)))
    gaps = []
    for n in range(1, _ADJOINT_MAX_PASSES + 1):
        with fixpoint.blowups_diverge(f"adjoint of player {i} blew up at pass {n}", sol.history):
            flow = joint_marginal(x_ens, p_map)
            p_new, q_map, _ = solve_backward(prob, grid, bundle, x_ens, flow, factors=factors)
            gap = float(np.trapezoid(node_msd(p_new, p_map), dx=grid.dt))
        gaps.append(gap)
        p_map = p_new
        if gap < params.tol**2:
            break
        if fixpoint.diverging(gaps):
            raise fixpoint.Diverged(f"adjoint reconstruction diverged for player {i}", sol.history)
    return p_map, q_map, gaps


def solve_nash(
    gs: GameSpec,
    grid: TimeGrid,
    params: fixpoint.SchemeParams,
    seed: int = 0,
    threads: int = 1,
) -> NashResult:
    """Synthesize the open-loop Nash candidate.

    Solves the aggregated system with the frozen-measure scheme
    (counterexample instances run and are caught by divergence
    detection), reconstructs each player's adjoint pair by
    regression backward solves along the solved state, and applies the
    closed-form control map u_i = -N_i^{-1} C_i' p_i to each p_i table.
    The identity sum K_i p_i = Ytilde (and its q/Ztilde analogue) is
    recorded as an aggregation residual, read node by node.  The solver
    starts no threads of its own; BLAS may use more, but the output bits
    do not depend on how many (the iteration's particle sums are numpy's
    own, not BLAS dots).  ``threads`` is kept for existing callers and
    must be 1.
    """
    if threads != 1:
        raise ValueError(f"solve_nash runs on one thread; threads must be 1, got {threads!r}")
    agg = build_aggregated(gs)
    sol = fixpoint.solve(agg, grid, params, seed)

    players = gs.players
    results = [_solve_adjoint(gs, i, sol, params, sol.factors) for i in range(players)]
    p_list, q_list, adjoint_gaps = map(list, zip(*results))

    x, K = sol.x_ens, gs.k_matrices()  # each K_i is symmetric, so K_i p_i has the table p_i K_i
    controls = [FittedMap(x, p.coef @ -gain.T) for p, gain in zip(p_list, gs.control_gains())]
    res_y = node_msd(FittedMap(x, sum(p.coef @ k for p, k in zip(p_list, K))), sol.y_ens)
    res_z = node_msd(FittedMap(x, sum(q.coef @ k for q, k in zip(q_list, K))), sol.z_ens)

    costs, stderrs = map(list, zip(*(cost(gs, i, sol.x_ens, controls, grid) for i in range(players))))

    return NashResult(
        aggregated=sol,
        converged=sol.converged and all(gaps[-1] < params.tol**2 for gaps in adjoint_gaps),
        controls=controls,
        adjoints_p=p_list,
        adjoints_q=q_list,
        costs=costs,
        cost_stderrs=stderrs,
        aggregation_residual_y=float(np.max(res_y)),
        aggregation_residual_z=float(np.max(res_z)),
        adjoint_gaps=adjoint_gaps,
    )


# ---------------------------------------------------------------------------
# deviation testing
# ---------------------------------------------------------------------------


@dataclass
class DeviationReport:
    """Outcome of randomized unilateral-deviation probing of player i."""

    player: int
    perturbations: int
    magnitude: float
    baseline_cost: float
    deltas: list
    stderrs: list
    min_delta: float
    min_stderr: float
    passed: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def _probe_slots(gs: GameSpec, i: int, grid: TimeGrid, bundle: BrownianBundle, x_base: np.ndarray, u_base):
    """Node by node, the slots (z*, zeta_1, ..., zeta_q) that :func:`_cost_with_batches` prices a probe on.

    z* = (X*, u_i*) is the candidate's state and control ``u_base``, read node by node, and zeta_l =
    (xi_l, phi_l) the linear response to one of the q = m_i (1 + n) probe
    directions: phi = e_r for the a part and e_r X*_c for the b part, so
    that direction m_i + r n + c is b's entry (r, c).  The responses solve
    the state's Euler scheme, on the candidate's Brownian bundle, with
    beta, alpha and the other players' controls dropped,

        xi_0 = 0,  xi_{k+1} = xi_k + (A_k xi_k + D_k E[xi_k] + C_i phi_k) dt + sigma_k xi_k dW_k,

    stepped together in place after each node is yielded: nothing of theirs is kept past its node."""
    n, m_i, particles = gs.n, gs.control_dims[i], x_base.shape[-1]
    s = np.zeros((1 + m_i * (1 + n), n, particles))
    phi = np.zeros((len(s), m_i, particles))
    phi[1 + np.arange(m_i), np.arange(m_i)] = 1.0
    xi = s[1:]
    for k, t in enumerate(grid.nodes):
        s[0] = x_base[k]
        u_base.node(k, out=phi[0])
        for r in range(m_i):
            phi[1 + m_i + r * n : 1 + m_i + (r + 1) * n, r] = x_base[k]
        yield s, phi
        if k < grid.steps:
            drift = matmul(gs.A(t), xi) + (xi.mean(axis=-1) @ gs.D(t).T)[..., None] + matmul(gs.C[i], phi[1:])
            xi += drift * grid.dt + matmul(gs.sigma(t), xi) * bundle.component_major[k]


def deviation_test(
    gs: GameSpec,
    nash: NashResult,
    i: int,
    perturbations: int = 20,
    magnitude: float = 0.1,
    seed: int = 0,
) -> DeviationReport:
    """Probe the Nash inequality J_i(u*) <= J_i(u* deviated in slot i).

    Each probe is an open-loop control u_i* + magnitude * (a + b X*), with
    X* the state under the candidate controls u*: a random vector a for an
    even probe, and a random vector a and matrix b for an odd one.  The
    state is affine in the controls and the cost quadratic, and a probe
    does not read the deviated state, so its cost change is exactly
    eps c'g + eps^2 c'Hc in c = (a, vec b) and eps = ``magnitude``.  One
    simulation of X* and one pass of :func:`_cost_with_batches` over z* and
    the linear responses zeta to the q = m_i (1 + n) basis directions on
    the SAME Brownian bundle (:func:`_probe_slots`) give the baseline
    J_i(u*) = B(z*, z*), g = 2 B(z*, zeta) and H = B(zeta, zeta), so a
    call grows with the probes only by O(q^2) arithmetic per probe.
    Differences are paired, per particle block as well.  The test passes when the most
    favorable probe does not beat the candidate by more than 3 standard
    errors of the paired difference.  Full open-loop function-space
    deviations are not verifiable numerically; this finite family is a
    documented limitation.  A player index outside [0, players) raises
    ValueError, and a candidate state, baseline or probe whose pricing
    overflows raises FloatingPointError.
    """
    _check_player(gs, i)
    if perturbations < 1:
        raise ValueError(f"perturbations must be >= 1, got {perturbations}")
    if not math.isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude}")
    grid, bundle = nash.aggregated.grid, nash.aggregated.bundle
    m_i = gs.control_dims[i]
    rng = np.random.default_rng(seed)

    deltas, stderrs = [], []
    # an overflowing state, response or deviation raises here instead of warning first
    with np.errstate(over="raise", invalid="raise"):
        x_base = simulate_state(gs, grid, bundle, nash.controls).component_major
        slots = _probe_slots(gs, i, grid, bundle, x_base, nash.controls[i])
        gram = _cost_with_batches(gs, i, slots, grid)
        g, h = 2.0 * gram[:, 0, 1:], gram[:, 1:, 1:]
        for j in range(perturbations):
            a = rng.standard_normal(m_i)
            b = rng.standard_normal((m_i, gs.n)) / math.sqrt(gs.n) if j % 2 else np.zeros((m_i, gs.n))
            c = np.concatenate([a, b.ravel()])
            delta = magnitude * (g @ c + magnitude * (h @ c @ c))
            deltas.append(float(delta[0]) + 0.0)  # a zero magnitude's -0.0 reads 0.0, as J - J did
            stderrs.append(_batch_stderr(delta[1:]))

    idx = int(np.argmin(deltas))
    return DeviationReport(
        player=i,
        perturbations=perturbations,
        magnitude=magnitude,
        baseline_cost=float(gram[0, 0, 0]),
        deltas=deltas,
        stderrs=stderrs,
        min_delta=deltas[idx],
        min_stderr=stderrs[idx],
        passed=bool(deltas[idx] >= -3.0 * stderrs[idx]),
    )


# ---------------------------------------------------------------------------
# deterministic mean reduction
# ---------------------------------------------------------------------------


@dataclass
class MeanSolution:
    """Mean trajectories of the adjoint system for a solvable horizon."""

    times: np.ndarray
    state_mean: np.ndarray  # (len, n)
    adjoint_means: np.ndarray  # (players, len, n)
    control_means: list  # per player (len, m_i)
    terminal_state_mean: np.ndarray
    det: float
    cond: float

    def to_dict(self) -> dict:
        return {
            "exists": True,
            "det": self.det,
            "cond": self.cond,
            "terminal_state_mean": [float(v) for v in self.terminal_state_mean],
            "initial_controls": [[float(v) for v in u[0]] for u in self.control_means],
        }


@dataclass
class Nonexistence:
    """Singular boundary matrix: no solution of the mean system."""

    det: float
    cond: float
    horizon: float

    def to_dict(self) -> dict:
        return {"exists": False, "det": self.det, "cond": self.cond, "horizon": self.horizon}


def _mean_generator(gs: GameSpec):
    """The path t -> [[G(t), b(t)], [0, 0]] of the mean ODE in (state mean,
    adjoint means, 1): state rows (A + D, -K_1, ..., -K_m | beta), player
    i's rows -(M_i + Gamma_i) in the state columns and -(A + D)' in its own."""
    n, players = gs.n, gs.players
    K = gs.k_matrices()
    size = (players + 1) * n + 1

    def augmented(a, d, beta, *costs):
        ad = a + d
        out = np.zeros(ad.shape[:-2] + (size, size))
        out[..., :n, :n] = ad
        out[..., :n, -1] = beta
        for i in range(players):
            sl = slice((i + 1) * n, (i + 2) * n)
            out[..., :n, sl] = -K[i]
            out[..., sl, :n] = -(costs[i] + costs[players + i])
            out[..., sl, sl] = -np.swapaxes(ad, -1, -2)
        return out

    return map_path(augmented, gs.A, gs.D, gs.beta, *gs.M, *gs.Gamma)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential; scipy.linalg loads on the first call, as only the mean reduction needs it."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


def _backward_transition(gen: PiecewiseConstant, t_hi: float, t_lo: float, cache: dict) -> np.ndarray:
    """Transition matrix of the augmented mean ODE from t_hi down to t_lo:
    the product of the exact matrix exponentials of the piecewise-constant
    generator's pieces.  ``cache`` keeps the piece exponentials of one mean
    solve, keyed by (piece, exact step length).
    """
    phi = np.eye(len(gen(t_hi)))
    if t_hi <= t_lo:
        return phi
    bp = gen.breakpoints
    cuts = np.unique(np.concatenate([[t_lo, t_hi], bp[(bp > t_lo) & (bp < t_hi)]]))
    # left-to-right product: factor j maps across the j-th lowest piece
    for a, c in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + c)
        key = (gen.piece(mid), float(c - a))
        if key not in cache:
            cache[key] = expm(-gen(mid) * (c - a))
        phi = phi @ cache[key]
    return phi


@np.errstate(over="ignore", invalid="ignore")
def solve_mean_fbode(gs: GameSpec, times: np.ndarray | None = None):
    """Deterministic mean reduction of the adjoint system.

    Taking expectations of the adjoint system turns it into a linear
    two-point boundary problem for (E[X_t], E[p_i_t]); this requires
    deterministic coefficients and a vanishing state-multiplicative
    diffusion (otherwise E[sigma' q] is not a function of the means).
    The affine map from the terminal state mean s to the implied initial
    state mean is assembled by integrating the ODE backward; its linear
    part is the boundary matrix B(T).  Returns the mean trajectories, or
    :class:`Nonexistence` when |det B(T)| < 1e-9 * (product of row norms)
    on B(T) with each row divided by its largest entry (so at any scale);
    raises FloatingPointError when B(T) or a mean trajectory is not finite.
    """
    if _spectral(np.stack([gs.sigma(t) for t in sample_times(gs.horizon, [gs.sigma])])) > 1e-14:
        raise ValueError(
            "mean reduction requires a vanishing state-multiplicative diffusion "
            "(sigma = 0); the additive alpha term is fine"
        )
    n, players = gs.n, gs.players
    dim = (players + 1) * n
    gen = _mean_generator(gs)
    T = gs.horizon

    cache: dict = {}
    transition = _backward_transition(gen, T, 0.0, cache)
    stack = np.zeros((dim, n))
    stack[:n, :] = np.eye(n)
    for i in range(players):
        stack[(i + 1) * n : (i + 2) * n, :] = gs.Q[i] + gs.R[i]
    boundary = transition[:n, :dim] @ stack
    offset = transition[:n, dim]
    if not np.all(np.isfinite(boundary)):
        raise FloatingPointError(f"the boundary matrix B({T:g}) is not finite")

    det = float(np.linalg.det(boundary))
    cond = float(np.linalg.cond(boundary))
    unit = boundary / np.abs(boundary).max(axis=1, keepdims=True)  # a zero row is NaN and fails the test
    if not abs(np.linalg.det(unit)) >= _SINGULARITY_RTOL * np.prod(np.linalg.norm(unit, axis=1)):
        return Nonexistence(det=det, cond=cond, horizon=T)

    s = np.linalg.solve(boundary, gs.x0 - offset)

    if times is None:
        times = np.linspace(0.0, T, 201)
    times = np.asarray(times, dtype=float)
    unusable = times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times))
    if unusable or times.min() < 0 or times.max() > T + 1e-12:
        raise ValueError(f"output times must lie in [0, {T}]")
    order = np.argsort(times)[::-1]
    values = np.empty((times.size, dim))
    v = np.concatenate([stack @ s, [1.0]])
    t_prev = T
    for idx in order:
        t = float(times[idx])
        v = _backward_transition(gen, t_prev, t, cache) @ v
        values[idx] = v[:dim]
        t_prev = t
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(f"the mean trajectory over [0, {T:g}] is not finite")

    state_mean = values[:, :n]
    adjoint_means = np.stack(
        [values[:, (i + 1) * n : (i + 2) * n] for i in range(players)], axis=0
    )
    gains = gs.control_gains()
    control_means = [-(adjoint_means[i] @ gains[i].T) for i in range(players)]
    return MeanSolution(
        times=times,
        state_mean=state_mean,
        adjoint_means=adjoint_means,
        control_means=control_means,
        terminal_state_mean=s,
        det=det,
        cond=cond,
    )


# ---------------------------------------------------------------------------
# configs and the built-in counterexample
# ---------------------------------------------------------------------------


def game_from_config(cfg: dict) -> GameSpec:
    """Build a GameSpec from a config dict (JSON schema).

    Schema: ``{"kind": "game", "n":, "m":, "T":, "x0": [...],
    "A"|"D"|"beta"|"sigma"|"alpha": coeff, "C": [...], "N": [...],
    "M": [...], "Gamma": [...], "Q": [...], "R": [...]}`` where dynamics
    coefficients are constants, ``{"const": ...}`` or piecewise tables
    (``{"piecewise": [{"t_from":, "value":}, ...]}`` with finite, distinct
    ``t_from``), and the per-player lists hold one entry per player (M and
    Gamma entries may be piecewise; C, N, Q, R are constant matrices).
    Omitted blocks (A, D, beta, sigma, alpha, M, Gamma, Q, R) default to
    zero.  Coefficients are deterministic and piecewise constant, and every
    number (T, x0, coefficient values, t_from) must be a JSON number.
    """
    if cfg.get("kind", "game") != "game":
        raise ValueError(f"expected a game config, got kind={cfg.get('kind')!r}")
    check_config_keys(cfg, "game")
    require_keys(cfg, "game config", ("n", "m", "T", "x0", "C", "N"))
    for key in ("C", "N", "M", "Gamma", "Q", "R"):
        require_json(cfg.get(key, []), list, key)
    for key, value in cfg.items():
        if key not in ("kind", "n", "m"):
            require_numbers(value, key)
    if len(cfg["C"]) != int(cfg["m"]):
        raise ValueError(f"C must list one entry per player ({int(cfg['m'])})")
    # GameSpec checks the shapes, the per-player lengths and the values, and zero-fills the omitted blocks
    optional = {key: cfg[key] for key in ("D", "beta", "sigma", "alpha", "M", "Gamma", "R") if key in cfg}
    return GameSpec(n=int(cfg["n"]), horizon=float(cfg["T"]), x0=cfg["x0"], A=cfg.get("A", 0.0),
                    C=cfg["C"], N=cfg["N"], Q=cfg.get("Q", ()), **optional)


def example3_game(horizon: float = 1.0) -> GameSpec:
    """Built-in two-player counterexample game.

    dX = (X - E[X] + u (1, -2)' + v (-2, 1)') dt + (1, 1)' dW from
    x0 = (1, 2)', with J_1 = 1/2 E[int u^2 + (X_T^1)^2] and
    J_2 = 1/2 E[int v^2 + (X_T^2)^2].  Its mean reduction has
    det B(T) = (1 - T)(1 + 3T): no Nash equilibrium at T = 1.
    """
    return GameSpec(
        n=2,
        horizon=horizon,
        x0=[1.0, 2.0],
        A=np.eye(2),
        D=-np.eye(2),
        alpha=[1.0, 1.0],
        C=[np.array([[1.0], [-2.0]]), np.array([[-2.0], [1.0]])],
        N=[np.array([[1.0]]), np.array([[1.0]])],
        Q=[np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
    )
