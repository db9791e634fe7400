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

The module also provides the solvability gate (positivity of the
weighted cost sums, commutation of K_i with the dynamics, and smallness
of the mean couplings), Monte Carlo cost evaluation, a statistical
unilateral-deviation check of the Nash property, and the deterministic
mean reduction whose boundary matrix B(T) detects nonexistence: taking
expectations turns the adjoint system into a linear two-point boundary
problem for the means, and a singular B(T) means no solution for that
horizon (the built-in two-player counterexample has det B(T) =
(1 - T)(1 + 3T), singular exactly at T = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from . import fixpoint
from .backward import solve_backward
from .measure import EmpiricalMeasure, from_checked
from .paths import BrownianBundle, PathEnsemble, TimeGrid, from_component_major, joint_marginal, marginal, node_msd
from .problem import (
    H1PRIME,
    AffineCoeffs,
    LipschitzProfile,
    MfProblem,
    MonotonicityProfile,
    PiecewiseConstant,
    affine_problem,
    coerce,
    map_path,
    shaped_path,
    smallness_bound,
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
    "hamiltonian",
    "simulate_state",
    "game_from_config",
    "example3_game",
]

_SYMMETRY_TOL = 1e-12
_COMMUTATION_TOL = 1e-10
_SINGULARITY_RTOL = 1e-9
# RK4 steps of the full-horizon mean transition when a coefficient is a callable
_RK4_STEPS = 512


def _sample_times(horizon: float, paths, samples: int = 257) -> np.ndarray:
    """Uniform sampling times plus every piecewise breakpoint in [0, T]."""
    ts = [np.linspace(0.0, horizon, samples)]
    for p in paths:
        if isinstance(p, PiecewiseConstant):
            bp = p.breakpoints
            ts.append(bp[(bp >= 0.0) & (bp <= horizon)])
    return np.unique(np.concatenate(ts))


def _check_symmetric(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.T, atol=_SYMMETRY_TOL, rtol=0.0):
        raise ValueError(f"{name} must be symmetric (tolerance {_SYMMETRY_TOL:g})")


@dataclass
class GameSpec:
    """Coefficients of one LQ mean-field game.

    Dynamics paths (A, D, sigma: t -> n x n; beta, alpha: t -> n) accept
    constants, piecewise tables or callables.  Per-player data: C_i
    (n x m_i) and N_i (m_i x m_i symmetric positive definite) must be
    constant; M_i and Gamma_i are symmetric nonnegative paths; Q_i and
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
        for path in (self.A, self.D, self.sigma, self.beta, self.alpha):
            for t in _sample_times(self.horizon, [path], samples=5):
                path(t)  # a callable's values are coerced, and so checked, where the symmetry check samples

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
                for t in _sample_times(self.horizon, out[-1:], samples=5):
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
        """K_i = C_i N_i^{-1} C_i', symmetric positive semidefinite."""
        out = []
        for c, nn in zip(self.C, self.N):
            k = c @ np.linalg.solve(nn, c.T)
            out.append((k + k.T) / 2.0)
        return out


# ---------------------------------------------------------------------------
# solvability gate
# ---------------------------------------------------------------------------


@dataclass
class H2Report:
    """Structural conditions for aggregated solvability.

    eta1/eta2 are the smallest eigenvalues of the symmetric parts of
    sum K_i Q_i and (over the checked times) sum K_i M_i(t).  The mean
    couplings ||sum K_i R_i|| and ||D|| must both stay below the relaxed
    smallness bound at (k, k') = (min{1, eta2}, eta1), that is
    min{2(sqrt2-1) eta1, sqrt2/2, (sqrt2/2) eta2}.
    """

    K: list
    eta1: float
    eta2: float
    commutation_residual: float
    norm_KR: float
    norm_D: float
    bound: float
    structure_ok: bool
    positivity_ok: bool
    commutation_ok: bool
    coupling_R_ok: bool
    coupling_D_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "eta1": self.eta1,
            "eta2": self.eta2,
            "commutation_residual": self.commutation_residual,
            "norm_KR": self.norm_KR,
            "norm_D": self.norm_D,
            "bound": self.bound,
            "checks": {
                "time_independent_CN": self.structure_ok,
                "positivity": self.positivity_ok,
                "commutation": self.commutation_ok,
                "coupling_R": self.coupling_R_ok,
                "coupling_D": self.coupling_D_ok,
            },
            "pass": self.passed,
        }


def _gate_times(gs: GameSpec) -> np.ndarray:
    """Where the gate and the aggregated constants evaluate the coefficients:
    uniform times plus every breakpoint of A, D, sigma and the M_i in [0, T]."""
    return _sample_times(gs.horizon, [gs.A, gs.D, gs.sigma] + list(gs.M))


def _sym_min_eig(mat: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetric part of a matrix or of a stack of them
    (halved before the sum, so finite entries near the overflow threshold stay finite)."""
    return float(np.linalg.eigvalsh(mat / 2.0 + np.swapaxes(mat, -1, -2) / 2.0)[..., 0].min())


def _spectral(mat: np.ndarray) -> float:
    """Spectral norm of a matrix, or the largest over a stack of them."""
    return float(np.linalg.norm(mat, 2, axis=(-2, -1)).max())


def _gate(gs: GameSpec, times: np.ndarray):
    """The game's gate data at ``times``: K_i, sum K_i Q_i, sum K_i R_i, the
    path t -> sum K_i M_i(t), the stacks (A, D, sigma, sum K_i M_i) at those
    times, and eta1, eta2 (smallest eigenvalues of the symmetric parts of
    sum K_i Q_i and of the sum K_i M_i stack).  Every sup the gate and the
    aggregated constants take is a :func:`_spectral` over these stacks."""
    K = gs.k_matrices()
    skq = sum(k @ q for k, q in zip(K, gs.Q))
    skm = map_path(lambda *ms: sum(k @ m for k, m in zip(K, ms)), *gs.M)
    stacks = [np.stack([path(t) for t in times]) for path in (gs.A, gs.D, gs.sigma, skm)]
    return K, skq, sum(k @ r for k, r in zip(K, gs.R)), skm, stacks, _sym_min_eig(skq), _sym_min_eig(stacks[-1])


def check_H2(gs: GameSpec, grid: TimeGrid) -> H2Report:
    """Evaluate the structural and smallness conditions on ``grid``'s nodes
    and at the times :func:`build_aggregated` samples (every coefficient
    breakpoint in [0, T] among them), so a piece between two nodes is not
    missed."""
    K, _, skr, _, (a, d, s, _), eta1, eta2 = _gate(gs, np.union1d(grid.nodes, _gate_times(gs)))
    mats = np.swapaxes(np.concatenate([a, d, s]), -1, -2)
    commut = max(_spectral(k @ mats - mats @ k) for k in K)
    norm_d = _spectral(d)
    norm_kr = _spectral(skr)
    bound = smallness_bound(min(1.0, eta2), eta1, H1PRIME)
    positivity_ok = eta1 > 0 and eta2 > 0
    commutation_ok = commut < _COMMUTATION_TOL
    coupling_r_ok = norm_kr < bound
    coupling_d_ok = norm_d < bound
    return H2Report(
        K=K,
        eta1=eta1,
        eta2=eta2,
        commutation_residual=commut,
        norm_KR=norm_kr,
        norm_D=norm_d,
        bound=bound,
        structure_ok=True,  # C_i, N_i are constant matrices by construction
        positivity_ok=positivity_ok,
        commutation_ok=commutation_ok,
        coupling_R_ok=coupling_r_ok,
        coupling_D_ok=coupling_d_ok,
        passed=positivity_ok and commutation_ok and coupling_r_ok and coupling_d_ok,
    )


# ---------------------------------------------------------------------------
# aggregated system
# ---------------------------------------------------------------------------


def build_aggregated(gs: GameSpec) -> MfProblem:
    """Aggregated mean-field BFSDE in (X, sum K_i p_i, sum K_i q_i).

    Coefficients:

        f(t, x, y, z, nu)     = A_t x - y + D_t E[xi_1] + beta_t
        sigma(t, x, y, z)     = sigma_t x + alpha_t              (law-free)
        h(t, x, y, z, nu)     = -A_t' y - (sum K_i M_i) x - D_t' E[xi_2] - sigma_t' z
        g(x, mu)              = (sum K_i Q_i) x + (sum K_i R_i) E[mu]

    with attached constants C_nu = sup ||D||, C_g_nu = ||sum K_i R_i||,
    k = min{1, eta2}, k' = eta1, the sups and eta2 taken at the gate's
    times in [0, T].  When eta1 or eta2 is nonpositive the problem
    carries no monotonicity profile (the constants do not exist).
    """
    n = gs.n
    _, skq, skr, skm, (a, d, s, m), eta1, eta2 = _gate(gs, _gate_times(gs))
    lip = LipschitzProfile(
        c_u=max(_spectral(a), 1.0, _spectral(m), _spectral(s)),
        c_nu=_spectral(d),
        c_g_x=_spectral(skq),
        c_g_nu=_spectral(skr),
    )
    mono = None
    if eta1 > 0 and eta2 > 0:
        mono = MonotonicityProfile(k=min(1.0, eta2), k_prime=eta1, variant=H1PRIME)

    f, sigma = _dynamics(gs, y=-np.eye(n))
    h = AffineCoeffs(n, "h", x=map_path(np.negative, skm), y=_neg_t(gs.A), z=_neg_t(gs.sigma), mean_y=_neg_t(gs.D))
    g = AffineCoeffs(n, "g", x=skq, mean_x=skr)
    return affine_problem(gs.x0, gs.horizon, f, h, sigma, g, lipschitz=lip, monotonicity=mono)


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


def _control_fn(u) -> Callable:
    if isinstance(u, PathEnsemble):
        arr = u.component_major
        return lambda k, t, x: arr[k].T
    if callable(u):
        return u
    arr = np.asarray(u, dtype=float)
    return lambda k, t, x: arr[:, k, :]


def simulate_state(gs: GameSpec, grid: TimeGrid, bundle: BrownianBundle, controls) -> PathEnsemble:
    """Euler simulation of the controlled state with plug-in ensemble mean.

    ``controls`` holds one entry per player: a PathEnsemble/array of
    per-particle control values on the grid nodes, or an adapted callable
    ``(step, t, x) -> (particles, m_i)`` used for feedback deviations.
    """
    if bundle.dim != 1:
        raise ValueError("the game layer uses a one-dimensional Brownian motion")
    if bundle.steps != grid.steps:
        raise ValueError("bundle and grid step counts differ")
    if len(controls) != gs.players:
        raise ValueError(f"need one control per player, got {len(controls)}")
    fns = [_control_fn(u) for u in controls]
    f, sigma = _dynamics(gs)
    # component-major (nodes, n, particles); the tables and controls get (particles, n) views
    x = np.empty((grid.steps + 1, gs.n, bundle.particles))
    x[0] = gs.x0[:, None]
    for k in range(grid.steps):
        t_k = float(grid.nodes[k])
        xk = x[k].T
        # x[k] is finite: GameSpec checks x0, and each step checks the row it writes
        drift = f(t_k, xk, nu=from_checked(xk)).T
        for c, fn in zip(gs.C, fns):
            u = np.asarray(fn(k, t_k, xk)).T
            # a one-column C as a broadcast product: the bits of the k = 1 matmul without its BLAS call
            drift += c * u if c.shape[1] == 1 else c @ u
        # (x + drift dt) + sigma dW, built in place
        nxt = np.multiply(drift, grid.dt, out=x[k + 1])
        nxt += x[k]
        nxt += sigma(t_k, xk).T * bundle.component_major[k]
        if not np.all(np.isfinite(nxt)):
            raise FloatingPointError(f"state simulation produced non-finite values at step {k}")
    return from_component_major(x)


# ---------------------------------------------------------------------------
# cost functional
# ---------------------------------------------------------------------------


def _trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.steps + 1, grid.dt)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _cost_with_batches(
    gs: GameSpec, i: int, x_cm: np.ndarray, u_cm: np.ndarray, grid: TimeGrid, n_batches: int = 20
) -> tuple[float, float, np.ndarray]:
    """Plug-in cost of player i, its batch-means standard error and the
    costs of ``n_batches`` contiguous particle blocks (E[X] terms use the
    means within each block).  ``x_cm`` and ``u_cm`` are component-major
    (nodes, dim, particles); the per-particle terms are formed once."""
    w = _trapezoid_weights(grid)
    x_t = x_cm[-1]
    terminal = np.sum(x_t * (gs.Q[i] @ x_t), axis=0)
    run = np.sum(u_cm * (gs.N[i] @ u_cm), axis=1)
    mean_terms = []
    for k, t in enumerate(grid.nodes):
        m_k = np.asarray(gs.M[i](t), dtype=float)
        if np.any(m_k):
            run[k] += np.sum(x_cm[k] * (m_k @ x_cm[k]), axis=0)
        g_k = np.asarray(gs.Gamma[i](t), dtype=float)
        if np.any(g_k):
            mean_terms.append((k, g_k))
    running = w @ run

    def block(a: int, b: int) -> float:
        total = float(np.mean(terminal[a:b]))
        m_t = x_t[:, a:b].mean(axis=1)
        total += float(m_t @ gs.R[i] @ m_t)
        for k, g_k in mean_terms:
            m_k = x_cm[k, :, a:b].mean(axis=1)
            total += w[k] * float(m_k @ g_k @ m_k)
        total += float(np.mean(running[a:b]))
        return 0.5 * total

    particles = x_cm.shape[-1]
    n_batches = min(n_batches, particles)
    bounds = np.linspace(0, particles, n_batches + 1).astype(int)
    batch_vals = np.array([block(a, b) for a, b in zip(bounds[:-1], bounds[1:])])
    stderr = float(np.std(batch_vals, ddof=1) / math.sqrt(n_batches)) if n_batches > 1 else 0.0
    return block(0, particles), stderr, batch_vals


def cost(gs: GameSpec, i: int, x_ens: PathEnsemble, controls, grid: TimeGrid) -> tuple[float, float]:
    """Monte Carlo estimate of J_i with its standard error.

    Quadrature is trapezoidal in time; the E[X]-product terms use plug-in
    ensemble means, and the standard error comes from batch means over
    contiguous particle blocks.
    """
    u = controls[i] if isinstance(controls, (list, tuple)) else controls
    u_cm = u.component_major if isinstance(u, PathEnsemble) else np.asarray(u, dtype=float).transpose(1, 2, 0)
    if u_cm.shape[2] != x_ens.particles or u_cm.shape[0] != x_ens.nodes:
        raise ValueError("control and state ensembles must share particles and nodes")
    value, stderr, _ = _cost_with_batches(gs, i, x_ens.component_major, u_cm, grid)
    return value, stderr


# ---------------------------------------------------------------------------
# Nash synthesis
# ---------------------------------------------------------------------------


@dataclass
class NashResult:
    """Synthesized equilibrium candidate with Monte Carlo costs."""

    aggregated: fixpoint.MfSolution
    controls: list
    adjoints_p: list
    adjoints_q: list
    costs: list
    cost_stderrs: list
    aggregation_residual_y: float
    aggregation_residual_z: float
    adjoint_iterations: list
    adjoint_gaps: list
    # ((game, aggregated, *controls), state) of the last base simulation in
    # deviation_test; dataclasses.replace starts a new result without it
    _deviation_base: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def x_ens(self) -> PathEnsemble:
        return self.aggregated.x_ens

    @property
    def converged(self) -> bool:
        return self.aggregated.converged

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
    """Player i's adjoint backward equation packaged for the regression
    solver; the measure argument carries the joint (X, p_i) cloud:

        h(t, x, y, z, nu) = -A_t' y - M_i(t) x - D_t' E[p_i] - sigma_t' z - Gamma_i(t) E[X]
        g(x, mu)          = Q_i x + R_i E[mu]
    """
    n = gs.n
    h = AffineCoeffs(n, "h", x=map_path(np.negative, gs.M[i]), y=_neg_t(gs.A), z=_neg_t(gs.sigma),
                     mean_x=map_path(np.negative, gs.Gamma[i]), mean_y=_neg_t(gs.D))
    g = AffineCoeffs(n, "g", x=gs.Q[i], mean_x=gs.R[i])
    return affine_problem(gs.x0, gs.horizon, f=AffineCoeffs(n), h=h, sigma=AffineCoeffs(n), g=g)


def _solve_adjoint(gs, i, sol, params) -> tuple[PathEnsemble, PathEnsemble, list]:
    """Iterate the adjoint mean-field BSDE to a fixed point of its own
    mean coupling (frozen (X, p_i) flow, refrozen each pass).  Returns
    (p_i, q_i) and the gap of every pass; the iteration count is its length.
    A pass that blows up, and gaps that :func:`fixpoint.diverging` flags,
    raise :class:`fixpoint.Diverged` with the aggregated solve's history."""
    prob = _adjoint_problem(gs, i)
    grid, bundle = sol.grid, sol.bundle
    x_ens = sol.x_ens
    terminal = marginal(x_ens, x_ens.nodes - 1)
    p_ens = from_component_major(np.zeros((grid.steps + 1, gs.n, bundle.particles)))
    q_ens = None
    max_iter = 50
    gaps = []
    for n in range(1, max_iter + 1):
        with fixpoint.blowups_diverge(f"adjoint of player {i} blew up at pass {n}", sol.history):
            flow = [joint_marginal(x_ens, p_ens, k) for k in range(x_ens.nodes)]
            p_new, q_ens, _ = solve_backward(prob, grid, bundle, x_ens, flow, terminal, params.basis)
            gap = float(np.trapezoid(node_msd(p_new.component_major, p_ens.component_major), dx=grid.dt))
        gaps.append(gap)
        p_ens = p_new
        if gap < params.tol**2:
            break
        if fixpoint.diverging(gaps):
            raise fixpoint.Diverged(f"adjoint reconstruction diverged for player {i}", sol.history)
    return p_ens, q_ens, gaps


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
    closed-form control map.  The identity sum K_i p_i = Ytilde (and its
    q/Ztilde analogue) is recorded as an aggregation residual.  Everything
    runs on one thread; ``threads`` is kept for existing callers and must be 1.
    """
    if threads != 1:
        raise ValueError(f"solve_nash runs on one thread; threads must be 1, got {threads!r}")
    agg = build_aggregated(gs)
    sol = fixpoint.solve(agg, grid, params, seed)

    players = gs.players
    results = [_solve_adjoint(gs, i, sol, params) for i in range(players)]
    p_list = [r[0] for r in results]
    q_list = [r[1] for r in results]
    adjoint_gaps = [r[2] for r in results]

    gains = gs.control_gains()
    controls = [from_component_major(-(gain @ p.component_major)) for p, gain in zip(p_list, gains)]

    K = gs.k_matrices()
    ky = sum(k @ p.component_major for p, k in zip(p_list, K))
    res_y = node_msd(ky, sol.y_ens.component_major)
    kq = sum(k @ q.component_major for q, k in zip(q_list, K))
    res_z = node_msd(kq, sol.z_ens.component_major)

    costs, stderrs = [], []
    for i in range(players):
        value, se = cost(gs, i, sol.x_ens, controls, grid)
        costs.append(value)
        stderrs.append(se)

    return NashResult(
        aggregated=sol,
        controls=controls,
        adjoints_p=p_list,
        adjoints_q=q_list,
        costs=costs,
        cost_stderrs=stderrs,
        aggregation_residual_y=float(np.max(res_y)),
        aggregation_residual_z=float(np.max(res_z)),
        adjoint_iterations=[len(gaps) for gaps in adjoint_gaps],
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
        return {
            "player": self.player,
            "perturbations": self.perturbations,
            "magnitude": self.magnitude,
            "baseline_cost": self.baseline_cost,
            "deltas": self.deltas,
            "stderrs": self.stderrs,
            "min_delta": self.min_delta,
            "min_stderr": self.min_stderr,
            "pass": self.passed,
        }


def _base_state(gs: GameSpec, nash: NashResult) -> PathEnsemble:
    """The state under the candidate controls on the solve's bundle,
    simulated once per (game, solve, controls) and kept on ``nash``."""
    key = (gs, nash.aggregated, *nash.controls)
    cached = nash._deviation_base
    if cached is None or len(cached[0]) != len(key) or any(a is not b for a, b in zip(cached[0], key)):
        sol = nash.aggregated
        cached = nash._deviation_base = (key, simulate_state(gs, sol.grid, sol.bundle, list(nash.controls)))
    return cached[1]


def deviation_test(
    gs: GameSpec,
    nash: NashResult,
    i: int,
    perturbations: int = 20,
    magnitude: float = 0.1,
    seed: int = 0,
) -> DeviationReport:
    """Probe the Nash inequality J_i(u*) <= J_i(u* deviated in slot i).

    Deviations are drawn from a finite adapted family (constant vectors
    and affine state-feedback maps), scaled by ``magnitude`` and applied
    on top of player i's candidate control; the state is re-simulated
    with the SAME Brownian bundle, so cost differences are paired.  The
    test passes when the most favorable deviation does not beat the
    candidate by more than 3 standard errors of the paired difference.
    Full open-loop function-space deviations are not verifiable
    numerically; this finite family is a documented limitation.
    """
    if perturbations < 1:
        raise ValueError(f"perturbations must be >= 1, got {perturbations}")
    grid, bundle = nash.aggregated.grid, nash.aggregated.bundle
    base_controls = list(nash.controls)
    m_i = gs.control_dims[i]
    rng = np.random.default_rng(seed)

    x_base = _base_state(gs, nash)
    base_i = base_controls[i].component_major
    j_base, _, base_batches = _cost_with_batches(gs, i, x_base.component_major, base_i, grid)

    deltas, stderrs = [], []
    for j in range(perturbations):
        if j % 2 == 0:
            v = rng.standard_normal(m_i)
            dev = lambda k, t, x, _v=v: (base_i[k] + magnitude * _v[:, None]).T
        else:
            a = rng.standard_normal(m_i)
            b = rng.standard_normal((m_i, gs.n)) / math.sqrt(gs.n)
            dev = lambda k, t, x, _a=a, _b=b: (base_i[k] + magnitude * (_a[:, None] + _b @ x.T)).T
        controls = list(base_controls)
        controls[i] = dev
        # an overflowing deviation raises here instead of warning first
        with np.errstate(over="raise", invalid="raise"):
            x_cm = simulate_state(gs, grid, bundle, controls).component_major
            u_dev = np.stack([dev(k, float(t), x_cm[k].T).T for k, t in enumerate(grid.nodes)])
            j_dev, _, dev_batches = _cost_with_batches(gs, i, x_cm, u_dev, grid)
        deltas.append(j_dev - j_base)
        paired = dev_batches - base_batches
        stderrs.append(float(np.std(paired, ddof=1) / math.sqrt(len(paired))) if len(paired) > 1 else 0.0)

    idx = int(np.argmin(deltas))
    return DeviationReport(
        player=i,
        perturbations=perturbations,
        magnitude=magnitude,
        baseline_cost=j_base,
        deltas=[float(d) for d in deltas],
        stderrs=stderrs,
        min_delta=float(deltas[idx]),
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


def _backward_transition(gen, t_hi: float, t_lo: float, cache: dict, max_step: float) -> np.ndarray:
    """Transition matrix of the augmented mean ODE from t_hi down to t_lo.

    Exact (matrix exponentials per piece) when the generator ``gen`` is
    piecewise constant; otherwise dense RK4 with equal steps no longer
    than ``max_step``.  ``cache`` keeps the piece exponentials of one
    mean solve, keyed by (piece, exact step length).
    """
    phi = np.eye(len(gen(t_hi)))
    if t_hi <= t_lo:
        return phi
    if isinstance(gen, PiecewiseConstant):
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
    # general deterministic callables: RK4 on Phi' = G_hat Phi integrated backward
    rk_steps = math.ceil((t_hi - t_lo) / max_step)
    hs = (t_hi - t_lo) / rk_steps
    t = t_hi
    for _ in range(rk_steps):
        k1 = gen(t) @ phi
        k2 = gen(t - hs / 2) @ (phi - hs / 2 * k1)
        k3 = gen(t - hs / 2) @ (phi - hs / 2 * k2)
        k4 = gen(t - hs) @ (phi - hs * k3)
        phi = phi - hs / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t -= hs
    return phi


def solve_mean_fbode(gs: GameSpec, times: np.ndarray | None = None):
    """Deterministic mean reduction of the adjoint system.

    Taking expectations of the adjoint system turns it into a linear
    two-point boundary problem for (E[X_t], E[p_i_t]); this requires
    deterministic coefficients and a vanishing state-multiplicative
    diffusion (otherwise E[sigma' q] is not a function of the means).
    The affine map from the terminal state mean s to the implied initial
    state mean is assembled by integrating the ODE backward; its linear
    part is the boundary matrix B(T).  Returns the mean trajectories, or
    :class:`Nonexistence` when |det B(T)| < 1e-9 * (product of row norms).
    """
    if _spectral(np.stack([gs.sigma(t) for t in _sample_times(gs.horizon, [gs.sigma])])) > 1e-14:
        raise ValueError(
            "mean reduction requires a vanishing state-multiplicative diffusion "
            "(sigma = 0); the additive alpha term is fine"
        )
    n, players = gs.n, gs.players
    dim = (players + 1) * n
    gen = _mean_generator(gs)
    T = gs.horizon

    cache: dict = {}
    max_step = T / _RK4_STEPS
    transition = _backward_transition(gen, T, 0.0, cache, max_step)
    stack = np.zeros((dim, n))
    stack[:n, :] = np.eye(n)
    for i in range(players):
        stack[(i + 1) * n : (i + 2) * n, :] = gs.Q[i] + gs.R[i]
    boundary = transition[:n, :dim] @ stack
    offset = transition[:n, dim]

    det = float(np.linalg.det(boundary))
    row_norms = np.linalg.norm(boundary, axis=1)
    scale = float(np.prod(row_norms))
    cond = float(np.linalg.cond(boundary)) if scale > 0 else math.inf
    if scale == 0.0 or abs(det) < _SINGULARITY_RTOL * scale:
        return Nonexistence(det=det, cond=cond, horizon=T)

    s = np.linalg.solve(boundary, gs.x0 - offset)
    v_t = np.concatenate([stack @ s, [1.0]])

    if times is None:
        times = np.linspace(0.0, T, 201)
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times.min() < 0 or times.max() > T + 1e-12:
        raise ValueError(f"output times must lie in [0, {T}]")
    order = np.argsort(times)[::-1]
    values = np.empty((times.size, dim))
    v = v_t
    t_prev = T
    for idx in order:
        t = float(times[idx])
        v = _backward_transition(gen, t_prev, t, cache, max_step) @ v
        values[idx] = v[:dim]
        t_prev = t

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
# Hamiltonians
# ---------------------------------------------------------------------------


def hamiltonian(gs: GameSpec, i: int, t: float, x, u_all, zeta, p_i, q_i) -> float:
    """Player i's Hamiltonian at a single point.

    ``zeta`` is the placeholder variable standing for the state
    expectation.  The minimizer over u_i is -N_i^{-1} C_i' p_i.
    """
    x = coerce(x, (gs.n,), "x")
    zeta = coerce(zeta, (gs.n,), "zeta")
    p_i = coerce(p_i, (gs.n,), "p_i")
    q_i = coerce(q_i, (gs.n,), "q_i")
    if len(u_all) != gs.players:
        raise ValueError(f"need one control per player, got {len(u_all)}")
    us = [
        coerce(u, (m_k,), f"u_{k}")
        for k, (u, m_k) in enumerate(zip(u_all, gs.control_dims))
    ]
    f, sigma = _dynamics(gs)
    drift = f(t, x[None], nu=EmpiricalMeasure(zeta[None]))[0]
    for c, u in zip(gs.C, us):
        drift = drift + c @ u
    value = float(p_i @ drift)
    value += 0.5 * float(x @ np.asarray(gs.M[i](t)) @ x)
    value += 0.5 * float(us[i] @ gs.N[i] @ us[i])
    value += 0.5 * float(zeta @ np.asarray(gs.Gamma[i](t)) @ zeta)
    value += float(sigma(t, x[None])[0] @ q_i)
    return value


# ---------------------------------------------------------------------------
# configs and the built-in counterexample
# ---------------------------------------------------------------------------


def game_from_config(cfg: dict) -> GameSpec:
    """Build a GameSpec from a config dict (JSON schema).

    Schema: ``{"kind": "game", "n":, "m":, "T":, "x0": [...],
    "A"|"D"|"beta"|"sigma"|"alpha": coeff, "C": [...], "N": [...],
    "M": [...], "Gamma": [...], "Q": [...], "R": [...]}`` where dynamics
    coefficients are constants, ``{"const": ...}`` or piecewise tables,
    and the per-player lists hold one entry per player (M and Gamma
    entries may be piecewise; C, N, Q, R are constant matrices).
    Omitted blocks (A, D, beta, sigma, alpha, M, Gamma, Q, R) default to
    zero.  Coefficients are deterministic; adapted random coefficients
    need library callbacks.
    """
    if cfg.get("kind", "game") != "game":
        raise ValueError(f"expected a game config, got kind={cfg.get('kind')!r}")
    for key in ("n", "m", "T", "x0", "C", "N"):
        if key not in cfg:
            raise ValueError(f"game config is missing required field {key!r}")
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
