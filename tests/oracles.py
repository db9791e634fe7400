"""Independent oracles for the test suite.

Everything here recomputes expected values by a different route than the
library under test: brute-force enumeration for optimal transport,
Runge-Kutta integration for ODE benchmarks, the hand-reduced closed
form of the built-in counterexample's boundary matrix, and a game cost
priced term by term on one state and control.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np


def w2_brute_force(points_a: np.ndarray, points_b: np.ndarray) -> float:
    """Exact transport cost by enumerating all assignments (N <= 8)."""
    a = np.atleast_2d(points_a)
    b = np.atleast_2d(points_b)
    n = a.shape[0]
    pair_costs = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    perms = np.array(list(permutations(range(n))))
    totals = pair_costs[np.arange(n)[None, :], perms].sum(axis=1)
    return float(np.sqrt(totals.min() / n))


def rk4(f, y0: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Classical fourth-order Runge-Kutta from t0 to t1 (t1 < t0 allowed)."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return y


def scalar_lq_riccati(a, c, n_ctrl, m_run, q, sigma_x, alpha, horizon, steps=20000):
    """Adjoint value p(0) = P(0) x0 + phi(0) of the scalar LQ control problem.

    dX = (a X + c u) dt + (sigma_x X + alpha) dW, cost
    1/2 E[q X_T^2 + int (m_run X^2 + n_ctrl u^2) dt].  The affine ansatz
    p = P X + phi gives the Riccati pair

        P' = -(2a + sigma_x^2) P - m_run + (c^2/n_ctrl) P^2,   P(T) = q
        phi' = -(a - (c^2/n_ctrl) P) phi - sigma_x P alpha,    phi(T) = 0.
    """

    def deriv(t, y):
        p, phi = y
        dp = -(2 * a + sigma_x**2) * p - m_run + (c * c / n_ctrl) * p * p
        dphi = -(a - (c * c / n_ctrl) * p) * phi - sigma_x * p * alpha
        return np.array([dp, dphi])

    p, phi = rk4(deriv, np.array([q, 0.0]), horizon, 0.0, steps)
    return p, phi


def example3_boundary_det(horizon: float) -> float:
    """Closed form det B(T) = (1 - T)(1 + 3T) of the counterexample."""
    return (1.0 - horizon) * (1.0 + 3.0 * horizon)


def example3_solution(horizon: float):
    """Hand-solved terminal state means and controls of the counterexample.

    The adjoint means are constant, so the terminal means solve
    [[1 + T, -2T], [-2T, 1 + T]] s = (1, 2)' and the controls are
    (-s_1, -s_2).
    """
    t = horizon
    mat = np.array([[1.0 + t, -2.0 * t], [-2.0 * t, 1.0 + t]])
    s = np.linalg.solve(mat, np.array([1.0, 2.0]))
    return s, (-s[0], -s[1])


def example3_mean_path(horizon: float, times: np.ndarray) -> np.ndarray:
    """Mean state trajectory of the counterexample: linear in time."""
    s, (u, v) = example3_solution(horizon)
    c1 = np.array([1.0, -2.0])
    c2 = np.array([-2.0, 1.0])
    slope = u * c1 + v * c2
    return np.array([1.0, 2.0])[None, :] + np.asarray(times)[:, None] * slope[None, :]


def toy_moments(horizon: float, steps: int, coupling: float = 0.1, substeps: int = 20):
    """E[X], Var(X), E[Y] and P on the uniform grid of ``steps`` steps of the README toy problem

        f = -y + c E[X],  h = -x - 0.3 z + c E[Y],  sigma = 0.3 x + 0.2,  g = x + c E[X_T],  x0 = 1

    with c = ``coupling``.  The affine ansatz Y = P X + phi gives
    Z = P (0.3 X + 0.2) and (the mean terms of f and h cancel in phi's drift)

        P' = P^2 - 0.09 P - 1,                                  P(T) = 1
        phi' = (P + c) phi - 0.06 P,                            phi(T) = c E[X_T]
        E[X]' = (c - P) E[X] - phi,                             E[X](0) = 1
        Var(X)' = (0.09 - 2 P) Var(X) + 0.09 E[X]^2 + 0.12 E[X] + 0.04,   Var(X)(0) = 0

    with E[Y] = P E[X] + phi.  P(0) comes from a backward pass; the rest
    runs forward with P, and phi(0) solves the linear two-point condition
    by shooting.  Returns (mean_x, var_x, mean_y, p), each of length steps + 1.
    """

    def deriv(t, s):
        p, m, phi, v = s
        return np.array([p * p - 0.09 * p - 1.0, (coupling - p) * m - phi, (p + coupling) * phi - 0.06 * p,
                         (0.09 - 2.0 * p) * v + 0.09 * m * m + 0.12 * m + 0.04])

    p0 = rk4(lambda t, p: p * p - 0.09 * p - 1.0, np.array([1.0]), horizon, 0.0, steps * substeps)[0]

    def run(phi0):
        dt, states = horizon / steps, [np.array([p0, 1.0, phi0, 0.0])]
        for k in range(steps):
            states.append(rk4(deriv, states[-1], k * dt, (k + 1) * dt, substeps))
        return np.array(states)

    miss = [run(phi0)[-1] @ np.array([0.0, -coupling, 1.0, 0.0]) for phi0 in (0.0, 1.0)]
    path = run(-miss[0] / (miss[1] - miss[0]))
    p, m, phi, v = path.T
    return m, v, p * m + phi, p


def lq_cost_blocks(x_cm, u_cm, times, Q, R, N, M, Gamma, blocks=20):
    """Player cost 1/2 (E[X_T' Q X_T] + E[X_T]' R E[X_T] + E int (X' M X + u' N u + E[X]' Gamma E[X]) dt),
    priced directly on one (X, u) pair for the whole sample and for each block.

    ``x_cm`` and ``u_cm`` are component-major (nodes, dim, particles) on
    ``times``; M and Gamma are functions of t.  The time integral is
    np.trapezoid of the node values, and the E[X] terms use the means of
    the sample priced.  The blocks are the min(blocks, particles)
    contiguous runs with edges np.linspace(0, particles, count + 1)
    rounded down.  Returns (whole-sample cost, array of block costs).
    """

    def price(x, u):
        mean = x.mean(axis=-1)
        node = [np.einsum("ip,ij,jp->p", x[k], M(t), x[k]).mean() + np.einsum("ip,ij,jp->p", u[k], N, u[k]).mean()
                + mean[k] @ Gamma(t) @ mean[k] for k, t in enumerate(times)]
        terminal = np.einsum("ip,ij,jp->p", x[-1], Q, x[-1]).mean() + mean[-1] @ R @ mean[-1]
        return 0.5 * (terminal + np.trapezoid(node, x=times))

    particles = x_cm.shape[-1]
    edges = np.linspace(0, particles, min(blocks, particles) + 1).astype(int)
    return price(x_cm, u_cm), np.array([price(x_cm[..., a:b], u_cm[..., a:b]) for a, b in zip(edges[:-1], edges[1:])])
