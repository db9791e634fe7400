import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mfbsde.forward import propagate
from mfbsde.problem import AffineCoeffs, LipschitzProfile, MfProblem, MonotonicityProfile

# the README's 1-D problem config: the toy problem of h1prime_toy as affine tables
TOY_PROBLEM = {
    "kind": "problem",
    "dim": 1, "horizon": 0.25, "x0": [1.0],
    "f": {"y": -1.0, "mean_x": 0.1},
    "h": {"x": -1.0, "z": -0.3, "mean_y": 0.1},
    "sigma": {"x": 0.3, "const": 0.2},
    "g": {"x": 1.0, "mean_x": 0.1},
    "lipschitz": {"c_u": 1.0, "c_nu": 0.1, "c_g_x": 1.0, "c_g_nu": 0.1},
    "monotonicity": {"k": 1.0, "k_prime": 1.0, "variant": "H1prime"},
}


def h1prime_toy(horizon: float = 0.25) -> MfProblem:
    """1-D relaxed-monotonicity problem with k = k' = 1 and mean-field
    Lipschitz constants C_nu = C_g_nu = 0.1 (passes the smallness gate).

    f = -y + 0.1 E[xi_1], h = -x - 0.3 z + 0.1 E[xi_2],
    sigma = 0.3 x + 0.2 (law-free), g = x + 0.1 E[mu]; the -0.3 z term in
    h cancels the sigma/z coupling in the dissipativity functional, so
    A(t, u, u', nu) = -|dx|^2 - |dy|^2 exactly.
    """
    return MfProblem(
        x0=[1.0],
        horizon=horizon,
        f=AffineCoeffs(1, "f", y=-1.0, mean_x=0.1),
        h=AffineCoeffs(1, "h", x=-1.0, z=-0.3, mean_y=0.1),
        sigma=AffineCoeffs(1, "sigma", x=0.3, const=0.2),
        g=AffineCoeffs(1, "g", x=1.0, mean_x=0.1),
        lipschitz=LipschitzProfile(c_u=1.0, c_nu=0.1, c_g_x=1.0, c_g_nu=0.1),
        monotonicity=MonotonicityProfile(k=1.0, k_prime=1.0, variant="H1prime"),
    )


def scalar_problem(x0=0.0, horizon=1.0, f=None, h=None, sigma=None, g=None, **profiles) -> MfProblem:
    """1-D problem whose f, h, sigma and g tables take the given terms (AffineCoeffs keywords); absent is zero."""
    terms = {"f": f, "h": h, "sigma": sigma, "g": g}
    tables = {name: AffineCoeffs(1, name, **(spec or {})) for name, spec in terms.items()}
    return MfProblem(x0=[x0], horizon=horizon, **tables, **profiles)


def pure_martingale(x0: float = 0.7, horizon: float = 1.0) -> MfProblem:
    """Zero-driver problem whose backward solution is Y_t = E[X_T | F_t]."""
    return scalar_problem(x0, horizon, sigma={"const": 1.0}, g={"x": 1.0})


def slab_tables(steps, m, particles, *parts):
    """A path slab whose slot 0 is left for X, and a table on its node blocks for each of ``parts``, a Y (steps + 1
    nodes) and a Z (steps) in turn: a number is a constant table, and a component-major (nodes, m, P) array is
    copied to a slot of its own and read through an identity table."""
    arrays = [v for v in parts if np.ndim(v)]
    slab = np.zeros((steps + 1, 1 + len(arrays), m, particles))
    rows, tables, slot = slab.shape[1] * m, [], 0
    for j, v in enumerate(parts):
        table = np.zeros((steps + 1 - j % 2, 1 + rows, m))
        if np.ndim(v):
            slot += 1
            slab[: len(table), slot] = v
            table[:, 1 + slot * m : 1 + (slot + 1) * m] = np.eye(m)
        else:
            table[:, 0] = v
        tables.append(table)
    return slab, tables


def zero_sweep(p, grid, bundle, flow):
    """The X paths of one forward sweep from x0 under the zero (Y, Z), without damping."""
    slab, tables = slab_tables(grid.steps, p.dim_state, bundle.particles, 0.0, 0.0)
    return propagate(p, grid, bundle, slab, 0, tuple(tables), tuple(tables), flow, 0.0, 0)[0]


@pytest.fixture
def toy_problem():
    return h1prime_toy()


@pytest.fixture
def martingale_problem():
    return pure_martingale()
