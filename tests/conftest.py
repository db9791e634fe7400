import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

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


@pytest.fixture
def toy_problem():
    return h1prime_toy()


@pytest.fixture
def martingale_problem():
    return pure_martingale()
