"""Problem declaration for fully coupled mean-field backward-forward SDEs.

An :class:`MfProblem` bundles the four coefficient callbacks

    X_t = x0 + int_0^t f(s, X, Y, Z, nu_s) ds + int_0^t sigma(s, X, Y, Z[, nu_s]) dW_s
    Y_t = g(X_T, mu_T) - int_t^T h(s, X, Y, Z, nu_s) ds - int_t^T Z_s dW_s

where nu_s is the joint law of (X_s, Y_s) and mu_T the law of X_T, plus
optional declared Lipschitz and monotonicity constants.  Coefficient callbacks
are vectorized across the particle axis: x, y have shape (P, m), z has
shape (P, m, d), and nu is an :class:`~mfbsde.measure.EmpiricalMeasure`
whose points concatenate the X components (first m) and Y components
(last m).  Callbacks must be pure functions of their arguments.

This module also evaluates the coupled-coefficient dissipativity
functional

    A(t, u, u', nu) = (f(t,u,nu) - f(t,u',nu)) . (y - y')
                    + (h(t,u,nu) - h(t,u',nu)) . (x - x')
                    + [sigma(t,u,nu) - sigma(t,u',nu), z - z']

(with [A, B] the column-wise inner product).  Its one problem gate,
:func:`check_H1`, computes the best constants of the one-sided bounds

    A <= -k (|x-x'|^2 + |y-y'|^2 + |z-z'|^2)        (strong variant, "H1")
    A <= -k (|x-x'|^2 + |y-y'|^2)                   (relaxed variant, "H1prime")
    (g(x,nu) - g(x',nu)) . (x - x') >= k' |x-x'|^2

and the mean-field Lipschitz constants C_nu and C_g_nu, and gates them with
the smallness condition under which the measure-freezing iteration
contracts.  The constants are exact for coefficients affine in the state and
the measure's mean (every config problem and aggregated game); any other
coefficient is rejected.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .measure import EmpiricalMeasure
from .paths import TimeGrid

__all__ = [
    "LipschitzProfile",
    "MonotonicityProfile",
    "MfProblem",
    "H1Report",
    "eval_A",
    "check_H1",
    "smallness_bound",
    "contraction_constants",
    "PiecewiseConstant",
    "shaped_path",
    "map_path",
    "AffineCoeffs",
    "affine_problem",
    "problem_from_config",
]

H1 = "H1"
H1PRIME = "H1prime"
_VARIANTS = (H1, H1PRIME)


@dataclass(frozen=True)
class LipschitzProfile:
    """Common Lipschitz constants of (f, h, sigma) in u and in the measure,
    plus the terminal map's constants."""

    c_u: float
    c_nu: float
    c_g_x: float
    c_g_nu: float

    def __post_init__(self):
        for name in ("c_u", "c_nu", "c_g_x", "c_g_nu"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")


@dataclass(frozen=True)
class MonotonicityProfile:
    """Dissipativity constants: k for the operator bound, k' for the
    terminal monotonicity, and which variant they certify."""

    k: float
    k_prime: float
    variant: str = H1PRIME

    def __post_init__(self):
        for name in ("k", "k_prime"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")


@dataclass
class MfProblem:
    """Coefficient callbacks and metadata of one mean-field BFSDE.

    ``law_free_sigma`` marks the variant where sigma ignores the measure;
    the solver then uses the relaxed iteration (no delta-perturbation of
    the diffusion) and calls sigma with ``nu=None``; an H1prime profile needs it.
    """

    dim_state: int
    dim_bm: int
    x0: np.ndarray
    horizon: float
    f: Callable
    sigma: Callable
    h: Callable
    g: Callable
    law_free_sigma: bool = False
    lipschitz: LipschitzProfile | None = None
    monotonicity: MonotonicityProfile | None = None

    def __post_init__(self):
        if self.dim_state < 1 or self.dim_bm < 1:
            raise ValueError("dim_state and dim_bm must be positive")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.shape != (self.dim_state,):
            raise ValueError(f"x0 must have shape ({self.dim_state},), got {x0.shape}")
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        self.x0 = x0
        if self.monotonicity is not None and self.monotonicity.variant == H1PRIME and not self.law_free_sigma:
            raise ValueError(f'variant "{H1PRIME}" needs a law-free sigma; declare variant="{H1}"')

    def spot_check(self, seed: int = 0) -> None:
        """Probe the callbacks on a small random batch.

        Verifies output shapes and finiteness, and (when ``law_free_sigma``)
        that sigma is insensitive to the measure argument, including
        ``nu=None``.  Raises ValueError on the first violation.
        """
        rng = np.random.default_rng(seed)
        m, d, batch = self.dim_state, self.dim_bm, 4
        x = rng.standard_normal((batch, m))
        y = rng.standard_normal((batch, m))
        z = rng.standard_normal((batch, m, d))
        nu_a = EmpiricalMeasure(rng.standard_normal((8, 2 * m)))
        nu_b = EmpiricalMeasure(rng.standard_normal((8, 2 * m)))
        mu = EmpiricalMeasure(rng.standard_normal((8, m)))
        t = 0.5 * self.horizon
        for name, out, want in (
            ("f", self.f(t, x, y, z, nu_a), (batch, m)),
            ("h", self.h(t, x, y, z, nu_a), (batch, m)),
            ("g", self.g(x, mu), (batch, m)),
        ):
            out = np.asarray(out)
            if out.shape != want:
                raise ValueError(f"{name} returned shape {out.shape}, expected {want}")
            if not np.all(np.isfinite(out)):
                raise ValueError(f"{name} returned non-finite values on finite inputs")
        sig_a = np.asarray(self.sigma(t, x, y, z, None if self.law_free_sigma else nu_a))
        if sig_a.shape != (batch, m, d):
            raise ValueError(f"sigma returned shape {sig_a.shape}, expected {(batch, m, d)}")
        if not np.all(np.isfinite(sig_a)):
            raise ValueError("sigma returned non-finite values on finite inputs")
        if self.law_free_sigma:
            for nu in (nu_a, nu_b):
                if not np.allclose(sig_a, np.asarray(self.sigma(t, x, y, z, nu)), atol=1e-12, rtol=0.0):
                    raise ValueError("law_free_sigma is set but sigma output depends on the measure")


def eval_A(p: MfProblem, t: float, u: tuple, u_prime: tuple, nu: EmpiricalMeasure) -> float:
    """Dissipativity functional A(t, u, u', nu) at a single pair of points.

    ``u`` and ``u_prime`` are (x, y, z) triples with x, y of shape (m,)
    and z of shape (m, d); scalars are accepted when m = d = 1.  The
    sigma difference is contracted against z - z' column-wise.
    """
    shapes = ((1, p.dim_state), (1, p.dim_state), (1, p.dim_state, p.dim_bm))
    pair = ([np.asarray(c, dtype=float).reshape(shape) for c, shape in zip(v, shapes)] for v in (u, u_prime))
    return float(_a_values(p, t, *pair, nu)[0])


def _a_values(p: MfProblem, t: float, u: tuple, u_prime: tuple, nu: EmpiricalMeasure) -> np.ndarray:
    """A(t, u, u', nu) over a batch of pairs: x, y of shape (b, m), z (b, m, d)."""
    (x, y, z), (xp, yp, zp) = u, u_prime
    nu_sig = None if p.law_free_sigma else nu
    fv = np.asarray(p.f(t, x, y, z, nu)) - np.asarray(p.f(t, xp, yp, zp, nu))
    hv = np.asarray(p.h(t, x, y, z, nu)) - np.asarray(p.h(t, xp, yp, zp, nu))
    sv = np.asarray(p.sigma(t, x, y, z, nu_sig)) - np.asarray(p.sigma(t, xp, yp, zp, nu_sig))
    a_vals = np.sum(fv * (y - yp), axis=1) + np.sum(hv * (x - xp), axis=1)
    return a_vals + np.sum(sv * (z - zp), axis=(1, 2))


@dataclass
class H1Report:
    """The gate of one problem: its constants computed from the coefficients,
    the declared ones, the smallness bound of the computed k and k', and one
    margin per declared constant, positive on its safe side."""

    variant: str
    computed: dict
    declared: dict
    margins: dict
    bound: float
    operator_ok: bool
    terminal_ok: bool
    smallness_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


# the two (base point entry, measure points) pairs a slope is read at, where an affine map's agree; the
# tolerance of that test and of a zero z block (both times the largest slope entry past 1) and of a margin
_BASES, _TOL = ((0.0, np.zeros(1)), (0.5, np.array([1.0, -2.0]))), 1e-10


def _slope(name: str, q: Callable, n: int) -> np.ndarray:
    """The symmetric S with q(w, base, cloud) = w'Sw on R^n, read by
    polarization at the rows w = e_i + e_j (i <= j) at each of
    :data:`_BASES`.  An S that depends on them is a ValueError naming the
    map, and an S that overflows a FloatingPointError."""
    i, j = np.triu_indices(n)
    w = np.eye(n)[i] + np.eye(n)[j]
    slopes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for base, cloud in _BASES:
            vals = q(w, np.full(n, base), cloud)
            diag = vals[i == j] / 4.0
            s = np.empty((n, n))
            s[i, j] = s[j, i] = (vals - diag[i] - diag[j]) / 2.0
            slopes.append(s)
    if not np.all(np.isfinite(slopes)):
        raise FloatingPointError(f"the slope of {name} overflows")
    if not np.allclose(*slopes, rtol=0.0, atol=_TOL * max(1.0, float(np.max(np.abs(slopes[0]))))):
        raise ValueError(f"{name} is not affine in its state arguments, or its slope depends on the measure")
    return slopes[0]


def _mean_slope(name: str, q: Callable, n: int) -> np.ndarray:
    """The L with q(base, points + v) = q(base, points) + L v for v in R^n
    (q's slope in the mean of the points' measure), read at each of
    :data:`_BASES` with a last column, q's move when the points collapse to
    their mean, that must be 0.  An L that depends on them or a q that moves
    is a ValueError naming the map, and an L that overflows a FloatingPointError."""
    reads = []
    with np.errstate(over="ignore", invalid="ignore"):
        for base, cloud in _BASES:
            points = np.outer(cloud, np.ones(n))
            moved = [points + e for e in np.eye(n)] + [points.mean(axis=0, keepdims=True)]
            reads.append(np.stack([q(base, pts) for pts in moved], axis=1) - q(base, points)[:, None])
    if not np.all(np.isfinite(reads)):
        raise FloatingPointError(f"the mean slope of {name} overflows")
    if not np.allclose(*reads, rtol=0.0, atol=_TOL * max(1.0, float(np.max(np.abs(reads[0]))))):
        raise ValueError(f"{name} is not affine in the mean of the measure")
    return reads[0][:, :n]


def _sup_over_z(s: np.ndarray, nv: int) -> np.ndarray | None:
    """The form on the first nv coordinates that s's sup over the rest
    leaves: the Schur complement S_vv - C' S_zz^+ C, or None when the sup
    is unbounded (S_zz not negative semidefinite, or C not in its range)."""
    lam, vec = np.linalg.eigh(s[nv:, nv:])
    cross = vec.T @ s[nv:, :nv]
    scale = _TOL * max(1.0, float(np.max(np.abs(s))))
    null = np.abs(lam) <= scale
    if np.any(lam > scale) or np.any(np.abs(cross[null]) > scale):
        return None
    neg = lam < -scale
    return s[:nv, :nv] - cross[neg].T @ (cross[neg] / lam[neg, None])


def smallness_bound(k: float, k_prime: float, variant: str) -> float:
    """Admissible strict upper bound for C_nu and C_g_nu under the variant."""
    if variant == H1:
        return min((math.sqrt(3.0) - 1.0) * k_prime, math.sqrt(3.0) / 3.0 * k)
    return min(2.0 * (math.sqrt(2.0) - 1.0) * k_prime, math.sqrt(2.0) / 2.0 * k)


def check_H1(p: MfProblem, grid: TimeGrid) -> H1Report:
    """The problem's gate: k, k', C_nu and C_g_nu computed from its
    coefficients, next to the declared ones.

    The coefficients are read once per piece of the f, h and sigma tables
    (:func:`sample_times`), and at ``grid``'s nodes too when one of them is a
    callback.  With A = w'S(t)w in w = u - u', k = min over t of -lambda_max
    of S(t) (H1) or of its sup over dz (H1prime; -inf if unbounded), and k' =
    lambda_min of sym(g's slope).  C_nu = sup over t of ||L(t)||, L(t) the
    slope of the stacked (f, h, sigma) in the mean of the joint law (a
    law-free sigma adds no rows), and C_g_nu = ||g's slope in the mean||.
    The problem passes when k, k' > 0, both C are below the smallness bound
    of (k, k'), and every declared constant is on its safe side.  A
    coefficient not affine in the state and the measure's mean raises
    ValueError; a failed check is a report.
    """
    m, d = p.dim_state, p.dim_bm
    mono, lip = p.monotonicity, p.lipschitz
    variant = mono.variant if mono is not None else (H1PRIME if p.law_free_sigma else H1)
    tables = [c for c in (p.f, p.h, getattr(p.sigma, "table", None)) if isinstance(c, AffineCoeffs)]

    def split(w):
        return w[:, :m], w[:, m : 2 * m], w[:, 2 * m :].reshape(-1, m, d)

    nodes = grid.nodes if len(tables) < 3 else []  # a callback is read at every node
    k, c_nu = math.inf, 0.0
    for t in np.union1d(nodes, sample_times(p.horizon, tables)).tolist():
        def q(w, base, cloud, t=t):
            nu = EmpiricalMeasure(np.outer(cloud, np.ones(2 * m)))
            return _a_values(p, t, split(w + base), split(np.tile(base, (len(w), 1))), nu)

        def q_mean(base, points, t=t):
            u, nu = split(np.full((1, 2 * m + m * d), base)), EmpiricalMeasure(points)
            rows = [p.f(t, *u, nu), p.h(t, *u, nu)] + ([] if p.law_free_sigma else [p.sigma(t, *u, nu)])
            return np.concatenate([np.ravel(r) for r in rows])

        s = _slope("the operator of f, h and sigma", q, 2 * m + m * d)
        if variant == H1PRIME:
            s = _sup_over_z(s, 2 * m)
        k = min(k, -math.inf if s is None else 0.0 - float(np.linalg.eigvalsh(s)[-1]))  # 0.0 - x: no -0.0
        c_nu = max(c_nu, float(np.linalg.norm(_mean_slope("the operator of f, h and sigma", q_mean, 2 * m), 2)))

    def q_g(w, base, cloud):
        mu = EmpiricalMeasure(np.outer(cloud, np.ones(m)))
        return np.sum((np.asarray(p.g(w + base, mu)) - np.asarray(p.g(base[None], mu))) * w, axis=1)

    def q_g_mean(base, points):
        return np.ravel(p.g(np.full((1, m), base), EmpiricalMeasure(points)))

    kp = float(np.linalg.eigvalsh(_slope("g", q_g, m))[0])
    computed = {"k": k, "k_prime": kp, "C_nu": c_nu, "C_g_nu": float(np.linalg.norm(_mean_slope("g", q_g_mean, m), 2))}
    declared = {**({} if mono is None else {"k": mono.k, "k_prime": mono.k_prime}),
                **({} if lip is None else {"C_nu": lip.c_nu, "C_g_nu": lip.c_g_nu})}
    # 0.0 - (how far a declaration is past its safe side): no -0.0
    margins = {key: 0.0 - (value - computed[key] if key.startswith("k") else computed[key] - value)
               for key, value in declared.items()}
    safe = {key: margins.get(key, 0.0) >= -_TOL for key in computed}
    bound = smallness_bound(k, kp, variant)
    checks = (k > 0 and safe["k"], kp > 0 and safe["k_prime"],
              max(c_nu, computed["C_g_nu"]) < bound and safe["C_nu"] and safe["C_g_nu"])
    return H1Report(variant, computed, declared, margins, bound, *checks, all(checks))


def contraction_constants(
    constants: dict,
    variant: str,
    eps: float = 1.0,
    alpha: float | None = None,
    rho: float = 1.0,
    delta: float = 1e-3,
) -> tuple[float, float]:
    """Contraction pair (lambda, theta) of the frozen-measure iteration for the constants of an H1Report.computed.

    The outer iteration's Cauchy gaps satisfy gap(n+1) <= (theta/lambda)
    gap(n); the scheme contracts when theta < lambda.  For the relaxed
    variant

        lambda = min{k' - C_g_nu eps/2, delta/2 + k - C_nu/(2 alpha)}
        theta  = max{C_g_nu/(2 eps),   delta/2 + alpha C_nu}

    and for the strong variant

        lambda = min{k' - C_g_nu eps/2, k - C_nu/(2 alpha),
                     delta (1 - rho/2) + k - C_nu/(2 alpha)}
        theta  = max{C_g_nu/(2 eps), delta/(2 rho) + 3 alpha C_nu/2}.

    ``alpha`` defaults to the variant's optimizer (sqrt2/2 or sqrt3/3).
    """
    if alpha is None:
        alpha = math.sqrt(2.0) / 2.0 if variant == H1PRIME else math.sqrt(3.0) / 3.0
    if eps <= 0 or alpha <= 0 or rho <= 0 or delta <= 0:
        raise ValueError("eps, alpha, rho and delta must be positive")
    k, kp, c_nu, c_g_nu = (constants[key] for key in ("k", "k_prime", "C_nu", "C_g_nu"))
    if variant == H1PRIME:
        lam = min(kp - c_g_nu * eps / 2.0, delta / 2.0 + k - c_nu / (2.0 * alpha))
        theta = max(c_g_nu / (2.0 * eps), delta / 2.0 + alpha * c_nu)
    else:
        lam = min(
            kp - c_g_nu * eps / 2.0,
            k - c_nu / (2.0 * alpha),
            delta * (1.0 - rho / 2.0) + k - c_nu / (2.0 * alpha),
        )
        theta = max(c_g_nu / (2.0 * eps), delta / (2.0 * rho) + 3.0 * alpha * c_nu / 2.0)
    return lam, theta


# ---------------------------------------------------------------------------
# deterministic coefficient paths and config-file problems
# ---------------------------------------------------------------------------


class PiecewiseConstant:
    """Deterministic piecewise-constant path t -> matrix/vector.

    ``breakpoints`` are the left endpoints of the pieces (finite and
    strictly increasing); a query before the first breakpoint takes the
    first piece, so the path is defined at every t.
    """

    def __init__(self, breakpoints: Sequence[float], values: Sequence):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size == 0:
            raise ValueError("breakpoints must be a nonempty 1-D sequence")
        if not (np.all(np.isfinite(bp)) and np.all(np.diff(bp) > 0)):
            raise ValueError(f"breakpoints must be finite and strictly increasing, got {bp.tolist()}")
        vals = np.asarray(values, dtype=float)
        if vals.shape[0] != bp.size:
            raise ValueError("one value per breakpoint required")
        self.breakpoints = bp
        self.values = vals

    def piece(self, t: float) -> int:
        """Index of the piece that holds t."""
        return max(int(np.searchsorted(self.breakpoints, t, side="right")) - 1, 0)

    def __call__(self, t: float) -> np.ndarray:
        return self.values[self.piece(t)]


def sample_times(horizon: float, paths) -> np.ndarray:
    """t = 0 plus every breakpoint of ``paths`` in [0, T]: a time in each piece on [0, T]."""
    ts = [p.breakpoints[(p.breakpoints >= 0.0) & (p.breakpoints <= horizon)] for p in paths]
    return np.unique(np.concatenate([[0.0], *ts]))


def coerce(value, shape: tuple, name: str) -> np.ndarray:
    """Coerce a coefficient value to ``shape``, (n,) or (rows, cols).

    A scalar fills a vector and scales the identity of a square matrix;
    a vector may be given in any layout with n entries.  Non-finite
    values are rejected.
    """
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if arr.ndim == 0:
        if len(shape) == 1:
            return np.full(shape, float(arr))
        if shape[0] == shape[1]:
            return float(arr) * np.eye(shape[0])
        raise ValueError(f"{name}: scalar given for a {shape[0]}x{shape[1]} coefficient")
    if len(shape) == 1:
        arr = arr.reshape(-1)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


def shaped_path(spec, shape: tuple, name: str) -> PiecewiseConstant:
    """Coefficient spec ``name`` as a new :class:`PiecewiseConstant` (the
    caller's table is not rewritten) with every value coerced to ``shape``.

    Accepts a :class:`PiecewiseConstant`, a scalar/array (constant path),
    or the config-file forms ``{"const": value}`` and
    ``{"piecewise": [{"t_from": t0, "value": v0}, ...]}``.  A callable is
    rejected: time-varying or random coefficients are written as
    :class:`MfProblem` callbacks.
    """
    if isinstance(spec, PiecewiseConstant):
        bp, vals = spec.breakpoints, spec.values
    elif callable(spec):
        raise ValueError(f"{name} must be a constant or a piecewise table, got a callable")
    elif isinstance(spec, dict):
        if "const" in spec:
            bp, vals = [0.0], [spec["const"]]
        elif "piecewise" in spec:
            require_json(spec["piecewise"], list, f"{name} piecewise")
            for piece in spec["piecewise"]:
                require_keys(piece, f"{name} piece", ("t_from", "value"))
            pieces = sorted(spec["piecewise"], key=lambda p: float(p["t_from"]))
            bp, vals = [float(p["t_from"]) for p in pieces], [p["value"] for p in pieces]
        else:
            raise ValueError(f"coefficient dict must contain 'const' or 'piecewise', got keys {sorted(spec)}")
    else:
        bp, vals = [0.0], [spec]
    vals = [coerce(v, shape, name) for v in vals]
    try:
        return PiecewiseConstant(bp, vals)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def map_path(fn: Callable, *paths: PiecewiseConstant) -> PiecewiseConstant:
    """The table t -> fn(p_1(t), ..., p_k(t)) on the union of the paths'
    breakpoints; ``fn`` is applied once to the stacked piece values (it
    must act on a leading piece axis)."""
    bp = np.unique(np.concatenate([p.breakpoints for p in paths]))
    pieces = [p.values[np.maximum(np.searchsorted(p.breakpoints, bp, side="right") - 1, 0)] for p in paths]
    return PiecewiseConstant(bp, fn(*pieces))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, or a * b for a one-column a: the same values without the matmul call (a zero keeps its sign)."""
    return a * b if a.shape[-1] == 1 else a @ b


class AffineCoeffs:
    """Affine coefficient table of a drift, driver, diffusion or terminal map

        c(t, x, y, z, nu) = C^x_t x + C^y_t y + C^z_t z
                          + C^mean_x_t E[xi_1] + C^mean_y_t E[xi_2] + c^const_t

    with (m, m) matrix paths for the terms x, y, z, mean_x, mean_y and an
    m-vector path for const; (xi_1, xi_2) are the X and Y halves of the
    measure's points.  Terms are coefficient specs (see
    :func:`shaped_path`) coerced once to piecewise tables of their shapes;
    absent terms, and terms that are zero everywhere, are dropped.  The z
    term assumes a one-dimensional Brownian motion (z is taken as an
    m-vector).

    The terms are compiled once per evaluation time (:meth:`at`): a
    solver evaluates the table at its grid nodes on every sweep, so after
    the first sweep a call looks up no piece.
    """

    TERMS = ("x", "y", "z", "mean_x", "mean_y", "const")

    def __init__(self, dim: int, name: str = "coeffs", x=None, y=None, z=None, mean_x=None, mean_y=None, const=None):
        self.dim = dim
        self.terms = {}
        for key, spec in zip(self.TERMS, (x, y, z, mean_x, mean_y, const)):
            if spec is None:
                continue
            path = shaped_path(spec, (dim,) if key == "const" else (dim, dim), f"{name}.{key}")
            if np.any(path.values):
                self.terms[key] = path
        self._compiled: dict[float, dict] = {}

    @property
    def breakpoints(self) -> np.ndarray:
        """The union of the terms' breakpoints: the table is constant between two of them."""
        return np.unique(np.concatenate([np.zeros(0), *(path.breakpoints for path in self.terms.values())]))

    def at(self, t: float) -> dict:
        """The terms' values at time t, {term: array}; each time is compiled
        on its first use and kept."""
        node = self._compiled.get(t)
        if node is None:
            node = self._compiled[t] = {key: path(t) for key, path in self.terms.items()}
        return node

    def __call__(self, t: float, x, y=None, z=None, nu=None) -> np.ndarray:
        """The map at time t on particle arrays x, y (P, m) and z (P, m, 1).

        Evaluated component-major, C x' + (const + mean terms)[:, None];
        the (P, m) result is the transposed view of that (m, P) array.
        """
        node = self.at(t)
        out = None
        for key, arg in (("x", x), ("y", y), ("z", None if z is None else z[:, :, 0])):
            if key in node:
                term = matmul(node[key], arg.T)
                if out is None:
                    out = term
                else:
                    out += term
        shift = []
        if "mean_x" in node or "mean_y" in node:
            mu = nu.mean()
            halves = (("mean_x", mu[: self.dim]), ("mean_y", mu[self.dim :]))
            shift += [node[key] @ half for key, half in halves if key in node]
        if "const" in node:
            shift.append(node["const"])
        if out is None:
            out = np.zeros((self.dim, len(x)))
        if shift:
            out += sum(shift)[:, None]
        return out.T


class _Diffusion:
    """The law-free diffusion (P, m, 1) of an affine table for one Brownian motion; the table stays readable."""

    def __init__(self, table: AffineCoeffs):
        self.table = table

    def __call__(self, t: float, x, y, z, nu) -> np.ndarray:
        return self.table(t, x, y, z)[:, :, None]


def affine_problem(x0, horizon: float, f: AffineCoeffs, h: AffineCoeffs, sigma: AffineCoeffs,
                   g: AffineCoeffs) -> MfProblem:
    """MfProblem of four affine tables, with a one-dimensional Brownian
    motion.  sigma must have no measure terms (it is marked law-free) and
    g(x, mu) reads its terms (x, mean_x, const) at the horizon."""
    return MfProblem(
        dim_state=f.dim,
        dim_bm=1,
        x0=x0,
        horizon=horizon,
        f=f,
        sigma=_Diffusion(sigma),
        h=h,
        g=lambda x, mu: g(horizon, x, nu=mu),
        law_free_sigma=True,
    )


# the keys each config block takes; any other key is a config error
_CONFIG_KEYS = {
    "problem": ("kind", "dim", "horizon", "x0", "f", "h", "sigma", "g", "lipschitz", "monotonicity"),
    "game": ("kind", "n", "m", "T", "x0", "A", "D", "beta", "sigma", "alpha", "C", "N", "M", "Gamma", "Q", "R"),
    "f": AffineCoeffs.TERMS,
    "h": AffineCoeffs.TERMS,
    "sigma": ("x", "y", "z", "const"),
    "g": ("x", "mean_x", "const"),
    "lipschitz": ("c_u", "c_nu", "c_g_x", "c_g_nu"),
    "monotonicity": ("k", "k_prime", "variant"),
}


def require_json(value, kind: type, name: str) -> None:
    """Reject a config value ``name`` that is not a JSON ``kind`` (dict or list), naming the JSON type given."""
    if not isinstance(value, kind):
        types = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number", float: "number"}
        given = "null" if value is None else types.get(type(value), type(value).__name__)
        raise ValueError(f"{name} must be a JSON {types[kind]}, got {given}")


def check_config_keys(block, name: str) -> None:
    """Reject a non-object block ``name``, the keys its ``_CONFIG_KEYS`` row does not list, and a non-integer
    dim, n or m."""
    require_json(block, dict, name)
    unknown = sorted(set(block) - set(_CONFIG_KEYS[name]))
    if unknown:
        law_free = " (config sigma must be law-free; measure terms are not allowed)" if name == "sigma" else ""
        raise ValueError(f"{name} supports keys {', '.join(_CONFIG_KEYS[name])}{law_free}; got {unknown}")
    for key in ("dim", "n", "m"):
        if key in block and (isinstance(block[key], bool) or not isinstance(block[key], (int, np.integer))):
            raise ValueError(f"{key} must be an integer, got {block[key]!r}")


def require_keys(block, name: str, keys) -> None:
    """Reject a non-object block, or one that lacks one of ``keys`` or sets it to null; the error names ``name``."""
    require_json(block, dict, name)
    for key in keys:
        if key not in block or block[key] is None:
            raise ValueError(f"{name} is missing required field {key!r}")


def problem_from_config(cfg: dict) -> MfProblem:
    """Build an affine MfProblem from a config dict (JSON schema).

    Schema::

        {"kind": "problem", "dim": m, "horizon": T, "x0": [...],
         "f": {"x"|"y"|"z"|"mean_x"|"mean_y"|"const": coeff, ...},
         "h": {...}, "sigma": {"x"|"y"|"z"|"const": coeff, ...},
         "g": {"x"|"mean_x"|"const": coeff, ...},
         "lipschitz": {"c_u":, "c_nu":, "c_g_x":, "c_g_nu":},      # optional
         "monotonicity": {"k":, "k_prime":, "variant":}}           # optional

    where each coeff is a number, a matrix, ``{"const": ...}`` or
    ``{"piecewise": [{"t_from":, "value":}, ...]}`` (g's are read at T).
    Config problems are restricted to a one-dimensional Brownian motion
    and a law-free sigma; anything richer needs library callbacks.
    """
    if cfg.get("kind", "problem") != "problem":
        raise ValueError(f"expected a problem config, got kind={cfg.get('kind')!r}")
    check_config_keys(cfg, "problem")
    for name in ("f", "h", "sigma", "g", "lipschitz", "monotonicity"):
        check_config_keys(cfg.get(name, {}), name)
    require_keys(cfg, "problem config", ("dim", "horizon", "x0"))
    m = int(cfg["dim"])
    horizon = float(cfg["horizon"])
    x0 = coerce(cfg["x0"], (m,), "x0")
    tables = {name: AffineCoeffs(m, name, **cfg.get(name, {})) for name in ("f", "h", "sigma", "g")}

    lip = mono = None
    if "lipschitz" in cfg:
        require_keys(cfg["lipschitz"], "lipschitz block", _CONFIG_KEYS["lipschitz"])
        lip = LipschitzProfile(*(float(cfg["lipschitz"][key]) for key in _CONFIG_KEYS["lipschitz"]))
    if "monotonicity" in cfg:
        mc = cfg["monotonicity"]
        require_keys(mc, "monotonicity block", ("k", "k_prime"))
        mono = MonotonicityProfile(float(mc["k"]), float(mc["k_prime"]), str(mc.get("variant", H1PRIME)))
    return replace(affine_problem(x0, horizon, **tables), lipschitz=lip, monotonicity=mono)
