"""Problem declaration for fully coupled mean-field backward-forward SDEs.

An :class:`MfProblem` bundles four :class:`AffineCoeffs` tables

    X_t = x0 + int_0^t f(s, X, Y, Z, nu_s) ds + int_0^t sigma(s, X, Y, Z[, nu_s]) dW_s
    Y_t = g(X_T, mu_T) - int_t^T h(s, X, Y, Z, nu_s) ds - int_t^T Z_s dW_s

driven by one Brownian motion, where nu_s is the joint law of (X_s, Y_s)
and mu_T the law of X_T, plus optional declared Lipschitz and monotonicity
constants.  Tables are evaluated across the particle axis: x, y and z are
(m, P) blocks, and a table reads a law only through its mean, the 2m-vector
(E[X_s], E[Y_s]) (g reads its first m entries, E[X_T]).

This module also gates the coupled-coefficient dissipativity functional

    A(t, u, u', nu) = (f(t,u,nu) - f(t,u',nu)) . (y - y')
                    + (h(t,u,nu) - h(t,u',nu)) . (x - x')
                    + (sigma(t,u,nu) - sigma(t,u',nu)) . (z - z').

Its one problem gate, :func:`check_H1`, reads from the tables the best
constants of the one-sided bounds

    A <= -k (|x-x'|^2 + |y-y'|^2 + |z-z'|^2)        (strong variant, "H1")
    A <= -k (|x-x'|^2 + |y-y'|^2)                   (relaxed variant, "H1prime")
    (g(x,nu) - g(x',nu)) . (x - x') >= k' |x-x'|^2

and the mean-field Lipschitz constants C_nu and C_g_nu, and gates them with
the smallness condition under which the measure-freezing iteration
contracts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "LipschitzProfile",
    "MonotonicityProfile",
    "MfProblem",
    "H1Report",
    "check_H1",
    "smallness_bound",
    "contraction_constants",
    "PiecewiseConstant",
    "shaped_path",
    "map_path",
    "AffineCoeffs",
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


@dataclass(frozen=True)
class MfProblem:
    """The four coefficient tables and the metadata of one mean-field BFSDE.

    g is read at the horizon, g(T, x, mean=(E[X_T], ...)).  sigma is law-free
    (``law_free_sigma``) when it has no mean term; the solver then uses the
    relaxed iteration (no delta-perturbation of the diffusion), and an
    H1prime profile needs it.  The table invariants are checked on
    construction (:meth:`spot_check`); the problem is frozen, so a changed
    copy comes from ``dataclasses.replace``, which checks them again.
    """

    x0: np.ndarray
    horizon: float
    f: AffineCoeffs
    h: AffineCoeffs
    sigma: AffineCoeffs
    g: AffineCoeffs
    lipschitz: LipschitzProfile | None = None
    monotonicity: MonotonicityProfile | None = None

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if x0.ndim != 1 or not x0.size or not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be a nonempty finite vector, got shape {x0.shape}")
        object.__setattr__(self, "x0", x0)
        self.spot_check()
        if self.monotonicity is not None and self.monotonicity.variant == H1PRIME and not self.law_free_sigma:
            raise ValueError(f'variant "{H1PRIME}" needs a law-free sigma; declare variant="{H1}"')

    @property
    def dim_state(self) -> int:
        return self.f.dim

    @property
    def law_free_sigma(self) -> bool:
        return not {"mean_x", "mean_y"} & set(self.sigma.terms)

    def spot_check(self) -> None:
        """The table invariants: every coefficient is an :class:`AffineCoeffs`
        of dimension len(x0), and g has only x, mean_x and const terms.
        Raises ValueError naming the first coefficient that breaks one."""
        for name in ("f", "h", "sigma", "g"):
            table = getattr(self, name)
            if not isinstance(table, AffineCoeffs):
                raise ValueError(f"{name} must be an AffineCoeffs table, got {type(table).__name__}")
            if table.dim != len(self.x0):
                raise ValueError(f"{name} has dimension {table.dim}, but x0 has {len(self.x0)} entries")
        extra = sorted(set(self.g.terms) - {"x", "mean_x", "const"})
        if extra:
            raise ValueError(f"g supports the terms x, mean_x and const; got {extra}")


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


# the tolerance of a zero z block (times the largest form entry past 1) and of a margin
_TOL = 1e-10


def _sym(name: str, mat: np.ndarray) -> np.ndarray:
    """The symmetric part of a slope matrix; one that overflows is a FloatingPointError naming the map."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = (mat + mat.T) / 2.0
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(f"the slope of {name} overflows")
    return s


def _blocks(table: AffineCoeffs, t: float, keys) -> np.ndarray:
    """The table's matrices of ``keys`` at time t side by side, an absent term as 0."""
    node, zero = table.at(t), np.zeros((table.dim, table.dim))
    return np.hstack([node.get(key, zero) for key in keys])


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


def check_H1(p: MfProblem) -> H1Report:
    """The problem's gate: k, k', C_nu and C_g_nu read from its tables,
    next to the declared ones.

    The f, h and sigma tables are read once per piece (:func:`sample_times`).
    With w = (dx, dy, dz), A = w'S(t)w for S(t) = sym([[H_x, H_y, H_z], [F_x,
    F_y, F_z], [Sigma_x, Sigma_y, Sigma_z]]); k = min over t of -lambda_max of
    S(t) (H1) or of its sup over dz (H1prime; -inf if unbounded), and k' =
    lambda_min(sym(G_x(T))).  C_nu = sup over t of ||L(t)||, L(t) =
    [[F_mean_x, F_mean_y], [H_mean_x, H_mean_y]] plus the row [Sigma_mean_x,
    Sigma_mean_y] when sigma is not law-free, and C_g_nu = ||G_mean_x(T)||.
    The problem passes when k, k' > 0, both C are below the smallness bound
    of (k, k'), and every declared constant is on its safe side.  A slope
    whose symmetric part overflows raises FloatingPointError; a failed check
    is a report.
    """
    m = p.dim_state
    mono, lip = p.monotonicity, p.lipschitz
    variant = mono.variant if mono is not None else (H1PRIME if p.law_free_sigma else H1)
    rows = (p.f, p.h) if p.law_free_sigma else (p.f, p.h, p.sigma)
    k, c_nu = math.inf, 0.0
    for t in sample_times(p.horizon, (p.f, p.h, p.sigma)).tolist():
        form = np.vstack([_blocks(table, t, ("x", "y", "z")) for table in (p.h, p.f, p.sigma)])
        s = _sym("the operator of f, h and sigma", form)
        if variant == H1PRIME:
            s = _sup_over_z(s, 2 * m)
        k = min(k, -math.inf if s is None else 0.0 - float(np.linalg.eigvalsh(s)[-1]))  # 0.0 - x: no -0.0
        coupling = np.vstack([_blocks(table, t, ("mean_x", "mean_y")) for table in rows])
        c_nu = max(c_nu, float(np.linalg.norm(coupling, 2)))

    kp = float(np.linalg.eigvalsh(_sym("g", _blocks(p.g, p.horizon, ("x",))))[0])
    c_g_nu = float(np.linalg.norm(_blocks(p.g, p.horizon, ("mean_x",)), 2))
    computed = {"k": k, "k_prime": kp, "C_nu": c_nu, "C_g_nu": c_g_nu}
    declared = {**({} if mono is None else {"k": mono.k, "k_prime": mono.k_prime}),
                **({} if lip is None else {"C_nu": lip.c_nu, "C_g_nu": lip.c_g_nu})}
    # 0.0 - (how far a declaration is past its safe side): no -0.0
    margins = {key: 0.0 - (value - computed[key] if key.startswith("k") else computed[key] - value)
               for key, value in declared.items()}
    safe = {key: margins.get(key, 0.0) >= -_TOL for key in computed}
    bound = smallness_bound(k, kp, variant)
    checks = (k > 0 and safe["k"], kp > 0 and safe["k_prime"],
              max(c_nu, c_g_nu) < bound and safe["C_nu"] and safe["C_g_nu"])
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
    rejected: every coefficient is deterministic and piecewise constant.
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

        c(t, x, y, z, mean) = C^x_t x + C^y_t y + C^z_t z
                            + C^mean_x_t E[X_t] + C^mean_y_t E[Y_t] + c^const_t

    with (m, m) matrix paths for the terms x, y, z, mean_x, mean_y and an
    m-vector path for const; the law enters only through ``mean`` =
    (E[X_t], E[Y_t]), a row of a flow table.  Terms are coefficient specs (see
    :func:`shaped_path`) coerced once to piecewise tables of their shapes;
    absent terms, and terms that are zero everywhere, are dropped.  With
    one Brownian motion, z is an m-vector.

    The terms are compiled once per evaluation time (:meth:`at`), and
    stacked once per array of times (:meth:`affine`): a solver evaluates
    the table at its grid nodes on every sweep, so after the first sweep a
    call looks up no piece.
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
        self._stacks: dict[bytes, dict] = {}

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

    def affine(self, times, means=None) -> tuple[np.ndarray, np.ndarray]:
        """The map at each of ``times`` and the matching row of ``means`` (rows (E[X], E[Y]) of a flow table) as
        (slopes, shifts): the (n, m, 3m) matrices [C^x C^y C^z] side by side, absent terms 0, and the (n, m)
        vectors c^const + C^mean_x E[X] + C^mean_y E[Y], so that c(t_i, x, y, z, mean_i) = slopes_i [x; y; z] +
        shifts_i.  The term stacks are built on the first call with an array of times and kept; callers do not
        write to them."""
        times = np.asarray(times, dtype=float)
        stack = self._stacks.get(times.tobytes())
        if stack is None:
            ts = times.tolist()
            stack = {key: np.array([self.at(t)[key] for t in ts]) for key in ("const", "mean_x", "mean_y")
                     if key in self.terms}
            stack["slopes"] = np.array([_blocks(self, t, ("x", "y", "z")) for t in ts])
            self._stacks[times.tobytes()] = stack
        shifts = stack["const"] if "const" in stack else np.zeros((len(times), self.dim))
        for key, half in (("mean_x", slice(None, self.dim)), ("mean_y", slice(self.dim, None))):
            if key in stack:
                shifts = shifts + np.einsum("kij,kj->ki", stack[key], np.asarray(means)[:, half])
        return stack["slopes"], shifts

    def __call__(self, t: float, x, y=None, z=None, mean=None) -> np.ndarray:
        """The map at time t on the solver's (m, P) blocks x, then y and z when given, and the means ``mean`` =
        (E[X], E[Y]): the (m, P) block slopes [x; y; z] + shift of :meth:`affine`."""
        slopes, shift = self.affine([t], None if mean is None else [mean])
        args = [a for a in (x, y, z) if a is not None]
        return slopes[0, :, : len(args) * self.dim] @ np.concatenate(args) + shift[0, :, None]


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
    """Reject a config value ``name`` that is not a JSON ``kind`` (dict, list or float: a number), naming its type."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number if kind is float else isinstance(value, kind)):
        types = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number", float: "number"}
        given = "null" if value is None else types.get(type(value), type(value).__name__)
        raise ValueError(f"{name} must be a JSON {types[kind]}, got {given}")


def require_numbers(value, name: str) -> None:
    """Reject a config value ``name`` unless each entry of its arrays and objects is a JSON number, naming the
    entry (``x0[1]``, ``h.x.piecewise[0].t_from``) and the JSON type given; a coefficient's ``piecewise`` must
    be an array of objects first, as :func:`shaped_path` reads it."""
    if isinstance(value, dict) and "piecewise" in value:
        require_json(value["piecewise"], list, f"{name} piecewise")
        for piece in value["piecewise"]:
            require_json(piece, dict, f"{name} piece")
    if isinstance(value, (dict, list)):
        for key, v in value.items() if isinstance(value, dict) else enumerate(value):
            require_numbers(v, f"{name}.{key}" if isinstance(value, dict) else f"{name}[{key}]")
    else:
        require_json(value, float, name)


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
    Every number in it (horizon, x0, coefficient values, t_from and the
    declared constants) must be a JSON number.  A config sigma is
    law-free; a library :class:`MfProblem` may give sigma mean terms.
    """
    if cfg.get("kind", "problem") != "problem":
        raise ValueError(f"expected a problem config, got kind={cfg.get('kind')!r}")
    check_config_keys(cfg, "problem")
    for name in ("f", "h", "sigma", "g", "lipschitz", "monotonicity"):
        check_config_keys(cfg.get(name, {}), name)
    require_keys(cfg, "problem config", ("dim", "horizon", "x0"))
    for key in ("horizon", "x0", "f", "h", "sigma", "g", "lipschitz"):
        require_numbers(cfg.get(key, {}), key)
    require_numbers({key: v for key, v in cfg.get("monotonicity", {}).items() if key != "variant"}, "monotonicity")
    m = int(cfg["dim"])
    if m < 1:
        raise ValueError(f"dim must be >= 1, got {m}")
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
    return MfProblem(x0, horizon, **tables, lipschitz=lip, monotonicity=mono)
