"""Particle solver for fully coupled mean-field backward-forward SDEs
and open-loop Nash equilibria of linear-quadratic mean-field games."""

from .backward import solve_backward
from .fixpoint import Diverged, MfSolution, SchemeParams, residual, solve
from .forward import propagate
from .lqgame import (
    GameSpec,
    NashResult,
    Nonexistence,
    build_aggregated,
    check_H2,
    deviation_test,
    example3_game,
    solve_mean_fbode,
    solve_nash,
)
from .measure import EmpiricalMeasure, w2_exact, w2_paired_bound
from .paths import BrownianBundle, PathEnsemble, TimeGrid, make_bundle
from .problem import (
    AffineCoeffs,
    LipschitzProfile,
    MfProblem,
    MonotonicityProfile,
    check_H1,
    contraction_constants,
    smallness_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AffineCoeffs",
    "BrownianBundle",
    "Diverged",
    "EmpiricalMeasure",
    "GameSpec",
    "LipschitzProfile",
    "MfProblem",
    "MfSolution",
    "MonotonicityProfile",
    "NashResult",
    "Nonexistence",
    "PathEnsemble",
    "SchemeParams",
    "TimeGrid",
    "build_aggregated",
    "check_H1",
    "check_H2",
    "contraction_constants",
    "deviation_test",
    "example3_game",
    "make_bundle",
    "propagate",
    "residual",
    "smallness_bound",
    "solve",
    "solve_backward",
    "solve_mean_fbode",
    "solve_nash",
    "w2_exact",
    "w2_paired_bound",
]
