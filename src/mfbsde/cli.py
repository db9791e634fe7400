"""Command-line front end.

Subcommands: ``check`` (condition gates), ``solve`` (frozen-measure
solver on a problem or game config), ``game`` (Nash synthesis, costs and
deviation testing) and ``counterexample`` (the built-in nonexistence
game's mean reduction).  Reports are JSON, trajectories CSV; files land
under --out with fixed names (diagnostics.jsonl, moments.csv,
report.json, deviations.json).

Exit codes: 0 success, 1 config or usage error, 2 condition failure, 3
diverged / numerical blow-up / not converged / nonexistent, 4 deviation
test failure.  The solver settings (particles, steps, seed, delta, tol,
max-outer) are flags only; a config file holds the problem or the game.
A bad flag value is a usage error, and its message names the flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fixpoint, lqgame
from .paths import PathEnsemble, TimeGrid, moments_to_csv
from .problem import check_H1, problem_from_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2
EXIT_NOT_CONVERGED = 3
EXIT_DEVIATION = 4

# the default --steps of `solve` and `game`
_STEPS = 100


class UsageError(ValueError):
    """A flag value the command cannot run with; the message names the flag as typed."""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _dump_json(payload, fileobj) -> None:
    json.dump(_jsonable(payload), fileobj, sort_keys=True, indent=2)
    fileobj.write("\n")


def _load_config(path: str) -> tuple[str, dict]:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be a JSON object, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if kind is None:
        kind = "game" if "C" in cfg else "problem"
    if kind not in ("game", "problem"):
        raise ValueError(f"config kind must be 'game' or 'problem', got {kind!r}")
    return kind, cfg


def _scheme(args, horizon: float) -> tuple[TimeGrid, fixpoint.SchemeParams]:
    """The grid and the scheme parameters of a `solve` or `game` run.  Each
    rejection message starts with the setting it rejects, which is reworded
    as the flag (``max_outer`` as ``--max-outer``)."""
    try:
        grid = TimeGrid(horizon=horizon, steps=args.steps)
        params = fixpoint.SchemeParams(particles=args.particles, delta=args.delta, tol=args.tol,
                                       max_outer=args.max_outer)
    except ValueError as exc:
        name, rest = str(exc).split(" ", 1)
        raise UsageError(f"--{name.replace('_', '-')} {rest}") from None
    return grid, params


# The failure map: exception type -> (exit code, stderr prefix, report fields).
# An entry with report fields writes report.json to the --out directory
# registered by :func:`_open_out`, if any (a divergence also writes its
# diagnostics.jsonl).
_FAILURES = {
    fixpoint.Diverged: (EXIT_NOT_CONVERGED, "diverged", {"converged": False, "diverged": True}),
    FloatingPointError: (EXIT_NOT_CONVERGED, "numerical blow-up", {"numerical_blowup": True}),
    UsageError: (EXIT_CONFIG, "usage error", None),
    ValueError: (EXIT_CONFIG, "config error", None),
    KeyError: (EXIT_CONFIG, "config error", None),
    TypeError: (EXIT_CONFIG, "config error", None),
    OSError: (EXIT_CONFIG, "io error", None),
    MemoryError: (EXIT_CONFIG, "out of memory", None),
}


def _open_out(args, report: dict) -> Path:
    """Create --out and register it, with the command's partial report,
    for the failure map in :func:`main`."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    args.registered_out = (outdir, report)
    return outdir


def _write_run(outdir: Path, history, x_ens=None, grid=None) -> None:
    """Write diagnostics.jsonl and, for a run that finished, moments.csv."""
    with open(outdir / "diagnostics.jsonl", "w") as fh:
        fixpoint.diagnostics_to_jsonl(history, fh)
    if x_ens is not None:
        with open(outdir / "moments.csv", "w", newline="") as fh:
            moments_to_csv(x_ens, grid, fh)


def _write_solution(outdir: Path, sol, prob) -> None:
    _write_run(outdir, sol.history, sol.x_ens, sol.grid)
    fwd, bwd, term = fixpoint.residual(prob, sol)
    last = sol.history[-1]
    report = {
        "converged": sol.converged,
        "iterations": len(sol.history),
        "gap_XT": last.gap_xt,
        "gap_U": last.gap_u,
        "ratio": last.ratio,
        "theory_ratio": last.theory_ratio,
        "residuals": {"forward": fwd, "backward": bwd, "terminal": term},
    }
    with open(outdir / "report.json", "w") as fh:
        _dump_json(report, fh)


def cmd_check(args) -> int:
    kind, cfg = _load_config(args.config)
    report = lqgame.check_H2(lqgame.game_from_config(cfg)) if kind == "game" else check_H1(problem_from_config(cfg))
    _dump_json(report.to_dict(), sys.stdout)
    return EXIT_OK if report.passed else EXIT_CONDITION


def _check_seed(seed: int) -> None:
    """Reject a --seed outside the Philox key range [0, 2**64) before the config is read and --out is made."""
    if not 0 <= seed < 2**64:
        raise UsageError(f"--seed must be >= 0, got {seed}" if seed < 0 else
                         f"--seed must be in [0, 2**64), got {seed}")


def cmd_solve(args) -> int:
    _check_seed(args.seed)
    kind, cfg = _load_config(args.config)
    prob = problem_from_config(cfg) if kind == "problem" else lqgame.build_aggregated(lqgame.game_from_config(cfg))
    grid, params = _scheme(args, prob.horizon)
    outdir = _open_out(args, {})
    sol = fixpoint.solve(prob, grid, params, seed=args.seed)
    _write_solution(outdir, sol, prob)
    print(f"converged={sol.converged} after {len(sol.history)} outer iterations; outputs in {outdir}")
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def cmd_game(args) -> int:
    _check_seed(args.seed)
    if args.deviations < 1:
        raise UsageError(f"--deviations must be >= 1, got {args.deviations}")
    for flag, v in (("--deviation-magnitude", args.deviation_magnitude), ("--corrupt-control", args.corrupt_control)):
        if v is not None and not math.isfinite(v):
            raise UsageError(f"{flag} must be finite, got {v}")
    kind, cfg = _load_config(args.config)
    if kind != "game":
        raise ValueError("the game command needs a game config")
    gs = lqgame.game_from_config(cfg)
    grid, params = _scheme(args, gs.horizon)
    report = {}
    outdir = _open_out(args, report)  # registered first, so a gate that blows up still writes report.json
    report["h2"] = lqgame.check_H2(gs, grid).to_dict()
    nash = lqgame.solve_nash(gs, grid, params, seed=args.seed)
    if args.corrupt_control is not None:
        # test hook: shift player 0's control and re-evaluate
        corrupted = list(nash.controls)
        corrupted[0] = PathEnsemble(corrupted[0].values + args.corrupt_control)
        nash = dataclasses.replace(nash, controls=corrupted)
    reports = [
        lqgame.deviation_test(
            gs, nash, i,
            perturbations=args.deviations,
            magnitude=args.deviation_magnitude,
            seed=args.seed + 1 + i,
        )
        for i in range(gs.players)
    ]

    _write_run(outdir, nash.aggregated.history, nash.x_ens, grid)
    with open(outdir / "report.json", "w") as fh:
        _dump_json({**report, "nash": nash.summary()}, fh)
    with open(outdir / "deviations.json", "w") as fh:
        _dump_json([r.to_dict() for r in reports], fh)

    for i, (c, s) in enumerate(zip(nash.costs, nash.cost_stderrs)):
        print(f"player {i}: J = {c:.6g} +- {s:.2g}")
    if not nash.converged:
        return EXIT_NOT_CONVERGED
    if not all(r.passed for r in reports):
        failed = [r.player for r in reports if not r.passed]
        print(f"deviation test failed for players {failed}", file=sys.stderr)
        return EXIT_DEVIATION
    return EXIT_OK


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"--T-sweep expects a:b:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise UsageError(f"--T-sweep expects finite a <= b and step > 0, got {spec!r}")
    span = (hi - lo) / step
    if not math.isfinite(span):
        raise UsageError(f"--T-sweep step is too small for its range, got {spec!r}")
    # floored with a relative tolerance, so 0:0.3:0.1 still ends at 0.3; a row never passes b
    return np.minimum(lo + step * np.arange(math.floor(span * (1.0 + 1e-9)) + 1), hi)


def cmd_counterexample(args) -> int:
    if args.t_sweep:
        values = _parse_sweep(args.t_sweep)
        if values[0] < 0:
            raise UsageError("--T-sweep horizons must be nonnegative")
        print("T,det")
        for t in values:
            if t == 0.0:
                det = 1.0  # zero-length boundary map is the identity
            else:
                det = lqgame.solve_mean_fbode(lqgame.example3_game(float(t)), times=[0.0]).det  # only det is printed
            print(f"{float(t)!r},{float(det)!r}")
        return EXIT_OK
    if args.T is None:
        raise UsageError("provide --T or --T-sweep")
    if not 0 < args.T < math.inf:
        raise UsageError(f"--T must be positive and finite, got {args.T}")
    result = lqgame.solve_mean_fbode(lqgame.example3_game(args.T))
    payload = {"T": args.T, **result.to_dict()}
    _dump_json(payload, sys.stdout)
    return EXIT_OK if payload["exists"] else EXIT_NOT_CONVERGED


def _add_solver_flags(sub) -> None:
    sp = fixpoint.SchemeParams
    sub.add_argument("--particles", type=int, default=sp.particles, help="particle count (default %(default)s)")
    sub.add_argument("--steps", type=int, default=_STEPS, help="time steps (default %(default)s)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default %(default)s)")
    sub.add_argument("--delta", type=float, default=sp.delta,
                     help="damping weight of the iteration (default %(default)s)")
    sub.add_argument("--tol", type=float, default=sp.tol, help="L2 stopping threshold (default %(default)s)")
    sub.add_argument("--max-outer", dest="max_outer", type=int, default=sp.max_outer,
                     help="outer iteration cap (default %(default)s)")
    sub.add_argument("--out", default="out", help="output directory (default ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="Mean-field BFSDE solver and LQ mean-field game equilibria",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run the condition gates on a config")
    p_check.add_argument("config")
    p_check.set_defaults(handler=cmd_check)

    p_solve = subs.add_parser("solve", help="solve the (aggregated) mean-field BFSDE")
    p_solve.add_argument("config")
    _add_solver_flags(p_solve)
    p_solve.set_defaults(handler=cmd_solve)

    p_game = subs.add_parser("game", help="synthesize and verify a Nash equilibrium")
    p_game.add_argument("config")
    _add_solver_flags(p_game)
    p_game.add_argument("--deviations", type=int, default=20, help="deviations per player (default 20)")
    p_game.add_argument("--deviation-magnitude", type=float, default=0.1,
                        help="deviation scale (default 0.1)")
    p_game.add_argument("--corrupt-control", type=float, default=None,
                        help="test hook: offset added to player 0's control before verification")
    p_game.set_defaults(handler=cmd_game)

    p_ce = subs.add_parser("counterexample", help="mean reduction of the built-in nonexistence game")
    p_ce.add_argument("--T", type=float, default=None, help="horizon to analyze")
    p_ce.add_argument("--T-sweep", dest="t_sweep", default=None,
                      help="a:b:step sweep; prints CSV rows (T, det)")
    p_ce.set_defaults(handler=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage or the help; a usage error is a config error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except tuple(_FAILURES) as exc:
        code, prefix, fields = next(row for kind, row in _FAILURES.items() if isinstance(exc, kind))
        registered = getattr(args, "registered_out", None)
        if fields is not None and registered is not None:
            outdir, report = registered
            if isinstance(exc, fixpoint.Diverged):
                _write_run(outdir, exc.history)
            with open(outdir / "report.json", "w") as fh:
                _dump_json({**report, **fields, "message": str(exc)}, fh)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
