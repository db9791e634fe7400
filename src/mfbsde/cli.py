"""Command-line front end.

Subcommands: ``check`` (condition gates), ``solve`` (frozen-measure
solver on a problem or game config), ``game`` (Nash synthesis, costs and
deviation testing) and ``counterexample`` (the built-in nonexistence
game's mean reduction).  Reports are JSON, trajectories CSV; files land
under --out with fixed names (diagnostics.jsonl, moments.csv,
report.json, deviations.json).

Exit codes: 0 success, 1 config or usage error, 2 condition failure, 3
diverged / numerical blow-up / not converged / nonexistent, 4 deviation
test failure.  Solver flags override config-file "solver" entries, which
override built-in defaults.
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
from .backward import RegressionBasis
from .paths import TimeGrid, moments_to_csv
from .problem import check_H1, check_smallness, problem_from_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONDITION = 2
EXIT_NOT_CONVERGED = 3
EXIT_DEVIATION = 4

# solver settings that SchemeParams holds (and whose defaults it owns); the
# config "solver" block also takes the grid's steps and the run's seed
_SCHEME_KEYS = ("particles", "delta", "tol", "max_outer", "inner_sweeps")
_SOLVER_KEYS = ("steps", "seed") + _SCHEME_KEYS


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


def _solver_settings(args, cfg: dict) -> dict:
    """Resolve solver settings: flag > config 'solver' block > default."""
    block = cfg.get("solver", {})
    unknown = set(block) - set(_SOLVER_KEYS)
    if unknown:
        raise ValueError(f"unknown solver config keys: {sorted(unknown)}")
    defaults = {"steps": 100, "seed": 0, **{key: getattr(fixpoint.SchemeParams, key) for key in _SCHEME_KEYS}}
    out = {}
    for key, dflt in defaults.items():
        flag = getattr(args, key, None)
        out[key] = flag if flag is not None else block.get(key, dflt)
    return out


def _build_problem(kind: str, cfg: dict):
    if kind == "problem":
        return problem_from_config(cfg)
    gs = lqgame.game_from_config(cfg)
    return lqgame.build_aggregated(gs)


def _scheme_params(args, settings: dict) -> fixpoint.SchemeParams:
    return fixpoint.SchemeParams(
        **{k: settings[k] for k in _SCHEME_KEYS}, basis=RegressionBasis(degree=args.basis_degree)
    )


def _write_diverged(outdir: Path, exc: fixpoint.Diverged, report: dict) -> int:
    """Write a diverged solve's history and report; returns the exit code."""
    with open(outdir / "diagnostics.jsonl", "w") as fh:
        fixpoint.diagnostics_to_jsonl(exc.history, fh)
    with open(outdir / "report.json", "w") as fh:
        _dump_json({**report, "converged": False, "diverged": True, "message": str(exc)}, fh)
    print(f"diverged: {exc}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _write_blowup(outdir: Path, exc: FloatingPointError, report: dict) -> int:
    """Write the report of a run that overflowed; returns the exit code."""
    with open(outdir / "report.json", "w") as fh:
        _dump_json({**report, "numerical_blowup": True, "message": str(exc)}, fh)
    print(f"numerical blow-up: {exc}", file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _write_solution(outdir: Path, sol, prob) -> None:
    with open(outdir / "diagnostics.jsonl", "w") as fh:
        fixpoint.diagnostics_to_jsonl(sol.history, fh)
    with open(outdir / "moments.csv", "w", newline="") as fh:
        moments_to_csv(sol.x_ens, sol.grid, fh)
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
    if kind == "game":
        gs = lqgame.game_from_config(cfg)
        settings = _solver_settings(args, cfg)
        grid = TimeGrid(horizon=gs.horizon, steps=settings["steps"])
        report = lqgame.check_H2(gs, grid)
        _dump_json(report.to_dict(), sys.stdout)
        return EXIT_OK if report.passed else EXIT_CONDITION
    prob = problem_from_config(cfg)
    if prob.lipschitz is None or prob.monotonicity is None:
        raise ValueError("problem config must declare 'lipschitz' and 'monotonicity' blocks to be checked")
    smallness = check_smallness(prob.lipschitz, prob.monotonicity)
    probe = check_H1(prob, samples=args.samples, rng_seed=args.seed or 0)
    _dump_json({"smallness": smallness.to_dict(), "monotonicity": probe.to_dict()}, sys.stdout)
    return EXIT_OK if (smallness.passed and probe.passed) else EXIT_CONDITION


def cmd_solve(args) -> int:
    kind, cfg = _load_config(args.config)
    settings = _solver_settings(args, cfg)
    prob = _build_problem(kind, cfg)
    grid = TimeGrid(horizon=prob.horizon, steps=settings["steps"])
    params = _scheme_params(args, settings)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        sol = fixpoint.solve(prob, grid, params, seed=settings["seed"])
    except fixpoint.Diverged as exc:
        return _write_diverged(outdir, exc, {})
    except FloatingPointError as exc:
        return _write_blowup(outdir, exc, {})
    _write_solution(outdir, sol, prob)
    print(f"converged={sol.converged} after {len(sol.history)} outer iterations; outputs in {outdir}")
    return EXIT_OK if sol.converged else EXIT_NOT_CONVERGED


def cmd_game(args) -> int:
    if args.deviations < 1:
        raise ValueError(f"--deviations must be >= 1, got {args.deviations}")
    kind, cfg = _load_config(args.config)
    if kind != "game":
        raise ValueError("the game command needs a game config")
    gs = lqgame.game_from_config(cfg)
    settings = _solver_settings(args, cfg)
    grid = TimeGrid(horizon=gs.horizon, steps=settings["steps"])
    h2 = lqgame.check_H2(gs, grid)
    params = _scheme_params(args, settings)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        nash = lqgame.solve_nash(gs, grid, params, seed=settings["seed"])
        if args.corrupt_control is not None:
            # test hook: shift player 0's control and re-evaluate
            corrupted = list(nash.controls)
            corrupted[0] = dataclasses.replace(
                corrupted[0], values=corrupted[0].values + args.corrupt_control
            )
            nash = dataclasses.replace(nash, controls=corrupted)
        reports = [
            lqgame.deviation_test(
                gs, nash, i,
                perturbations=args.deviations,
                magnitude=args.deviation_magnitude,
                seed=settings["seed"] + 1 + i,
            )
            for i in range(gs.players)
        ]
    except fixpoint.Diverged as exc:
        return _write_diverged(outdir, exc, {"h2": h2.to_dict()})
    except FloatingPointError as exc:
        return _write_blowup(outdir, exc, {"h2": h2.to_dict()})

    with open(outdir / "diagnostics.jsonl", "w") as fh:
        fixpoint.diagnostics_to_jsonl(nash.aggregated.history, fh)
    with open(outdir / "moments.csv", "w", newline="") as fh:
        moments_to_csv(nash.x_ens, grid, fh)
    with open(outdir / "report.json", "w") as fh:
        _dump_json({"h2": h2.to_dict(), "nash": nash.summary()}, fh)
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
        raise ValueError(f"--T-sweep expects a:b:step, got {spec!r}") from exc
    if step <= 0 or hi < lo:
        raise ValueError(f"--T-sweep expects a <= b and step > 0, got {spec!r}")
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def cmd_counterexample(args) -> int:
    if args.t_sweep:
        values = _parse_sweep(args.t_sweep)
        if values[0] < 0:
            raise ValueError("--T-sweep horizons must be nonnegative")
        print("T,det")
        for t in values:
            if t == 0.0:
                det = 1.0  # zero-length boundary map is the identity
            else:
                det = lqgame.solve_mean_fbode(lqgame.example3_game(float(t))).det
            print(f"{float(t)!r},{float(det)!r}")
        return EXIT_OK
    if args.T is None:
        raise ValueError("provide --T or --T-sweep")
    if args.T <= 0:
        raise ValueError(f"--T must be positive, got {args.T}")
    result = lqgame.solve_mean_fbode(lqgame.example3_game(args.T))
    payload = {"T": args.T, **result.to_dict()}
    _dump_json(payload, sys.stdout)
    return EXIT_OK if payload["exists"] else EXIT_NOT_CONVERGED


def _add_solver_flags(sub) -> None:
    sp = fixpoint.SchemeParams
    sub.add_argument("--particles", type=int, default=None, help=f"particle count (default {sp.particles})")
    sub.add_argument("--steps", type=int, default=None, help="time steps (default 100)")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sub.add_argument("--delta", type=float, default=None,
                     help=f"damping weight of the iteration (default {sp.delta:g})")
    sub.add_argument("--tol", type=float, default=None, help=f"L2 stopping threshold (default {sp.tol:g})")
    sub.add_argument("--max-outer", dest="max_outer", type=int, default=None,
                     help=f"outer iteration cap (default {sp.max_outer})")
    sub.add_argument("--inner-sweeps", dest="inner_sweeps", type=int, default=None,
                     help=f"minimum forward/backward alternations per outer step (default {sp.inner_sweeps})")
    sub.add_argument("--basis-degree", type=int, default=1, choices=(0, 1, 2),
                     help="regression basis degree (default 1)")
    sub.add_argument("--out", default="out", help="output directory (default ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="Mean-field BFSDE solver and LQ mean-field game equilibria",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run the condition gates on a config")
    p_check.add_argument("config")
    p_check.add_argument("--steps", type=int, default=None, help="grid steps for time-dependent checks")
    p_check.add_argument("--samples", type=int, default=4000, help="monotonicity probe count")
    p_check.add_argument("--seed", type=int, default=None)
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
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
