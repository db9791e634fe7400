"""The two benchmark workloads, driven through mfbsde's public API.

Each workload builds its inputs from the seed (``setup``), runs one
operation as a sequence of timed stages (``stages``), and then checks
the outputs against its correctness gates (``check``, untimed).  Calls
go through module attributes (``lqgame.solve_nash``, not a name bound at
import), so the tracer's import-site wrappers see them.

All workloads are closed loop: one caller, one operation at a time, and
every solve runs single-threaded (``threads=1``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from mfbsde import cli, fixpoint, lqgame
from mfbsde.paths import TimeGrid

OUT = Path(__file__).resolve().parent / "out"


def digest(*arrays) -> str:
    """sha256 over the float64 bytes of the given arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=np.float64)).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# nash_example3: the `mfbsde game` flow (no file writes), criterion-7 setup
# ---------------------------------------------------------------------------


class NashExample3:
    name = "nash_example3"
    horizon = 0.25
    particles = 10_000
    deviations = 20
    magnitude = 0.1
    # seed 5 is the ROADMAP seed; 23 is a second seed, not used while
    # tuning, on which later claims can be rechecked
    reference_counts = {
        seed: {"outer_iterations": 8, "adjoint_iterations": [5, 5], "inner_sweeps": 45} for seed in (5, 23)
    }

    def setup(self, seed: int) -> dict:
        gs = lqgame.example3_game(self.horizon)
        grid = TimeGrid(self.horizon, 100)
        params = fixpoint.SchemeParams(particles=self.particles, max_outer=30, tol=1e-3)
        h2 = lqgame.check_H2(gs, grid)
        return {"seed": seed, "gs": gs, "grid": grid, "params": params, "h2": h2}

    def solve(self, inp: dict, out: dict) -> None:
        out["nash"] = lqgame.solve_nash(inp["gs"], inp["grid"], inp["params"], seed=inp["seed"], threads=1)

    def verify(self, inp: dict, out: dict) -> None:
        gs, nash, seed = inp["gs"], out["nash"], inp["seed"]
        out["reports"] = [
            lqgame.deviation_test(
                gs, nash, i, perturbations=self.deviations, magnitude=self.magnitude, seed=seed + 1 + i
            )
            for i in range(gs.players)
        ]
        # criterion 7: the particle means against the deterministic mean reduction
        out["oracle"] = lqgame.solve_mean_fbode(gs, times=inp["grid"].nodes)

    stages = (("solve", solve), ("verify", verify))

    def check(self, inp: dict, out: dict) -> tuple[dict, dict]:
        grid, nash, reports = inp["grid"], out["nash"], out["reports"]
        sol = nash.aggregated
        mean, var = nash.x_ens.values.mean(axis=0), nash.x_ens.values.var(axis=0)
        mean_err = float(np.linalg.norm(mean - out["oracle"].state_mean, axis=1).max())
        bound = 3.0 * (grid.dt + self.particles**-0.5)
        # the deviation verdict is data, not a gate: it is recorded as found
        record = {
            "converged": sol.converged,
            "outer_iterations": len(sol.history),
            "final_gap": sol.history[-1].gap_total,
            "adjoint_iterations": list(nash.adjoint_iterations),
            "mean_err": mean_err,
            "mean_err_bound": bound,
            "costs": [float(c) for c in nash.costs],
            "deviation": [
                {"player": r.player, "pass": r.passed, "min_delta": r.min_delta, "min_stderr": r.min_stderr}
                for r in reports
            ],
            "deviation_fails": sum(not r.passed for r in reports),
            "h2_passed": bool(inp["h2"].passed),
            "digest": digest(mean, var, nash.costs, [r.deltas for r in reports]),
        }
        gates = {"converged": nash.converged, "mean_err_below_bound": mean_err < bound}
        return gates, record


# ---------------------------------------------------------------------------
# toy_h1prime: `mfbsde solve` on the README's problem config
# ---------------------------------------------------------------------------

TOY_CONFIG = """{
  "kind": "problem",
  "dim": 1, "horizon": 0.25, "x0": [1.0],
  "f":     {"y": -1.0, "mean_x": 0.1},
  "h":     {"x": -1.0, "z": -0.3, "mean_y": 0.1},
  "sigma": {"x": 0.3, "const": 0.2},
  "g":     {"x": 1.0, "mean_x": 0.1},
  "lipschitz":    {"c_u": 1.0, "c_nu": 0.1, "c_g_x": 1.0, "c_g_nu": 0.1},
  "monotonicity": {"k": 1.0, "k_prime": 1.0, "variant": "H1prime"}
}"""


class ToyH1Prime:
    name = "toy_h1prime"
    reference_counts = {11: {"outer_iterations": 5, "inner_sweeps": 24}}
    flags = ["--particles", "5000", "--steps", "100", "--delta", "0.01", "--tol", "1e-5", "--max-outer", "8"]

    def setup(self, seed: int) -> dict:
        work = OUT / f"{self.name}-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "problem.json"
        config.write_text(TOY_CONFIG)
        argv = ["solve", str(config), *self.flags, "--seed", str(seed), "--out", str(work / "solve")]
        return {"seed": seed, "argv": argv, "out": work / "solve"}

    def solve(self, inp: dict, out: dict) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            out["code"] = cli.main(inp["argv"])
        for name in ("diagnostics.jsonl", "moments.csv", "report.json"):
            out[name] = (inp["out"] / name).read_text()

    stages = (("solve", solve),)

    def check(self, inp: dict, out: dict) -> tuple[dict, dict]:
        report = json.loads(out["report.json"])
        history = [json.loads(line) for line in out["diagnostics.jsonl"].splitlines()]
        theory = history[-1]["theory_ratio"]
        # criterion 3: observed contraction ratios at n = 2..5 within
        # theta/lambda + 0.15 (a solve that converges sooner has fewer)
        wanted = [rec["ratio"] for rec in history if 2 <= rec["n"] <= 5]
        record = {
            "converged": report["converged"],
            "outer_iterations": report["iterations"],
            "final_gap": report["gap_XT"] + report["gap_U"],
            "ratios_n2_5": wanted,
            "theory_ratio": theory,
            "residuals": report["residuals"],
            # criterion 8: the byte-compared outputs
            "digest": hashlib.sha256((out["diagnostics.jsonl"] + out["moments.csv"]).encode()).hexdigest(),
        }
        gates = {
            "exit_ok": out["code"] == cli.EXIT_OK and report["converged"],
            "ratios_within_theory": bool(wanted) and all(r <= theory + 0.15 for r in wanted),
        }
        return gates, record


WORKLOADS = {w.name: w for w in (NashExample3(), ToyH1Prime())}
