import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfbsde import cli
from conftest import TOY_PROBLEM
from oracles import example3_boundary_det


SCALAR_GAME = {
    "kind": "game",
    "n": 1, "m": 1, "T": 1.0, "x0": [1.0],
    "A": {"const": [[0.3]]},
    "sigma": {"const": [[0.2]]},
    "alpha": {"const": [0.1]},
    "C": [[[1.0]]], "N": [[[1.0]]],
    "Q": [[[1.0]]], "M": [{"const": [[1.0]]}],
}

# the scalar game of the CI workflow's exit-code and byte-identity steps
CI_SCALAR_GAME = {
    "kind": "game", "n": 1, "m": 1, "T": 1.0, "x0": [1.0],
    "A": [[0.3]], "C": [[[1.0]]], "N": [[[1.0]]], "Q": [[[1.0]]], "M": [[[1.0]]],
}

EXAMPLE3 = {
    "kind": "game",
    "n": 2, "m": 2, "T": 1.0, "x0": [1.0, 2.0],
    "A": {"const": [[1.0, 0.0], [0.0, 1.0]]},
    "D": {"const": [[-1.0, 0.0], [0.0, -1.0]]},
    "alpha": {"const": [1.0, 1.0]},
    "C": [[[1.0], [-2.0]], [[-2.0], [1.0]]],
    "N": [[[1.0]], [[1.0]]],
    "Q": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
}


def seed4_matrix():
    """sym(R) and skew(R) of R = randn(4x4) from ``default_rng(4)``."""
    raw = np.random.default_rng(4).standard_normal((4, 4))
    return (raw + raw.T) / 2, (raw - raw.T) / 2


def block_problem(k):
    """2-D problem with A = -w'Sw, S = sym(R) + 3I, declaring ``k`` and
    k' = 1; its exact k is lambda_min(S) = 1.60710 and its exact k' is 1."""
    s = seed4_matrix()[0] + 3.0 * np.eye(4)
    return {
        "kind": "problem", "dim": 2, "horizon": 1.0, "x0": [0.0, 0.0],
        "f": {"x": (-s[2:, :2]).tolist(), "y": (-s[2:, 2:]).tolist()},
        "h": {"x": (-s[:2, :2]).tolist(), "y": (-s[:2, 2:]).tolist()},
        "sigma": {"const": 0.4}, "g": {"x": 1.0},
        "lipschitz": {"c_u": 5.0, "c_nu": 0.0, "c_g_x": 1.0, "c_g_nu": 0.0},
        "monotonicity": {"k": k, "k_prime": 1.0},
    }


def terminal_problem(k_prime_offset):
    """4-D problem with k = 1 and g.x = sym(R) + 3I + 0.3 skew(R), declared
    k' = lambda_min(sym(g.x)) + offset."""
    sym, skew = seed4_matrix()
    gx = sym + 3.0 * np.eye(4) + 0.3 * skew
    k_prime = float(np.linalg.eigvalsh(sym + 3.0 * np.eye(4))[0]) + k_prime_offset
    return {
        "kind": "problem", "dim": 4, "horizon": 1.0, "x0": [0.0] * 4,
        "f": {"y": -1.0}, "h": {"x": -1.0}, "sigma": {"const": 0.2}, "g": {"x": gx.tolist()},
        "lipschitz": {"c_u": 1.0, "c_nu": 0.0, "c_g_x": 5.0, "c_g_nu": 0.0},
        "monotonicity": {"k": 1.0, "k_prime": k_prime},
    }


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCheckCommand:
    def test_passing_game_exits_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SCALAR_GAME)
        assert cli.main(["check", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    def test_non_finite_coefficient_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SCALAR_GAME, "A": float("nan")})
        assert cli.main(["check", cfg]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "A must be finite" in err[0]

    def test_counterexample_reports_violations(self, tmp_path, capsys):
        cfg = write_config(tmp_path, EXAMPLE3)
        assert cli.main(["check", cfg]) == cli.EXIT_CONDITION
        report = json.loads(capsys.readouterr().out)
        assert report["computed"]["k_prime"] == pytest.approx(-1.0, abs=1e-10)
        assert report["computed"]["C_nu"] == pytest.approx(1.0)
        assert report["computed"]["C_nu"] >= report["bound"]
        assert report["pass"] is False

    def test_problem_config_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        assert cli.main(["check", cfg]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True and report["smallness_ok"] is True
        assert report["computed"] == pytest.approx({"k": 1.0, "k_prime": 1.0, "C_nu": 0.1, "C_g_nu": 0.1}, abs=1e-12)

    def test_problem_without_declarations_is_checked(self, tmp_path, capsys):
        # the declaration blocks are optional claims: the gate runs on the computed constants
        payload = {key: value for key, value in TOY_PROBLEM.items() if key not in ("lipschitz", "monotonicity")}
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["declared"] == {} and report["margins"] == {}
        assert report["computed"] == pytest.approx({"k": 1.0, "k_prime": 1.0, "C_nu": 0.1, "C_g_nu": 0.1}, abs=1e-12)

    def test_mean_coupling_above_the_bound_exits_2(self, tmp_path, capsys):
        # declared C_nu = C_g_nu = 0 used to be gated as typed, against a bound of 0.707
        payload = dict(TOY_PROBLEM, f={"y": -1.0, "mean_x": 5.0}, g={"x": 1.0, "mean_x": 3.0},
                       lipschitz={**TOY_PROBLEM["lipschitz"], "c_nu": 0.0, "c_g_nu": 0.0})
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONDITION
        report = json.loads(capsys.readouterr().out)
        assert report["computed"]["C_nu"] == pytest.approx(5.0, abs=1e-12)
        assert report["computed"]["C_g_nu"] == pytest.approx(3.0, abs=1e-12)
        assert report["margins"]["C_nu"] == pytest.approx(-5.0, abs=1e-12)
        assert report["bound"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert report["smallness_ok"] is False and report["operator_ok"] is True and report["terminal_ok"] is True

    def test_piece_between_grid_nodes_is_read(self, tmp_path, capsys):
        # h.x = +0.5 on [0.101, 0.102), between the nodes 0.1 and 0.1025 of the default 100-step grid
        pieces = [{"t_from": t, "value": v} for t, v in ((0.0, -1.0), (0.101, 0.5), (0.102, -1.0))]
        payload = dict(TOY_PROBLEM, h={**TOY_PROBLEM["h"], "x": {"piecewise": pieces}})
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONDITION
        report = json.loads(capsys.readouterr().out)
        assert report["computed"]["k"] == pytest.approx(-0.5, abs=1e-12)
        assert report["operator_ok"] is False and report["pass"] is False

    def test_declared_k_above_the_exact_k_exits_2(self, tmp_path, capsys):
        # a random probe's minimum (1.6206) passed this declaration
        assert cli.main(["check", write_config(tmp_path, block_problem(1.615))]) == cli.EXIT_CONDITION
        mono = json.loads(capsys.readouterr().out)
        assert mono["computed"]["k"] == pytest.approx(1.6070996, abs=1e-7)
        assert mono["operator_ok"] is False and mono["terminal_ok"] is True

    @pytest.mark.parametrize("offset, code", [(1e-6, cli.EXIT_CONDITION), (-1e-6, cli.EXIT_OK)])
    def test_declared_k_prime_against_the_exact_k_prime(self, tmp_path, capsys, offset, code):
        # a random probe overestimated this k' by 7.2e-3 and passed the +1e-6 declaration
        assert cli.main(["check", write_config(tmp_path, terminal_problem(offset))]) == code
        mono = json.loads(capsys.readouterr().out)
        assert mono["margins"]["k_prime"] == pytest.approx(-offset, abs=1e-12)
        assert mono["operator_ok"] is True

    @pytest.mark.parametrize("block, value, name", [("f", {"y": -1e308}, "the operator of f, h and sigma"),
                                                    ("g", {"x": 1e308}, "g")], ids=["f", "g"])
    def test_overflowing_slope_is_numerical_blowup(self, tmp_path, capsys, block, value, name):
        # the exact constants are finite, but the slope read at e_i + e_j overflows: no pass is reported
        assert cli.main(["check", write_config(tmp_path, {**TOY_PROBLEM, block: value})]) == cli.EXIT_NOT_CONVERGED
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"numerical blow-up: the slope of {name} overflows\n"

    def test_problem_check_output_is_deterministic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, block_problem(1.5))
        outs = []
        for _ in range(2):
            assert cli.main(["check", cfg]) == cli.EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "seed" not in outs[0] and "samples" not in outs[0]

    def test_truncated_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "game", ')
        assert cli.main(["check", str(path)]) == cli.EXIT_CONFIG

    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(["check", str(tmp_path / "nope.json")]) == cli.EXIT_CONFIG

    def test_cost_weight_negative_between_grid_nodes_fails(self, tmp_path, capsys):
        # M = -1 on [0.101, 0.102), between the nodes 0.1 and 0.1025 of the default 100-step grid
        pieces = [{"t_from": t, "value": [[v]]} for t, v in ((0.0, 1.0), (0.101, -1.0), (0.102, 1.0))]
        payload = {"kind": "game", "n": 1, "m": 1, "T": 0.25, "x0": [1.0],
                   "C": [[[1.0]]], "N": [[[1.0]]], "Q": [[[1.0]]], "M": [{"piecewise": pieces}]}
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONDITION
        report = json.loads(capsys.readouterr().out)
        assert report["computed"]["k"] == -1.0
        assert report["pass"] is False


class TestSolveCommand:
    def test_toy_problem_converges_with_monotone_gaps(self, tmp_path):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        out = tmp_path / "out"
        code = cli.main([
            "solve", cfg, "--particles", "800", "--steps", "40",
            "--seed", "3", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        records = [json.loads(l) for l in (out / "diagnostics.jsonl").read_text().splitlines()]
        gaps = [r["gap_XT"] + r["gap_U"] for r in records]
        assert all(b < a for a, b in zip(gaps[1:], gaps[2:]))
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is True
        assert report["residuals"]["terminal"] >= 0
        header = (out / "moments.csv").read_text().splitlines()[0]
        assert header == "time,mean_0,var_0"

    def test_nonexistence_instance_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, EXAMPLE3)
        out = tmp_path / "div"
        code = cli.main([
            "solve", cfg, "--particles", "200", "--steps", "30",
            "--max-outer", "30", "--out", str(out),
        ])
        assert code == cli.EXIT_NOT_CONVERGED
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False

    def test_piece_without_value_is_config_error(self, tmp_path, capsys):
        for first in ({"t_from": 0.0}, {"t_from": 0.0, "matrix": -1.0}):
            pieces = [first, {"t_from": 0.1, "value": -1.0}]
            payload = dict(TOY_PROBLEM, f={"y": {"piecewise": pieces}, "mean_x": 0.1})
            cfg = write_config(tmp_path, payload)
            code = cli.main(["solve", cfg, "--particles", "100", "--steps", "10", "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_CONFIG
            assert "'value'" in capsys.readouterr().err

    def test_invalid_max_outer_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        assert cli.main(["solve", cfg, "--max-outer", "0", "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
        # the retired --inner-sweeps flag is a usage error
        assert cli.main(["solve", cfg, "--inner-sweeps", "61", "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG

    def test_overflowing_z_regression_is_divergence(self, tmp_path, capsys):
        # Y_T = 1e307 x is finite, but the Z targets Y_T dW / dt overflow
        payload = {"kind": "problem", "dim": 1, "horizon": 0.25, "x0": [1.0],
                   "f": {}, "h": {}, "sigma": {"const": 0.2}, "g": {"x": 1e307}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code = cli.main(["solve", cfg, "--particles", "2", "--steps", "100", "--max-outer", "2",
                         "--out", str(out)])
        assert code == cli.EXIT_NOT_CONVERGED
        assert capsys.readouterr().err.startswith("diverged: ")
        assert json.loads((out / "report.json").read_text())["diverged"] is True

    def test_mean_coupling_writes_no_theory_ratio(self, tmp_path):
        # computed C_nu = 5 and C_g_nu = 3 leave lambda < 0; the declared C_nu = C_g_nu = 0 gave 0.0005
        payload = dict(TOY_PROBLEM, f={"y": -1.0, "mean_x": 5.0}, g={"x": 1.0, "mean_x": 3.0},
                       lipschitz={**TOY_PROBLEM["lipschitz"], "c_nu": 0.0, "c_g_nu": 0.0})
        out = tmp_path / "o"
        cli.main(["solve", write_config(tmp_path, payload), "--particles", "200", "--steps", "20",
                  "--max-outer", "3", "--out", str(out)])
        records = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
        assert records and all(rec["theory_ratio"] is None for rec in records)
        assert json.loads((out / "report.json").read_text())["theory_ratio"] is None

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main([
                "solve", cfg, "--particles", "500", "--steps", "25",
                "--seed", "11", "--out", str(out),
            ]) == cli.EXIT_OK
            outs.append(out)
        assert (outs[0] / "diagnostics.jsonl").read_bytes() == (outs[1] / "diagnostics.jsonl").read_bytes()
        assert (outs[0] / "moments.csv").read_bytes() == (outs[1] / "moments.csv").read_bytes()


    def test_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the README toy (m = 1) at 12,000 particles: its sigma reads the state, so the forward step takes its
        # diffusion-product branch, and the inner solve mixes and reads (Y, Z) maps at every sweep
        runs = TestGameCommand.game_files_at_1_2_and_4_blas_threads(tmp_path, TOY_PROBLEM, command="solve")
        assert runs[0][0] == cli.EXIT_OK
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestGameCommand:
    def test_scalar_game_full_run(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_GAME)
        out = tmp_path / "game"
        code = cli.main([
            "game", cfg, "--particles", "2000", "--steps", "40",
            "--deviations", "6", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["h2"]["pass"] is True
        assert report["nash"]["converged"] is True
        assert len(report["nash"]["costs"]) == 1
        deviations = json.loads((out / "deviations.json").read_text())
        assert deviations[0]["pass"] is True

    @staticmethod
    def game_files_at_1_2_and_4_blas_threads(tmp_path, config, command="game") -> list:
        """(exit code, {file name: bytes}) of ``command`` (`game`, or `solve`, which writes no deviations.json) on
        ``config`` at 12,000 particles and 20 steps, run in a fresh process at 1, 2 and 4 OpenBLAS threads."""
        cfg = write_config(tmp_path, config)
        src = str(Path(cli.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2", "4"):
            out = tmp_path / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            argv = [command, cfg, "--particles", "12000", "--steps", "20", "--seed", "5", "--out", str(out)]
            done = subprocess.run([sys.executable, "-m", "mfbsde.cli", *argv], env=env, capture_output=True, text=True)
            assert "Traceback" not in done.stderr
            runs.append((done.returncode, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        files = ["diagnostics.jsonl", "moments.csv", "report.json"]
        assert sorted(runs[0][1]) == sorted(files + ["deviations.json"] if command == "game" else files)
        return runs

    def test_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 12,000 particles: OpenBLAS splits a dot product of more than about 10,000 values across its threads,
        # so a particle-axis reduction left to BLAS would change the last bits between these runs
        runs = self.game_files_at_1_2_and_4_blas_threads(tmp_path, CI_SCALAR_GAME)
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_example3_files_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the same at m = 2: the regression moments, the forward step and the Anderson mix are (1 + 3m)-row and
        # (2m)-column products over the particles, not dot products
        runs = self.game_files_at_1_2_and_4_blas_threads(tmp_path, dict(EXAMPLE3, T=0.25))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_corrupted_control_exits_four(self, tmp_path):
        cfg = write_config(tmp_path, SCALAR_GAME)
        code = cli.main([
            "game", cfg, "--particles", "2000", "--steps", "40",
            "--deviations", "6", "--corrupt-control", "0.5",
            "--out", str(tmp_path / "bad"),
        ])
        assert code == cli.EXIT_DEVIATION

    def test_overflowing_deviation_is_numerical_blowup(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SCALAR_GAME)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "game", cfg, "--particles", "200", "--steps", "20", "--deviations", "2",
                "--deviation-magnitude", "1e300", "--out", str(tmp_path / "o"),
            ])
        assert code == cli.EXIT_NOT_CONVERGED
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical blow-up: ")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert report["numerical_blowup"] is True
        assert lines[0] == f"numerical blow-up: {report['message']}"

    def test_overflowing_corrupted_control_is_one_blowup_line(self, tmp_path, capsys):
        # the candidate state, its baseline cost and the probes are priced
        # under one raising errstate: no RuntimeWarning before the exit line
        cfg = write_config(tmp_path, SCALAR_GAME)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([
                "game", cfg, "--particles", "200", "--steps", "10",
                "--corrupt-control", "1e308", "--out", str(tmp_path / "o"),
            ])
        assert code == cli.EXIT_NOT_CONVERGED
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical blow-up: ")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_deviation_count_rejected_before_solving(self, tmp_path, capsys, monkeypatch, count):
        calls = []
        monkeypatch.setattr(cli.lqgame, "solve_nash", lambda *a, **k: calls.append(1))
        cfg = write_config(tmp_path, SCALAR_GAME)
        code = cli.main(["game", cfg, "--deviations", count, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert not calls
        assert f"--deviations must be >= 1, got {count}" in capsys.readouterr().err

    @pytest.mark.parametrize("magnitude", ["nan", "inf"])
    def test_non_finite_deviation_magnitude_rejected_before_solving(self, tmp_path, capsys, monkeypatch, magnitude):
        calls = []
        monkeypatch.setattr(cli.lqgame, "solve_nash", lambda *a, **k: calls.append(1))
        cfg = write_config(tmp_path, SCALAR_GAME)
        code = cli.main(["game", cfg, "--deviation-magnitude", magnitude, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert not calls
        assert capsys.readouterr().err == (
            f"usage error: --deviation-magnitude must be finite, got {float(magnitude)}\n"
        )

    def test_problem_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        assert cli.main(["game", cfg, "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG

    def test_two_player_game_inside_existence_region(self, tmp_path):
        cfg = write_config(tmp_path, dict(EXAMPLE3, T=0.25))
        out = tmp_path / "e3"
        code = cli.main([
            "game", cfg, "--particles", "400", "--steps", "30",
            "--max-outer", "40", "--deviations", "4", "--out", str(out),
        ])
        # conditions fail (exit codes track deviations, not the gate), but
        # the solve converges and both players' tests pass at this horizon
        assert code == cli.EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["h2"]["pass"] is False
        assert report["nash"]["converged"] is True
        assert len(report["nash"]["costs"]) == 2

    def test_adjoint_blowup_is_divergence(self, tmp_path, capsys):
        # the aggregated weights K_i Q_i stay small, but player 0's terminal adjoint Q_0 x_T overflows
        payload = {"kind": "game", "n": 2, "m": 2, "T": 0.25, "x0": [1, 2], "A": 0, "alpha": [0.1, 0.1],
                   "C": [[[1], [0]], [[0], [1]]], "N": [[[1]], [[1]]],
                   "M": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "Q": [[[1, 0], [0, 1e308]], [[0, 0], [0, 1]]]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["game", cfg, "--particles", "400", "--steps", "20", "--deviations", "2",
                             "--out", str(out)])
        assert code == cli.EXIT_NOT_CONVERGED
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("diverged: ") and "player 0" in lines[0]
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (out / "diagnostics.jsonl").read_text().strip()
        assert json.loads((out / "report.json").read_text())["diverged"] is True


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["game", "cfg.json", "--bogus", "1"],
        ["solve", "cfg.json", "--particles", "abc"],
        [],
        ["solve", "cfg.json", "--basis-degree", "1"],
        ["check", "cfg.json", "--steps", "10"],
        ["check", "cfg.json", "--samples", "10"],
        ["check", "cfg.json", "--seed", "1"],
    ])
    def test_usage_error_is_config_error(self, argv, capsys):
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "usage: mfbsde" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert "usage: mfbsde" in capsys.readouterr().out


class TestCounterexampleCommand:
    def test_midpoint_solution(self, capsys):
        assert cli.main(["counterexample", "--T", "0.5"]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["det"] == pytest.approx(1.25, abs=1e-12)
        assert payload["terminal_state_mean"] == pytest.approx([2.8, 3.2], abs=1e-9)
        assert [u[0] for u in payload["initial_controls"]] == pytest.approx([-2.8, -3.2], abs=1e-9)

    def test_unit_horizon_nonexistence(self, capsys):
        assert cli.main(["counterexample", "--T", "1.0"]) == cli.EXIT_NOT_CONVERGED
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is False

    def test_nonpositive_horizon_rejected(self):
        assert cli.main(["counterexample", "--T", "-1.0"]) == cli.EXIT_CONFIG

    def test_overflowing_horizon_is_numerical_blowup(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["counterexample", "--T", "1e308"]) == cli.EXIT_NOT_CONVERGED
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical blow-up: ")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_sweep_csv_has_single_sign_change(self, capsys):
        assert cli.main(["counterexample", "--T-sweep", "0:2:0.1"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "T,det"
        assert len(lines) == 22  # header + 21 rows
        dets = [float(l.split(",")[1]) for l in lines[1:]]
        ts = [float(l.split(",")[0]) for l in lines[1:]]
        for t, d in zip(ts, dets):
            assert d == pytest.approx(example3_boundary_det(t), abs=1e-9)
        signs = np.sign(dets)
        changes = np.sum(signs[1:] * signs[:-1] < 0)
        assert changes == 1

    def test_sweep_builds_no_mean_trajectory(self, capsys, monkeypatch):
        # a row prints det alone: one transition for B(T) and one to the single output time t = 0 per horizon
        calls, transition = [], cli.lqgame._backward_transition
        monkeypatch.setattr(cli.lqgame, "_backward_transition", lambda *args: calls.append(1) or transition(*args))
        assert cli.main(["counterexample", "--T-sweep", "0.1:0.3:0.1"]) == cli.EXIT_OK
        assert capsys.readouterr().out == "T,det\n0.1,1.1700000000000002\n0.2,1.28\n0.3,1.33\n"
        assert len(calls) == 2 * 3

    @pytest.mark.parametrize("spec, ts", [("0:1:0.6", [0.0, 0.6]), ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3])])
    def test_sweep_never_passes_b(self, capsys, spec, ts):
        # 0:1:0.6 used to round its point count up and print T = 1.2, past the nonexistence horizon T = 1
        assert cli.main(["counterexample", "--T-sweep", spec]) == cli.EXIT_OK
        values = [float(row.split(",")[0]) for row in capsys.readouterr().out.strip().splitlines()[1:]]
        assert values == pytest.approx(ts, abs=1e-15)
        assert max(values) <= float(spec.split(":")[1])

    @pytest.mark.parametrize("spec", ["0:inf:1", "0:nan:1", "nan:1:0.5", "0:1:inf", "0:1e308:1e-308"])
    def test_non_finite_sweep_is_config_error(self, capsys, spec):
        assert cli.main(["counterexample", "--T-sweep", spec]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: --T-sweep ")


class TestExitCodes:
    @pytest.mark.parametrize("command, flag, value, message", [
        ("solve", "--tol", "1e-300", "--tol 1e-300 is too small: the inner target (tol/10)^2 underflows to 0"),
        ("solve", "--tol", "5e154", "--tol 5e+154 is too large: the outer target tol^2 overflows"),
        ("solve", "--delta", "-1", "--delta must be nonnegative"),
        ("solve", "--steps", "0", "--steps must be >= 1, got 0"),
        ("solve", "--particles", "1", "--particles must be >= 2"),
        ("solve", "--max-outer", "0", "--max-outer must be >= 1"),
        ("game", "--tol", "0", "--tol must be positive"),
        ("game", "--tol", "1e200", "--tol 1e+200 is too large: the outer target tol^2 overflows"),
        ("game", "--deviations", "0", "--deviations must be >= 1, got 0"),
        ("game", "--corrupt-control", "nan", "--corrupt-control must be finite, got nan"),
        ("game", "--corrupt-control", "inf", "--corrupt-control must be finite, got inf"),
        ("counterexample", "--T", "nan", "--T must be positive and finite, got nan"),
        ("counterexample", "--T-sweep", "0:1:0", "--T-sweep expects finite a <= b and step > 0, got '0:1:0'"),
    ])
    def test_bad_flag_value_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, command, flag, value, message):
        # exit 1 as for a config error, but the message names the flag as typed, not the config
        cfg = write_config(tmp_path, SCALAR_GAME if command == "game" else TOY_PROBLEM)
        argv = [command] + ([] if command == "counterexample" else [cfg, "--out", str(tmp_path / "o")])
        assert cli.main(argv + [flag, value]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_error_keeps_its_prefix_next_to_a_bad_flag(self, tmp_path, capsys):
        # the config is read first, so its error is the one reported
        cfg = write_config(tmp_path, {**TOY_PROBLEM, "horizon": -1.0})
        assert cli.main(["solve", cfg, "--tol", "1e-300", "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: horizon must be positive and finite, got -1.0\n"

    @pytest.mark.parametrize("flag,value", [("--delta", "nan"), ("--tol", "inf"), ("--tol", "nan")])
    def test_non_finite_scheme_value_is_config_error(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        out = tmp_path / "o"
        assert cli.main(["solve", cfg, flag, value, "--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"usage error: {flag} must be finite, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("payload,key", [
        (dict(TOY_PROBLEM, f={"y": -1.0, "mean_xx": 0.1}, horizn=0.5), "horizn"),
        (dict(TOY_PROBLEM, f={"y": -1.0, "mean_xx": 0.1}), "mean_xx"),
        (dict(SCALAR_GAME, Gama=[[[1.0]]]), "Gama"),
    ])
    def test_misspelled_config_key_is_config_error(self, tmp_path, capsys, payload, key):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        assert cli.main(["solve", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and repr(key) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve", "game"])
    def test_config_solver_block_is_config_error(self, tmp_path, capsys, command):
        # the solver settings are flags only; a config "solver" block is an unknown key
        payload = dict(SCALAR_GAME if command == "game" else TOY_PROBLEM, solver={"particles": 100, "steps": 10})
        out = tmp_path / "o"
        argv = [command, write_config(tmp_path, payload)] + (["--out", str(out)] if command != "check" else [])
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "'solver'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_non_finite_declared_constant_is_config_error(self, tmp_path, capsys, command):
        payload = dict(TOY_PROBLEM, lipschitz={**TOY_PROBLEM["lipschitz"], "c_nu": float("nan")},
                       monotonicity={**TOY_PROBLEM["monotonicity"], "k": float("inf")})
        argv = [command, write_config(tmp_path, payload)] + (["--out", str(tmp_path / "o")] if command == "solve" else [])
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: c_nu must be finite and nonnegative\n"

    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_non_finite_breakpoint_is_config_error(self, tmp_path, capsys, command):
        # json reads NaN; the pieces after a NaN t_from used to be dropped without a word
        pieces = [{"t_from": 0, "value": 0.3}, {"t_from": float("nan"), "value": 2.0}, {"t_from": 0.5, "value": 3.0}]
        cfg = write_config(tmp_path, dict(SCALAR_GAME, A={"piecewise": pieces}))
        out = tmp_path / "o"
        assert cli.main([command, cfg] + (["--out", str(out)] if command == "solve" else [])) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: A: breakpoints must be finite and strictly increasing")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve", "game"])
    def test_overflowing_sup_norm_is_numerical_blowup(self, tmp_path, capsys, command):
        # every entry of A is finite, but its spectral norm 2e308 is not
        game = {"kind": "game", "n": 2, "m": 1, "T": 0.25, "x0": [1.0, 2.0], "A": [[1e308, 1e308], [1e308, 1e308]],
                "C": [[[1.0], [0.0]]], "N": [[[1.0]]], "Q": [[[1.0, 0.0], [0.0, 1.0]]]}
        out = tmp_path / "o"
        argv = [command, write_config(tmp_path, game)] + ([] if command == "check" else ["--out", str(out)])
        assert cli.main(argv) == cli.EXIT_NOT_CONVERGED
        message = "the sup norm of A over [0, 0.25] overflows"
        assert capsys.readouterr().err == f"numerical blow-up: {message}\n"
        if command == "game":
            report = json.loads((out / "report.json").read_text())
            assert report["numerical_blowup"] is True and report["message"] == message

    @pytest.mark.parametrize("command", ["check", "solve", "game"])
    def test_overflowing_k_matrix_is_numerical_blowup(self, tmp_path, capsys, command):
        # K_0 = C_0 N_0^-1 C_0' = 1e200 * 1e200 / 1e-200 overflows although C_0 and N_0 are finite
        game = {"kind": "game", "n": 1, "m": 1, "T": 1, "x0": [1], "C": [[[1e200]]], "N": [[[1e-200]]]}
        argv = [command, write_config(tmp_path, game)] + ([] if command == "check" else ["--out", str(tmp_path / "o")])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == cli.EXIT_NOT_CONVERGED
        assert capsys.readouterr().err == "numerical blow-up: K_0 = C_0 N_0^-1 C_0' overflows\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nonpositive_dimension_is_config_error(self, tmp_path, capsys):
        assert cli.main(["check", write_config(tmp_path, dict(TOY_PROBLEM, dim=-1))]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "config error: dim must be >= 1, got -1\n"

    @pytest.mark.parametrize("payload, key", [
        (dict(TOY_PROBLEM, dim=1.9), "dim"),
        (dict(TOY_PROBLEM, dim=True), "dim"),
        (dict(SCALAR_GAME, n=1.5), "n"),
        (dict(SCALAR_GAME, m=1.99), "m"),
    ], ids=["dim_float", "dim_bool", "n_float", "m_float"])
    def test_non_integer_dimension_is_config_error(self, tmp_path, capsys, payload, key):
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key} must be an integer, got {payload[key]!r}\n"

    @pytest.mark.parametrize("command", ["solve", "game"])
    def test_negative_seed_is_config_error_before_the_config_is_read(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        argv = [command, str(tmp_path / "missing.json"), "--seed", "-1", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "usage error: --seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "game"])
    def test_seed_past_the_philox_key_range_is_config_error(self, tmp_path, capsys, command):
        # taken mod 2**64, this seed would draw seed 0's bundle
        out = tmp_path / "o"
        config = write_config(tmp_path, SCALAR_GAME if command == "game" else TOY_PROBLEM)
        argv = [command, config, "--seed", str(2**64), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"usage error: --seed must be in [0, 2**64), got {2**64}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "game"])
    def test_overflowing_regression_gram_is_divergence(self, tmp_path, capsys, command):
        # example 3 at T = 85: the forward paths stay finite, but their
        # regression moment sums overflow (eigvalsh used to fail on them, a config error)
        out = tmp_path / "o"
        cfg = write_config(tmp_path, dict(EXAMPLE3, T=85.0))
        argv = [command, cfg, "--particles", "300", "--steps", "40", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_NOT_CONVERGED
        message = "particle system blew up at outer iteration 2: regression Gram matrix overflows at step 18"
        assert capsys.readouterr().err == f"diverged: {message}\n"
        report = json.loads((out / "report.json").read_text())
        assert report["diverged"] is True and report["message"] == message

    @pytest.mark.parametrize("payload, message", [
        (dict(TOY_PROBLEM, lipschitz={"c_nu": 0.1, "c_g_x": 1.0, "c_g_nu": 0.1}),
         "lipschitz block is missing required field 'c_u'"),
        (dict(TOY_PROBLEM, monotonicity={"k": 1.0}), "monotonicity block is missing required field 'k_prime'"),
        (dict(TOY_PROBLEM, h={"x": {"piecewise": [{"value": -1.0}]}}), "h.x piece is missing required field 't_from'"),
        (dict(SCALAR_GAME, A={"piecewise": [{"t_from": 0.0, "value": 0.3}, {"value": 0.5}]}),
         "A piece is missing required field 't_from'"),
    ], ids=["lipschitz_c_u", "monotonicity_k_prime", "problem_piece_t_from", "game_piece_t_from"])
    def test_missing_config_key_names_its_block_and_key(self, tmp_path, capsys, payload, message):
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("payload, message", [
        (dict(TOY_PROBLEM, lipschitz=5), "lipschitz must be a JSON object, got number"),
        (dict(TOY_PROBLEM, h={"x": {"piecewise": [5]}}), "h.x piece must be a JSON object, got number"),
        (dict(TOY_PROBLEM, h={"x": {"piecewise": 5}}), "h.x piecewise must be a JSON array, got number"),
        (dict(TOY_PROBLEM, f=[1, 2]), "f must be a JSON object, got array"),
        (dict(TOY_PROBLEM, monotonicity=None), "monotonicity must be a JSON object, got null"),
        (dict(SCALAR_GAME, C=5), "C must be a JSON array, got number"),
        (dict(SCALAR_GAME, Q="1"), "Q must be a JSON array, got string"),
        (dict(TOY_PROBLEM, h={"x": {"piecewise": "abc"}}), "h.x piecewise must be a JSON array, got string"),
        (dict(TOY_PROBLEM, h={"x": {"piecewise": ["abc"]}}), "h.x piece must be a JSON object, got string"),
        (dict(SCALAR_GAME, A={"piecewise": "abc"}), "A piecewise must be a JSON array, got string"),
        (dict(SCALAR_GAME, A={"piecewise": ["abc"]}), "A piece must be a JSON object, got string"),
    ], ids=["lipschitz_number", "piece_number", "piecewise_number", "f_array", "monotonicity_null", "game_C_number",
            "game_Q_string", "piecewise_string", "piece_string", "game_piecewise_string", "game_piece_string"])
    def test_wrong_json_type_names_the_field_and_the_type(self, tmp_path, capsys, payload, message):
        # a string where a piecewise array or a piece object belongs used to be named a wrong JSON number
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("payload, message", [
        (dict(TOY_PROBLEM, horizon="0.25"), "horizon must be a JSON number, got string"),
        (dict(TOY_PROBLEM, x0=[True]), "x0[0] must be a JSON number, got boolean"),
        (dict(TOY_PROBLEM, f={"y": "-1.0", "mean_x": 0.1}), "f.y must be a JSON number, got string"),
        (dict(TOY_PROBLEM, f={"y": None, "mean_x": 0.1}), "f.y must be a JSON number, got null"),
        (dict(TOY_PROBLEM, h={"x": {"piecewise": [{"t_from": "0", "value": -1.0}]}, "z": -0.3, "mean_y": 0.1}),
         "h.x.piecewise[0].t_from must be a JSON number, got string"),
        (dict(TOY_PROBLEM, monotonicity={"k": "1.0", "k_prime": 1.0}),
         "monotonicity.k must be a JSON number, got string"),
        (dict(SCALAR_GAME, T=True), "T must be a JSON number, got boolean"),
        (dict(SCALAR_GAME, x0=["1.0"]), "x0[0] must be a JSON number, got string"),
        (dict(SCALAR_GAME, A=[["0.3"]]), "A[0][0] must be a JSON number, got string"),
        (dict(EXAMPLE3, x0=[True, 0.5]), "x0[0] must be a JSON number, got boolean"),
        (dict(EXAMPLE3, x0=[1.0, True]), "x0[1] must be a JSON number, got boolean"),
    ], ids=["horizon_string", "x0_boolean", "coefficient_string", "coefficient_null", "t_from_string",
            "declared_k_string", "game_T_boolean", "game_x0_string", "game_A_string", "mixed_list_first",
            "mixed_list_second"])
    def test_config_number_of_another_json_type_is_a_config_error(self, tmp_path, capsys, payload, message):
        # "0.25" and true used to be read as numbers, and a null term was dropped
        assert cli.main(["check", write_config(tmp_path, payload)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_allocation_failure_is_reported(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.11 PiB")

        monkeypatch.setattr(cli.fixpoint, "make_bundle", out_of_memory)
        cfg = write_config(tmp_path, TOY_PROBLEM)
        assert cli.main(["solve", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "out of memory: Unable to allocate 7.11 PiB\n"

    def test_adjoint_pass_cap_blocks_convergence(self, tmp_path, monkeypatch):
        # one adjoint pass: its gap against the zero start is far above tol^2
        monkeypatch.setattr(cli.lqgame, "_ADJOINT_MAX_PASSES", 1)
        cfg = write_config(tmp_path, SCALAR_GAME)
        out = tmp_path / "game"
        code = cli.main(["game", cfg, "--particles", "500", "--steps", "30", "--deviations", "2",
                         "--out", str(out)])
        assert code == cli.EXIT_NOT_CONVERGED
        nash = json.loads((out / "report.json").read_text())["nash"]
        assert nash["converged"] is False and nash["adjoint_iterations"] == [1]
        assert nash["adjoint_gaps"][0][0] >= 1e-3**2
