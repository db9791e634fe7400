import json
import warnings

import numpy as np
import pytest

from mfbsde import cli
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
        assert report["eta1"] == pytest.approx(-1.0, abs=1e-10)
        assert report["norm_D"] == pytest.approx(1.0)
        assert report["norm_D"] >= report["bound"]
        assert report["pass"] is False

    def test_problem_config_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY_PROBLEM)
        assert cli.main(["check", cfg, "--samples", "400"]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["smallness"]["pass"] is True
        assert report["monotonicity"]["pass"] is True

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
        assert report["eta2"] == -1.0
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
        # more minimum sweeps than the inner solve's cap of 60
        assert cli.main(["solve", cfg, "--inner-sweeps", "61", "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG

    def test_overflowing_z_regression_is_divergence(self, tmp_path, capsys):
        # Y_T = 1e307 x is finite, but the Z targets Y_T dW / dt overflow
        payload = {"kind": "problem", "dim": 1, "horizon": 0.25, "x0": [1.0],
                   "f": {}, "h": {}, "sigma": {"const": 0.2}, "g": {"x": 1e307}}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "o"
        code = cli.main(["solve", cfg, "--particles", "2", "--steps", "100", "--max-outer", "2",
                         "--basis-degree", "0", "--out", str(out)])
        assert code == cli.EXIT_NOT_CONVERGED
        assert capsys.readouterr().err.startswith("diverged: ")
        assert json.loads((out / "report.json").read_text())["diverged"] is True

    def test_flags_override_config_solver_block(self, tmp_path):
        payload = dict(TOY_PROBLEM, solver={"particles": 100, "steps": 10, "max_outer": 0})
        cfg = write_config(tmp_path, payload)
        # config's max_outer=0 would be invalid; the flag overrides it
        code = cli.main(["solve", cfg, "--max-outer", "20", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_OK

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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_nonpositive_deviation_count_rejected_before_solving(self, tmp_path, capsys, monkeypatch, count):
        calls = []
        monkeypatch.setattr(cli.lqgame, "solve_nash", lambda *a, **k: calls.append(1))
        cfg = write_config(tmp_path, SCALAR_GAME)
        code = cli.main(["game", cfg, "--deviations", count, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert not calls
        assert f"--deviations must be >= 1, got {count}" in capsys.readouterr().err

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
