"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them on success).  Scales and tolerances are fixed here, not tuned at
runtime.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from mfbsde import cli, fixpoint, lqgame
from mfbsde.backward import solve_backward
from mfbsde.measure import EmpiricalMeasure, w2_exact, w2_paired_bound
from mfbsde.paths import PathEnsemble, TimeGrid, joint_marginal, make_bundle
from mfbsde.problem import AffineCoeffs, MfProblem, check_H1, contraction_constants
from conftest import h1prime_toy, pure_martingale, zero_sweep
from oracles import example3_boundary_det, example3_solution, scalar_lq_riccati, w2_brute_force


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_counterexample_reproduction(capsys):
    start = time.time()
    checks = []
    for horizon in (0.25, 0.5, 0.75, 1.0):
        code = cli.main(["counterexample", "--T", str(horizon)])
        payload = json.loads(capsys.readouterr().out)
        det_err = abs(payload["det"] - example3_boundary_det(horizon))
        checks.append(det_err < 1e-9)
        if horizon == 1.0:
            checks.append(payload["exists"] is False and code == cli.EXIT_NOT_CONVERGED)
        else:
            checks.append(payload["exists"] is True and code == cli.EXIT_OK)
        if horizon == 0.5:
            s, (u, v) = example3_solution(0.5)
            checks.append(np.allclose(payload["terminal_state_mean"], [2.8, 3.2], atol=1e-9))
            checks.append(np.allclose(payload["terminal_state_mean"], s, atol=1e-9))
            ctrl = [payload["initial_controls"][0][0], payload["initial_controls"][1][0]]
            checks.append(np.allclose(ctrl, [-2.8, -3.2], atol=1e-9))
    elapsed = time.time() - start
    checks.append(elapsed < 1.0)
    report(
        "criterion 1 (counterexample reproduction)",
        all(checks),
        f"det errors < 1e-9 on T in {{0.25,0.5,0.75,1.0}}, nonexistence at T=1, "
        f"Y_T=(2.8,3.2), controls=(-2.8,-3.2) at T=0.5; {elapsed:.2f}s",
    )


def test_criterion_2_condition_gate():
    start = time.time()
    tol = 1e-10
    gs = lqgame.example3_game(1.0)
    rep = lqgame.check_H2(gs, TimeGrid(1.0, 100))
    computed = rep.aggregated.computed
    skq = sum(k @ q for k, q in zip(gs.k_matrices(), gs.Q))
    eigs = np.linalg.eigvalsh((skq + skq.T) / 2)
    bad_ok = (
        not rep.passed
        and abs(computed["k_prime"] + 1.0) < tol
        and np.allclose(eigs, [-1.0, 3.0], atol=tol)
        and abs(computed["C_nu"] - 1.0) < tol
        and computed["C_nu"] >= rep.aggregated.bound
    )
    scalar = lqgame.GameSpec(
        n=1, horizon=1.0, x0=[0.0], A=[[0.0]],
        C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[1.0]]],
    )
    rep2 = lqgame.check_H2(scalar, TimeGrid(1.0, 100))
    computed2 = rep2.aggregated.computed
    good_ok = rep2.passed and abs(computed2["k_prime"] - 1.0) < tol and abs(computed2["k"] - 1.0) < tol
    elapsed = time.time() - start
    report(
        "criterion 2 (condition gate)",
        bad_ok and good_ok and elapsed < 1.0,
        f"counterexample fails with eigenvalues {{-1,3}} and ||D||=1 >= bound; "
        f"scalar spec passes; {elapsed:.2f}s",
    )


def test_criterion_3_contraction_property():
    start = time.time()
    p = h1prime_toy(horizon=0.25)
    rep = check_H1(p)
    lam, theta = contraction_constants(rep.computed, rep.variant, eps=1.0, alpha=math.sqrt(2) / 2, delta=0.01)
    theory = theta / lam
    params = fixpoint.SchemeParams(delta=0.01, particles=5000, max_outer=8, tol=1e-5)
    sol = fixpoint.solve(p, TimeGrid(0.25, 100), params, seed=11)
    ratios = {rec.n: rec.ratio for rec in sol.history}
    wanted = [ratios.get(n, math.inf) for n in (2, 3, 4, 5)]
    ok = all(r <= theory + 0.15 for r in wanted)
    elapsed = time.time() - start
    report(
        "criterion 3 (contraction property)",
        ok and theory == pytest.approx(0.081, abs=5e-4) and elapsed < 120.0,
        f"ratios n=2..5 = {[f'{r:.4f}' for r in wanted]} <= theta/lambda + 0.15 = "
        f"{theory + 0.15:.3f}; {elapsed:.1f}s",
    )


def test_criterion_4_bsde_oracle():
    start = time.time()
    particles = 10_000
    grid = TimeGrid(1.0, 100)
    p = pure_martingale(x0=0.7)
    bundle = make_bundle(grid, particles, seed=2)
    zeros_y = PathEnsemble(np.zeros((particles, 101, 1)))
    flow = joint_marginal(zeros_y, zeros_y)
    x = zero_sweep(p, grid, bundle, flow)
    y, z = (e.paths() for e in solve_backward(p, grid, bundle, x, flow)[:2])
    se_y0 = x.values[:, -1, 0].std() / math.sqrt(particles)
    y0_err = abs(y.values[:, 0, 0].mean() - 0.7)
    targets = x.values[:, 1:, 0] * bundle.increments / grid.dt
    se_z = targets.mean(axis=1).std() / math.sqrt(particles)
    z_err = abs(z.values.mean() - 1.0)
    martingale_ok = y0_err < 3 * se_y0 and z_err < 3 * se_z

    a = 0.5
    p2 = MfProblem(x0=[0.0], horizon=1.0, f=AffineCoeffs(1, "f"), h=AffineCoeffs(1, "h", y=-a),
                   sigma=AffineCoeffs(1, "sigma", const=1.0), g=AffineCoeffs(1, "g", const=1.0))
    y2 = solve_backward(p2, grid, bundle, x, flow)[0].paths()
    rel = abs(y2.values[:, 0, 0].mean() - math.exp(a)) / math.exp(a)
    driver_ok = rel < 0.01
    elapsed = time.time() - start
    report(
        "criterion 4 (BSDE oracle)",
        martingale_ok and driver_ok and elapsed < 60.0,
        f"|Y0 - x0| = {y0_err:.4f} < 3se = {3 * se_y0:.4f}, |Zbar - 1| = {z_err:.4f} "
        f"< 3se = {3 * se_z:.4f}; linear driver rel err {rel * 100:.2f}% < 1%; {elapsed:.1f}s",
    )


def test_criterion_5_wasserstein_oracle():
    start = time.time()
    rng = np.random.default_rng(42)
    max_gap = 0.0
    dominance = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 4))
        scale = float(rng.uniform(0.5, 3.0))
        a = EmpiricalMeasure(scale * rng.standard_normal((n, d)))
        b = EmpiricalMeasure(scale * rng.standard_normal((n, d)))
        exact = w2_exact(a, b)
        brute = w2_brute_force(a.points, b.points)
        max_gap = max(max_gap, abs(exact**2 - brute**2))
        dominance = dominance and exact <= w2_paired_bound(a, b) + 1e-12
    elapsed = time.time() - start
    report(
        "criterion 5 (Wasserstein oracle)",
        max_gap < 1e-12 and dominance and elapsed < 10.0,
        f"200 instances N<=8, d<=3: max assignment-cost gap {max_gap:.2e} < 1e-12, "
        f"paired bound dominates; {elapsed:.1f}s",
    )


def test_criterion_6_nash_verification():
    start = time.time()
    gs = lqgame.GameSpec(
        n=1, horizon=1.0, x0=[1.0],
        A=[[0.3]], C=[[[1.0]]], N=[[[1.0]]],
        Q=[[[1.0]]], M=[[[1.0]]],
        sigma=[[0.2]], alpha=[0.1],
    )
    grid = TimeGrid(1.0, 100)
    params = fixpoint.SchemeParams(particles=10_000, max_outer=25, tol=1e-3)
    nash = lqgame.solve_nash(gs, grid, params, seed=9)
    p0, phi0 = scalar_lq_riccati(0.3, 1.0, 1.0, 1.0, 1.0, 0.2, 0.1, 1.0)
    oracle = p0 * 1.0 + phi0  # y0 = K p(0) with K = 1, x0 = 1
    y0 = nash.aggregated.y_ens.values[:, 0, 0].mean()
    riccati_ok = abs(y0 - oracle) / abs(oracle) < 0.02

    rep = lqgame.deviation_test(gs, nash, 0, perturbations=20, magnitude=0.1, seed=17)
    corrupted = list(nash.controls)
    corrupted[0] = PathEnsemble(corrupted[0].values + 0.5)
    bad = dataclasses.replace(nash, controls=corrupted)
    rep_bad = lqgame.deviation_test(gs, bad, 0, perturbations=20, magnitude=0.1, seed=17)
    elapsed = time.time() - start
    report(
        "criterion 6 (Nash verification)",
        riccati_ok and rep.passed and not rep_bad.passed and elapsed < 180.0,
        f"Y0 = {y0:.5f} vs Riccati {oracle:.5f} ({abs(y0 - oracle) / oracle * 100:.2f}% < 2%); "
        f"deviation test passes (min delta {rep.min_delta:.2e}), corrupted control fails "
        f"(min delta {rep_bad.min_delta:.3f}); {elapsed:.1f}s",
    )


def test_criterion_7_mean_consistency():
    start = time.time()
    particles = 10_000
    gs = lqgame.example3_game(0.25)
    grid = TimeGrid(0.25, 100)
    params = fixpoint.SchemeParams(particles=particles, max_outer=30, tol=1e-3)
    nash = lqgame.solve_nash(gs, grid, params, seed=5)
    oracle = lqgame.solve_mean_fbode(gs, times=grid.nodes)
    emp = nash.x_ens.values.mean(axis=0)
    err = float(np.linalg.norm(emp - oracle.state_mean, axis=1).max())
    bound = 3.0 * (grid.dt + particles**-0.5)
    elapsed = time.time() - start
    report(
        "criterion 7 (mean consistency)",
        nash.converged and err < bound and elapsed < 180.0,
        f"max-over-time mean error {err:.4f} < 3(dt + N^-1/2) = {bound:.4f}, "
        f"converged in {len(nash.aggregated.history)} outer iterations; {elapsed:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    start = time.time()
    cfg_path = tmp_path / "toy.json"
    cfg_path.write_text(json.dumps({
        "kind": "problem",
        "dim": 1, "horizon": 0.25, "x0": [1.0],
        "f": {"y": -1.0, "mean_x": 0.1},
        "h": {"x": -1.0, "z": -0.3, "mean_y": 0.1},
        "sigma": {"x": 0.3, "const": 0.2},
        "g": {"x": 1.0, "mean_x": 0.1},
    }))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli.main([
            "solve", str(cfg_path), "--particles", "600", "--steps", "40",
            "--seed", "7", "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        outs.append(out)
    same_diag = (outs[0] / "diagnostics.jsonl").read_bytes() == (outs[1] / "diagnostics.jsonl").read_bytes()
    same_moments = (outs[0] / "moments.csv").read_bytes() == (outs[1] / "moments.csv").read_bytes()
    elapsed = time.time() - start
    report(
        "criterion 8 (determinism)",
        same_diag and same_moments,
        f"two identical invocations produced byte-identical diagnostics.jsonl "
        f"and moments.csv; {elapsed:.1f}s",
    )
