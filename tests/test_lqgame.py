import dataclasses
import itertools
import warnings

import numpy as np
import pytest

from mfbsde import fixpoint, lqgame
from mfbsde.measure import EmpiricalMeasure
from mfbsde.paths import PathEnsemble, TimeGrid, make_bundle
from mfbsde.problem import PiecewiseConstant
from oracles import (
    example3_boundary_det,
    example3_mean_path,
    example3_solution,
    scalar_lq_riccati,
)


def scalar_game(**overrides):
    kwargs = dict(
        n=1, horizon=1.0, x0=[1.0],
        A=[[0.3]], C=[[[1.0]]], N=[[[1.0]]],
        Q=[[[1.0]]], M=[[[1.0]]],
        sigma=[[0.2]], alpha=[0.1],
    )
    kwargs.update(overrides)
    return lqgame.GameSpec(**kwargs)


class TestGameSpec:
    def test_control_dims_inferred(self):
        gs = lqgame.example3_game(1.0)
        assert gs.players == 2
        assert gs.control_dims == [1, 1]

    def test_n_matrix_must_be_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            scalar_game(N=[[[-1.0]]])

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            lqgame.GameSpec(
                n=2, horizon=1.0, x0=[0.0, 0.0], A=np.zeros((2, 2)),
                C=[np.eye(2)], N=[np.eye(2)],
                Q=[np.array([[1.0, 0.5], [0.0, 1.0]])],
            )

    @pytest.mark.parametrize("field,overrides", [
        ("x0", dict(x0=[np.inf])),
        ("A", dict(A=np.nan)),
        ("A", dict(A=lambda t: [[np.nan if t > 0.5 else 0.3]])),
        ("alpha", dict(alpha=PiecewiseConstant([0.0, 2.0], [0.1, np.inf]))),
        ("C", dict(C=[[[np.nan]]])),
        ("N", dict(N=[[[np.inf]]])),
        ("Q", dict(Q=[[[np.nan]]])),
        ("M", dict(M=[lambda t: [[np.nan]]])),
    ])
    def test_non_finite_data_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=rf"^{field}(\[0\])? must be finite"):
            scalar_game(**overrides)

    def test_piecewise_table_is_not_rewritten(self):
        # one table shared by two specs of different dimensions
        pw = PiecewiseConstant([0.0, 0.5], [0.1, 0.2])
        two = lqgame.GameSpec(n=2, horizon=1.0, x0=[0.0, 0.0], A=pw, C=[np.eye(2)], N=[np.eye(2)], Q=[np.eye(2)])
        one = lqgame.GameSpec(n=1, horizon=1.0, x0=[0.0], A=pw, C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]])
        assert pw.values.shape == (2,)
        assert np.array_equal(two.A(0.7), 0.2 * np.eye(2))
        assert np.array_equal(one.A(0.2), [[0.1]])

    def test_k_matrices_symmetric_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m_i = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            c = rng.standard_normal((n, m_i))
            a = rng.standard_normal((m_i, m_i))
            nn = a @ a.T + 0.5 * np.eye(m_i)
            gs = lqgame.GameSpec(
                n=n, horizon=1.0, x0=np.zeros(n), A=np.zeros((n, n)),
                C=[c], N=[nn], Q=[np.eye(n)],
            )
            k = gs.k_matrices()[0]
            assert np.allclose(k, k.T, atol=1e-12)
            assert np.linalg.eigvalsh(k)[0] > -1e-12


class TestCheckH2:
    def test_scalar_spec_passes(self):
        gs = lqgame.GameSpec(n=1, horizon=1.0, x0=[0.0], A=[[0.3]],
                             C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[1.0]]])
        rep = lqgame.check_H2(gs, TimeGrid(1.0, 50))
        assert rep.eta1 == pytest.approx(1.0, abs=1e-12)
        assert rep.eta2 == pytest.approx(1.0, abs=1e-12)
        assert rep.commutation_residual < 1e-12
        assert rep.passed

    def test_counterexample_fails_with_expected_arithmetic(self):
        gs = lqgame.example3_game(1.0)
        rep = lqgame.check_H2(gs, TimeGrid(1.0, 50))
        assert np.allclose(rep.K[0], [[1.0, -2.0], [-2.0, 4.0]], atol=1e-10)
        assert np.allclose(rep.K[1], [[4.0, -2.0], [-2.0, 1.0]], atol=1e-10)
        skq = sum(k @ q for k, q in zip(rep.K, gs.Q))
        assert np.allclose(skq, [[1.0, -2.0], [-2.0, 1.0]], atol=1e-10)
        assert np.allclose(np.linalg.eigvalsh((skq + skq.T) / 2), [-1.0, 3.0], atol=1e-10)
        assert rep.eta1 == pytest.approx(-1.0, abs=1e-10)
        assert not rep.positivity_ok
        assert rep.norm_D == pytest.approx(1.0, abs=1e-12)
        assert rep.norm_D >= rep.bound  # violates the coupling condition
        assert not rep.passed

    def test_symmetric_part_of_huge_finite_weights_does_not_overflow(self):
        # sum K_i Q_i = diag(1e308, 1): M + M' would overflow, M/2 + M'/2 is exact
        cfg = {"kind": "game", "n": 2, "m": 2, "T": 0.25, "x0": [1, 2], "A": 0, "alpha": [0.1, 0.1],
               "C": [[[1], [0]], [[0], [1]]], "N": [[[1]], [[1]]],
               "M": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "Q": [[[1e308, 0], [0, 0]], [[0, 0], [0, 1]]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = lqgame.check_H2(lqgame.game_from_config(cfg), TimeGrid(0.25, 20))
        assert rep.eta1 == 1.0
        assert rep.positivity_ok and rep.passed

    def test_coupling_threshold_is_monotone(self):
        base = lqgame.check_H2(scalar_game(), TimeGrid(1.0, 20))
        assert base.passed
        for scale, expect in ((0.9, True), (1.1, False)):
            gs = scalar_game(D=[[scale * base.bound]])
            rep = lqgame.check_H2(gs, TimeGrid(1.0, 20))
            assert rep.coupling_D_ok is expect
            assert rep.passed is expect


class TestBuildAggregated:
    def test_scalar_coefficients(self):
        gs = lqgame.GameSpec(n=1, horizon=1.0, x0=[0.5], A=[[0.4]], beta=[0.7],
                             C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[1.0]]])
        agg = lqgame.build_aggregated(gs)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 6, 1))
        z = rng.standard_normal((6, 1, 1))
        nu = EmpiricalMeasure(rng.standard_normal((8, 2)))
        assert np.allclose(agg.f(0.2, x, y, z, nu), 0.4 * x - y + 0.7)
        assert agg.lipschitz.c_nu == 0.0
        assert agg.monotonicity.k == pytest.approx(1.0)
        assert agg.monotonicity.k_prime == pytest.approx(1.0)
        assert agg.law_free_sigma

    def test_mean_coupling_constants(self):
        gs = scalar_game(D=[[0.3]], R=[[[0.2]]])
        agg = lqgame.build_aggregated(gs)
        assert agg.lipschitz.c_nu == pytest.approx(0.3)
        assert agg.lipschitz.c_g_nu == pytest.approx(0.2)  # ||sum K_i R_i||, K = 1

    def test_operator_form_matches_reduced_expression(self):
        # A(t, u, u', nu) = -|dy|^2 - dx' (sum K_i M_i) dx for any spec
        gs = lqgame.GameSpec(
            n=2, horizon=1.0, x0=[0.0, 0.0],
            A=[[0.3, 0.1], [0.0, 0.2]], D=[[0.1, 0.0], [0.0, 0.1]],
            sigma=[[0.2, 0.0], [0.0, 0.2]],
            C=[np.eye(2)], N=[np.eye(2)], Q=[np.eye(2)],
            M=[np.array([[2.0, 0.5], [0.5, 1.0]])],
        )
        agg = lqgame.build_aggregated(gs)
        skm = gs.k_matrices()[0] @ np.array([[2.0, 0.5], [0.5, 1.0]])
        rng = np.random.default_rng(1)
        nu = EmpiricalMeasure(rng.standard_normal((8, 4)))
        from mfbsde.problem import eval_A

        for _ in range(10):
            u = (rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal((2, 1)))
            v = (rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal((2, 1)))
            dx, dy = u[0] - v[0], u[1] - v[1]
            expected = -float(dy @ dy) - float(dx @ skm @ dx)
            assert eval_A(agg, 0.4, u, v, nu) == pytest.approx(expected, abs=1e-10)

    @staticmethod
    def coupled_game():
        # nonzero D, sigma and Gamma, piecewise A and M switching at t = 0.5
        sym = lambda a, b, c: np.array([[a, b], [b, c]])
        return lqgame.GameSpec(
            n=2, horizon=1.0, x0=[0.3, -0.2],
            A=PiecewiseConstant([0.0, 0.5], [[[0.3, 0.1], [-0.2, 0.2]], [[0.1, 0.4], [0.0, -0.3]]]),
            D=[[0.1, -0.05], [0.2, 0.1]], sigma=[[0.2, 0.1], [0.0, 0.3]],
            beta=[0.05, -0.1], alpha=[0.4, 0.1],
            C=[np.array([[1.0], [0.5]]), np.array([[0.2], [1.0]])], N=[[[1.0]], [[2.0]]],
            Q=[sym(1.0, 0.2, 0.5), sym(0.5, 0.0, 1.0)], R=[sym(0.1, 0.0, 0.1), sym(0.0, 0.05, 0.2)],
            M=[PiecewiseConstant([0.0, 0.5], [sym(1.0, 0.1, 0.5), sym(2.0, -0.3, 1.0)]), sym(0.5, 0.0, 0.5)],
            Gamma=[sym(0.3, 0.1, 0.2), PiecewiseConstant([0.0, 0.25], [sym(0.1, 0.0, 0.1), sym(0.4, 0.2, 0.3)])],
        )

    def test_aggregated_and_adjoint_coefficients_match_formulas(self):
        gs = self.coupled_game()
        K = gs.k_matrices()
        agg = lqgame.build_aggregated(gs)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 6, 2))
        z = rng.standard_normal((6, 2, 1))
        nu = EmpiricalMeasure(rng.standard_normal((9, 4)))
        mu = EmpiricalMeasure(rng.standard_normal((9, 2)))
        m1, m2 = nu.mean()[:2], nu.mean()[2:]
        zv = z[:, :, 0]
        for t in (0.2, 0.5, 0.7):
            a, d, s = gs.A(t), gs.D(t), gs.sigma(t)
            skm = sum(k @ m(t) for k, m in zip(K, gs.M))
            checks = [
                (agg.f(t, x, y, z, nu), x @ a.T - y + m1 @ d.T + gs.beta(t)),
                (agg.sigma(t, x, y, z, None)[:, :, 0], x @ s.T + gs.alpha(t)),
                (agg.h(t, x, y, z, nu), -(y @ a + x @ skm.T + m2 @ d + zv @ s)),
            ]
            for i in range(gs.players):
                adj = lqgame._adjoint_problem(gs, i)
                want = -(y @ a + x @ gs.M[i](t).T + m2 @ d + zv @ s + m1 @ gs.Gamma[i](t).T)
                checks.append((adj.h(t, x, y, z, nu), want))
                checks.append((adj.f(t, x, y, z, nu), np.zeros_like(x)))
                checks.append((adj.g(x, mu), x @ gs.Q[i].T + gs.R[i] @ mu.mean()))
            for got, want in checks:
                assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        skq = sum(k @ q for k, q in zip(K, gs.Q))
        skr = sum(k @ r for k, r in zip(K, gs.R))
        assert np.allclose(agg.g(x, mu), x @ skq.T + skr @ mu.mean(), rtol=0.0, atol=1e-12)

    def test_no_monotonicity_profile_when_the_gate_fails(self):
        assert lqgame.build_aggregated(lqgame.example3_game(0.5)).monotonicity is None

    def test_sups_are_taken_through_the_gate(self):
        # a piecewise D switching inside [0, T] and a callable D sampled up to T = 2
        for gs, sup in ((scalar_game(D=PiecewiseConstant([0.0, 0.5], [[[0.1]], [[-0.3]]])), 0.3),
                        (scalar_game(horizon=2.0, D=lambda t: np.array([[0.1 * t]])), 0.2)):
            assert lqgame.check_H2(gs, TimeGrid(gs.horizon, 7)).norm_D == pytest.approx(sup, abs=1e-15)
            assert lqgame.build_aggregated(gs).lipschitz.c_nu == pytest.approx(sup, abs=1e-15)

    def test_pieces_after_the_horizon_are_ignored(self):
        # D jumps to 5 at t = 2, past T = 1
        gs = scalar_game(D=PiecewiseConstant([0.0, 2.0], [[[0.1]], [[5.0]]]))
        assert lqgame.check_H2(gs, TimeGrid(1.0, 20)).passed
        agg = lqgame.build_aggregated(gs)
        assert agg.lipschitz.c_nu == pytest.approx(0.1, abs=1e-15)
        sol = fixpoint.solve(agg, TimeGrid(1.0, 10), fixpoint.SchemeParams(particles=200, max_outer=3), seed=0)
        assert all(rec.to_record()["theory_ratio"] is not None for rec in sol.history)


class TestCost:
    def make_constant_ensembles(self, particles, nodes, x_val, u_val):
        x = PathEnsemble(np.full((particles, nodes, 1), x_val))
        u = PathEnsemble(np.full((particles, nodes, 1), u_val))
        return x, u

    def test_zero_matrices_zero_cost(self):
        gs = scalar_game(Q=[[[0.0]]], M=[[[0.0]]])
        grid = TimeGrid(1.0, 10)
        x, u = self.make_constant_ensembles(50, 11, 1.0, 1.0)
        value, stderr = lqgame.cost(gs, 0, x, [u], grid)
        # N is positive definite, so only the control term remains
        assert value == pytest.approx(0.5)
        gs2 = scalar_game(Q=[[[0.0]]], M=[[[0.0]]], N=[[[1e-12]]])
        value2, _ = lqgame.cost(gs2, 0, x, [u], grid)
        assert value2 == pytest.approx(0.0, abs=1e-9)

    def test_constant_state_terminal_cost(self):
        gs = scalar_game(M=[[[0.0]]])
        grid = TimeGrid(1.0, 10)
        x, u = self.make_constant_ensembles(50, 11, 2.0, 0.0)
        value, _ = lqgame.cost(gs, 0, x, [u], grid)
        assert value == pytest.approx(0.5 * 4.0)  # 1/2 |c|^2 Q

    def test_quadrature_of_unit_paths(self):
        gs = scalar_game()  # Q = M = N = 1, Gamma = R = 0
        grid = TimeGrid(1.0, 17)
        x, u = self.make_constant_ensembles(20, 18, 1.0, 1.0)
        value, stderr = lqgame.cost(gs, 0, x, [u], grid)
        assert value == pytest.approx(1.5)  # 1/2 (1 + 1 + 1)
        assert stderr == pytest.approx(0.0, abs=1e-14)

    def test_mean_product_terms(self):
        gs = scalar_game(Q=[[[0.0]]], M=[[[0.0]]], R=[[[2.0]]], Gamma=[[[3.0]]])
        grid = TimeGrid(1.0, 10)
        x, u = self.make_constant_ensembles(30, 11, 2.0, 0.0)
        value, _ = lqgame.cost(gs, 0, x, [u], grid)
        assert value == pytest.approx(0.5 * (2.0 * 4.0 + 3.0 * 4.0))


class TestSimulateState:
    def test_euler_step_matches_hand_formula(self):
        # A switches between the first and second step; one control is an
        # ensemble, the other a state feedback
        gs = lqgame.GameSpec(
            n=2, horizon=1.0, x0=[0.3, -0.2],
            A=PiecewiseConstant([0.0, 0.3], [[[0.3, 0.1], [-0.2, 0.2]], [[0.1, 0.4], [0.0, -0.3]]]),
            D=[[0.1, -0.05], [0.2, 0.1]], sigma=[[0.2, 0.1], [0.0, 0.3]],
            beta=[0.05, -0.1], alpha=[0.4, 0.1],
            C=[np.array([[1.0], [0.5]]), np.array([[0.2, 0.0], [1.0, -0.4]])],
            N=[[[1.0]], np.eye(2)], Q=[np.eye(2), np.eye(2)],
        )
        grid = TimeGrid(1.0, 4)
        particles = 50
        bundle = make_bundle(grid, particles, 1, seed=7)
        rng = np.random.default_rng(8)
        u0 = PathEnsemble(rng.standard_normal((particles, grid.steps + 1, 1)))
        gain = rng.standard_normal((2, 2))
        u1 = lambda k, t, x: x @ gain.T + t
        x = lqgame.simulate_state(gs, grid, bundle, [u0, u1]).values
        xk = np.broadcast_to(gs.x0, (particles, 2))
        for k in range(2):
            t = grid.nodes[k]
            drift = (xk @ gs.A(t).T + xk.mean(axis=0) @ gs.D(t).T + gs.beta(t)
                     + u0.values[:, k] @ gs.C[0].T + u1(k, t, xk) @ gs.C[1].T)
            diffusion = xk @ gs.sigma(t).T + gs.alpha(t)
            xk = xk + drift * grid.dt + diffusion * bundle.increments[:, k]
            assert np.allclose(x[:, k + 1], xk, rtol=1e-12, atol=0.0)


    def test_one_column_controls_match_the_matmul_step(self):
        # players with m_i = 1 and m_i = 2: the broadcast product and the
        # in-place step give the bits of the per-step C_i @ u_i reference
        gs = lqgame.GameSpec(
            n=2, horizon=1.0, x0=[0.3, -0.2], A=[[0.3, 0.1], [-0.2, 0.2]], D=[[0.1, -0.05], [0.2, 0.1]],
            sigma=[[0.2, 0.1], [0.0, 0.3]], beta=[0.05, -0.1], alpha=[0.4, 0.1],
            C=[np.array([[1.0], [0.5]]), np.array([[0.2, 0.0], [1.0, -0.4]])],
            N=[[[1.0]], np.eye(2)], Q=[np.eye(2), np.eye(2)],
        )
        grid = TimeGrid(1.0, 20)
        particles = 300
        bundle = make_bundle(grid, particles, 1, seed=3)
        rng = np.random.default_rng(4)
        u0 = lambda k, t, x: 0.7 * x[:, :1] - t
        u1 = PathEnsemble(rng.standard_normal((particles, grid.steps + 1, 2)))
        x = lqgame.simulate_state(gs, grid, bundle, [u0, u1]).component_major
        f, sigma = lqgame._dynamics(gs)
        ref = np.empty_like(x)
        ref[0] = gs.x0[:, None]
        for k in range(grid.steps):
            t, xk = float(grid.nodes[k]), ref[k].T
            drift = f(t, xk, nu=EmpiricalMeasure(xk)).T
            drift = drift + gs.C[0] @ u0(k, t, xk).T + gs.C[1] @ u1.component_major[k]
            ref[k + 1] = ref[k] + drift * grid.dt + sigma(t, xk).T * bundle.component_major[k]
        assert np.array_equal(x, ref)


class TestNash:
    def test_scalar_matches_riccati_oracle(self):
        gs = scalar_game()
        grid = TimeGrid(1.0, 60)
        params = fixpoint.SchemeParams(particles=4000, max_outer=20, tol=1e-3)
        nash = lqgame.solve_nash(gs, grid, params, seed=9)
        assert nash.converged
        p0, phi0 = scalar_lq_riccati(0.3, 1.0, 1.0, 1.0, 1.0, 0.2, 0.1, 1.0)
        oracle = p0 * 1.0 + phi0  # K = 1, x0 = 1
        y0 = nash.aggregated.y_ens.values[:, 0, 0].mean()
        assert y0 == pytest.approx(oracle, rel=0.02)
        adj0 = nash.adjoints_p[0].values[:, 0, 0].mean()
        assert adj0 == pytest.approx(oracle, rel=0.02)

    def test_controls_follow_adjoint_gain(self):
        gs = scalar_game()
        grid = TimeGrid(1.0, 30)
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=500, max_outer=15, tol=1e-3), seed=3)
        gain = gs.control_gains()[0]
        expected = -(nash.adjoints_p[0].values @ gain.T)
        assert np.allclose(nash.controls[0].values, expected, atol=1e-12)

    def test_zero_cost_coupling_gives_zero_control(self):
        gs = scalar_game(Q=[[[0.0]]], M=[[[0.0]]])
        grid = TimeGrid(1.0, 30)
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=800, max_outer=15, tol=1e-4), seed=4)
        assert np.abs(nash.adjoints_p[0].values).max() < 1e-3
        assert np.abs(nash.controls[0].values).max() < 1e-3
        # state follows the uncontrolled flow under the same bundle
        free = lqgame.simulate_state(
            gs, grid, nash.aggregated.bundle,
            [PathEnsemble(np.zeros((800, 31, 1)))],
        )
        assert np.abs(nash.x_ens.values - free.values).max() < 5e-3

    def test_aggregation_identity(self):
        gs = scalar_game()
        grid = TimeGrid(1.0, 40)
        params = fixpoint.SchemeParams(particles=2000, max_outer=20, tol=1e-3)
        nash = lqgame.solve_nash(gs, grid, params, seed=7)
        reg_scale = max(r.max_regression_residual for r in nash.aggregated.history)
        assert nash.aggregation_residual_y <= 10 * (reg_scale + params.tol**2)

    def test_two_player_mean_coupled_game_end_to_end(self):
        # passes the gate (small D), piecewise running weight for player 2,
        # additive noise only so the mean reduction is an exact oracle
        gs = lqgame.GameSpec(
            n=1, horizon=1.0, x0=[1.0],
            A=[[0.2]], D=[[0.15]], beta=[0.1], alpha=[0.4],
            C=[[[1.0]], [[0.8]]], N=[[[1.0]], [[2.0]]],
            Q=[[[1.0]], [[0.5]]],
            M=[
                {"const": [[0.8]]},
                {"piecewise": [{"t_from": 0.0, "value": [[1.0]]}, {"t_from": 0.5, "value": [[2.0]]}]},
            ],
        )
        grid = TimeGrid(1.0, 80)
        assert lqgame.check_H2(gs, grid).passed
        particles = 4000
        nash = lqgame.solve_nash(
            gs, grid, fixpoint.SchemeParams(particles=particles, max_outer=25, tol=1e-3), seed=3
        )
        assert nash.converged
        oracle = lqgame.solve_mean_fbode(gs, times=grid.nodes)
        emp = nash.x_ens.values.mean(axis=0)[:, 0]
        assert np.abs(emp - oracle.state_mean[:, 0]).max() < 3 * (grid.dt + particles**-0.5)
        assert nash.aggregation_residual_y < 1e-6
        for i in range(2):
            rep = lqgame.deviation_test(gs, nash, i, perturbations=8, magnitude=0.1, seed=20 + i)
            assert rep.passed

    @pytest.mark.parametrize("threads", [0, 2])
    def test_only_one_thread_accepted(self, threads):
        params = fixpoint.SchemeParams(particles=50, max_outer=2)
        with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
            lqgame.solve_nash(lqgame.example3_game(0.25), TimeGrid(0.25, 5), params, threads=threads)


class TestIterationCounts:
    @pytest.mark.parametrize("seed,gap", [(1, 8.557979e-07), (3, 8.397955e-07)])
    def test_example3_counts_and_final_gap(self, monkeypatch, seed, gap):
        # a faster inner loop must keep the iteration counts of the scheme
        sweeps = []
        real = fixpoint.propagate
        monkeypatch.setattr(fixpoint, "propagate", lambda *a, **k: sweeps.append(1) or real(*a, **k))
        params = fixpoint.SchemeParams(particles=2000, max_outer=30, tol=1e-3)
        nash = lqgame.solve_nash(lqgame.example3_game(0.25), TimeGrid(0.25, 50), params, seed=seed)
        history = nash.aggregated.history
        assert (len(history), len(sweeps), nash.adjoint_iterations) == (8, 45, [5, 5])
        assert history[-1].gap_total == pytest.approx(gap, rel=1e-6)
        # the adjoint gap trace: one gap per pass, the last one below tol^2
        assert [len(gaps) for gaps in nash.adjoint_gaps] == nash.adjoint_iterations
        assert all(gaps[-1] < params.tol**2 <= gaps[-2] for gaps in nash.adjoint_gaps)
        assert nash.summary()["adjoint_gaps"] == nash.adjoint_gaps


class TestDeviation:
    @staticmethod
    def example3_nash():
        gs = lqgame.example3_game(0.25)
        params = fixpoint.SchemeParams(particles=400, max_outer=30, tol=1e-3)
        return gs, lqgame.solve_nash(gs, TimeGrid(0.25, 20), params, seed=2)

    def test_base_state_is_simulated_once_per_result(self, monkeypatch):
        gs, nash = self.example3_nash()
        # each fresh copy simulates its own base state
        expected = [lqgame.deviation_test(gs, dataclasses.replace(nash), i, perturbations=3, seed=i) for i in (0, 1)]
        calls = []
        real = lqgame.simulate_state
        monkeypatch.setattr(lqgame, "simulate_state", lambda *a: calls.append(1) or real(*a))
        reports = [lqgame.deviation_test(gs, nash, i, perturbations=3, seed=i) for i in (0, 1)]
        assert len(calls) == 1 + 2 * 3
        for rep, ref in zip(reports, expected):
            assert rep.deltas == ref.deltas and rep.baseline_cost == ref.baseline_cost

    def test_replaced_controls_do_not_reuse_the_base_state(self, monkeypatch):
        gs, nash = self.example3_nash()
        lqgame.deviation_test(gs, nash, 0, perturbations=2, seed=0)
        corrupted = list(nash.controls)
        corrupted[0] = dataclasses.replace(corrupted[0], values=corrupted[0].values + 0.5)
        bad = dataclasses.replace(nash, controls=corrupted)
        calls = []
        real = lqgame.simulate_state
        monkeypatch.setattr(lqgame, "simulate_state", lambda *a: calls.append(1) or real(*a))
        rep = lqgame.deviation_test(gs, bad, 0, perturbations=2, seed=0)
        assert len(calls) == 1 + 2
        x_bad = real(gs, nash.aggregated.grid, nash.aggregated.bundle, corrupted)
        assert rep.baseline_cost == lqgame.cost(gs, 0, x_bad, corrupted, nash.aggregated.grid)[0]
        # and the same result object picks up an in-place swap of its controls
        nash.controls = corrupted
        assert lqgame.deviation_test(gs, nash, 0, perturbations=2, seed=0).deltas == rep.deltas

    def test_perturbation_count_must_be_positive(self):
        gs = scalar_game()
        nash = lqgame.solve_nash(gs, TimeGrid(1.0, 10), fixpoint.SchemeParams(particles=200, max_outer=10), seed=1)
        for count in (0, -2):
            with pytest.raises(ValueError, match=f"perturbations must be >= 1, got {count}"):
                lqgame.deviation_test(gs, nash, 0, perturbations=count)

    def test_zero_magnitude_gives_exact_zero_deltas(self):
        gs = scalar_game()
        grid = TimeGrid(1.0, 30)
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=500, max_outer=15, tol=1e-3), seed=5)
        rep = lqgame.deviation_test(gs, nash, 0, perturbations=6, magnitude=0.0, seed=0)
        assert rep.deltas == [0.0] * 6
        assert rep.passed

    def test_equilibrium_passes_and_corruption_fails(self):
        gs = scalar_game()
        grid = TimeGrid(1.0, 50)
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=4000, max_outer=20, tol=1e-3), seed=6)
        rep = lqgame.deviation_test(gs, nash, 0, perturbations=12, magnitude=0.1, seed=13)
        assert rep.passed
        corrupted = list(nash.controls)
        corrupted[0] = PathEnsemble(corrupted[0].values + 0.5)
        bad = dataclasses.replace(nash, controls=corrupted)
        rep_bad = lqgame.deviation_test(gs, bad, 0, perturbations=12, magnitude=0.1, seed=13)
        assert not rep_bad.passed
        assert rep_bad.min_delta < 0


class TestMeanReduction:
    def test_boundary_determinant_closed_form(self):
        for horizon in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.5]:
            res = lqgame.solve_mean_fbode(lqgame.example3_game(horizon))
            assert res.det == pytest.approx(example3_boundary_det(horizon), abs=1e-9)

    def test_half_horizon_solution(self):
        res = lqgame.solve_mean_fbode(lqgame.example3_game(0.5))
        s, (u, v) = example3_solution(0.5)
        assert np.allclose(res.terminal_state_mean, s, atol=1e-9)
        assert np.allclose(s, [2.8, 3.2], atol=1e-12)
        assert res.control_means[0][0, 0] == pytest.approx(u, abs=1e-9)
        assert res.control_means[1][0, 0] == pytest.approx(v, abs=1e-9)

    def test_nonexistence_at_unit_horizon(self):
        res = lqgame.solve_mean_fbode(lqgame.example3_game(1.0))
        assert isinstance(res, lqgame.Nonexistence)
        assert abs(res.det) < 1e-12

    def test_tiny_horizon_limit(self):
        res = lqgame.solve_mean_fbode(lqgame.example3_game(1e-8))
        assert np.allclose(res.terminal_state_mean, [1.0, 2.0], atol=1e-6)
        # u = -s_1, v = -s_2 with s -> x0 as the horizon vanishes
        s, (u, v) = example3_solution(1e-8)
        assert res.control_means[0][0, 0] == pytest.approx(u, abs=1e-6)
        assert res.control_means[1][0, 0] == pytest.approx(v, abs=1e-6)

    def test_trajectory_matches_hand_reduction(self):
        times = np.linspace(0.0, 0.5, 21)
        res = lqgame.solve_mean_fbode(lqgame.example3_game(0.5), times=times)
        assert np.allclose(res.state_mean, example3_mean_path(0.5, times), atol=1e-9)

    def test_callable_coefficients_match_exponentials(self):
        # the same game with callable A and D goes through RK4 instead of
        # piece exponentials; example 3 has A + D = 0, the scalar game a
        # generator with nonzero state, cost and beta blocks; None gives
        # the 201 default output times
        scalar = scalar_game(sigma=[[0.0]], D=[[0.2]], beta=[0.1])
        for gs, times in itertools.product((lqgame.example3_game(0.5), scalar), ([0.0, 0.25, 0.5], None)):
            a, d = gs.A(0.0), gs.D(0.0)
            dense = dataclasses.replace(gs, A=lambda t: a, D=lambda t: d)
            exact, rk4 = lqgame.solve_mean_fbode(gs, times), lqgame.solve_mean_fbode(dense, times)
            assert rk4.det == pytest.approx(exact.det, rel=1e-12)
            assert np.allclose(rk4.state_mean, exact.state_mean, rtol=1e-12, atol=1e-12)
            assert np.allclose(rk4.adjoint_means, exact.adjoint_means, rtol=1e-12, atol=1e-12)

    def test_multiplicative_noise_rejected(self):
        gs = scalar_game()  # sigma = 0.2 x
        with pytest.raises(ValueError, match="sigma"):
            lqgame.solve_mean_fbode(gs)

    def test_sigma_piece_after_the_horizon_is_ignored(self):
        # sigma is zero on [0, T] = [0, 1] and switches on only at t = 2
        late = scalar_game(sigma=PiecewiseConstant([0.0, 2.0], [[[0.0]], [[0.5]]]))
        res = lqgame.solve_mean_fbode(late)
        assert res.det == lqgame.solve_mean_fbode(scalar_game(sigma=[[0.0]])).det

    def test_piecewise_coefficients_exact_via_exponentials(self):
        # A jumps at t = 0.5; compare against a dense RK4 oracle
        gs = lqgame.GameSpec(
            n=1, horizon=1.0, x0=[1.0],
            A={"piecewise": [{"t_from": 0.0, "value": [[0.5]]}, {"t_from": 0.5, "value": [[-0.3]]}]},
            C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[0.2]]],
        )
        res = lqgame.solve_mean_fbode(gs)
        from oracles import rk4

        k = 1.0

        def odes(t, state):
            x, p = state
            a = 0.5 if t < 0.5 else -0.3
            return np.array([a * x - k * p, -(a * p + 0.2 * x)])

        # shooting oracle on the terminal state mean
        def x0_of(s):
            return rk4(odes, np.array([s, 1.0 * s]), 1.0, 0.0, 8000)[0]

        lo, hi = 0.0, 5.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if x0_of(mid) < 1.0:
                lo = mid
            else:
                hi = mid
        # the RK4 oracle loses an order at the coefficient jump, so allow 2e-5
        assert res.terminal_state_mean[0] == pytest.approx(0.5 * (lo + hi), abs=2e-5)


class TestHamiltonian:
    def test_zero_everything(self):
        gs = scalar_game(A=[[0.0]], sigma=[[0.0]], alpha=[0.0], M=[[[0.0]]], Q=[[[0.0]]])
        val = lqgame.hamiltonian(gs, 0, 0.1, [0.0], [[0.0]], [0.0], [0.0], [0.0])
        assert val == pytest.approx(0.0)

    def test_scalar_square_completion(self):
        gs = scalar_game(A=[[0.0]], sigma=[[0.0]], alpha=[0.0], M=[[[0.0]]])
        # H = p u + u^2 / 2, argmin at u = -p = -0.5
        vals = {u: lqgame.hamiltonian(gs, 0, 0.1, [0.0], [[u]], [0.0], [0.5], [0.0]) for u in (-0.5, 0.0, 0.5)}
        assert vals[-0.5] == pytest.approx(0.5 * (-0.5) + 0.5 * 0.25)
        assert vals[-0.5] < vals[0.0] < vals[0.5]

    def test_closed_form_minimizer_on_random_specs(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n, m_i = 2, 2
            c = rng.standard_normal((n, m_i))
            a_mat = rng.standard_normal((m_i, m_i))
            nn = a_mat @ a_mat.T + 0.5 * np.eye(m_i)
            raw = rng.standard_normal((n, n))
            gs = lqgame.GameSpec(
                n=n, horizon=1.0, x0=np.zeros(n),
                A=rng.standard_normal((n, n)),
                D=rng.standard_normal((n, n)),
                beta=rng.standard_normal(n),
                sigma=rng.standard_normal((n, n)),
                alpha=rng.standard_normal(n),
                C=[c], N=[nn], Q=[raw @ raw.T], M=[raw.T @ raw],
            )
            x = rng.standard_normal(n)
            zeta = rng.standard_normal(n)
            p_i = rng.standard_normal(n)
            q_i = rng.standard_normal(n)
            u_star = -np.linalg.solve(nn, c.T @ p_i)
            h_star = lqgame.hamiltonian(gs, 0, 0.4, x, [u_star], zeta, p_i, q_i)
            # grid search around the closed form
            grid_pts = np.linspace(-0.3, 0.3, 7)
            for d0 in grid_pts:
                for d1 in grid_pts:
                    u = u_star + np.array([d0, d1])
                    assert lqgame.hamiltonian(gs, 0, 0.4, x, [u], zeta, p_i, q_i) >= h_star - 1e-12


class TestConfig:
    def test_round_trip_example3(self):
        cfg = {
            "kind": "game", "n": 2, "m": 2, "T": 1.0, "x0": [1.0, 2.0],
            "A": {"const": [[1.0, 0.0], [0.0, 1.0]]},
            "D": {"const": [[-1.0, 0.0], [0.0, -1.0]]},
            "alpha": {"const": [1.0, 1.0]},
            "C": [[[1.0], [-2.0]], [[-2.0], [1.0]]],
            "N": [[[1.0]], [[1.0]]],
            "Q": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]],
        }
        gs = lqgame.game_from_config(cfg)
        ref = lqgame.example3_game(1.0)
        assert np.allclose(gs.x0, ref.x0)
        for t in (0.0, 0.5, 1.0):
            assert np.allclose(gs.A(t), ref.A(t))
            assert np.allclose(gs.D(t), ref.D(t))
        rep = lqgame.check_H2(gs, TimeGrid(1.0, 10))
        assert not rep.passed

    def test_missing_player_block(self):
        with pytest.raises(ValueError, match="N"):
            lqgame.game_from_config({"kind": "game", "n": 1, "m": 1, "T": 1.0, "x0": [0.0], "C": [[[1.0]]]})

    def test_per_player_lengths_checked(self):
        cfg = {"kind": "game", "n": 1, "m": 2, "T": 1.0, "x0": [0.0],
               "C": [[[1.0]]], "N": [[[1.0]], [[1.0]]]}
        with pytest.raises(ValueError, match="C"):
            lqgame.game_from_config(cfg)
