import dataclasses
import gc
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from mfbsde import fixpoint, lqgame
from mfbsde.backward import FittedMap
from mfbsde.paths import PathEnsemble, TimeGrid, from_component_major, make_bundle
from mfbsde.problem import PiecewiseConstant, check_H1
from oracles import (
    example3_boundary_det,
    example3_mean_path,
    example3_solution,
    lq_cost_blocks,
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


def mean_weights_game():
    """Two players on a 2-D state with piecewise M and Gamma, and R != 0."""
    return lqgame.GameSpec(
        n=2, horizon=0.5, x0=[1.0, -0.5], A=0.2 * np.eye(2), D=0.1 * np.eye(2), beta=[0.1, 0.2],
        sigma=0.3 * np.eye(2), alpha=[0.4, 0.2], C=[[[1.0], [-2.0]], [[-2.0], [1.0]]],
        N=[[[1.0]], [[2.0]]], Q=[np.diag([1.0, 0.5]), np.diag([0.2, 1.0])],
        M=[{"piecewise": [{"t_from": 0.0, "value": np.diag([0.5, 0.1])},
                          {"t_from": 0.25, "value": np.diag([1.0, 0.3])}]}, 0.2 * np.eye(2)],
        Gamma=[{"piecewise": [{"t_from": 0.0, "value": [[1.0, 0.3], [0.3, 0.5]]},
                              {"t_from": 0.3, "value": 2.0 * np.eye(2)}]}, np.eye(2)],
        R=[[[0.7, 0.2], [0.2, 0.4]], 0.5 * np.eye(2)],
    )


def oracle_cost(gs, i, x_cm, u_cm, grid):
    """Player i's cost of one (X, u) pair priced directly: the whole sample and the block costs."""
    return lq_cost_blocks(x_cm, u_cm, grid.nodes, gs.Q[i], gs.R[i], gs.N[i], gs.M[i], gs.Gamma[i])


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
        ("A", dict(A=PiecewiseConstant([0.0, 0.5], [0.3, np.nan]))),
        ("alpha", dict(alpha=PiecewiseConstant([0.0, 2.0], [0.1, np.inf]))),
        ("C", dict(C=[[[np.nan]]])),
        ("N", dict(N=[[[np.inf]]])),
        ("Q", dict(Q=[[[np.nan]]])),
        ("M", dict(M=[{"piecewise": [{"t_from": 0.0, "value": 1.0}, {"t_from": 0.5, "value": np.nan}]}])),
    ])
    def test_non_finite_data_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=rf"^{field}(\[0\])? must be finite"):
            scalar_game(**overrides)

    @pytest.mark.parametrize("field,overrides", [
        ("A", dict(A=lambda t: [[0.3]])),
        ("M", dict(M=[lambda t: [[1.0]]])),
    ])
    def test_callable_coefficient_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=rf"^{field}(\[0\])? must be a constant or a piecewise table, got a callable$"):
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
        assert rep.aggregated.computed["k_prime"] == pytest.approx(1.0, abs=1e-12)
        assert rep.aggregated.computed["k"] == pytest.approx(1.0, abs=1e-12)
        assert rep.commutation_residual < 1e-12
        assert rep.passed

    def test_counterexample_fails_with_expected_arithmetic(self):
        gs = lqgame.example3_game(1.0)
        rep = lqgame.check_H2(gs, TimeGrid(1.0, 50))
        K = gs.k_matrices()
        assert np.allclose(K[0], [[1.0, -2.0], [-2.0, 4.0]], atol=1e-10)
        assert np.allclose(K[1], [[4.0, -2.0], [-2.0, 1.0]], atol=1e-10)
        skq = sum(k @ q for k, q in zip(K, gs.Q))
        assert np.allclose(skq, [[1.0, -2.0], [-2.0, 1.0]], atol=1e-10)
        assert np.allclose(np.linalg.eigvalsh((skq + skq.T) / 2), [-1.0, 3.0], atol=1e-10)
        computed = rep.aggregated.computed
        assert computed["k_prime"] == pytest.approx(-1.0, abs=1e-10)
        assert not rep.aggregated.terminal_ok
        assert computed["C_nu"] == pytest.approx(1.0, abs=1e-12)
        assert computed["C_nu"] >= rep.aggregated.bound  # violates the coupling condition
        assert not rep.passed

    def test_symmetric_part_of_huge_finite_weights_does_not_overflow(self):
        # sum K_i Q_i = diag(1e308, 1) is finite, but g's slope read at e_i + e_j overflows:
        # a blow-up raised without a warning, as for a problem config
        cfg = {"kind": "game", "n": 2, "m": 2, "T": 0.25, "x0": [1, 2], "A": 0, "alpha": [0.1, 0.1],
               "C": [[[1], [0]], [[0], [1]]], "N": [[[1]], [[1]]],
               "M": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], "Q": [[[1e308, 0], [0, 0]], [[0, 0], [0, 1]]]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="^the slope of g overflows$"):
                lqgame.check_H2(lqgame.game_from_config(cfg), TimeGrid(0.25, 20))

    def test_non_commuting_dynamics_fail_on_commutation_alone(self):
        # A = [[0, 0.5], [0, 0]] on [0.101, 0.102) only, between two grid nodes; K_1 = e_1 e_1' does not commute
        pieces = [{"t_from": t, "value": v} for t, v in ((0.0, 0.0), (0.101, [[0.0, 0.5], [0.0, 0.0]]), (0.102, 0.0))]
        cfg = {"kind": "game", "n": 2, "m": 2, "T": 0.25, "x0": [1, 2], "A": {"piecewise": pieces},
               "C": [[[1], [0]], [[0], [1]]], "N": [[[1]], [[1]]],
               "M": [np.eye(2).tolist()] * 2, "Q": [np.eye(2).tolist()] * 2}
        rep = lqgame.check_H2(lqgame.game_from_config(cfg), TimeGrid(0.25, 100))
        assert rep.commutation_residual == pytest.approx(0.5, abs=1e-12)
        assert rep.aggregated.passed and not rep.commutation_ok and not rep.passed
        assert rep.to_dict()["commutation_ok"] is False and rep.to_dict()["pass"] is False

    def test_coupling_threshold_is_monotone(self):
        base = lqgame.check_H2(scalar_game(), TimeGrid(1.0, 20))
        assert base.passed
        for scale, expect in ((0.9, True), (1.1, False)):
            gs = scalar_game(D=[[scale * base.aggregated.bound]])
            rep = lqgame.check_H2(gs, TimeGrid(1.0, 20))
            assert rep.aggregated.smallness_ok is expect
            assert rep.passed is expect


class TestBuildAggregated:
    def test_scalar_coefficients(self):
        gs = lqgame.GameSpec(n=1, horizon=1.0, x0=[0.5], A=[[0.4]], beta=[0.7],
                             C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[1.0]]])
        agg = lqgame.build_aggregated(gs)
        rng = np.random.default_rng(0)
        x, y, z = rng.standard_normal((3, 1, 6))  # (m, P) blocks
        mean = rng.standard_normal((8, 2)).mean(axis=0)
        assert np.allclose(agg.f(0.2, x, y, z, mean), 0.4 * x - y + 0.7)
        computed = check_H1(agg).computed
        assert computed["C_nu"] == 0.0
        assert computed["k"] == pytest.approx(1.0)
        assert computed["k_prime"] == pytest.approx(1.0)
        assert agg.law_free_sigma

    def test_mean_coupling_constants(self):
        gs = scalar_game(D=[[0.3]], R=[[[0.2]]])
        computed = check_H1(lqgame.build_aggregated(gs)).computed
        assert computed["C_nu"] == pytest.approx(0.3)
        assert computed["C_g_nu"] == pytest.approx(0.2)  # ||sum K_i R_i||, K = 1

    def test_the_mean_coupling_bound_covers_gamma(self):
        gs = scalar_game(D=[[0.3]], Gamma=[[[0.4]]])
        block = np.array([[0.3, 0.0], [0.4, 0.3]])  # [[D, 0], [K Gamma, D']], K = 1
        rep = lqgame.check_H2(gs, TimeGrid(1.0, 10))
        assert rep.aggregated == check_H1(lqgame.build_aggregated(gs))
        assert rep.aggregated.computed["C_nu"] == pytest.approx(np.linalg.norm(block, 2))

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
        # the A and sigma terms cancel in A, and the law-free sigma's dz is taken out by the sup:
        # k = lambda_min of the form diag(sum K_i M_i, I)
        assert agg.law_free_sigma
        expected = min(1.0, float(np.linalg.eigvalsh((skm + skm.T) / 2)[0]))
        assert check_H1(agg).computed["k"] == pytest.approx(expected, abs=1e-12)

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
        x, y, z = rng.standard_normal((3, 2, 6))  # (m, P) blocks
        mean = rng.standard_normal((9, 4)).mean(axis=0)
        mean_t = rng.standard_normal((9, 2)).mean(axis=0)
        m1, m2 = mean[:2], mean[2:]
        for t in (0.2, 0.5, 0.7):
            a, d, s = gs.A(t), gs.D(t), gs.sigma(t)
            skm = sum(k @ m(t) for k, m in zip(K, gs.M))
            skg = sum(k @ g(t) for k, g in zip(K, gs.Gamma))
            checks = [
                (agg.f(t, x, y, z, mean), a @ x - y + (d @ m1 + gs.beta(t))[:, None]),
                (agg.sigma(t, x, y, z), s @ x + gs.alpha(t)[:, None]),
                (agg.h(t, x, y, z, mean), -(a.T @ y + skm @ x + (d.T @ m2 + skg @ m1)[:, None] + s.T @ z)),
            ]
            for i in range(gs.players):
                adj = lqgame._adjoint_problem(gs, i)
                want = -(a.T @ y + gs.M[i](t) @ x + (d.T @ m2 + gs.Gamma[i](t) @ m1)[:, None] + s.T @ z)
                checks.append((adj.h(t, x, y, z, mean), want))
                checks.append((adj.f(t, x, y, z, mean), np.zeros_like(x)))
                checks.append((adj.g(gs.horizon, x, mean=mean_t), gs.Q[i] @ x + (gs.R[i] @ mean_t)[:, None]))
            for got, want in checks:
                assert got.shape == want.shape and np.allclose(got, want, rtol=0.0, atol=1e-12)
        skq = sum(k @ q for k, q in zip(K, gs.Q))
        skr = sum(k @ r for k, r in zip(K, gs.R))
        assert np.allclose(agg.g(gs.horizon, x, mean=mean_t), skq @ x + (skr @ mean_t)[:, None], rtol=0.0, atol=1e-12)

    def test_no_monotonicity_profile_when_the_gate_fails(self):
        # the aggregated problem declares no constants; the computed k' of example 3 is -1
        agg = lqgame.build_aggregated(lqgame.example3_game(0.5))
        assert agg.monotonicity is None and agg.lipschitz is None
        assert check_H1(agg).computed["k_prime"] == pytest.approx(-1.0, abs=1e-12)

    def test_sups_are_taken_through_the_gate(self):
        # a piecewise D switching inside [0, T]
        gs = scalar_game(D=PiecewiseConstant([0.0, 0.5], [[[0.1]], [[-0.3]]]))
        rep = lqgame.check_H2(gs, TimeGrid(gs.horizon, 7))
        assert rep.aggregated == check_H1(lqgame.build_aggregated(gs))
        assert rep.aggregated.computed["C_nu"] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("name,overrides", [
        ("A", dict(A=np.full((2, 2), 1e308))),
        ("sum K_i M_i", dict(M=[PiecewiseConstant([0.0, 0.5], [np.eye(2), np.full((2, 2), 1.5e308)])])),
    ])
    def test_overflowing_sup_raises_naming_the_coefficient(self, name, overrides):
        # finite entries whose spectral norm, 2e308 or sqrt(2) 1.5e308, overflows
        gs = scalar_game(**{"n": 2, "x0": [1.0, 2.0], "A": 0.0, "sigma": 0.0, "alpha": 0.0,
                            "C": [[[1.0], [0.0]]], "Q": [np.eye(2)], "M": (), **overrides})
        with pytest.raises(FloatingPointError, match=rf"^the sup norm of {name} over \[0, 1\] overflows$"):
            lqgame.build_aggregated(gs)

    def test_pieces_after_the_horizon_are_ignored(self):
        # D jumps to 5 at t = 2, past T = 1
        gs = scalar_game(D=PiecewiseConstant([0.0, 2.0], [[[0.1]], [[5.0]]]))
        assert lqgame.check_H2(gs, TimeGrid(1.0, 20)).passed
        agg = lqgame.build_aggregated(gs)
        assert check_H1(agg).computed["C_nu"] == pytest.approx(0.1, abs=1e-15)
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

    def test_two_component_control_prices_as_the_axis_sum(self):
        # the running term u' N u, summed over the control components by a
        # loop, against np.sum(u * (N @ u), axis=1); the form's node-by-node
        # quadrature moves the last bit
        gs = lqgame.GameSpec(
            n=2, horizon=1.0, x0=[0.3, -0.2], A=[[0.3, 0.1], [-0.2, 0.2]],
            C=[np.array([[0.2, 0.0], [1.0, -0.4]])], N=[[[1.3, 0.4], [0.4, 0.9]]], Q=[[[1.0, 0.2], [0.2, 0.5]]],
        )
        grid = TimeGrid(1.0, 12)
        rng = np.random.default_rng(9)
        x_cm, u_cm = rng.standard_normal((2, grid.steps + 1, 2, 400))
        w = np.full(grid.steps + 1, grid.dt)
        w[[0, -1]] *= 0.5
        terminal = np.sum(x_cm[-1] * (gs.Q[0] @ x_cm[-1]), axis=0)
        running = w @ np.sum(u_cm * (gs.N[0] @ u_cm), axis=1)
        m_t = x_cm[-1].mean(axis=1)
        want = 0.5 * (float(np.mean(terminal)) + float(m_t @ gs.R[0] @ m_t) + float(np.mean(running)))
        value, _ = lqgame.cost(gs, 0, from_component_major(x_cm), [from_component_major(u_cm)], grid)
        assert value == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_matches_the_direct_pricing_oracle(self):
        # piecewise M and Gamma, R != 0 and 410 particles (uneven blocks):
        # the value and the batch-means stderr of the oracle's per-block pricing
        gs = mean_weights_game()
        grid = TimeGrid(gs.horizon, 20)
        rng = np.random.default_rng(12)
        x_cm = 1.0 + rng.standard_normal((grid.steps + 1, 2, 410))
        for i, m_i in enumerate(gs.control_dims):
            u_cm = 0.5 + rng.standard_normal((grid.steps + 1, m_i, 410))
            controls = [from_component_major(u_cm)] * gs.players
            value, stderr = lqgame.cost(gs, i, from_component_major(x_cm), controls, grid)
            want, blocks = oracle_cost(gs, i, x_cm, u_cm, grid)
            assert len(blocks) == 20 and value == pytest.approx(want, rel=1e-12, abs=0.0)
            assert stderr == pytest.approx(np.std(blocks, ddof=1) / np.sqrt(20), rel=1e-10, abs=0.0)

    def test_control_or_state_of_the_wrong_shape_is_rejected(self):
        # a 1x1 N would broadcast over a second control column and price it too
        gs = scalar_game()
        grid = TimeGrid(1.0, 10)
        x, u = self.make_constant_ensembles(30, 11, 1.0, 1.0)
        wide = PathEnsemble(np.ones((30, 11, 2)))
        with pytest.raises(ValueError, match=r"^control of player 0 must be a PathEnsemble or a FittedMap with \(nodes, dim, particles\) = \(11, 1, 30\), got \(11, 2, 30\)$"):
            lqgame.cost(gs, 0, x, [wide], grid)
        with pytest.raises(ValueError, match=r"^control of player 0 must be a PathEnsemble or a FittedMap with \(nodes, dim, particles\) = \(11, 1, 30\), got \(11, 1, 20\)$"):
            lqgame.cost(gs, 0, x, [PathEnsemble(np.ones((20, 11, 1)))], grid)
        with pytest.raises(ValueError, match=r"^state must have 11 nodes of 1 components, got \(11, 2\)$"):
            lqgame.cost(gs, 0, wide, [u], grid)
        with pytest.raises(ValueError, match=r"^state must have 13 nodes of 1 components, got \(11, 1\)$"):
            lqgame.cost(gs, 0, x, [u], TimeGrid(1.0, 12))

    def test_player_index_out_of_range(self):
        gs = lqgame.example3_game(0.25)
        grid = TimeGrid(0.25, 10)
        x = PathEnsemble(np.ones((30, 11, 2)))
        u = [PathEnsemble(np.zeros((30, 11, 1)))] * 2
        for i in (-1, 2):
            with pytest.raises(ValueError, match=f"^player index {i} is out of range for a game of 2 players$"):
                lqgame.cost(gs, i, x, u, grid)

    def test_control_count_other_than_the_player_count_is_rejected(self):
        # cost reads only player i's control, and used to raise IndexError when the list stopped short of it
        gs = lqgame.example3_game(0.25)
        grid = TimeGrid(0.25, 10)
        x = PathEnsemble(np.ones((30, 11, 2)))
        u = PathEnsemble(np.zeros((30, 11, 1)))
        for controls in ([u], [u] * 3):
            with pytest.raises(ValueError, match=f"^need one control per player, got {len(controls)}$"):
                lqgame.cost(gs, 1, x, controls, grid)


class TestSimulateState:
    @staticmethod
    def two_player_game(A):
        return lqgame.GameSpec(
            n=2, horizon=1.0, x0=[0.3, -0.2], A=A, D=[[0.1, -0.05], [0.2, 0.1]],
            sigma=[[0.2, 0.1], [0.0, 0.3]], beta=[0.05, -0.1], alpha=[0.4, 0.1],
            C=[np.array([[1.0], [0.5]]), np.array([[0.2, 0.0], [1.0, -0.4]])],
            N=[[[1.0]], np.eye(2)], Q=[np.eye(2), np.eye(2)],
        )

    def test_euler_step_matches_hand_formula(self):
        # A switches between the second and third step (at t = 0.3 on a
        # 0.25 grid); both controls are ensembles, of widths 1 and 2
        gs = self.two_player_game(PiecewiseConstant([0.0, 0.3], [[[0.3, 0.1], [-0.2, 0.2]], [[0.1, 0.4], [0.0, -0.3]]]))
        grid = TimeGrid(1.0, 4)
        particles = 50
        bundle = make_bundle(grid, particles, seed=7)
        rng = np.random.default_rng(8)
        u0 = PathEnsemble(rng.standard_normal((particles, grid.steps + 1, 1)))
        u1 = PathEnsemble(rng.standard_normal((particles, grid.steps + 1, 2)))
        x = lqgame.simulate_state(gs, grid, bundle, [u0, u1]).values
        xk = np.broadcast_to(gs.x0, (particles, 2))
        for k in range(grid.steps):
            t = grid.nodes[k]
            drift = (xk @ gs.A(t).T + xk.mean(axis=0) @ gs.D(t).T + gs.beta(t)
                     + u0.values[:, k] @ gs.C[0].T + u1.values[:, k] @ gs.C[1].T)
            diffusion = xk @ gs.sigma(t).T + gs.alpha(t)
            xk = xk + drift * grid.dt + diffusion * bundle.increments[:, k, None]
            assert np.allclose(x[:, k + 1], xk, rtol=1e-12, atol=0.0)

    def test_one_column_controls_match_the_matmul_step(self):
        # players with m_i = 1 and m_i = 2: the broadcast product and the
        # in-place step give the bits of the per-step C_i @ u_i reference
        gs = self.two_player_game([[0.3, 0.1], [-0.2, 0.2]])
        grid = TimeGrid(1.0, 20)
        particles = 300
        bundle = make_bundle(grid, particles, seed=3)
        rng = np.random.default_rng(4)
        u0 = PathEnsemble(rng.standard_normal((particles, grid.steps + 1, 1)))
        u1 = PathEnsemble(rng.standard_normal((particles, grid.steps + 1, 2)))
        x = lqgame.simulate_state(gs, grid, bundle, [u0, u1]).component_major
        f, sigma = lqgame._dynamics(gs)
        ref = np.empty_like(x)
        ref[0] = gs.x0[:, None]
        for k in range(grid.steps):
            t, xk = float(grid.nodes[k]), ref[k]
            drift = f(t, xk, mean=xk.mean(axis=-1))
            drift = drift + gs.C[0] @ u0.component_major[k] + gs.C[1] @ u1.component_major[k]
            ref[k + 1] = ref[k] + drift * grid.dt + sigma(t, xk) * bundle.component_major[k]
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize("control, got", [
        (PathEnsemble(np.zeros((1, 11, 2))), "(11, 2, 1)"),
        (PathEnsemble(np.zeros((30, 10, 2))), "(10, 2, 30)"),
        (PathEnsemble(np.zeros((30, 11, 1))), "(11, 1, 30)"),
        (lambda k, t, x: np.zeros((30, 2)), "function"),
    ], ids=["one_particle", "too_few_nodes", "too_narrow", "callable"])
    def test_control_of_the_wrong_shape_is_rejected(self, control, got):
        gs = self.two_player_game([[0.3, 0.1], [-0.2, 0.2]])
        grid = TimeGrid(1.0, 10)
        good = PathEnsemble(np.zeros((30, 11, 1)))
        with pytest.raises(ValueError, match=rf"^control of player 1 must be a PathEnsemble or a FittedMap with \(nodes, dim, particles\) = \(11, 2, 30\), got {re.escape(got)}$"):
            lqgame.simulate_state(gs, grid, make_bundle(grid, 30, seed=0), [good, control])


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

    def test_mean_cost_weights_enter_the_aggregated_driver(self):
        # mean cost weights Gamma_i = 2: sum K_i Gamma_i E[X] drives the
        # aggregated adjoint, or sum K_i p_i drifts off Ytilde and the means
        # off the mean reduction
        gs = lqgame.GameSpec(
            n=1, horizon=1.0, x0=[1.0], A=0.2, D=0.15, beta=0.1, alpha=0.4,
            C=[[[1.0]], [[0.8]]], N=[[[1.0]], [[2.0]]], Q=[[[1.0]], [[0.5]]],
            M=[[[0.8]], [[1.0]]], Gamma=[[[2.0]], [[2.0]]],
        )
        grid, particles = TimeGrid(1.0, 80), 4000
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=particles), seed=3)
        assert nash.converged
        assert nash.aggregation_residual_y < 1e-5
        oracle = lqgame.solve_mean_fbode(gs, times=grid.nodes)
        emp = nash.x_ens.values.mean(axis=0)[:, 0]
        assert np.abs(emp - oracle.state_mean[:, 0]).max() < 3 * (grid.dt + particles**-0.5)

    @pytest.mark.parametrize("threads", [0, 2])
    def test_only_one_thread_accepted(self, threads):
        params = fixpoint.SchemeParams(particles=50, max_outer=2)
        with pytest.raises(ValueError, match=f"threads must be 1, got {threads}"):
            lqgame.solve_nash(lqgame.example3_game(0.25), TimeGrid(0.25, 5), params, threads=threads)


class TestResultsAreMaps:
    def test_result_holds_the_state_paths_and_per_node_tables(self):
        # U is one X path set (21 nodes of 2 components and 2,000 particles).  The result keeps X (1 U), the
        # bundle (0.48 U) and, for Y, Z, each p_i, q_i and control, per-node tables and (1 + n, P) designs:
        # 1.87 U measured.  The same fields as path ensembles held 8.36 U
        gs = lqgame.example3_game(0.25)
        # a small solve first, so that modules numpy imports on first use are not counted
        lqgame.solve_nash(gs, TimeGrid(0.25, 4), fixpoint.SchemeParams(particles=200, max_outer=3), seed=0)
        params = fixpoint.SchemeParams(particles=2000, max_outer=30, tol=1e-3)
        tracemalloc.start()
        try:
            nash = lqgame.solve_nash(gs, TimeGrid(0.25, 20), params, seed=3)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert nash.x_ens.nodes == 21
        assert held <= 2.5 * 21 * 2 * 2000 * 8

    def test_a_control_map_prices_as_the_ensemble_of_its_values(self):
        # simulate_state, cost and deviation_test read a control node by node, as a map or as an ensemble
        gs = lqgame.example3_game(0.25)
        grid = TimeGrid(0.25, 20)
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=400, max_outer=30, tol=1e-3), seed=2)
        rng = np.random.default_rng(5)
        maps = [FittedMap(nash.x_ens, 0.3 * rng.standard_normal((grid.steps + 1, 1 + gs.n, m)))
                for m in gs.control_dims]
        ensembles = [PathEnsemble(u.values) for u in maps]
        x_map, x_ens = (lqgame.simulate_state(gs, grid, nash.aggregated.bundle, c) for c in (maps, ensembles))
        assert np.allclose(x_map.values, x_ens.values, rtol=1e-12, atol=0.0)
        for i in range(gs.players):
            want = lqgame.cost(gs, i, x_ens, ensembles, grid)
            assert lqgame.cost(gs, i, x_map, maps, grid) == pytest.approx(want, rel=1e-12, abs=0.0)
            got, want = (lqgame.deviation_test(gs, dataclasses.replace(nash, controls=c), i, perturbations=4, seed=7)
                         for c in (maps, ensembles))
            assert got.baseline_cost == pytest.approx(want.baseline_cost, rel=1e-12, abs=0.0)
            assert got.deltas == pytest.approx(want.deltas, rel=1e-12, abs=0.0)

    def test_result_tables_are_read_only(self):
        gs = scalar_game()
        nash = lqgame.solve_nash(gs, TimeGrid(1.0, 10), fixpoint.SchemeParams(particles=200, max_outer=10), seed=1)
        for fitted in (nash.aggregated.y_ens, nash.adjoints_p[0], nash.controls[0]):
            with pytest.raises(ValueError, match="read-only"):
                fitted.coef[0, 0, 0] = 1.0


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

    def test_base_state_is_simulated_once_per_call(self, monkeypatch):
        gs, nash = self.example3_nash()
        expected = [lqgame.deviation_test(gs, dataclasses.replace(nash), i, perturbations=3, seed=i) for i in (0, 1)]
        calls = []
        real = lqgame.simulate_state
        monkeypatch.setattr(lqgame, "simulate_state", lambda *a: calls.append(1) or real(*a))
        reports = [lqgame.deviation_test(gs, nash, i, perturbations=3, seed=i) for i in (0, 1)]
        assert len(calls) == 2
        for rep, ref in zip(reports, expected):
            assert rep.deltas == ref.deltas and rep.baseline_cost == ref.baseline_cost
        # the probes are priced from the base state and its responses: ten times the probes, no more simulations
        counts = []
        for count in (3, 30):
            calls.clear()
            lqgame.deviation_test(gs, nash, 0, perturbations=count, seed=0)
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_deltas_are_exactly_quadratic_in_the_magnitude(self):
        # an open-loop probe moves the state by magnitude * xi, with xi free
        # of the magnitude, so Delta(e) = e G + e^2 H and
        # Delta(0.2) = 3 Delta(0.1) + Delta(-0.1) up to rounding
        gs, nash = self.example3_nash()
        d01, d02, dm01 = (np.array(lqgame.deviation_test(gs, nash, 0, perturbations=4, magnitude=e, seed=3).deltas)
                          for e in (0.1, 0.2, -0.1))
        assert d02 == pytest.approx(3 * d01 + dm01, rel=1e-9, abs=0.0)

    def test_replaced_controls_do_not_reuse_the_base_state(self, monkeypatch):
        gs, nash = self.example3_nash()
        lqgame.deviation_test(gs, nash, 0, perturbations=2, seed=0)
        corrupted = list(nash.controls)
        corrupted[0] = PathEnsemble(corrupted[0].values + 0.5)
        bad = dataclasses.replace(nash, controls=corrupted)
        calls = []
        real = lqgame.simulate_state
        monkeypatch.setattr(lqgame, "simulate_state", lambda *a: calls.append(1) or real(*a))
        rep = lqgame.deviation_test(gs, bad, 0, perturbations=2, seed=0)
        assert len(calls) == 1
        x_bad = real(gs, nash.aggregated.grid, nash.aggregated.bundle, corrupted)
        assert rep.baseline_cost == lqgame.cost(gs, 0, x_bad, corrupted, nash.aggregated.grid)[0]
        # and the same result object picks up an in-place swap of its controls
        nash.controls = corrupted
        assert lqgame.deviation_test(gs, nash, 0, perturbations=2, seed=0).deltas == rep.deltas

    @staticmethod
    def simulated_deviations(gs, nash, i, perturbations, magnitude, seed):
        """Each probe's state re-simulated and its cost priced directly: the deltas and paired stderrs."""
        grid, bundle = nash.aggregated.grid, nash.aggregated.bundle
        rng = np.random.default_rng(seed)
        x_base = lqgame.simulate_state(gs, grid, bundle, nash.controls).component_major
        base_i = nash.controls[i].paths().component_major
        j_base, base_batches = oracle_cost(gs, i, x_base, base_i, grid)
        deltas, stderrs = [], []
        for j in range(perturbations):
            a = rng.standard_normal(gs.control_dims[i])[:, None]
            b = rng.standard_normal((gs.control_dims[i], gs.n)) / np.sqrt(gs.n) if j % 2 else None
            u_dev = base_i + magnitude * (a if b is None else a + b @ x_base)
            controls = list(nash.controls)
            controls[i] = from_component_major(u_dev)
            x_dev = lqgame.simulate_state(gs, grid, bundle, controls).component_major
            j_dev, dev_batches = oracle_cost(gs, i, x_dev, u_dev, grid)
            deltas.append(j_dev - j_base)
            paired = dev_batches - base_batches
            stderrs.append(np.std(paired, ddof=1) / np.sqrt(len(paired)))
        return deltas, stderrs

    @pytest.mark.parametrize("game", ["example3", "criterion6", "mean_weights", "two_controls"])
    def test_probes_are_priced_as_their_simulated_deviations(self, game):
        # the streamed responses give every probe's cost change and paired
        # stderr as re-simulating its state and pricing it would
        particles = 400
        if game == "example3":  # sigma = 0, M = Gamma = R = 0
            gs = lqgame.example3_game(0.25)
        elif game == "criterion6":  # M = 1, multiplicative noise 0.2
            gs = scalar_game()
        elif game == "mean_weights":  # Gamma and R on the plug-in means, uneven particle blocks
            particles = 410
            gs = mean_weights_game()
        else:  # player 0 has a two-component control: q = 2 (1 + 2) = 6 directions
            gs = lqgame.GameSpec(
                n=2, horizon=0.25, x0=[1.0, 2.0], A=np.eye(2), D=-np.eye(2), sigma=0.3 * np.eye(2),
                alpha=[1.0, 1.0], C=[np.eye(2), [[-2.0], [1.0]]], N=[[[1.0, 0.2], [0.2, 2.0]], [[1.0]]],
                Q=[np.diag([1.0, 0.5]), np.diag([0.0, 1.0])],
            )
        params = fixpoint.SchemeParams(particles=particles, max_outer=30, tol=1e-3)
        nash = lqgame.solve_nash(gs, TimeGrid(gs.horizon, 20), params, seed=2)
        for i in range(gs.players):
            rep = lqgame.deviation_test(gs, nash, i, perturbations=6, magnitude=0.1, seed=3 + i)
            deltas, stderrs = self.simulated_deviations(gs, nash, i, 6, 0.1, 3 + i)
            assert rep.deltas == pytest.approx(deltas, rel=1e-9, abs=0.0)
            assert rep.stderrs == pytest.approx(stderrs, rel=1e-9, abs=0.0)

    def test_overflowing_probe_raises_without_warning(self):
        gs = scalar_game()
        nash = lqgame.solve_nash(gs, TimeGrid(1.0, 20), fixpoint.SchemeParams(particles=200, max_outer=10), seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError):
                lqgame.deviation_test(gs, nash, 0, perturbations=2, magnitude=1e300)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_player_index_out_of_range(self, monkeypatch):
        # -1 would price the last player under the name -1, and 2 would index past the controls
        gs, nash = self.example3_nash()
        monkeypatch.setattr(lqgame, "simulate_state", lambda *a: pytest.fail("simulated for a bad player index"))
        for i in (-1, 2):
            with pytest.raises(ValueError, match=f"^player index {i} is out of range for a game of 2 players$"):
                lqgame.deviation_test(gs, nash, i, perturbations=2)

    def test_perturbation_count_must_be_positive(self):
        gs = scalar_game()
        nash = lqgame.solve_nash(gs, TimeGrid(1.0, 10), fixpoint.SchemeParams(particles=200, max_outer=10), seed=1)
        for count in (0, -2):
            with pytest.raises(ValueError, match=f"perturbations must be >= 1, got {count}"):
                lqgame.deviation_test(gs, nash, 0, perturbations=count)

    def test_magnitude_must_be_finite(self, monkeypatch):
        gs = scalar_game()
        nash = lqgame.solve_nash(gs, TimeGrid(1.0, 10), fixpoint.SchemeParams(particles=200, max_outer=10), seed=1)
        monkeypatch.setattr(lqgame, "simulate_state", lambda *a: pytest.fail("simulated a non-finite deviation"))
        for magnitude in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="magnitude must be finite"):
                lqgame.deviation_test(gs, nash, 0, magnitude=magnitude)

    def test_zero_magnitude_gives_exact_zero_deltas(self):
        gs = scalar_game()
        grid = TimeGrid(1.0, 30)
        nash = lqgame.solve_nash(gs, grid, fixpoint.SchemeParams(particles=500, max_outer=15, tol=1e-3), seed=5)
        rep = lqgame.deviation_test(gs, nash, 0, perturbations=6, magnitude=0.0, seed=0)
        assert rep.deltas == [0.0] * 6
        assert all(np.copysign(1.0, d) == 1.0 for d in rep.deltas)  # no -0.0 in the report
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

    @staticmethod
    def growing_game(horizon):
        # B(T) = 4.6e193 at T = 200, and the transition overflows at T = 400
        return lqgame.GameSpec(n=1, horizon=horizon, x0=[1.0], A=[[2.0]], alpha=[0.1],
                               C=[[[1.0]]], N=[[[1.0]]], Q=[[[1.0]]], M=[[[1.0]]])

    def test_singularity_test_is_scale_invariant(self):
        # the row norm of B(T) squares its entry and overflows; the row-normalized ratio is 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lqgame.solve_mean_fbode(self.growing_game(200.0))
        assert isinstance(res, lqgame.MeanSolution)
        assert res.det == pytest.approx(4.6124e193, rel=1e-4)
        assert res.terminal_state_mean[0] * res.det == pytest.approx(1.0, rel=1e-12)
        assert res.state_mean[0, 0] == pytest.approx(1.0, rel=1e-9)

    def test_overflowing_transition_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=r"boundary matrix B\(400\) is not finite"):
                lqgame.solve_mean_fbode(self.growing_game(400.0))

    @pytest.mark.parametrize("times", [[np.nan], [0.1, np.nan]])
    def test_non_finite_times_rejected(self, times):
        # NaN fails both range comparisons, so it must be rejected as input, not reported as a non-finite trajectory
        with pytest.raises(ValueError, match=r"^output times must lie in \[0, 0\.5\]$"):
            lqgame.solve_mean_fbode(lqgame.example3_game(0.5), times=times)

    @pytest.mark.parametrize("times", [[[0.1]], 0.1], ids=["nested", "scalar"])
    def test_times_other_than_a_flat_list_rejected(self, times):
        # [[0.1]] used to raise TypeError and 0.1 IndexError, past the range check
        with pytest.raises(ValueError, match=r"^output times must lie in \[0, 0\.5\]$"):
            lqgame.solve_mean_fbode(lqgame.example3_game(0.5), times=times)

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

        # shooting oracle on the terminal state mean: the ODE is linear, so
        # the shot x0(s) is affine in s and two shots locate x0(s) = 1
        def x0_of(s):
            return rk4(odes, np.array([s, 1.0 * s]), 1.0, 0.0, 8000)[0]

        at0, at1 = x0_of(0.0), x0_of(1.0)
        root = (1.0 - at0) / (at1 - at0)
        # the RK4 oracle loses an order at the coefficient jump, so allow 2e-5
        assert res.terminal_state_mean[0] == pytest.approx(root, abs=2e-5)


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
