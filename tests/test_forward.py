import numpy as np
import pytest

from mfbsde.forward import propagate
from mfbsde.paths import PathEnsemble, TimeGrid, joint_marginal, make_bundle
from conftest import scalar_problem, slab_tables, zero_sweep
from oracles import rk4


def make_problem(x0, f=None, sigma=None):
    """1-D problem on [0, 1] with the drift terms ``f`` and diffusion terms ``sigma``, h = 0 and g = x."""
    return scalar_problem(x0, f=f, sigma=sigma, g={"x": 1.0})


def zero_state(particles, steps, dim=1):
    y = PathEnsemble(np.zeros((particles, steps + 1, dim)))
    z = PathEnsemble(np.zeros((particles, steps, dim)))
    flow = joint_marginal(y, y)
    return y, z, flow


class TestPropagate:
    def test_no_dynamics_stays_at_x0(self):
        p = make_problem(1.3)
        grid = TimeGrid(1.0, 20)
        bundle = make_bundle(grid, 16, seed=0)
        _, _, flow = zero_state(16, 20)
        x = zero_sweep(p, grid, bundle, flow)
        assert np.allclose(x.values, 1.3)

    def test_constant_drift_integrates_exactly(self):
        p = make_problem(0.0, f={"const": 1.0})
        grid = TimeGrid(1.0, 13)
        bundle = make_bundle(grid, 8, seed=0)
        _, _, flow = zero_state(8, 13)
        x = zero_sweep(p, grid, bundle, flow)
        assert np.allclose(x.values[:, -1, 0], 1.0, atol=1e-14)

    def test_linear_drift_converges_to_exponential(self):
        a = 0.8
        p = make_problem(1.0, f={"x": a})
        errs = []
        for steps in (50, 100, 200):
            grid = TimeGrid(1.0, steps)
            bundle = make_bundle(grid, 4, seed=0)
            _, _, flow = zero_state(4, steps)
            x = zero_sweep(p, grid, bundle, flow)
            errs.append(abs(x.values[0, -1, 0] - np.exp(a)))
        assert errs[0] < 0.02
        # first-order convergence: halving dt roughly halves the error
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_zero_delta_matches_positive_delta_with_equal_prev(self):
        p = make_problem(1.0, f={"x": -1.0, "y": 1.0}, sigma={"x": 0.5})
        grid = TimeGrid(1.0, 30)
        bundle = make_bundle(grid, 32, seed=1)
        rng = np.random.default_rng(2)
        slab, (y, z) = slab_tables(30, 1, 32, rng.standard_normal((31, 1, 32)), rng.standard_normal((30, 1, 32)))
        _, _, flow = zero_state(32, 30)
        x0 = propagate(p, grid, bundle, slab, 0, (y, z), (y, z), flow, 0.0, 0)[0].values.copy()
        x1 = propagate(p, grid, bundle, slab, 0, (y, z), (y.copy(), z.copy()), flow, 0.7, 0)[0]
        assert np.array_equal(x0, x1.values)

    def test_delta_term_active_when_prev_differs(self):
        p = make_problem(0.0)
        grid = TimeGrid(1.0, 10)
        bundle = make_bundle(grid, 4, seed=0)
        slab, (y, z, y_prev, z_prev) = slab_tables(10, 1, 4, 1.0, 0.0, 0.0, 0.0)
        _, _, flow = zero_state(4, 10)
        x, _ = propagate(p, grid, bundle, slab, 0, (y, z), (y_prev, z_prev), flow, 0.5, 0)
        # drift is -delta (y - y_prev) = -0.5, so X_T = -0.5
        assert np.allclose(x.values[:, -1, 0], -0.5, atol=1e-14)

    def test_mean_field_drift_matches_ode_oracle(self):
        # f = a x + d E[x] + beta: ensemble mean follows m' = (a + d) m + beta
        a, d, beta = 0.4, -0.9, 0.3
        p = make_problem(1.0, f={"x": a, "mean_x": d, "const": beta}, sigma={"const": 0.5})
        grid = TimeGrid(1.0, 200)
        particles = 20_000
        bundle = make_bundle(grid, particles, seed=3)
        y = PathEnsemble(np.zeros((particles, 201, 1)))
        z = PathEnsemble(np.zeros((particles, 200, 1)))
        # self-consistent flow: iterate the plug-in mean twice
        flow = joint_marginal(y, y)
        x = zero_sweep(p, grid, bundle, flow)
        for _ in range(3):
            flow = joint_marginal(x, y)
            x = zero_sweep(p, grid, bundle, flow)
        oracle = rk4(lambda t, m: (a + d) * m + beta, np.array([1.0]), 0.0, 1.0, 4000)
        tol = 5 * (grid.dt + particles**-0.5)
        assert abs(x.values[:, -1, 0].mean() - oracle[0]) < tol

    def test_deterministic_repeat(self, toy_problem):
        grid = TimeGrid(0.25, 20)
        bundle = make_bundle(grid, 64, seed=5)
        rng = np.random.default_rng(6)
        y = PathEnsemble(rng.standard_normal((64, 21, 1)))
        slab, (ty, tz) = slab_tables(20, 1, 64, y.component_major, rng.standard_normal((20, 1, 64)))
        flow = joint_marginal(y, y)
        a = propagate(toy_problem, grid, bundle, slab, 0, (ty, tz), (ty, tz), flow, 1e-3, 0)[0].values.copy()
        b = propagate(toy_problem, grid, bundle, slab, 0, (ty, tz), (ty, tz), flow, 1e-3, 0)[0]
        assert np.array_equal(a, b.values)

    def test_shape_mismatch_rejected(self, toy_problem):
        grid = TimeGrid(0.25, 10)
        bundle = make_bundle(grid, 8, seed=0)
        _, _, flow = zero_state(8, 10)
        slab, (y, z) = slab_tables(10, 1, 8, 0.0, 0.0)
        with pytest.raises(ValueError, match="^iterate Y table has shape"):
            propagate(toy_problem, grid, bundle, slab, 0, (y[:-1], z), (y, z), flow, 0.0, 0)

    def test_blowup_aborts_with_step_index(self):
        p = make_problem(10.0, f={"x": 1e306})
        grid = TimeGrid(1.0, 50)
        bundle = make_bundle(grid, 4, seed=0)
        _, _, flow = zero_state(4, 50)
        # step 0 reaches X = 10 + 0.02 1e306 10 = 2e305; step 1 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^forward propagation produced non-finite values at step 1$"):
                zero_sweep(p, grid, bundle, flow)
