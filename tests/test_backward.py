import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mfbsde import backward, lqgame
from mfbsde.backward import solve_backward
from mfbsde.forward import propagate
from mfbsde.paths import PathEnsemble, TimeGrid, from_component_major, joint_marginal, make_bundle
from mfbsde.problem import AffineCoeffs, MfProblem, PiecewiseConstant, problem_from_config
from conftest import TOY_PROBLEM, pure_martingale, scalar_problem


def brownian_paths(problem, grid, particles, seed):
    bundle = make_bundle(grid, particles, seed)
    y = PathEnsemble(np.zeros((particles, grid.steps + 1, 1)))
    z = PathEnsemble(np.zeros((particles, grid.steps, 1)))
    flow = joint_marginal(y, y)
    x = propagate(problem, grid, bundle, y, z, y, z, flow, 0.0)
    return bundle, x, flow


def backward_paths(*args, **kwargs):
    """solve_backward with its fitted maps built into (Y, Z) paths."""
    y, z, diag = solve_backward(*args, **kwargs)
    return y.paths(), z.paths(), diag


def affine_design(x):
    """The [1, x] design (P, 1 + m) of particle-major states x (P, m)."""
    return np.column_stack([np.ones(len(x)), x])


def per_step_backward(p, grid, bundle, x_ens, flow):
    """Reference recursion: each step's affine design, Gram matrix, ridge
    shift and eigenvalue flag formed on its own, particle-major."""
    m, steps, dt = p.dim_state, grid.steps, grid.dt
    xv, dw = x_ens.values, bundle.increments
    y = np.empty((xv.shape[0], steps + 1, m))
    z = np.empty((xv.shape[0], steps, m))
    ridge = []
    y[:, steps] = p.g(p.horizon, xv[:, steps].T, mean=flow[steps]).T
    for k in range(steps - 1, -1, -1):
        design = affine_design(xv[:, k])
        gram = design.T @ design
        scale = np.trace(gram) / gram.shape[0] + 1.0
        shifted = gram + backward._RIDGE * scale * np.eye(gram.shape[0])
        if np.linalg.eigvalsh(gram)[0] < 1e-10 * scale:
            ridge.append(k)

        def fit(targets):
            return design @ np.linalg.solve(shifted, design.T @ targets)

        z[:, k] = fit(y[:, k + 1] * dw[:, k, None] / dt)
        guess = y[:, k + 1]
        for _ in range(backward._PICARD_PASSES):
            guess = fit(y[:, k + 1] - p.h(grid.nodes[k], xv[:, k].T, guess.T, z[:, k].T, flow[k]).T * dt)
        y[:, k] = guess
    return y, z, ridge


class TestSolveBackward:
    def test_constant_terminal_no_driver(self):
        p = scalar_problem(sigma={"const": 1.0}, g={"const": 2.5})
        grid = TimeGrid(1.0, 20)
        particles = 2000
        bundle, x, flow = brownian_paths(p, grid, particles, seed=0)
        y, z, _ = backward_paths(p, grid, bundle, x, flow)
        assert np.allclose(y.values, 2.5, atol=1e-10)
        # Z is zero only in expectation: each fit carries Monte Carlo noise
        # of order std(c dW/dt) * sqrt(n_features / particles)
        se_mean = 2.5 / math.sqrt(grid.horizon * particles)
        assert abs(z.values.mean()) < 3 * se_mean
        fit_noise = (2.5 / math.sqrt(grid.dt)) * math.sqrt(2.0 / particles)
        assert np.abs(z.values).max() < 10 * fit_noise  # leverage inflates tail fits

    def test_martingale_representation(self, martingale_problem):
        grid = TimeGrid(1.0, 50)
        particles = 5000
        bundle, x, flow = brownian_paths(martingale_problem, grid, particles, seed=2)
        y, z, _ = backward_paths(martingale_problem, grid, bundle, x, flow)
        x0 = martingale_problem.x0[0]
        se_y0 = x.values[:, -1, 0].std() / math.sqrt(particles)
        assert abs(y.values[:, 0, 0].mean() - x0) < 3 * se_y0
        # Y_t should track X_t (conditional expectation of X_T is X_t)
        mid = 25
        assert np.corrcoef(y.values[:, mid, 0], x.values[:, mid, 0])[0, 1] > 0.999
        # Z estimate: regression means equal raw-target means, so the MC
        # standard error comes from the per-particle time-averaged targets
        targets = x.values[:, 1:, 0] * bundle.increments / grid.dt
        per_particle = targets.mean(axis=1)
        se_z = per_particle.std() / math.sqrt(particles)
        assert abs(z.values.mean() - 1.0) < 3 * se_z

    def test_linear_driver_exponential(self):
        a = 0.5
        p = scalar_problem(h={"y": -a}, sigma={"const": 1.0}, g={"const": 1.0})
        grid = TimeGrid(1.0, 100)
        bundle, x, flow = brownian_paths(p, grid, 2000, seed=2)
        y, _, _ = backward_paths(p, grid, bundle, x, flow)
        assert y.values[:, 0, 0].mean() == pytest.approx(math.exp(a), rel=0.01)

    def test_tower_property_fitted_values_are_functions_of_state(self, martingale_problem):
        grid = TimeGrid(1.0, 10)
        bundle, x, flow = brownian_paths(martingale_problem, grid, 300, seed=3)
        y, z, _ = backward_paths(martingale_problem, grid, bundle, x, flow)
        # two particles with (numerically) equal states get equal fits
        xs = x.values[:, 5, 0]
        i, j = np.argsort(xs)[:2]
        if abs(xs[i] - xs[j]) < 1e-3:
            assert abs(y.values[i, 5, 0] - y.values[j, 5, 0]) < 1e-2
        # fitted Y at node k is affine in X at node k: residual of refit is 0
        design = affine_design(x.values[:, 5, :])
        coef, *_ = np.linalg.lstsq(design, y.values[:, 5, :], rcond=None)
        assert np.allclose(design @ coef, y.values[:, 5, :], atol=1e-9)

    def test_noiseless_affine_problem_zero_residuals(self):
        p = scalar_problem(1.0, f={"x": 0.5}, h={"x": -0.3, "y": 0.2}, g={"x": 2.0, "const": 1.0})
        grid = TimeGrid(1.0, 20)
        bundle, x, flow = brownian_paths(p, grid, 50, seed=4)
        _, _, diag = solve_backward(p, grid, bundle, x, flow)
        # Y-fit exact by affinity up to the stabilizing ridge's O(1e-10)
        # shrinkage; Z targets carry dW noise by design
        assert max(diag.y_residuals) < 1e-8

    def test_martingale_defect_within_three_stderr_at_every_step(self, martingale_problem):
        grid = TimeGrid(1.0, 40)
        particles = 4000
        bundle, x, flow = brownian_paths(martingale_problem, grid, particles, seed=7)
        y, z, _ = backward_paths(martingale_problem, grid, bundle, x, flow)
        zv = z.values.reshape(particles, 40, 1)
        for k in range(40):
            # the Y-update part has exactly zero mean (the regression
            # residual is orthogonal to the constant feature) ...
            dy = y.values[:, k + 1, 0] - y.values[:, k, 0]
            prod = zv[:, k, 0] * bundle.increments[:, k]
            defect = dy - prod
            # ... so the defect's Monte Carlo error is that of mean(Z dW)
            se = prod.std() / math.sqrt(particles)
            assert abs(defect.mean()) <= 3 * se + 1e-12

    def test_frozen_flow_is_used_for_measure_terms(self):
        # h reads the frozen cloud's Y-mean; feeding a shifted flow must
        # shift the solution accordingly
        p = scalar_problem(h={"mean_y": -1.0}, sigma={"const": 1.0})
        grid = TimeGrid(1.0, 10)
        bundle, x, _ = brownian_paths(p, grid, 200, seed=8)
        ones = PathEnsemble(np.ones((200, 11, 1)))
        flow_shifted = joint_marginal(x, ones)
        y, _, _ = backward_paths(p, grid, bundle, x, flow_shifted)
        # dY = -1 dt integrated from T: Y_0 = 0 + 1.0
        assert y.values[:, 0, 0].mean() == pytest.approx(1.0, abs=1e-8)

    def test_flow_last_row_feeds_g(self):
        # g reads E[X_T] from the frozen flow's last row, not from the paths being swept
        p = dataclasses.replace(pure_martingale(), g=AffineCoeffs(1, "g", x=1.0, mean_x=1.0))
        grid = TimeGrid(1.0, 10)
        bundle, x, _ = brownian_paths(p, grid, 200, seed=9)
        frozen = PathEnsemble(np.full((200, 11, 1), 5.0))
        y, _, _ = backward_paths(p, grid, bundle, x, joint_marginal(frozen, frozen))
        assert np.allclose(y.values[:, -1, 0], x.values[:, -1, 0] + 5.0)

    def test_flow_of_one_row_per_step_rejected(self, martingale_problem):
        # a flow must carry a row for every node: g reads the last one
        grid = TimeGrid(1.0, 5)
        bundle, x, flow = brownian_paths(martingale_problem, grid, 16, seed=0)
        with pytest.raises(ValueError, match=r"frozen_flow has shape \(5, 2\), expected \(6, 2\)"):
            solve_backward(martingale_problem, grid, bundle, x, flow[:5])

    def test_degenerate_cloud_flagged_as_ridge(self, martingale_problem):
        grid = TimeGrid(1.0, 5)
        bundle, x, flow = brownian_paths(martingale_problem, grid, 100, seed=10)
        _, _, diag = solve_backward(martingale_problem, grid, bundle, x, flow)
        assert 0 in diag.ridge_steps  # X_0 is a point mass
        assert diag.used_ridge

    def test_batched_factors_match_the_per_step_reference(self):
        # a 2-D cloud that is collinear (rank deficient) on the first 3 steps
        grid, particles = TimeGrid(0.5, 8), 400
        bundle = make_bundle(grid, particles, seed=2)
        rng = np.random.default_rng(3)
        walk = np.concatenate([np.zeros((particles, 1)), np.cumsum(bundle.increments, axis=1)], axis=1)
        spread = rng.standard_normal((particles, grid.steps + 1)) * (np.arange(grid.steps + 1) >= 3)
        x = PathEnsemble(np.stack([1.0 + walk, 0.5 - 2.0 * walk + 0.3 * spread], axis=2))
        p = MfProblem(
            [1.0, 0.5], 0.5, f=AffineCoeffs(2), sigma=AffineCoeffs(2, const=[1.0, -2.0]),
            h=AffineCoeffs(2, x=[[0.3, 0.1], [0.0, 0.2]], y=-0.5, z=0.2, mean_x=0.1, mean_y=[[0.0, 0.1], [0.2, 0.0]],
                           const=[0.1, -0.2]),
            g=AffineCoeffs(2, x=[[1.0, 0.5], [0.5, 2.0]], mean_x=0.1, const=[0.0, 0.3]),
        )
        flow = joint_marginal(x, x)
        y, z, diag = backward_paths(p, grid, bundle, x, flow)
        y_ref, z_ref, ridge = per_step_backward(p, grid, bundle, x, flow)
        assert diag.ridge_steps == ridge == [2, 1, 0]
        # the Gram sums run in another order; on the collinear steps the
        # ridge-shifted solve turns that into ~1e-12 absolute, so entries
        # are compared at 1e-10 of their array's scale
        for got, ref in ((y.values, y_ref), (z.values, z_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    def test_shared_factors_give_identical_sweeps(self):
        # the adjoint problem of the 2-D example-3 game along a state whose
        # X^1 - X^2 is deterministic, so every step is ridge-flagged
        gs = lqgame.example3_game(0.25)
        grid, particles = TimeGrid(gs.horizon, 10), 500
        bundle = make_bundle(grid, particles, seed=4)
        zero = PathEnsemble(np.zeros((particles, grid.steps + 1, 1)))
        x = lqgame.simulate_state(gs, grid, bundle, [zero, zero])
        flow = joint_marginal(x, x)
        args = (lqgame._adjoint_problem(gs, 0), grid, bundle, x, flow)
        y_ref, z_ref, diag_ref = backward_paths(*args)
        assert len(diag_ref.ridge_steps) == grid.steps
        factors = backward.regression_factors(x)
        for _ in range(2):  # a second sweep reuses the same factors
            y, z, diag = backward_paths(*args, factors=factors)
            assert y.values.tobytes() == y_ref.values.tobytes()
            assert z.values.tobytes() == z_ref.values.tobytes()
            assert (diag.y_residuals, diag.z_residuals) == (diag_ref.y_residuals, diag_ref.z_residuals)
            assert diag.ridge_steps == diag_ref.ridge_steps

    def test_blowup_names_the_first_step_swept(self, martingale_problem):
        # h = 1e308 on steps 2, 1, 0, whose regression sums overflow; step 2 is swept first
        h = AffineCoeffs(1, "h", const=PiecewiseConstant([0.0, 0.3], [1e308, 0.0]))
        p = dataclasses.replace(martingale_problem, h=h)
        grid = TimeGrid(1.0, 10)
        bundle, x, flow = brownian_paths(p, grid, 200, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^backward regression produced non-finite values at step 2$"):
                solve_backward(p, grid, bundle, x, flow)

    def test_overflowing_gram_names_its_first_step(self):
        # finite paths of size 1e200 from node 2 on: the Gram sums of steps 2 and 3 overflow
        x = np.ones((5, 1, 10))
        x[2:] = 1e200
        with pytest.raises(FloatingPointError, match="^regression Gram matrix overflows at step 2$"):
            backward.regression_factors(PathEnsemble(x.transpose(2, 0, 1)))

    @pytest.mark.parametrize("particles", [777, 10_000])
    @pytest.mark.parametrize("steps", [1, 2, 7, 9, 100])
    def test_chunked_grams_have_the_bits_of_the_whole_path_product(self, steps, particles):
        rng = np.random.default_rng(steps)
        xv = rng.standard_normal((steps + 1, 2, particles))
        xv[::2, 1] = 2.0 * xv[::2, 0] + 1.0  # even steps are rank deficient and flagged
        design = np.ones((steps, 3, particles))
        design[:, 1:] = xv[:-1]
        gram = np.einsum("kfp,kgp->kfg", design, design)
        scale = np.trace(gram, axis1=1, axis2=2) / 3 + 1.0
        flagged = np.flatnonzero(np.linalg.eigvalsh(gram)[:, 0] < 1e-10 * scale)[::-1].tolist()
        shifted, ridge_steps = backward.regression_factors(from_component_major(xv))
        assert np.array_equal(shifted, gram + (1e-10 * scale)[:, None, None] * np.eye(3))
        assert ridge_steps == flagged == [k for k in range(steps - 1, -1, -1) if k % 2 == 0]

    def test_factors_hold_no_whole_path_design(self):
        # a whole-path (100, 3, 10,000) design is 24 MB; one chunk of 8 steps is 1.9 MB
        x = from_component_major(np.random.default_rng(0).standard_normal((101, 2, 10_000)))
        backward.regression_factors(x)  # numpy's first-use imports are not counted
        tracemalloc.start()
        try:
            backward.regression_factors(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    def test_residual_has_the_bits_of_the_numpy_formula(self):
        rng = np.random.default_rng(5)
        for shape in ((1, 5000), (3, 777)):
            targets, fit = rng.standard_normal((2, *shape)) * 10.0 ** rng.integers(-6, 6, (2, *shape))
            assert backward._rms(targets, fit) == float(np.sqrt(np.mean((targets - fit) ** 2)))

    def test_shape_mismatch_rejected(self, martingale_problem):
        grid = TimeGrid(1.0, 5)
        bundle = make_bundle(grid, 16, seed=0)
        bad_x = PathEnsemble(np.zeros((16, 5, 1)))
        flow = joint_marginal(bad_x, bad_x)
        with pytest.raises(ValueError, match="x_ens"):
            solve_backward(martingale_problem, grid, bundle, bad_x, flow)


class TestPredictorPasses:
    def test_affine_driver_that_reads_no_y_takes_one_pass(self):
        # the README toy's h = -x - 0.3 z + 0.1 E[Y] reads no Y: a second pass would give the same fit
        p = problem_from_config(TOY_PROBLEM)
        grid = TimeGrid(0.25, 100)
        bundle, x, flow = brownian_paths(p, grid, 500, 3)
        calls = []

        class Counted(AffineCoeffs):
            def __call__(self, *args):
                calls.append(args[0])
                return super().__call__(*args)

        counted = Counted(1, "h", **TOY_PROBLEM["h"])
        # the same map with a zero y term kept in, so the solver runs both passes
        with_y = Counted(1, "h", **TOY_PROBLEM["h"])
        with_y.terms["y"] = PiecewiseConstant([0.0], [[[0.0]]])
        outs = []
        for h in (counted, with_y):
            y, z, _ = backward_paths(dataclasses.replace(p, h=h), grid, bundle, x, flow)
            outs.append((y.component_major.tobytes(), z.component_major.tobytes(), len(calls)))
            calls.clear()
        assert outs[0][:2] == outs[1][:2]
        assert (outs[0][2], outs[1][2]) == (100, 200)


def path_writing_backward(p, grid, bundle, x_ens, flow):
    """The sweep as it wrote (nodes, m, P) paths: each step's fitted values stored, Y_N = g(X_T) stored."""
    m, steps, dt = p.dim_state, grid.steps, grid.dt
    xv = x_ens.component_major
    shifted, _ = backward.regression_factors(x_ens)
    y, z = np.empty((steps + 1, m, bundle.particles)), np.empty((steps, m, bundle.particles))
    y[steps] = p.g(p.horizon, xv[steps], mean=flow[steps])
    design = np.ones((1 + m, bundle.particles))
    for k in range(steps - 1, -1, -1):
        design[1:] = xv[k]
        fit = lambda targets: np.linalg.solve(shifted[k], design @ targets.T).T @ design
        z[k] = fit(y[k + 1] * bundle.component_major[k] / dt)
        guess = y[k + 1]
        for _ in range(backward._PICARD_PASSES if "y" in p.h.terms else 1):
            guess = fit(y[k + 1] - p.h(float(grid.nodes[k]), xv[k], guess, z[k], flow[k]) * dt)
        y[k] = guess
    return y, z


class TestFittedMap:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("particles", [777, 5000, 10_001])
    def test_nodes_and_paths_have_the_bits_of_the_sweep_product(self, particles, m):
        # a sweep fits solve(shifted[k], design @ t.T).T @ design through its own design buffer; a map keeps the
        # solve in a table and evaluates the product through its own buffer, per node and into built paths
        rng = np.random.default_rng(particles + m)
        steps = 3
        x = from_component_major(rng.standard_normal((steps + 1, m, particles)))
        shifted, _ = backward.regression_factors(x)
        design, coef, sweep = np.ones((1 + m, particles)), np.empty((steps, 1 + m, m)), []
        for k in range(steps):
            design[1:] = x.component_major[k]
            t = rng.standard_normal((m, particles))
            sweep.append(np.linalg.solve(shifted[k], design @ t.T).T @ design)
            coef[k] = np.linalg.solve(shifted[k], design @ t.T)
        last = rng.standard_normal((m, particles))
        fitted = backward.FittedMap(x, coef, last)
        assert all(np.array_equal(fitted.node(k), sweep[k]) for k in range(steps))
        assert np.array_equal(fitted.node(steps), last)
        assert np.array_equal(fitted.paths().component_major, np.stack([*sweep, last]))

    def test_terminal_node_is_read_only(self):
        x = from_component_major(np.random.default_rng(2).standard_normal((3, 1, 40)))
        fitted = backward.FittedMap(x, np.ones((2, 2, 1)), np.ones((1, 40)))
        with pytest.raises(ValueError, match="read-only"):
            fitted.node(2)[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            np.subtract(x.component_major[2], 1.0, out=fitted.node(2))
        assert np.array_equal(fitted.node(2), np.ones((1, 40)))

    @pytest.mark.parametrize("game", [False, True])
    def test_flow_cloud_of_a_fitted_map_has_the_bits_of_the_cloud_of_its_paths(self, game):
        # the toy (m = 1) and the example-3 adjoint (m = 2); one U is a (Y, Z) path set of the sweep
        if game:
            gs = lqgame.example3_game(0.25)
            grid = TimeGrid(gs.horizon, 40)
            bundle = make_bundle(grid, 2000, seed=4)
            zero = PathEnsemble(np.zeros((2000, grid.steps + 1, 1)))
            x = lqgame.simulate_state(gs, grid, bundle, [zero, zero])
            p = lqgame._adjoint_problem(gs, 0)
        else:
            p = problem_from_config(TOY_PROBLEM)
            grid = TimeGrid(0.25, 40)
            bundle, x, _ = brownian_paths(p, grid, 2000, seed=5)
        flow = joint_marginal(x, x)
        y_map, _, _ = solve_backward(p, grid, bundle, x, flow)
        joint_marginal(x, y_map)  # numpy's first-use allocations are not counted
        tracemalloc.start()
        try:
            table = joint_marginal(x, y_map)
            grown = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grown < 0.1 * (2 * grid.steps + 1) * p.dim_state * 2000 * 8
        assert table.tobytes() == joint_marginal(x, y_map.paths()).tobytes()

    @pytest.mark.parametrize("game", [False, True])
    def test_sweep_maps_build_the_paths_the_path_writing_sweep_wrote(self, game):
        # the README toy (m = 1, one predictor pass) and the example-3 adjoint (m = 2, two passes, every step
        # ridge-flagged) along its state
        if game:
            gs = lqgame.example3_game(0.25)
            grid = TimeGrid(gs.horizon, 10)
            bundle = make_bundle(grid, 500, seed=4)
            zero = PathEnsemble(np.zeros((500, grid.steps + 1, 1)))
            x = lqgame.simulate_state(gs, grid, bundle, [zero, zero])
            p = lqgame._adjoint_problem(gs, 0)
        else:
            p = problem_from_config(TOY_PROBLEM)
            grid = TimeGrid(0.25, 10)
            bundle, x, _ = brownian_paths(p, grid, 777, seed=5)
        flow = joint_marginal(x, x)
        y, z, _ = backward_paths(p, grid, bundle, x, flow)
        y_ref, z_ref = path_writing_backward(p, grid, bundle, x, flow)
        assert np.array_equal(y.component_major, y_ref) and np.array_equal(z.component_major, z_ref)
