import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mfbsde import backward, fixpoint, lqgame
from mfbsde.backward import solve_backward
from mfbsde.paths import PathEnsemble, TimeGrid, from_component_major, joint_marginal, make_bundle
from mfbsde.problem import AffineCoeffs, MfProblem, PiecewiseConstant, problem_from_config
from conftest import TOY_PROBLEM, pure_martingale, scalar_problem, zero_sweep


def brownian_paths(problem, grid, particles, seed):
    bundle = make_bundle(grid, particles, seed)
    y = PathEnsemble(np.zeros((particles, grid.steps + 1, 1)))
    flow = joint_marginal(y, y)
    x = zero_sweep(problem, grid, bundle, flow)
    return bundle, x, flow


def backward_paths(*args, **kwargs):
    """solve_backward with its fitted maps built into (Y, Z) paths."""
    y, z, diag = solve_backward(*args, **kwargs)
    return y.paths(), z.paths(), diag


def affine_design(x):
    """The [1, x] design (P, 1 + m) of particle-major states x (P, m)."""
    return np.column_stack([np.ones(len(x)), x])


def moment_fit(x, targets):
    """The moment-form least-squares fit of particle-major targets (P, d) on the states x (P, m), formed on its own:
    the [1, x] table of E[T] + (x - E x) Cov(x)^+ Cov(x, T), the pseudo-inverse without the eigenvalues below
    1e-12 (tr Cov(x) + |E x|^2 + 1), and whether it dropped a direction."""
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / len(x)
    lam, vec = np.linalg.eigh(cov)
    keep = lam > 1e-12 * (np.trace(cov) + mean @ mean + 1.0)
    slope = (vec[:, keep] / lam[keep]) @ vec[:, keep].T @ (xc.T @ targets) / len(x)
    return np.vstack([targets.mean(axis=0) - mean @ slope, slope]), not keep.all()


def per_step_backward(p, grid, bundle, x_ens, flow):
    """Reference recursion on particles: each step's targets formed particle by particle and fitted in moment
    form on their own, particle-major; returns the (Y, Z) paths and the steps that dropped a direction."""
    m, steps, dt = p.dim_state, grid.steps, grid.dt
    xv, dw = x_ens.values, bundle.increments
    y = np.empty((xv.shape[0], steps + 1, m))
    z = np.empty((xv.shape[0], steps, m))
    dropped = []
    y[:, steps] = p.g(p.horizon, xv[:, steps].T, mean=flow[steps]).T

    def fit(targets):
        coef, flagged = moment_fit(xv[:, k], targets)
        return affine_design(xv[:, k]) @ coef, flagged

    for k in range(steps - 1, -1, -1):
        z[:, k], flagged = fit(y[:, k + 1] * dw[:, k, None] / dt)
        guess = y[:, k + 1]
        for _ in range(backward._PICARD_PASSES if "y" in p.h.terms else 1):
            guess = fit(y[:, k + 1] - p.h(grid.nodes[k], xv[:, k].T, guess.T, z[:, k].T, flow[k]).T * dt)[0]
        y[:, k] = guess
        if flagged:
            dropped.append(k)
    return y, z, dropped


def collinear_start_problem(h_reads_y: bool):
    """A 2-D problem on [0, 0.5] (its h with or without a y term), 8 steps, and a 400-particle cloud that is
    collinear (rank deficient) on the first 3 steps: (problem, grid, bundle, X paths)."""
    grid, particles = TimeGrid(0.5, 8), 400
    bundle = make_bundle(grid, particles, seed=2)
    rng = np.random.default_rng(3)
    walk = np.concatenate([np.zeros((particles, 1)), np.cumsum(bundle.increments, axis=1)], axis=1)
    spread = rng.standard_normal((particles, grid.steps + 1)) * (np.arange(grid.steps + 1) >= 3)
    x = PathEnsemble(np.stack([1.0 + walk, 0.5 - 2.0 * walk + 0.3 * spread], axis=2))
    p = MfProblem(
        [1.0, 0.5], 0.5, f=AffineCoeffs(2), sigma=AffineCoeffs(2, const=[1.0, -2.0]),
        h=AffineCoeffs(2, x=[[0.3, 0.1], [0.0, 0.2]], y=-0.5 if h_reads_y else None, z=0.2, mean_x=0.1,
                       mean_y=[[0.0, 0.1], [0.2, 0.0]], const=[0.1, -0.2]),
        g=AffineCoeffs(2, x=[[1.0, 0.5], [0.5, 2.0]], mean_x=0.1, const=[0.0, 0.3]),
    )
    return p, grid, bundle, x


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
        p, grid, bundle, x = collinear_start_problem(h_reads_y=True)
        flow = joint_marginal(x, x)
        y, z, diag = backward_paths(p, grid, bundle, x, flow)
        y_ref, z_ref, ridge = per_step_backward(p, grid, bundle, x, flow)
        assert diag.ridge_steps == ridge == [2, 1, 0]
        # the sweep runs on tables and the reference on particles, so the sums run in other orders: entries are
        # compared at 1e-10 of their array's scale
        for got, ref in ((y.values, y_ref), (z.values, z_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())

    def test_shared_factors_give_identical_sweeps(self):
        # the adjoint problem of the 2-D example-3 game along a state whose
        # X^1 - X^2 is deterministic, so every step drops that direction
        gs = lqgame.example3_game(0.25)
        grid, particles = TimeGrid(gs.horizon, 10), 500
        bundle = make_bundle(grid, particles, seed=4)
        zero = PathEnsemble(np.zeros((particles, grid.steps + 1, 1)))
        x = lqgame.simulate_state(gs, grid, bundle, [zero, zero])
        flow = joint_marginal(x, x)
        args = (lqgame._adjoint_problem(gs, 0), grid, bundle, x, flow)
        y_ref, z_ref, diag_ref = backward_paths(*args)
        assert len(diag_ref.ridge_steps) == grid.steps
        factors = backward.regression_factors(x, bundle)
        for _ in range(2):  # a second sweep reuses the same factors
            y, z, diag = backward_paths(*args, factors=factors)
            assert y.values.tobytes() == y_ref.values.tobytes()
            assert z.values.tobytes() == z_ref.values.tobytes()
            assert (diag.y_residuals, diag.z_residuals) == (diag_ref.y_residuals, diag_ref.z_residuals)
            assert diag.ridge_steps == diag_ref.ridge_steps

    def test_blowup_names_the_first_step_swept(self, martingale_problem):
        # h = 1e308 on steps 2, 1, 0 and dt = 2, so their tables overflow; step 2 is swept first
        h = AffineCoeffs(1, "h", const=PiecewiseConstant([0.0, 6.0], [1e308, 0.0]))
        p = dataclasses.replace(martingale_problem, h=h, horizon=20.0)
        grid = TimeGrid(20.0, 10)
        bundle, x, flow = brownian_paths(p, grid, 200, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="^backward regression produced non-finite values at step 2$"):
                solve_backward(p, grid, bundle, x, flow)

    def test_overflowing_gram_names_its_first_step(self):
        # finite paths that spread by 1e200 from node 3 on: step 2's moments read node 3 and overflow first
        x = np.ones((5, 1, 10))
        x[3:] = 1e200 * np.random.default_rng(0).standard_normal((2, 1, 10))
        bundle = make_bundle(TimeGrid(1.0, 4), 10, seed=0)
        with pytest.raises(FloatingPointError, match="^regression Gram matrix overflows at step 2$"):
            backward.regression_factors(from_component_major(x), bundle)

    def test_factors_hold_no_whole_path_design(self):
        # a whole-path (100, 8, 10,000) buffer of moment rows is 64 MB; the single (2 + 3m, P) row buffer is 0.64 MB
        x = from_component_major(np.random.default_rng(0).standard_normal((101, 2, 10_000)))
        bundle = make_bundle(TimeGrid(1.0, 100), 10_000, seed=0)
        backward.regression_factors(x, bundle)  # numpy's first-use imports are not counted
        tracemalloc.start()
        try:
            backward.regression_factors(x, bundle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20

    @pytest.mark.parametrize("dim", [1, 2])
    def test_residuals_are_the_particle_rms_of_targets_minus_fit(self, dim):
        # the README toy, and a 2-D cloud that is collinear on its first 3 steps; neither h reads Y, so each
        # step's Y targets and fit are read off the returned (Y, Z) paths
        if dim == 1:
            p, grid = problem_from_config(TOY_PROBLEM), TimeGrid(0.25, 40)
            bundle, x, _ = brownian_paths(p, grid, 3000, seed=6)
            flow = joint_marginal(x, x)
        else:
            p, grid, bundle, x = collinear_start_problem(h_reads_y=False)
            flow = joint_marginal(x, x)
        y, z, diag = backward_paths(p, grid, bundle, x, flow)
        xv, yv, zv, dw = x.component_major, y.component_major, z.component_major, bundle.component_major
        rms = lambda r: math.sqrt(np.mean(r**2))
        for k in range(grid.steps):
            y_targets = yv[k + 1] - p.h(float(grid.nodes[k]), xv[k], yv[k], zv[k], flow[k]) * grid.dt
            assert diag.y_residuals[k] == pytest.approx(rms(y_targets - yv[k]), rel=1e-8)
            assert diag.z_residuals[k] == pytest.approx(rms(yv[k + 1] * dw[k] / grid.dt - zv[k]), rel=1e-8)

    def test_fit_along_a_direction_the_cloud_does_not_span_has_no_slope(self):
        # example 3's X^1 - X^2 is the same for every particle: the fitted Y and Z tables have no slope along it
        # (Y's last table is g's own, whose slope is not fitted)
        gs = lqgame.example3_game(0.25)
        p, grid = lqgame.build_aggregated(gs), TimeGrid(0.25, 20)
        sol = fixpoint.solve(p, grid, fixpoint.SchemeParams(particles=2000), seed=3)
        y, z, _ = solve_backward(p, grid, sol.bundle, sol.x_ens, joint_marginal(sol.x_ens, sol.y_ens))
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)
        for fitted in (y, z):
            assert np.abs(np.einsum("kij,i->kj", fitted.coef[: grid.steps, 1:], d)).max() < 1e-6

    def test_identical_particles_fit_the_target_mean_at_every_step(self):
        # example 3 with sigma = alpha = 0: every particle follows the same path, so every step drops every
        # direction, and each fit is its targets' mean over the particles
        gs = dataclasses.replace(lqgame.example3_game(0.25), alpha=[0.0, 0.0])
        p, grid = lqgame.build_aggregated(gs), TimeGrid(0.25, 10)
        bundle = make_bundle(grid, 300, seed=2)
        y0 = from_component_major(np.zeros((grid.steps + 1, 2, 300)))
        x = zero_sweep(p, grid, bundle, joint_marginal(y0, y0))
        flow = joint_marginal(x, x)
        y, z, diag = backward_paths(p, grid, bundle, x, flow)
        assert diag.ridge_steps == list(range(grid.steps - 1, -1, -1))
        xv, yv, zv, dw = x.component_major, y.component_major, z.component_major, bundle.component_major
        means = lambda targets: np.broadcast_to(targets.mean(axis=1, keepdims=True), targets.shape)
        for k in range(grid.steps):
            np.testing.assert_allclose(zv[k], means(yv[k + 1] * dw[k] / grid.dt), rtol=1e-12, atol=0.0)
            guess = yv[k + 1]
            for _ in range(backward._PICARD_PASSES):
                guess = means(yv[k + 1] - p.h(float(grid.nodes[k]), xv[k], guess, zv[k], flow[k]) * grid.dt)
            np.testing.assert_allclose(yv[k], guess, rtol=1e-12, atol=0.0)

    def test_shape_mismatch_rejected(self, martingale_problem):
        grid = TimeGrid(1.0, 5)
        bundle = make_bundle(grid, 16, seed=0)
        bad_x = PathEnsemble(np.zeros((16, 5, 1)))
        flow = joint_marginal(bad_x, bad_x)
        with pytest.raises(ValueError, match="x_ens"):
            solve_backward(martingale_problem, grid, bundle, bad_x, flow)


class TestPredictorPasses:
    def test_driver_tables_are_read_once_per_step(self):
        # the predictor passes run on h's term matrices, read for all steps in one call, so h is read once per
        # step, with a y term (two passes that differ) or without one (the README toy's h = -x - 0.3 z + 0.1 E[Y])
        p = problem_from_config(TOY_PROBLEM)
        grid = TimeGrid(0.25, 100)
        bundle, x, flow = brownian_paths(p, grid, 500, 3)
        calls = []

        class Counted(AffineCoeffs):
            def affine(self, *args):
                calls.append(args[0])
                return super().affine(*args)

        counts = []
        for terms in (TOY_PROBLEM["h"], dict(TOY_PROBLEM["h"], y=0.5)):
            backward_paths(dataclasses.replace(p, h=Counted(1, "h", **terms)), grid, bundle, x, flow)
            counts.append([len(times) for times in calls])
            calls.clear()
        assert counts == [[100], [100]]


class TestFittedMap:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("particles", [777, 5000, 10_001])
    def test_nodes_and_paths_have_the_bits_of_the_sweep_product(self, particles, m):
        # a map evaluates coef_k' [1; X_k] through its own design buffer, per node and into built paths, with the
        # bits of that product formed on its own; its tables, the terminal node's included, are moment-form fits
        # of random targets
        rng = np.random.default_rng(particles + m)
        nodes = 4
        x = from_component_major(rng.standard_normal((nodes, m, particles)))
        coef = np.stack([moment_fit(x.values[:, k], rng.standard_normal((particles, m)))[0] for k in range(nodes)])
        sweep = [coef[k].T @ np.vstack([np.ones(particles), x.component_major[k]]) for k in range(nodes)]
        fitted = backward.FittedMap(x, coef)
        assert all(np.array_equal(fitted.node(k), sweep[k]) for k in range(nodes))
        assert np.array_equal(fitted.paths().component_major, np.stack(sweep))

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
        # dropping a direction) along its state, against the recursion on particles
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
        y_ref, z_ref, _ = per_step_backward(p, grid, bundle, x, flow)
        for got, ref in ((y.values, y_ref), (z.values, z_ref)):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.abs(ref).max())
