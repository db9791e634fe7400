import json
import io
import math

import numpy as np
import pytest

from mfbsde import fixpoint
from mfbsde.fixpoint import Diverged, IterationDiagnostics, MfSolution, SchemeParams
from mfbsde.paths import PathEnsemble, TimeGrid, from_component_major, make_bundle
from mfbsde.problem import MfProblem, contraction_constants
from conftest import h1prime_toy


def decoupled_problem():
    return MfProblem(
        dim_state=1, dim_bm=1, x0=[1.0], horizon=1.0,
        f=lambda t, x, y, z, nu: np.full_like(x, 0.2),
        sigma=lambda t, x, y, z, nu: np.full((x.shape[0], 1, 1), 0.5),
        h=lambda t, x, y, z, nu: -x,
        g=lambda x, mu: x,
        law_free_sigma=True,
    )


class TestSchemeParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"max_outer": 0},
            {"inner_sweeps": 0},
            {"delta": -1.0},
            {"particles": 1},
            {"inner_sweeps": 61},  # above the inner sweep cap
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SchemeParams(**kwargs)


class TestDivergenceRule:
    @pytest.mark.parametrize("gaps", [[math.inf], [1.0, math.inf], [1.0, math.nan]])
    def test_non_finite_last_gap_diverges(self, gaps):
        assert fixpoint.diverging(gaps)

    def test_growth_over_the_window(self):
        assert not fixpoint.diverging([])
        assert not fixpoint.diverging([1.0, 2.0, 5.0])
        assert not fixpoint.diverging([1.0, 2.0, 5.0, 10.0])
        assert fixpoint.diverging([1.0, 2.0, 5.0, 10.5])

    def test_blowups_diverge_reclassifies_floating_point_errors(self):
        history = [object()]
        with pytest.raises(Diverged, match="^stage 3: boom$") as err:
            with fixpoint.blowups_diverge("stage 3", history):
                raise FloatingPointError("boom")
        assert err.value.history is history
        with fixpoint.blowups_diverge("quiet", []):
            assert np.isinf(np.float64(1e308) * 10)  # overflow passes without a warning


class TestSolve:
    def test_decoupled_converges_in_two_outer_iterations(self):
        # no mean-field coupling: the frozen flow is exact after one pass
        p = decoupled_problem()
        sol = fixpoint.solve(
            p, TimeGrid(1.0, 40),
            SchemeParams(delta=0.0, particles=1000, max_outer=10, tol=1e-6),
            seed=3,
        )
        assert sol.converged
        assert len(sol.history) == 2
        assert sol.history[1].gap_total < 1e-20

    def test_contracting_instance_tracks_theory_ratio(self):
        p = h1prime_toy()
        params = SchemeParams(delta=0.01, particles=1500, max_outer=6, tol=1e-7)
        sol = fixpoint.solve(p, TimeGrid(0.25, 60), params, seed=11)
        lam, theta = contraction_constants(
            p.lipschitz, p.monotonicity, eps=1.0, alpha=math.sqrt(2) / 2, delta=0.01
        )
        for rec in sol.history[1:6]:
            assert rec.ratio <= theta / lam + 0.1
            assert rec.theory_ratio == pytest.approx(theta / lam)

    def test_geometric_decay_of_gaps(self):
        p = h1prime_toy()
        sol = fixpoint.solve(
            p, TimeGrid(0.25, 60),
            SchemeParams(delta=0.01, particles=1500, max_outer=6, tol=1e-12, inner_sweeps=3),
            seed=11,
        )
        gaps = [rec.gap_total for rec in sol.history]
        assert all(g2 < g1 for g1, g2 in zip(gaps[1:], gaps[2:]))

    def test_counterexample_horizon_one_diverges(self):
        from mfbsde.lqgame import build_aggregated, example3_game

        agg = build_aggregated(example3_game(1.0))
        params = SchemeParams(particles=200, max_outer=40, tol=1e-3)
        with pytest.raises(Diverged) as err:
            fixpoint.solve(agg, TimeGrid(1.0, 40), params, seed=5)
        assert len(err.value.history) >= 1

    def test_common_random_numbers_repeat_bit_identical(self):
        p = h1prime_toy()
        params = SchemeParams(particles=500, max_outer=5, tol=1e-5)
        grid = TimeGrid(0.25, 30)
        a = fixpoint.solve(p, grid, params, seed=21)
        b = fixpoint.solve(p, grid, params, seed=21)
        assert np.array_equal(a.x_ens.values, b.x_ens.values)
        assert np.array_equal(a.y_ens.values, b.y_ens.values)
        assert np.array_equal(a.z_ens.values, b.z_ens.values)
        assert [r.gap_total for r in a.history] == [r.gap_total for r in b.history]

    def test_delta_zero_and_tiny_delta_agree(self):
        p = h1prime_toy()
        grid = TimeGrid(0.25, 40)
        tol = 1e-4
        base = SchemeParams(delta=0.0, particles=1000, max_outer=30, tol=tol)
        pert = SchemeParams(delta=1e-6, particles=1000, max_outer=30, tol=tol)
        a = fixpoint.solve(p, grid, base, seed=2)
        b = fixpoint.solve(p, grid, pert, seed=2)
        l2 = math.sqrt(
            float(np.mean(np.sum((a.y_ens.values - b.y_ens.values) ** 2, axis=2)))
        )
        assert l2 < 10 * tol

    def test_limit_is_seed_invariant(self):
        # Y_0 is a regression constant with no cross-particle spread, so
        # its Monte Carlo error is estimated from independent replicate
        # solves at smaller particle counts (se scales like 1/sqrt(P))
        p = h1prime_toy()
        grid = TimeGrid(0.25, 40)
        small = SchemeParams(particles=800, max_outer=20, tol=1e-4)
        reps = [
            fixpoint.solve(p, grid, small, seed=100 + i).y_ens.values[0, 0, 0]
            for i in range(5)
        ]
        se_big = np.std(reps, ddof=1) * math.sqrt(800 / 4000)
        params = SchemeParams(particles=4000, max_outer=20, tol=1e-4)
        a = fixpoint.solve(p, grid, params, seed=1).y_ens.values[0, 0, 0]
        b = fixpoint.solve(p, grid, params, seed=2).y_ens.values[0, 0, 0]
        assert abs(a - b) < 4 * math.sqrt(2.0) * se_big

    def test_general_scheme_with_measure_dependent_sigma(self):
        # sigma depends on z and the measure, so the strong variant applies
        # and the iteration damps the diffusion too;
        # A = -|dx|^2 - |dy|^2 - 0.5 ||dz||^2 gives k = 0.5
        from mfbsde.problem import LipschitzProfile, MonotonicityProfile, check_H1

        p = MfProblem(
            dim_state=1, dim_bm=1, x0=[0.5], horizon=0.3,
            f=lambda t, x, y, z, nu: -y + 0.05 * nu.mean()[0],
            h=lambda t, x, y, z, nu: -x,
            sigma=lambda t, x, y, z, nu: (0.2 - 0.5 * z[:, :, 0] + 0.05 * nu.mean()[1])[:, :, None],
            g=lambda x, mu: x,
            law_free_sigma=False,
            lipschitz=LipschitzProfile(c_u=1.0, c_nu=0.05, c_g_x=1.0, c_g_nu=0.0),
            monotonicity=MonotonicityProfile(k=0.5, k_prime=1.0, variant="H1"),
        )
        assert check_H1(p, samples=1000, rng_seed=0).passed
        sol = fixpoint.solve(
            p, TimeGrid(0.3, 50),
            SchemeParams(delta=1e-3, particles=1000, max_outer=15, tol=1e-4),
            seed=3,
        )
        assert sol.converged
        theory = sol.history[0].theory_ratio
        assert all(rec.ratio <= theory + 0.1 for rec in sol.history[1:])

    def test_converged_needs_the_last_inner_solve_on_target(self, monkeypatch):
        # one sweep per inner solve: the outer gap drops below tol^2 while
        # that sweep's own gap is still above its (tol/10)^2 target
        monkeypatch.setattr(fixpoint, "_INNER_MAX_SWEEPS", 1)
        p, grid = h1prime_toy(), TimeGrid(0.25, 30)
        short = fixpoint.solve(p, grid, SchemeParams(particles=500, max_outer=6, tol=1e-3, inner_sweeps=1), seed=5)
        assert short.history[-1].gap_total < 1e-6
        assert short.history[-1].inner_exit == "cap"
        assert short.history[-1].inner_gap >= 1e-8
        assert not short.converged
        longer = fixpoint.solve(p, grid, SchemeParams(particles=500, max_outer=30, tol=1e-3, inner_sweeps=1), seed=5)
        assert longer.converged
        assert len(longer.history) == 7

    def test_inner_gap_meets_the_target_it_reports(self):
        sol = fixpoint.solve(h1prime_toy(), TimeGrid(0.25, 30), SchemeParams(particles=500, tol=1e-3), seed=5)
        assert sol.converged
        for rec in sol.history:
            assert (rec.inner_gap < (1e-3 / 10) ** 2) == (rec.inner_exit == "target")
        assert sol.history[-1].inner_exit == "target"
        assert sol.history[-1].to_record()["inner_gap"] == sol.history[-1].inner_gap

    def test_warm_start_resumes(self):
        p = h1prime_toy()
        grid = TimeGrid(0.25, 30)
        params = SchemeParams(particles=500, max_outer=10, tol=1e-6)
        first = fixpoint.solve(p, grid, params, seed=4)
        again = fixpoint.solve(p, grid, params, seed=4, warm_start=first)
        assert again.converged
        assert len(again.history) <= 2

    def test_grid_problem_horizon_mismatch(self):
        p = h1prime_toy(horizon=0.25)
        with pytest.raises(ValueError, match="horizon"):
            fixpoint.solve(p, TimeGrid(1.0, 10), SchemeParams(particles=10), seed=0)


def stacked_anderson(hist_u, hist_fu):
    """Reference Anderson step: lstsq over the stacked (size, k) matrix of
    residual differences."""
    r = [fu - u for u, fu in zip(hist_u, hist_fu)]
    if len(r) < 2:
        return hist_fu[-1]
    dr = np.stack([r[i] - r[i - 1] for i in range(1, len(r))], axis=1)
    dfu = np.stack([hist_fu[i] - hist_fu[i - 1] for i in range(1, len(hist_fu))], axis=1)
    gamma, _, _, _ = np.linalg.lstsq(dr, r[-1], rcond=None)
    return hist_fu[-1] - dfu @ gamma


def split(v, y_shape, z_shape):
    cut = int(np.prod(y_shape))
    return [from_component_major(a.reshape(s)) for a, s in zip(np.split(v.copy(), [cut]), (y_shape, z_shape))]


class FlatAnderson:
    """Drives fixpoint._Anderson on flat vectors, each split into a
    component-major (Y, Z) pair."""

    def __init__(self, depth, y_shape, z_shape):
        self.acc = fixpoint._Anderson(depth, y_shape, z_shape)
        self.shapes = (y_shape, z_shape)
        self.x = from_component_major(np.zeros(y_shape))

    def next(self, u, fu):
        self.acc.observe((self.x, *split(fu, *self.shapes)), (self.x, *split(u, *self.shapes)), 0.1)
        return np.concatenate([e.component_major.ravel() for e in self.acc.mix()])


class TestAnderson:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_gram_step_matches_stacked_least_squares(self, depth):
        rng = np.random.default_rng(depth)
        size = 400
        # an affine contraction F(u) = A u + b, iterated on the mixed output
        a = rng.standard_normal((size, size)) * (0.6 / np.sqrt(size))
        b = rng.standard_normal(size)
        acc = FlatAnderson(depth, (3, 2, 40), (2, 2, 40))
        hist_u, hist_fu = [], []
        u = np.zeros(size)
        for _ in range(6):
            fu = a @ u + b
            hist_u, hist_fu = (hist_u + [u])[-depth - 1 :], (hist_fu + [fu])[-depth - 1 :]
            ref = stacked_anderson(hist_u, hist_fu)
            np.testing.assert_allclose(acc.next(u, fu), ref, rtol=1e-9, atol=0.0)
            u = ref

    def test_rank_deficient_history_gives_min_norm_step(self):
        # residual differences d and 2d are collinear (exact in floating point)
        d = np.array([1.0, -2.0, 0.5, 3.0, 0.0, 1.0])
        base = np.array([4.0, 1.0, -1.0, 2.0, 0.5, -3.0])
        hist_u = [np.zeros(6)] * 3
        hist_fu = [base, base + d, base + 3.0 * d]
        acc = FlatAnderson(2, (2, 1, 2), (1, 1, 2))
        for u, fu in zip(hist_u, hist_fu):
            out = acc.next(u, fu)
        assert np.linalg.matrix_rank(acc.acc.gram) == 1
        np.testing.assert_allclose(out, stacked_anderson(hist_u, hist_fu), rtol=1e-9, atol=0.0)

    def test_non_finite_mix_falls_back_to_the_sweep_output(self):
        acc = FlatAnderson(2, (2, 1, 1), (1, 1, 1))
        acc.next(np.zeros(3), np.ones(3))
        fu = np.array([1e308, 2.0, 3.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(acc.next(np.full(3, -1e308), fu), fu)
            assert np.array_equal(acc.next(np.zeros(3), 2 * fu), 2 * fu)

    @pytest.mark.parametrize("d", [1, 2])
    def test_blocked_sweep_gap_equals_the_cauchy_gap(self, d):
        # with d = 2 a Z block holds twice the entries of a Y block
        rng = np.random.default_rng(d)
        grid, m, particles = TimeGrid(0.5, 6), 2, 30
        shapes = [(grid.steps + 1, m, particles)] * 2 + [(grid.steps, m * d, particles)]
        acc = fixpoint._Anderson(3, *shapes[1:])
        old = [from_component_major(rng.standard_normal(s)) for s in shapes]
        for _ in range(3):
            new = [from_component_major(rng.standard_normal(s)) for s in shapes]
            gap = acc.observe(new, old, grid.dt)
            assert gap == pytest.approx(sum(fixpoint._gaps(grid, new, old)), rel=1e-12, abs=0.0)
            old = new


class TestResidual:
    def test_exact_discrete_solution_has_zero_residuals(self):
        p = MfProblem(
            dim_state=1, dim_bm=1, x0=[1.0], horizon=1.0,
            f=lambda t, x, y, z, nu: np.zeros_like(x),
            sigma=lambda t, x, y, z, nu: np.zeros((x.shape[0], 1, 1)),
            h=lambda t, x, y, z, nu: np.zeros_like(x),
            g=lambda x, mu: np.full_like(x, 3.0),
            law_free_sigma=True,
        )
        grid = TimeGrid(1.0, 10)
        particles = 50
        bundle = make_bundle(grid, particles, 1, seed=0)
        x = PathEnsemble(np.ones((particles, 11, 1)))
        y = PathEnsemble(np.full((particles, 11, 1), 3.0))
        z = PathEnsemble(np.zeros((particles, 10, 1)))
        sol = MfSolution(
            grid=grid, bundle=bundle, x_ens=x, y_ens=y, z_ens=z, history=[], converged=True,
        )
        fwd, bwd, term = fixpoint.residual(p, sol)
        assert fwd == 0.0 and bwd == 0.0 and term == 0.0

    def test_zero_triple_has_positive_terminal_residual(self):
        p = decoupled_problem()
        p.g = lambda x, mu: x + 1.0
        grid = TimeGrid(1.0, 10)
        particles = 20
        bundle = make_bundle(grid, particles, 1, seed=0)
        zeros_n = PathEnsemble(np.zeros((particles, 11, 1)))
        zeros_s = PathEnsemble(np.zeros((particles, 10, 1)))
        sol = MfSolution(
            grid=grid, bundle=bundle, x_ens=zeros_n, y_ens=zeros_n, z_ens=zeros_s, history=[], converged=False,
        )
        _, _, term = fixpoint.residual(p, sol)
        assert term == pytest.approx(1.0)  # |g(0) - 0|^2

    def test_converged_solve_has_small_terminal_residual(self):
        p = h1prime_toy()
        tol = 1e-3
        sol = fixpoint.solve(
            p, TimeGrid(0.25, 50), SchemeParams(particles=2000, max_outer=20, tol=tol), seed=8
        )
        assert sol.converged
        _, _, term = fixpoint.residual(p, sol)
        assert term < 10 * tol**2


class TestDiagnosticsStream:
    def test_jsonl_records(self):
        recs = [
            IterationDiagnostics(1, 0.5, 0.25, math.nan, 0.08, 1e-3, False, False, 60, 2e-6, "cap"),
            IterationDiagnostics(2, 0.05, 0.02, 0.093, 0.08, 1e-3, True, True, 4, 5e-9, "target"),
        ]
        buf = io.StringIO()
        fixpoint.diagnostics_to_jsonl(recs, buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "n": 1, "gap_XT": 0.5, "gap_U": 0.25, "ratio": None, "theory_ratio": 0.08,
            "max_regression_residual": 1e-3, "ridge_fallback": False, "inner_sweeps": 60, "inner_gap": 2e-6,
            "inner_exit": "cap",
        }
        second = json.loads(lines[1])
        assert second["ratio"] == pytest.approx(0.093)
