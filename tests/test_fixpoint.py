import dataclasses
import json
import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mfbsde import backward, fixpoint, lqgame
from mfbsde.backward import FittedMap, solve_backward
from mfbsde.fixpoint import Diverged, IterationDiagnostics, MfSolution, SchemeParams
from mfbsde.forward import propagate
from mfbsde.paths import PathEnsemble, TimeGrid, from_component_major, joint_marginal, make_bundle, node_msd
from mfbsde.problem import AffineCoeffs, check_H1, contraction_constants, problem_from_config
from conftest import TOY_PROBLEM, h1prime_toy, scalar_problem, zero_sweep
from oracles import toy_moments


def law_dependent_sigma_problem():
    """A 1-D problem whose sigma = -0.5 z + 0.05 E[Y] + 0.2 reads z and the law (k = 0.5, variant H1)."""
    from mfbsde.problem import LipschitzProfile, MonotonicityProfile

    return scalar_problem(
        0.5, 0.3, f={"y": -1.0, "mean_x": 0.05}, h={"x": -1.0},
        sigma={"z": -0.5, "mean_y": 0.05, "const": 0.2}, g={"x": 1.0},
        lipschitz=LipschitzProfile(c_u=1.0, c_nu=0.05, c_g_x=1.0, c_g_nu=0.0),
        monotonicity=MonotonicityProfile(k=0.5, k_prime=1.0, variant="H1"),
    )


def decoupled_problem():
    return scalar_problem(1.0, f={"const": 0.2}, h={"x": -1.0}, sigma={"const": 0.5}, g={"x": 1.0})


class TestSchemeParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"max_outer": 0},
            {"delta": math.nan},
            {"delta": -1.0},
            {"particles": 1},
            {"tol": math.inf},
            {"tol": math.nan},
            {"delta": math.inf},
            {"tol": 5e154},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SchemeParams(**kwargs)

    def test_tol_whose_inner_target_underflows_is_rejected(self):
        # (tol/10)^2 and tol^2 are both 0.0, so no sweep gap could meet either target
        with pytest.raises(ValueError, match="^tol 1e-300 is too small"):
            SchemeParams(tol=1e-300)
        assert SchemeParams(tol=1e-150).tol == 1e-150


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
        rep = check_H1(p)
        lam, theta = contraction_constants(rep.computed, rep.variant, eps=1.0, alpha=math.sqrt(2) / 2, delta=0.01)
        for rec in sol.history[1:6]:
            assert rec.ratio <= theta / lam + 0.1
            assert rec.theory_ratio == pytest.approx(theta / lam)

    def test_geometric_decay_of_gaps(self):
        p = h1prime_toy()
        sol = fixpoint.solve(
            p, TimeGrid(0.25, 60),
            SchemeParams(delta=0.01, particles=1500, max_outer=6, tol=1e-12),
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
        # every inner solve's sweep gaps trip the divergence rule too
        assert all(rec.inner_exit == "growth" for rec in err.value.history)

    def test_particle_blowup_diverges_naming_the_step(self):
        # the forward sweep of the first outer iteration overflows at step 1
        p = scalar_problem(10.0, f={"x": 1e306}, g={"x": 1.0})
        with pytest.raises(Diverged) as err:
            fixpoint.solve(p, TimeGrid(1.0, 50), SchemeParams(particles=4), seed=0)
        assert str(err.value) == (
            "particle system blew up at outer iteration 1: "
            "forward propagation produced non-finite values at step 1"
        )
        assert err.value.history == []

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
        p = law_dependent_sigma_problem()
        assert not p.law_free_sigma
        assert check_H1(p).passed
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
        short = fixpoint.solve(p, grid, SchemeParams(particles=500, max_outer=6, tol=1e-3), seed=5)
        assert short.history[-1].gap_total < 1e-6
        assert short.history[-1].inner_exit == "cap"
        assert short.history[-1].inner_gap >= 1e-8
        assert not short.converged
        longer = fixpoint.solve(p, grid, SchemeParams(particles=500, max_outer=30, tol=1e-3), seed=5)
        assert longer.converged
        assert len(longer.history) == 7

    def test_inner_gap_meets_the_target_it_reports(self):
        sol = fixpoint.solve(h1prime_toy(), TimeGrid(0.25, 30), SchemeParams(particles=500, tol=1e-3), seed=5)
        assert sol.converged
        for rec in sol.history:
            assert (rec.inner_gap < (1e-3 / 10) ** 2) == (rec.inner_exit == "target")
        assert sol.history[-1].inner_exit == "target"
        assert sol.history[-1].to_record()["inner_gap"] == sol.history[-1].inner_gap

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


def identity_slab(nodes, slots, particles):
    """A path slab whose every slot holds the X paths on which particle p sits at the unit vector e_p at every node,
    so that a table [c; V_k'] in a slot's rows gives particle p the values c + V_k[:, p] exactly (the other products
    are zero for finite values)."""
    slab = np.zeros((nodes, slots, particles, particles))
    slab[:] = np.eye(particles)
    return slab


def on_slot(values, slot, rows):
    """The table on a slab of ``rows`` rows a node whose node k holds the (d, P) values V_k of the component-major
    ``values`` on an identity slot: [0; V_k'] in the slot's rows."""
    nodes, d, particles = values.shape
    table = np.zeros((nodes, 1 + rows, d))
    table[:, 1 + slot * particles : 1 + (slot + 1) * particles] = values.transpose(0, 2, 1)
    return table


def slab_values(table, slab):
    """The component-major values of a slab table, node by node."""
    blocks = slab.reshape(len(slab), -1, slab.shape[-1])
    return np.stack([t[1:].T @ b + t[0, :, None] for t, b in zip(table, blocks)])


def fitted_on_slot(slab, slot, values):
    """The fitted map on an identity slot of ``slab`` whose node values are the component-major ``values``."""
    return FittedMap(from_component_major(slab[:, slot]), on_slot(values, 0, values.shape[2]))


class FlatAnderson:
    """Drives fixpoint._Anderson on flat vectors, each split into a component-major (Y, Z) pair, on a slab of
    identity slots: the sweep outputs are fitted maps on slots 0, 1, ... in turn (depth + 2 of them, so that a new
    output never takes a kept one's slot) and the iterates tables on the last slot."""

    def __init__(self, depth, y_shape, z_shape):
        self.slab = identity_slab(y_shape[0], depth + 3, y_shape[2])
        self.acc = fixpoint._Anderson(depth, self.slab, (y_shape[1], z_shape[1]))
        self.shapes, self.sweeps = (y_shape, z_shape), 0

    def next(self, u, fu):
        slots, rows = self.slab.shape[1], self.slab.shape[1] * self.slab.shape[2]
        slot, self.sweeps = self.sweeps % (slots - 1), self.sweeps + 1
        fitted = [fitted_on_slot(self.slab, slot, e.component_major) for e in split(fu, *self.shapes)]
        self.acc.observe(slot, fitted, [on_slot(e.component_major, slots - 1, rows) for e in split(u, *self.shapes)])
        return np.concatenate([slab_values(t, self.slab).ravel() for t in self.acc.mix()])


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

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_gram_step_on_residuals_that_shrink_by_a_tenth(self, depth):
        # plain sweeps u_{n+1} = F(u_n) of F(u) = A u + b, A's eigenvalues spread over [0.85, 0.95]: each residual
        # is about 0.9 times the last, so a residual difference is about a tenth of a residual.  The bound 1e-8
        # was written for a mixer that formed the differences' Gram matrix as D R D' from the residuals' Gram
        # matrix R (entries 100 times larger, two digits lost to cancellation), which read 3.9e-8 at depth 3; the
        # ring keeps explicit differences, whose Gram matrix loses no digits that way, and reads 1.1e-10 at depth
        # 3 (the normal equations square the conditioning of the differences, a Krylov basis of A - 0.9 I)
        rng = np.random.default_rng(10 + depth)
        size = 400
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        a = (q * rng.uniform(0.85, 0.95, size)) @ q.T
        b = rng.standard_normal(size)
        acc = FlatAnderson(depth, (3, 2, 40), (2, 2, 40))
        hist_u, hist_fu, ratios, errors = [], [], [], []
        u = np.zeros(size)
        for _ in range(8):
            fu = a @ u + b
            hist_u, hist_fu = (hist_u + [u])[-depth - 1 :], (hist_fu + [fu])[-depth - 1 :]
            ref = stacked_anderson(hist_u, hist_fu)
            errors.append(np.abs(acc.next(u, fu) - ref).max() / np.abs(ref).max())
            if len(hist_u) > 1:
                ratios.append(np.linalg.norm(hist_fu[-1] - hist_u[-1]) / np.linalg.norm(hist_fu[-2] - hist_u[-2]))
            u = fu
        assert all(0.85 < r < 0.95 for r in ratios)
        assert max(errors) < 1e-8

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
        slab = identity_slab(grid.steps + 1, 6, particles)
        acc = fixpoint._Anderson(3, slab, (m, m * d))
        old = [from_component_major(rng.standard_normal(s)) for s in shapes]
        for sweep in range(3):
            new = [from_component_major(rng.standard_normal(s)) for s in shapes]
            per_x = node_msd(new[0].component_major, old[0].component_major)
            fitted = [fitted_on_slot(slab, sweep, e.component_major) for e in new[1:]]
            tables = [on_slot(e.component_major, 5, 6 * particles) for e in old[1:]]
            gap = sum(fixpoint._gap_parts(per_x, *acc.observe(sweep, fitted, tables), grid.dt))
            assert gap == pytest.approx(sum(fixpoint._gaps(grid, new, old)), rel=1e-12, abs=0.0)
            old = new


@pytest.fixture(scope="class")
def toy_solve_peak():
    """The README toy solve (P = 2,000, 40 steps) and its tracemalloc peak in U, one (Y, Z) path set:
    41 Y nodes and 40 Z steps of 2,000 particles."""
    p = problem_from_config(TOY_PROBLEM)
    # a small solve first, so that modules numpy imports on first use are not counted
    fixpoint.solve(p, TimeGrid(0.25, 4), SchemeParams(particles=20), seed=0)
    tracemalloc.start()
    try:
        sol = fixpoint.solve(p, TimeGrid(0.25, 40), SchemeParams(delta=0.01, tol=1e-5, max_outer=8, particles=2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sol, peak / (81 * 2000 * 8)


class TestAndersonMemory:
    def test_mix_keeps_only_the_outputs_the_next_mix_reads(self):
        # depth 2 on a slab of depth + 3 = 5 identity slots: the outputs take slots 0..3 in turn, the iterate's
        # tables are on slot 4, and each mix is a pair of tables on the last three outputs' slots
        rng = np.random.default_rng(0)
        slab, particles = identity_slab(3, 5, 5), 5
        acc = fixpoint._Anderson(2, slab, (1, 1))
        u = [on_slot(rng.standard_normal((n, 1, particles)), 4, 5 * particles) for n in (3, 2)]
        for sweep in range(6):
            fu = [fitted_on_slot(slab, sweep % 4, rng.standard_normal((n, 1, particles))) for n in (3, 2)]
            acc.observe(sweep % 4, fu, u)
            u = acc.mix()
            kept = {(sweep - i) % 4 for i in range(min(sweep, 2) + 1)}
            assert {s for s, _ in acc.window} == kept
            assert [t.shape for t in u] == [(3, 1 + 5 * particles, 1), (2, 1 + 5 * particles, 1)]
            used = {s for s in range(5) if any(np.any(t[:, 1 + s * particles : 1 + (s + 1) * particles]) for t in u)}
            assert used == kept

    def test_mix_without_history_returns_a_copy_of_the_sweep_output(self):
        rng = np.random.default_rng(1)
        slab, particles = identity_slab(3, 5, 5), 5
        acc = fixpoint._Anderson(2, slab, (1, 1))
        fu = [fitted_on_slot(slab, 2, rng.standard_normal((n, 1, particles))) for n in (3, 2)]
        acc.observe(2, fu, [np.zeros((n, 1 + 5 * particles, 1)) for n in (3, 2)])
        for got, swept in zip(acc.mix(), fu):
            assert not np.shares_memory(got, swept.coef)
            assert np.array_equal(got[:, 0], swept.coef[:, 0])
            assert np.array_equal(got[:, 1 + 2 * particles : 1 + 3 * particles], swept.coef[:, 1:])
            assert slab_values(got, slab).tobytes() == swept.paths().component_major.tobytes()

    def test_backward_sweep_runs_beside_one_slab(self, monkeypatch):
        # every sweep of a solve writes a slot of one slab, allocated once: never the outer iterate's slot nor one
        # of the mixer's last depth + 1 outputs'; the sweep itself builds fitted maps, not (Y, Z) paths
        slabs, writes, grown = [], [], []

        def tracked_propagate(*args):
            slabs.append(args[3])
            writes.append(args[4])
            return propagate(*args)

        def counting_backward(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = solve_backward(*args)
            grown.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(fixpoint, "propagate", tracked_propagate)
        monkeypatch.setattr(fixpoint, "solve_backward", counting_backward)
        p = problem_from_config(TOY_PROBLEM)
        params = SchemeParams(delta=0.01, tol=1e-5, max_outer=3, particles=200)
        tracemalloc.start()
        try:
            sol = fixpoint.solve(p, TimeGrid(0.25, 40), params)
        finally:
            tracemalloc.stop()
        depth = fixpoint._ANDERSON_DEPTH
        assert len(sol.history) == 3 and len(writes) == sum(rec.inner_sweeps for rec in sol.history)
        assert all(slab is slabs[0] for slab in slabs) and slabs[0].shape[1] == depth + 3
        start, outer = 0, None
        for rec in sol.history:
            inner = writes[start : start + rec.inner_sweeps]
            assert outer not in inner
            assert all(len(set(inner[i : i + depth + 2])) == len(inner[i : i + depth + 2]) for i in range(len(inner)))
            start, outer = start + rec.inner_sweeps, inner[-1]
        # the solution's X paths are a copy of the last slot
        assert not np.shares_memory(sol.x_ens.component_major, slabs[0])
        assert sol.x_ens.component_major.tobytes() == slabs[0][:, outer].tobytes()
        # one (Y, Z) path set is 81 nodes of 200 particles; the sweep's moment rows are one (2 + 3m, P) buffer
        assert max(grown) < 0.5 * 81 * 200 * 8

    def test_solve_peak_memory(self, toy_solve_peak):
        sol, peak = toy_solve_peak
        assert sum(rec.inner_sweeps for rec in sol.history) == 24
        assert peak <= 13.5

    def test_solve_peak_holds_only_what_a_sweep_reads(self, toy_solve_peak):
        # the bound of the mixer that kept mix arrays: bundle (0.5 U), the previous iterate's X paths (0.5 U), the
        # dR ring (3 U), mix buffer (1 U) and four X path sets (2 U), 7.0 U, and 7.59 U measured; the slab's
        # inventory is the next test's
        assert toy_solve_peak[1] <= 7.8

    def test_solve_peak_is_the_slab_the_ring_and_the_bundle(self, toy_solve_peak):
        # the inventory in U (81 nodes of 2,000 particles): the slab's depth + 3 X path sets of 41 nodes, the
        # node-major residual ring's depth (Y, Z) rows on 41 nodes and the bundle's 40 steps, 6.57 U, plus the
        # 0.35 U that the parent's peak (7.35 U) held above its own inventory (7.0 U) for the sweep's buffers
        depth = fixpoint._ANDERSON_DEPTH
        inventory = ((depth + 3) * 41 + depth * 2 * 41 + 40) / 81
        assert toy_solve_peak[1] <= inventory + 0.35

    def test_outer_gap_over_maps_has_the_bits_of_the_gap_over_built_paths(self):
        # two sweeps' (X paths, Y map, Z map) on different paths, read node by node against the built paths
        p, grid = problem_from_config(TOY_PROBLEM), TimeGrid(0.25, 20)
        iterates = []
        for seed in (1, 2):
            bundle = make_bundle(grid, 1500, seed)
            y = from_component_major(np.zeros((21, 1, 1500)))
            flow = joint_marginal(y, y)
            x = zero_sweep(p, grid, bundle, flow)
            iterates.append((x, *solve_backward(p, grid, bundle, x, flow)[:2]))
        new, old = iterates
        paths = [[e.component_major if i == 0 else e.paths().component_major for i, e in enumerate(it)]
                 for it in iterates]
        want = fixpoint._gap_parts(*(node_msd(a, b) for a, b in zip(*paths)), grid.dt)
        assert fixpoint._gaps(grid, new, old) == want
        # the form the outer solve takes: the new (Y, Z) as paths, the old iterate's as maps
        assert fixpoint._gaps(grid, [new[0], *(from_component_major(a) for a in paths[0][1:])], old) == want


class TestSweepGap:
    @pytest.mark.parametrize("game", [False, True], ids=["toy", "example3"])
    def test_forward_step_gap_has_the_bits_of_node_msd_of_the_two_slots(self, game, monkeypatch):
        # every sweep of a solve: the X gap the forward step forms against the previous sweep's slot (the outer
        # iterate's on an inner solve's first sweep) is node_msd of the two slots, bit for bit
        checked = []

        def checking(*args):
            x, per_x = propagate(*args)
            slab, slot, prev = args[3], args[4], args[-1]
            checked.append(per_x.tobytes() == node_msd(slab[:, slot], slab[:, prev]).tobytes())
            return x, per_x

        monkeypatch.setattr(fixpoint, "propagate", checking)
        if game:
            p, grid, params = lqgame.build_aggregated(lqgame.example3_game(0.25)), TimeGrid(0.25, 20), SchemeParams(
                particles=1000)
        else:
            p, grid, params = problem_from_config(TOY_PROBLEM), TimeGrid(0.25, 30), SchemeParams(
                delta=0.01, tol=1e-5, max_outer=8, particles=1000)
        sol = fixpoint.solve(p, grid, params, seed=11)
        assert sol.converged and len(checked) == sum(rec.inner_sweeps for rec in sol.history)
        assert all(checked)


class TestThreads:
    def test_law_dependent_sigma_solve_does_not_depend_on_the_blas_thread_count(self):
        # sigma reads z and the law, so every forward step's diffusion columns carry the iterate's Z table and
        # the damping difference -delta (Z - Z_prev); 12,000 particles is above the ~10,000 values at which
        # OpenBLAS splits a dot product across its threads
        src = str(Path(fixpoint.__file__).resolve().parents[1])
        code = "\n".join([
            "import hashlib",
            "from test_fixpoint import law_dependent_sigma_problem",
            "from mfbsde import fixpoint",
            "from mfbsde.paths import TimeGrid",
            "sol = fixpoint.solve(law_dependent_sigma_problem(), TimeGrid(0.3, 20),",
            "                     fixpoint.SchemeParams(delta=1e-3, particles=12000, max_outer=15, tol=1e-4), seed=5)",
            "print(len(sol.history), sum(r.inner_sweeps for r in sol.history), sol.converged)",
            "for e in (sol.x_ens, sol.y_ens.paths(), sol.z_ens.paths()):",
            "    print(hashlib.sha256(e.component_major.tobytes()).hexdigest())",
        ])
        runs = []
        for threads in ("1", "2", "4"):
            path = os.pathsep.join(filter(None, [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr
            runs.append(done.stdout)
        assert runs[0].splitlines()[0].endswith("True") and len(runs[0].splitlines()) == 4
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestDroppedDirections:
    @pytest.mark.parametrize("game", [False, True], ids=["toy", "example3"])
    def test_dropped_steps_are_the_same_on_every_sweep_of_an_inner_solve(self, game, monkeypatch):
        # the sweeps of one inner solve iterate one map only if each step keeps the same directions: example 3's
        # X^1 - X^2 is the same for every particle, so every step drops it, and the toy's cloud is a point mass
        # only at node 0
        dropped, factors = [], backward.regression_factors

        def recording(*args):
            out = factors(*args)
            dropped.append(out[4])
            return out

        monkeypatch.setattr(backward, "regression_factors", recording)
        if game:
            p, grid, seed = lqgame.build_aggregated(lqgame.example3_game(0.25)), TimeGrid(0.25, 20), 3
            params = SchemeParams(particles=2000)
        else:
            p, grid, seed = problem_from_config(TOY_PROBLEM), TimeGrid(0.25, 40), 11
            params = SchemeParams(delta=0.01, tol=1e-5, max_outer=8, particles=2000)
        sol = fixpoint.solve(p, grid, params, seed=seed)
        assert sol.converged and len(dropped) == sum(rec.inner_sweeps for rec in sol.history)
        start = 0
        for rec in sol.history:
            sweeps = dropped[start : start + rec.inner_sweeps]
            assert all(steps == sweeps[0] for steps in sweeps)
            start += rec.inner_sweeps
        assert all(steps == (list(range(grid.steps - 1, -1, -1)) if game else [0]) for steps in dropped)


class TestToyOracle:
    def test_oracle_riccati_is_the_closed_form_tanh(self):
        # P' = (P - b/2)^2 - w^2 with b = 0.09, w^2 = b^2/4 + 1: P = b/2 - w tanh(w (t - t0)), P(T) = 1
        b, horizon = 0.09, 0.25
        w = math.sqrt(b * b / 4 + 1.0)
        t0 = horizon - math.atanh((b / 2 - 1.0) / w) / w
        exact = b / 2 - w * np.tanh(w * (np.linspace(0.0, horizon, 101) - t0))
        for coupling in (0.0, 0.1):
            mean_x, _, mean_y, p = toy_moments(horizon, 100, coupling=coupling)
            assert np.abs(p - exact).max() < 1e-12
            # the terminal condition Y_T = X_T + c E[X_T] in the mean
            assert mean_y[-1] == pytest.approx((1.0 + coupling) * mean_x[-1], abs=1e-12)

    def test_particle_moments_match_the_exact_oracle(self):
        # the toy benchmark's solve: E[X], Var(X) and E[Y] within 3 (dt + N^-1/2) at every node
        # (measured 7.1e-3, 7.2e-4 and 1.0e-2 against a bound of 5.0e-2)
        grid, particles = TimeGrid(0.25, 100), 5000
        params = SchemeParams(delta=0.01, tol=1e-5, max_outer=8, particles=particles)
        sol = fixpoint.solve(problem_from_config(TOY_PROBLEM), grid, params, seed=11)
        assert sol.converged
        mean_x, var_x, mean_y, _ = toy_moments(0.25, 100)
        x, y = sol.x_ens.values[:, :, 0], sol.y_ens.values[:, :, 0]
        bound = 3.0 * (grid.dt + particles**-0.5)
        for got, want in ((x.mean(axis=0), mean_x), (x.var(axis=0), var_x), (y.mean(axis=0), mean_y)):
            assert np.abs(got - want).max() < bound


class TestResidual:
    def test_exact_discrete_solution_has_zero_residuals(self):
        p = scalar_problem(1.0, g={"const": 3.0})
        grid = TimeGrid(1.0, 10)
        particles = 50
        bundle = make_bundle(grid, particles, seed=0)
        x = PathEnsemble(np.ones((particles, 11, 1)))
        y = PathEnsemble(np.full((particles, 11, 1), 3.0))
        z = PathEnsemble(np.zeros((particles, 10, 1)))
        sol = MfSolution(
            grid=grid, bundle=bundle, x_ens=x, y_ens=y, z_ens=z, history=[], converged=True,
        )
        fwd, bwd, term = fixpoint.residual(p, sol)
        assert fwd == 0.0 and bwd == 0.0 and term == 0.0

    def test_zero_triple_has_positive_terminal_residual(self):
        p = dataclasses.replace(decoupled_problem(), g=AffineCoeffs(1, "g", x=1.0, const=1.0))
        grid = TimeGrid(1.0, 10)
        particles = 20
        bundle = make_bundle(grid, particles, seed=0)
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
            IterationDiagnostics(1, 0.5, 0.25, math.nan, 0.08, 1e-3, False, 60, 2e-6, "cap"),
            IterationDiagnostics(2, 0.05, 0.02, 0.093, 0.08, 1e-3, True, 4, 5e-9, "target"),
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
