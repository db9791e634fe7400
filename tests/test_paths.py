import io

import numpy as np
import pytest

from mfbsde.paths import (
    PathEnsemble,
    TimeGrid,
    from_time_major,
    joint_marginal,
    make_bundle,
    marginal,
    moments_to_csv,
    node_msd,
)


class TestTimeGrid:
    def test_nodes_and_dt(self):
        g = TimeGrid(horizon=2.0, steps=4)
        assert g.dt == pytest.approx(0.5)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0)])
    def test_validation(self, horizon, steps):
        with pytest.raises(ValueError):
            TimeGrid(horizon=horizon, steps=steps)


class TestMakeBundle:
    def test_same_seed_bit_identical(self):
        g = TimeGrid(1.0, 10)
        a = make_bundle(g, 32, 2, seed=42)
        b = make_bundle(g, 32, 2, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seed_differs(self):
        g = TimeGrid(1.0, 10)
        assert not np.array_equal(
            make_bundle(g, 32, 1, seed=1).increments,
            make_bundle(g, 32, 1, seed=2).increments,
        )

    def test_empirical_moments(self):
        g = TimeGrid(1.0, 100)  # dt = 0.01
        b = make_bundle(g, 100_000, 1, seed=7)
        var = b.increments.var(axis=0)
        assert np.all(np.abs(var - g.dt) < 0.05 * g.dt)
        assert np.all(np.abs(b.increments.mean(axis=0)) < 5 * np.sqrt(g.dt / 100_000))

    def test_quadratic_variation_concentrates(self):
        g = TimeGrid(2.0, 100)
        b = make_bundle(g, 4000, 1, seed=3)
        qv = np.sum(b.increments[:, :, 0] ** 2, axis=1)
        assert abs(qv.mean() - g.horizon) < 0.1 * g.horizon

    def test_zero_sizes_rejected(self):
        g = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            make_bundle(g, 0, 1, seed=0)
        with pytest.raises(ValueError):
            make_bundle(g, 4, 0, seed=0)


class TestPathEnsemble:
    def test_immutable(self):
        e = PathEnsemble(np.zeros((2, 3, 1)))
        with pytest.raises(ValueError):
            e.values[0, 0, 0] = 1.0

    def test_rejects_non_finite(self):
        vals = np.zeros((2, 3, 1))
        vals[1, 2, 0] = np.inf
        with pytest.raises(ValueError):
            PathEnsemble(vals)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            PathEnsemble(np.zeros((2, 3)))


class TestTimeMajorLayout:
    @pytest.mark.parametrize("shape", [(5, 4, 3), (1, 4, 2), (5, 1, 1), (1, 1, 1)])
    def test_values_are_a_read_only_view_of_a_private_copy(self, shape):
        src = np.random.default_rng(0).standard_normal(shape)
        keep = src.copy()
        e = PathEnsemble(src)
        assert e.values.tobytes() == keep.tobytes()
        assert not e.values.flags.writeable and not e.time_major.flags.writeable
        assert e.time_major.flags.c_contiguous
        assert np.array_equal(e.time_major, keep.transpose(1, 0, 2))
        assert (e.particles, e.nodes, e.dim) == shape
        src[...] = 99.0
        assert np.array_equal(e.values, keep)

    def test_from_time_major_round_trip(self):
        tm = np.random.default_rng(1).standard_normal((3, 4, 2))
        e = from_time_major(tm)
        assert np.array_equal(e.time_major, tm) and e.time_major is not tm
        assert np.array_equal(e.values[2, 1], tm[1, 2])

    def test_bundle_layout_and_draws(self):
        g = TimeGrid(1.0, 7)
        b = make_bundle(g, 6, 2, seed=3)
        assert b.time_major.flags.c_contiguous and not b.time_major.flags.writeable
        assert not b.increments.flags.writeable
        assert np.array_equal(b.increments, b.time_major.transpose(1, 0, 2))
        assert (b.particles, b.steps, b.dim) == (6, 7, 2)
        # the draws are the particle-major stream of the seed's Philox generator
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        expected = rng.standard_normal((6, 7, 2)) * np.sqrt(g.dt)
        assert b.increments.tobytes() == expected.tobytes()

    def test_node_msd(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 3, 50, 2))
        expected = [np.mean(np.sum((a[k] - b[k]) ** 2, axis=1)) for k in range(3)]
        assert np.allclose(node_msd(a, b), expected, rtol=1e-14, atol=0.0)


class TestMarginal:
    def test_point_mass_from_constant_ensemble(self):
        e = PathEnsemble(np.full((5, 3, 2), 1.5))
        m = marginal(e, 1)
        assert np.allclose(m.points, 1.5)
        assert m.size == 5 and m.dim == 2

    def test_values_at_node(self):
        vals = np.zeros((2, 2, 1))
        vals[0, 1, 0], vals[1, 1, 0] = 1.0, 3.0
        m = marginal(PathEnsemble(vals), 1)
        assert sorted(m.points[:, 0]) == [1.0, 3.0]

    def test_out_of_range(self):
        e = PathEnsemble(np.zeros((2, 3, 1)))
        with pytest.raises(IndexError):
            marginal(e, 3)

    def test_joint_concatenation(self):
        rng = np.random.default_rng(0)
        x = PathEnsemble(rng.standard_normal((4, 3, 2)))
        y = PathEnsemble(rng.standard_normal((4, 3, 1)))
        j = joint_marginal(x, y, 2)
        manual = np.concatenate([x.values[:, 2, :], y.values[:, 2, :]], axis=1)
        assert np.array_equal(j.points, manual)
        assert j.dim == 3


class TestExports:
    def test_moments_csv_values(self):
        g = TimeGrid(1.0, 1)
        vals = np.array([[[0.0], [2.0]], [[4.0], [6.0]]])
        buf = io.StringIO()
        moments_to_csv(PathEnsemble(vals), g, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "time,mean_0,var_0"
        t0 = [float(v) for v in lines[1].split(",")]
        assert t0 == pytest.approx([0.0, 2.0, 4.0])

    def test_step_indexed_ensemble_uses_left_endpoints(self):
        g = TimeGrid(1.0, 2)
        z = PathEnsemble(np.zeros((2, 2, 1)))  # one value per step
        buf = io.StringIO()
        moments_to_csv(z, g, buf)
        times = [float(l.split(",")[0]) for l in buf.getvalue().strip().splitlines()[1:]]
        assert times == pytest.approx([0.0, 0.5])
