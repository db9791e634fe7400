import io
import tracemalloc

import numpy as np
import pytest

from mfbsde.paths import (
    BrownianBundle,
    PathEnsemble,
    TimeGrid,
    from_component_major,
    joint_marginal,
    make_bundle,
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
        a = make_bundle(g, 32, seed=42)
        b = make_bundle(g, 32, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_different_seed_differs(self):
        g = TimeGrid(1.0, 10)
        assert not np.array_equal(
            make_bundle(g, 32, seed=1).increments,
            make_bundle(g, 32, seed=2).increments,
        )

    def test_empirical_moments(self):
        g = TimeGrid(1.0, 100)  # dt = 0.01
        b = make_bundle(g, 100_000, seed=7)
        var = b.increments.var(axis=0)
        assert np.all(np.abs(var - g.dt) < 0.05 * g.dt)
        assert np.all(np.abs(b.increments.mean(axis=0)) < 5 * np.sqrt(g.dt / 100_000))

    def test_quadratic_variation_concentrates(self):
        g = TimeGrid(2.0, 100)
        b = make_bundle(g, 4000, seed=3)
        qv = np.sum(b.increments**2, axis=1)
        assert abs(qv.mean() - g.horizon) < 0.1 * g.horizon

    def test_zero_sizes_rejected(self):
        g = TimeGrid(1.0, 10)
        with pytest.raises(ValueError):
            make_bundle(g, 0, seed=0)

    @pytest.mark.parametrize("shape", [(10, 2, 50), (10,)])
    def test_bundle_of_more_than_one_brownian_motion_rejected(self, shape):
        # every problem and game is driven by one Brownian motion: a bundle is (steps, particles)
        with pytest.raises(ValueError, match=r"^a bundle is a \(steps, particles\) array"):
            BrownianBundle(np.zeros(shape))

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_the_key_range_rejected(self, seed):
        # the Philox key is a uint64: taken mod 2**64, these would alias 2**64 - 1, 0 and 5
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            make_bundle(TimeGrid(1.0, 4), 3, seed)


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
    """Storage is node-major (one block per node) and component-major within
    the node: a read-only C-contiguous (nodes, dim, particles) array."""

    @pytest.mark.parametrize("shape", [(5, 4, 3), (1, 4, 2), (5, 1, 1), (1, 1, 1)])
    def test_values_are_a_read_only_view_of_a_private_copy(self, shape):
        src = np.random.default_rng(0).standard_normal(shape)
        keep = src.copy()
        e = PathEnsemble(src)
        assert e.values.tobytes() == keep.tobytes()
        assert not e.values.flags.writeable and not e.component_major.flags.writeable
        assert e.component_major.flags.c_contiguous
        assert np.array_equal(e.component_major, keep.transpose(1, 2, 0))
        assert not np.shares_memory(e.component_major, src)
        assert (e.particles, e.nodes, e.dim) == shape
        src[...] = 99.0
        assert np.array_equal(e.values, keep)

    def test_from_component_major_stores_the_array(self):
        cm = np.random.default_rng(1).standard_normal((3, 2, 4))
        e = from_component_major(cm)
        assert e.component_major is cm and not cm.flags.writeable
        assert (e.particles, e.nodes, e.dim) == (4, 3, 2)
        assert np.array_equal(e.values[3, 1], cm[1, :, 3])
        assert np.shares_memory(e.node(2), cm) and np.array_equal(e.node(2), cm[2])
        with pytest.raises(ValueError):
            from_component_major(np.zeros((3, 4, 2)).transpose(0, 2, 1))

    def test_bundle_layout_and_draws(self):
        g = TimeGrid(1.0, 7)
        b = make_bundle(g, 6, seed=3)
        assert b.component_major.flags.c_contiguous and not b.component_major.flags.writeable
        assert not b.increments.flags.writeable
        assert np.array_equal(b.increments, b.component_major.T)
        assert (b.particles, b.steps) == (6, 7) and b.component_major.shape == (7, 6)
        # the draws are the particle-major stream of the seed's Philox generator
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        expected = rng.standard_normal((6, 7)) * np.sqrt(g.dt)
        assert b.increments.tobytes() == expected.tobytes()

    def test_node_msd(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 3, 2, 50))
        expected = [np.mean(np.sum((a[k] - b[k]) ** 2, axis=0)) for k in range(3)]
        assert np.allclose(node_msd(a, b), expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("shape", [(101, 2, 10_000), (101, 1, 5_000), (41, 3, 777), (5, 2, 3)])
    def test_node_msd_has_the_bits_of_the_whole_array_formula(self, shape):
        a, b = np.random.default_rng(3).standard_normal((2, *shape))
        d = (a - b) ** 2
        assert node_msd(a, b).tobytes() == (d.reshape(len(d), -1).sum(axis=1) / shape[-1]).tobytes()

    def test_node_msd_works_one_node_block_at_a_time(self):
        # a whole-array difference of (101, 2, 10,000) is 16 MB; one node block is 160 kB
        a, b = np.random.default_rng(4).standard_normal((2, 101, 2, 10_000))
        node_msd(a, b)  # numpy's first-use imports are not counted
        tracemalloc.start()
        try:
            node_msd(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestMarginal:
    def test_point_mass_from_constant_ensemble(self):
        e = PathEnsemble(np.full((5, 3, 2), 1.5))
        table = joint_marginal(e, e)
        assert table.shape == (3, 4)
        assert np.array_equal(table, np.full((3, 4), 1.5))

    def test_values_at_node(self):
        vals = np.zeros((2, 2, 1))
        vals[0, 1, 0], vals[1, 1, 0] = 1.0, 3.0
        e = PathEnsemble(vals)
        assert np.array_equal(joint_marginal(e, e), [[0.0, 0.0], [2.0, 2.0]])

    def test_table_is_read_only(self):
        e = PathEnsemble(np.random.default_rng(1).standard_normal((5, 3, 2)))
        table = joint_marginal(e, e)
        with pytest.raises(ValueError, match="read-only"):
            table[1, 0] = 0.0

    def test_shape_mismatch(self):
        x = PathEnsemble(np.zeros((4, 3, 1)))
        for y in (PathEnsemble(np.zeros((5, 3, 1))), PathEnsemble(np.zeros((4, 2, 1)))):
            with pytest.raises(ValueError, match="share particle and node counts"):
                joint_marginal(x, y)

    def test_joint_concatenation(self):
        rng = np.random.default_rng(0)
        x = PathEnsemble(rng.standard_normal((4, 3, 2)))
        y = PathEnsemble(rng.standard_normal((4, 3, 1)))
        table = joint_marginal(x, y)
        manual = np.concatenate([x.values[:, 2, :], y.values[:, 2, :]], axis=1)
        assert np.allclose(table[2], manual.mean(axis=0), rtol=1e-15, atol=0.0)
        assert table.shape == (3, 3)

    @pytest.mark.parametrize("m, particles", [(1, 10_000), (2, 2_001), (3, 7)])
    def test_table_rows_have_the_bits_of_the_copy_mean(self, m, particles):
        rng = np.random.default_rng(particles)
        x = from_component_major(1e3 * rng.standard_normal((3, m, particles)) + 7.0)
        y = from_component_major(rng.standard_normal((3, m, particles)) - 3.0)
        table = joint_marginal(x, y)
        assert table.shape == (3, 2 * m)
        for k in range(3):
            copied = np.concatenate([x.component_major[k], y.component_major[k]]).T
            assert table[k].tobytes() == copied.mean(axis=0).tobytes()


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
