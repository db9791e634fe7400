import math

import numpy as np
import pytest

from mfbsde.measure import EmpiricalMeasure, mean, w2_exact, w2_paired_bound
from oracles import w2_brute_force


def cloud(*rows):
    return EmpiricalMeasure(np.array(rows, dtype=float))


class TestEmpiricalMeasure:
    def test_one_dim_points_get_column_shape(self):
        m = EmpiricalMeasure(np.array([1.0, 2.0, 3.0]))
        assert m.points.shape == (3, 1)
        assert m.dim == 1 and m.size == 3

    def test_rejects_empty_cloud(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.empty((0, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[1.0], [np.nan]]))


class TestMean:
    def test_computed_once_and_read_only(self):
        m = cloud([1, 2], [3, 4])
        first = m.mean()
        assert m.mean() is first and mean(m) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_two_points(self):
        assert np.allclose(mean(cloud([1, 2], [3, 4])), [2, 3])

    def test_singleton(self):
        assert np.allclose(mean(cloud([5])), [5])

    def test_direct_summation(self):
        pts = np.array([[0.0], [0.0], [6.0]])
        expected = pts.sum(axis=0) / len(pts)
        assert np.allclose(mean(EmpiricalMeasure(pts)), expected)
        assert np.allclose(expected, [2.0])


class TestW2Exact:
    def test_identity(self):
        rng = np.random.default_rng(0)
        m = EmpiricalMeasure(rng.standard_normal((6, 3)))
        assert w2_exact(m, m) == pytest.approx(0.0, abs=1e-14)

    def test_two_point_masses(self):
        assert w2_exact(cloud([0.0]), cloud([3.0])) == pytest.approx(3.0)

    def test_sorted_pairing_beats_crossed(self):
        # brute force: sorted pairing cost (1+1)/2 = 1, crossed (4+0)/2 = 2
        a, b = cloud([0.0], [1.0]), cloud([1.0], [2.0])
        assert w2_brute_force(a.points, b.points) == pytest.approx(1.0)
        assert w2_exact(a, b) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            w2_exact(cloud([0.0]), cloud([0.0, 1.0]))

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="cardinality"):
            w2_exact(cloud([0.0]), cloud([0.0], [1.0]))

    def test_cap_exceeded(self):
        rng = np.random.default_rng(1)
        a = EmpiricalMeasure(rng.standard_normal((9, 2)))
        b = EmpiricalMeasure(rng.standard_normal((9, 2)))
        with pytest.raises(ValueError, match="cap"):
            w2_exact(a, b, max_points=8)

    def test_matches_brute_force_in_one_dim(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = rng.integers(1, 9)
            a = rng.standard_normal((n, 1))
            b = rng.standard_normal((n, 1))
            got = w2_exact(EmpiricalMeasure(a), EmpiricalMeasure(b))
            assert got == pytest.approx(w2_brute_force(a, b), abs=1e-12)

    def test_matches_brute_force_in_higher_dim(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(2, 4))
            a = rng.standard_normal((n, d))
            b = rng.standard_normal((n, d))
            got = w2_exact(EmpiricalMeasure(a), EmpiricalMeasure(b))
            assert got == pytest.approx(w2_brute_force(a, b), abs=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 2))
        b = rng.standard_normal((7, 2))
        shift = rng.standard_normal(2)
        d0 = w2_exact(EmpiricalMeasure(a), EmpiricalMeasure(b))
        d1 = w2_exact(EmpiricalMeasure(a + shift), EmpiricalMeasure(b + shift))
        assert d0 == pytest.approx(d1, abs=1e-10)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            a = EmpiricalMeasure(rng.standard_normal((n, 2)))
            b = EmpiricalMeasure(rng.standard_normal((n, 2)))
            c = EmpiricalMeasure(rng.standard_normal((n, 2)))
            dab, dba = w2_exact(a, b), w2_exact(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= w2_exact(a, c) + w2_exact(c, b) + 1e-12


class TestPairedBound:
    def test_identity(self):
        m = cloud([1.0, 2.0], [3.0, 4.0])
        assert w2_paired_bound(m, m) == 0.0

    def test_index_paired_values(self):
        assert w2_paired_bound(cloud([0.0], [1.0]), cloud([1.0], [2.0])) == pytest.approx(1.0)
        a, b = cloud([0.0], [1.0]), cloud([2.0], [1.0])
        assert w2_paired_bound(a, b) == pytest.approx(math.sqrt(2.0))
        assert w2_exact(a, b) == pytest.approx(1.0)  # bound dominance is strict here

    def test_dominates_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            d = int(rng.integers(1, 4))
            a = EmpiricalMeasure(rng.standard_normal((n, d)))
            b = EmpiricalMeasure(rng.standard_normal((n, d)))
            assert w2_exact(a, b) <= w2_paired_bound(a, b) + 1e-12
