import numpy as np
import pytest

from repro.sparse.coo import COOMatrix


class TestConstruction:
    def test_infers_shape(self):
        m = COOMatrix([0, 2], [1, 3])
        assert m.shape == (3, 4)

    def test_explicit_shape(self):
        m = COOMatrix([0], [0], shape=(5, 6))
        assert m.shape == (5, 6)

    def test_default_values_are_ones(self):
        m = COOMatrix([0, 1], [1, 0])
        assert np.all(m.vals == 1.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            COOMatrix([0, 1], [0])

    def test_rejects_vals_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            COOMatrix([0, 1], [0, 1], vals=[1.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="exceed"):
            COOMatrix([5], [0], shape=(3, 3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            COOMatrix([-1], [0], shape=(3, 3))

    def test_empty(self):
        m = COOMatrix([], [], shape=(3, 3))
        assert m.nnz == 0
        assert np.all(m.to_dense() == 0)


class TestCoalesce:
    def test_sums_duplicates(self):
        m = COOMatrix([0, 0, 1], [1, 1, 0], vals=[2.0, 3.0, 1.0], shape=(2, 2))
        c = m.coalesce()
        assert c.nnz == 2
        dense = c.to_dense()
        assert dense[0, 1] == 5.0
        assert dense[1, 0] == 1.0

    def test_row_major_order(self):
        m = COOMatrix([1, 0, 1], [0, 1, 1], shape=(2, 2))
        c = m.coalesce()
        assert list(c.rows) == [0, 1, 1]
        assert list(c.cols) == [1, 0, 1]

    def test_preserves_dense_equivalent(self, rng):
        rows = rng.integers(0, 10, 50)
        cols = rng.integers(0, 10, 50)
        vals = rng.normal(size=50)
        m = COOMatrix(rows, cols, vals, shape=(10, 10))
        np.testing.assert_allclose(m.coalesce().to_dense(), m.to_dense())


def two_sort_coalesce(m):
    """The original coalesce: a stable argsort, ``np.unique``, ``np.add.at``."""
    keys = m.rows * m.shape[1] + m.cols
    order = np.argsort(keys, kind="stable")
    unique_keys, inverse = np.unique(keys[order], return_inverse=True)
    summed = np.zeros(unique_keys.shape[0], dtype=np.float64)
    np.add.at(summed, inverse, m.vals[order])
    return unique_keys // m.shape[1], unique_keys % m.shape[1], summed


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


class TestCoalesceOracle:
    """One sort per coalesce, bit-identical to the two-sort original."""

    def weighted(self, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_cols = rng.integers(1, 7, size=2)
        nnz = int(rng.integers(1, 400))
        magnitude = 10.0 ** rng.uniform(-12, 12, nnz)
        vals = rng.choice([-1.0, 1.0], nnz) * magnitude
        vals[rng.random(nnz) < 0.1] = -0.0
        vals[rng.random(nnz) < 0.1] = 1.0
        rows = rng.integers(0, n_rows, nnz)
        cols = rng.integers(0, n_cols, nnz)
        return COOMatrix(rows, cols, vals, shape=(n_rows, n_cols))

    @pytest.mark.parametrize("seed", range(40))
    def test_weighted_sums_bit_identical(self, seed):
        m = self.weighted(seed)
        # At most 36 coordinates for up to 400 entries: long runs.
        c = m.coalesce()
        rows, cols, summed = two_sort_coalesce(m)
        assert_bits_equal(c.rows, rows)
        assert_bits_equal(c.cols, cols)
        assert_bits_equal(c.vals, summed)

    def test_runs_longer_than_eight(self):
        m = self.weighted(3)
        _, counts = np.unique(m.rows * m.shape[1] + m.cols,
                              return_counts=True)
        assert counts.max() > 8

    def test_negative_zero_run_sums_to_positive_zero(self):
        m = COOMatrix([1, 1, 0], [0, 0, 1], vals=[-0.0, -0.0, 2.0],
                      shape=(2, 2))
        c = m.coalesce()
        assert_bits_equal(c.vals, two_sort_coalesce(m)[2])
        assert not np.signbit(c.vals[1])

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_values_count_runs(self, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 9, 3000)
        cols = rng.integers(0, 7, 3000)
        m = COOMatrix(rows, cols, shape=(9, 7))
        c = m.coalesce()
        want_rows, want_cols, want_vals = two_sort_coalesce(m)
        assert_bits_equal(c.rows, want_rows)
        assert_bits_equal(c.cols, want_cols)
        assert_bits_equal(c.vals, want_vals)

    @pytest.mark.parametrize("vals", [None, [0.5]])
    def test_indptr_counts_each_row(self, vals):
        m = COOMatrix([3, 0, 3, 3], [1, 2, 1, 0],
                      vals=None if vals is None else vals * 4, shape=(5, 4))
        csr = m.to_csr()
        assert csr.indptr.dtype == np.int64
        assert list(csr.indptr) == [0, 1, 1, 1, 3, 3]

    def test_empty_matrix(self):
        m = COOMatrix([], [], shape=(3, 4))
        c = m.coalesce()
        assert c.nnz == 0 and c.shape == (3, 4)
        csr = m.to_csr()
        assert list(csr.indptr) == [0, 0, 0, 0]
        assert csr.indices.dtype == np.int64 and csr.data.dtype == np.float64


class TestTranspose:
    def test_transpose_swaps(self):
        m = COOMatrix([0], [2], vals=[7.0], shape=(2, 3))
        t = m.transpose()
        assert t.shape == (3, 2)
        assert t.to_dense()[2, 0] == 7.0


class TestToCSR:
    def test_round_trip_dense(self, rng):
        rows = rng.integers(0, 8, 30)
        cols = rng.integers(0, 8, 30)
        vals = rng.normal(size=30)
        m = COOMatrix(rows, cols, vals, shape=(8, 8))
        np.testing.assert_allclose(m.to_csr().to_dense(), m.to_dense())

    def test_empty_rows_have_zero_width(self):
        m = COOMatrix([0, 3], [1, 2], shape=(4, 4))
        csr = m.to_csr()
        assert list(csr.row_degrees()) == [1, 0, 0, 1]
