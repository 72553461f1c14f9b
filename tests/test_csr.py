"""Tests for repro.sparse.csr."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import CSRMatrix, csc_to_csr, csr_to_csc


class TestConstruction:
    def test_from_dense_roundtrip(self, rng):
        dense = ((rng.random((17, 23)) < 0.4) * rng.standard_normal((17, 23))).astype(
            np.float32
        )
        a = CSRMatrix.from_dense(dense)
        assert np.array_equal(a.to_dense(), dense)

    def test_from_dense_drops_zeros(self):
        a = CSRMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert a.nnz == 1

    def test_from_scipy(self, rng):
        s = sp.random(20, 30, density=0.2, random_state=7, format="coo")
        a = CSRMatrix.from_scipy(s)
        assert np.allclose(a.to_dense(), s.toarray(), atol=1e-6)

    def test_from_mask_indicator(self):
        mask = np.array([[True, False], [True, True]])
        a = CSRMatrix.from_mask(mask)
        assert np.array_equal(a.to_dense(), mask.astype(np.float32))

    def test_from_mask_with_values(self, rng):
        mask = rng.random((6, 8)) < 0.5
        vals = rng.standard_normal((6, 8))
        a = CSRMatrix.from_mask(mask, vals)
        assert np.allclose(a.to_dense(), np.where(mask, vals, 0), atol=1e-6)

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(np.ones(4))

    def test_empty_matrix(self):
        a = CSRMatrix.from_dense(np.zeros((3, 4)))
        assert a.nnz == 0 and a.sparsity == 1.0
        assert np.array_equal(a.to_dense(), np.zeros((3, 4), np.float32))


class TestValidation:
    def test_bad_offsets_length(self):
        with pytest.raises(ValueError, match="rows \\+ 1"):
            CSRMatrix((2, 2), np.array([0, 1]), np.array([0], np.int32),
                      np.array([1.0], np.float32))

    def test_offsets_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRMatrix((1, 2), np.array([1, 2]), np.array([0], np.int32),
                      np.array([1.0], np.float32))

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix((2, 2), np.array([0, 2, 1]),
                      np.array([0, 1], np.int32), np.ones(2, np.float32))

    def test_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix((1, 2), np.array([0, 1]), np.array([5], np.int32),
                      np.array([1.0], np.float32))

    def test_index_dtype_must_match_precision(self):
        with pytest.raises(TypeError, match="indices"):
            CSRMatrix((1, 2), np.array([0, 1]), np.array([0], np.int16),
                      np.array([1.0], np.float32))

    def test_unsupported_value_dtype(self):
        with pytest.raises(TypeError, match="unsupported"):
            CSRMatrix((1, 2), np.array([0, 1]), np.array([0], np.int32),
                      np.array([1.0], np.float64))

    def test_fp16_column_count_limit(self):
        """int16 indices cannot address more than 32768 columns, and the
        error names the mixed-precision constraint (Section V-D3)."""
        with pytest.raises(ValueError, match="Section V-D3"):
            CSRMatrix(
                (1, 40000),
                np.array([0, 1]),
                np.array([0], np.int16),
                np.array([1.0], np.float16),
            )


class TestPrecision:
    def test_fp32_uses_int32_indices(self, small_sparse):
        assert small_sparse.column_indices.dtype == np.int32
        assert small_sparse.index_bytes == 4 and small_sparse.value_bytes == 4

    def test_mixed_uses_int16_indices(self, small_sparse):
        half = small_sparse.astype(np.float16)
        assert half.values.dtype == np.float16
        assert half.column_indices.dtype == np.int16
        assert half.index_bytes == 2 and half.value_bytes == 2

    def test_astype_roundtrip_values(self, small_sparse):
        half = small_sparse.astype(np.float16)
        back = half.astype(np.float32)
        assert np.allclose(back.values, small_sparse.values, atol=1e-2)


class TestProperties:
    def test_row_lengths_sum_to_nnz(self, small_sparse):
        assert small_sparse.row_lengths.sum() == small_sparse.nnz

    def test_sparsity(self):
        a = CSRMatrix.from_dense(np.eye(4))
        assert a.sparsity == pytest.approx(0.75)

    def test_memory_bytes(self, small_sparse):
        expected = (
            small_sparse.nnz * (4 + 4) + (small_sparse.n_rows + 1) * 8
        )
        assert small_sparse.memory_bytes() == expected

    def test_with_values(self, small_sparse):
        new = small_sparse.with_values(np.zeros(small_sparse.nnz, np.float32))
        assert new.nnz == small_sparse.nnz
        assert np.all(new.values == 0)

    def test_with_values_wrong_length_rejected(self, small_sparse):
        with pytest.raises(ValueError):
            small_sparse.with_values(np.zeros(small_sparse.nnz + 1, np.float32))

    def test_to_scipy_roundtrip(self, small_sparse):
        assert np.allclose(
            small_sparse.to_scipy().toarray(), small_sparse.to_dense(), atol=1e-6
        )

    def test_duplicate_entries_sum_in_to_dense(self):
        a = CSRMatrix(
            (1, 3),
            np.array([0, 2]),
            np.array([1, 1], np.int32),
            np.array([2.0, 3.0], np.float32),
        )
        assert a.to_dense()[0, 1] == pytest.approx(5.0)

    def test_duplicate_entries_sum_in_csc_to_dense(self):
        a = CSRMatrix(
            (1, 3),
            np.array([0, 2]),
            np.array([1, 1], np.int32),
            np.array([1.0, 2.0], np.float32),
        )
        c = csr_to_csc(a)
        assert c.to_dense()[0, 1] == pytest.approx(3.0)
        assert np.array_equal(c.to_dense(), a.to_dense())
        assert np.array_equal(csc_to_csr(c).to_dense(), a.to_dense())
