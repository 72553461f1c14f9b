"""Tests for CSC, transpose, padding, and block-sparse formats."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparse import (
    BlockSparseMatrix,
    CachedTranspose,
    CSRMatrix,
    csc_to_csr,
    csr_to_csc,
    pad_rows,
    padding_overhead,
)


class TestCSC:
    def test_roundtrip(self, small_sparse):
        csc = csr_to_csc(small_sparse)
        back = csc_to_csr(csc)
        assert np.allclose(back.to_dense(), small_sparse.to_dense(), atol=1e-6)

    def test_csc_dense_matches(self, small_sparse):
        csc = csr_to_csc(small_sparse)
        assert np.allclose(csc.to_dense(), small_sparse.to_dense(), atol=1e-6)

    def test_col_lengths(self, small_sparse):
        csc = csr_to_csc(small_sparse)
        dense = small_sparse.to_dense()
        assert np.array_equal(csc.col_lengths, (dense != 0).sum(axis=0))

    def test_scipy_agrees(self, small_sparse):
        csc = csr_to_csc(small_sparse)
        assert np.allclose(
            csc.to_scipy().toarray(), small_sparse.to_dense(), atol=1e-6
        )


class TestTranspose:
    def test_matches_dense_transpose(self, small_sparse):
        t = CachedTranspose(small_sparse).transpose(small_sparse)
        assert np.array_equal(t.to_dense(), small_sparse.to_dense().T)

    def test_involution(self, small_sparse):
        once = CachedTranspose(small_sparse).transpose(small_sparse)
        twice = CachedTranspose(once).transpose(once)
        assert np.array_equal(twice.to_dense(), small_sparse.to_dense())
        assert np.array_equal(twice.row_offsets, small_sparse.row_offsets)

    def test_sorted_indices(self, small_sparse):
        t = CachedTranspose(small_sparse).transpose(small_sparse)
        for i in range(t.n_rows):
            row = t.column_indices[t.row_offsets[i] : t.row_offsets[i + 1]]
            assert np.all(np.diff(row) > 0)

    def test_cached_plan_reuses_topology(self, small_sparse, rng):
        """Section IX: after a value update the transpose is one gather."""
        plan = CachedTranspose(small_sparse)
        new_vals = rng.standard_normal(small_sparse.nnz).astype(np.float32)
        updated = small_sparse.with_values(new_vals)
        t = plan.transpose(updated)
        assert np.array_equal(t.to_dense(), updated.to_dense().T)

    def test_apply_checks_length(self, small_sparse):
        plan = CachedTranspose(small_sparse)
        with pytest.raises(ValueError):
            plan.apply(np.zeros(small_sparse.nnz + 1, np.float32))

    def test_mismatched_topology_rejected(self, small_sparse, rng):
        plan = CachedTranspose(small_sparse)
        other = CSRMatrix.from_dense(np.eye(small_sparse.n_rows, dtype=np.float32))
        with pytest.raises(ValueError):
            plan.transpose(other)

    def test_empty_rows_and_columns(self):
        dense = np.zeros((4, 5), np.float32)
        dense[1, 2] = 3.0
        a = CSRMatrix.from_dense(dense)
        t = CachedTranspose(a).transpose(a)
        assert np.array_equal(t.to_dense(), dense.T)


def coordinate_matrix(rows, cols, row_ids, col_ids, dtype=np.float32):
    """CSR matrix with ones at the given (row, col) pairs (deduplicated)."""
    coo = sp.coo_matrix(
        (np.ones(len(row_ids)), (row_ids, col_ids)), shape=(rows, cols)
    )
    return CSRMatrix.from_scipy(coo, dtype=dtype)


def argsort_transpose(a):
    """The plan a 64-bit-key stable argsort gives: permutation, transposed
    row offsets and transposed column indices."""
    src_cols = a.column_indices.astype(np.int64)
    perm = np.argsort(src_cols, kind="stable")
    offsets = np.zeros(a.n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(src_cols, minlength=a.n_cols), out=offsets[1:])
    src_rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_lengths)
    return perm, offsets, src_rows[perm]


class TestCachedTransposeKeys:
    """The narrow sort keys must reproduce the 64-bit stable argsort."""

    @staticmethod
    def assert_matches_argsort(a):
        plan = CachedTranspose(a)
        perm, offsets, indices = argsort_transpose(a)
        assert np.array_equal(plan.permutation, perm)
        assert np.array_equal(plan.row_offsets, offsets)
        assert np.array_equal(plan.column_indices, indices)
        assert plan.column_indices.dtype == a.column_indices.dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_uniform(self, rng, dtype):
        rows, cols = 300, 257
        dense = rng.random((rows, cols)) < 0.1
        self.assert_matches_argsort(CSRMatrix.from_mask(dense, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_power_law(self, rng, dtype):
        """Zipf-distributed columns: a few very long transposed rows."""
        rows, cols, nnz = 400, 3000, 20000
        row_ids = rng.integers(0, rows, nnz)
        col_ids = np.minimum(rng.zipf(1.5, nnz) - 1, cols - 1)
        a = coordinate_matrix(rows, cols, row_ids, col_ids, dtype=dtype)
        self.assert_matches_argsort(a)

    @pytest.mark.parametrize("cols", [65536, 65537])
    def test_16_bit_key_boundary(self, rng, cols):
        """Columns up to 65535 fit a 16-bit key; one more does not."""
        rows, nnz = 8, 4000
        row_ids = rng.integers(0, rows, nnz)
        col_ids = rng.integers(0, cols, nnz)
        row_ids[:2] = [0, 5]
        col_ids[:2] = [cols - 1, cols - 1]
        row_ids[2:4] = [3, 3]
        col_ids[2:4] = [cols - 2, 0]
        a = coordinate_matrix(rows, cols, row_ids, col_ids)
        self.assert_matches_argsort(a)
        t = CachedTranspose(a).transpose(a)
        assert np.array_equal(t.to_dense(), a.to_dense().T)

    def test_no_nonzeros(self):
        a = CSRMatrix.from_mask(np.zeros((6, 9), dtype=bool))
        self.assert_matches_argsort(a)
        assert CachedTranspose(a).transpose(a).shape == (9, 6)


class TestPadding:
    def test_values_preserved(self, small_sparse):
        padded = pad_rows(small_sparse, 4)
        assert np.allclose(padded.to_dense(), small_sparse.to_dense(), atol=1e-6)

    def test_rows_aligned(self, small_sparse):
        padded = pad_rows(small_sparse, 4)
        lengths = padded.row_lengths
        assert np.all(lengths % 4 == 0)

    def test_empty_rows_stay_empty(self, small_sparse):
        padded = pad_rows(small_sparse, 4)
        assert padded.row_lengths[7] == 0  # fixture's empty row

    def test_overhead_measure(self, small_sparse):
        over = padding_overhead(small_sparse, 4)
        padded = pad_rows(small_sparse, 4)
        assert over == pytest.approx(
            (padded.nnz - small_sparse.nnz) / small_sparse.nnz
        )

    def test_multiple_one_is_identity(self, small_sparse):
        padded = pad_rows(small_sparse, 1)
        assert padded.nnz == small_sparse.nnz

    def test_bad_multiple_rejected(self, small_sparse):
        with pytest.raises(ValueError):
            pad_rows(small_sparse, 0)


class TestBlockSparse:
    def test_roundtrip(self, rng):
        dense = np.zeros((16, 16), np.float32)
        dense[0:4, 4:8] = rng.standard_normal((4, 4))
        dense[8:12, 0:4] = rng.standard_normal((4, 4))
        b = BlockSparseMatrix.from_dense(dense, 4)
        assert b.n_blocks == 2
        assert np.allclose(b.to_dense(), dense)

    def test_matmul_matches_dense(self, rng):
        dense = ((rng.random((16, 24)) < 0.3) * rng.standard_normal((16, 24))).astype(
            np.float32
        )
        b = BlockSparseMatrix.from_dense(dense, 8)
        x = rng.standard_normal((24, 5)).astype(np.float32)
        assert np.allclose(b.matmul(x), dense @ x, atol=1e-4)

    def test_density_overhead_quantifies_structure_waste(self, rng):
        """A scattered matrix stores many zeros inside occupied blocks —
        the structured-sparsity trade-off the paper's intro describes."""
        dense = np.zeros((32, 32), np.float32)
        idx = rng.choice(32 * 32, size=32, replace=False)
        dense.flat[idx] = 1.0
        b = BlockSparseMatrix.from_dense(dense, 8)
        assert b.nnz_stored / np.count_nonzero(b.blocks) > 1.5

    def test_to_csr(self, rng):
        dense = np.zeros((8, 8), np.float32)
        dense[0:4, 0:4] = 1.0
        b = BlockSparseMatrix.from_dense(dense, 4)
        assert np.allclose(b.to_csr().to_dense(), dense)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError):
            BlockSparseMatrix.from_dense(np.ones((10, 8), np.float32), 4)
