"""Tests for the reference sparse operations (ground truth layer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    CSRMatrix,
    sddmm_flops,
    sddmm_reference,
    sparse_softmax_reference,
    spmm_flops,
    spmm_reference,
)
from repro.sparse.ops import sparse_softmax_batched_reference


def scatter_softmax(a: CSRMatrix, values: np.ndarray, scale: float = 1.0):
    """Independent softmax oracle: per-nonzero ``ufunc.at`` scatters of the
    row max and row sum, against which the segmented reductions of
    :func:`sparse_softmax_batched_reference` are checked."""
    vals = values.astype(np.float32) * np.float32(scale)
    h = vals.shape[1]
    row_ids = np.repeat(np.arange(a.n_rows), a.row_lengths)
    row_max = np.full((a.n_rows, h), -np.inf, dtype=np.float32)
    np.maximum.at(row_max, row_ids, vals)
    shifted = np.exp(vals - row_max[row_ids])
    row_sum = np.zeros((a.n_rows, h), dtype=np.float32)
    np.add.at(row_sum, row_ids, shifted)
    return (shifted / row_sum[row_ids]).astype(values.dtype)


@st.composite
def softmax_problems(draw):
    """A CSR topology whose rows are often empty or of length 1, plus an
    ``(nnz, H)`` value matrix, a dtype and a scale."""
    rows = draw(st.integers(0, 24))
    cols = draw(st.integers(1, 24))
    lengths = draw(
        st.lists(
            st.sampled_from([0, 1]) | st.integers(0, cols),
            min_size=rows,
            max_size=rows,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    mask = np.zeros((rows, cols), dtype=bool)
    for i, length in enumerate(lengths):
        mask[i, rng.permutation(cols)[:length]] = True
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    a = CSRMatrix.from_mask(mask, dtype=dtype)
    h = draw(st.sampled_from([1, 4, 8]))
    values = (4 * rng.standard_normal((a.nnz, h))).astype(dtype)
    scale = draw(st.sampled_from([1.0, 0.125, 3.0]))
    return a, values, scale


class TestSpmmReference:
    def test_matches_dense(self, small_sparse, rng):
        b = rng.standard_normal((small_sparse.n_cols, 16)).astype(np.float32)
        out = spmm_reference(small_sparse, b)
        assert np.allclose(out, small_sparse.to_dense() @ b, atol=1e-4)
        assert out.dtype == np.float32

    def test_mixed_precision_contract(self, small_sparse, rng):
        """fp16 in, fp32 accumulate, fp16 out (Section V-D3)."""
        half = small_sparse.astype(np.float16)
        b = rng.standard_normal((half.n_cols, 8)).astype(np.float16)
        out = spmm_reference(half, b)
        assert out.dtype == np.float16
        full = half.to_dense().astype(np.float32) @ b.astype(np.float32)
        assert np.allclose(out.astype(np.float32), full, atol=0.05, rtol=0.02)

    def test_shape_mismatch_rejected(self, small_sparse):
        with pytest.raises(ValueError):
            spmm_reference(small_sparse, np.ones((small_sparse.n_cols + 1, 4)))

    def test_identity(self):
        a = CSRMatrix.from_dense(np.eye(8, dtype=np.float32))
        b = np.arange(8 * 3, dtype=np.float32).reshape(8, 3)
        assert np.allclose(spmm_reference(a, b), b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_bit_identical_to_fp64_scipy_operand(self, small_sparse, rng, dtype):
        """Building the scipy operand from the native fp32 values and index
        arrays gives the same product as the fp64 ``to_scipy`` operand cast
        back to fp32: the fp32 -> fp64 -> fp32 round trip is exact."""
        a = small_sparse.astype(dtype)
        b = rng.standard_normal((a.n_cols, 16)).astype(dtype)
        oracle = a.to_scipy().astype(np.float32) @ b.astype(np.float32)
        out = spmm_reference(a, b)
        assert out.dtype == dtype
        assert np.array_equal(out, np.asarray(oracle, dtype=dtype))


class TestSddmmReference:
    def test_matches_masked_dense_product(self, small_sparse, rng):
        lhs = rng.standard_normal((small_sparse.n_rows, 12)).astype(np.float32)
        rhs = rng.standard_normal((small_sparse.n_cols, 12)).astype(np.float32)
        out = sddmm_reference(lhs, rhs, small_sparse)
        dense = lhs @ rhs.T
        mask = small_sparse.to_dense() != 0
        assert np.allclose(out.to_dense()[mask], dense[mask], atol=1e-4)
        assert np.all(out.to_dense()[~mask] == 0)

    def test_topology_preserved(self, small_sparse, rng):
        lhs = rng.standard_normal((small_sparse.n_rows, 4)).astype(np.float32)
        rhs = rng.standard_normal((small_sparse.n_cols, 4)).astype(np.float32)
        out = sddmm_reference(lhs, rhs, small_sparse)
        assert np.array_equal(out.row_offsets, small_sparse.row_offsets)
        assert np.array_equal(out.column_indices, small_sparse.column_indices)

    def test_scaled_variant(self, small_sparse, rng):
        """The textbook SDDMM multiplies by the mask's values element-wise."""
        lhs = rng.standard_normal((small_sparse.n_rows, 4)).astype(np.float32)
        rhs = rng.standard_normal((small_sparse.n_cols, 4)).astype(np.float32)
        plain = sddmm_reference(lhs, rhs, small_sparse)
        scaled = sddmm_reference(lhs, rhs, small_sparse, scale_by_values=True)
        assert np.allclose(
            scaled.values, plain.values * small_sparse.values, atol=1e-4
        )

    def test_inner_dim_mismatch_rejected(self, small_sparse):
        with pytest.raises(ValueError, match="inner"):
            sddmm_reference(
                np.ones((small_sparse.n_rows, 4), np.float32),
                np.ones((small_sparse.n_cols, 5), np.float32),
                small_sparse,
            )

    def test_operand_shape_mismatch_rejected(self, small_sparse):
        with pytest.raises(ValueError, match="incompatible"):
            sddmm_reference(
                np.ones((small_sparse.n_rows + 1, 4), np.float32),
                np.ones((small_sparse.n_cols, 4), np.float32),
                small_sparse,
            )


class TestSparseSoftmax:
    def test_rows_sum_to_one(self, small_sparse):
        out = sparse_softmax_reference(small_sparse)
        sums = np.asarray(out.to_scipy().sum(axis=1)).ravel()
        nonempty = small_sparse.row_lengths > 0
        assert np.allclose(sums[nonempty], 1.0, atol=1e-5)

    def test_matches_dense_softmax_on_support(self, small_sparse):
        out = sparse_softmax_reference(small_sparse)
        dense = small_sparse.to_dense().astype(np.float64)
        mask = dense != 0
        for i in range(small_sparse.n_rows):
            row_mask = mask[i]
            if not row_mask.any():
                continue
            vals = dense[i][row_mask]
            expected = np.exp(vals - vals.max())
            expected /= expected.sum()
            assert np.allclose(out.to_dense()[i][row_mask], expected, atol=1e-5)

    def test_scale_factor(self, small_sparse):
        """softmax(x/2) must differ from softmax(x) but both normalize."""
        a = sparse_softmax_reference(small_sparse, scale=1.0)
        b = sparse_softmax_reference(small_sparse, scale=0.5)
        assert not np.allclose(a.values, b.values)

    def test_numerical_stability_with_large_values(self):
        a = CSRMatrix.from_dense(np.array([[1000.0, 1001.0]], dtype=np.float32))
        out = sparse_softmax_reference(a)
        assert np.all(np.isfinite(out.values))
        assert out.values.sum() == pytest.approx(1.0, abs=1e-5)

    def test_empty_rows_stay_empty(self, small_sparse):
        out = sparse_softmax_reference(small_sparse)
        assert out.row_lengths[7] == 0

    @settings(deadline=None, max_examples=60)
    @given(softmax_problems())
    def test_segmented_matches_scatter_oracle(self, problem):
        a, values, scale = problem
        out = sparse_softmax_batched_reference(a, values, scale)
        assert out.dtype == values.dtype
        tol = 1e-6 if values.dtype == np.float32 else 1e-3
        np.testing.assert_allclose(
            out, scatter_softmax(a, values, scale), rtol=tol, atol=tol
        )

    @pytest.mark.parametrize("h", [1, 4, 8])
    @pytest.mark.parametrize("rows", [0, 5])
    def test_all_empty_matrix(self, rows, h):
        a = CSRMatrix.from_mask(np.zeros((rows, 6), dtype=bool))
        values = np.zeros((0, h), dtype=np.float32)
        out = sparse_softmax_batched_reference(a, values, scale=2.0)
        assert out.shape == (0, h)
        assert sparse_softmax_reference(a).nnz == 0


class TestFlopCounts:
    def test_spmm_flops(self, small_sparse):
        assert spmm_flops(small_sparse, 10) == 2.0 * small_sparse.nnz * 10

    def test_sddmm_flops(self, small_sparse):
        assert sddmm_flops(small_sparse, 7) == 2.0 * small_sparse.nnz * 7
