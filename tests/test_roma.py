"""Tests for reverse-offset memory alignment (Section V-B2)."""

import numpy as np
import pytest

from repro.core import (
    ROMA_MASK_INSTRUCTIONS,
    ROMA_PRELUDE_INSTRUCTIONS,
    align_rows,
    unaligned_rows,
)
from repro.sparse import CSRMatrix


class TestAlignRows:
    def test_offsets_become_aligned(self, small_sparse):
        aligned = align_rows(small_sparse, 4)
        assert np.all(aligned.offsets % 4 == 0)

    def test_first_row_needs_no_backup(self, small_sparse):
        """CUDA allocations are 256B-aligned, so row 0 starts aligned."""
        aligned = align_rows(small_sparse, 4)
        assert aligned.prefix[0] == 0
        assert aligned.offsets[0] == 0

    def test_lengths_grow_by_prefix(self, small_sparse):
        aligned = align_rows(small_sparse, 4)
        assert np.array_equal(
            aligned.lengths, small_sparse.row_lengths + aligned.prefix
        )

    def test_prefix_bounded_by_width(self, small_sparse):
        aligned = align_rows(small_sparse, 4)
        assert np.all(aligned.prefix < 4)
        assert np.all(aligned.prefix >= 0)

    def test_width_two(self, small_sparse):
        aligned = align_rows(small_sparse, 2)
        assert np.all(aligned.offsets % 2 == 0)
        assert np.all(aligned.prefix < 2)

    def test_unaligned_variant_is_identity(self, small_sparse):
        plain = unaligned_rows(small_sparse)
        assert np.array_equal(plain.offsets, small_sparse.row_offsets[:-1])
        assert np.array_equal(plain.lengths, small_sparse.row_lengths)
        assert np.all(plain.prefix == 0)


class TestMaskedGatherSemantics:
    """ROMA's correctness claim: aligned loads + prefix masking reconstruct
    the original row values exactly — the trick never changes results."""

    def test_reconstructs_rows(self, small_sparse):
        aligned = align_rows(small_sparse, 4)
        for i in range(small_sparse.n_rows):
            off, length, pre = (
                aligned.offsets[i],
                aligned.lengths[i],
                aligned.prefix[i],
            )
            row = small_sparse.values[off : off + length].copy()
            row[:pre] = 0  # the mask step
            lo = small_sparse.row_offsets[i]
            hi = small_sparse.row_offsets[i + 1]
            expected = small_sparse.values[lo:hi]
            # After dropping the masked prefix, values match the true row.
            assert np.array_equal(row[aligned.prefix[i] :], expected)
            assert np.all(row[: aligned.prefix[i]] == 0)

    def test_spmm_with_masked_prefix_is_exact(self, small_sparse, rng):
        """Compute SpMM through the aligned extents and match the reference."""
        aligned = align_rows(small_sparse, 4)
        b = rng.standard_normal((small_sparse.n_cols, 8)).astype(np.float32)
        out = np.zeros((small_sparse.n_rows, 8), dtype=np.float32)
        padded_idx = small_sparse.column_indices.astype(np.int64)
        for i in range(small_sparse.n_rows):
            off, length, pre = (
                aligned.offsets[i],
                aligned.lengths[i],
                aligned.prefix[i],
            )
            vals = small_sparse.values[off : off + length].copy()
            vals[:pre] = 0.0  # the mask step
            idx = padded_idx[off : off + length]
            out[i] = vals @ b[idx]
        ref = small_sparse.to_dense() @ b
        assert np.allclose(out, ref, atol=1e-4)


class TestInstructionConstants:
    def test_paper_reported_costs(self):
        """Section V-B2: 6 prelude PTX instructions + 3 masking."""
        assert ROMA_PRELUDE_INSTRUCTIONS == 6
        assert ROMA_MASK_INSTRUCTIONS == 3


class TestEdgeCases:
    def test_all_rows_aligned_matrix(self):
        dense = np.ones((4, 8), dtype=np.float32)
        a = CSRMatrix.from_dense(dense)  # all rows length 8
        aligned = align_rows(a, 4)
        assert np.all(aligned.prefix == 0)

    def test_empty_rows(self, small_sparse):
        aligned = align_rows(small_sparse, 4)
        i = 7  # fixture's empty row
        assert aligned.lengths[i] == aligned.prefix[i]
