"""Property-based tests (hypothesis) on the core data structures and the
invariants DESIGN.md Section 6 calls out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import ExecutionContext, ops
from repro.core import SpmmConfig, align_rows, row_swizzle
from repro.gpu import V100, aligned_extent, simulate_schedule
from repro.sparse import (
    CSRMatrix,
    CachedTranspose,
    pad_rows,
    sddmm_reference,
    sparse_softmax_reference,
    spmm_reference,
)

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


@st.composite
def sparse_matrices(draw, max_rows=24, max_cols=24):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    density = draw(st.floats(0.05, 0.9))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = (rng.random((rows, cols)) < density) * rng.standard_normal((rows, cols))
    return CSRMatrix.from_dense(dense.astype(np.float32))


class TestCsrProperties:
    @given(sparse_matrices())
    def test_dense_roundtrip(self, a):
        assert np.array_equal(CSRMatrix.from_dense(a.to_dense()).to_dense(), a.to_dense())

    @given(sparse_matrices())
    def test_scipy_roundtrip(self, a):
        b = CSRMatrix.from_scipy(a.to_scipy())
        assert np.allclose(b.to_dense(), a.to_dense(), atol=1e-6)

    @given(sparse_matrices())
    def test_row_lengths_consistent(self, a):
        assert a.row_lengths.sum() == a.nnz
        assert np.all(a.row_lengths >= 0)

    @given(sparse_matrices())
    def test_transpose_involution(self, a):
        t = CachedTranspose(a).transpose(a)
        twice = CachedTranspose(t).transpose(t)
        assert np.array_equal(twice.to_dense(), a.to_dense())

    @given(sparse_matrices())
    def test_transpose_matches_scipy(self, a):
        assert np.allclose(
            CachedTranspose(a).transpose(a).to_dense(),
            a.to_scipy().T.toarray(),
            atol=1e-6,
        )

    @given(sparse_matrices(), st.sampled_from([2, 3, 4, 8]))
    def test_padding_preserves_values(self, a, multiple):
        padded = pad_rows(a, multiple)
        assert np.allclose(padded.to_dense(), a.to_dense(), atol=1e-6)
        nonempty = a.row_lengths > 0
        assert np.all(padded.row_lengths[nonempty] % multiple == 0)


class TestKernelProperties:
    @given(sparse_matrices(), st.integers(1, 5), st.integers(0, 2**31 - 1))
    def test_spmm_matches_reference_for_any_matrix(self, a, n_mul, seed):
        n = 4 * n_mul
        rng = np.random.default_rng(seed)
        b = rng.standard_normal((a.n_cols, n)).astype(np.float32)
        config = SpmmConfig(block_items_x=4, vector_width=4, block_items_k=4)
        out = ops.spmm(a, b, config=config, context=ExecutionContext(V100)).output
        assert np.allclose(out, spmm_reference(a, b), atol=1e-3)

    @given(sparse_matrices(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    def test_sddmm_matches_reference_for_any_mask(self, mask, k_mul, seed):
        if mask.nnz == 0:
            return
        k = 4 * k_mul
        rng = np.random.default_rng(seed)
        lhs = rng.standard_normal((mask.n_rows, k)).astype(np.float32)
        rhs = rng.standard_normal((mask.n_cols, k)).astype(np.float32)
        out = ops.sddmm(lhs, rhs, mask, context=ExecutionContext(V100)).output
        assert np.allclose(
            out.values, sddmm_reference(lhs, rhs, mask).values, atol=1e-3
        )

    @given(sparse_matrices())
    def test_softmax_rows_sum_to_one(self, a):
        if a.nnz == 0:
            return
        out = sparse_softmax_reference(a)
        sums = np.asarray(out.to_scipy().sum(axis=1)).ravel()
        nonempty = a.row_lengths > 0
        assert np.allclose(sums[nonempty], 1.0, atol=1e-4)
        assert np.all(out.values >= 0)

    @given(sparse_matrices(), st.sampled_from([2, 4]))
    def test_roma_never_changes_row_content(self, a, vw):
        aligned = align_rows(a, vw)
        assert np.all(aligned.offsets % vw == 0)
        assert np.all(aligned.prefix >= 0) and np.all(aligned.prefix < vw)
        # Masked reconstruction equals original rows.
        for i in range(a.n_rows):
            off, pre = aligned.offsets[i], aligned.prefix[i]
            row = a.values[off + pre : off + aligned.lengths[i]]
            lo, hi = a.row_offsets[i], a.row_offsets[i + 1]
            assert np.array_equal(row, a.values[lo:hi])


class TestSwizzleScheduleProperties:
    @given(
        hnp.arrays(
            np.int64, st.integers(1, 200), elements=st.integers(0, 1000)
        )
    )
    def test_swizzle_is_permutation_sorted_desc(self, lengths):
        order = row_swizzle(lengths)
        assert sorted(order) == list(range(len(lengths)))
        assert np.all(np.diff(lengths[order]) <= 0)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.floats(0.0, 10.0, allow_nan=False),
        )
    )
    def test_schedule_conserves_work_and_bounds(self, durations):
        res = simulate_schedule(durations, V100, 1)
        assert res.slot_busy.sum() == pytest.approx(durations.sum(), rel=1e-9, abs=1e-9)
        assert res.makespan >= (durations.max() if len(durations) else 0.0) - 1e-12
        assert res.makespan >= durations.sum() / V100.num_sms - 1e-9
        assert res.imbalance >= 1.0 - 1e-9

    @given(
        hnp.arrays(np.int64, st.integers(1, 64), elements=st.integers(0, 64)),
        st.integers(1, 8),
        st.integers(0, 2**31 - 1),
    )
    def test_aligned_extent_invariants(self, lengths, vw_pick, seed):
        vw = [1, 2, 4][vw_pick % 3]
        rng = np.random.default_rng(seed)
        offsets = np.cumsum(np.concatenate([[0], lengths[:-1]]))
        new_off, new_len = aligned_extent(offsets, lengths, vw)
        assert np.all(new_off % vw == 0)
        assert np.all(new_off <= offsets)
        assert np.all(new_off + new_len == offsets + lengths)
