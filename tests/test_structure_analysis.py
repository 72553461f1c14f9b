"""The memoized structure analysis of sparse matrices.

Every CSR matrix carries one lazily computed
:class:`~repro.sparse.csr.StructureAnalysis` next to its structure
identity: the touched-column count and the row swizzle order, read by
every plan builder and baseline cost model, and the block-diagonal
structure a stacked SpMM with per-head values multiplies. These tests pin
that each field equals the computation it replaces, that value-only
constructors share the memo, that :meth:`invalidate` drops it, and that
one topology is analysed once however many kernels and contexts cost it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.core.swizzle import row_swizzle
from repro.gpu import V100
from repro.nn.dynamic import drop_grow_update
from repro.ops import ExecutionContext
from repro.sparse import CSRMatrix, CachedTranspose
from repro.sparse import csr as csr_module

from .conftest import random_sparse


def assert_analysis_fresh(m: CSRMatrix) -> None:
    assert m.analysis.touched_columns == len(np.unique(m.column_indices))
    order = m.analysis.swizzle_order
    assert order.dtype == np.int64
    np.testing.assert_array_equal(order, row_swizzle(m.row_lengths))


@st.composite
def dense_cases(draw):
    rows = draw(st.integers(1, 24))
    cols = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = (rng.random((rows, cols)) < density) * rng.standard_normal(
        (rows, cols)
    )
    # Whole empty rows, even in dense draws.
    empty = rng.random(rows) < draw(st.sampled_from([0.0, 0.3]))
    dense[empty] = 0.0
    return dense.astype(np.float32), rng


class TestAnalysisMatchesFreshComputation:
    @settings(deadline=None, max_examples=60)
    @given(dense_cases())
    def test_every_constructor(self, case):
        dense, rng = case
        a = CSRMatrix.from_dense(dense)
        rows, cols = a.shape
        child, _ = drop_grow_update(
            a,
            rng.standard_normal((rows, cols)),
            np.flatnonzero(rng.random(rows) < 0.5),
            0.5,
        )
        built = [
            a,
            CSRMatrix.from_mask(dense != 0, dense),
            a.with_values(a.values * 2),
            a.astype(np.float16),
            a.take_rows(rng.permutation(rows)[: rng.integers(0, rows + 1)]),
            child,
            CachedTranspose(a).apply(a.values),
        ]
        for m in built:
            assert_analysis_fresh(m)

    def test_zero_nnz(self):
        a = CSRMatrix.from_dense(np.zeros((5, 7), dtype=np.float32))
        assert a.analysis.touched_columns == 0
        np.testing.assert_array_equal(a.analysis.swizzle_order, np.arange(5))

    def test_count_touched_is_unique_count(self, rng):
        idx = rng.integers(0, 300, size=5000).astype(np.int16)
        assert csr_module.count_touched(idx, 300) == len(np.unique(idx))


class TestInheritance:
    def test_value_only_constructors_share_the_analysis(self, rng):
        a = random_sparse(rng, 32, 24, 0.2)
        assert a.with_values(a.values * 3).analysis is a.analysis
        assert a.astype(np.float32).analysis is a.analysis
        assert a.astype(np.float16).analysis is not a.analysis

    def test_cached_transpose_applies_share_one_analysis(self, rng):
        a = random_sparse(rng, 20, 30, 0.2)
        t = CachedTranspose(a)
        first = t.apply(a.values)
        assert t.apply(a.values * 2).analysis is first.analysis
        assert_analysis_fresh(first)

    def test_invalidate_recomputes_both_fields(self):
        # Row 0 holds columns {0, 1}, row 1 holds {2}, row 2 is empty.
        a = CSRMatrix(
            (3, 4),
            np.array([0, 2, 3, 3]),
            np.array([0, 1, 2], dtype=np.int32),
            np.ones(3, dtype=np.float32),
        )
        assert a.analysis.touched_columns == 3
        np.testing.assert_array_equal(a.analysis.swizzle_order, [0, 1, 2])
        # Move row 0's second nonzero into row 1, onto column 2.
        a.row_offsets[1] = 1
        a.column_indices[1] = 2
        assert a.analysis.touched_columns == 3  # memoized: edit not seen
        a.invalidate()
        assert a.analysis.touched_columns == 2
        np.testing.assert_array_equal(a.analysis.swizzle_order, [1, 0, 2])
        assert_analysis_fresh(a)

    def test_swizzle_order_is_read_only(self, rng):
        order = random_sparse(rng, 8, 8, 0.5).analysis.swizzle_order
        with pytest.raises(ValueError):
            order[0] = 1


class TestOneAnalysisPerTopology:
    def test_column_count_and_sort_run_once(self, rng, monkeypatch):
        from repro.core import swizzle

        calls = {"count": 0, "sort": 0}
        count, sort = csr_module.count_touched, swizzle.row_swizzle

        def counting_count(*args):
            calls["count"] += 1
            return count(*args)

        def counting_sort(*args):
            calls["sort"] += 1
            return sort(*args)

        monkeypatch.setattr(csr_module, "count_touched", counting_count)
        monkeypatch.setattr(swizzle, "row_swizzle", counting_sort)
        a = random_sparse(rng, 128, 96, 0.1)
        for _ in range(2):
            ctx = ExecutionContext(V100)
            ops.spmm_cost(a, 64, context=ctx)
            ops.spmm_cost(a, 64, context=ctx, backend="cusparse")
            ops.sddmm_cost(a, 32, context=ctx)
            assert ctx.telemetry.cache_misses >= 3
        assert calls == {"count": 1, "sort": 1}


def per_call_block_diagonal(a: CSRMatrix, h: int):
    """The block-diagonal structure as the stacked SpMM once built it on
    every call."""
    offsets = np.concatenate(
        [[0]]
        + [a.row_offsets[1:].astype(np.int64) + i * a.nnz for i in range(h)]
    )
    indices = np.concatenate(
        [a.column_indices.astype(np.int64) + i * a.n_cols for i in range(h)]
    )
    return offsets, indices


class TestBlockDiagonal:
    @pytest.mark.parametrize("h", [1, 3, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_equals_the_per_call_construction(self, rng, h, dtype):
        a = random_sparse(rng, 40, 24, 0.2, dtype=dtype)
        offsets, indices = a.analysis.block_diagonal(h)
        want_offsets, want_indices = per_call_block_diagonal(a, h)
        assert offsets.dtype == indices.dtype == np.int32
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(indices, want_indices)

    def test_zero_nnz(self):
        a = CSRMatrix.from_dense(np.zeros((5, 7), dtype=np.float32))
        offsets, indices = a.analysis.block_diagonal(3)
        np.testing.assert_array_equal(offsets, np.zeros(16))
        assert indices.shape == (0,)

    def test_built_once_per_topology_and_depth(self, rng):
        a = random_sparse(rng, 32, 24, 0.2)
        first = a.analysis.block_diagonal(4)
        assert a.analysis.block_diagonal(4) is first
        child = a.with_values(a.values * 2)
        assert child.analysis.block_diagonal(4) is first
        assert a.analysis.block_diagonal(2) is not first

    def test_stacked_spmm_reads_the_memo(self, rng, monkeypatch):
        from repro.sparse import ops as sparse_ops

        a = random_sparse(rng, 32, 24, 0.2)
        b = rng.standard_normal((4, 24, 8)).astype(np.float32)
        values = rng.standard_normal((4, a.nnz)).astype(np.float32)
        calls = []
        build = csr_module.StructureAnalysis.block_diagonal

        def counting(self, h):
            calls.append(h)
            return build(self, h)

        monkeypatch.setattr(
            csr_module.StructureAnalysis, "block_diagonal", counting
        )
        for _ in range(3):
            sparse_ops.spmm_batched_reference(
                a.with_values(a.values), b, values
            )
        assert calls == [4, 4, 4]

    def test_invalidate_drops_it(self):
        a = CSRMatrix(
            (3, 4),
            np.array([0, 2, 3, 3]),
            np.array([0, 1, 2], dtype=np.int32),
            np.ones(3, dtype=np.float32),
        )
        before = a.analysis.block_diagonal(2)
        a.column_indices[1] = 3
        assert a.analysis.block_diagonal(2) is before  # memoized
        a.invalidate()
        offsets, indices = a.analysis.block_diagonal(2)
        assert offsets is not before[0]
        np.testing.assert_array_equal(indices, [0, 3, 2, 4, 7, 6])
        np.testing.assert_array_equal(offsets, [0, 2, 3, 3, 5, 6, 6])

    def test_read_only(self, rng):
        offsets, indices = random_sparse(rng, 8, 8, 0.5).analysis.block_diagonal(2)
        with pytest.raises(ValueError):
            offsets[0] = 1
        with pytest.raises(ValueError):
            indices[0] = 1

    @pytest.mark.parametrize(
        "shape, density",
        [((12, 10), 0.9), ((60, 4), 0.1), ((4, 60), 0.1)],
        ids=["nnz", "rows", "cols"],
    )
    def test_int64_past_the_int32_limit(
        self, rng, monkeypatch, shape, density
    ):
        """The arrays are int32 while ``h`` times the largest of nnz, rows
        and cols fits, and int64 one past it; the limit is lowered rather
        than the matrix grown. Each case makes a different size the
        largest, and the int64 block still multiplies correctly."""
        from repro.sparse import ops as sparse_ops

        h = 3
        a = random_sparse(rng, *shape, density)
        limit = h * max(a.nnz, *a.shape)
        monkeypatch.setattr(csr_module, "INT32_MAX", limit)
        assert a.analysis.block_diagonal(h)[0].dtype == np.int32
        monkeypatch.setattr(csr_module, "INT32_MAX", limit - 1)
        a.invalidate()
        offsets, indices = a.analysis.block_diagonal(h)
        assert offsets.dtype == indices.dtype == np.int64
        want_offsets, want_indices = per_call_block_diagonal(a, h)
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(indices, want_indices)
        b = rng.standard_normal((h, a.n_cols, 5)).astype(np.float32)
        values = rng.standard_normal((h, a.nnz)).astype(np.float32)
        stacked = sparse_ops.spmm_batched_reference(a, b, values)
        looped = np.stack([
            sparse_ops.spmm_reference(a.with_values(values[i]), b[i])
            for i in range(h)
        ])
        assert np.array_equal(stacked, looped)
