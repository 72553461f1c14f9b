"""The memoized structure identity of sparse matrices.

Each CSR/CSC matrix hashes its structure once; :func:`matrix_fingerprint`
reads the memo. These tests pin the contract: the memo always equals a
fresh hash of the arrays, same-structure constructors inherit it without
re-hashing, in-place edits need :meth:`invalidate` (and are caught as
corruption without it), and the key values persisted plan stores rely on
never change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ops
from repro.gpu import V100
from repro.nn import DropGrowSchedule, SparseLinear, drop_grow_step
from repro.ops import ExecutionContext, matrix_fingerprint
from repro.reliability.errors import InvalidTopologyError
from repro.sparse import CSRMatrix, CachedTranspose
from repro.sparse.csc import CSCMatrix, csr_to_csc

from .conftest import random_sparse

GOLDEN_DENSE = np.array(
    [[1, 0, 2, 0], [0, 0, 3, 0], [4, 5, 0, 6]], dtype=np.float32
)


def assert_memo_fresh(m):
    assert m.fingerprint == m.structure_checksum()


class TestGoldenFingerprints:
    """Persisted PlanStores are keyed on these exact strings."""

    def test_csr(self):
        a = CSRMatrix.from_dense(GOLDEN_DENSE)
        assert matrix_fingerprint(a) == "ba0074a99fd7eb11d9eb43fa4ed977f4"
        assert (
            matrix_fingerprint(a.astype(np.float16))
            == "35e91dea6bfe2828b7084f2a4555c218"
        )

    def test_csc(self):
        a = csr_to_csc(CSRMatrix.from_dense(GOLDEN_DENSE))
        assert matrix_fingerprint(a) == "bb452d1f5566675186441c2564d7329b"


class TestNumpyIntegerShapes:
    def test_csr_shape_normalized(self):
        a = CSRMatrix.from_dense(GOLDEN_DENSE)
        b = CSRMatrix(
            (np.int64(3), np.int64(4)),
            a.row_offsets, a.column_indices, a.values,
        )
        assert b.shape == (3, 4)
        assert all(type(d) is int for d in b.shape)
        assert matrix_fingerprint(b) == matrix_fingerprint(a)
        assert b.structure_checksum() == a.structure_checksum()

    def test_csc_shape_normalized(self):
        a = csr_to_csc(CSRMatrix.from_dense(GOLDEN_DENSE))
        b = CSCMatrix(
            (np.int32(3), np.int32(4)), a.col_offsets, a.row_indices, a.values
        )
        assert all(type(d) is int for d in b.shape)
        assert matrix_fingerprint(b) == matrix_fingerprint(a)

    def test_non_integer_shape_rejected(self):
        with pytest.raises(TypeError):
            CSRMatrix((3.0, 4), np.zeros(4, np.int64), np.zeros(0, np.int32),
                      np.zeros(0, np.float32))


@st.composite
def sparse_matrices(draw):
    rows = draw(st.integers(1, 20))
    cols = draw(st.integers(1, 20))
    density = draw(st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = (rng.random((rows, cols)) < density) * rng.standard_normal(
        (rows, cols)
    )
    dtype = draw(st.sampled_from([np.float32, np.float16]))
    return dense.astype(np.float32), dtype


class TestMemoMatchesFreshHash:
    @settings(deadline=None, max_examples=30)
    @given(sparse_matrices())
    def test_every_constructor(self, case):
        dense, dtype = case
        a = CSRMatrix.from_dense(dense, dtype=dtype)
        other = np.float16 if dtype is np.float32 else np.float32
        rows, cols = a.shape
        built = [
            a,
            CSRMatrix.from_scipy(a.to_scipy(), dtype=dtype),
            CSRMatrix.from_mask(dense != 0, dense, dtype=dtype),
            a.with_values(a.values * 2),
            a.astype(dtype),
            a.astype(other),
            a.take_rows(np.arange(rows)[::-1]),
            a.take_cols(cols // 3, cols),
            CachedTranspose(a).apply(a.values),
            csr_to_csc(a),
        ]
        for m in built:
            assert_memo_fresh(m)
        assert a.with_values(a.values).fingerprint == a.fingerprint
        assert a.astype(dtype).fingerprint == a.fingerprint

    def test_drop_grow_child(self, rng):
        layer = SparseLinear(random_sparse(rng, 32, 32, 0.3))
        schedule = DropGrowSchedule(
            frequency=1, initial_fraction=0.5, row_fraction=0.5, seed=3
        )
        parent = layer.weight
        delta = drop_grow_step(
            layer, rng.standard_normal((32, 32)), schedule, 1,
            context=ExecutionContext(V100),
        )
        assert delta is not None and delta.rows.size
        child = layer.weight
        assert_memo_fresh(child)
        assert child.fingerprint != parent.fingerprint
        assert delta.child == child.fingerprint


class TestInPlaceEdits:
    def test_invalidate_rederives_identity(self, rng):
        a = random_sparse(rng, 16, 16, 0.4)
        before = a.fingerprint
        a.column_indices[0] = (a.column_indices[0] + 1) % 16
        assert a.fingerprint == before  # memoized: the edit is not seen
        a.invalidate()
        assert a.fingerprint != before
        assert_memo_fresh(a)
        a.validate_deep()

    def test_edit_without_invalidate_caught_by_validate_deep(self, rng):
        a = random_sparse(rng, 16, 16, 0.4)
        a.column_indices[0] = (a.column_indices[0] + 1) % 16
        with pytest.raises(InvalidTopologyError, match="checksum"):
            a.validate_deep()

    def test_edit_without_invalidate_caught_by_validated_dispatch(self, rng):
        ctx = ExecutionContext(V100)
        a = random_sparse(rng, 16, 16, 0.4)
        b = rng.standard_normal((16, 8)).astype(np.float32)
        ops.spmm(a, b, context=ctx)
        a.column_indices[0] = (a.column_indices[0] + 1) % 16
        with pytest.raises(InvalidTopologyError):
            ops.spmm(a, b, context=ctx, validate=True)

    def test_csc_invalidate(self, rng):
        c = csr_to_csc(random_sparse(rng, 16, 16, 0.4))
        before = c.fingerprint
        c.row_indices[0] = (c.row_indices[0] + 1) % 16
        c.invalidate()
        assert c.fingerprint != before
        assert_memo_fresh(c)


class TestSteadyStateHashes:
    def test_sparse_linear_steps_hash_nothing(self, rng, monkeypatch):
        """Forward, backward and value updates on a fixed topology reuse
        the memoized identity: after warm-up, no structure hash runs."""
        calls = []
        checksum = CSRMatrix.structure_checksum

        def counting(self):
            calls.append(self.shape)
            return checksum(self)

        monkeypatch.setattr(CSRMatrix, "structure_checksum", counting)
        layer = SparseLinear(random_sparse(rng, 48, 32, 0.3))
        x = rng.standard_normal((32, 8)).astype(np.float32)

        def step():
            y = layer.forward(x, V100)
            grad_w, _ = layer.backward(x, np.ones_like(y), V100)
            layer.update_values(layer.weight.values - 0.01 * grad_w.values)

        step()  # warm-up: plans and the cached transpose
        calls.clear()
        for _ in range(4):
            step()
        assert calls == []
