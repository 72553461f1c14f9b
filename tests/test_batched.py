"""Stacked operator execution: the shared-topology ``(H, ...)`` path.

A stack of ``H`` items sharing one ``CSRMatrix`` topology is the depth of
the single op: ``ops.spmm``/``ops.sddmm``/``ops.sparse_softmax`` read it
from the dense operand's rank (``h=`` on the cost path), resolve ONE plan
and cost ONE z-scaled :class:`KernelLaunch` (Section VII-C1). These tests
pin the contract:

- **stacked equals looped** — one property over random topologies (empty
  rows included), ``H`` in 1..4, fp32 and fp16: the stacked call equals
  the per-slab calls stacked, bit for bit; ``*_cost(..., h=1)`` and a
  depth-1 stack cost exactly what the unstacked call does; and the
  depth-``H`` runtime is at most ``H`` times the single one. The fixed
  examples below are pinned draws of the same property;
- **repair** — under a registered topology delta a depth-H plan repairs
  through the same path as a single one and costs exactly what a cold
  depth-H plan does (runtime and every launch cost vector);
- **reliability** — a fault injected into the stacked launch falls back
  ONCE for the whole stack: one DispatchReport, one fallback counter tick,
  not H of either;
- **references** — the chunked SDDMM gathers match the unchunked einsum
  bit for bit, so bounding peak memory cannot change results; the
  row-blocked dense sample agrees with the gathers across blocks that
  are partial, empty or edged by empty rows, and never holds the full
  product; the single-matrix references are exactly the H = 1 column of
  the batched ones on both SDDMM paths, and the per-head-values SpMM
  equals its per-head loop;
- **models** — attention reads the head depth and MobileNet the image
  batch from the input's rank: a 2-D attention call equals the depth-1
  stack bit for bit (output, every record's runtime, telemetry), a head
  stack equals the per-head calls, a ``(B, ...)`` MobileNet forward equals
  the per-image forwards, and a wrong rank is rejected;
- **plumbing** — the sweep's ``h`` dimension rides the same stacked
  dispatch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ops
from repro.bench import build_tasks, run_sweep
from repro.bench import sweep as sweep_mod
from repro.core import execute_spmm
from repro.datasets import MatrixSpec
from repro.datasets.attention import banded_random_mask
from repro.gpu import V100
from repro.nn import (
    MobileNetV1,
    Profile,
    dense_attention,
    drop_grow_update,
    select_rows,
    sparse_attention,
)
from repro.ops import ExecutionContext
from repro.reliability import FallbackPolicy, FaultInjector, FaultSpec
from repro.sparse import CSRMatrix
from repro.sparse import ops as sparse_ops
from tests.conftest import random_sparse

HEADS = [1, 4, 8]
#: Columns of SpMM's dense operand and SDDMM's inner dimension.
DIM = 16


@pytest.fixture
def ctx():
    return ExecutionContext(V100)


def stacked_problem(rng, h, rows=96, cols=64, n=DIM, dtype=np.float32):
    a = random_sparse(rng, rows, cols, 0.25, dtype=dtype)
    b_stack = rng.standard_normal((h, cols, n)).astype(dtype)
    return a, b_stack


def attention_problem(rng, h, seq=64, dk=32, band=8):
    mask = banded_random_mask(seq, band=band, seed=7)
    q, k, v = (
        rng.standard_normal((h, seq, dk)).astype(np.float32)
        for _ in range(3)
    )
    return mask, q, k, v


# ----------------------------------------------------------------------
# Stacked equals looped: one property at the dispatch boundary
# ----------------------------------------------------------------------
def _stack_and_loop(op: str, a: CSRMatrix, h: int, dtype, rng):
    """The stacked call's output and the per-slab calls' outputs stacked
    the same way, for one op on ``h`` random slabs over ``a``."""
    rows, cols = a.shape
    ctx = ExecutionContext(V100)
    if op == "spmm":
        b = rng.standard_normal((h, cols, DIM)).astype(dtype)
        stacked = ops.spmm(a, b, context=ctx).output
        looped = [ops.spmm(a, b[i], context=ctx).output for i in range(h)]
        return stacked, np.stack(looped)
    if op == "spmm_values":
        b = rng.standard_normal((h, cols, DIM)).astype(dtype)
        values = rng.standard_normal((h, a.nnz)).astype(dtype)
        stacked = ops.spmm(a, b, context=ctx, values=values).output
        looped = [
            ops.spmm(a.with_values(values[i]), b[i], context=ctx).output
            for i in range(h)
        ]
        return stacked, np.stack(looped)
    if op == "sddmm":  # Sputnik's SDDMM is single precision (Section VI)
        lhs = rng.standard_normal((h, rows, DIM)).astype(np.float32)
        rhs = rng.standard_normal((h, cols, DIM)).astype(np.float32)
        mask = a.astype(np.float32)
        stacked = ops.sddmm(lhs, rhs, mask, context=ctx).output
        looped = [
            ops.sddmm(lhs[i], rhs[i], mask, context=ctx).output.values
            for i in range(h)
        ]
        return stacked, np.stack(looped, axis=1)
    values = rng.standard_normal((a.nnz, h)).astype(dtype)
    stacked = ops.sparse_softmax(
        a, context=ctx, scale=0.5, values=values
    ).output
    looped = [
        ops.sparse_softmax(
            a.with_values(values[:, i]), context=ctx, scale=0.5
        ).output.values
        for i in range(h)
    ]
    return stacked, np.stack(looped, axis=1)


def _costs(op: str, a: CSRMatrix, h: int):
    """Simulated runtimes of the unstacked cost, the ``h=1`` cost and the
    depth-``h`` cost, each on a fresh context (so no cache entry is
    shared between them)."""
    kernel = "spmm" if op == "spmm_values" else op
    if kernel == "sddmm":
        a = a.astype(np.float32)
    fn = getattr(ops, f"{kernel}_cost")
    dims = () if kernel == "sparse_softmax" else (DIM,)
    return tuple(
        fn(a, *dims, context=ExecutionContext(V100), **kwargs).runtime_s
        for kwargs in ({}, {"h": 1}, {"h": h})
    )


def assert_stack_equals_loop(op: str, a: CSRMatrix, h: int, dtype, seed):
    """Batched equals looped, one of the north star's dispatch-boundary
    equivalences: numerics bit for bit, ``h=1`` cost bit for bit, and a
    depth-``h`` runtime of at most ``h`` single runtimes. Returns the
    single and the depth-``h`` runtime."""
    rng = np.random.default_rng(seed)
    stacked, looped = _stack_and_loop(op, a, h, dtype, rng)
    assert stacked.shape == looped.shape
    assert stacked.dtype == looped.dtype
    np.testing.assert_array_equal(stacked, looped)
    single, depth_one, deep = _costs(op, a, h)
    assert depth_one.hex() == single.hex()
    assert deep <= h * single
    return single, deep


STACKED_OPS = ["spmm", "spmm_values", "sddmm", "sparse_softmax"]


class TestStackEqualsLoop:
    @settings(deadline=None, max_examples=40)
    @given(
        op=st.sampled_from(STACKED_OPS),
        rows=st.integers(1, 64),
        cols=st.integers(1, 48),
        density=st.floats(0.05, 0.6),
        empty_rows=st.integers(0, 3),
        h=st.integers(1, 4),
        dtype=st.sampled_from([np.float32, np.float16]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_property(self, op, rows, cols, density, empty_rows, h, dtype,
                      seed):
        rng = np.random.default_rng(seed)
        dense = (rng.random((rows, cols)) < density) * rng.standard_normal(
            (rows, cols)
        )
        dense[rng.choice(rows, min(empty_rows, rows), replace=False)] = 0.0
        a = CSRMatrix.from_dense(dense, dtype=dtype)
        assume(a.nnz > 0)
        assert_stack_equals_loop(op, a, h, dtype, seed)


class TestBatchedMatchesLoop:
    """Pinned draws of :class:`TestStackEqualsLoop`, plus rank checks."""

    @pytest.mark.parametrize("h", HEADS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_spmm_shared_values(self, rng, h, dtype):
        a, _ = stacked_problem(rng, h, dtype=dtype)
        assert_stack_equals_loop("spmm", a, h, dtype, 1)

    @pytest.mark.parametrize("h", HEADS)
    def test_spmm_per_item_values(self, rng, h):
        """The ``(H, nnz)`` value-matrix form: each item multiplies its own
        values (per-head attention probabilities) against one structure."""
        a, _ = stacked_problem(rng, h)
        assert_stack_equals_loop("spmm_values", a, h, np.float32, 2)

    @pytest.mark.parametrize("h", HEADS)
    def test_sddmm_column_stack(self, rng, h):
        mask, _, _, _ = attention_problem(rng, h)
        assert_stack_equals_loop("sddmm", mask, h, np.float32, 3)

    @pytest.mark.parametrize("h", HEADS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_sparse_softmax_value_matrix(self, rng, h, dtype):
        a = random_sparse(rng, 64, 64, 0.3, dtype=dtype)
        assert_stack_equals_loop("sparse_softmax", a, h, dtype, 4)

    def test_spmm_rejects_flat_operand(self, rng, ctx):
        """Per-item values need a stacked B; a 4-D B is no stack either."""
        a, b_stack = stacked_problem(rng, 2)
        values = np.ones((2, a.nnz), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(H, k, n\)"):
            ops.spmm(a, b_stack[0], context=ctx, values=values)
        with pytest.raises(ValueError, match=r"\(H, k, n\)"):
            ops.spmm(a, b_stack[None], context=ctx)
        plan = ctx.spmm_plan(a, DIM)
        with pytest.raises(ValueError, match=r"\(H, k, n\)"):
            execute_spmm(plan, a, b_stack[0], values)

    def test_spmm_rejects_wrong_value_shape(self, rng, ctx):
        a, b_stack = stacked_problem(rng, 2)
        bad = np.ones((3, a.nnz), dtype=np.float32)
        with pytest.raises(ValueError):
            ops.spmm(a, b_stack, context=ctx, values=bad)


# ----------------------------------------------------------------------
# Cost: one z-scaled launch amortizes (H - 1) per-launch overheads
# ----------------------------------------------------------------------
class TestBatchedRuntime:
    """Pinned draws of the property's cost half; for ``H > 1`` the stack
    strictly beats the loop (the amortized launch overheads)."""

    @staticmethod
    def _assert_amortized(op, a, h):
        single, _, deep = _costs(op, a, h)
        if h == 1:
            assert deep == single
        else:
            assert deep < h * single

    @pytest.mark.parametrize("h", HEADS)
    def test_spmm_runtime_le_loop(self, rng, h):
        a, _ = stacked_problem(rng, h)
        self._assert_amortized("spmm", a, h)

    @pytest.mark.parametrize("h", HEADS)
    def test_sddmm_runtime_le_loop(self, rng, h):
        mask, _, _, _ = attention_problem(rng, h)
        self._assert_amortized("sddmm", mask, h)

    @pytest.mark.parametrize("h", HEADS)
    def test_softmax_runtime_le_loop(self, rng, h):
        a = random_sparse(rng, 64, 64, 0.3)
        self._assert_amortized("sparse_softmax", a, h)

    def test_batched_launch_is_z_scaled(self, rng, ctx):
        a, _ = stacked_problem(rng, 4)
        single = ops.spmm_cost(a, 16, context=ctx)
        batched = ops.spmm_cost(a, 16, h=4, context=ctx)
        assert batched.n_blocks == 4 * single.n_blocks
        assert batched.flops == pytest.approx(4 * single.flops)

    def test_stack_needs_a_stacking_backend(self, rng, ctx):
        """A stacked call reaches only ``stacks=True`` backends; any other
        fails like an unregistered (op, backend) pair, and a chain is
        filtered to the backends that take stacks."""
        a, b_stack = stacked_problem(rng, 4)
        assert ops.stack_backends("spmm") == {"sputnik", "dense"}
        with pytest.raises(KeyError, match="no registered backend"):
            ops.spmm_cost(a, 16, h=4, context=ctx, backend="cusparse")
        with pytest.raises(KeyError, match="no registered backend"):
            ops.spmm(a, b_stack, context=ctx, backend="merge")
        ops.spmm_cost(a, 16, context=ctx, backend="cusparse")  # unstacked
        chained = ops.spmm(a, b_stack, context=ctx, backend=["aspt", "dense"])
        assert chained.reliability.backend_used == "dense"
        with pytest.raises(ValueError, match="h must be >= 1"):
            ops.spmm_cost(a, 16, h=0, context=ctx)

    def test_batch_size_part_of_plan_identity(self, rng, ctx):
        """h=4 and h=8 stacks must not share a cached plan."""
        a, _ = stacked_problem(rng, 8)
        r4 = ops.spmm_cost(a, 16, h=4, context=ctx)
        r8 = ops.spmm_cost(a, 16, h=8, context=ctx)
        assert r8.n_blocks == 2 * r4.n_blocks
        assert r8.flops == pytest.approx(2 * r4.flops)
        assert r8.runtime_s >= r4.runtime_s


# ----------------------------------------------------------------------
# Repair: a depth-H plan repairs like a single one, bit for bit
# ----------------------------------------------------------------------
def _mutate(parent, seed: int):
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal(tuple(parent.shape)).astype(np.float32)
    return drop_grow_update(parent, grad, select_rows(parent, 0.2, rng), 0.3)


def _assert_same_launch(repaired, cold):
    assert repaired.h == cold.h
    assert repaired.execution.runtime_s == cold.execution.runtime_s
    assert repaired.launch.n_blocks == cold.launch.n_blocks
    for name in (
        "fma_instructions", "other_instructions", "dram_bytes", "l2_bytes",
        "l1_bytes", "smem_bytes",
    ):
        np.testing.assert_array_equal(
            getattr(repaired.launch.costs, name),
            getattr(cold.launch.costs, name),
        )


class TestBatchedRepair:
    @settings(deadline=None, max_examples=30)
    @given(
        rows=st.integers(8, 96),
        cols=st.integers(8, 96),
        density=st.floats(0.05, 0.5),
        seed=st.integers(0, 2**31 - 1),
        dtype=st.sampled_from([np.float32, np.float16]),
        h=st.sampled_from([1, 4]),
    )
    def test_repaired_plan_equals_cold(self, rows, cols, density, seed,
                                       dtype, h):
        """Two chained topology edits: each repaired depth-H SpMM/SDDMM
        plan costs exactly what a cold depth-H plan of the child does."""
        parent = random_sparse(
            np.random.default_rng(seed), rows, cols, density, dtype=dtype
        )
        assume(parent.nnz > 0)
        ctx = ExecutionContext(V100)
        spmm_cfg = ctx.spmm_config(parent, 16)
        sddmm_cfg = ctx.sddmm_config(parent, 16)
        ctx.spmm_plan(parent, 16, spmm_cfg, h=h)
        ctx.sddmm_plan(parent, 16, sddmm_cfg, h=h)
        work = parent
        seen = set()
        for step in range(2):
            child, delta = _mutate(work, seed + step)
            assume(delta.child != delta.parent)
            # An edit that lands back on a cached topology is a plan-cache
            # hit, not a repair.
            seen.add(delta.parent)
            revisit = delta.child in seen
            ctx.register_topology_delta(delta)
            repairs = ctx.telemetry.plan_repairs
            fresh = ExecutionContext(V100)
            _assert_same_launch(
                ctx.spmm_plan(child, 16, spmm_cfg, h=h),
                fresh.spmm_plan(child, 16, spmm_cfg, h=h),
            )
            repaired = ctx.sddmm_plan(child, 16, sddmm_cfg, h=h)
            cold = fresh.sddmm_plan(child, 16, sddmm_cfg, h=h)
            _assert_same_launch(repaired, cold)
            assert repaired.drag == cold.drag
            assert ctx.telemetry.plan_repairs == repairs + (
                0 if revisit else 2
            )
            work = child

    def test_dispatch_repairs_batched_ops(self, rng):
        """Under a registered delta, stacked ops.spmm/sddmm calls repair
        their plans and match a fresh context bit for bit."""
        h = 4
        parent = random_sparse(rng, 128, 96, 0.15)
        child, delta = _mutate(parent, 7)
        b_stack = rng.standard_normal((h, 96, 16)).astype(np.float32)
        lhs = rng.standard_normal((h, 128, 16)).astype(np.float32)
        rhs = rng.standard_normal((h, 96, 16)).astype(np.float32)
        ctx = ExecutionContext(V100)
        ops.spmm(parent, b_stack, context=ctx)
        ops.sddmm(lhs, rhs, parent, context=ctx)
        ctx.register_topology_delta(delta)
        got = (
            ops.spmm(child, b_stack, context=ctx),
            ops.sddmm(lhs, rhs, child, context=ctx),
        )
        snap = ctx.telemetry_snapshot()
        assert snap["spmm/sputnik"]["plan_repairs"] >= 1
        assert snap["sddmm/sputnik"]["plan_repairs"] >= 1
        fresh = ExecutionContext(V100)
        want = (
            ops.spmm(child, b_stack, context=fresh),
            ops.sddmm(lhs, rhs, child, context=fresh),
        )
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.output, w.output)
            assert g.execution.runtime_s == w.execution.runtime_s


# ----------------------------------------------------------------------
# Reliability: one report, one fallback for the whole batch
# ----------------------------------------------------------------------
class TestBatchedReliability:
    def test_batch_fault_falls_back_once(self, rng, ctx):
        """A fault in the batched launch costs ONE fallback covering all
        H items — the loop would have paid one per head."""
        h = 8
        a, b_stack = stacked_problem(rng, h)
        clean = ops.spmm(a, b_stack, context=ExecutionContext(V100))
        injector = FaultInjector(
            [FaultSpec("launch", op="spmm", backend="sputnik", rate=1.0)],
            seed=1234,
        )
        chain = FallbackPolicy(("sputnik", "dense"), max_attempts=2)
        with injector.attached(ctx):
            result = ops.spmm(a, b_stack, context=ctx, backend=chain)
        report = result.reliability
        assert report is not None
        assert report.backend_used == "dense"
        assert report.fallbacks == 1
        assert ctx.last_dispatch_report is report
        snap = ctx.telemetry_snapshot()
        assert snap["spmm/sputnik"]["fallbacks"] == 1
        np.testing.assert_allclose(
            result.output, clean.output, rtol=1e-5, atol=1e-5
        )

    def test_guardrails_scan_whole_stack(self, rng, ctx):
        """validate=True scans the full (H, m, n) output stack; a clean
        run comes back with a clean single report."""
        a, b_stack = stacked_problem(rng, 4)
        result = ops.spmm(
            a, b_stack, context=ctx, backend=["sputnik", "dense"],
            validate=True,
        )
        assert result.reliability.clean
        assert result.reliability.backend_used == "sputnik"

    def test_attention_reports_cover_batch(self, rng, ctx):
        """Policy-routed batched attention yields exactly three reports —
        one per stage for the whole batch, not three per head."""
        mask, q, k, v = attention_problem(rng, 4)
        reports: list = []
        out = sparse_attention(
            q, k, v, mask, V100,
            policy=["sputnik"], reports=reports,
        )
        assert out.shape == q.shape
        assert len(reports) == 3
        assert all(r.backend_used == "sputnik" for r in reports)


# ----------------------------------------------------------------------
# Chunked SDDMM reference (bounded peak memory)
# ----------------------------------------------------------------------
class TestChunkedSddmmReference:
    @pytest.fixture(autouse=True)
    def _gather_path(self, monkeypatch):
        """These small masks would take the dense-sample path; force the
        chunked gathers so chunking is what gets exercised."""
        monkeypatch.setattr(sparse_ops, "SDDMM_DENSE_SAMPLE_DENSITY", 2.0)

    def test_chunked_equals_unchunked(self, rng, monkeypatch):
        """Chunking the gathers over nnz blocks is bit-identical: each
        nonzero's dot product is computed the same way either way."""
        mask = random_sparse(rng, 48, 40, 0.3)
        lhs = rng.standard_normal((48, 24)).astype(np.float32)
        rhs = rng.standard_normal((40, 24)).astype(np.float32)
        full = sparse_ops.sddmm_reference(lhs, rhs, mask)
        monkeypatch.setattr(sparse_ops, "SDDMM_CHUNK_NNZ", 7)
        chunked = sparse_ops.sddmm_reference(lhs, rhs, mask)
        assert np.array_equal(full.values, chunked.values)

    def test_chunked_scale_by_values(self, rng, monkeypatch):
        mask = random_sparse(rng, 32, 32, 0.4)
        lhs = rng.standard_normal((32, 16)).astype(np.float32)
        rhs = rng.standard_normal((32, 16)).astype(np.float32)
        full = sparse_ops.sddmm_reference(lhs, rhs, mask, scale_by_values=True)
        monkeypatch.setattr(sparse_ops, "SDDMM_CHUNK_NNZ", 5)
        chunked = sparse_ops.sddmm_reference(
            lhs, rhs, mask, scale_by_values=True
        )
        assert np.array_equal(full.values, chunked.values)

    def test_batched_gather_path_matches_dense_sample(self, rng, monkeypatch):
        """The chunked-gather fallback and the dense-sample fast path agree
        on the same problem, for the batched and the single reference."""
        mask = random_sparse(rng, 48, 40, 0.3)
        lhs = rng.standard_normal((4, 48, 16)).astype(np.float32)
        rhs = rng.standard_normal((4, 40, 16)).astype(np.float32)
        monkeypatch.setattr(sparse_ops, "SDDMM_DENSE_SAMPLE_DENSITY", 0.02)
        dense_path = sparse_ops.sddmm_batched_reference(lhs, rhs, mask)
        dense_single = sparse_ops.sddmm_reference(lhs[0], rhs[0], mask)
        # Force the gather path with a tiny chunk so chunking is exercised.
        monkeypatch.setattr(sparse_ops, "SDDMM_DENSE_SAMPLE_DENSITY", 2.0)
        monkeypatch.setattr(sparse_ops, "SDDMM_CHUNK_NNZ", 16)
        gather_path = sparse_ops.sddmm_batched_reference(lhs, rhs, mask)
        gather_single = sparse_ops.sddmm_reference(lhs[0], rhs[0], mask)
        np.testing.assert_allclose(
            dense_path, gather_path, rtol=1e-5, atol=1e-5
        )
        np.testing.assert_allclose(
            dense_single.values, gather_single.values, rtol=1e-5, atol=1e-5
        )


# ----------------------------------------------------------------------
# Row-blocked dense-sample SDDMM reference
# ----------------------------------------------------------------------
#: Rows per dense-sample block in these tests (the mask is 40 wide).
BLOCK_ROWS = 8


def blocked_mask(rng, dtype=np.float32) -> CSRMatrix:
    """A 45 x 40 mask for 8-row blocks: 45 rows is no multiple of the
    block, rows 8..15 (the whole second block) hold no nonzero, and rows
    16, 23, 24 and 44 (the first or last row of their block) are empty."""
    dense = (rng.random((45, 40)) < 0.3) * rng.standard_normal((45, 40))
    dense[8:16] = 0.0
    dense[[16, 23, 24, 44]] = 0.0
    return CSRMatrix.from_dense(dense, dtype=dtype)


class TestBlockedSddmmReference:
    @pytest.fixture(autouse=True)
    def _small_blocks(self, monkeypatch):
        """Blocks of BLOCK_ROWS rows, so one small mask spans six."""
        monkeypatch.setattr(
            sparse_ops, "SDDMM_BLOCK_ELEMS", BLOCK_ROWS * 40
        )

    def test_mask_spans_the_block_edge_cases(self, rng):
        mask = blocked_mask(rng)
        lengths = mask.row_lengths
        assert mask.n_rows % BLOCK_ROWS
        assert not lengths[8:16].any() and lengths[:8].any()
        assert not lengths[[16, 23, 24, 44]].any()
        assert mask.nnz >= sparse_ops.SDDMM_DENSE_SAMPLE_DENSITY * 45 * 40

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("scale_by_values", [False, True])
    def test_blocked_matches_gather_path(
        self, rng, monkeypatch, dtype, scale_by_values
    ):
        mask = blocked_mask(rng, dtype)
        lhs = rng.standard_normal((4, 45, DIM)).astype(np.float32)
        rhs = rng.standard_normal((4, 40, DIM)).astype(np.float32)
        blocked = sparse_ops.sddmm_batched_reference(
            lhs, rhs, mask, scale_by_values=scale_by_values
        )
        monkeypatch.setattr(sparse_ops, "SDDMM_DENSE_SAMPLE_DENSITY", 2.0)
        gathered = sparse_ops.sddmm_batched_reference(
            lhs, rhs, mask, scale_by_values=scale_by_values
        )
        assert blocked.dtype == gathered.dtype == np.dtype(dtype)
        tol = 1e-5 if dtype == np.float32 else 1e-2
        np.testing.assert_allclose(
            blocked.astype(np.float32), gathered.astype(np.float32),
            rtol=tol, atol=tol,
        )

    @pytest.mark.parametrize("h", HEADS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("scale_by_values", [False, True])
    def test_stack_equals_per_head_loop(self, rng, h, dtype, scale_by_values):
        """The block's row count depends on the mask's width only, so a
        stack runs the per-head GEMMs of its loop and equals it exactly."""
        mask = blocked_mask(rng, dtype)
        lhs = rng.standard_normal((h, 45, DIM)).astype(np.float32)
        rhs = rng.standard_normal((h, 40, DIM)).astype(np.float32)
        stacked = sparse_ops.sddmm_batched_reference(
            lhs, rhs, mask, scale_by_values=scale_by_values
        )
        looped = np.stack(
            [
                sparse_ops.sddmm_reference(
                    lhs[i], rhs[i], mask, scale_by_values=scale_by_values
                ).values
                for i in range(h)
            ],
            axis=1,
        )
        assert np.array_equal(stacked, looped)

    def test_peak_memory_is_bounded_by_the_block(self, rng, monkeypatch):
        """The full (H, rows, cols) product never exists: peak traced
        memory stays well under it at the default block budget."""
        import tracemalloc

        monkeypatch.undo()
        h, n = 2, 1024
        mask = random_sparse(rng, n, n, 0.05)
        lhs = rng.standard_normal((h, n, DIM)).astype(np.float32)
        rhs = rng.standard_normal((h, n, DIM)).astype(np.float32)
        full_product = h * n * n * 4
        tracemalloc.start()
        try:
            sparse_ops.sddmm_batched_reference(lhs, rhs, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_product / 2, (peak, full_product)


class TestReferencesBatchedEqualsLooped:
    """The single-matrix references are the H = 1 case of the batched
    ones, so the batched value matrix equals the per-head loop exactly."""

    @pytest.mark.parametrize("h", HEADS)
    @pytest.mark.parametrize("path", ["dense", "gather"])
    @pytest.mark.parametrize("scale_by_values", [False, True])
    def test_sddmm(self, rng, monkeypatch, h, path, scale_by_values):
        if path == "gather":
            monkeypatch.setattr(sparse_ops, "SDDMM_DENSE_SAMPLE_DENSITY", 2.0)
            monkeypatch.setattr(sparse_ops, "SDDMM_CHUNK_NNZ", 16)
        mask = random_sparse(rng, 48, 40, 0.3)
        lhs = rng.standard_normal((h, 48, 16)).astype(np.float32)
        rhs = rng.standard_normal((h, 40, 16)).astype(np.float32)
        batched = sparse_ops.sddmm_batched_reference(
            lhs, rhs, mask, scale_by_values=scale_by_values
        )
        looped = np.stack(
            [
                sparse_ops.sddmm_reference(
                    lhs[i], rhs[i], mask, scale_by_values=scale_by_values
                ).values
                for i in range(h)
            ],
            axis=1,
        )
        assert np.array_equal(batched, looped)

    @pytest.mark.parametrize("h", HEADS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_spmm_per_head_values(self, rng, h, dtype):
        """The memoized block-diagonal product equals the per-head loop:
        each output row accumulates its nonzeros in the same order."""
        a, b_stack = stacked_problem(rng, h, dtype=dtype)
        values = rng.standard_normal((h, a.nnz)).astype(dtype)
        stacked = sparse_ops.spmm_batched_reference(a, b_stack, values)
        looped = np.stack(
            [
                sparse_ops.spmm_reference(a.with_values(values[i]), b_stack[i])
                for i in range(h)
            ]
        )
        assert stacked.dtype == np.dtype(dtype)
        assert np.array_equal(stacked, looped)

    @pytest.mark.parametrize("h", HEADS)
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_sparse_softmax(self, rng, h, dtype):
        a = random_sparse(rng, 64, 64, 0.3, dtype=dtype)
        values = rng.standard_normal((a.nnz, h)).astype(dtype)
        batched = sparse_ops.sparse_softmax_batched_reference(
            a, values, scale=0.5
        )
        looped = np.stack(
            [
                sparse_ops.sparse_softmax_reference(
                    a.with_values(values[:, i]), scale=0.5
                ).values
                for i in range(h)
            ],
            axis=1,
        )
        assert np.array_equal(batched, looped)


# ----------------------------------------------------------------------
# Model paths: the depth is the rank of the model's input
# ----------------------------------------------------------------------
class TestBatchedModels:
    @pytest.mark.parametrize("h", HEADS)
    def test_sparse_attention_matches_loop(self, rng, h):
        mask, q, k, v = attention_problem(rng, h)
        loop_profile, batched_profile = Profile(), Profile()
        loop = np.stack([
            sparse_attention(q[i], k[i], v[i], mask, V100, loop_profile)
            for i in range(h)
        ])
        batched = sparse_attention(q, k, v, mask, V100, batched_profile)
        np.testing.assert_array_equal(batched, loop)
        # Three stacked launches replace 3H per-head ones and never cost
        # more simulated time.
        assert len(batched_profile.records) == 3
        assert len(loop_profile.records) == 3 * h
        assert batched_profile.runtime_s <= loop_profile.runtime_s
        if h > 1:
            names = {r.name for r in batched_profile.records}
            assert all(name.endswith(f"_x{h}") for name in names)

    def test_dense_attention_matches_loop(self, rng):
        h, seq, dk = 4, 32, 16
        q, k, v = (
            rng.standard_normal((h, seq, dk)).astype(np.float32)
            for _ in range(3)
        )
        loop = np.stack([
            dense_attention(q[i], k[i], v[i], V100) for i in range(h)
        ])
        batched = dense_attention(q, k, v, V100)
        np.testing.assert_array_equal(batched, loop)

    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_two_d_call_equals_depth_one_stack(self, rng, kind):
        """One head, given as ``(seq, dk)`` or as a depth-1 stack, gives
        the same output, record runtimes and telemetry, bit for bit."""
        mask, q, k, v = attention_problem(rng, 1)
        observed = []
        for args in ((q[0], k[0], v[0]), (q, k, v)):
            ctx, profile = ExecutionContext(V100), Profile()
            if kind == "sparse":
                out = sparse_attention(
                    *args, mask, V100, profile, context=ctx
                )
            else:
                out = dense_attention(*args, V100, profile, context=ctx)
            observed.append((
                out.reshape(q.shape[1:]).tobytes(),
                [r.runtime_s for r in profile.records],
                ctx.telemetry_snapshot(),
            ))
        assert observed[0] == observed[1]

    def test_two_d_attention_dispatches_unstacked(self, rng):
        """A 2-D call dispatches unstacked: a faulted sputnik SpMM falls
        back to cuSPARSE, which takes no stacks."""
        mask, q, k, v = attention_problem(rng, 1)
        ctx = ExecutionContext(V100)
        injector = FaultInjector(
            [FaultSpec("launch", op="spmm", backend="sputnik", rate=1.0)],
            seed=1234,
        )
        chain = FallbackPolicy(("sputnik", "cusparse", "dense"), max_attempts=3)
        reports: list = []
        with injector.attached(ctx):
            out = sparse_attention(
                q[0], k[0], v[0], mask, V100, reports=reports,
                policy=chain, context=ctx,
            )
        assert out.shape == q.shape[1:]
        assert [r.backend_used for r in reports] == [
            "sputnik", "sputnik", "cusparse"
        ]

    def test_mobilenet_forward_batch_matches_per_image(self, rng, device):
        """A ``(B, 3, 224, 224)`` forward equals the per-image forwards."""
        model = MobileNetV1(width=0.25, sparse=True, seed=0)
        images = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)
        profile = Profile()
        batched = model.forward(images, device, profile)
        assert batched.shape == (2, 1000)
        per_image = np.stack([
            model.forward(img, device) for img in images
        ])
        assert per_image.shape == (2, 1000)
        np.testing.assert_allclose(batched, per_image, rtol=1e-3, atol=1e-3)
        # The pointwise convs went down as z-scaled batch-of-2 launches.
        assert any(r.name.endswith("_x2") for r in profile.records)

    def test_mobilenet_forward_batch_validates_shape(self, device):
        """``forward`` takes one CHW image or a batch of them, nothing
        else."""
        model = MobileNetV1(width=0.25, sparse=False, seed=0)
        for shape in [(224, 224), (1, 1, 3, 224, 224), (2, 4, 224, 224)]:
            with pytest.raises(ValueError):
                model.forward(np.ones(shape, np.float32), device)

    def test_dense_attention_rejects_wrong_rank(self, rng):
        q = rng.standard_normal((1, 2, 8, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            dense_attention(q, q, q, V100)


# ----------------------------------------------------------------------
# Sweep engine: the h dimension
# ----------------------------------------------------------------------
class TestSweepBatchDimension:
    @pytest.fixture(autouse=True)
    def _isolate_default_contexts(self):
        yield
        ops.reset_default_contexts()
        sweep_mod.reset_worker_state()

    @staticmethod
    def make_specs(n):
        return [
            MatrixSpec(
                name=f"b{i}", model="test", layer=f"l{i}", rows=96,
                cols=64, sparsity=0.8, row_cov=0.25, seed=900 + i,
            )
            for i in range(n)
        ]

    def test_build_tasks_h_cross_product(self):
        tasks = build_tasks(self.make_specs(2), ["sputnik"], n=32, h=[1, 4])
        assert len(tasks) == 4
        assert sorted({t.h for t in tasks}) == [1, 4]

    def test_row_key_back_compat(self):
        """h=1 keeps the historical key so old resume files still match;
        batched tasks append the depth."""
        spec = self.make_specs(1)[0]
        flat = build_tasks([spec], ["sputnik"], n=32, h=1)[0]
        deep = build_tasks([spec], ["sputnik"], n=32, h=4)[0]
        assert flat.row_key == "b0|sputnik|32"
        assert deep.row_key == "b0|sputnik|32|h4"

    def test_batched_depth_requires_batched_timer(self):
        with pytest.raises(ValueError, match="takes no stacks"):
            build_tasks(self.make_specs(1), ["cusparse"], n=32, h=4)

    def test_run_sweep_with_stack_depths(self, tmp_path):
        rows, report = run_sweep(
            self.make_specs(2), ["sputnik"], V100, n=32, h=[1, 4],
            workers=1,
        )
        assert report.failed == 0
        assert len(rows) == 4
        by_h = {(row["problem"], row["h"]): row for row in rows}
        for spec in ("b0", "b1"):
            single = by_h[(spec, 1)]
            batched = by_h[(spec, 4)]
            assert batched["flops"] == pytest.approx(4 * single["flops"])
            assert batched["runtime_s"] < 4 * single["runtime_s"]
