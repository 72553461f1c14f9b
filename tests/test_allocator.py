"""Tests for the capacity-aware device allocator and HBM accounting.

Covers the allocator's split/merge/bucket mechanics and its accounting
invariant (property-tested over randomized schedules), the execution
context's residency charging + eviction ladder, the ``REPRO_HBM_CAP``
environment override, Table III's verdicts on one allocator, the
runner's ``status="oom"`` classification, and the report CLI's memory
section.
"""

import pickle

import numpy as np
import pytest

from repro import ops
from repro.bench.runner import _measure
from repro.gpu import V100
from repro.gpu.allocator import (
    CAP_ENV_VAR,
    MIN_SEGMENT_BYTES,
    DeviceAllocator,
    aligned_nbytes,
    capacity_from_env,
    estimate_nbytes,
    format_capacity,
    parse_capacity,
)
from repro.gpu.device import GTX1080
from repro.nn.transformer import TransformerConfig, benchmark
from repro.obs.report import build_report, format_report, rollup_memory
from repro.obs.tracing import Tracer
from repro.ops import ExecutionContext
from repro.ops.store import PlanStore
from repro.reliability.errors import DeviceOOMError
from repro.sparse import CSRMatrix

MiB = 1024**2


def random_csr(rows: int, cols: int, k: int, seed: int) -> CSRMatrix:
    """~k nonzeros per row, O(nnz) construction (no dense intermediate)."""
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.integers(cols, size=(rows, k)), axis=1)
    keep = np.ones_like(idx, dtype=bool)
    keep[:, 1:] = idx[:, 1:] != idx[:, :-1]
    offsets = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    flat = idx[keep].astype(np.int32)
    values = rng.standard_normal(flat.size).astype(np.float32)
    return CSRMatrix((rows, cols), offsets, flat, values)


# ----------------------------------------------------------------------
# Capacity parsing and the environment override
# ----------------------------------------------------------------------
class TestParseCapacity:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4G", 4 * 1024**3),
            ("4GiB", 4 * 1024**3),
            ("512M", 512 * MiB),
            ("1.5g", int(1.5 * 1024**3)),
            ("65536", 65536),
            ("  2k ", 2048),
        ],
    )
    def test_suffixes(self, text, expected):
        assert parse_capacity(text) == expected

    @pytest.mark.parametrize("text", ["off", "none", "", "OFF", "unlimited"])
    def test_disabled(self, text):
        assert parse_capacity(text) is None

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_capacity("lots")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_capacity("-4G")

    @pytest.mark.parametrize(
        "text", ["4g", "4gib", "512m", "2k", "1t", "16MIB"]
    )
    def test_lowercase_suffixes(self, text):
        assert parse_capacity(text) == parse_capacity(text.upper())

    @pytest.mark.parametrize(
        "nbytes,expected",
        [
            (None, "off"),
            (0, "0"),
            (4 * 1024**3, "4G"),
            (512 * MiB, "512M"),
            (2048, "2K"),
            (1536, "1536"),  # not a whole unit multiple: plain bytes
        ],
    )
    def test_format_capacity(self, nbytes, expected):
        assert format_capacity(nbytes) == expected

    @pytest.mark.parametrize(
        "nbytes",
        [0, 1, 1023, 1024, 1536, 8 * MiB, 3 * 1024**3, 7 * 1024**4 + 512],
    )
    def test_format_parse_round_trip(self, nbytes):
        assert parse_capacity(format_capacity(nbytes)) == nbytes

    def test_format_parse_round_trip_off(self):
        assert parse_capacity(format_capacity(None)) is None

    def test_env_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        assert capacity_from_env(123) == 123

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "32M")
        assert capacity_from_env(123) == 32 * MiB

    def test_env_off_disables(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "off")
        assert capacity_from_env(123) is None

    def test_context_honours_env_cap(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "64M")
        ctx = ExecutionContext(V100)
        assert ctx.memory is not None
        assert ctx.memory.capacity == 64 * MiB

    def test_context_env_off_disables_accounting(self, monkeypatch):
        monkeypatch.setenv(CAP_ENV_VAR, "off")
        ctx = ExecutionContext(V100)
        assert ctx.memory is None

    def test_context_memory_false_disables_accounting(self):
        ctx = ExecutionContext(V100, memory=False)
        assert ctx.memory is None


# ----------------------------------------------------------------------
# Allocator mechanics
# ----------------------------------------------------------------------
class TestDeviceAllocator:
    def test_alignment_rounding(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        alloc = mem.allocate(100)
        assert alloc.requested == 100
        assert alloc.nbytes == V100.allocation_alignment
        assert aligned_nbytes(100, 256) == 256
        assert aligned_nbytes(256, 256) == 256
        assert aligned_nbytes(257, 256) == 512

    def test_small_requests_pool_into_one_segment(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        for _ in range(8):
            mem.allocate(64 * 1024)
        assert mem.segment_count == 1
        assert mem.reserved_bytes == MIN_SEGMENT_BYTES
        mem.check_invariant()

    def test_free_caches_and_reuses(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        a = mem.allocate(2 * MiB)
        mem.free(a)
        assert a.freed
        assert mem.allocated_bytes == 0
        assert mem.cached_bytes == 2 * MiB
        b = mem.allocate(2 * MiB)
        assert mem.segment_count == 1  # cache hit, no new reservation
        assert b.nbytes == 2 * MiB
        mem.check_invariant()

    def test_free_is_idempotent(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        a = mem.allocate(MiB)
        mem.free(a)
        mem.free(a)
        assert mem.free_count == 1
        mem.check_invariant()

    def test_split_and_merge_roundtrip(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        big = mem.allocate(4 * MiB)
        mem.free(big)
        # Splitting the cached 4 MiB block leaves a re-cached remainder...
        small = mem.allocate(MiB)
        assert mem.cached_bytes == 3 * MiB
        # ...and freeing merges it back into one 4 MiB block.
        mem.free(small)
        assert mem.cached_bytes == 4 * MiB
        assert mem.largest_available() >= 4 * MiB
        mem.check_invariant()

    def test_flush_releases_only_fully_free_segments(self):
        mem = DeviceAllocator(V100, capacity=64 * MiB)
        dead = mem.allocate(8 * MiB)
        live = mem.allocate(8 * MiB)
        mem.free(dead)
        released = mem.flush_cache()
        assert released == 8 * MiB
        assert mem.reserved_bytes == 8 * MiB
        mem.free(live)
        assert mem.flush_cache() == 8 * MiB
        assert mem.reserved_bytes == 0
        mem.check_invariant()

    def test_oom_carries_snapshot_and_counts(self):
        mem = DeviceAllocator(V100, capacity=4 * MiB)
        mem.allocate(3 * MiB)
        with pytest.raises(DeviceOOMError) as excinfo:
            mem.allocate(2 * MiB)
        err = excinfo.value
        assert err.requested == 2 * MiB
        assert err.capacity == 4 * MiB
        assert err.snapshot["allocated_bytes"] == 3 * MiB
        assert mem.oom_count == 1
        assert DeviceOOMError.retryable

    def test_tight_fit_skips_segment_rounding(self):
        # 1.5 MiB + 0.5 MiB == capacity: the second reservation must not
        # be rounded up to MIN_SEGMENT_BYTES.
        mem = DeviceAllocator(V100, capacity=2 * MiB)
        mem.allocate(3 * MiB // 2)
        alloc = mem.allocate(MiB // 2)
        assert alloc.nbytes == MiB // 2
        assert mem.reserved_bytes == 2 * MiB
        mem.check_invariant()

    def test_peaks_and_tags(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        a = mem.allocate(2 * MiB, tag="tensor")
        mem.allocate(MiB, tag="plan")
        mem.free(a)
        assert mem.peak_allocated_bytes == 3 * MiB
        assert mem.allocated_by_tag["tensor"] == 0
        assert mem.allocated_by_tag["plan"] == MiB
        snap = mem.snapshot()
        assert snap["peak_reserved_bytes"] == 3 * MiB

    def test_fragmentation_bounds(self):
        mem = DeviceAllocator(V100, capacity=16 * MiB)
        assert mem.fragmentation == 0.0
        allocs = [mem.allocate(MiB) for _ in range(8)]
        for alloc in allocs[::2]:
            mem.free(alloc)  # free alternating MiB holes
        assert 0.0 < mem.fragmentation < 1.0

    def test_would_fit(self):
        mem = DeviceAllocator(V100, capacity=4 * MiB)
        assert mem.would_fit(2 * MiB, 2 * MiB)
        assert not mem.would_fit(3 * MiB, 2 * MiB)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeviceAllocator(V100, capacity=0)

    def test_estimate_nbytes_sums_arrays(self):
        arr = np.zeros(1024, np.float32)

        class Plan:
            def __init__(self):
                self.data = arr
                self.extra = [arr, {"x": arr}]
                self.scalar = 7

        assert estimate_nbytes(arr) == arr.nbytes
        assert estimate_nbytes(Plan()) == 256 + 3 * arr.nbytes
        assert estimate_nbytes(None) == 0


class TestAllocatorProperty:
    def test_randomized_schedule_preserves_invariant(self):
        """alloc/free/flush in random order: the accounting identity
        ``allocated + cached == reserved <= capacity`` must hold after
        every operation, and OOMs must leave state untouched."""
        rng = np.random.default_rng(20200417)
        mem = DeviceAllocator(V100, capacity=32 * MiB)
        live = []
        for _ in range(600):
            op = rng.random()
            if op < 0.55:
                nbytes = int(rng.integers(1, 4 * MiB))
                before = (mem.allocated_bytes, mem.cached_bytes)
                try:
                    live.append(mem.allocate(nbytes))
                except DeviceOOMError:
                    assert (mem.allocated_bytes, mem.cached_bytes) == before
            elif op < 0.9 and live:
                mem.free(live.pop(int(rng.integers(len(live)))))
            else:
                mem.flush_cache()
            mem.check_invariant()
        for alloc in live:
            mem.free(alloc)
        mem.flush_cache()
        mem.check_invariant()
        assert mem.allocated_bytes == 0
        assert mem.reserved_bytes == 0


# ----------------------------------------------------------------------
# Context integration: residency, eviction, spill, re-upload
# ----------------------------------------------------------------------
class TestContextAccounting:
    def test_dispatch_charges_operand_residency(self):
        ctx = ExecutionContext(V100, memory=64 * MiB)
        a = random_csr(256, 256, 32, seed=1)
        ops.spmm_cost(a, 16, context=ctx)
        assert len(ctx._resident) == 1
        assert ctx.memory.allocated_bytes >= a.memory_bytes()
        assert ctx.memory.allocated_by_tag.get("plan", 0) > 0

    def test_residency_is_cached_across_dispatches(self):
        ctx = ExecutionContext(V100, memory=64 * MiB)
        a = random_csr(256, 256, 32, seed=2)
        ops.spmm_cost(a, 16, context=ctx)
        allocated = ctx.memory.allocated_bytes
        ops.spmm_cost(a, 32, context=ctx)  # same operand, new problem
        assert len(ctx._resident) == 1
        # Only the new problem's plan is charged — no second operand copy.
        tensor_bytes = ctx.memory.allocated_by_tag["tensor"]
        assert a.memory_bytes() <= tensor_bytes
        assert tensor_bytes < a.memory_bytes() + 4 * V100.allocation_alignment
        assert ctx.memory.allocated_bytes > allocated  # new plan bytes only

    def test_memory_scope_disabled_is_noop(self):
        ctx = ExecutionContext(V100, memory=False)
        a = random_csr(64, 64, 8, seed=3)
        with ctx.memory_scope("spmm", "sputnik", (a,), 1024):
            pass
        ops.spmm_cost(a, 16, context=ctx)
        assert ctx.tensor_evictions == 0
        assert ctx.memory_snapshot() is None

    def test_sweep_under_pressure_evicts_and_completes(self):
        matrices = [random_csr(512, 512, 192, seed=s) for s in range(6)]
        footprint = sum(a.memory_bytes() for a in matrices)
        cap = footprint // 2
        ctx = ExecutionContext(V100, memory=cap)
        for a in matrices:
            result = ops.spmm_cost(a, 16, context=ctx)
            assert result.runtime_s > 0
        assert ctx.tensor_evictions > 0
        assert ctx.telemetry.oom_events > 0
        assert ctx.telemetry.bytes_evicted > 0
        assert ctx.memory.peak_reserved_bytes <= cap

    def test_reupload_charged_when_evicted_operand_returns(self):
        matrices = [random_csr(512, 512, 192, seed=10 + s) for s in range(6)]
        cap = sum(a.memory_bytes() for a in matrices) // 2
        ctx = ExecutionContext(V100, memory=cap)
        for a in matrices:
            ops.spmm_cost(a, 16, context=ctx)
        assert ctx.bytes_reuploaded == 0
        ops.spmm_cost(matrices[0], 16, context=ctx)  # evicted; comes back
        assert ctx.bytes_reuploaded >= matrices[0].memory_bytes()

    def test_plan_evicted_under_pressure_rebuilds_without_store(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        ctx = ExecutionContext(V100, memory=8 * MiB, store=store)
        a = random_csr(256, 256, 32, seed=4)
        first = ops.spmm_cost(a, 16, context=ctx)
        assert ctx._plan_allocs  # the plan was charged
        # Demand nearly the whole device: tensors then plans must go.
        alloc = ctx.try_allocate(15 * MiB // 2, "workspace", "test", "none")
        assert alloc is not None
        assert ctx.telemetry.plan_evictions > 0
        assert not ctx._plan_allocs
        ctx.memory.free(alloc)
        # The evicted plan is rebuilt in memory: no store traffic at all,
        # and the same cost bit for bit.
        misses = ctx.telemetry.cache_misses
        again = ops.spmm_cost(a, 16, context=ctx)
        assert ctx.telemetry.cache_misses > misses
        assert again is not first
        assert pickle.dumps(again) == pickle.dumps(first)
        assert store.stats.as_dict() == {
            "hits": 0, "misses": 0, "writes": 0, "evictions": 0,
        }
        assert len(store) == 0

    def test_try_allocate_raises_when_reclaim_exhausted(self):
        ctx = ExecutionContext(V100, memory=4 * MiB)
        with pytest.raises(DeviceOOMError) as excinfo:
            ctx.try_allocate(64 * MiB, "workspace", "test", "none")
        assert excinfo.value.snapshot is not None
        assert ctx.telemetry.oom_events > 0

    def test_memory_snapshot_shape(self):
        ctx = ExecutionContext(V100, memory=16 * MiB)
        a = random_csr(128, 128, 16, seed=5)
        ops.spmm_cost(a, 8, context=ctx)
        snap = ctx.memory_snapshot()
        for key in (
            "capacity_bytes",
            "peak_reserved_bytes",
            "fragmentation",
            "resident_tensors",
            "resident_plans",
            "tensor_evictions",
            "plan_evictions",
            "oom_events",
            "bytes_evicted",
            "bytes_reuploaded",
        ):
            assert key in snap, key
        assert snap["resident_tensors"] == 1

    def test_accounting_survives_telemetry_deltas(self):
        """The runner's per-row telemetry delta covers the new counters."""
        ctx = ExecutionContext(V100, memory=16 * MiB)
        ops.set_default_context(ctx)
        try:
            a = random_csr(128, 128, 16, seed=6)
            row = _measure(
                lambda m, n, d: ops.spmm_cost(m, n, d),
                "p", "sputnik", a, 8, V100,
            )
        finally:
            ops.reset_default_contexts()
        assert row.status == "ok"
        for key in ("oom_events", "plan_evictions", "bytes_evicted"):
            assert key in row.telemetry


# ----------------------------------------------------------------------
# Runner classification: oom vs failed
# ----------------------------------------------------------------------
class TestRunnerOomStatus:
    def test_direct_oom_row(self):
        def timer(a, n, device):
            raise DeviceOOMError("boom", requested=10, capacity=5)

        a = random_csr(64, 64, 8, seed=7)
        row = _measure(timer, "p", "k", a, 8, V100)
        assert row.status == "oom"
        assert row.failed  # an oom row still counts as not-ok

    def test_other_failure_row(self):
        def timer(a, n, device):
            raise RuntimeError("not memory")

        a = random_csr(64, 64, 8, seed=8)
        row = _measure(timer, "p", "k", a, 8, V100)
        assert row.status == "failed"


# ----------------------------------------------------------------------
# Table III memory columns on one allocator
# ----------------------------------------------------------------------
class TestProfileReplay:
    def test_fits_ignores_env_cap(self, monkeypatch):
        """Table III verdicts are device properties, not harness state."""
        config = TransformerConfig(
            sequence_length=1024, batch_size=2, attention_band=64
        )
        monkeypatch.delenv(CAP_ENV_VAR, raising=False)
        plain = benchmark(config, V100, "sparse")
        monkeypatch.setenv(CAP_ENV_VAR, "1M")
        assert benchmark(config, V100, "sparse") == plain
        assert plain.fits

    def test_table3_verdicts_unchanged(self):
        """Dense OOMs on the GTX 1080, sparse fits on both devices —
        now decided by allocator replay instead of a raw byte sum."""
        config = TransformerConfig()
        dense_v100 = benchmark(config, V100, "dense")
        dense_1080 = benchmark(config, GTX1080, "dense")
        sparse_1080 = benchmark(config, GTX1080, "sparse")
        assert dense_v100.fits
        assert not dense_1080.fits
        assert dense_1080.tokens_per_second == 0.0
        assert sparse_1080.fits
        # The cited memory number is the allocator's reserved high-water
        # mark when the model fits; alignment adds only segment-scale slack.
        assert dense_v100.memory_gb == pytest.approx(9.88, rel=0.1)
        assert sparse_1080.memory_gb == pytest.approx(0.77, rel=0.2)


# ----------------------------------------------------------------------
# Report CLI memory section
# ----------------------------------------------------------------------
class TestReportMemorySection:
    def _traced_pressure_records(self):
        tracer = Tracer(process="test")
        ctx = ExecutionContext(V100, memory=3 * MiB, tracer=tracer)
        for s in range(4):
            ops.spmm_cost(random_csr(512, 512, 192, seed=30 + s), 8,
                          context=ctx)
        ctx.emit_memory_span()
        return tracer.to_jsonl_records()

    def test_rollup_memory_none_without_pressure(self):
        tracer = Tracer(process="test")
        ctx = ExecutionContext(V100, memory=False, tracer=tracer)
        ops.spmm_cost(random_csr(64, 64, 8, seed=9), 8, context=ctx)
        assert rollup_memory(tracer.to_jsonl_records()) is None

    def test_rollup_memory_aggregates_ladder_events(self):
        records = self._traced_pressure_records()
        memory = rollup_memory(records)
        assert memory is not None
        assert memory["oom_events"] > 0
        assert memory["evictions"]["tensor"]["count"] > 0
        assert memory["by_op"]["spmm"]["oom"] > 0
        assert memory["snapshot"]["capacity_bytes"] == 3 * MiB
        assert memory["peak_reserved_bytes"] <= 3 * MiB

    def test_format_report_renders_memory_section(self):
        records = self._traced_pressure_records()
        report = build_report(records)
        text = format_report(report)
        assert "memory pressure:" in text
        assert "oom events:" in text
        assert "evictions:" in text
