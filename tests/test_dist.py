"""Multi-GPU sharded execution: partitioning, interconnect, dispatch.

Covers the ring/shared collective cost model, the LPT cost-balanced
partitioner (property-tested balance bound + determinism on power-law
topologies), ShardPlan caching in the lead context's plan cache,
sharded SpMM/SDDMM numerics vs the single-device kernels, per-device
HBM accounting, the report CLI's per-device rollup on a merged
multi-device trace, the sweep's ``devices=`` dimension, and the
model-parallel Transformer layer. ``tests/test_dist_golden.py`` pins the
four sharded functions' simulated numbers.
"""

import json

import numpy as np
import pytest

from repro import ops
from repro.bench.sweep import build_tasks, reset_worker_state, run_sweep
from repro.datasets import MatrixSpec
from repro.dist import (
    DEFAULT_BUNDLE_SIZE,
    DeviceGroup,
    ShardPlan,
    cost_balanced_partition,
    partition_loads,
    partition_stats,
    plan_shards,
    row_block_partition,
    sharded_sddmm,
    sharded_sddmm_cost,
    sharded_spmm,
    sharded_spmm_cost,
)
from repro.gpu import V100
from repro.gpu.interconnect import (
    NVLINK2,
    PCIE3,
    all_gather,
    all_reduce,
    broadcast,
    get_interconnect,
    reduce_scatter,
)
from repro.nn.transformer_layer import TransformerLayer
from repro.obs.report import build_report, format_report
from repro.obs.tracing import Tracer
from repro.ops.store import PLAN_STORE_VERSION
from repro.reliability.errors import DeviceOOMError
from repro.sparse import CSRMatrix

from .conftest import random_sparse


def power_law_lengths(rng, n_rows: int, alpha: float = 1.5) -> np.ndarray:
    """Pareto-ish row lengths: a few heavy rows carry most nonzeros."""
    lengths = (rng.pareto(alpha, size=n_rows) * 8).astype(np.int64) + 1
    return np.minimum(lengths, 512)


def power_law_csr(rng, n_rows: int, n_cols: int) -> CSRMatrix:
    lengths = np.minimum(power_law_lengths(rng, n_rows), n_cols)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    indices = np.concatenate(
        [
            np.sort(rng.choice(n_cols, size=int(ln), replace=False))
            for ln in lengths
        ]
    ).astype(np.int32)
    values = rng.standard_normal(int(offsets[-1])).astype(np.float32)
    return CSRMatrix((n_rows, n_cols), offsets, indices, values)


# ----------------------------------------------------------------------
# Interconnect cost model
# ----------------------------------------------------------------------
class TestInterconnect:
    def test_single_device_collectives_are_free(self):
        for fn in (all_gather, reduce_scatter, all_reduce, broadcast):
            cost = fn(NVLINK2, 1 << 20, 1)
            assert cost.seconds == 0.0
            assert cost.steps == 0

    def test_ring_all_gather_formula(self):
        k, nbytes = 4, 64 << 20
        cost = all_gather(NVLINK2, nbytes, k)
        bw = NVLINK2.effective_bandwidth(k)
        expected = (k - 1) * (nbytes / k / bw + NVLINK2.link_latency_s)
        assert cost.seconds == pytest.approx(expected)
        assert cost.steps == k - 1

    def test_all_reduce_is_two_passes(self):
        k, nbytes = 8, 16 << 20
        assert all_reduce(NVLINK2, nbytes, k).seconds == pytest.approx(
            2 * all_gather(NVLINK2, nbytes, k).seconds
        )

    def test_shared_topology_divides_bandwidth(self):
        assert PCIE3.effective_bandwidth(4) == pytest.approx(
            PCIE3.device_bandwidth / 4
        )
        # Ring links are point-to-point: per-device bandwidth holds at any k.
        assert NVLINK2.effective_bandwidth(8) == pytest.approx(
            NVLINK2.device_bandwidth
        )
        # Same bytes, same k: the shared fabric is strictly slower.
        assert (
            all_gather(PCIE3, 1 << 24, 4).seconds
            > all_gather(NVLINK2, 1 << 24, 4).seconds
        )

    def test_get_interconnect(self):
        assert get_interconnect("nvlink") is NVLINK2
        assert get_interconnect(PCIE3) is PCIE3
        with pytest.raises(ValueError):
            get_interconnect("carrier-pigeon")


# ----------------------------------------------------------------------
# Cost-balanced partitioning
# ----------------------------------------------------------------------
class TestPartition:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_lpt_balance_bound(self, seed, k):
        """LPT guarantee: max load <= mean load + heaviest bundle."""
        rng = np.random.default_rng(seed)
        lengths = power_law_lengths(rng, 2048)
        parts = cost_balanced_partition(lengths, k)
        loads = partition_loads(lengths, parts)
        order = np.argsort(lengths, kind="stable")[::-1]
        max_bundle = int(
            lengths[order[:DEFAULT_BUNDLE_SIZE]].sum()
        )
        assert loads.max() <= loads.mean() + max_bundle

    def test_deterministic(self):
        lengths = power_law_lengths(np.random.default_rng(42), 1024)
        first = cost_balanced_partition(lengths, 4)
        second = cost_balanced_partition(lengths.copy(), 4)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_partition_covers_all_rows_once(self):
        lengths = power_law_lengths(np.random.default_rng(7), 999)
        parts = cost_balanced_partition(lengths, 4)
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, np.arange(999))

    def test_beats_naive_blocks_on_skew(self):
        """Cost balancing wins where it should: skewed topologies."""
        rng = np.random.default_rng(3)
        lengths = power_law_lengths(rng, 4096)
        # Sort so the naive contiguous split is maximally lopsided.
        lengths = np.sort(lengths)[::-1].copy()
        balanced = partition_stats(
            lengths, cost_balanced_partition(lengths, 4)
        )
        naive = partition_stats(lengths, row_block_partition(len(lengths), 4))
        assert balanced["max_over_mean"] < naive["max_over_mean"]

    def test_2d_plan_tiles(self):
        rng = np.random.default_rng(11)
        a = power_law_csr(rng, 512, 384)
        plan = plan_shards(a, 4, strategy="2d")
        assert plan.strategy == "2d"
        kr, kc = plan.grid
        assert kr * kc == 4
        assert int(plan.loads.sum()) == a.nnz
        # Every device resolves to a (rows, col-range) tile.
        for d in range(4):
            rows, (lo, hi) = plan.device_tile(d)
            assert 0 <= lo < hi <= a.shape[1]
            assert rows.dtype == np.int64

    def test_bad_strategy_and_k(self):
        rng = np.random.default_rng(0)
        a = random_sparse(rng, 32, 32, 0.3)
        with pytest.raises(ValueError):
            plan_shards(a, 2, strategy="diagonal")
        with pytest.raises(ValueError):
            cost_balanced_partition(np.ones(8), 0)


# ----------------------------------------------------------------------
# ShardPlan caching in the lead context's plan cache
# ----------------------------------------------------------------------
class TestShardPlanCache:
    def test_store_version_is_9(self):
        # Shard plans are no longer persisted, and plan-field changes no
        # longer bump the version: the stored configs and sweep rows keep
        # the v9 envelope.
        assert PLAN_STORE_VERSION == 9

    def test_memory_tier_hit_on_second_call(self, rng):
        a = power_law_csr(rng, 128, 128)
        group = DeviceGroup(2)
        group.shard_plan(a)
        misses = group.lead.telemetry.cache_misses
        assert group.shard_plan(a) is not None
        assert group.lead.telemetry.cache_misses == misses  # memory hit


# ----------------------------------------------------------------------
# Sharded operators
# ----------------------------------------------------------------------
class TestShardedOps:
    def test_k1_cost_bit_identical(self, rng):
        a = power_law_csr(rng, 256, 256)
        group = DeviceGroup(1)
        sharded = sharded_spmm_cost(a, 64, group)
        single = ops.spmm_cost(a, 64, context=ops.ExecutionContext(V100))
        assert sharded.k == 1
        assert sharded.runtime_s == single.runtime_s  # exact, not approx
        assert sharded.exposed_comm_s == 0.0
        assert sharded.collectives == []

    def test_stack_depth_per_device_and_on_the_wire(self, rng):
        """``h`` stacks: each device costs its shard as one depth-h launch
        and every collective carries h times the bytes."""
        a = power_law_csr(rng, 256, 256)
        single = sharded_spmm_cost(a, 32, DeviceGroup(1), h=4)
        assert single.runtime_s == ops.spmm_cost(
            a, 32, h=4, context=ops.ExecutionContext(V100)
        ).runtime_s
        flat = sharded_spmm_cost(a, 32, DeviceGroup(2))
        group = DeviceGroup(2)
        deep = sharded_spmm_cost(a, 32, group, h=4)
        _, subs = group.shards(a)
        for sub, result in zip(subs, deep.per_device):
            assert result.runtime_s == ops.spmm_cost(
                sub, 32, h=4, context=ops.ExecutionContext(V100)
            ).runtime_s
        assert [c.nbytes for c in deep.collectives] == [
            4 * c.nbytes for c in flat.collectives
        ]

    def test_row_sharded_spmm_numerics_bit_identical(self, rng):
        a = power_law_csr(rng, 300, 200)
        b = rng.standard_normal((200, 32)).astype(np.float32)
        reference = ops.spmm(a, b, context=ops.ExecutionContext(V100))
        result = sharded_spmm(a, b, DeviceGroup(4))
        np.testing.assert_array_equal(result.output, reference.output)
        assert result.sharded.k == 4

    def test_2d_sharded_spmm_numerics_allclose(self, rng):
        a = power_law_csr(rng, 256, 240)
        b = rng.standard_normal((240, 16)).astype(np.float32)
        reference = ops.spmm(a, b, context=ops.ExecutionContext(V100))
        result = sharded_spmm(a, b, DeviceGroup(4), strategy="2d")
        np.testing.assert_allclose(
            result.output, reference.output, rtol=1e-5, atol=1e-5
        )

    def test_sharded_sddmm_numerics(self, rng):
        mask = power_law_csr(rng, 200, 200)
        lhs = rng.standard_normal((200, 24)).astype(np.float32)
        rhs = rng.standard_normal((200, 24)).astype(np.float32)
        reference = ops.sddmm(
            lhs, rhs, mask, context=ops.ExecutionContext(V100)
        )
        result = sharded_sddmm(lhs, rhs, mask, DeviceGroup(4))
        np.testing.assert_array_equal(
            result.output.values, reference.output.values
        )

    def test_overlap_model_accounting(self, rng):
        a = power_law_csr(rng, 512, 512)
        group = DeviceGroup(4)
        sharded = sharded_spmm_cost(a, 64, group)
        assert sharded.runtime_s == pytest.approx(
            sharded.max_compute_s + sharded.exposed_comm_s
        )
        assert 0.0 <= sharded.interconnect_bound_fraction < 1.0
        # Output collectives are fully exposed; input ones only past the
        # compute they can hide behind.
        assert sharded.exposed_comm_s >= sharded.output_comm_s
        assert sharded.exposed_comm_s <= (
            sharded.input_comm_s + sharded.output_comm_s
        )
        # Collectives land in the lead context's telemetry under the
        # interconnect kind as backend.
        totals = group.telemetry_snapshot()
        assert f"all_gather/{group.interconnect.kind}" in totals

    def test_sddmm_cost_interconnect_choice_matters(self, rng):
        a = power_law_csr(rng, 512, 512)
        nvlink = sharded_sddmm_cost(a, 64, DeviceGroup(4))
        pcie = sharded_sddmm_cost(
            a, 64, DeviceGroup(4, interconnect="pcie")
        )
        assert pcie.exposed_comm_s >= nvlink.exposed_comm_s


# ----------------------------------------------------------------------
# Per-device HBM accounting
# ----------------------------------------------------------------------
class TestPerDeviceMemory:
    def test_each_device_gets_its_own_allocator(self):
        group = DeviceGroup(3, memory=64 << 20)
        allocators = {id(ctx.memory) for ctx in group.contexts}
        assert len(allocators) == 3
        for ctx in group.contexts:
            assert ctx.memory.capacity == 64 << 20
        assert len(group.memory_snapshots()) == 3

    def test_sharded_dispatch_under_per_device_cap(self, rng):
        a = power_law_csr(rng, 512, 256)
        group = DeviceGroup(4, memory=256 << 20)
        sharded = sharded_spmm_cost(a, 64, group)
        assert sharded.runtime_s > 0
        for snapshot in group.memory_snapshots():
            assert snapshot is not None
            assert snapshot["peak_reserved_bytes"] <= 256 << 20

    def test_tiny_cap_raises_device_oom(self, rng):
        a = power_law_csr(rng, 512, 512)
        group = DeviceGroup(2, memory=4096)
        with pytest.raises(DeviceOOMError):
            sharded_spmm_cost(a, 256, group)


# ----------------------------------------------------------------------
# Per-device report rollup on a merged multi-device trace
# ----------------------------------------------------------------------
class TestDeviceRollup:
    def _traced_records(self, rng, k, process):
        tracer = Tracer(process=process)
        group = DeviceGroup(k, tracer=tracer)
        a = power_law_csr(rng, 256, 256)
        sharded_spmm_cost(a, 32, group)
        group.emit_memory_spans()
        return tracer.to_jsonl_records()

    def test_rollup_on_merged_trace(self, rng):
        # Two independently-traced sharded runs merged into one stream —
        # the multi-process shape a sharded sweep produces.
        merged = Tracer(process="driver")
        merged.merge_records(self._traced_records(rng, 4, "worker-a"))
        merged.merge_records(self._traced_records(rng, 2, "worker-b"))
        records = merged.to_jsonl_records()
        report = build_report(records)
        devices = report["devices"]
        assert devices is not None
        assert sorted(devices) == [0, 1, 2, 3]
        # Devices 0/1 appear in both runs, 2/3 only in the k=4 run.
        assert devices[0]["spans"] == 2
        assert devices[3]["spans"] == 1
        assert devices[0]["by_op"]["spmm"]["count"] == 2
        assert devices[0]["sim_s"] > 0
        assert devices[0]["peak_reserved_bytes"] > 0
        text = format_report(report)
        assert "per-device rollup" in text
        assert "spmm" in text

    def test_single_device_trace_has_no_rollup(self, rng):
        tracer = Tracer(process="plain")
        ctx = ops.ExecutionContext(V100, tracer=tracer)
        a = power_law_csr(rng, 64, 64)
        ops.spmm_cost(a, 16, context=ctx)
        report = build_report(tracer.to_jsonl_records())
        assert report["devices"] is None
        assert "per-device rollup" not in format_report(report)


# ----------------------------------------------------------------------
# Sweep integration
# ----------------------------------------------------------------------
def _specs(n):
    return [
        MatrixSpec(f"dist{i}", "synthetic", "l0", 512, 512, 0.85, 0.5, seed=i)
        for i in range(n)
    ]


class TestShardedSweep:
    def test_build_tasks_devices_dimension(self):
        tasks = build_tasks(_specs(2), ["sputnik"], n=[32], devices=[1, 4])
        assert len(tasks) == 4
        keys = {t.row_key for t in tasks}
        assert "dist0|sputnik|32" in keys
        assert "dist0|sputnik|32|d4" in keys

    def test_build_tasks_rejects_bad_devices(self):
        with pytest.raises(ValueError):
            build_tasks(_specs(1), ["sputnik"], devices=[0])

    def test_sharded_sweep_runs_and_resumes(self, tmp_path, rng):
        reset_worker_state()
        out = tmp_path / "rows.jsonl"
        rows, report = run_sweep(
            _specs(2), ["sputnik"], V100, n=[32], devices=[1, 2],
            store_path=tmp_path / "plans", out_path=out,
        )
        assert report.failed == 0
        assert len(rows) == 4
        sharded_rows = [r for r in rows if r["devices"] == 2]
        assert len(sharded_rows) == 2
        for row in sharded_rows:
            assert row["row_key"].endswith("|d2")
            assert "interconnect_bound" in row["telemetry"]

        reset_worker_state()
        resumed, resumed_report = run_sweep(
            _specs(2), ["sputnik"], V100, n=[32], devices=[1, 2],
            store_path=tmp_path / "plans", out_path=out, resume=True,
        )
        assert resumed_report.resumed == 4
        assert sorted(r["row_key"] for r in resumed) == sorted(
            r["row_key"] for r in rows
        )
        reset_worker_state()


# ----------------------------------------------------------------------
# Model-parallel Transformer layer
# ----------------------------------------------------------------------
class TestModelParallelTransformer:
    def _layer(self):
        return TransformerLayer(128, 8, 256, seed=3)

    def test_k1_bit_identical(self, rng):
        layer = self._layer()
        x = rng.standard_normal((64, 128)).astype(np.float32)
        reference = layer.forward(x, V100)
        out = layer.forward_sharded(x, DeviceGroup(1))
        np.testing.assert_array_equal(out, reference)
        assert layer.last_shard_report["comm_s"] == 0.0

    def test_k4_allclose_with_two_all_reduces(self, rng):
        layer = self._layer()
        x = rng.standard_normal((64, 128)).astype(np.float32)
        reference = layer.forward(x, V100)
        group = DeviceGroup(4)
        out = layer.forward_sharded(x, group)
        np.testing.assert_allclose(out, reference, rtol=1e-4, atol=1e-5)
        report = layer.last_shard_report
        assert report["k"] == 4
        assert report["comm_s"] > 0
        assert report["comm_bytes"] == 2 * 64 * 128 * 4
        assert len(report["per_device_compute_s"]) == 4
        assert report["runtime_s"] == pytest.approx(
            report["compute_s"] + report["comm_s"]
        )
        # All-reduces land in the lead context's telemetry.
        totals = group.telemetry_snapshot()
        assert f"all_reduce/{group.interconnect.kind}" in totals

    def test_indivisible_heads_rejected(self, rng):
        layer = self._layer()
        x = rng.standard_normal((64, 128)).astype(np.float32)
        with pytest.raises(ValueError):
            layer.forward_sharded(x, DeviceGroup(3))
