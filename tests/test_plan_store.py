"""Tests for the disk-backed persistent store (repro.ops.store) and its
integration with ExecutionContext: only searched configs are persisted;
plans stay in memory."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import ops
from repro.gpu import V100
from repro.ops.store import PLAN_STORE_VERSION, PlanStore
from tests.conftest import random_sparse


@pytest.fixture
def store(tmp_path) -> PlanStore:
    return PlanStore(tmp_path / "plans")


class TestPlanStoreBasics:
    def test_miss_then_hit_round_trip(self, store):
        key = ("spmm_config", "fingerprint", 64)
        assert store.fetch(key) == (None, "miss")
        store.save(key, {"tile": 4, "cost": 1.5})
        assert store.path_for(key).exists()
        assert store.fetch(key) == ({"tile": 4, "cost": 1.5}, "hit")
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.writes == 1

    def test_distinct_keys_distinct_entries(self, store):
        store.save(("a", 1), "first")
        store.save(("a", 2), "second")
        assert len(store) == 2
        assert store.fetch(("a", 1))[0] == "first"
        assert store.fetch(("a", 2))[0] == "second"

    def test_evict_and_clear(self, store):
        store.save(("k1",), 1)
        store.save(("k2",), 2)
        store.evict(("k1",))
        assert not store.path_for(("k1",)).exists()
        assert store.path_for(("k2",)).exists()
        store.clear()
        assert len(store) == 0

    def test_evict_missing_is_noop(self, store):
        store.evict(("nope",))
        assert store.stats.evictions == 0

    def test_hit_rate(self, store):
        assert store.stats.hit_rate == 0.0
        store.save(("k",), 1)
        store.fetch(("k",))
        store.fetch(("other",))
        assert store.stats.hit_rate == pytest.approx(0.5)

    def test_no_leftover_tmp_files(self, store):
        """Atomic writes must leave only final entries in the directory."""
        for i in range(20):
            store.save(("k", i), list(range(i)))
        leftovers = [
            p for p in store.root.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []


class TestCorruptionAndVersioning:
    def test_truncated_entry_evicted_and_missed(self, store):
        key = ("victim",)
        path = store.save(key, {"plan": 1})
        path.write_bytes(path.read_bytes()[:10])
        value, status = store.fetch(key)
        assert value is None
        assert status == "corrupt"
        assert not path.exists(), "corrupt entry must be unlinked"
        assert store.stats.evictions == 1
        assert store.stats.misses == 1

    def test_garbage_entry_evicted(self, store):
        key = ("victim",)
        path = store.save(key, "value")
        path.write_bytes(b"not a pickle at all")
        assert store.fetch(key) == (None, "corrupt")
        assert not path.exists()

    def test_payload_checksum_detects_bit_flip(self, store):
        key = ("victim",)
        path = store.save(key, np.arange(100))
        envelope = pickle.loads(path.read_bytes())
        payload = bytearray(envelope["payload"])
        payload[len(payload) // 2] ^= 0xFF
        envelope["payload"] = bytes(payload)
        path.write_bytes(pickle.dumps(envelope))
        value, status = store.fetch(key)
        assert value is None
        assert status == "corrupt"

    def test_corruption_is_self_healing(self, store):
        key = ("victim",)
        path = store.save(key, "good")
        path.write_bytes(b"junk")
        assert store.fetch(key) == (None, "corrupt")
        store.save(key, "rebuilt")
        assert store.fetch(key) == ("rebuilt", "hit")

    def test_version_bump_invalidates_without_evicting(self, tmp_path):
        """Another version's entries read as misses but stay on disk, so
        two code versions can share a directory during a migration."""
        old = PlanStore(tmp_path, version=PLAN_STORE_VERSION)
        old.save(("k",), "v1-value")
        new = PlanStore(tmp_path, version=PLAN_STORE_VERSION + 1)
        assert new.fetch(("k",)) == (None, "miss")
        assert old.fetch(("k",)) == ("v1-value", "hit")

    def test_key_digest_depends_on_version(self, tmp_path):
        a = PlanStore(tmp_path, version=1)
        b = PlanStore(tmp_path, version=2)
        assert a.key_digest(("k",)) != b.key_digest(("k",))


class TestContextIntegration:
    def test_heuristic_costing_writes_no_store_files(self, tmp_path, rng):
        """Plans are rebuilt from the memoized analysis, never persisted:
        a store-backed context costing heuristic Sputnik ops leaves the
        store untouched."""
        a = random_sparse(rng, 96, 64, 0.2)
        ctx = ops.ExecutionContext(V100, store=tmp_path / "store")
        ops.spmm_cost(a, 32, V100, context=ctx)
        ops.spmm_cost(a, 32, V100, h=4, context=ctx)
        ops.sddmm_cost(a, 32, V100, context=ctx)
        assert len(ctx.store) == 0
        assert ctx.store.stats.as_dict() == {
            "hits": 0, "misses": 0, "writes": 0, "evictions": 0,
        }
        assert ctx.telemetry.store_misses == 0

    def test_tuned_costing_writes_only_config_entries(self, tmp_path, rng):
        a = random_sparse(rng, 64, 48, 0.3)
        ctx = ops.ExecutionContext(V100, store=tmp_path / "store")
        ops.spmm_cost(a, 32, V100, context=ctx, selector="tuned")
        ops.sddmm_cost(a, 16, V100, context=ctx, selector="tuned")
        fp = ops.matrix_fingerprint(a)
        expected = {
            ctx.store.path_for((V100, "spmm_config", fp, 32, "fp32", "tuned")),
            ctx.store.path_for((V100, "sddmm_config", fp, 16, "fp32", "tuned")),
        }
        assert set(ctx.store.root.glob("*.plan")) == expected

    def test_cross_context_round_trip_identical_results(self, tmp_path, rng):
        """An op whose tuned config is served from a fresh context via the
        store must reproduce the original ExecutionResult exactly."""
        a = random_sparse(rng, 96, 64, 0.2)
        cold = ops.ExecutionContext(V100, store=tmp_path / "store")
        first = ops.spmm_cost(a, 32, V100, context=cold, selector="tuned")
        assert cold.telemetry.store_misses > 0
        assert cold.store.stats.writes > 0

        # A brand-new context simulates a different process: its in-memory
        # cache is empty, so the tuned config must come from disk.
        warm = ops.ExecutionContext(V100, store=tmp_path / "store")
        second = ops.spmm_cost(a, 32, V100, context=warm, selector="tuned")
        assert warm.telemetry.store_hits > 0
        assert warm.telemetry.store_misses == 0
        assert second.runtime_s == first.runtime_s
        assert second.flops == first.flops
        assert second.dram_bytes == first.dram_bytes
        assert second.n_blocks == first.n_blocks

    def test_memory_cache_checked_before_store(self, tmp_path, rng):
        a = random_sparse(rng, 64, 64, 0.2)
        ctx = ops.ExecutionContext(V100, store=tmp_path / "store")
        ops.spmm_cost(a, 32, V100, context=ctx, selector="tuned")
        lookups = ctx.store.stats.hits + ctx.store.stats.misses
        ops.spmm_cost(a, 32, V100, context=ctx, selector="tuned")
        # Second call is an in-memory hit; the store is not consulted again.
        assert ctx.store.stats.hits + ctx.store.stats.misses == lookups
        assert ctx.telemetry.cache_hits > 0

    def test_corrupt_store_entry_recomputed(self, tmp_path, rng):
        a = random_sparse(rng, 64, 64, 0.2)
        ctx = ops.ExecutionContext(V100, store=tmp_path / "store")
        baseline = ops.spmm_cost(a, 32, V100, context=ctx, selector="tuned")
        assert len(ctx.store) > 0
        for path in ctx.store.root.glob("*.plan"):
            path.write_bytes(b"bit rot")
        fresh = ops.ExecutionContext(V100, store=tmp_path / "store")
        again = ops.spmm_cost(a, 32, V100, context=fresh, selector="tuned")
        assert again.runtime_s == baseline.runtime_s
        assert fresh.telemetry.store_evictions > 0

    def test_store_counters_in_snapshot_and_summary(self, tmp_path, rng):
        a = random_sparse(rng, 64, 64, 0.2)
        ctx = ops.ExecutionContext(V100, store=tmp_path / "store")
        ops.spmm_cost(a, 32, V100, context=ctx, selector="tuned")
        snap = ctx.telemetry_snapshot()
        totals = {k: 0 for k in ("store_hits", "store_misses", "store_evictions")}
        for counters in snap.values():
            for k in totals:
                totals[k] += counters[k]
        assert totals["store_misses"] > 0
        assert "store" in ctx.telemetry.summary()

    def test_attach_store_accepts_path_and_none(self, tmp_path):
        ctx = ops.ExecutionContext(V100)
        assert ctx.store is None
        ctx.attach_store(tmp_path / "s")
        assert isinstance(ctx.store, PlanStore)
        ctx.attach_store(None)
        assert ctx.store is None

    def test_no_store_no_counters(self, rng):
        a = random_sparse(rng, 64, 64, 0.2)
        ctx = ops.ExecutionContext(V100)
        ops.spmm_cost(a, 32, V100, context=ctx, selector="tuned")
        assert ctx.telemetry.store_hits == 0
        assert ctx.telemetry.store_misses == 0


class TestBatchedPlanEnvelope:
    """A stacked (depth-``h``) cost persists only its searched config,
    whose key has no ``h``; entries written under an older store version
    must self-heal instead of deserializing."""

    def test_version_covers_batched_envelope(self):
        assert PLAN_STORE_VERSION >= 3

    def test_stale_version_envelope_self_heals(self, tmp_path, rng):
        """Rewriting every entry as the previous envelope version makes
        them read as corrupt: evicted and rebuilt, never deserialized."""
        a = random_sparse(rng, 96, 64, 0.2)
        store_dir = tmp_path / "store"
        seeded = ops.ExecutionContext(V100, store=store_dir)
        baseline = ops.spmm_cost(
            a, 32, V100, h=4, context=seeded, selector="tuned"
        )
        assert seeded.store.stats.writes > 0

        for path in store_dir.glob("*.plan"):
            envelope = pickle.loads(path.read_bytes())
            envelope["version"] = PLAN_STORE_VERSION - 1
            path.write_bytes(pickle.dumps(envelope))

        fresh = ops.ExecutionContext(V100, store=store_dir)
        again = ops.spmm_cost(
            a, 32, V100, h=4, context=fresh, selector="tuned"
        )
        assert again.runtime_s == baseline.runtime_s
        assert again.n_blocks == baseline.n_blocks
        assert fresh.telemetry.store_evictions > 0


class TestDefaultContextInstall:
    def test_set_default_context_installs_and_returns(self, tmp_path):
        try:
            ctx = ops.ExecutionContext(V100, store=tmp_path / "store")
            assert ops.set_default_context(ctx) is ctx
            assert ops.default_context(V100) is ctx
        finally:
            ops.reset_default_contexts()
