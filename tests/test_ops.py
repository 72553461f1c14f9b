"""Tests for the repro.ops dispatch layer: plan-cache invariants, the
kernel registry, telemetry, and bitwise equivalence with the core kernels'
plan and execute functions called directly."""

import numpy as np
import pytest

from repro import core, ops
from repro.baselines import cusparse_spmm
from repro.core import SddmmConfig, SpmmConfig
from repro.gpu import GTX1080, V100
from repro.ops import ExecutionContext, PlanCache, matrix_fingerprint
from repro.sparse import CSRMatrix
from repro.sparse.csc import csr_to_csc
from repro.tune import select_sddmm_config, select_spmm_config
from tests.conftest import random_sparse


@pytest.fixture
def ctx():
    return ExecutionContext(V100)


def dense_batch(rng, rows, cols):
    return rng.standard_normal((rows, cols)).astype(np.float32)


class TestPlanCacheInvariants:
    def test_repeat_call_hits_and_is_bitwise_identical(self, rng, ctx):
        a = random_sparse(rng, 96, 64, 0.3)
        b = dense_batch(rng, 64, 32)
        first = ops.spmm(a, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0 and stats.cache_misses == 1

        second = ops.spmm(a, b, context=ctx)
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert (second.output == first.output).all()
        assert second.execution.runtime_s == first.execution.runtime_s

    def test_cached_result_matches_uncached_core_call(self, rng, ctx):
        """The dispatch layer must not perturb numerics or simulated cost."""
        a = random_sparse(rng, 96, 64, 0.3)
        b = dense_batch(rng, 64, 32)
        plan = core.plan_spmm(a, 32, V100, select_spmm_config(a, 32))
        direct = core.execute_spmm(plan, a, b)
        for _ in range(2):  # miss, then hit
            routed = ops.spmm(a, b, context=ctx)
            assert (routed.output == direct.output).all()
            assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_equal_topology_rebuilt_matrix_still_hits(self, rng, ctx):
        """Identity is structural (content hash), not Python object id."""
        dense = (rng.random((64, 48)) < 0.3) * rng.standard_normal((64, 48))
        a1 = CSRMatrix.from_dense(dense.astype(np.float32))
        a2 = CSRMatrix.from_dense(dense.astype(np.float32))
        b = dense_batch(rng, 48, 16)
        ops.spmm(a1, b, context=ctx)
        ops.spmm(a2, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 1

    def test_value_update_keeps_plan(self, rng, ctx):
        """Plans depend on structure only: new values on the same topology
        reuse the plan but produce the new numerics."""
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        ops.spmm(a, b, context=ctx)
        a2 = a.with_values(a.values * 2.0)
        result = ops.spmm(a2, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 1
        assert np.allclose(result.output, a2.to_dense() @ b, atol=1e-4)

    def test_topology_mutation_invalidates(self, rng, ctx):
        a = CSRMatrix.from_dense(np.eye(32, dtype=np.float32))
        b = dense_batch(rng, 32, 16)
        ops.spmm(a, b, context=ctx)
        fp_before = matrix_fingerprint(a)
        # Move row 0's nonzero from column 0 to column 1 in place, then
        # re-derive the memoized identity as the in-place-edit contract asks.
        a.column_indices[0] = 1
        a.invalidate()
        assert matrix_fingerprint(a) != fp_before
        ops.spmm(a, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0 and stats.cache_misses == 2

    def test_invalidation_evicts_baseline_costs(self, rng):
        """Baseline cost entries are keyed on the topology like plans, so
        invalidating it evicts them and frees their device bytes."""
        ctx = ExecutionContext(V100, memory=V100.dram_capacity)
        a = random_sparse(rng, 128, 96, 0.3)
        for backend in ("sputnik", "cusparse", "merge"):
            ops.spmm_cost(a, 32, backend=backend, context=ctx)
        ops.sddmm_cost(a, 32, backend="cusparse", context=ctx)
        fp = matrix_fingerprint(a)
        assert ctx.invalidate_topology(fp) == 5
        assert [k for k in ctx.plans.keys() if fp in k] == []
        assert ctx.memory_snapshot()["resident_plans"] == 0

    def test_different_batch_width_is_a_different_plan(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        ops.spmm(a, dense_batch(rng, 48, 16), context=ctx)
        ops.spmm(a, dense_batch(rng, 48, 32), context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0 and stats.cache_misses == 2

    def test_explicit_config_keys_the_plan(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        ops.spmm(a, b, config=SpmmConfig(vector_width=1, block_items_x=32), context=ctx)
        ops.spmm(a, b, config=SpmmConfig(vector_width=2, block_items_x=16), context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_misses == 2

    def test_devices_do_not_share_plans(self, rng):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        v100 = ExecutionContext(V100)
        gtx = ExecutionContext(GTX1080)
        r1 = ops.spmm(a, b, context=v100)
        r2 = ops.spmm(a, b, context=gtx)
        assert gtx.telemetry.stats[("spmm", "sputnik")].cache_misses == 1
        assert r1.execution.runtime_s != r2.execution.runtime_s

    def test_sddmm_softmax_csc_and_matmul_plans_cache(self, rng, ctx):
        mask = random_sparse(rng, 64, 64, 0.25)
        lhs = dense_batch(rng, 64, 32)
        rhs = dense_batch(rng, 64, 32)
        for _ in range(2):
            ops.sddmm(lhs, rhs, mask, context=ctx)
            ops.sparse_softmax(mask, context=ctx)
            ops.csc_spmm(dense_batch(rng, 8, 64), csr_to_csc(mask), context=ctx)
            ops.matmul(lhs, rhs.T, context=ctx)
        for op, backend in [
            ("sddmm", "sputnik"),
            ("sparse_softmax", "sputnik"),
            ("csc_spmm", "sputnik"),
            ("matmul", "cublas"),
        ]:
            stats = ctx.telemetry.stats[(op, backend)]
            assert stats.cache_hits >= 1, (op, backend)

    def test_lru_eviction_bounds_the_cache(self, rng):
        ctx = ExecutionContext(V100, max_plans=2)
        a = random_sparse(rng, 64, 48, 0.3)
        for n in (8, 16, 24, 32):
            ops.spmm_cost(a, n, context=ctx)
        assert len(ctx.plans) <= 2
        # The oldest entry was evicted: calling it again misses.
        ops.spmm_cost(a, 8, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.cache_hits == 0


class TestOperatorEquivalence:
    """ops.* must reproduce the directly called plan and execute functions
    bit for bit."""

    def test_sddmm_matches_core(self, rng, ctx):
        mask = random_sparse(rng, 64, 48, 0.25)
        lhs = dense_batch(rng, 64, 16)
        rhs = dense_batch(rng, 48, 16)
        plan = core.plan_sddmm(mask, 16, V100, select_sddmm_config(16))
        direct = core.execute_sddmm(plan, lhs, rhs, mask)
        routed = ops.sddmm(lhs, rhs, mask, context=ctx)
        assert (routed.output.values == direct.output.values).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_sparse_softmax_matches_core(self, rng, ctx):
        a = random_sparse(rng, 48, 48, 0.3)
        plan = core.plan_sparse_softmax(a, V100)
        direct = core.execute_sparse_softmax(plan, a, scale=0.5)
        routed = ops.sparse_softmax(a, scale=0.5, context=ctx)
        assert (routed.output.values == direct.output.values).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_csc_spmm_matches_core(self, rng, ctx):
        a = csr_to_csc(random_sparse(rng, 48, 64, 0.3))
        b = dense_batch(rng, 16, 48)
        # The config the dispatch resolves, taken from an independent context.
        config = ExecutionContext(V100).spmm_config(a, 16)
        direct = core.execute_spmm_csc(
            core.plan_spmm_csc(a, 16, V100, config), b, a
        )
        routed = ops.csc_spmm(b, a, context=ctx)
        assert (routed.output == direct.output).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_cusparse_backend_matches_baseline(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        direct = cusparse_spmm(a, b, V100)
        routed = ops.spmm(a, b, backend="cusparse", context=ctx)
        assert (routed.output == direct.output).all()
        assert routed.execution.runtime_s == direct.execution.runtime_s

    def test_cost_paths_match_run_paths(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        run = ops.spmm(a, b, context=ctx)
        cost = ops.spmm_cost(a, 16, context=ctx)
        assert cost.runtime_s == run.execution.runtime_s

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_matmul_takes_transposed_views(self, rng, dtype):
        """A non-contiguous operand goes to BLAS as a view: the output
        matches the contiguous call, the costed (m, n, k) GEMM is the same,
        and fp16 operands still return fp16."""
        w = dense_batch(rng, 24, 40).astype(dtype)
        x = dense_batch(rng, 56, 40).astype(dtype)
        view = ops.matmul(w, x.T, context=ExecutionContext(V100))
        copied = ops.matmul(
            w, np.ascontiguousarray(x.T), context=ExecutionContext(V100)
        )
        assert not x.T.flags.c_contiguous
        assert view.output.dtype == np.dtype(dtype)
        assert view.output.shape == (24, 56)
        tol = 1e-5 if dtype == np.float32 else 1e-2
        np.testing.assert_allclose(
            view.output.astype(np.float32),
            copied.output.astype(np.float32),
            rtol=tol, atol=tol,
        )
        assert view.execution.runtime_s == copied.execution.runtime_s

    def test_oracle_selector_matches_oracle_config(self, rng, ctx):
        from repro.tune import oracle_spmm_config

        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 20)
        config = oracle_spmm_config(a, 20, V100)
        direct = core.plan_spmm(a, 20, V100, config)
        routed = ops.spmm(a, b, selector="oracle", context=ctx)
        assert routed.execution.runtime_s == direct.execution.runtime_s


class TestRegistry:
    def test_available_lists_builtins(self):
        spmm_backends = ops.available("spmm")
        assert {"sputnik", "cusparse", "merge", "aspt", "dense"} <= set(
            spmm_backends
        )
        assert "matmul/cublas" in ops.available()

    def test_unknown_backend_is_a_helpful_error(self):
        with pytest.raises(KeyError, match="available"):
            ops.get_impl("spmm", "nope")
        with pytest.raises(KeyError, match="unknown operator"):
            ops.get_impl("conv2d", "sputnik")

    def test_baseline_backends_reject_sputnik_configs(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        with pytest.raises(ValueError, match="config"):
            ops.spmm(a, b, config=SpmmConfig(), backend="cusparse", context=ctx)
        with pytest.raises(ValueError, match="config"):
            ops.sddmm_cost(a, 16, config=SddmmConfig(), backend="aspt", context=ctx)

    def test_custom_backend_registration(self, rng, ctx):
        calls = []

        def fake_run(c, a, b, config, selector):
            calls.append(a)
            return core.execute_spmm(c.spmm_plan(a, b.shape[1]), a, b)

        from repro.ops import registry

        ops.register(
            ops.KernelImpl("spmm", "test_fake", "test backend", run=fake_run)
        )
        try:
            a = random_sparse(rng, 32, 32, 0.3)
            ops.spmm(a, dense_batch(rng, 32, 8), backend="test_fake", context=ctx)
            assert calls == [a]
        finally:
            registry._REGISTRY.pop(("spmm", "test_fake"), None)


class TestContextsAndTelemetry:
    def test_default_context_is_shared_per_device(self):
        ops.reset_default_contexts()
        try:
            assert ops.default_context(V100) is ops.default_context(V100)
            assert ops.default_context(V100) is not ops.default_context(GTX1080)
        finally:
            ops.reset_default_contexts()

    def test_device_and_context_must_agree(self, rng, ctx):
        a = random_sparse(rng, 32, 32, 0.3)
        with pytest.raises(ValueError, match="conflicts"):
            ops.spmm(a, dense_batch(rng, 32, 8), GTX1080, context=ctx)

    def test_telemetry_accumulates_simulated_time(self, rng, ctx):
        a = random_sparse(rng, 64, 48, 0.3)
        b = dense_batch(rng, 48, 16)
        r1 = ops.spmm(a, b, context=ctx)
        r2 = ops.spmm(a, b, context=ctx)
        stats = ctx.telemetry.stats[("spmm", "sputnik")]
        assert stats.launches == 2
        assert stats.simulated_seconds == pytest.approx(
            r1.execution.runtime_s + r2.execution.runtime_s
        )
        assert "spmm/sputnik" in ctx.telemetry.summary()
        assert ctx.telemetry.launches == 2

    def test_invalid_selector_rejected(self, rng, ctx):
        a = random_sparse(rng, 32, 32, 0.3)
        with pytest.raises(ValueError, match="selector"):
            ops.spmm(a, dense_batch(rng, 32, 8), selector="magic", context=ctx)


class TestFingerprintAndCacheUnits:
    def test_fingerprint_ignores_values(self, rng):
        a = random_sparse(rng, 32, 32, 0.3)
        assert matrix_fingerprint(a) == matrix_fingerprint(
            a.with_values(a.values * 3.0)
        )

    def test_fingerprint_distinguishes_dtype(self, rng):
        a = random_sparse(rng, 32, 32, 0.3)
        assert matrix_fingerprint(a) != matrix_fingerprint(a.astype(np.float16))

    def test_fingerprint_distinguishes_csr_from_csc(self, rng):
        a = random_sparse(rng, 32, 32, 0.3)
        assert matrix_fingerprint(a) != matrix_fingerprint(csr_to_csc(a))

    def test_fingerprint_rejects_dense(self):
        with pytest.raises(TypeError):
            matrix_fingerprint(np.eye(4))

    def test_plan_cache_lru_order(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert len(cache) == 2

    def test_plan_cache_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)
