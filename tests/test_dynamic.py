"""Dynamic sparsity: drop/grow mutation and plan repair.

Covers the RigL-style mutation (constant nnz, shared offsets, seeded
determinism), the fingerprint-delta repair path (repaired SpMM/SDDMM
plans equal to cold plans field for field and byte for byte across
dtypes and depths, repair chains, sharded K in {1, 4}), the
``TopologyDelta`` shape, the repair lineage in the flight ring, the
``SparseLinear`` topology-edit wiring (repairable deltas +
generation-based invalidation), the sweep's ``mutations=`` dimension
(row-key back-compat, composing with ``h`` and ``devices``), and chaos: an
injected mid-repair fault must fall back to a cold build with identical
results, never a corrupt plan.
"""

import dataclasses

import numpy as np
import pytest

from repro import ops
from repro.bench import sweep as sweep_mod
from repro.bench.sweep import build_tasks, run_sweep
from repro.core.repair import TopologyDelta
from repro.datasets import MatrixSpec
from repro.dist import DeviceGroup, plan_shards, repair_shard_plan, sharded_spmm_cost
from repro.gpu import V100
from repro.gpu.allocator import estimate_nbytes
from repro.nn import DropGrowSchedule, SparseLinear, drop_grow_step, drop_grow_update, select_rows
from repro.obs.flight import FlightRecorder
from repro.ops import matrix_fingerprint
from repro.reliability.errors import PlanRepairError
from repro.reliability.injector import FaultInjector, FaultSpec

from .conftest import random_sparse


def _mutate(weight, rate=0.1, fraction=0.3, seed=99):
    rng = np.random.default_rng(seed)
    grad = rng.standard_normal(tuple(weight.shape)).astype(np.float32)
    rows = select_rows(weight, rate, rng)
    return drop_grow_update(weight, grad, rows, fraction)


def _eq(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and bool(np.array_equal(a, b))
        )
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            _eq(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_eq(x, y) for x, y in zip(a, b))
        )
    return bool(a == b)


def assert_plans_equal(repaired, cold):
    """Field-by-field bit-identity."""
    assert type(repaired) is type(cold)
    for f in dataclasses.fields(repaired):
        assert _eq(getattr(repaired, f.name), getattr(cold, f.name)), f.name


class TestDropGrow:
    def test_mutation_invariants(self, rng):
        w = random_sparse(rng, 128, 96, 0.2)
        child, delta = _mutate(w, rate=0.2)
        assert child.nnz == w.nnz
        assert child.row_offsets is w.row_offsets  # lengths preserved
        assert delta.parent == matrix_fingerprint(w)
        assert delta.child == matrix_fingerprint(child)
        assert delta.rows.size > 0
        edited = set(delta.rows.tolist())
        for i in range(w.n_rows):
            s, e = int(w.row_offsets[i]), int(w.row_offsets[i + 1])
            cols = child.column_indices[s:e]
            assert np.all(np.diff(cols) > 0) or cols.size <= 1  # sorted, unique
            if i not in edited:
                np.testing.assert_array_equal(cols, w.column_indices[s:e])
                np.testing.assert_array_equal(
                    child.values[s:e], w.values[s:e]
                )

    def test_grown_values_are_zero_and_dropped_are_smallest(self, rng):
        w = random_sparse(rng, 64, 64, 0.3)
        child, delta = _mutate(w, rate=0.5, fraction=0.4)
        for i in delta.rows.tolist():
            s, e = int(w.row_offsets[i]), int(w.row_offsets[i + 1])
            parent_cols = set(w.column_indices[s:e].tolist())
            new_cols = child.column_indices[s:e]
            grown = [
                j for j, c in enumerate(new_cols.tolist())
                if c not in parent_cols
            ]
            assert all(child.values[s:e][j] == 0.0 for j in grown)
            # Survivors' magnitudes dominate the dropped ones.
            kept = np.abs(
                [v for c, v in zip(w.column_indices[s:e], w.values[s:e])
                 if c in set(new_cols.tolist())]
            )
            dropped = np.abs(
                [v for c, v in zip(w.column_indices[s:e], w.values[s:e])
                 if c not in set(new_cols.tolist())]
            )
            if kept.size and dropped.size:
                assert dropped.max() <= kept.min() + 1e-12

    def test_deterministic(self, rng):
        w = random_sparse(rng, 96, 96, 0.2)
        c1, d1 = _mutate(w, seed=5)
        c2, d2 = _mutate(w, seed=5)
        np.testing.assert_array_equal(c1.column_indices, c2.column_indices)
        np.testing.assert_array_equal(c1.values, c2.values)
        assert d1.child == d2.child

    def test_fp16_preserves_dtype(self, rng):
        w = random_sparse(rng, 64, 64, 0.3, dtype=np.float16)
        child, _ = _mutate(w, rate=0.3)
        assert child.values.dtype == np.float16
        assert child.column_indices.dtype == w.column_indices.dtype

    def test_grad_shape_mismatch_rejected(self, rng):
        w = random_sparse(rng, 32, 32, 0.3)
        with pytest.raises(ValueError, match="grad shape"):
            drop_grow_update(
                w, np.zeros((16, 32), np.float32),
                np.array([0], np.int64), 0.3,
            )


class TestSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            DropGrowSchedule(frequency=0)
        with pytest.raises(ValueError):
            DropGrowSchedule(initial_fraction=0.0)
        with pytest.raises(ValueError):
            DropGrowSchedule(row_fraction=1.5)

    def test_update_steps_and_cosine_decay(self):
        s = DropGrowSchedule(frequency=10, total_steps=100,
                             initial_fraction=0.3)
        assert not s.is_update_step(0)
        assert s.is_update_step(10)
        assert not s.is_update_step(15)
        assert not s.is_update_step(110)  # past total_steps
        assert s.fraction(0) == pytest.approx(0.3)
        assert s.fraction(50) == pytest.approx(0.15)
        assert s.fraction(100) == pytest.approx(0.0, abs=1e-12)

    def test_off_schedule_step_is_noop(self, rng):
        layer = SparseLinear(random_sparse(rng, 32, 32, 0.3))
        s = DropGrowSchedule(frequency=100)
        grad = np.zeros((32, 32), np.float32)
        assert drop_grow_step(layer, grad, s, step=3) is None


class TestPlanRepair:
    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_spmm_sddmm_repair_bit_identical(self, rng, dtype):
        parent = random_sparse(rng, 128, 128, 0.15, dtype=dtype)
        child, delta = _mutate(parent, rate=0.1)
        ctx_r = ops.ExecutionContext(V100)
        ctx_r.spmm_plan(parent, 16)
        ctx_r.sddmm_plan(parent, 16)
        ctx_r.register_topology_delta(delta)
        ctx_c = ops.ExecutionContext(V100)
        assert_plans_equal(
            ctx_r.spmm_plan(child, 16), ctx_c.spmm_plan(child, 16)
        )
        assert_plans_equal(
            ctx_r.sddmm_plan(child, 16), ctx_c.sddmm_plan(child, 16)
        )
        assert ctx_r.telemetry.plan_repairs == 2
        assert ctx_r.telemetry.plan_repair_rows == 2 * delta.rows.size
        b = rng.standard_normal((128, 16)).astype(dtype)
        np.testing.assert_array_equal(
            ops.spmm(child, b, context=ctx_r).output,
            ops.spmm(child, b, context=ctx_c).output,
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    @pytest.mark.parametrize("h", [1, 4])
    @pytest.mark.parametrize("op", ["spmm", "sddmm"])
    def test_repaired_plan_is_cold_plan(self, rng, op, h, dtype):
        """A repaired plan equals a cold one field for field and carries
        exactly the bytes a cold one does (nothing repair-only)."""
        parent = random_sparse(rng, 96, 80, 0.2, dtype=dtype)
        child, delta = _mutate(parent, rate=0.1)
        ctx = ops.ExecutionContext(V100)
        config = getattr(ctx, f"{op}_config")(parent, 16)
        plan_for = getattr(ctx, f"{op}_plan")
        plan_for(parent, 16, config, h=h)
        ctx.register_topology_delta(delta)
        repaired = plan_for(child, 16, config, h=h)
        cold = getattr(ops.ExecutionContext(V100), f"{op}_plan")(
            child, 16, config, h=h
        )
        assert ctx.telemetry.plan_repairs == 1
        assert_plans_equal(repaired, cold)
        assert estimate_nbytes(repaired) == estimate_nbytes(cold)

    def test_topology_delta_fields(self):
        assert [f.name for f in dataclasses.fields(TopologyDelta)] == [
            "parent", "child", "rows",
        ]

    def test_repair_chain(self, rng):
        """Each repaired plan becomes the next mutation's ancestor."""
        work = random_sparse(rng, 96, 96, 0.2)
        ctx = ops.ExecutionContext(V100)
        ctx.spmm_plan(work, 8)
        for step in range(4):
            child, delta = _mutate(work, rate=0.1, seed=step)
            ctx.register_topology_delta(delta)
            repaired = ctx.spmm_plan(child, 8)
            cold = ops.ExecutionContext(V100).spmm_plan(child, 8)
            assert_plans_equal(repaired, cold)
            work = child
        assert ctx.telemetry.plan_repairs == 4

    def test_unregistered_mutation_cold_builds(self, rng):
        parent = random_sparse(rng, 64, 64, 0.2)
        child, _ = _mutate(parent)
        ctx = ops.ExecutionContext(V100)
        ctx.spmm_plan(parent, 8)
        ctx.spmm_plan(child, 8)
        assert ctx.telemetry.plan_repairs == 0

    def test_repair_lineage_in_flight_event(self, rng, tmp_path, monkeypatch):
        # An explicit recorder keeps the event even with the env ring off.
        monkeypatch.setenv("REPRO_FLIGHT", "off")
        parent = random_sparse(rng, 64, 64, 0.2)
        child, delta = _mutate(parent)
        ctx = ops.ExecutionContext(
            V100, store=tmp_path, flight=FlightRecorder()
        )

        def repairs():
            return [
                dict(attrs)
                for kind, _name, _sim, attrs in ctx.flight.signature()
                if kind == "plan_repair"
            ]

        ctx.spmm_plan(parent, 8)
        assert repairs() == []  # a cold build records no lineage
        ctx.register_topology_delta(delta)
        ctx.spmm_plan(child, 8)
        (lineage,) = repairs()
        assert lineage["parent"] == delta.parent
        assert lineage["child"] == delta.child
        assert lineage["rows"] == delta.rows.size
        # The lineage lives in the ring; the store receives no plan.
        assert len(ctx.store) == 0

    def test_sharded_repair_k4(self, rng):
        parent = random_sparse(rng, 256, 128, 0.15)
        child, delta = _mutate(parent, rate=0.1)
        group_r = DeviceGroup(4)
        assert sharded_spmm_cost(parent, 16, group_r).runtime_s > 0
        group_r.register_topology_delta(delta)
        cost_r = sharded_spmm_cost(child, 16, group_r).runtime_s
        cost_c = sharded_spmm_cost(child, 16, DeviceGroup(4)).runtime_s
        assert cost_r == cost_c
        assert group_r.lead.telemetry.plan_repairs > 0

    def test_sharded_repair_k1_matches(self, rng):
        parent = random_sparse(rng, 128, 96, 0.2)
        child, delta = _mutate(parent)
        group = DeviceGroup(1)
        sharded_spmm_cost(parent, 8, group)
        group.register_topology_delta(delta)
        assert (
            sharded_spmm_cost(child, 8, group).runtime_s
            == sharded_spmm_cost(child, 8, DeviceGroup(1)).runtime_s
        )

    def test_repair_shard_plan_bit_identical(self, rng):
        parent = random_sparse(rng, 256, 128, 0.15)
        child, delta = _mutate(parent, rate=0.1)
        for strategy in ("row", "2d"):
            ancestor = plan_shards(parent, 4, strategy)
            repaired = repair_shard_plan(ancestor, child, delta)
            cold = plan_shards(child, 4, strategy)
            assert_plans_equal(repaired, cold)

    def test_repair_shard_plan_rejects_bad_ancestors(self, rng):
        parent = random_sparse(rng, 64, 64, 0.2)
        child, delta = _mutate(parent)
        plan = plan_shards(parent, 2)
        small = random_sparse(rng, 32, 64, 0.2)
        with pytest.raises(PlanRepairError, match="row mismatch"):
            repair_shard_plan(plan, small, delta)


class TestChaos:
    def test_injected_repair_fault_falls_back_cold(self, rng):
        parent = random_sparse(rng, 96, 96, 0.2)
        child, delta = _mutate(parent)
        ctx = ops.ExecutionContext(V100)
        ctx.injector = FaultInjector(
            [FaultSpec(kind="repair", every=1)], seed=7
        )
        ctx.spmm_plan(parent, 8)
        ctx.register_topology_delta(delta)
        survived = ctx.spmm_plan(child, 8)
        assert ctx.telemetry.plan_repairs == 0  # repair never completed
        assert len(ctx.injector.faults_of_kind("repair")) >= 1
        cold = ops.ExecutionContext(V100).spmm_plan(child, 8)
        assert_plans_equal(survived, cold)

    def test_poisoned_ancestor_falls_back_cold(self, rng):
        parent = random_sparse(rng, 96, 96, 0.2)
        child, delta = _mutate(parent)
        ctx = ops.ExecutionContext(V100)
        ctx.spmm_plan(parent, 8)
        key = ("spmm", delta.parent, 8, 1, ctx.spmm_config(parent, 8))
        ctx.plans.poison(key)
        ctx.register_topology_delta(delta)
        survived = ctx.spmm_plan(child, 8)
        cold = ops.ExecutionContext(V100).spmm_plan(child, 8)
        assert_plans_equal(survived, cold)


class TestSparseLinear:
    def _step(self, layer, ctx, rng):
        x = rng.standard_normal((layer.weight.n_cols, 8)).astype(np.float32)
        layer.forward(x, V100)
        layer.backward(
            x, rng.standard_normal(
                (layer.weight.n_rows, 8)
            ).astype(np.float32), V100,
        )

    def test_update_values_rejects_topology_edit(self, rng):
        layer = SparseLinear(random_sparse(rng, 32, 32, 0.3))
        with pytest.raises(ValueError, match="update_topology"):
            layer.update_values(np.zeros(layer.weight.nnz + 1, np.float32))

    def test_update_topology_rejects_shape_mismatch(self, rng):
        layer = SparseLinear(random_sparse(rng, 32, 32, 0.3))
        with pytest.raises(ValueError, match="shape mismatch"):
            layer.update_topology(random_sparse(rng, 16, 32, 0.3))

    def test_training_step_repairs_forward_and_sddmm_plans(self, rng):
        """fwd SpMM and SDDMM repair after a mutation; the Wᵀ SpMM, whose
        rows a row edit of W mostly touches, builds cold."""
        ops.reset_default_contexts()
        ctx = ops.ExecutionContext(V100)
        ops.set_default_context(ctx)
        try:
            layer = SparseLinear(random_sparse(rng, 64, 48, 0.25))
            self._step(layer, ctx, rng)  # warm parent plans (incl. Wᵀ)
            schedule = DropGrowSchedule(frequency=1, row_fraction=0.2)
            grad = rng.standard_normal((64, 48)).astype(np.float32)
            delta = drop_grow_step(layer, grad, schedule, step=1, context=ctx)
            assert delta is not None
            self._step(layer, ctx, rng)
            assert ctx.telemetry.plan_repairs == 2
            # Numerics after repair match a cold context exactly.
            x = rng.standard_normal((48, 8)).astype(np.float32)
            cold_ctx = ops.ExecutionContext(V100)
            ops.set_default_context(cold_ctx)
            cold_layer = SparseLinear(layer.weight)
            np.testing.assert_array_equal(
                layer.forward(x, V100), cold_layer.forward(x, V100)
            )
        finally:
            ops.reset_default_contexts()

    def test_generation_based_invalidation(self, rng):
        """The immediate parent stays cached (repair ancestor); the
        grandparent generation is evicted on the next update."""
        ops.reset_default_contexts()
        ctx = ops.ExecutionContext(V100)
        ops.set_default_context(ctx)
        try:
            layer = SparseLinear(random_sparse(rng, 64, 48, 0.25))
            self._step(layer, ctx, rng)
            schedule = DropGrowSchedule(frequency=1, row_fraction=0.2)
            grad = rng.standard_normal((64, 48)).astype(np.float32)
            drop_grow_step(layer, grad, schedule, step=1, context=ctx)
            assert ctx.telemetry.plan_invalidations == 0  # parent kept
            self._step(layer, ctx, rng)
            drop_grow_step(layer, grad, schedule, step=2, context=ctx)
            assert ctx.telemetry.plan_invalidations > 0  # grandparent gone
        finally:
            ops.reset_default_contexts()


class TestSweepMutations:
    def test_row_key_back_compat(self):
        spec = MatrixSpec("dyn0", "synthetic", "l0", 256, 256, 0.9, 0.5,
                          seed=3)
        base = build_tasks([spec], ["sputnik"], n=[32])[0]
        assert "|m" not in base.row_key  # unchanged for mutation-free rows
        mutated = build_tasks([spec], ["sputnik"], n=[32], mutations=[2])[0]
        assert mutated.row_key.endswith("|m2")

    def test_build_tasks_validation(self):
        spec = MatrixSpec("dyn0", "synthetic", "l0", 256, 256, 0.9, 0.5,
                          seed=3)
        with pytest.raises(ValueError):
            build_tasks([spec], ["sputnik"], mutations=[-1])

    def test_sweep_dimensions_compose(self):
        """h x devices x mutations: every task builds its depth-h plan on
        each device and repairs it under churn."""
        sweep_mod.reset_worker_state()
        ops.reset_default_contexts()
        spec = MatrixSpec("dyn0", "synthetic", "l0", 256, 256, 0.9, 0.5,
                          seed=3)
        try:
            rows, report = run_sweep(
                [spec], ["sputnik"], V100, n=[16], h=[1, 4],
                devices=[1, 2], mutations=[0, 2],
            )
        finally:
            sweep_mod.reset_worker_state()
            ops.reset_default_contexts()
        assert report.failed == report.oom == 0
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)
        assert {(r["h"], r["devices"], r["mutations"]) for r in rows} == {
            (h, d, m) for h in (1, 4) for d in (1, 2) for m in (0, 2)
        }
        for row in rows:
            if row["mutations"]:
                assert row["telemetry"]["plan_repairs"] > 0, row["row_key"]
        (static,) = [
            r for r in rows
            if (r["h"], r["devices"], r["mutations"]) == (1, 1, 0)
        ]
        assert static["row_key"] == "dyn0|sputnik|16"
        assert static["runtime_s"] == float.fromhex("0x1.e79dced4cff0cp-18")

    def test_run_sweep_with_mutations(self, tmp_path):
        spec = MatrixSpec("dyn0", "synthetic", "l0", 256, 256, 0.9, 0.5,
                          seed=3)
        rows, report = run_sweep(
            [spec], ["sputnik"], V100, n=[16], mutations=[0, 2],
            out_path=tmp_path / "rows.jsonl",
        )
        assert len(rows) == 2
        by_m = {r["mutations"]: r for r in rows}
        assert by_m[0]["telemetry"]["plan_repairs"] == 0
        assert by_m[2]["telemetry"]["plan_repairs"] > 0
        assert by_m[2]["status"] == "ok"
