"""A group of K simulated devices with a shared interconnect.

:class:`DeviceGroup` is the sharded analogue of a single
:class:`~repro.ops.context.ExecutionContext`: K contexts over the same
:class:`~repro.gpu.device.DeviceSpec`, each with its **own**
:class:`~repro.gpu.allocator.DeviceAllocator` (the ROADMAP item-4
follow-on — per-device HBM caps, eviction, and OOM ladders all apply
shard-locally; ``REPRO_HBM_CAP`` reads as a *per-device* cap), plus one
:class:`~repro.gpu.interconnect.InterconnectSpec` pricing the collectives
between them.

The group also owns shard planning: :meth:`shard_plan` resolves a
:class:`~repro.dist.partition.ShardPlan` for a topology through the lead
context's plan cache (memory only: a miss re-runs the partition over the
matrix's memoized swizzle order), and :meth:`shards` materializes the
per-device sub-matrices, memoized LRU-style because slicing a big CSR is
real host work.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..gpu.device import V100, DeviceSpec
from ..gpu.executor import ExecutionResult, PhaseTimes
from ..gpu.interconnect import (
    NVLINK2,
    CollectiveCost,
    InterconnectSpec,
    get_interconnect,
)
from ..core.repair import TopologyDelta
from ..ops.context import DEFAULT_MAX_PLANS, ExecutionContext
from ..ops.plans import matrix_fingerprint, topology_delta
from ..sparse.csr import CSRMatrix
from .partition import ShardPlan, plan_shards, repair_shard_plan

#: Per-group LRU capacity for materialized sub-matrix shards.
MAX_SHARD_SETS = 16


def collective_execution(
    cost: CollectiveCost, spec: InterconnectSpec
) -> ExecutionResult:
    """Wrap a priced collective as an :class:`ExecutionResult` so comm time
    flows through the same telemetry/phase plumbing as kernel launches
    (all of it attributed to the overhead phase — link time, not SM
    time)."""
    return ExecutionResult(
        name=f"{cost.op}_{spec.kind}_k{cost.k}",
        runtime_s=cost.seconds,
        flops=0.0,
        dram_bytes=float(cost.nbytes),
        l2_bytes=0.0,
        smem_bytes=0.0,
        n_blocks=0,
        occupancy=None,
        phases=PhaseTimes(overhead_s=cost.seconds),
    )


class DeviceGroup:
    """``k`` simulated devices + one interconnect, dispatch-ready.

    ``memory`` follows the ``ExecutionContext`` convention (``None`` =
    honour ``REPRO_HBM_CAP`` / device DRAM, int = explicit per-device cap
    in bytes, ``False`` = accounting off) and is applied independently to
    every device: each context builds its own allocator, never shared.
    """

    def __init__(
        self,
        k: int,
        device: DeviceSpec = V100,
        interconnect: InterconnectSpec | str = NVLINK2,
        *,
        memory=None,
        store=None,
        tracer=None,
        max_plans: int = DEFAULT_MAX_PLANS,
    ) -> None:
        if k < 1:
            raise ValueError("a device group needs at least one device")
        self.k = k
        self.device = device
        self.interconnect = get_interconnect(interconnect)
        self.contexts = [
            ExecutionContext(
                device,
                max_plans=max_plans,
                store=store,
                tracer=tracer,
                memory=memory,
                device_id=i,
            )
            for i in range(k)
        ]
        self._shard_sets: OrderedDict[tuple, tuple] = OrderedDict()

    @property
    def lead(self) -> ExecutionContext:
        """Device 0's context: hosts the ShardPlan cache and comm telemetry."""
        return self.contexts[0]

    @property
    def tracer(self):
        return self.lead.tracer

    # ------------------------------------------------------------------
    # Shard planning (cached) and shard materialization
    # ------------------------------------------------------------------
    def shard_plan(self, a: CSRMatrix, strategy: str = "row") -> ShardPlan:
        """The (cached) :class:`ShardPlan` for this topology on this group.

        When a :class:`~repro.core.repair.TopologyDelta` is registered for
        this topology (see :meth:`register_topology_delta`), a cache miss
        repairs the parent's plan: it validates the ancestor and reruns the
        LPT partition over the child's memoized swizzle order, recording the
        lineage. The result equals a cold plan field for field.
        """
        fp = matrix_fingerprint(a)
        key = ("shard_plan", fp, self.k, strategy)
        return self.lead._cached(
            "shard_plan",
            "dist",
            key,
            lambda: plan_shards(a, self.k, strategy),
            repair=self.lead._repairable_plan(
                fp,
                lambda parent_fp: ("shard_plan", parent_fp, self.k, strategy),
                lambda plan, delta: repair_shard_plan(plan, a, delta),
            ),
        )

    def shards(
        self, a: CSRMatrix, strategy: str = "row"
    ) -> tuple[ShardPlan, list[CSRMatrix]]:
        """The plan plus the materialized per-device sub-matrices.

        For ``strategy="row"`` device ``d`` gets ``a.take_rows(rows_d)``
        at full width; for ``"2d"`` it gets the ``(rows_i, cols_j)`` tile.
        """
        plan = self.shard_plan(a, strategy)
        fp = matrix_fingerprint(a)
        key = (fp, self.k, plan.strategy)
        hit = self._shard_sets.get(key)
        if hit is not None and hit[2] is a.values:
            self._shard_sets.move_to_end(key)
            return plan, hit[1]
        # Miss — or a structural hit whose memoized sub-matrices hold a
        # *stale value buffer* (an optimizer step swapped ``a.values``
        # without touching the topology): re-slice either way. Shard
        # structure bytes are identical across a value update, so every
        # per-device plan still fingerprint-hits.
        subs = []
        for d in range(self.k):
            rows, (lo, hi) = plan.device_tile(d)
            sub = a.take_rows(rows)
            if (lo, hi) != (0, a.shape[1]):
                sub = sub.take_cols(lo, hi)
            subs.append(sub)
        if hit is None:
            self._register_shard_deltas(a, fp, plan, subs)
        self._shard_sets[key] = (plan, subs, a.values)
        while len(self._shard_sets) > MAX_SHARD_SETS:
            self._shard_sets.popitem(last=False)
        return plan, subs

    # ------------------------------------------------------------------
    # Dynamic sparsity: group-level topology deltas (DESIGN.md §17)
    # ------------------------------------------------------------------
    def register_topology_delta(self, delta: TopologyDelta) -> None:
        """Make the child topology's plans repairable group-wide.

        Registers on every device context: the lead repairs the
        :class:`ShardPlan` (and any full-matrix kernel plans it owns);
        per-device *sub*-deltas are derived lazily by :meth:`shards` when
        the re-balanced partition keeps a device's row set unchanged.
        """
        for ctx in self.contexts:
            ctx.register_topology_delta(delta)

    def _register_shard_deltas(
        self,
        a: CSRMatrix,
        fp: str,
        plan: ShardPlan,
        subs: list[CSRMatrix],
    ) -> None:
        """Derive per-device sub-deltas from a registered group delta.

        Only devices whose row set survived the re-balance *unchanged* and
        that own a full-width tile get one: their old and new sub-matrices
        differ exactly at the edited rows that landed on them, so the
        device context can repair its SpMM/SDDMM plans locally. Devices
        with unchanged rows and *no* local edits need nothing (identical
        structure bytes → same fingerprint → pure cache hit); devices
        whose row set moved re-plan cold.
        """
        delta = self.lead.topology_delta_for(fp)
        if delta is None:
            return
        parent_key = (delta.parent, self.k, plan.strategy)
        parent_hit = self._shard_sets.get(parent_key)
        if parent_hit is None:
            return
        parent_plan, parent_subs = parent_hit[0], parent_hit[1]
        from ..reliability.errors import PlanRepairError

        for d in range(self.k):
            rows, (lo, hi) = plan.device_tile(d)
            rows_old, span_old = parent_plan.device_tile(d)
            if (lo, hi) != (0, a.shape[1]) or span_old != (lo, hi):
                continue  # column-sliced tiles: cold re-plan
            if rows.size == 0 or not np.array_equal(rows, rows_old):
                continue  # empty or moved row set: cold re-plan
            pos = np.searchsorted(rows, delta.rows)
            pos_c = np.minimum(pos, rows.size - 1)
            local = pos_c[rows[pos_c] == delta.rows]
            if local.size == 0:
                continue  # no edits landed here: pure fingerprint hit
            try:
                sub_delta = topology_delta(parent_subs[d], subs[d], local)
            except PlanRepairError:
                continue
            self.contexts[d].register_topology_delta(sub_delta)

    # ------------------------------------------------------------------
    # Communication + rollups
    # ------------------------------------------------------------------
    def charge_collective(self, cost: CollectiveCost) -> None:
        """Account one collective on the lead context: a launch (op =
        collective name, backend = interconnect kind) and a ``collective``
        event on the open span."""
        if cost.seconds == 0.0 and cost.steps == 0:
            return
        kind = self.interconnect.kind
        telemetry = self.lead.telemetry
        telemetry.record_launch(
            cost.op, kind, collective_execution(cost, self.interconnect)
        )
        telemetry.emit(
            "collective", cost.op, kind, nbytes=cost.nbytes, k=cost.k,
            seconds=cost.seconds, steps=cost.steps,
        )

    def telemetry_snapshot(self) -> dict:
        """Per-(op, backend) counters summed over every device context."""
        merged: dict = {}
        for ctx in self.contexts:
            for key, row in ctx.telemetry_snapshot().items():
                if key not in merged:
                    merged[key] = dict(row)
                else:
                    out = merged[key]
                    for field_name, value in row.items():
                        out[field_name] = out.get(field_name, 0) + value
        return merged

    def memory_snapshots(self) -> list[dict | None]:
        """Per-device allocator snapshots (``None`` = accounting off)."""
        return [ctx.memory_snapshot() for ctx in self.contexts]

    def emit_memory_spans(self) -> None:
        """One ``category="memory"`` span per device (device_id-stamped)."""
        for ctx in self.contexts:
            ctx.emit_memory_span()

    def flight_records(self, reason: str = "dump") -> list[dict]:
        """The merged postmortem window: every device's flight-recorder
        ring rendered as trace-schema records (one meta per device; span
        args are ``device_id``-stamped, so the report CLI's per-device
        rollup applies). Empty when recording is disabled."""
        records: list[dict] = []
        for ctx in self.contexts:
            if ctx.flight is not None:
                records.extend(ctx.flight.to_records(reason=reason))
        return records

    def dump_flight(self, path, reason: str = "dump"):
        """Write the merged per-device window as one JSONL artifact."""
        import json
        from pathlib import Path

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for record in self.flight_records(reason=reason):
                fh.write(json.dumps(record) + "\n")
        return path
