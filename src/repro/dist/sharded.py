"""Sharded SpMM/SDDMM execution over a :class:`DeviceGroup`.

The four public functions share one dispatch path, :func:`_sharded`: it plans
the shards, dispatches each device's tile, charges the collectives and
builds the :class:`ShardedExecution`. Each function states only its
per-device :mod:`repro.ops` call, its collectives, and how it stitches
the per-device outputs.

Each device dispatches its shard through its *own*
:class:`~repro.ops.context.ExecutionContext` — so plan caching, config
selection, HBM accounting, eviction ladders, and tracing all behave
exactly as on one device, just per shard. The group then prices the
collectives the sharding implies on the interconnect and combines:

``runtime = max_d(compute_d) + exposed_comm``

where input collectives (operand distribution) overlap with compute —
devices stream their first chunks while the gather is in flight — so only
``max(0, input_comm - max_compute)`` is exposed, while output collectives
(gathering/reducing results) depend on the compute and are fully exposed.
The interconnect-bound fraction of a point is ``exposed_comm / runtime``:
the scaling-killer the multi-GPU benchmark plots per K.

``k == 1`` short-circuits to plain single-device dispatch on the group's
only context — no span, no shard plan, zero collectives — so its cost is
bit-identical to the unsharded path (asserted in bench_multi_gpu and
tests/test_dist_golden.py).

Numerics: row sharding never splits a row, so per-row accumulation order
is untouched and the stitched output is bit-identical to single-device
output. 2-D sharding splits rows across column tiles and sums partial
products, which changes the accumulation order (allclose, not equal) —
the cost model is the point there, the numerics path exists for
validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..core.types import KernelResult
from ..gpu.executor import ExecutionResult
from ..gpu.interconnect import CollectiveCost, all_gather, reduce_scatter
from ..obs.tracing import NO_SPAN
from ..sparse.csr import CSRMatrix
from .group import DeviceGroup
from .partition import ShardPlan


@dataclass
class ShardedExecution:
    """Simulated outcome of one sharded operator across a device group."""

    name: str
    k: int
    strategy: str
    per_device: list[ExecutionResult]
    collectives: list[CollectiveCost] = field(default_factory=list)
    input_comm_s: float = 0.0
    output_comm_s: float = 0.0
    plan_stats: dict = field(default_factory=dict)

    @property
    def max_compute_s(self) -> float:
        return max((r.runtime_s for r in self.per_device), default=0.0)

    @property
    def mean_compute_s(self) -> float:
        if not self.per_device:
            return 0.0
        return sum(r.runtime_s for r in self.per_device) / len(self.per_device)

    @property
    def compute_imbalance(self) -> float:
        """max/mean device compute time (1.0 = perfectly balanced)."""
        mean = self.mean_compute_s
        return self.max_compute_s / mean if mean > 0 else 1.0

    @property
    def exposed_comm_s(self) -> float:
        """Comm time on the critical path: input collectives overlap with
        compute, output collectives are serialized after it."""
        hidden_budget = self.max_compute_s
        return max(0.0, self.input_comm_s - hidden_budget) + self.output_comm_s

    @property
    def runtime_s(self) -> float:
        return self.max_compute_s + self.exposed_comm_s

    @property
    def interconnect_bound_fraction(self) -> float:
        total = self.runtime_s
        return self.exposed_comm_s / total if total > 0 else 0.0

    @property
    def flops(self) -> float:
        return sum(r.flops for r in self.per_device)

    @property
    def comm_bytes(self) -> int:
        return sum(c.nbytes for c in self.collectives)

    def summary_execution(self) -> ExecutionResult:
        """An :class:`ExecutionResult` view for single-device consumers
        (``phases=None``: overlap means per-phase times cannot sum to the
        group runtime)."""
        per = self.per_device
        return ExecutionResult(
            name=self.name,
            runtime_s=self.runtime_s,
            flops=self.flops,
            dram_bytes=sum(r.dram_bytes for r in per),
            l2_bytes=sum(r.l2_bytes for r in per),
            smem_bytes=sum(r.smem_bytes for r in per),
            l1_bytes=sum(r.l1_bytes for r in per),
            n_blocks=sum(r.n_blocks for r in per),
            occupancy=per[0].occupancy if per else None,
            children=list(per),
        )



def _dist_span(group: DeviceGroup, name: str):
    tracer = group.tracer
    if tracer is None:
        return NO_SPAN
    return tracer.span(
        name, category="dist", k=group.k,
        interconnect=group.interconnect.kind,
    )


def _sharded(
    name: str,
    group: DeviceGroup,
    matrix: CSRMatrix,
    strategy: str,
    call: Callable,
    collectives: Callable[[ShardPlan], tuple[list, list]],
    stitch: Callable | None = None,
):
    """The one sharded dispatch path behind the four public functions.

    ``call(sub, ctx, rows, cols)`` dispatches one device's shard ``sub``
    of ``matrix`` on its context ``ctx``, given the device's tile: its row
    indices and ``(lo, hi)`` column range. ``collectives(plan)`` prices
    the ``(input, output)`` collectives. Without ``stitch`` the calls are
    cost calls and the :class:`ShardedExecution` is returned;
    ``stitch(plan, tiles, outputs)`` combines the per-device outputs into
    one, returned as a :class:`KernelResult` whose ``sharded`` attribute
    carries the :class:`ShardedExecution`.

    ``k == 1`` dispatches ``matrix`` whole on the lead context: no span,
    no shard plan, no collectives, so it is the unsharded dispatch.
    """
    if group.k == 1:
        result = call(matrix, group.lead, slice(None), (0, matrix.shape[1]))
        if stitch is not None:
            return result
        return ShardedExecution(
            name=name, k=1, strategy="row", per_device=[result]
        )
    with _dist_span(group, name) as span:
        plan, subs = group.shards(matrix, strategy)
        tiles = [plan.device_tile(d) for d in range(group.k)]
        results = [
            call(sub, ctx, *tile)
            for ctx, sub, tile in zip(group.contexts, subs, tiles)
        ]
        inputs, outputs = collectives(plan)
        charged = [c for c in inputs + outputs if c.steps > 0]
        for cost in charged:
            group.charge_collective(cost)
        sharded = ShardedExecution(
            name=name,
            k=group.k,
            strategy=plan.strategy,
            per_device=(
                results if stitch is None
                else [r.execution for r in results]
            ),
            collectives=charged,
            input_comm_s=sum(c.seconds for c in inputs),
            output_comm_s=sum(c.seconds for c in outputs),
            plan_stats=dict(plan.stats),
        )
        span.set(
            strategy=sharded.strategy,
            compute_imbalance=sharded.compute_imbalance,
            exposed_comm_s=sharded.exposed_comm_s,
            interconnect_bound=sharded.interconnect_bound_fraction,
        )
        # The wrapper span's simulated time is the *extra* critical-path
        # time the group adds beyond the per-device op spans.
        span.add_sim(sharded.exposed_comm_s)
        if stitch is None:
            return sharded
        output = stitch(plan, tiles, [r.output for r in results])
    result = KernelResult(output=output, execution=sharded.summary_execution())
    result.sharded = sharded
    return result


def _spmm_collectives(
    group: DeviceGroup, a: CSRMatrix, n: int, gather_output: bool,
    plan: ShardPlan,
) -> tuple[list[CollectiveCost], list[CollectiveCost]]:
    spec = group.interconnect
    vb = a.values.dtype.itemsize
    # The dense operand starts sharded 1/k per device and every device
    # (row strategy) or every row-group (2-D) needs its slice resident.
    inputs = [all_gather(spec, a.shape[1] * n * vb, group.k)]
    outputs: list[CollectiveCost] = []
    kc = plan.grid[1]
    if kc > 1:
        # Partial products reduce within each row-group's kc devices; the
        # groups run concurrently, so price the widest one.
        widest = max(len(rows) for rows in plan.device_rows)
        outputs.append(reduce_scatter(spec, widest * n * vb, kc))
    if gather_output:
        outputs.append(all_gather(spec, a.shape[0] * n * vb, group.k))
    return inputs, outputs


def _sddmm_collectives(
    group: DeviceGroup, mask: CSRMatrix, k_dim: int, gather_output: bool,
    plan: ShardPlan,
) -> tuple[list[CollectiveCost], list[CollectiveCost]]:
    spec = group.interconnect
    vb = mask.values.dtype.itemsize
    # lhs rows travel with the mask rows (already local); rhs must be
    # resident wherever a tile touches its columns.
    inputs = [all_gather(spec, mask.shape[1] * k_dim * vb, group.k)]
    # Every nonzero is produced exactly once (even in 2-D tiles: the full
    # k_dim dot product is local), so the gather is nnz values.
    outputs = (
        [all_gather(spec, mask.nnz * vb, group.k)] if gather_output else []
    )
    return inputs, outputs


def sharded_spmm_cost(
    a: CSRMatrix,
    n: int,
    group: DeviceGroup,
    *,
    strategy: str = "row",
    backend: str = "sputnik",
    selector: str = "heuristic",
    gather_output: bool = True,
    h: int = 1,
) -> ShardedExecution:
    """Simulated sharded-SpMM cost: per-device compute + collectives.

    ``h > 1`` costs a stack of ``h`` products sharing ``a``'s topology:
    each device runs its shard as one depth-``h`` launch
    (:func:`repro.ops.spmm_cost` with ``h``) and every collective moves
    ``h`` times the bytes.
    """
    from .. import ops

    return _sharded(
        "spmm_sharded", group, a, strategy,
        lambda sub, ctx, rows, cols: ops.spmm_cost(
            sub, n, context=ctx, backend=backend, selector=selector, h=h
        ),
        partial(_spmm_collectives, group, a, n * h, gather_output),
    )


def sharded_spmm(
    a: CSRMatrix,
    b: np.ndarray,
    group: DeviceGroup,
    *,
    strategy: str = "row",
    backend: str = "sputnik",
    selector: str = "heuristic",
    gather_output: bool = True,
) -> KernelResult:
    """Sharded ``C = A @ B``: exact numerics + sharded simulated cost.

    Row sharding stitches per-device outputs back in row order
    (bit-identical to single-device numerics); 2-D sharding sums partial
    products per row-group (allclose). The returned
    :class:`KernelResult`'s ``execution`` is the group summary and its
    ``sharded`` attribute carries the full :class:`ShardedExecution`.
    """
    from .. import ops

    b = np.asarray(b)

    def stitch(plan, tiles, outputs):
        out = np.zeros((a.shape[0], b.shape[1]), dtype=outputs[0].dtype)
        for (rows, _), part in zip(tiles, outputs):
            if plan.grid[1] == 1:
                out[rows] = part  # assign: ``+=`` would turn -0.0 into 0.0
            else:
                out[rows] += part
        return out

    return _sharded(
        "spmm_sharded", group, a, strategy,
        lambda sub, ctx, rows, cols: ops.spmm(
            sub, b[cols[0]:cols[1]], context=ctx, backend=backend,
            selector=selector,
        ),
        partial(_spmm_collectives, group, a, b.shape[1], gather_output),
        stitch,
    )


def sharded_sddmm_cost(
    mask: CSRMatrix,
    k_dim: int,
    group: DeviceGroup,
    *,
    strategy: str = "row",
    backend: str = "sputnik",
    selector: str = "heuristic",
    gather_output: bool = True,
) -> ShardedExecution:
    """Simulated sharded-SDDMM cost (``k_dim`` = dot-product depth)."""
    from .. import ops

    return _sharded(
        "sddmm_sharded", group, mask, strategy,
        lambda sub, ctx, rows, cols: ops.sddmm_cost(
            sub, k_dim, context=ctx, backend=backend, selector=selector
        ),
        partial(_sddmm_collectives, group, mask, k_dim, gather_output),
    )


def sharded_sddmm(
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: CSRMatrix,
    group: DeviceGroup,
    *,
    backend: str = "sputnik",
    selector: str = "heuristic",
    gather_output: bool = True,
) -> KernelResult:
    """Sharded ``(lhs @ rhs^T) ∘ mask`` numerics + cost (row strategy only:
    2-D would tile the mask by columns, which is a cost-model exercise —
    use :func:`sharded_sddmm_cost` for that)."""
    from .. import ops

    def stitch(plan, tiles, outputs):
        # Scatter each shard's values back to the global nnz layout (same
        # gather arithmetic as CSRMatrix.take_rows).
        values = np.empty(mask.nnz, dtype=mask.values.dtype)
        for (rows, _), part in zip(tiles, outputs):
            lengths = mask.row_lengths[rows]
            sub_offsets = np.zeros(rows.size + 1, dtype=np.int64)
            np.cumsum(lengths, out=sub_offsets[1:])
            dest = np.arange(int(sub_offsets[-1]), dtype=np.int64)
            src = dest - np.repeat(sub_offsets[:-1], lengths) + np.repeat(
                mask.row_offsets[rows], lengths
            )
            values[src] = part.values
        return mask.with_values(values)

    return _sharded(
        "sddmm_sharded", group, mask, "row",
        lambda sub, ctx, rows, cols: ops.sddmm(
            lhs[rows], rhs, sub, context=ctx, backend=backend,
            selector=selector,
        ),
        partial(_sddmm_collectives, group, mask, lhs.shape[1], gather_output),
        stitch,
    )
