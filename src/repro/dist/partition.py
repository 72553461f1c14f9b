"""Cost-balanced work partitioning across simulated devices.

A row shard's cost is dominated by its nonzero count, not its row count —
power-law matrices (the pruned-transformer corpus) put most of the work in
a few heavy rows, so splitting rows evenly can leave one device with most
of the nonzeros. This module reuses the paper's row-swizzle machinery
(Section V-C) to balance *cost*:

1. :func:`~repro.core.swizzle.row_swizzle` orders rows by decreasing
   length;
2. :func:`~repro.core.swizzle.bundle_rows` groups the sorted order into
   bundles (locality: a bundle's rows have similar length and stay on one
   device);
3. bundles are assigned greedily, heaviest first, to the least-loaded
   device — the classic LPT schedule, whose max load provably stays within
   ``mean + max_bundle_weight`` of perfect balance (property-tested in
   tests/test_dist.py).

Everything is deterministic: stable sort, first-minimum tie-breaks, no RNG.

:class:`ShardPlan` captures one matrix's partition for ``k`` devices (row
or 2-D strategy) and is what :class:`~repro.dist.group.DeviceGroup` caches
in its lead context's plan cache under ``("shard_plan", ...)`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.repair import TopologyDelta
from ..core.swizzle import bundle_rows, bundle_weights, row_swizzle
from ..reliability.errors import PlanRepairError
from ..sparse.csr import CSRMatrix

#: Rows per assignment unit. Bundles keep neighbouring similar-length rows
#: on one device (the same locality argument as warp-level row bundling).
DEFAULT_BUNDLE_SIZE = 8

STRATEGIES = ("row", "2d")


def row_block_partition(n_rows: int, k: int) -> list[np.ndarray]:
    """Naive contiguous row blocks of near-equal *row count* (the
    comparison baseline the cost-balanced partitioner beats)."""
    if k < 1:
        raise ValueError("need at least one device")
    bounds = np.linspace(0, n_rows, k + 1).astype(np.int64)
    return [
        np.arange(bounds[i], bounds[i + 1], dtype=np.int64) for i in range(k)
    ]


def cost_balanced_partition(
    row_lengths: np.ndarray,
    k: int,
    bundle_size: int = DEFAULT_BUNDLE_SIZE,
    order: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Assign rows to ``k`` devices so per-device nonzero totals balance.

    Returns ``k`` sorted row-index arrays (sorted for gather locality; the
    device-local kernel re-swizzles internally anyway). Deterministic for a
    given input: the sort is stable and ties go to the lowest device id.

    ``order`` is the decreasing-length row order when the caller already
    has it (a matrix's memoized ``analysis.swizzle_order``); it must equal
    ``row_swizzle(row_lengths)``.
    """
    if k < 1:
        raise ValueError("need at least one device")
    lengths = np.asarray(row_lengths)
    if order is None:
        order = row_swizzle(lengths)
    bundles = bundle_rows(order, bundle_size)
    weights = bundle_weights(lengths, order, bundle_size)
    loads = np.zeros(k, dtype=np.float64)
    assigned: list[list[np.ndarray]] = [[] for _ in range(k)]
    # ``order`` is sorted by decreasing row length, so bundle weights are
    # already (near-)non-increasing: iterating in order is LPT.
    for bundle, weight in zip(bundles, weights):
        dev = int(np.argmin(loads))
        loads[dev] += float(weight)
        assigned[dev].append(bundle)
    return [
        np.sort(np.concatenate(parts).astype(np.int64))
        if parts
        else np.empty(0, dtype=np.int64)
        for parts in assigned
    ]


def partition_loads(
    row_lengths: np.ndarray, parts: list[np.ndarray]
) -> np.ndarray:
    """Per-device nonzero totals under a row partition."""
    lengths = np.asarray(row_lengths)
    return np.array(
        [int(lengths[p].sum()) if len(p) else 0 for p in parts],
        dtype=np.int64,
    )


def partition_stats(row_lengths: np.ndarray, parts: list[np.ndarray]) -> dict:
    """Balance metrics for a row partition: max/mean device load etc."""
    loads = partition_loads(row_lengths, parts)
    mean = float(loads.mean()) if len(loads) else 0.0
    peak = int(loads.max()) if len(loads) else 0
    return {
        "k": len(parts),
        "loads": loads.tolist(),
        "max_load": peak,
        "mean_load": mean,
        "max_over_mean": (peak / mean) if mean > 0 else 1.0,
    }


def _grid_for(k: int) -> tuple[int, int]:
    """Pick a (rows, cols) device grid for 2-D sharding: the most square
    factorization with the row dimension at least as large (rows carry the
    skew, so they get the finer cost-balanced split)."""
    kc = int(np.sqrt(k))
    while kc > 1 and k % kc:
        kc -= 1
    return k // kc, kc


@dataclass
class ShardPlan:
    """How one matrix's work is split across ``k`` simulated devices.

    ``strategy="row"``: device ``d`` owns the rows ``device_rows[d]`` at
    full width (``grid == (k, 1)``).

    ``strategy="2d"``: the devices form a ``grid = (kr, kc)`` mesh; device
    ``d = i * kc + j`` owns rows ``device_rows[i]`` restricted to column
    range ``col_ranges[j]``. Row groups are cost-balanced; column ranges
    are even width (dense-operand shards must be uniform).
    """

    k: int
    strategy: str
    grid: tuple[int, int]
    device_rows: list[np.ndarray]
    col_ranges: list[tuple[int, int]]
    loads: np.ndarray
    #: Decreasing-length row order the partition was derived from (the
    #: matrix's ``analysis.swizzle_order``).
    row_order: np.ndarray
    bundle_size: int = DEFAULT_BUNDLE_SIZE
    stats: dict = field(default_factory=dict)

    @property
    def max_load(self) -> int:
        return int(self.loads.max()) if len(self.loads) else 0

    @property
    def mean_load(self) -> float:
        return float(self.loads.mean()) if len(self.loads) else 0.0

    @property
    def max_over_mean(self) -> float:
        mean = self.mean_load
        return (self.max_load / mean) if mean > 0 else 1.0

    def device_tile(self, d: int) -> tuple[np.ndarray, tuple[int, int]]:
        """The (rows, column range) device ``d`` owns."""
        kr, kc = self.grid
        if not (0 <= d < self.k):
            raise ValueError(f"device {d} outside the {self.k}-device group")
        return self.device_rows[d // kc], self.col_ranges[d % kc]


def plan_shards(
    a: CSRMatrix,
    k: int,
    strategy: str = "row",
    bundle_size: int = DEFAULT_BUNDLE_SIZE,
) -> ShardPlan:
    """Build the :class:`ShardPlan` for one topology (uncached; the
    :class:`~repro.dist.group.DeviceGroup` layers plan caching on top).

    Rows are bundled in the matrix's memoized ``analysis.swizzle_order``.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown shard strategy {strategy!r}; expected one of "
            f"{STRATEGIES}"
        )
    lengths = a.row_lengths
    order = a.analysis.swizzle_order
    if strategy == "row" or k == 1:
        grid = (k, 1)
        device_rows = cost_balanced_partition(
            lengths, k, bundle_size, order=order
        )
        col_ranges = [(0, a.shape[1])]
        loads = partition_loads(lengths, device_rows)
    else:
        grid = _grid_for(k)
        kr, kc = grid
        device_rows = cost_balanced_partition(
            lengths, kr, bundle_size, order=order
        )
        bounds = np.linspace(0, a.shape[1], kc + 1).astype(np.int64)
        col_ranges = [
            (int(bounds[j]), int(bounds[j + 1])) for j in range(kc)
        ]
        # Actual per-tile nnz (column splits are data-dependent).
        loads = np.zeros(k, dtype=np.int64)
        rows_of_nnz = np.repeat(np.arange(a.shape[0]), lengths)
        cols = a.column_indices.astype(np.int64)
        tile_col = np.searchsorted(bounds[1:-1], cols, side="right")
        group_of_row = np.zeros(a.shape[0], dtype=np.int64)
        for i, rows in enumerate(device_rows):
            group_of_row[rows] = i
        flat = group_of_row[rows_of_nnz] * kc + tile_col
        np.add.at(loads, flat, 1)
    plan = ShardPlan(
        k=k,
        strategy="row" if (strategy == "row" or k == 1) else "2d",
        grid=grid,
        device_rows=device_rows,
        col_ranges=col_ranges,
        loads=loads,
        bundle_size=bundle_size,
        row_order=order,
    )
    plan.stats = {
        "max_load": plan.max_load,
        "mean_load": plan.mean_load,
        "max_over_mean": plan.max_over_mean,
    }
    return plan


def repair_shard_plan(
    plan: ShardPlan, a: CSRMatrix, delta: TopologyDelta
) -> ShardPlan:
    """Re-balance a :class:`ShardPlan` after a row-targeted topology edit.

    Validates the ancestor, then reruns :func:`plan_shards` at its device
    count, strategy and bundle size over the child's memoized swizzle
    order — a cold shard plan, field for field (tested in
    tests/test_dynamic.py). Raises
    :class:`~repro.reliability.errors.PlanRepairError` when the
    ancestor's row count disagrees; the caller falls back to a cold plan.
    """
    if a.shape[0] != len(plan.row_order):
        raise PlanRepairError(
            f"shard-plan repair row mismatch: ancestor ordered "
            f"{len(plan.row_order)} rows, child has {a.shape[0]}"
        )
    return plan_shards(a, plan.k, plan.strategy, plan.bundle_size)
