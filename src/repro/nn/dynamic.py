"""Dynamic sparse training: RigL-style drop/grow topology updates.

RigL (Evci et al., "Rigging the Lottery") trains at constant parameter
count by periodically *mutating* the sparsity pattern: every N steps it
drops the smallest-magnitude weights and grows new connections where the
dense gradient is largest, with the drop/grow fraction cosine-decayed to
zero over training. The paper's kernels make the compute side of this
cheap — every step is SpMM/SDDMM regardless of the pattern — but each
mutation invalidates every structure-keyed plan (swizzle order, ROMA
extents, tuned config, shard balance).

This module implements the *mutation* side; the plan side is repair
(DESIGN.md §17): each update returns a
:class:`~repro.core.repair.TopologyDelta` naming exactly the edited rows,
which :meth:`ExecutionContext.register_topology_delta` turns into a
lineage record: the child's plans are rebuilt from its memoized structure
analysis and counted as repairs of the parent's.

The update is **row-targeted**: a seeded fraction of rows is selected and
drop/grow runs within each selected row, preserving its nonzero count.
Row lengths (and therefore ``row_offsets``) never change, which mirrors
RigL's per-layer constant-fan-in variant and keeps the edited-row set —
the quantity ``plan_repair_rows`` reports — directly controllable (the
benchmark sweeps 1–10 %).

Everything is deterministic: the per-step RNG is seeded from
``(seed, step)``, so an update schedule replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.repair import TopologyDelta
from ..sparse.csr import CSRMatrix


@dataclass(frozen=True)
class DropGrowSchedule:
    """When to mutate and how aggressively (RigL's cosine decay).

    ``fraction(step)`` is the share of each *selected row's* nonzeros that
    drop (and regrow) at ``step``; ``row_fraction`` is the share of rows
    selected per update. ``is_update_step`` gates on ``frequency`` and
    stops mutating after ``total_steps`` (RigL trains the final topology
    to convergence).
    """

    frequency: int = 100
    initial_fraction: float = 0.3
    row_fraction: float = 0.05
    total_steps: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if not 0.0 < self.initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in (0, 1]")
        if not 0.0 < self.row_fraction <= 1.0:
            raise ValueError("row_fraction must be in (0, 1]")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    def is_update_step(self, step: int) -> bool:
        return (
            step > 0
            and step % self.frequency == 0
            and step <= self.total_steps
        )

    def fraction(self, step: int) -> float:
        """Cosine-decayed drop fraction: f/2 * (1 + cos(pi * t/T))."""
        t = min(max(step, 0), self.total_steps) / self.total_steps
        return self.initial_fraction / 2.0 * (1.0 + np.cos(np.pi * t))

    def rng(self, step: int) -> np.random.Generator:
        """The per-step RNG: seeded from ``(seed, step)``, replayable."""
        return np.random.default_rng((self.seed, step))


def select_rows(
    weight: CSRMatrix, row_fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """A seeded sample of non-empty rows to mutate (sorted, unique)."""
    lengths = weight.row_lengths
    candidates = np.flatnonzero(lengths > 0)
    # Only rows with at least one absent column can grow.
    candidates = candidates[lengths[candidates] < weight.n_cols]
    n = max(1, int(round(row_fraction * weight.n_rows)))
    n = min(n, candidates.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    return np.sort(rng.choice(candidates, size=n, replace=False)).astype(
        np.int64
    )


def drop_grow_update(
    weight: CSRMatrix,
    grad: np.ndarray,
    rows: np.ndarray,
    fraction: float,
) -> tuple[CSRMatrix, TopologyDelta]:
    """One RigL mutation over ``rows``: drop lowest-|w|, grow highest-|grad|.

    ``grad`` is the dense gradient of the loss w.r.t. the (dense view of
    the) weight — RigL materializes it on update steps only. Per selected
    row, the ``fraction`` smallest-magnitude nonzeros are dropped and the
    same number of currently-absent coordinates with the largest
    ``|grad|`` are grown (initialized to zero, RigL's default). Row
    lengths are preserved, so ``row_offsets`` is shared with the parent.

    Returns the mutated matrix and the
    :class:`~repro.core.repair.TopologyDelta` describing the edit —
    register it with the execution context *before* the next dispatch so
    the child's plans are recorded as repairs of the parent's.
    """
    from ..ops.plans import topology_delta

    grad = np.asarray(grad)
    if grad.shape != tuple(weight.shape):
        raise ValueError(
            f"grad shape {grad.shape} does not match weight "
            f"{tuple(weight.shape)}"
        )
    rows = np.asarray(rows, dtype=np.int64)
    new_cols = weight.column_indices.copy()
    new_vals = weight.values.copy()
    offsets = weight.row_offsets
    present = np.zeros(weight.n_cols, dtype=bool)
    edited = []
    for row in rows.tolist():
        start, end = int(offsets[row]), int(offsets[row + 1])
        cols = new_cols[start:end].astype(np.int64)
        vals = new_vals[start:end]
        n_drop = int(round(fraction * (end - start)))
        if n_drop == 0:
            continue
        present[cols] = True
        absent = np.flatnonzero(~present)
        present[cols] = False
        n_drop = min(n_drop, absent.size)
        if n_drop == 0:
            continue
        # Drop: lowest |w|; grow: highest |grad| among absent columns.
        # argpartition gives exact top-k sets in O(row) (ties at the
        # threshold resolve deterministically, as in magnitude_prune).
        keep_idx = np.sort(np.argpartition(np.abs(vals), n_drop - 1)[n_drop:])
        g = np.abs(grad[row, absent])
        if n_drop < absent.size:
            grow = absent[np.argpartition(-g, n_drop - 1)[:n_drop]]
        else:
            grow = absent
        merged_cols = np.concatenate([cols[keep_idx], grow])
        merged_vals = np.concatenate(
            [vals[keep_idx], np.zeros(n_drop, dtype=vals.dtype)]
        )
        order = np.argsort(merged_cols, kind="stable")
        new_cols[start:end] = merged_cols[order].astype(new_cols.dtype)
        new_vals[start:end] = merged_vals[order]
        edited.append(row)
    edited_arr = np.asarray(edited, dtype=np.int64)
    child = CSRMatrix(weight.shape, offsets, new_cols, new_vals)
    delta = topology_delta(weight, child, edited_arr)
    return child, delta


def drop_grow_step(
    layer,
    grad: np.ndarray,
    schedule: DropGrowSchedule,
    step: int,
    context=None,
) -> TopologyDelta | None:
    """Apply one scheduled mutation to a :class:`SparseLinear` layer.

    No-op (returns ``None``) off the schedule. On update steps, mutates
    the layer's weight via :meth:`SparseLinear.update_topology`, which
    registers the delta (repairable plans) and invalidates the stale
    fingerprint on ``context``.
    """
    if not schedule.is_update_step(step):
        return None
    rng = schedule.rng(step)
    rows = select_rows(layer.weight, schedule.row_fraction, rng)
    if rows.size == 0:
        return None
    new_weight, delta = drop_grow_update(
        layer.weight, grad, rows, schedule.fraction(step)
    )
    layer.update_topology(new_weight, delta=delta, context=context)
    return delta
