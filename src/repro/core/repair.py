"""Plan repair for dynamic sparse topologies (DESIGN.md Sec. 17).

Dynamic sparse training (RigL-style drop/grow) mutates a weight matrix's
topology every N steps, editing a small fraction of its rows. Every plan in
the cache stack is keyed by a structural fingerprint, so each mutation
misses the cache. Repair is the *lineage* path for that miss: a registered
:class:`TopologyDelta` names the parent topology, the plan lookup finds the
parent's plan, validates it against the child and rebuilds from the
child's memoized analysis (``CSRMatrix.analysis``: an O(nnz) touched-column
count and one row-swizzle argsort). The rebuild is a cold plan by
construction; what repair adds is the parent -> child record (telemetry
and the flight ring's ``plan_repair`` event) and the chaos fallback.

This module holds the pieces of repair that are independent of any one
kernel:

- :class:`TopologyDelta` — the edited-row diff between a parent topology
  and its child.
- :func:`edited_rows` — structural diff between two same-shape CSR
  matrices, for callers that mutated a topology without tracking rows.

Kernel-specific repair lives next to each planner (``core.spmm``,
``core.sddmm``, ``dist.partition``); the cache-lookup policy (exact hit ->
repairable ancestor -> cold build) lives in ``ops.context``. Every
inconsistency raises :class:`~repro.reliability.errors.PlanRepairError`,
which dispatch treats as "fall back to a cold re-plan" — a failed repair
can never surface a corrupt plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..reliability.errors import PlanRepairError
from ..sparse.csr import CSRMatrix


@dataclass(frozen=True)
class TopologyDelta:
    """Edited-row diff between a parent topology and its child.

    Registered with an execution context under the child fingerprint; the
    plan lookup then walks ``child -> parent`` to find a repairable
    ancestor plan.
    """

    #: Structural fingerprint of the pre-edit topology.
    parent: str
    #: Structural fingerprint of the post-edit topology.
    child: str
    #: Sorted, unique edited row ids (int64).
    rows: np.ndarray

    @property
    def n_rows_edited(self) -> int:
        return int(self.rows.size)


def _as_sorted_rows(rows: np.ndarray, n_rows: int) -> np.ndarray:
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    if rows.size and (rows[0] < 0 or rows[-1] >= n_rows):
        raise PlanRepairError(
            f"edited rows out of range for a {n_rows}-row topology"
        )
    return rows


def make_delta(
    parent: CSRMatrix,
    child: CSRMatrix,
    rows: np.ndarray,
    *,
    parent_fp: str,
    child_fp: str,
) -> TopologyDelta:
    """Build a :class:`TopologyDelta` from both matrices and the row set.

    Fingerprints are passed in (they live in the ``ops`` layer's plan
    cache); ``repro.ops.topology_delta`` wraps this with fingerprint
    computation and an automatic row diff.
    """
    if parent.shape != child.shape:
        raise PlanRepairError(
            f"topology edit changed the shape: {parent.shape} -> {child.shape}"
        )
    return TopologyDelta(
        parent=parent_fp,
        child=child_fp,
        rows=_as_sorted_rows(rows, parent.n_rows),
    )


def edited_rows(parent: CSRMatrix, child: CSRMatrix) -> np.ndarray:
    """Rows whose column sets differ between two same-shape topologies.

    O(nnz), fully vectorized: rows with changed lengths are edited; for
    equal-length rows the child's entries are gathered back into the
    parent's layout and compared element-wise.
    """
    if parent.shape != child.shape:
        raise PlanRepairError(
            f"cannot diff topologies of different shapes "
            f"{parent.shape} vs {child.shape}"
        )
    pl = parent.row_lengths.astype(np.int64)
    cl = child.row_lengths.astype(np.int64)
    length_changed = pl != cl
    same = ~length_changed
    if child.nnz and same.any():
        row_of = np.repeat(np.arange(child.n_rows, dtype=np.int64), cl)
        sel = same[row_of]
        if sel.any():
            pos_in_row = np.arange(child.nnz, dtype=np.int64) - np.repeat(
                child.row_offsets[:-1].astype(np.int64), cl
            )
            parent_pos = (
                parent.row_offsets[:-1].astype(np.int64)[row_of] + pos_in_row
            )
            mismatch = (
                np.asarray(child.column_indices, dtype=np.int64)[sel]
                != np.asarray(parent.column_indices, dtype=np.int64)[
                    parent_pos[sel]
                ]
            )
            if mismatch.any():
                hits = np.bincount(
                    row_of[sel][mismatch], minlength=child.n_rows
                )
                length_changed = length_changed | (hits > 0)
    return np.flatnonzero(length_changed).astype(np.int64)
