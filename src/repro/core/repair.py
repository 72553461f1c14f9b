"""Incremental plan repair for dynamic sparse topologies (DESIGN.md Sec. 17).

Dynamic sparse training (RigL-style drop/grow) mutates a weight matrix's
topology every N steps, editing a small fraction of its rows. Every plan in
the cache stack is keyed by a structural fingerprint, so each mutation is a
cold miss and a full re-plan. A cold build analyses the new topology once
(``CSRMatrix.analysis``: an O(nnz) touched-column count and an
O(rows log rows) row swizzle); repair instead carries both forward from the
parent plan, since an edit of 5% of the rows barely changes them.

This module holds the pieces of repair that are independent of any one
kernel:

- :class:`TopologyDelta` — the edited-row diff between a parent topology
  and its child, carrying enough of the parent (edited rows' old column
  slices) that the parent matrix itself can be dropped.
- :func:`edited_rows` — structural diff between two same-shape CSR
  matrices, for callers that mutated a topology without tracking rows.
- :func:`repair_column_histogram` — the incremental counterpart of the
  touched-column count: maintain a column histogram, subtract the edited
  rows' old columns, add their new ones. Its ``count_nonzero`` equals
  ``analysis.touched_columns`` of the child.

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
    ancestor plan. ``old_lengths``/``old_cols`` preserve the edited rows'
    parent-side structure so histogram repair never needs the parent
    matrix itself.
    """

    #: Structural fingerprint of the pre-edit topology.
    parent: str
    #: Structural fingerprint of the post-edit topology.
    child: str
    #: Sorted, unique edited row ids (int64).
    rows: np.ndarray
    #: Parent row lengths of the edited rows, aligned with ``rows``.
    old_lengths: np.ndarray
    #: Concatenated parent column indices of the edited rows (int64).
    old_cols: np.ndarray
    #: Whether unedited rows carry their parent values unchanged (true for
    #: drop/grow updates; lets shard materialization reuse value slices).
    values_preserved: bool = True

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
    values_preserved: bool = True,
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
    rows = _as_sorted_rows(rows, parent.n_rows)
    starts = parent.row_offsets[rows]
    lengths = (parent.row_offsets[rows + 1] - starts).astype(np.int64)
    if rows.size:
        old_cols = np.concatenate(
            [
                parent.column_indices[s : s + l]
                for s, l in zip(starts.tolist(), lengths.tolist())
            ]
            or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64)
    else:
        old_cols = np.empty(0, dtype=np.int64)
    return TopologyDelta(
        parent=parent_fp,
        child=child_fp,
        rows=rows,
        old_lengths=lengths,
        old_cols=old_cols,
        values_preserved=values_preserved,
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


def column_histogram(a: CSRMatrix) -> np.ndarray:
    """Per-column nonzero counts (int64, length ``n_cols``)."""
    if a.nnz == 0:
        return np.zeros(a.n_cols, dtype=np.int64)
    return np.bincount(
        np.asarray(a.column_indices, dtype=np.int64), minlength=a.n_cols
    ).astype(np.int64)


def repair_column_histogram(
    parent_counts: np.ndarray | None,
    delta: TopologyDelta,
    child: CSRMatrix,
) -> np.ndarray:
    """Column histogram of ``child``, repaired from the parent's.

    With parent counts available this is O(edited nnz + n_cols); without
    (the ancestor was a cold plan, which carries no histogram) it falls
    back to a fresh O(nnz) bincount. The result is validated
    against the child (non-negative, sums to nnz) so a drifted histogram
    raises instead of silently mis-costing the plan.
    """
    if parent_counts is None:
        return column_histogram(child)
    counts = np.asarray(parent_counts, dtype=np.int64).copy()
    if counts.shape != (child.n_cols,):
        raise PlanRepairError(
            f"parent histogram has {counts.shape} bins, child has "
            f"{child.n_cols} columns"
        )
    rows = _as_sorted_rows(delta.rows, child.n_rows)
    if delta.old_cols.size:
        counts -= np.bincount(
            np.asarray(delta.old_cols, dtype=np.int64),
            minlength=child.n_cols,
        ).astype(np.int64)
    if rows.size:
        starts = child.row_offsets[rows]
        lengths = child.row_offsets[rows + 1] - starts
        new_cols = np.concatenate(
            [
                child.column_indices[s : s + l]
                for s, l in zip(starts.tolist(), lengths.tolist())
            ]
            or [np.empty(0, dtype=np.int64)]
        )
        if new_cols.size:
            counts += np.bincount(
                np.asarray(new_cols, dtype=np.int64), minlength=child.n_cols
            ).astype(np.int64)
    if counts.min(initial=0) < 0 or int(counts.sum()) != child.nnz:
        raise PlanRepairError(
            "repaired column histogram is inconsistent with the child "
            f"topology (sum={int(counts.sum())}, nnz={child.nnz})"
        )
    return counts


def touched_columns(counts: np.ndarray) -> int:
    """Distinct referenced columns, from the histogram: equal to the
    matrix's ``analysis.touched_columns``."""
    return int(np.count_nonzero(counts))
