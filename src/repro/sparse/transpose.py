"""Cached-topology sparse transpose (paper, Section IX).

Training a weight-sparse network needs ``A^T B => C``. Fusing the transpose
into a CSR SpMM is hard, but the paper observes that a sparse matrix's
*topology* changes rarely in DNN training: cache the transposed row offsets
and column indices once per topology update, and thereafter transposing
amounts to permuting the value array — "perform the transpose as an argsort
of the matrix values".

:class:`CachedTranspose` implements exactly that: it precomputes the
transposed structure together with the gather permutation, so a fresh set of
values (e.g. after a gradient step) transposes with a single fancy-index.
"""

from __future__ import annotations

import numpy as np

from .csr import (
    INDEX_DTYPE_FOR_VALUES,
    CSRMatrix,
    StructureAnalysis,
    structure_hash,
)


class CachedTranspose:
    """Reusable transpose plan for a fixed CSR topology.

    Args:
        a: the CSR matrix whose topology to plan against. Only the topology
            (offsets/indices) is captured; values are supplied per call.
    """

    def __init__(self, a: CSRMatrix) -> None:
        rows, cols = a.shape
        nnz = a.nnz
        idt = INDEX_DTYPE_FOR_VALUES[a.values.dtype]
        if nnz and rows > np.iinfo(idt).max + 1:
            raise ValueError(
                f"{rows} rows not addressable with {idt} indices after transpose"
            )

        src_rows = np.repeat(np.arange(rows, dtype=np.int64), a.row_lengths)
        src_cols = a.column_indices
        # Stable argsort by destination row (= source column) keeps nonzeros
        # within each transposed row ordered by source row, i.e. the result
        # has sorted column indices. numpy's stable sort of 16-bit keys is
        # a radix sort, several times faster than the merge sort it uses
        # for wider keys, and every column index fits when cols <= 65536.
        keys = src_cols.astype(np.uint16) if cols <= 1 << 16 else src_cols
        self.permutation = np.argsort(keys, kind="stable")
        counts = np.bincount(src_cols, minlength=cols)
        self.row_offsets = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_offsets[1:])
        self.column_indices = src_rows[self.permutation].astype(idt)
        self.shape = (cols, rows)
        self._source_shape = a.shape
        self._source_nnz = nnz
        # Every applied matrix shares this structure: hash and analyse it
        # once.
        self._fingerprint = structure_hash(
            CSRMatrix._KIND, self.shape, a.values.dtype,
            self.row_offsets, self.column_indices,
        )
        self._analysis = StructureAnalysis(
            self.row_offsets, self.column_indices, rows
        )

    def apply(self, values: np.ndarray) -> CSRMatrix:
        """Transpose a value array laid out in the planned source topology."""
        values = np.asarray(values)
        if values.shape != (self._source_nnz,):
            raise ValueError(
                f"expected {self._source_nnz} values, got {values.shape}"
            )
        return CSRMatrix(
            shape=self.shape,
            row_offsets=self.row_offsets,
            column_indices=self.column_indices,
            values=values[self.permutation],
            _identity=self._fingerprint,
            _analysis=self._analysis,
        )

    def transpose(self, a: CSRMatrix) -> CSRMatrix:
        """Transpose a matrix that shares the planned topology."""
        if a.shape != self._source_shape or a.nnz != self._source_nnz:
            raise ValueError("matrix does not match the planned topology")
        return self.apply(a.values)


def transpose(a: CSRMatrix) -> CSRMatrix:
    """One-shot CSR transpose (plans and applies in one call)."""
    return CachedTranspose(a).transpose(a)
