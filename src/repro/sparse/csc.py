"""Compressed sparse column (CSC) matrices.

Section IV-C notes that computing ``BA => C`` with ``A`` in CSC and dense
matrices column-major is exactly as efficient as the CSR/row-major scheme;
CSC also backs the transposed-operand path used in training (Section IX).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .csr import (
    INDEX_DTYPE_FOR_VALUES,
    CSRMatrix,
    StructureIdentity,
    check_column_capacity,
)


@dataclass
class CSCMatrix(StructureIdentity):
    """A sparse matrix in compressed-sparse-column format."""

    shape: tuple[int, int]
    col_offsets: np.ndarray
    row_indices: np.ndarray
    values: np.ndarray

    _KIND = b"csc"
    _MINOR_AXIS = 0

    def _structure(self) -> tuple[np.ndarray, np.ndarray]:
        return self.col_offsets, self.row_indices

    def __post_init__(self) -> None:
        self.shape = rows, cols = tuple(map(operator.index, self.shape))
        self.col_offsets = np.ascontiguousarray(self.col_offsets, dtype=np.int64)
        self.row_indices = np.ascontiguousarray(self.row_indices)
        self.values = np.ascontiguousarray(self.values)
        if self.col_offsets.shape != (cols + 1,) or self.col_offsets[0] != 0:
            raise ValueError("col_offsets must have length cols + 1, start at 0")
        if np.any(np.diff(self.col_offsets) < 0):
            raise ValueError("col_offsets must be non-decreasing")
        nnz = int(self.col_offsets[-1])
        if self.row_indices.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("row_indices/values length must equal nnz")
        vdt = self.values.dtype
        if vdt not in INDEX_DTYPE_FOR_VALUES:
            raise TypeError(f"unsupported value dtype {vdt}")
        if self.row_indices.dtype != INDEX_DTYPE_FOR_VALUES[vdt]:
            raise TypeError("index dtype does not match value precision rule")
        if nnz and (
            int(self.row_indices.min()) < 0 or int(self.row_indices.max()) >= rows
        ):
            raise ValueError("row index out of range")
        self._fingerprint = self.structure_checksum()

    @property
    def nnz(self) -> int:
        return int(self.col_offsets[-1])

    @property
    def col_lengths(self) -> np.ndarray:
        return np.diff(self.col_offsets)

    def to_dense(self) -> np.ndarray:
        # Duplicate (row, col) entries sum, as in CSRMatrix.to_dense.
        out = np.zeros(self.shape, dtype=self.values.dtype)
        cols = np.repeat(np.arange(self.shape[1]), self.col_lengths)
        np.add.at(out, (self.row_indices.astype(np.int64), cols), self.values)
        return out

    def astype(self, dtype: np.dtype | type) -> "CSCMatrix":
        """Re-type values (and, implicitly, indices per the precision rule)."""
        vdt = np.dtype(dtype)
        return CSCMatrix(
            self.shape,
            self.col_offsets.copy(),
            self.row_indices.astype(check_column_capacity(self.shape[0], vdt)),
            self.values.astype(vdt),
        )

    def to_scipy(self) -> sp.csc_matrix:
        return sp.csc_matrix(
            (
                self.values.astype(np.float64),
                self.row_indices.astype(np.int64),
                self.col_offsets,
            ),
            shape=self.shape,
        )


def csr_to_csc(a: CSRMatrix) -> CSCMatrix:
    """Convert CSR to CSC (same matrix, column-compressed)."""
    s = a.to_scipy().tocsc()
    s.sort_indices()
    idt = INDEX_DTYPE_FOR_VALUES[a.values.dtype]
    return CSCMatrix(
        shape=a.shape,
        col_offsets=s.indptr.astype(np.int64),
        row_indices=s.indices.astype(idt),
        values=s.data.astype(a.values.dtype),
    )


def csc_to_csr(a: CSCMatrix) -> CSRMatrix:
    """Convert CSC back to CSR."""
    s = a.to_scipy().tocsr()
    s.sort_indices()
    return CSRMatrix.from_scipy(s, dtype=a.values.dtype)
