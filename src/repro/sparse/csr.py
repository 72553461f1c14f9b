"""Compressed sparse row (CSR) matrices.

The paper's kernels operate directly on standard CSR — row offsets, column
indices, values — with no structural constraints on the nonzero topology.
This implementation supports the two precision regimes the kernels use:

- single precision: float32 values, int32 column indices;
- mixed precision (Section V-D3): float16 values with int16 column indices
  for the sparse-matrix metadata.

Row offsets are always int64 (they index into the nnz array and are never
stored per-nonzero).
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import KW_ONLY, InitVar, dataclass

import numpy as np
import scipy.sparse as sp

#: value dtype -> column-index dtype used by the kernels (Section V-D3).
INDEX_DTYPE_FOR_VALUES = {
    np.dtype(np.float32): np.dtype(np.int32),
    np.dtype(np.float16): np.dtype(np.int16),
}


#: Largest offset or index an int32 index array can hold.
INT32_MAX = int(np.iinfo(np.int32).max)


def check_column_capacity(cols: int, value_dtype: np.dtype) -> np.dtype:
    """Return the index dtype for ``value_dtype``, rejecting unaddressable
    widths *before* any index array can silently wrap.

    The mixed-precision kernels (Section V-D3) pair fp16 values with int16
    column indices, so an fp16 matrix is limited to 32768 columns; wider
    matrices must stay in fp32/int32.
    """
    idt = INDEX_DTYPE_FOR_VALUES[np.dtype(value_dtype)]
    capacity = int(np.iinfo(idt).max) + 1
    if cols > capacity:
        raise ValueError(
            f"{cols} columns exceed the {idt} column-index range (max "
            f"{capacity}): the mixed-precision kernels (Section V-D3) store "
            f"{np.dtype(value_dtype)} values with {idt} indices; use fp32 "
            "values for matrices this wide"
        )
    return idt


def structure_hash(kind: bytes, shape, dtype, offsets, indices) -> str:
    """Content hash of a compressed matrix's structure (not its values).

    It keys the plan cache and the PlanStore, so this byte layout is part
    of the persisted format.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(kind)
    h.update(repr(tuple(shape)).encode())
    h.update(str(dtype).encode())
    h.update(offsets.tobytes())
    h.update(indices.tobytes())
    return h.hexdigest()


def count_touched(indices: np.ndarray, extent: int) -> int:
    """Distinct values among ``indices``, all in ``[0, extent)``.

    Exactly ``len(np.unique(indices))``, but an O(nnz) boolean-mask count
    instead of a sort.
    """
    seen = np.zeros(extent, dtype=bool)
    seen[indices] = True
    return int(np.count_nonzero(seen))


class StructureAnalysis:
    """Values-independent facts about one topology, shared by every plan
    builder and cost model that reads the matrix.

    Each field is computed on first read and then memoized, so a topology
    is analysed once however many kernels, configs and contexts cost it
    (the paper's one-time setup per topology, Sections V-C and IX).
    ``__slots__`` keeps the memo out of ``estimate_nbytes``, which walks
    ``__dict__``: it is host bookkeeping, not plan bytes.
    """

    __slots__ = (
        "_offsets", "_indices", "_extent", "_touched", "_order", "_blocks"
    )

    def __init__(
        self, offsets: np.ndarray, indices: np.ndarray, extent: int
    ) -> None:
        self._offsets = offsets
        self._indices = indices
        self._extent = extent
        self._touched: int | None = None
        self._order: np.ndarray | None = None
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def touched_columns(self) -> int:
        """Distinct minor-axis indices referenced (columns, for CSR)."""
        if self._touched is None:
            self._touched = count_touched(self._indices, self._extent)
        return self._touched

    @property
    def swizzle_order(self) -> np.ndarray:
        """Major-axis indices by decreasing length (Section V-C), as
        ``row_swizzle`` sorts them; read-only, as plans hold it."""
        if self._order is None:
            from ..core.swizzle import row_swizzle

            order = row_swizzle(np.diff(self._offsets))
            order.setflags(write=False)
            self._order = order
        return self._order

    def block_diagonal(self, h: int) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, indices)`` of ``h`` copies of the topology along the
        diagonal of an ``(h·major, h·extent)`` matrix: copy ``i`` follows
        copy ``i - 1`` in the nonzero order, its indices shifted by
        ``i·extent``. A stacked SpMM with per-head values multiplies it
        with the heads' values in one product (Section IX: the structure
        is paid for once and reused across launches).

        Memoized per ``h`` and read-only. The arrays are int32 when
        ``h·nnz``, ``h·major`` and ``h·extent`` all fit in it, so scipy
        takes them without a copy, and int64 otherwise.
        """
        try:
            return self._blocks[h]
        except KeyError:
            pass
        nnz = int(self._offsets[-1])
        major = len(self._offsets) - 1
        dtype = (
            np.int32 if h * max(nnz, major, self._extent) <= INT32_MAX
            else np.int64
        )
        copies = np.arange(h, dtype=np.int64)[:, None]
        offsets = np.empty(h * major + 1, dtype=dtype)
        offsets[0] = 0
        offsets[1:] = (copies * nnz + self._offsets[1:]).ravel()
        indices = (copies * self._extent + self._indices).ravel().astype(
            dtype, copy=False
        )
        offsets.setflags(write=False)
        indices.setflags(write=False)
        block = self._blocks[h] = offsets, indices
        return block


class StructureIdentity:
    """One memoized structure identity per sparse matrix (``_KIND`` plus
    the ``_structure()`` arrays), hashed once at construction, and its
    lazily built :class:`StructureAnalysis`.

    After a deliberate in-place edit of offsets or indices, call
    :meth:`invalidate` on every matrix sharing the edited arrays; an edit
    without it keeps the stale plan key and analysis, and is what
    ``validate_deep`` reports as corruption.
    """

    #: The memoized analysis; ``None`` until first read.
    _analysis: StructureAnalysis | None = None

    def structure_checksum(self) -> str:
        """Recompute the structure hash from the current arrays."""
        return structure_hash(
            self._KIND, self.shape, self.values.dtype, *self._structure()
        )

    @property
    def fingerprint(self) -> str:
        """The memoized structure hash: the plan-cache key."""
        return self._fingerprint

    @property
    def analysis(self) -> StructureAnalysis:
        """The topology's memoized :class:`StructureAnalysis`."""
        if self._analysis is None:
            self._analysis = StructureAnalysis(
                *self._structure(), self.shape[self._MINOR_AXIS]
            )
        return self._analysis

    def invalidate(self) -> None:
        """Re-derive the identity after a deliberate in-place edit."""
        self._fingerprint = self.structure_checksum()
        self._analysis = None


@dataclass
class CSRMatrix(StructureIdentity):
    """A sparse matrix in compressed-sparse-row format.

    Attributes:
        shape: ``(rows, cols)``.
        row_offsets: int64 array of length ``rows + 1``; row ``i`` owns
            nonzeros ``row_offsets[i]:row_offsets[i+1]``.
        column_indices: column index per nonzero (int32 or int16).
        values: value per nonzero (float32 or float16).
    """

    shape: tuple[int, int]
    row_offsets: np.ndarray
    column_indices: np.ndarray
    values: np.ndarray
    _: KW_ONLY
    #: A same-structure source's identity: skips the hash, not the checks.
    _identity: InitVar[str | None] = None
    #: The same source's analysis, shared rather than recomputed.
    _analysis: InitVar[StructureAnalysis | None] = None

    _KIND = b"csr"
    _MINOR_AXIS = 1

    def _structure(self) -> tuple[np.ndarray, np.ndarray]:
        return self.row_offsets, self.column_indices

    def __post_init__(
        self, _identity: str | None, _analysis: StructureAnalysis | None
    ) -> None:
        self.shape = tuple(map(operator.index, self.shape))
        self.row_offsets = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        self.column_indices = np.ascontiguousarray(self.column_indices)
        self.values = np.ascontiguousarray(self.values)
        self._check_structure()
        self._fingerprint = _identity or self.structure_checksum()
        self._analysis = _analysis

    def _check_structure(self) -> None:
        """Raise ValueError/TypeError on the first broken invariant."""
        rows, cols = self.shape
        if rows < 0 or cols < 0:
            raise ValueError(f"invalid shape {self.shape}")
        if self.row_offsets.shape != (rows + 1,):
            raise ValueError("row_offsets must have length rows + 1")
        if self.row_offsets[0] != 0:
            raise ValueError("row_offsets must start at 0")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        nnz = int(self.row_offsets[-1])
        if nnz < 0:
            raise ValueError(
                f"row_offsets[-1] = {nnz} is negative: nnz must be a "
                "non-negative count"
            )
        if self.column_indices.shape != (nnz,) or self.values.shape != (nnz,):
            raise ValueError("column_indices/values length must equal nnz")
        vdt = self.values.dtype
        if vdt not in INDEX_DTYPE_FOR_VALUES:
            raise TypeError(f"unsupported value dtype {vdt}")
        expected_idx = INDEX_DTYPE_FOR_VALUES[vdt]
        if self.column_indices.dtype != expected_idx:
            raise TypeError(
                f"{vdt} values require {expected_idx} indices, "
                f"got {self.column_indices.dtype}"
            )
        if nnz:
            check_column_capacity(cols, vdt)
        if nnz and (
            int(self.column_indices.min()) < 0
            or int(self.column_indices.max()) >= cols
        ):
            raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # Deep validation (reliability layer)
    # ------------------------------------------------------------------
    def validate_deep(self) -> None:
        """Re-verify every structural invariant plus the memoized identity.

        Raises :class:`~repro.reliability.errors.InvalidTopologyError` on
        the first violation. This is the guardrail the fault injector's
        simulated-memory bit flips are caught by: an in-range flipped
        column index passes the range checks but not the checksum.
        """
        from ..reliability.errors import InvalidTopologyError

        try:
            self._check_structure()
        except (ValueError, TypeError) as exc:
            raise InvalidTopologyError(f"corrupt structure: {exc}") from exc
        if self.structure_checksum() != self._fingerprint:
            raise InvalidTopologyError(
                "structure checksum mismatch: metadata mutated since "
                "construction (simulated memory corruption)"
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(
        cls, dense: np.ndarray, dtype: np.dtype | type = np.float32
    ) -> "CSRMatrix":
        """Compress a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        vdt = np.dtype(dtype)
        idt = check_column_capacity(dense.shape[1], vdt)
        mask = dense != 0
        row_offsets = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=row_offsets[1:])
        rows, cols = np.nonzero(mask)
        del rows  # implicit in row_offsets
        return cls(
            shape=dense.shape,
            row_offsets=row_offsets,
            column_indices=cols.astype(idt),
            values=dense[mask].astype(vdt),
        )

    @classmethod
    def from_scipy(
        cls, mat: sp.spmatrix | sp.sparray, dtype: np.dtype | type = np.float32
    ) -> "CSRMatrix":
        """Convert any scipy sparse matrix (duplicates summed, zeros kept)."""
        csr = sp.csr_matrix(mat)
        csr.sum_duplicates()
        csr.sort_indices()
        vdt = np.dtype(dtype)
        idt = check_column_capacity(csr.shape[1], vdt)
        return cls(
            shape=csr.shape,
            row_offsets=csr.indptr.astype(np.int64),
            column_indices=csr.indices.astype(idt),
            values=csr.data.astype(vdt),
        )

    @classmethod
    def from_mask(
        cls,
        mask: np.ndarray,
        values: np.ndarray | None = None,
        dtype: np.dtype | type = np.float32,
    ) -> "CSRMatrix":
        """Build from a boolean mask; values default to 1 (an indicator)."""
        mask = np.asarray(mask, dtype=bool)
        vdt = np.dtype(dtype)
        idt = check_column_capacity(mask.shape[1], vdt)
        row_offsets = np.zeros(mask.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask.sum(axis=1), out=row_offsets[1:])
        _, cols = np.nonzero(mask)
        if values is None:
            vals = np.ones(len(cols), dtype=vdt)
        else:
            vals = np.asarray(values)[mask].astype(vdt)
        return cls(mask.shape, row_offsets, cols.astype(idt), vals)

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        # Duplicate (row, col) entries sum, the standard CSR semantic; this
        # keeps explicitly padded matrices (see sparse.padding) faithful.
        out = np.zeros(self.shape, dtype=self.values.dtype)
        rows = np.repeat(np.arange(self.shape[0]), self.row_lengths)
        np.add.at(out, (rows, self.column_indices.astype(np.int64)), self.values)
        return out

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (
                self.values.astype(np.float64),
                self.column_indices.astype(np.int64),
                self.row_offsets,
            ),
            shape=self.shape,
        )

    def astype(self, dtype: np.dtype | type) -> "CSRMatrix":
        """Re-type values (and, implicitly, indices per the precision rule)."""
        vdt = np.dtype(dtype)
        idt = check_column_capacity(self.shape[1], vdt)
        same = vdt == self.values.dtype
        return CSRMatrix(
            self.shape,
            self.row_offsets.copy(),
            self.column_indices.astype(idt),
            self.values.astype(vdt),
            _identity=self._fingerprint if same else None,
            _analysis=self.analysis if same else None,
        )

    def with_values(self, values: np.ndarray) -> "CSRMatrix":
        """Same topology, new values (e.g. after a gradient update)."""
        values = np.asarray(values, dtype=self.values.dtype)
        if values.shape != self.values.shape:
            raise ValueError("value array must match nnz")
        return CSRMatrix(
            self.shape, self.row_offsets, self.column_indices, values,
            _identity=self._fingerprint, _analysis=self.analysis,
        )

    def take_rows(self, rows: np.ndarray) -> "CSRMatrix":
        """Gather a row subset (in the given order) into a new CSR matrix.

        The sharding layer uses this to materialize per-device row shards:
        each selected row's nonzeros are copied intact, so per-row kernel
        semantics (accumulation order included) are unchanged. Fully
        vectorized — O(nnz selected), no per-row python loop.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("take_rows expects a 1-D row index array")
        if rows.size and (
            int(rows.min()) < 0 or int(rows.max()) >= self.shape[0]
        ):
            raise ValueError("row index out of range")
        lengths = self.row_lengths[rows]
        new_offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=new_offsets[1:])
        total = int(new_offsets[-1])
        starts = self.row_offsets[rows]
        # Position of each gathered nonzero inside the source arrays:
        # arange over the destination, rebased per row to the source start.
        dest = np.arange(total, dtype=np.int64)
        src = dest - np.repeat(new_offsets[:-1], lengths) + np.repeat(
            starts, lengths
        )
        return CSRMatrix(
            (rows.size, self.shape[1]),
            new_offsets,
            self.column_indices[src],
            self.values[src],
        )

    def take_cols(self, lo: int, hi: int) -> "CSRMatrix":
        """Slice the column range ``[lo, hi)`` into a new CSR matrix.

        Column indices are rebased to the slice, so the result is a valid
        ``(rows, hi - lo)`` matrix — the 2-D sharding layer pairs this with
        :meth:`take_rows` to cut per-device tiles.
        """
        if not (0 <= lo <= hi <= self.shape[1]):
            raise ValueError(
                f"column range [{lo}, {hi}) outside [0, {self.shape[1]})"
            )
        keep = (self.column_indices >= lo) & (self.column_indices < hi)
        rows = np.repeat(np.arange(self.shape[0]), self.row_lengths)[keep]
        new_offsets = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.add.at(new_offsets[1:], rows, 1)
        np.cumsum(new_offsets, out=new_offsets)
        idt = self.column_indices.dtype
        return CSRMatrix(
            (self.shape[0], hi - lo),
            new_offsets,
            (self.column_indices[keep] - lo).astype(idt),
            self.values[keep],
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.row_offsets[-1])

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def row_lengths(self) -> np.ndarray:
        """Nonzeros per row, shape ``(rows,)``."""
        return np.diff(self.row_offsets)

    @property
    def sparsity(self) -> float:
        """Fraction of zero-valued entries (1 - density)."""
        total = self.shape[0] * self.shape[1]
        return 1.0 - self.nnz / total if total else 0.0

    @property
    def index_bytes(self) -> int:
        return self.column_indices.dtype.itemsize

    @property
    def value_bytes(self) -> int:
        return self.values.dtype.itemsize

    def memory_bytes(self) -> int:
        """Bytes needed to store the matrix (values + indices + offsets)."""
        return (
            self.values.nbytes
            + self.column_indices.nbytes
            + self.row_offsets.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"sparsity={self.sparsity:.3f}, dtype={self.values.dtype})"
        )
