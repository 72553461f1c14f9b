"""Block-sparse (BSR-style) format — the structured-sparsity comparator.

The paper's introduction contrasts unstructured sparsity against approaches
that "enforce structure on the topology of nonzeros such that nonzero values
are grouped into blocks" (Narang et al., Gray et al.). This module provides
that structured format so examples and ablations can quantify the trade-off
the paper describes: block structure recovers dense-like efficiency but
constrains where nonzeros may live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRMatrix


@dataclass
class BlockSparseMatrix:
    """Row-compressed storage of dense ``block_size x block_size`` tiles."""

    shape: tuple[int, int]
    block_size: int
    block_row_offsets: np.ndarray
    block_column_indices: np.ndarray
    #: Dense tile payloads, shape ``(n_blocks, block_size, block_size)``.
    blocks: np.ndarray

    def __post_init__(self) -> None:
        rows, cols = self.shape
        bs = self.block_size
        if bs <= 0 or rows % bs or cols % bs:
            raise ValueError(
                f"shape {self.shape} not divisible by block size {bs}"
            )
        self.block_row_offsets = np.ascontiguousarray(
            self.block_row_offsets, dtype=np.int64
        )
        nblocks = int(self.block_row_offsets[-1])
        if self.blocks.shape != (nblocks, bs, bs):
            raise ValueError("block payload shape mismatch")
        if self.block_column_indices.shape != (nblocks,):
            raise ValueError("block column index count mismatch")

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, block_size: int, dtype=np.float32
    ) -> "BlockSparseMatrix":
        """Compress, keeping every block that contains any nonzero."""
        dense = np.asarray(dense, dtype=dtype)
        rows, cols = dense.shape
        bs = block_size
        if rows % bs or cols % bs:
            raise ValueError("matrix shape must be divisible by block size")
        tiles = dense.reshape(rows // bs, bs, cols // bs, bs).swapaxes(1, 2)
        occupied = np.any(tiles != 0, axis=(2, 3))
        offsets = np.zeros(rows // bs + 1, dtype=np.int64)
        np.cumsum(occupied.sum(axis=1), out=offsets[1:])
        brow, bcol = np.nonzero(occupied)
        del brow
        return cls(
            shape=dense.shape,
            block_size=bs,
            block_row_offsets=offsets,
            block_column_indices=bcol.astype(np.int32),
            blocks=tiles[occupied],
        )

    @property
    def n_blocks(self) -> int:
        return int(self.block_row_offsets[-1])

    @property
    def nnz_stored(self) -> int:
        """Stored elements, counting the zeros inside occupied blocks."""
        return self.n_blocks * self.block_size * self.block_size

    def to_dense(self) -> np.ndarray:
        bs = self.block_size
        rows, cols = self.shape
        out = np.zeros(self.shape, dtype=self.blocks.dtype)
        lengths = np.diff(self.block_row_offsets)
        brows = np.repeat(np.arange(rows // bs), lengths)
        for b, (br, bc) in enumerate(
            zip(brows, self.block_column_indices.astype(np.int64))
        ):
            out[br * bs : (br + 1) * bs, bc * bs : (bc + 1) * bs] = self.blocks[b]
        return out

    def to_csr(self) -> CSRMatrix:
        return CSRMatrix.from_dense(self.to_dense(), dtype=self.blocks.dtype)

    def matmul(self, b: np.ndarray) -> np.ndarray:
        """``A @ B`` computed block-row by block-row (dense tile math)."""
        b = np.asarray(b, dtype=np.float32)
        if b.shape[0] != self.shape[1]:
            raise ValueError("inner dimensions do not match")
        bs = self.block_size
        out = np.zeros((self.shape[0], b.shape[1]), dtype=np.float32)
        b_tiles = b.reshape(self.shape[1] // bs, bs, b.shape[1])
        lengths = np.diff(self.block_row_offsets)
        brows = np.repeat(np.arange(self.shape[0] // bs), lengths)
        for blk, br, bc in zip(
            self.blocks.astype(np.float32),
            brows,
            self.block_column_indices.astype(np.int64),
        ):
            out[br * bs : (br + 1) * bs] += blk @ b_tiles[bc]
        return out.astype(self.blocks.dtype)
