"""Reverse-offset memory alignment — ROMA (Section V-B2).

Vector memory instructions require vector-width-aligned addresses, but CSR
rows start at arbitrary offsets. ROMA backs each row's offset up to the
nearest aligned address in the kernel prelude and masks the values borrowed
from the previous row during the first main-loop iteration. Unlike explicit
padding it changes neither the data structure nor the per-block work.

The PTX cost the paper reports is modelled exactly: 6 prelude instructions
(2 ``and``, 1 ``add``, 1 ``setp``, 2 ``selp``) plus 3 first-iteration
masking instructions (1 ``setp``, 2 shared-memory stores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpu.memory import aligned_extent
from ..sparse.csr import CSRMatrix

#: Instruction overhead of the alignment prelude (Section V-B2).
ROMA_PRELUDE_INSTRUCTIONS = 6
#: Instruction overhead of masking in the first main-loop iteration.
ROMA_MASK_INSTRUCTIONS = 3


@dataclass(frozen=True)
class AlignedRows:
    """Per-row extents after ROMA: what each 1-D tile actually loads."""

    offsets: np.ndarray
    lengths: np.ndarray
    #: Elements borrowed from the preceding row (masked in iteration one).
    prefix: np.ndarray


def align_rows(a: CSRMatrix, vector_width: int) -> AlignedRows:
    """Apply ROMA to every row of a CSR matrix.

    The first row of the matrix needs no backup: CUDA allocations are at
    least 256-byte aligned (paper footnote 3), and ``row_offsets[0] == 0``
    makes this hold by construction here too.
    """
    offsets = a.row_offsets[:-1]
    lengths = a.row_lengths.astype(np.int64)
    new_offsets, new_lengths = aligned_extent(offsets, lengths, vector_width)
    return AlignedRows(
        offsets=new_offsets,
        lengths=new_lengths,
        prefix=(offsets - new_offsets),
    )


def unaligned_rows(a: CSRMatrix) -> AlignedRows:
    """Row extents without ROMA (scalar access or explicit padding)."""
    return AlignedRows(
        offsets=a.row_offsets[:-1].copy(),
        lengths=a.row_lengths.astype(np.int64),
        prefix=np.zeros(a.n_rows, dtype=np.int64),
    )
