"""Matrix-property statistics for the Section II study (Figure 2).

The paper characterizes sparse matrices by three properties:

- **sparsity** — fraction of zero entries;
- **average row length** — mean nonzeros per row (work per row);
- **row-length coefficient of variation (CoV)** — std/mean of the row
  lengths, a proxy for load imbalance.

These are computed either from a materialized CSR matrix or directly from a
row-length vector (so whole corpora can be characterized without building
every matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MatrixStats:
    """The Figure 2 property triple for one matrix."""

    rows: int
    cols: int
    nnz: int
    sparsity: float
    avg_row_length: float
    row_cov: float


def row_length_cov(row_lengths: np.ndarray) -> float:
    """Coefficient of variation of a row-length vector (0 for empty/uniform)."""
    lengths = np.asarray(row_lengths, dtype=np.float64)
    if lengths.size == 0:
        return 0.0
    mean = lengths.mean()
    if mean == 0:
        return 0.0
    return float(lengths.std() / mean)


def stats_from_row_lengths(
    row_lengths: np.ndarray, n_cols: int
) -> MatrixStats:
    """Compute the property triple from row lengths alone."""
    lengths = np.asarray(row_lengths, dtype=np.int64)
    if np.any(lengths < 0) or (lengths.size and lengths.max() > n_cols):
        raise ValueError("row lengths must lie in [0, n_cols]")
    rows = len(lengths)
    nnz = int(lengths.sum())
    total = rows * n_cols
    return MatrixStats(
        rows=rows,
        cols=n_cols,
        nnz=nnz,
        sparsity=1.0 - nnz / total if total else 0.0,
        avg_row_length=nnz / rows if rows else 0.0,
        row_cov=row_length_cov(lengths),
    )


@dataclass(frozen=True)
class CorpusSummary:
    """Aggregate statistics over a corpus (means of the per-matrix triples)."""

    n_matrices: int
    mean_sparsity: float
    mean_avg_row_length: float
    mean_row_cov: float


def summarize(stats: list[MatrixStats]) -> CorpusSummary:
    """Aggregate per-matrix stats into the Figure 2 corpus summary."""
    if not stats:
        raise ValueError("cannot summarize an empty corpus")
    return CorpusSummary(
        n_matrices=len(stats),
        mean_sparsity=float(np.mean([s.sparsity for s in stats])),
        mean_avg_row_length=float(np.mean([s.avg_row_length for s in stats])),
        mean_row_cov=float(np.mean([s.row_cov for s in stats])),
    )


def contrast(dl: CorpusSummary, sci: CorpusSummary) -> dict[str, float]:
    """The paper's headline ratios: DL matrices are ~13.4x less sparse,
    have ~2.3x longer rows, and ~25x less row-length variation.

    "x times less sparse" follows the paper's convention of comparing the
    *density* (1 - sparsity) of the two corpora.
    """
    return {
        "density_ratio": (1.0 - dl.mean_sparsity) / (1.0 - sci.mean_sparsity),
        "row_length_ratio": dl.mean_avg_row_length / sci.mean_avg_row_length,
        "cov_ratio": sci.mean_row_cov / dl.mean_row_cov,
    }
