"""Row-swizzle load balancing (Section V-C).

Two sources of load imbalance are addressed by re-ordering *when* rows are
processed, without touching the parallelization scheme:

- **Row binning** — heavy row bundles are scheduled first so SMs receive
  roughly equal totals (exploiting the in-order Volta dispatch, this is a
  guided-self-scheduling-style heuristic).
- **Row bundling** — rows of similar length are grouped into the bundles a
  warp processes together, so subwarps in a warp diverge less.

Thanks to the online hardware scheduler, both reduce to a single argsort of
row indices by decreasing row length (Section V-C2); bundles are then just
consecutive runs of the sorted order. The explicit first-wave pairing
heuristic the paper sketches is also provided for study.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix


def row_swizzle(row_lengths: np.ndarray) -> np.ndarray:
    """Row indices sorted by decreasing length (the paper's swizzle array).

    A stable sort keeps equal-length rows in their natural order, which
    preserves locality between neighbouring rows of the original matrix.
    The result is what ``a.row_indices`` holds in Figure 8, line 13.
    """
    lengths = np.asarray(row_lengths)
    if lengths.ndim != 1:
        raise ValueError("row_lengths must be 1-D")
    if np.any(lengths < 0):
        raise ValueError("row lengths must be non-negative")
    return np.argsort(-lengths, kind="stable")


def identity_swizzle(n_rows: int) -> np.ndarray:
    """The no-op ordering used when load balancing is disabled."""
    return np.arange(n_rows, dtype=np.int64)


def bundle_rows(order: np.ndarray, bundle_size: int) -> list[np.ndarray]:
    """Split an ordering into consecutive bundles of ``bundle_size`` rows.

    With a sorted ``order`` this implements row bundling: each bundle (the
    rows one thread block processes) holds rows of similar length.
    """
    if bundle_size <= 0:
        raise ValueError("bundle_size must be positive")
    order = np.asarray(order)
    n_full = len(order) // bundle_size
    bundles = list(order[: n_full * bundle_size].reshape(n_full, bundle_size))
    if len(order) % bundle_size:
        bundles.append(order[n_full * bundle_size :])
    return bundles


def bundle_weights(row_lengths: np.ndarray, order: np.ndarray, bundle_size: int) -> np.ndarray:
    """Total nonzeros per bundle under an ordering (heaviness of each unit)."""
    lengths = np.asarray(row_lengths)[np.asarray(order)]
    n = len(lengths)
    pad = (-n) % bundle_size
    if pad:
        lengths = np.concatenate([lengths, np.zeros(pad, dtype=lengths.dtype)])
    return lengths.reshape(-1, bundle_size).sum(axis=1)


def paired_first_wave_order(row_lengths: np.ndarray, wave_size: int) -> np.ndarray:
    """The explicit binning heuristic from Section V-C2.

    Pick the heaviest ``wave_size`` rows as the first wave, then pair the
    *next* heaviest ``wave_size`` rows with them in reverse order of
    heaviness, and so on — so every scheduling slot accumulates a similar
    total. Provided for analysis; the production kernels rely on the plain
    sorted order plus the hardware's online dispatch, which the paper shows
    is equivalent in effect.
    """
    if wave_size <= 0:
        raise ValueError("wave_size must be positive")
    sorted_rows = row_swizzle(row_lengths)
    n = len(sorted_rows)
    pad = (-n) % wave_size
    padded = np.concatenate([sorted_rows, np.full(pad, -1, dtype=np.int64)])
    waves = padded.reshape(-1, wave_size)
    waves[1::2] = waves[1::2, ::-1]  # serpentine pairing
    out = waves.reshape(-1)
    return out[out >= 0]


def group_rows(order: np.ndarray, rows_per_block: int) -> np.ndarray:
    """Pad an ordering to a whole number of blocks and shape it
    ``(n_blocks_y, rows_per_block)`` with ``-1`` marking absent rows."""
    order = np.asarray(order, dtype=np.int64)
    n = len(order)
    pad = (-n) % rows_per_block
    padded = np.concatenate([order, np.full(pad, -1, dtype=np.int64)])
    return padded.reshape(-1, rows_per_block)


def row_order(a: CSRMatrix, enabled: bool = True) -> np.ndarray:
    """The order a kernel processes ``a``'s rows in: the memoized swizzle
    (``a.analysis.swizzle_order``) with load balancing, else identity."""
    return a.analysis.swizzle_order if enabled else identity_swizzle(a.n_rows)


def swizzled_row_groups(
    a: CSRMatrix, rows_per_block: int, enabled: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Rows each thread block processes, in scheduling order.

    Returns ``(order, grouped)`` where ``order`` is the row permutation and
    ``grouped`` is an ``(n_blocks_y, rows_per_block)`` int array padded with
    ``-1`` for absent rows (grids rarely divide evenly).
    """
    order = row_order(a, enabled)
    return order, group_rows(order, rows_per_block)
