"""Memory-transaction accounting: coalescing, alignment, and vector widths.

GPUs service a warp's global-memory access as a set of 32-byte sector
transactions. The quantities the paper's techniques optimize — transactions
per request, wasted sectors from misalignment, and instruction counts saved
by 2-/4-wide vector loads — are computed here and charged by the kernels.

All functions are pure and vectorized over numpy arrays so that a kernel can
cost thousands of thread blocks in a single call.
"""

from __future__ import annotations

import numpy as np

from .device import DeviceSpec

#: Supported vector memory widths, in 4-byte elements (float/int32).
VECTOR_WIDTHS = (1, 2, 4)


def validate_vector_width(vector_width: int) -> None:
    """Raise ``ValueError`` unless ``vector_width`` is 1, 2 or 4."""
    if vector_width not in VECTOR_WIDTHS:
        raise ValueError(
            f"vector_width must be one of {VECTOR_WIDTHS}, got {vector_width}"
        )


def sectors_for_contiguous(
    nbytes: np.ndarray | int,
    start_offset_bytes: np.ndarray | int = 0,
    *,
    sector_bytes: int = 32,
) -> np.ndarray | int:
    """Number of 32B sectors touched by a contiguous access of ``nbytes``.

    ``start_offset_bytes`` is the byte offset of the first element within a
    sector-aligned region; a misaligned start can straddle an extra sector.
    """
    nbytes = np.asarray(nbytes)
    start = np.asarray(start_offset_bytes) % sector_bytes
    end = start + nbytes
    return np.where(nbytes > 0, (end + sector_bytes - 1) // sector_bytes, 0)


def load_instructions(
    n_elements: np.ndarray | int,
    active_threads: int,
    vector_width: int,
) -> np.ndarray | int:
    """Warp-level load instructions to read ``n_elements`` 4-byte elements.

    ``active_threads`` threads cooperate; each instruction moves
    ``active_threads * vector_width`` elements. Partial trailing loads still
    cost a full instruction (predicated lanes are not free issue slots).
    """
    validate_vector_width(vector_width)
    if active_threads <= 0:
        raise ValueError("active_threads must be positive")
    per_inst = active_threads * vector_width
    n = np.asarray(n_elements)
    return (n + per_inst - 1) // per_inst


def aligned_extent(
    offsets: np.ndarray | int,
    lengths: np.ndarray | int,
    vector_width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply reverse-offset memory alignment (ROMA) to CSR row extents.

    Given element ``offsets`` into a value/index array and row ``lengths``
    (in elements), back each offset up to the nearest ``vector_width``-aligned
    element and grow the length accordingly, exactly as the kernel prelude in
    the paper (Section V-B2) does. Returns ``(aligned_offsets,
    aligned_lengths)``. With ``vector_width == 1`` this is the identity.
    """
    validate_vector_width(vector_width)
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 0):
        raise ValueError("row lengths must be non-negative")
    backup = offsets % vector_width
    return offsets - backup, lengths + backup


def dram_bytes_with_reuse(
    total_bytes: float,
    unique_bytes: float,
    l2_capacity: int,
) -> float:
    """DRAM traffic after L2 reuse for a streaming working set.

    A kernel that touches ``unique_bytes`` of distinct data a total of
    ``total_bytes`` times sees DRAM traffic between those two bounds: if the
    distinct working set fits in L2 every re-reference hits, otherwise hits
    decay with the ratio of cache to working set (a standard streaming-reuse
    approximation; see DESIGN.md Section 5).
    """
    if total_bytes < 0 or unique_bytes < 0:
        raise ValueError("byte counts must be non-negative")
    if unique_bytes > total_bytes + 1e-6:
        raise ValueError("unique_bytes cannot exceed total_bytes")
    if total_bytes == 0:
        return 0.0
    if unique_bytes <= l2_capacity:
        return float(unique_bytes)
    hit_rate = l2_capacity / unique_bytes
    rereads = total_bytes - unique_bytes
    return float(unique_bytes + rereads * (1.0 - hit_rate))


def l1_hit_fraction(
    loads_per_element: float, working_set_bytes: float, l1_capacity: float
) -> float:
    """Fraction of re-reference traffic an SM's L1 cache absorbs.

    ``loads_per_element`` is how many times each distinct element is read
    while resident work shares the SM (e.g. rows per SM x matrix density for
    SpMM's dense operand — the subwarp-locality effect of Section V-B1).
    The first access always misses, and hits are further limited by how much
    of the working set the L1 can cover.
    """
    if loads_per_element <= 1.0:
        return 0.0
    if working_set_bytes < 0 or l1_capacity < 0:
        raise ValueError("sizes must be non-negative")
    reuse = 1.0 - 1.0 / loads_per_element
    coverage = 1.0 if working_set_bytes == 0 else min(
        1.0, l1_capacity / working_set_bytes
    )
    return reuse * coverage


def latency_hiding_factor(resident_warps: float, device: DeviceSpec) -> float:
    """Fraction of peak bandwidth/throughput reachable at a given occupancy.

    With few resident warps an SM cannot cover DRAM latency; effectiveness
    grows roughly linearly until ``device.warps_to_saturate`` warps are
    resident (the square root softens the knee, matching the gentle roll-off
    measured on Volta-class parts).
    """
    if resident_warps <= 0:
        return 0.0
    x = min(1.0, resident_warps / device.warps_to_saturate)
    return float(np.sqrt(x * (2.0 - x)))


def flip_bit(array: np.ndarray, element_index: int, bit: int) -> int:
    """Flip one bit of one element of an integer buffer, in place.

    Models an uncorrected memory error (ECC disabled or a double-bit upset)
    in device-resident metadata — the fault class the reliability layer's
    deep validation (checksums over CSR structure arrays) exists to catch.
    Returns the element's original value so a repair path can restore it.
    """
    if array.dtype.kind not in "iu":
        raise TypeError(f"flip_bit targets integer buffers, got {array.dtype}")
    width = array.dtype.itemsize * 8
    if not 0 <= bit < width:
        raise ValueError(f"bit {bit} out of range for {array.dtype}")
    if not 0 <= element_index < array.size:
        raise ValueError(
            f"element {element_index} out of range for size {array.size}"
        )
    flat = array.reshape(-1)
    original = int(flat[element_index])
    unsigned = flat.view(f"u{array.dtype.itemsize}")
    unsigned[element_index] ^= np.asarray(1, dtype=unsigned.dtype) << bit
    return original
