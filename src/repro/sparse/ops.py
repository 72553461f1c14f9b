"""Reference sparse operations (ground truth for every kernel).

These implement, in plain vectorized numpy/scipy, the three operations the
paper's kernels compute (Section IV):

- SpMM: ``A B => C`` with ``A`` sparse CSR, ``B``/``C`` dense row-major.
- SDDMM: ``A B^T ∘ I[C] => D`` — the deep-learning variant with a
  *transposed* right-hand operand and *indicator* (unscaled) sampling, plus
  the textbook scaled variant for completeness.
- Sparse softmax: row-wise softmax over the nonzero values of a CSR matrix
  (used by the sparse Transformer's attention).

Every kernel in ``repro.core`` and ``repro.baselines`` produces output that
tests compare against these functions.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .csr import CSRMatrix

#: Nonzeros (summed over heads) per chunk of the SDDMM reference gathers.
#: The ``lhs[:, row_ids]``/``rhs[:, col_ids]`` gathers materialize
#: ``(H, chunk, k)`` fp32 temporaries; chunking bounds peak memory at
#: ~``2 * SDDMM_CHUNK_NNZ * k * 4`` bytes (a few hundred MB at k=512)
#: regardless of the mask's nnz, so a huge SuiteSparse mask cannot blow up
#: the reference path.
SDDMM_CHUNK_NNZ = 1 << 18

#: Dense-sample path of the SDDMM reference, for both the single and the
#: batched entry point: when the mask is at least
#: :data:`SDDMM_DENSE_SAMPLE_DENSITY` dense, the product ``lhs @ rhs^T`` is
#: computed by BLAS one block of rows at a time and sampled at the block's
#: nonzeros before the next block is computed. Per-nonzero gathers move
#: ~2k bytes per output value; a GEMM runs an order of magnitude faster
#: per flop, so it wins whenever more than a few percent of the product is
#: actually needed. Each block is written into one reused buffer of at
#: most ``SDDMM_BLOCK_ELEMS`` fp32 elements per head (1 MiB), so peak
#: memory is bounded by the block whatever the mask's size, and a block is
#: still in cache when it is sampled. Within a block only the span from
#: its lowest to its highest referenced column is computed, so a causal
#: mask's upper triangle is never multiplied out. A block holds
#: ``SDDMM_BLOCK_ELEMS // cols`` rows: the count depends on the mask's
#: width only, never on the number of heads, so a stack runs the same
#: per-head GEMMs as its per-head loop and equals it bit for bit.
SDDMM_BLOCK_ELEMS = 1 << 18
SDDMM_DENSE_SAMPLE_DENSITY = 0.02


def spmm_reference(a: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """``A @ B`` with fp32 accumulation; output in ``A``'s value dtype.

    Mixed-precision inputs (fp16 values) are converted to fp32, multiplied
    with fp32 fused accumulation, and converted back on store — the exact
    numeric contract of the paper's mixed-precision kernels (Section V-D3).
    """
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != a.n_cols:
        raise ValueError(f"B shape {b.shape} incompatible with A {a.shape}")
    # The scipy operand shares A's fp32 values and native index arrays;
    # fp16 values widen to fp32 exactly, so no fp64 detour is needed.
    values = a.values.astype(np.float32, copy=False)
    sp = sparse.csr_matrix(
        (values, a.column_indices, a.row_offsets), shape=a.shape, copy=False
    )
    out = sp @ b.astype(np.float32, copy=False)
    return np.asarray(out, dtype=a.values.dtype)


def sddmm_reference(
    lhs: np.ndarray,
    rhs: np.ndarray,
    mask: CSRMatrix,
    *,
    scale_by_values: bool = False,
) -> CSRMatrix:
    """Sampled dense–dense matmul: ``(lhs @ rhs.T)`` at ``mask`` nonzeros.

    With ``scale_by_values`` the textbook element-wise scaling
    ``A B^T ∘ C`` is applied; the default matches the paper's
    deep-learning variant ``A B^T ∘ I[C]``. This is the ``H = 1`` case of
    :func:`sddmm_batched_reference`, so both share one sampling core.
    """
    out = sddmm_batched_reference(
        np.asarray(lhs)[None],
        np.asarray(rhs)[None],
        mask,
        scale_by_values=scale_by_values,
    )
    return mask.with_values(out[:, 0])


def sparse_softmax_reference(a: CSRMatrix, scale: float = 1.0) -> CSRMatrix:
    """Row-wise softmax over the nonzero values of ``a``.

    Rows with no nonzeros stay empty. The ``H = 1`` case of
    :func:`sparse_softmax_batched_reference`.
    """
    out = sparse_softmax_batched_reference(a, a.values[:, None], scale)
    return a.with_values(out[:, 0])


def spmm_batched_reference(
    a: CSRMatrix, b_stack: np.ndarray, values: np.ndarray | None = None
) -> np.ndarray:
    """Shared-topology batched SpMM: ``C[h] = A_h @ B[h]`` in one call.

    ``b_stack`` is ``(H, k, n)``. With ``values=None`` every head shares
    ``a``'s values, so the whole stack folds into a single sparse x dense
    product against the column-stacked ``(k, H*n)`` operand. With a
    ``(H, nnz)`` ``values`` matrix (e.g. softmaxed attention scores per
    head), the heads form one block-diagonal CSR sharing ``a``'s structure
    (memoized per depth by :meth:`StructureAnalysis.block_diagonal`) and
    the product is still a single scipy call — never a per-head loop.
    """
    b_stack = np.asarray(b_stack)
    if b_stack.ndim != 3 or b_stack.shape[1] != a.n_cols:
        raise ValueError(
            f"B stack shape {b_stack.shape} incompatible with A {a.shape}; "
            "expected (H, k, n)"
        )
    h, k, n = b_stack.shape
    if values is None:
        # One topology, one value set: C = A @ [B_1 | ... | B_H].
        wide = b_stack.transpose(1, 0, 2).reshape(k, h * n)
        out = spmm_reference(a, np.ascontiguousarray(wide))
        return np.ascontiguousarray(
            out.reshape(a.n_rows, h, n).transpose(1, 0, 2)
        )
    values = np.asarray(values)
    if values.shape != (h, a.nnz):
        raise ValueError(
            f"per-head values shape {values.shape} != ({h}, {a.nnz})"
        )
    # Block-diagonal stacking: H copies of the structure with per-head
    # values — still exactly one sparse matmul. The stacked structure is
    # the topology's, built once per depth and reused on every call.
    offsets, indices = a.analysis.block_diagonal(h)
    block = sparse.csr_matrix(
        (values.astype(np.float32, copy=False).ravel(), indices, offsets),
        shape=(h * a.n_rows, h * k),
        copy=False,
    )
    out = block @ b_stack.reshape(h * k, n).astype(np.float32, copy=False)
    return np.asarray(out, dtype=values.dtype).reshape(h, a.n_rows, n)


def sddmm_batched_reference(
    lhs_stack: np.ndarray,
    rhs_stack: np.ndarray,
    mask: CSRMatrix,
    *,
    scale_by_values: bool = False,
) -> np.ndarray:
    """Shared-topology batched SDDMM: ``(lhs[h] @ rhs[h].T)`` at nonzeros.

    ``lhs_stack`` is ``(H, rows, k)`` and ``rhs_stack`` ``(H, cols, k)``;
    returns the column-stacked ``(nnz, H)`` value matrix (one column per
    head, all sharing ``mask``'s topology). Only the dot products at the
    mask's nonzeros are needed (the whole point of SDDMM).

    Masks at least :data:`SDDMM_DENSE_SAMPLE_DENSITY` dense take the
    dense-sample path: BLAS ``lhs @ rhs^T`` one row block at a time
    (:data:`SDDMM_BLOCK_ELEMS`), each block sampled with a flat ``take`` at
    its nonzeros — per-nonzero gathers cost far more per flop than a GEMM
    once a few percent of the product is needed. Very sparse masks fall
    back to per-nonzero gathers chunked over nnz blocks. Peak memory stays
    bounded by the block or the chunk either way.
    """
    lhs_stack = np.asarray(lhs_stack, dtype=np.float32)
    rhs_stack = np.asarray(rhs_stack, dtype=np.float32)
    if lhs_stack.ndim != 3 or rhs_stack.ndim != 3:
        raise ValueError("operand stacks must be (H, rows, k)")
    if lhs_stack.shape[0] != rhs_stack.shape[0]:
        raise ValueError(
            f"stacks disagree on batch size: {lhs_stack.shape[0]} vs "
            f"{rhs_stack.shape[0]}"
        )
    rows, cols = mask.shape
    if lhs_stack.shape[1] != rows or rhs_stack.shape[1] != cols:
        raise ValueError(
            f"operands {lhs_stack.shape} x {rhs_stack.shape}^T incompatible "
            f"with mask {mask.shape}"
        )
    if lhs_stack.shape[2] != rhs_stack.shape[2]:
        raise ValueError("lhs and rhs must share the inner dimension")
    h = lhs_stack.shape[0]
    offsets, lengths = mask.row_offsets, mask.row_lengths
    col_ids = mask.column_indices
    out_vals = np.empty((mask.nnz, h), dtype=np.float32)
    if mask.nnz >= SDDMM_DENSE_SAMPLE_DENSITY * rows * cols:
        # Row-blocked dense sample: block i's product lands in one reused
        # buffer, is sampled with a flat ``take`` and is overwritten by
        # block i + 1; the full product never exists.
        block = max(1, SDDMM_BLOCK_ELEMS // max(1, cols))
        buf = np.empty(h * min(block, rows) * cols, dtype=np.float32)
        rhs_t = rhs_stack.transpose(0, 2, 1)
        for r0 in range(0, rows, block):
            r1 = min(r0 + block, rows)
            lo, hi = offsets[r0], offsets[r1]
            if lo == hi:
                continue
            cols_blk = col_ids[lo:hi]
            c0, c1 = int(cols_blk.min()), int(cols_blk.max()) + 1
            width = c1 - c0
            prod = buf[: h * (r1 - r0) * width].reshape(h, r1 - r0, width)
            np.matmul(lhs_stack[:, r0:r1], rhs_t[:, :, c0:c1], out=prod)
            flat = np.repeat(
                np.arange(0, (r1 - r0) * width, width), lengths[r0:r1]
            ) + (cols_blk - c0)
            out_vals[lo:hi] = prod.reshape(h, -1).take(flat, axis=1).T
    else:
        # One gathered dot product per nonzero, never the dense product.
        row_ids = np.repeat(np.arange(rows), lengths)
        chunk = max(1, SDDMM_CHUNK_NNZ // max(1, h))
        for start in range(0, mask.nnz, chunk):
            sl = slice(start, start + chunk)
            out_vals[sl] = np.einsum(
                "hnk,hnk->nh",
                lhs_stack[:, row_ids[sl]],
                rhs_stack[:, col_ids[sl]],
                dtype=np.float32,
            )
    if scale_by_values:
        out_vals *= mask.values.astype(np.float32)[:, None]
    return out_vals.astype(mask.values.dtype, copy=False)


def sparse_softmax_batched_reference(
    a: CSRMatrix, values: np.ndarray, scale: float = 1.0
) -> np.ndarray:
    """Row-wise softmax over a ``(nnz, H)`` value matrix sharing ``a``'s
    topology — one vectorized pass over all heads.

    Each non-empty CSR row is a contiguous segment of the value matrix, so
    the per-row max and sum are segmented reductions (``reduceat``) over
    those segments, broadcast back by repeating each row's result over
    its length. Numerically stabilized with the per-row max, like any
    production softmax.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != a.nnz:
        raise ValueError(
            f"value matrix shape {values.shape} != ({a.nnz}, H)"
        )
    vals = np.multiply(values, np.float32(scale), dtype=np.float32)
    lengths = a.row_lengths
    nonempty = lengths > 0
    # reduceat cannot express an empty segment: reduce over the non-empty
    # rows only, whose starts partition [0, nnz) exactly.
    starts = a.row_offsets[:-1][nonempty]
    lengths = lengths[nonempty]
    vals -= np.repeat(np.maximum.reduceat(vals, starts, axis=0), lengths, axis=0)
    np.exp(vals, out=vals)
    vals /= np.repeat(np.add.reduceat(vals, starts, axis=0), lengths, axis=0)
    return vals.astype(values.dtype, copy=False)


def spmm_flops(a: CSRMatrix, n: int) -> float:
    """Useful FLOPs of ``A @ B`` (2 per nonzero per output column)."""
    return 2.0 * a.nnz * n


def sddmm_flops(mask: CSRMatrix, k: int) -> float:
    """Useful FLOPs of a sampled dense–dense product (2 per nnz per k)."""
    return 2.0 * mask.nnz * k
