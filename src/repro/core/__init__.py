"""The paper's contribution: Sputnik-style sparse kernels for deep learning.

Public entry points:

- :func:`spmm` — sparse matrix × dense matrix (Section V).
- :func:`sddmm` — sampled dense–dense matmul, ``A B^T ∘ I[C]`` (Section VI).
- :func:`sparse_softmax` — row softmax over CSR values (Section VII-C).
- :class:`SpmmConfig` / :class:`SddmmConfig` — per-optimization toggles for
  ablation (Table II).

Config-selection policies (the Section VII heuristics, the oracle, and
the autotuner) live in :mod:`repro.tune`; this package keeps only the
selection math they share (:mod:`repro.core.selection`).
"""

from .csc_spmm import (
    csc_as_transposed_csr,
    execute_spmm_csc,
    plan_spmm_csc,
    spmm_csc,
)
from .config import Precision, SddmmConfig, SpmmConfig, value_dtype
from .roma import (
    ROMA_MASK_INSTRUCTIONS,
    ROMA_PRELUDE_INSTRUCTIONS,
    AlignedRows,
    align_rows,
    masked_gather,
    masked_gather_reference,
    unaligned_rows,
)
from .sddmm import (
    SddmmPlan,
    execute_sddmm,
    plan_sddmm,
    sddmm,
)
from .selection import (
    next_power_of_two,
    pad_batch_for_vectors,
    widest_vector_width,
)
from .sparse_softmax import (
    SparseSoftmaxPlan,
    execute_sparse_softmax,
    plan_sparse_softmax,
    sparse_softmax,
)
from .spmm import (
    SpmmPlan,
    execute_spmm,
    plan_spmm,
    spmm,
)
from .swizzle import (
    bundle_rows,
    bundle_weights,
    identity_swizzle,
    paired_first_wave_order,
    row_swizzle,
    swizzled_row_groups,
)
from .tiling import SpmmTiling, derive_tiling
from .types import KernelResult

__all__ = [
    "spmm",
    "spmm_csc",
    "csc_as_transposed_csr",
    "sddmm",
    "sparse_softmax",
    "SpmmPlan",
    "SddmmPlan",
    "SparseSoftmaxPlan",
    "plan_spmm",
    "plan_sddmm",
    "plan_sparse_softmax",
    "plan_spmm_csc",
    "execute_spmm",
    "execute_sddmm",
    "execute_sparse_softmax",
    "execute_spmm_csc",
    "SpmmConfig",
    "SddmmConfig",
    "Precision",
    "value_dtype",
    "KernelResult",
    "SpmmTiling",
    "derive_tiling",
    "pad_batch_for_vectors",
    "next_power_of_two",
    "widest_vector_width",
    "row_swizzle",
    "identity_swizzle",
    "bundle_rows",
    "bundle_weights",
    "paired_first_wave_order",
    "swizzled_row_groups",
    "align_rows",
    "unaligned_rows",
    "masked_gather",
    "masked_gather_reference",
    "AlignedRows",
    "ROMA_PRELUDE_INSTRUCTIONS",
    "ROMA_MASK_INSTRUCTIONS",
]
