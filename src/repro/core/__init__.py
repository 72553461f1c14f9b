"""The paper's contribution: Sputnik-style sparse kernels for deep learning.

Each kernel is a ``plan_*`` function (costed launch plus simulated run,
from the operand's structure alone) and an ``execute_*`` function (exact
numerics on a plan): SpMM (Section V), SDDMM, ``A B^T ∘ I[C]`` (Section
VI), sparse softmax (Section VII-C) and the CSC form of SpMM (Section
IV-C). :class:`SpmmConfig` / :class:`SddmmConfig` hold the
per-optimization toggles for ablation (Table II). Programs call the
kernels through :mod:`repro.ops`, which caches the plans.

Config-selection policies (the Section VII heuristics, the oracle, and
the autotuner) live in :mod:`repro.tune`; this package keeps only the
selection math they share (:mod:`repro.core.selection`).
"""

from .csc_spmm import (
    csc_as_transposed_csr,
    execute_spmm_csc,
    plan_spmm_csc,
)
from .config import Precision, SddmmConfig, SpmmConfig, value_dtype
from .roma import (
    ROMA_MASK_INSTRUCTIONS,
    ROMA_PRELUDE_INSTRUCTIONS,
    AlignedRows,
    align_rows,
    unaligned_rows,
)
from .sddmm import (
    SddmmPlan,
    execute_sddmm,
    plan_sddmm,
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
)
from .spmm import (
    SpmmPlan,
    execute_spmm,
    plan_spmm,
)
from .swizzle import (
    bundle_rows,
    bundle_weights,
    identity_swizzle,
    row_swizzle,
    swizzled_row_groups,
)
from .tiling import SpmmTiling, derive_tiling
from .types import KernelResult

__all__ = [
    "csc_as_transposed_csr",
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
    "swizzled_row_groups",
    "align_rows",
    "unaligned_rows",
    "AlignedRows",
    "ROMA_PRELUDE_INSTRUCTIONS",
    "ROMA_MASK_INSTRUCTIONS",
]
