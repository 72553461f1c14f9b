"""Config selection and autotuning for the sparse kernels.

Everything that turns a problem (matrix, dimension, precision) into a
kernel config lives here: the paper's heuristics, the candidate search
space, the oracle and hill-climbing searches, and the selector protocol
the execution context dispatches through.
"""

from .heuristics import (
    default_sddmm_config,
    default_spmm_config,
    operand_precision,
    select_sddmm_config,
    select_spmm_config,
)
from .search import (
    MAX_ROUNDS,
    TuningResult,
    oracle_sddmm_config,
    oracle_spmm_config,
    reset_tuning_seconds,
    tune_sddmm_config,
    tune_spmm_config,
    tuning_seconds,
)
from .selector import (
    SELECTOR_REGISTRY,
    HeuristicSelector,
    OracleSelector,
    Selector,
    TunedSelector,
    register_selector,
    resolve_selector,
)
from .space import (
    sddmm_candidates,
    sddmm_neighbors,
    spmm_candidates,
    spmm_neighbors,
)

__all__ = [
    "MAX_ROUNDS",
    "SELECTOR_REGISTRY",
    "HeuristicSelector",
    "OracleSelector",
    "Selector",
    "TunedSelector",
    "TuningResult",
    "default_sddmm_config",
    "default_spmm_config",
    "operand_precision",
    "oracle_sddmm_config",
    "oracle_spmm_config",
    "register_selector",
    "reset_tuning_seconds",
    "resolve_selector",
    "sddmm_candidates",
    "sddmm_neighbors",
    "select_sddmm_config",
    "select_spmm_config",
    "spmm_candidates",
    "spmm_neighbors",
    "tune_sddmm_config",
    "tune_spmm_config",
    "tuning_seconds",
]
