"""Workload datasets: the Section II matrix corpora, the RNN problem grid,
attention masks, and CoV-controlled imbalance matrices."""

from . import dnn_corpus, suitesparse
from .attention import banded_random_mask, dense_causal_mask, mask_statistics
from .imbalance import (
    FIG7_K,
    FIG7_M,
    FIG7_N,
    FIG7_SPARSITY,
    NEURAL_NETWORK_COV,
    imbalanced_matrix,
    imbalanced_spec,
)
from .rnn import CELL_GATES, RnnProblem, problem_grid
from .spec import MatrixSpec, materialize_rows, row_lengths_with_cov
from .statistics import (
    CorpusSummary,
    MatrixStats,
    contrast,
    row_length_cov,
    stats_from_row_lengths,
    summarize,
)

__all__ = [
    "MatrixSpec",
    "row_lengths_with_cov",
    "materialize_rows",
    "MatrixStats",
    "CorpusSummary",
    "row_length_cov",
    "stats_from_row_lengths",
    "summarize",
    "contrast",
    "dnn_corpus",
    "suitesparse",
    "RnnProblem",
    "problem_grid",
    "CELL_GATES",
    "banded_random_mask",
    "dense_causal_mask",
    "mask_statistics",
    "imbalanced_spec",
    "imbalanced_matrix",
    "NEURAL_NETWORK_COV",
    "FIG7_M",
    "FIG7_K",
    "FIG7_N",
    "FIG7_SPARSITY",
]
