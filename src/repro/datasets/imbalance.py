"""CoV-controlled matrices for the load-balancing study (Figure 7).

Figure 7 benchmarks SpMM (M=8192, K=2048, N=128, 75 % sparse) on matrices
whose row-length coefficient of variation is swept from 0 (perfectly
balanced) upward, comparing the standard row ordering against row-swizzle
load balancing. The paper marks the average CoV of its DNN dataset on the
same axis.
"""

from __future__ import annotations

from ..sparse.csr import CSRMatrix
from .spec import MatrixSpec

#: The Figure 7 problem configuration.
FIG7_M = 8192
FIG7_K = 2048
FIG7_N = 128
FIG7_SPARSITY = 0.75

#: Average row-length CoV of the paper's DNN dataset (the gray marker line).
NEURAL_NETWORK_COV = 0.31


def imbalanced_spec(
    cov: float,
    m: int = FIG7_M,
    k: int = FIG7_K,
    sparsity: float = FIG7_SPARSITY,
    seed: int = 3,
) -> MatrixSpec:
    """A matrix spec with the target CoV and fixed total nonzeros."""
    if cov < 0:
        raise ValueError("CoV must be non-negative")
    return MatrixSpec(
        name=f"imbalance/cov{cov:.2f}",
        model="imbalance_study",
        layer=f"cov{cov:.2f}",
        rows=m,
        cols=k,
        sparsity=sparsity,
        row_cov=cov,
        seed=seed,
    )


def imbalanced_matrix(cov: float, **kwargs) -> CSRMatrix:
    """Materialize a Figure 7 matrix with the requested imbalance."""
    return imbalanced_spec(cov, **kwargs).materialize()
