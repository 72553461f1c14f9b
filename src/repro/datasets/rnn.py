"""Sparse recurrent-network problem grid (Section VII-A2, Figure 10).

The MergeSpmm and ASpT kernels only support restricted shapes (batch
divisible by 32; rows divisible by 256), so the paper compares on RNN, GRU,
and LSTM weight-matrix problems, "generated ... with random uniform
sparsity", sweeping state sizes 1k-8k, sparsities 70/80/90 %, and batch
sizes 32/128.

The M dimension follows the gate structure of each cell: an RNN weight is
``h x h``, a GRU stacks 3 gates (``3h x h``), an LSTM 4 (``4h x h``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from .spec import MatrixSpec

#: Gate multiplier per cell type.
CELL_GATES = {"rnn": 1, "gru": 3, "lstm": 4}

STATE_SIZES = (1024, 2048, 4096, 8192)
SPARSITIES = (0.7, 0.8, 0.9)
BATCH_SIZES = (32, 128)


@dataclass(frozen=True)
class RnnProblem:
    """One benchmark point of the Figure 10 grid."""

    cell: str
    state_size: int
    sparsity: float
    batch_size: int
    seed: int

    @property
    def m(self) -> int:
        return CELL_GATES[self.cell] * self.state_size

    @property
    def k(self) -> int:
        return self.state_size

    @property
    def n(self) -> int:
        return self.batch_size

    @property
    def label(self) -> str:
        """The paper's "M/K/N/sparsity" problem label."""
        return f"{self.m}/{self.k}/{self.n}/{int(self.sparsity * 100)}%"

    def spec(self) -> MatrixSpec:
        """Uniform-random sparsity: the row-length CoV of a Bernoulli mask,
        std/mean = sqrt((1-p)/(p*K))."""
        density = 1.0 - self.sparsity
        cov = float(np.sqrt(self.sparsity / (density * self.k)))
        return MatrixSpec(
            name=f"{self.cell}/{self.label}",
            model=self.cell,
            layer="recurrent_weight",
            rows=self.m,
            cols=self.k,
            sparsity=self.sparsity,
            row_cov=cov,
            seed=self.seed,
        )

    def materialize(self) -> CSRMatrix:
        return self.spec().materialize()


def problem_grid(
    cells: tuple[str, ...] = ("rnn", "gru", "lstm"),
    state_sizes: tuple[int, ...] = STATE_SIZES,
    sparsities: tuple[float, ...] = SPARSITIES,
    batch_sizes: tuple[int, ...] = BATCH_SIZES,
    seed: int = 7,
) -> list[RnnProblem]:
    """The full Figure 10 grid (72 problems by default)."""
    for cell in cells:
        if cell not in CELL_GATES:
            raise ValueError(f"unknown cell type {cell!r}")
    problems = []
    counter = 0
    for cell in cells:
        for h in state_sizes:
            for sp in sparsities:
                for b in batch_sizes:
                    problems.append(
                        RnnProblem(cell, h, sp, b, seed=seed + counter)
                    )
                    counter += 1
    return problems
