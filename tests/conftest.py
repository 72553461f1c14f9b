"""Shared fixtures: deterministic RNG, small matrices, devices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gpu import V100
from repro.ops import ExecutionContext
from repro.sparse import CSRMatrix


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def device():
    return V100


@pytest.fixture
def context(device) -> ExecutionContext:
    """A fresh execution context on ``device``: no plans or telemetry
    shared with other tests."""
    return ExecutionContext(device)


def random_sparse(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    density: float,
    dtype=np.float32,
) -> CSRMatrix:
    """Bernoulli-sparsity helper shared across test modules."""
    dense = (rng.random((rows, cols)) < density) * rng.standard_normal(
        (rows, cols)
    )
    return CSRMatrix.from_dense(dense.astype(np.float64), dtype=dtype)


@pytest.fixture
def small_sparse(rng) -> CSRMatrix:
    """64x48 matrix at ~30% density with at least one empty row."""
    dense = (rng.random((64, 48)) < 0.3) * rng.standard_normal((64, 48))
    dense[7] = 0.0
    return CSRMatrix.from_dense(dense)
