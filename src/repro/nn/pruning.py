"""Magnitude pruning (Zhu & Gupta 2018) — the sparsification algorithm the
MobileNet study uses (Section VII-D1).

``magnitude_prune`` keeps the largest-magnitude fraction of weights exactly;
``gradual_sparsity`` is the cubic ramp schedule from "To Prune, or Not to
Prune"; ``MagnitudePruner`` applies the schedule during training.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import CSRMatrix


def magnitude_prune(weight: np.ndarray, sparsity: float) -> np.ndarray:
    """Zero all but the top-``(1-sparsity)`` fraction of weights by |w|.

    Ties at the threshold resolve deterministically (by flat index), so the
    kept count is exact.
    """
    if not 0.0 <= sparsity < 1.0:
        raise ValueError(f"sparsity {sparsity} out of [0, 1)")
    weight = np.asarray(weight)
    n_keep = weight.size - int(round(sparsity * weight.size))
    if n_keep <= 0:
        return np.zeros_like(weight)
    flat = np.abs(weight).ravel()
    # argpartition gives an exact top-k even with duplicate magnitudes.
    keep_idx = np.argpartition(-flat, n_keep - 1)[:n_keep]
    mask = np.zeros(weight.size, dtype=bool)
    mask[keep_idx] = True
    return np.where(mask.reshape(weight.shape), weight, 0)


def prune_to_csr(
    weight: np.ndarray, sparsity: float, dtype=np.float32
) -> CSRMatrix:
    """Prune and compress in one step."""
    return CSRMatrix.from_dense(magnitude_prune(weight, sparsity), dtype=dtype)


def gradual_sparsity(
    step: int, total_steps: int, final_sparsity: float, initial_sparsity: float = 0.0
) -> float:
    """The Zhu & Gupta cubic sparsity ramp: s_t = s_f + (s_i - s_f)(1 - t/T)^3."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    t = min(max(step, 0), total_steps) / total_steps
    return final_sparsity + (initial_sparsity - final_sparsity) * (1.0 - t) ** 3


class MagnitudePruner:
    """Stateful gradual pruner: prune every ``frequency`` steps along the
    cubic ramp, keeping already-pruned weights at zero (mask monotonicity)."""

    def __init__(
        self,
        final_sparsity: float,
        total_steps: int,
        frequency: int = 10,
        initial_sparsity: float = 0.0,
    ) -> None:
        if not 0.0 <= final_sparsity < 1.0:
            raise ValueError("final sparsity out of range")
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.final_sparsity = final_sparsity
        self.total_steps = total_steps
        self.frequency = frequency
        self.initial_sparsity = initial_sparsity
        self._mask: np.ndarray | None = None

    def current_sparsity(self, step: int) -> float:
        return gradual_sparsity(
            step, self.total_steps, self.final_sparsity, self.initial_sparsity
        )

    def apply(self, weight: np.ndarray, step: int) -> np.ndarray:
        """Masked weights at this training step (updates the mask on
        schedule boundaries)."""
        weight = np.asarray(weight)
        if self._mask is None:
            self._mask = np.ones(weight.shape, dtype=bool)
        if step % self.frequency == 0:
            pruned = magnitude_prune(
                np.where(self._mask, weight, 0), self.current_sparsity(step)
            )
            self._mask = pruned != 0
        return np.where(self._mask, weight, 0)
