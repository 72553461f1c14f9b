"""Common result type returned by every kernel (ours and the baselines)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..gpu.executor import ExecutionResult


@dataclass
class KernelResult:
    """A kernel's numeric output paired with its simulated execution.

    ``output`` is a dense ``np.ndarray`` for SpMM-like kernels and a
    :class:`~repro.sparse.CSRMatrix` for SDDMM-like kernels.

    ``reliability`` is the :class:`~repro.reliability.policy.DispatchReport`
    of the ``repro.ops`` call that produced the result (backend used,
    retries, fallbacks, degraded-mode re-runs); every dispatched call
    carries one, and a result built by calling a kernel directly leaves it
    ``None``.
    """

    output: Any
    execution: ExecutionResult
    reliability: Any = None

    @property
    def runtime_s(self) -> float:
        return self.execution.runtime_s

    @property
    def throughput_flops(self) -> float:
        return self.execution.throughput_flops
