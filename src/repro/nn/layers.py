"""Linear layers: dense (cuBLAS-backed) and sparse (Sputnik-backed).

``SparseLinear`` is the weight-sparse building block the paper motivates in
Section IV-B:

- forward: ``Y = W X`` — one SpMM;
- backward w.r.t. the weights: ``δW = δY Xᵀ ∘ I[W]`` — one SDDMM;
- backward w.r.t. the input: ``δX = Wᵀ δY`` — one SpMM against the cached
  transpose (Section IX: the transpose topology is cached when the sparse
  topology changes and re-applied as a value permutation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import ops
from ..core.config import SpmmConfig
from ..gpu.device import DeviceSpec
from ..sparse.csr import CSRMatrix
from ..sparse.transpose import CachedTranspose
from .profile import Profile


@dataclass
class Linear:
    """Dense linear layer ``Y = W X`` (weights ``(out, in)``, column-batch)."""

    weight: np.ndarray

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float32)
        if self.weight.ndim != 2:
            raise ValueError("weight must be 2-D")

    @property
    def weight_bytes(self) -> int:
        return self.weight.nbytes

    def forward(
        self, x: np.ndarray, device: DeviceSpec, profile: Profile | None = None
    ) -> np.ndarray:
        result = ops.matmul(self.weight, x, device)
        if profile is not None:
            profile.add(result.execution)
        return result.output


class SparseLinear:
    """Weight-sparse linear layer backed by the Sputnik kernels.

    Per-weight state the kernels need — the transpose topology plan and the
    transposed CSR used by the input-gradient SpMM — is cached on the layer
    and invalidated exactly when the weight changes: assigning a new weight
    rebuilds everything; a same-topology value update (``update_values``)
    keeps the transpose plan and only refreshes the transposed values.
    Kernel plans and config selections are cached per topology by the
    :mod:`repro.ops` execution context.
    """

    def __init__(
        self,
        weight: CSRMatrix,
        config: SpmmConfig | None = None,
        policy=None,
        validate: bool = False,
        selector: str = "heuristic",
    ) -> None:
        self.config = config
        #: Backend string, chain, or FallbackPolicy for every kernel the
        #: layer launches; ``None`` means plain ``"sputnik"``.
        self.policy = policy
        #: Config selector for every kernel the layer launches when no
        #: explicit ``config`` is given (``"heuristic"``, ``"oracle"``,
        #: ``"tuned"``, or a :class:`~repro.tune.Selector` instance).
        self.selector = selector
        #: Run the numerical guardrails on every output (fp16 overflow
        #: triggers a degraded fp32 re-run, flagged on ``self.degraded``).
        self.validate = validate
        #: DispatchReport of the most recent kernel the layer launched.
        self.last_report = None
        self.weight = weight  # property: builds the per-weight caches

    @property
    def degraded(self) -> bool:
        """True when the last kernel completed in degraded mode (fp32
        re-run after an fp16 overflow) or on a fallback backend."""
        report = self.last_report
        return bool(
            report is not None and (report.degraded or report.fallbacks)
        )

    def _backend(self):
        return self.policy if self.policy is not None else "sputnik"

    def _record(self, result) -> None:
        if result.reliability is not None:
            self.last_report = result.reliability

    @property
    def weight(self) -> CSRMatrix:
        return self._weight

    @weight.setter
    def weight(self, weight: CSRMatrix) -> None:
        """Swap the weight; rebuilds the transpose plan (new topology)."""
        self._weight = weight
        self._transpose_plan = CachedTranspose(weight)
        self._w_t: CSRMatrix | None = None
        # Repair lineage (update_topology): the previous topology's plans
        # stay cached as repair ancestors for exactly one generation.
        self._parent_fp: str | None = None
        self._parent_wt_fp: str | None = None

    @property
    def weight_bytes(self) -> int:
        return self.weight.memory_bytes()

    def _weight_transpose(self) -> CSRMatrix:
        """The cached ``Wᵀ`` CSR for the backward SpMM (Section IX)."""
        if self._w_t is None:
            self._w_t = self._transpose_plan.transpose(
                self.weight.astype(np.float32)
            )
        return self._w_t

    def forward(
        self, x: np.ndarray, device: DeviceSpec, profile: Profile | None = None
    ) -> np.ndarray:
        """``Y = W X``; ``x`` is ``(in_features, batch)``."""
        result = ops.spmm(
            self.weight, x, device, self.config,
            backend=self._backend(), selector=self.selector,
            validate=self.validate,
        )
        self._record(result)
        if profile is not None:
            profile.add(result.execution)
        return result.output

    def backward(
        self,
        x: np.ndarray,
        grad_out: np.ndarray,
        device: DeviceSpec,
        profile: Profile | None = None,
    ) -> tuple[CSRMatrix, np.ndarray]:
        """Gradients ``(δW, δX)`` for ``Y = W X`` (Section IV-B).

        ``δW = δY Xᵀ ∘ I[W]`` is exactly the deep-learning SDDMM; ``δX``
        reuses the cached transposed CSR so no per-step transpose is paid.
        """
        grad_out = np.asarray(grad_out, dtype=np.float32)
        x32 = np.asarray(x, dtype=np.float32)
        grad_w = ops.sddmm(
            grad_out, x32, self.weight, device,
            backend=self._backend(), selector=self.selector,
            validate=self.validate,
        )
        self._record(grad_w)
        if profile is not None:
            profile.add(grad_w.execution)

        grad_x = ops.spmm(
            self._weight_transpose(), grad_out, device,
            backend=self._backend(), selector=self.selector,
            validate=self.validate,
        )
        self._record(grad_x)
        if profile is not None:
            profile.add(grad_x.execution)
        return grad_w.output, grad_x.output

    def update_values(self, new_values: np.ndarray) -> None:
        """In-place value update: same topology, so the transpose plan and
        kernel plans stay valid — only the cached transposed values drop.

        Raises :class:`ValueError` when the value count disagrees with the
        current topology — that is a *topology* edit and must go through
        :meth:`update_topology`, which handles plan invalidation/repair.
        """
        new_values = np.asarray(new_values)
        if new_values.size != self._weight.nnz:
            raise ValueError(
                f"update_values got {new_values.size} values for a "
                f"{self._weight.nnz}-nonzero topology; a sparsity-pattern "
                "change must go through update_topology()"
            )
        self._weight = self._weight.with_values(new_values)
        self._w_t = None

    def update_topology(
        self, new_weight: CSRMatrix, delta=None, context=None
    ) -> None:
        """Swap in a mutated sparsity pattern (a drop/grow update).

        Rebuilds the per-weight caches (transpose plan, cached ``Wᵀ``)
        like the ``weight`` setter, and — when ``context`` is an
        :class:`~repro.ops.context.ExecutionContext` — wires the plan
        cache for the edit:

        - ``delta`` (a :class:`~repro.core.repair.TopologyDelta`, computed
          by diffing when ``None``) is registered so the next forward SpMM
          and SDDMM lookups repair from the parent's plans. The backward
          ``Wᵀ`` SpMM gets no delta: a row edit of ``W`` touches most
          rows of ``Wᵀ``, so its plan is simply built cold;
        - plans two generations old — the previous update's *ancestors*,
          which no future lookup or repair can reach — are evicted
          (``plan_invalidations`` telemetry). The immediate parent's
          plans stay cached: they are the repair ancestors for this edit.
        """
        if tuple(new_weight.shape) != tuple(self._weight.shape):
            raise ValueError(
                f"update_topology shape mismatch: layer is "
                f"{tuple(self._weight.shape)}, got {tuple(new_weight.shape)}"
            )
        old = self._weight
        old_w_t = self._w_t
        stale_fp = self._parent_fp
        stale_wt_fp = self._parent_wt_fp
        if context is not None and delta is None:
            delta = ops.topology_delta(old, new_weight)
        self.weight = new_weight  # property: rebuilds the transpose caches
        if context is None:
            return
        context.register_topology_delta(delta)
        self._parent_fp = delta.parent
        if old_w_t is not None:
            self._parent_wt_fp = ops.matrix_fingerprint(old_w_t)
        for fp in (stale_fp, stale_wt_fp):
            if fp is not None:
                context.invalidate_topology(fp, op="sparse_linear")

    def reference_forward(self, x: np.ndarray) -> np.ndarray:
        """Numpy ground truth (for tests)."""
        return (
            self.weight.to_dense().astype(np.float32) @ np.asarray(x, np.float32)
        ).astype(self.weight.values.dtype)
