"""repro — a from-scratch reproduction of "Sparse GPU Kernels for Deep
Learning" (Gale, Zaharia, Young, Elsen — SC 2020).

The package reimplements the Sputnik kernel library and the paper's full
evaluation on a software model of a V100-class GPU (see DESIGN.md):

- :mod:`repro.core` — the paper's SpMM, SDDMM, and sparse-softmax kernels
  (1-D tiling, subwarp tiling, ROMA, row-swizzle load balancing, mixed
  precision) with per-optimization ablation toggles;
- :mod:`repro.gpu` — the GPU substrate: device models, occupancy, memory
  transactions, the reverse-engineered Volta block scheduler, and the
  launch executor;
- :mod:`repro.sparse` — CSR/CSC/block formats, reference operations, and
  the cached-topology transpose;
- :mod:`repro.baselines` — cuSPARSE, cuBLAS, MergeSpmm, and ASpT models;
- :mod:`repro.datasets` — the Section II matrix corpora and every
  benchmark's workload generators;
- :mod:`repro.nn` — sparse layers, attention, the Table III Transformer,
  the Table IV MobileNetV1, RNN cells, and magnitude pruning;
- :mod:`repro.bench` — the sweep runner and speedup statistics;
- :mod:`repro.tune` — config selection behind ``selector=``: the paper's
  Section VII heuristics, the oracle, and a cost-model-driven autotuner
  whose winners persist in the plan store;
- :mod:`repro.ops` — the unified operator dispatch layer: a kernel
  registry (swap backends by string), per-matrix plan caching, and
  telemetry. All higher layers call kernels through it;
- :mod:`repro.reliability` — fault injection, backend fallback chains
  with retry/backoff, a structured error taxonomy, and numerical
  guardrails (fp16-overflow degraded mode, deep CSR validation);
- :mod:`repro.dist` — multi-GPU sharded execution: cost-balanced row/2-D
  shard plans, per-device allocators, and an NVLink/PCIe interconnect
  model charging all-gather/reduce-scatter/all-reduce on the simulated
  clock.

Quick start::

    import numpy as np
    from repro import ops, CSRMatrix, V100

    a = CSRMatrix.from_dense(np.eye(64, dtype=np.float32))
    b = np.ones((64, 32), dtype=np.float32)
    result = ops.spmm(a, b, V100)   # plan cached for the next call
    print(result.output.shape, result.runtime_s)
"""

from .core import KernelResult, SddmmConfig, SpmmConfig
from .gpu import GTX1080, V100, DeviceSpec, get_device
from .sparse import CSRMatrix, sddmm_reference, sparse_softmax_reference, spmm_reference
from . import dist, ops, reliability, tune
from .ops import ExecutionContext, default_context, sddmm, sparse_softmax, spmm

__version__ = "1.0.0"

__all__ = [
    "ops",
    "reliability",
    "tune",
    "dist",
    "ExecutionContext",
    "default_context",
    "spmm",
    "sddmm",
    "sparse_softmax",
    "SpmmConfig",
    "SddmmConfig",
    "KernelResult",
    "CSRMatrix",
    "spmm_reference",
    "sddmm_reference",
    "sparse_softmax_reference",
    "DeviceSpec",
    "V100",
    "GTX1080",
    "get_device",
    "__version__",
]
