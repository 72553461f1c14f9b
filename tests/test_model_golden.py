"""Golden model net: every model forward pass, pinned at the simulator.

Each case runs one model-level entry point of :mod:`repro.nn` on a fresh
context (installed as the V100 default, or a fresh
:class:`~repro.dist.DeviceGroup`) and pins, as literals:

- every profile record's simulated ``runtime_s``, as ``float.hex()``, and
  the record count;
- the profile's weight bytes;
- the post-call telemetry snapshot, as a canonical string of its nonzero
  counters;
- the HBM ``peak_allocated_bytes`` and ``peak_reserved_bytes`` of every
  context the call ran on;
- for the sharded forward, the numbers of ``last_shard_report``.

The cases cover MobileNet at a small width (sparse with the oracle
selector, sparse heuristic and dense) at one and two images, a small
``TransformerStack`` with a sparse and a dense mask, its sharded forward on
one and two devices, and sparse and dense attention at one and four heads.
One image and one head run both unstacked and as a depth-1 stack.

The literals were captured before the models' batched and single forward
passes were merged; regenerate them only for an intended change to
simulated costs, with::

    PYTHONPATH=src python -m tests.test_model_golden
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ops
from repro.datasets.attention import banded_random_mask
from repro.dist import DeviceGroup
from repro.gpu import V100
from repro.nn import (
    MobileNetV1,
    Profile,
    TransformerStack,
    dense_attention,
    sparse_attention,
)
from repro.ops import ExecutionContext
from tests.test_dispatch_golden import CAPACITY, _telemetry

SEQ = 64
D_MODEL = 64
HEADS = 4
HEAD_DIM = 16
D_FFN = 128
#: Shard-report fields pinned for the sharded forward.
REPORT_FIELDS = ("compute_s", "device_seconds", "comm_s", "runtime_s")


def _mask():
    return banded_random_mask(SEQ, band=8, seed=7)


def _mobilenet(variant: str, batch: str):
    model = MobileNetV1(
        width=0.25,
        sparse=variant != "dense",
        use_oracle=variant == "sparse_oracle",
        seed=0,
    )
    rng = np.random.default_rng(1)
    images = rng.standard_normal((2, 3, 224, 224)).astype(np.float32)

    def run(profile):
        if batch == "b1":
            return model.forward(images[0], V100, profile)
        if batch == "b1stack":
            return model.forward(images[:1], V100, profile)
        return model.forward(images, V100, profile)

    return run


def _transformer(mask: str, _):
    model = TransformerStack(
        2, D_MODEL, HEADS, D_FFN, _mask() if mask == "sparse" else None,
        seed=0,
    )
    x = np.random.default_rng(2).standard_normal((SEQ, D_MODEL))
    return lambda profile: model.forward(x.astype(np.float32), V100, profile)


def _attention(kind: str, heads: str):
    rng = np.random.default_rng(3)
    h = 4 if heads == "h4" else 1
    q, k, v = (
        rng.standard_normal((h, SEQ, HEAD_DIM)).astype(np.float32)
        for _ in range(3)
    )
    if heads == "h1":
        q, k, v = q[0], k[0], v[0]
    if kind == "sparse":
        mask = _mask()
        return lambda profile: sparse_attention(q, k, v, mask, V100, profile)
    return lambda profile: dense_attention(q, k, v, V100, profile)


MODELS = {
    "mobilenet": (
        _mobilenet,
        ("sparse_oracle", "sparse", "dense"),
        ("b1", "b1stack", "b2"),
    ),
    "transformer": (_transformer, ("sparse", "dense"), ("fwd",)),
    "attention": (_attention, ("sparse", "dense"), ("h1", "h1stack", "h4")),
}

CASES = [
    (model, variant, size)
    for model, (_, variants, sizes) in MODELS.items()
    for variant in variants
    for size in sizes
]
SHARDED_CASES = [
    (mask, k) for mask in ("sparse", "dense") for k in (1, 2)
]


def _records(profile: Profile) -> tuple:
    return tuple(r.runtime_s.hex() for r in profile.records)


def _peaks(snapshot: dict) -> tuple[int, int]:
    return snapshot["peak_allocated_bytes"], snapshot["peak_reserved_bytes"]


def _observe(model: str, variant: str, size: str) -> tuple:
    run = MODELS[model][0](variant, size)
    ctx = ExecutionContext(V100, memory=CAPACITY)
    prev = ops.default_context(V100)
    ops.set_default_context(ctx)
    try:
        profile = Profile()
        run(profile)
    finally:
        ops.set_default_context(prev)
    runtimes = _records(profile)
    return (
        runtimes,
        len(runtimes),
        profile.weight_bytes,
        _telemetry(ctx),
        _peaks(ctx.memory_snapshot()),
    )


def _observe_sharded(mask: str, k: int) -> tuple:
    model = TransformerStack(
        2, D_MODEL, HEADS, D_FFN, _mask() if mask == "sparse" else None,
        seed=0,
    )
    x = np.random.default_rng(2).standard_normal((SEQ, D_MODEL))
    group = DeviceGroup(k, memory=CAPACITY)
    profile = Profile()
    model.forward_sharded(x.astype(np.float32), group, profile)
    runtimes = _records(profile)
    report = model.last_shard_report
    return (
        runtimes,
        len(runtimes),
        profile.weight_bytes,
        _telemetry(group),
        tuple(_peaks(s) for s in group.memory_snapshots()),
        tuple(report[name].hex() for name in REPORT_FIELDS),
        report["comm_bytes"],
    )


@pytest.mark.parametrize(
    "model,variant,size", CASES, ids=["-".join(c) for c in CASES]
)
def test_model_golden(model, variant, size):
    case = "-".join((model, variant, size))
    assert _observe(model, variant, size) == GOLDEN[case]


@pytest.mark.parametrize(
    "mask,k", SHARDED_CASES, ids=[f"{m}-k{k}" for m, k in SHARDED_CASES]
)
def test_sharded_golden(mask, k):
    assert _observe_sharded(mask, k) == GOLDEN[f"sharded-{mask}-k{k}"]


GOLDEN: dict[str, tuple] = {
    'mobilenet-sparse_oracle-b1': (
        (
            '0x1.3615a19e80360p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.01e318f32bb50p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.8c41cfa26520cp-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.92494e5496218p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.60e94da1f41f6p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.7950001c8be4dp-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.3f423f6adbcb2p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.51c0696de9c12p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.51c0696de9c12p-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.51d2b0c1f0ba2p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.51fd055a72ea6p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.5239dac4169c4p-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.3df7d3bd2f109p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.66519433346cep-19', '0x1.117eaa695d636p-18',
        ),
        29,
        1244432,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.23'
        'ca2603eeccbp-17;spmm/sputnik:launches=13,cache_misses=13,simulat'
        'ed_seconds=0x1.279a0a8b35fbcp-15;spmm_config/oracle:cache_misses'
        '=13',
        (1762048, 3854336),
    ),
    'mobilenet-sparse_oracle-b1stack': (
        (
            '0x1.3615a19e80360p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.01e318f32bb50p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.8c41cfa26520cp-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.92494e5496218p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.60e94da1f41f6p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.7950001c8be4dp-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.3f423f6adbcb2p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.51c0696de9c12p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.51c0696de9c12p-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.51d2b0c1f0ba2p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.51fd055a72ea6p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.5239dac4169c4p-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.3df7d3bd2f109p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.66519433346cep-19', '0x1.117eaa695d636p-18',
        ),
        29,
        1244432,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.23'
        'ca2603eeccbp-17;spmm/sputnik:launches=13,cache_misses=13,simulat'
        'ed_seconds=0x1.279a0a8b35fbcp-15;spmm_config/oracle:cache_misses'
        '=13',
        (1762048, 3854336),
    ),
    'mobilenet-sparse_oracle-b2': (
        (
            '0x1.d6e4e73ffc2dap-18', '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.7ecb0cd63b274p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.060a129cb5b46p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.0c11914ee6b51p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.b486a8797b018p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.e53b8e3cfe487p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.6a1196cfcd74ap-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.8c172f717b32fp-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.8c4a0500de546p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.8c7cda904175ep-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.8c687ae985653p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.8c98b5e2100dep-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.5a085660a0a8bp-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.9a93951b8a6f1p-19', '0x1.1326a3c81f606p-18',
        ),
        42,
        1244432,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.75'
        '05c5840dc70p-17;spmm/sputnik:launches=13,cache_misses=13,simulat'
        'ed_seconds=0x1.6d81c5a545168p-15;spmm_config/oracle:cache_misses'
        '=13',
        (3521280, 4561920),
    ),
    'mobilenet-sparse-b1': (
        (
            '0x1.3615a19e80360p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.3589479890c72p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.dff6a6da75cf5p-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.17e1e1be78cc2p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.a56045238ade8p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.d6cbd2eebe12dp-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.0315cc89185aap-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.57f0202f66104p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.569e2a6b25ac2p-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.553d5cd37f8c9p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.6b0e58dbbd926p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.69c4be787b89fp-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.469312703fd1cp-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.ce8cff6f18e28p-18', '0x1.117eaa695d636p-18',
        ),
        29,
        1244432,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.23'
        'ca2603eeccbp-17;spmm/sputnik:launches=13,cache_misses=13,simulat'
        'ed_seconds=0x1.fd8a24bf03ccfp-15',
        (1762048, 3854336),
    ),
    'mobilenet-sparse-b1stack': (
        (
            '0x1.3615a19e80360p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.3589479890c72p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.dff6a6da75cf5p-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.17e1e1be78cc2p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.a56045238ade8p-19', '0x1.4ad3cd8f3ee6ep-18', '0x1.d6cbd2eebe12dp-19',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.0315cc89185aap-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.57f0202f66104p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.569e2a6b25ac2p-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.553d5cd37f8c9p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.6b0e58dbbd926p-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.69c4be787b89fp-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.469312703fd1cp-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.ce8cff6f18e28p-18', '0x1.117eaa695d636p-18',
        ),
        29,
        1244432,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.23'
        'ca2603eeccbp-17;spmm/sputnik:launches=13,cache_misses=13,simulat'
        'ed_seconds=0x1.fd8a24bf03ccfp-15',
        (1762048, 3854336),
    ),
    'mobilenet-sparse-b2': (
        (
            '0x1.d6e4e73ffc2dap-18', '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.dfbc69ce8ee78p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.3a8be70c40d88p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.7f9055762efc9p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.edc717dc9fbddp-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.19954d9afb058p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.cb2c70dc06e10p-19', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.36056d5d8bb7ep-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.41b4470f47c2bp-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.36e0b73f33826p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.34fef1e22b925p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.36f1100356b32p-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.469312703fd1cp-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.ce8cff6f18e28p-18', '0x1.1326a3c81f606p-18',
        ),
        42,
        1244432,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.75'
        '05c5840dc70p-17;spmm/sputnik:launches=13,cache_misses=13,simulat'
        'ed_seconds=0x1.0bf9237b92f08p-14',
        (3521280, 4561920),
    ),
    'mobilenet-dense-b1': (
        (
            '0x1.3615a19e80360p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.fd9ba9efee79cp-19', '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.0dd2fdd819f66p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.3b5531f88858cp-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.c96eda685902ap-19', '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.05aaafb02c546p-18', '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.e67e4083bb878p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.bbd2537b869b3p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.c999e006b9527p-19', '0x1.15d98d097d80bp-17', '0x1.117eaa695d636p-18',
        ),
        42,
        1860352,
        'matmul/cublas:launches=15,cache_hits=4,cache_misses=11,simulated'
        '_seconds=0x1.d9d31c1d700d6p-15',
        (1762048, 3854336),
    ),
    'mobilenet-dense-b1stack': (
        (
            '0x1.3615a19e80360p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.fd9ba9efee79cp-19', '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.0dd2fdd819f66p-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.3b5531f88858cp-18', '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.c96eda685902ap-19', '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.05aaafb02c546p-18', '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.e67e4083bb878p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.d91616e17aaf1p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.bbd2537b869b3p-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.c999e006b9527p-19', '0x1.15d98d097d80bp-17', '0x1.117eaa695d636p-18',
        ),
        42,
        1860352,
        'matmul/cublas:launches=15,cache_hits=4,cache_misses=11,simulated'
        '_seconds=0x1.d9d31c1d700d6p-15',
        (1762048, 3854336),
    ),
    'mobilenet-dense-b2': (
        (
            '0x1.d6e4e73ffc2dap-18', '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.6d12e7fc04fe2p-18', '0x1.565cc276a094ep-17',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.3247458626c86p-18',
            '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.6bd3a36c72582p-18', '0x1.50db76396e7bfp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.0f34072e6ae21p-18', '0x1.467b7a3c414cfp-17',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.3e1744a52a302p-18',
            '0x1.467b7a3c414cfp-17', '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.ded91cf00203cp-19', '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.00f33616a555ep-18', '0x1.33f4a5f827790p-17',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.00f33616a555ep-18',
            '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.00f33616a555ep-18', '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.00f33616a555ep-18', '0x1.33f4a5f827790p-17',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18', '0x1.00f33616a555ep-18',
            '0x1.33f4a5f827790p-17', '0x1.4ad3cd8f3ee6ep-18', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.da254578f6eacp-19', '0x1.15d98d097d80bp-17', '0x1.4ad3cd8f3ee6ep-18',
            '0x1.4ad3cd8f3ee6ep-18', '0x1.f7af16c531364p-19', '0x1.15d98d097d80bp-17',
            '0x1.1326a3c81f606p-18',
        ),
        55,
        1860352,
        'matmul/cublas:launches=15,cache_hits=4,cache_misses=11,simulated'
        '_seconds=0x1.11f9b72d29e7fp-14',
        (3521280, 4561920),
    ),
    'transformer-sparse-fwd': (
        (
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.24e978c0bd28ap-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.24e978c0bd28ap-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
        ),
        18,
        0,
        'matmul/cublas:launches=12,cache_hits=9,cache_misses=3,simulated_'
        'seconds=0x1.a0bf1b793d890p-15;sddmm/sputnik:launches=2,cache_hit'
        's=1,cache_misses=1,simulated_seconds=0x1.24e978c0bd28ap-18;spars'
        'e_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,simulat'
        'ed_seconds=0x1.191affd4664e6p-18;spmm/sputnik:launches=2,cache_h'
        'its=1,cache_misses=1,simulated_seconds=0x1.085a5e9d9a575p-17',
        (120576, 1048576),
    ),
    'transformer-dense-fwd': (
        (
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.ae0019ffe7a5ap-19', '0x1.dffd347085043p-17', '0x1.eb8c87b264e77p-19',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.ae0019ffe7a5ap-19', '0x1.dffd347085043p-17', '0x1.eb8c87b264e77p-19',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
        ),
        18,
        0,
        'matmul/cublas:launches=16,cache_hits=11,cache_misses=5,simulated'
        '_seconds=0x1.09f857d7c38d5p-14',
        (94976, 1048576),
    ),
    'attention-sparse-h1': (
        (
            '0x1.1fb5c556006e5p-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
        ),
        3,
        0,
        'sddmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.1f'
        'b5c556006e5p-19;sparse_softmax/sputnik:launches=1,cache_misses=1'
        ',simulated_seconds=0x1.191affd4664e6p-19;spmm/sputnik:launches=1'
        ',cache_misses=1,simulated_seconds=0x1.085a5e9d9a575p-18',
        (30208, 1048576),
    ),
    'attention-sparse-h1stack': (
        (
            '0x1.1fb5c556006e5p-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
        ),
        3,
        0,
        'sddmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.1f'
        'b5c556006e5p-19;sparse_softmax/sputnik:launches=1,cache_misses=1'
        ',simulated_seconds=0x1.191affd4664e6p-19;spmm/sputnik:launches=1'
        ',cache_misses=1,simulated_seconds=0x1.085a5e9d9a575p-18',
        (30208, 1048576),
    ),
    'attention-sparse-h4': (
        (
            '0x1.24e978c0bd28ap-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
        ),
        3,
        0,
        'sddmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.24'
        'e978c0bd28ap-19;sparse_softmax/sputnik:launches=1,cache_misses=1'
        ',simulated_seconds=0x1.191affd4664e6p-19;spmm/sputnik:launches=1'
        ',cache_misses=1,simulated_seconds=0x1.085a5e9d9a575p-18',
        (66048, 1048576),
    ),
    'attention-dense-h1': (
        (
            '0x1.c514c322d69e4p-19', '0x1.118c8979ae5d3p-17', '0x1.0150986aa9f01p-18',
        ),
        3,
        0,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.e3'
        'daf9fc153f3p-18',
        (28160, 1048576),
    ),
    'attention-dense-h1stack': (
        (
            '0x1.c514c322d69e4p-19', '0x1.118c8979ae5d3p-17', '0x1.0150986aa9f01p-18',
        ),
        3,
        0,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.e3'
        'daf9fc153f3p-18',
        (28160, 1048576),
    ),
    'attention-dense-h4': (
        (
            '0x1.ae0019ffe7a5ap-19', '0x1.dffd347085043p-17', '0x1.eb8c87b264e77p-19',
        ),
        3,
        0,
        'matmul/cublas:launches=2,cache_misses=2,simulated_seconds=0x1.cc'
        'c650d926468p-18',
        (89600, 1048576),
    ),
    'sharded-sparse-k1': (
        (
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.24e978c0bd28ap-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.24e978c0bd28ap-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
        ),
        18,
        0,
        'matmul/cublas:launches=12,cache_hits=9,cache_misses=3,simulated_'
        'seconds=0x1.a0bf1b793d890p-15;sddmm/sputnik:launches=2,cache_hit'
        's=1,cache_misses=1,simulated_seconds=0x1.24e978c0bd28ap-18;spars'
        'e_softmax/sputnik:launches=2,cache_hits=1,cache_misses=1,simulat'
        'ed_seconds=0x1.191affd4664e6p-18;spmm/sputnik:launches=2,cache_h'
        'its=1,cache_misses=1,simulated_seconds=0x1.085a5e9d9a575p-17',
        ((120576, 1048576),),
        (
            '0x1.154b2119a446ep-14', '0x1.154b2119a446ep-14', '0x0.0p+0',
            '0x1.154b2119a446ep-14',
        ),
        0,
    ),
    'sharded-sparse-k2': (
        (
            '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18',
            '0x1.1efe409866b07p-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
            '0x1.0150986aa9f01p-18', '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18',
            '0x1.3edd061d2731ep-18', '0x1.1efe409866b07p-19', '0x1.191affd4664e6p-19',
            '0x1.085a5e9d9a575p-18', '0x1.0150986aa9f01p-18', '0x1.2016cf43e8910p-18',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.13c3fa0131fa5p-18', '0x1.13c3fa0131fa5p-18', '0x1.3edd061d2731ep-18',
            '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18', '0x1.1efe409866b07p-19',
            '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18', '0x1.0150986aa9f01p-18',
            '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18',
            '0x1.1efe409866b07p-19', '0x1.191affd4664e6p-19', '0x1.085a5e9d9a575p-18',
            '0x1.0150986aa9f01p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.13c3fa0131fa5p-18',
            '0x1.13c3fa0131fa5p-18',
        ),
        40,
        0,
        'all_reduce/nvlink:launches=4,simulated_seconds=0x1.13c3fa0131fa5'
        'p-16;matmul/cublas:launches=24,cache_hits=18,cache_misses=6,simu'
        'lated_seconds=0x1.bf8552527c29fp-14;sddmm/sputnik:launches=4,cac'
        'he_hits=2,cache_misses=2,simulated_seconds=0x1.1efe409866b07p-17'
        ';sparse_softmax/sputnik:launches=4,cache_hits=2,cache_misses=2,s'
        'imulated_seconds=0x1.191affd4664e6p-17;spmm/sputnik:launches=4,c'
        'ache_hits=2,cache_misses=2,simulated_seconds=0x1.085a5e9d9a575p-'
        '16',
        ((78592, 1048576), (78592, 1048576)),
        (
            '0x1.244f8903be2fdp-14', '0x1.244f8903be2fdp-13', '0x1.13c3fa0131fa5p-16',
            '0x1.694087840aae6p-14',
        ),
        65536,
    ),
    'sharded-dense-k1': (
        (
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.ae0019ffe7a5ap-19', '0x1.dffd347085043p-17', '0x1.eb8c87b264e77p-19',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.ae0019ffe7a5ap-19', '0x1.dffd347085043p-17', '0x1.eb8c87b264e77p-19',
            '0x1.2016cf43e8910p-18', '0x1.10b3b3d749408p-18', '0x1.e3daf9fc153f3p-19',
        ),
        18,
        0,
        'matmul/cublas:launches=16,cache_hits=11,cache_misses=5,simulated'
        '_seconds=0x1.09f857d7c38d5p-14',
        ((94976, 1048576),),
        (
            '0x1.81f7a4f3e4ce6p-14', '0x1.81f7a4f3e4ce6p-14', '0x0.0p+0',
            '0x1.81f7a4f3e4ce6p-14',
        ),
        0,
    ),
    'sharded-dense-k2': (
        (
            '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18',
            '0x1.b5b1a7b6374dep-19', '0x1.dffd347085043p-17', '0x1.f33e1568b48fap-19',
            '0x1.0150986aa9f01p-18', '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18',
            '0x1.3edd061d2731ep-18', '0x1.b5b1a7b6374dep-19', '0x1.dffd347085043p-17',
            '0x1.f33e1568b48fap-19', '0x1.0150986aa9f01p-18', '0x1.2016cf43e8910p-18',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.13c3fa0131fa5p-18', '0x1.13c3fa0131fa5p-18', '0x1.3edd061d2731ep-18',
            '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18', '0x1.b5b1a7b6374dep-19',
            '0x1.dffd347085043p-17', '0x1.f33e1568b48fap-19', '0x1.0150986aa9f01p-18',
            '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18', '0x1.3edd061d2731ep-18',
            '0x1.b5b1a7b6374dep-19', '0x1.dffd347085043p-17', '0x1.f33e1568b48fap-19',
            '0x1.0150986aa9f01p-18', '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18',
            '0x1.2016cf43e8910p-18', '0x1.2016cf43e8910p-18', '0x1.13c3fa0131fa5p-18',
            '0x1.13c3fa0131fa5p-18',
        ),
        40,
        0,
        'all_reduce/nvlink:launches=4,simulated_seconds=0x1.13c3fa0131fa5'
        'p-16;matmul/cublas:launches=32,cache_hits=22,cache_misses=10,sim'
        'ulated_seconds=0x1.1a51a4fb2cd2dp-13',
        ((58112, 1048576), (58112, 1048576)),
        (
            '0x1.9250f2174e13dp-14', '0x1.9250f2174e13dp-13', '0x1.13c3fa0131fa5p-16',
            '0x1.d741f0979a926p-14',
        ),
        65536,
    ),
}


def _print_literal(value, indent: str) -> None:
    if isinstance(value, tuple) and value and isinstance(value[0], str):
        print(f"{indent}(")
        for i in range(0, len(value), 3):
            print(f"{indent}    " + " ".join(f"{v!r}," for v in value[i:i + 3]))
        print(f"{indent}),")
    elif isinstance(value, str):
        pieces = [value[i:i + 64] for i in range(0, len(value), 64)] or [""]
        for piece in pieces[:-1]:
            print(f"{indent}{piece!r}")
        print(f"{indent}{pieces[-1]!r},")
    else:
        print(f"{indent}{value!r},")


if __name__ == "__main__":
    observed = {"-".join(c): _observe(*c) for c in CASES}
    observed.update(
        {f"sharded-{m}-k{k}": _observe_sharded(m, k) for m, k in SHARDED_CASES}
    )
    print("GOLDEN: dict[str, tuple] = {")
    for case, pinned in observed.items():
        print(f"    {case!r}: (")
        for value in pinned:
            _print_literal(value, "        ")
        print("    ),")
    print("}")
