"""Golden sharded net: the four ``repro.dist`` entry points, pinned.

Each case runs one sharded function on a fresh, traced
:class:`~repro.dist.DeviceGroup` and pins, as literals:

- the per-device simulated runtimes, as ``float.hex()``;
- the input and output collective seconds;
- the shard plan's balance stats (``{}`` when ``k == 1``);
- a SHA-256 of the output bytes (numerics functions only);
- the group's merged ``telemetry_snapshot()``, as a canonical string of
  its nonzero counters (plan-cache hits and misses included, so a
  second shard-plan lookup shows);
- the per-device allocator peaks;
- the names of the spans the call traced, and the ``dist`` span's
  simulated seconds and attributes.

The grid covers K in {1, 2, 4}, the row and 2-D strategies, NVLink and
PCIe, stack depth ``h`` in {1, 4} and ``gather_output`` on and off.

:func:`test_k1_equals_single_device` checks the north-star equivalence
"K=1 sharded equals single-device": at ``k == 1`` every function equals
the matching ``ops`` call on a fresh context, in runtime and output
bytes.

Regenerate the literals only for an intended change to simulated costs,
with::

    PYTHONPATH=src python -m tests.test_dist_golden
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ops
from repro.dist import (
    DeviceGroup,
    sharded_sddmm,
    sharded_sddmm_cost,
    sharded_spmm,
    sharded_spmm_cost,
)
from repro.gpu import V100
from repro.obs.tracing import Tracer
from repro.sparse import CSRMatrix

#: Fixed capacity, so a ``REPRO_HBM_CAP`` override cannot move the peaks.
CAPACITY = int(V100.dram_capacity)

ROWS, COLS = 256, 192
N = 32  # SpMM dense columns
K_DIM = 24  # SDDMM dot-product depth

FUNCTIONS = {
    "spmm": sharded_spmm,
    "spmm_cost": sharded_spmm_cost,
    "sddmm": sharded_sddmm,
    "sddmm_cost": sharded_sddmm_cost,
}

#: (function, k, strategy, interconnect, h, gather_output). Only the SpMM
#: cost path takes ``h``; numeric SDDMM shards rows only.
CASES = [
    ("spmm_cost", 1, "row", "nvlink", 1, True),
    ("spmm_cost", 1, "row", "nvlink", 4, True),
    ("spmm_cost", 2, "row", "nvlink", 1, True),
    ("spmm_cost", 2, "row", "pcie", 4, False),
    ("spmm_cost", 4, "row", "nvlink", 1, False),
    ("spmm_cost", 4, "row", "pcie", 1, True),
    ("spmm_cost", 4, "2d", "nvlink", 1, True),
    ("spmm_cost", 4, "2d", "pcie", 4, True),
    ("spmm", 1, "row", "nvlink", 1, True),
    ("spmm", 2, "row", "pcie", 1, True),
    ("spmm", 2, "2d", "nvlink", 1, True),
    ("spmm", 4, "row", "nvlink", 1, False),
    ("spmm", 4, "2d", "nvlink", 1, True),
    ("spmm", 4, "2d", "pcie", 1, False),
    ("sddmm_cost", 1, "row", "nvlink", 1, True),
    ("sddmm_cost", 2, "row", "nvlink", 1, True),
    ("sddmm_cost", 4, "row", "pcie", 1, False),
    ("sddmm_cost", 4, "2d", "nvlink", 1, False),
    ("sddmm_cost", 4, "2d", "pcie", 1, True),
    ("sddmm", 1, "row", "nvlink", 1, True),
    ("sddmm", 2, "row", "pcie", 1, True),
    ("sddmm", 2, "row", "nvlink", 1, False),
    ("sddmm", 4, "row", "nvlink", 1, False),
    ("sddmm", 4, "row", "pcie", 1, True),
]


def _case_id(case) -> str:
    fn, k, strategy, link, h, gather = case
    output = "gather" if gather else "local"
    return f"{fn}-k{k}-{strategy}-{link}-h{h}-{output}"


def _matrix() -> CSRMatrix:
    """A power-law topology: a few heavy rows carry most nonzeros."""
    rng = np.random.default_rng(2020)
    lengths = (rng.pareto(1.5, size=ROWS) * 8).astype(np.int64) + 1
    lengths = np.minimum(lengths, COLS)
    offsets = np.zeros(ROWS + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    indices = np.concatenate(
        [
            np.sort(rng.choice(COLS, size=int(n), replace=False))
            for n in lengths
        ]
    ).astype(np.int32)
    values = rng.standard_normal(int(offsets[-1])).astype(np.float32)
    return CSRMatrix((ROWS, COLS), offsets, indices, values)


def _operands(fn: str):
    """Positional operands of ``fn`` ahead of the group."""
    a = _matrix()
    rng = np.random.default_rng(7)
    if fn == "spmm":
        return (a, rng.standard_normal((COLS, N)).astype(np.float32))
    if fn == "spmm_cost":
        return (a, N)
    if fn == "sddmm":
        lhs = rng.standard_normal((ROWS, K_DIM)).astype(np.float32)
        rhs = rng.standard_normal((COLS, K_DIM)).astype(np.float32)
        return (lhs, rhs, a)
    return (a, K_DIM)


def _kwargs(fn: str, strategy: str, h: int, gather: bool) -> dict:
    kwargs = {"gather_output": gather}
    if fn != "sddmm":
        kwargs["strategy"] = strategy
    if h != 1:
        kwargs["h"] = h
    return kwargs


def _telemetry(snapshot: dict) -> str:
    rows = []
    for key in sorted(snapshot):
        counters = ",".join(
            f"{name}={value.hex() if isinstance(value, float) else value}"
            for name, value in snapshot[key].items()
            if value
        )
        rows.append(f"{key}:{counters}")
    return ";".join(rows)


def _digest(output) -> str:
    data = output if isinstance(output, np.ndarray) else output.values
    return hashlib.sha256(
        data.dtype.str.encode() + repr(data.shape).encode() + data.tobytes()
    ).hexdigest()[:32]


def _observe(case) -> tuple:
    fn, k, strategy, link, h, gather = case
    tracer = Tracer(process="golden")
    group = DeviceGroup(k, interconnect=link, memory=CAPACITY, tracer=tracer)
    result = FUNCTIONS[fn](
        *_operands(fn), group, **_kwargs(fn, strategy, h, gather)
    )
    if fn.endswith("_cost"):
        sharded, digest = result, None
    else:
        sharded, digest = getattr(result, "sharded", None), _digest(
            result.output
        )
    if sharded is None:  # k == 1 numerics: the plain single-device result
        per_device, input_s, output_s, stats = [result.execution], 0.0, 0.0, {}
    else:
        per_device = sharded.per_device
        input_s, output_s = sharded.input_comm_s, sharded.output_comm_s
        stats = sharded.plan_stats
    spans = [
        r for r in tracer.to_jsonl_records(include_meta=False)
        if r["type"] == "span"
    ]
    dist = [
        (r["sim_s"].hex(), *(
            (name, value.hex() if isinstance(value, float) else value)
            for name, value in sorted(r["args"].items())
        ))
        for r in spans if r["cat"] == "dist"
    ]
    return (
        tuple(r.runtime_s.hex() for r in per_device),
        float(input_s).hex(),
        float(output_s).hex(),
        tuple(
            (name, value.hex() if isinstance(value, float) else value)
            for name, value in sorted(stats.items())
        ),
        digest,
        _telemetry(group.telemetry_snapshot()),
        tuple(s["peak_allocated_bytes"] for s in group.memory_snapshots()),
        tuple(f"{r['cat']}:{r['name']}" for r in spans),
        tuple(dist),
    )


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_sharded_golden(case):
    assert _observe(case) == GOLDEN[_case_id(case)]


@pytest.mark.parametrize(
    "fn, h", [(fn, 1) for fn in sorted(FUNCTIONS)] + [("spmm_cost", 4)]
)
def test_k1_equals_single_device(fn, h):
    operands = _operands(fn)
    kwargs = {"h": h} if h != 1 else {}
    sharded = FUNCTIONS[fn](*operands, DeviceGroup(1), **kwargs)
    single = getattr(ops, fn)(
        *operands, context=ops.ExecutionContext(V100), **kwargs
    )
    assert sharded.runtime_s == single.runtime_s
    if not fn.endswith("_cost"):
        assert _digest(sharded.output) == _digest(single.output)


GOLDEN: dict[str, tuple] = {
    'spmm_cost-k1-row-nvlink-h1-gather': (
        ('0x1.05ee314398682p-16',),
        '0x0.0p+0',
        '0x0.0p+0',
        (),
        None,
        'spmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.05e'
        'e314398682p-16',
        (106240,),
        ('op:spmm',),
        (),
    ),
    'spmm_cost-k1-row-nvlink-h4-gather': (
        ('0x1.05ee314398682p-16',),
        '0x0.0p+0',
        '0x0.0p+0',
        (),
        None,
        'spmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.05e'
        'e314398682p-16',
        (270336,),
        ('op:spmm',),
        (),
    ),
    'spmm_cost-k2-row-nvlink-h1-gather': (
        ('0x1.80724818992d0p-17', '0x1.2d1bccee7a8dbp-17'),
        '0x1.176e39fc1b8b2p-19',
        '0x1.1b1879f7051bep-19',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        None,
        'all_gather/nvlink:launches=2,simulated_seconds=0x1.194359f990538'
        'p-18;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=2,cach'
        'e_misses=2,simulated_seconds=0x1.56c70a8389dd6p-16',
        (70912, 68864),
        ('op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.1b1879f7051bep-19',
          ('compute_imbalance', '0x1.1f1eb93453077p+0'),
          ('exposed_comm_s', '0x1.1b1879f7051bep-19'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.3e67fa24820c0p-3'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'spmm_cost-k2-row-pcie-h4-local': (
        ('0x1.80724818992d0p-17', '0x1.2d1bccee7a8dbp-17'),
        '0x1.75ee3b28ed568p-17',
        '0x0.0p+0',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        None,
        'all_gather/pcie:launches=1,simulated_seconds=0x1.75ee3b28ed568p-'
        '17;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=2,cache_'
        'misses=2,simulated_seconds=0x1.56c70a8389dd6p-16',
        (186624, 190464),
        ('op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x0.0p+0',
          ('compute_imbalance', '0x1.1f1eb93453077p+0'),
          ('exposed_comm_s', '0x0.0p+0'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x0.0p+0'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'spmm_cost-k4-row-nvlink-h1-local': (
        ('0x1.17ceba20c6b56p-17',
         '0x1.1e26d84b0d07fp-17',
         '0x1.e7d715ae3a98ep-18',
         '0x1.d282ed19778fcp-18'),
        '0x1.9ae647059bcaep-18',
        '0x0.0p+0',
        (('max_load', 1292),
         ('max_over_mean', '0x1.4c6a0083bb0c1p+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/nvlink:launches=1,simulated_seconds=0x1.9ae647059bcae'
        'p-18;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=4,cach'
        'e_misses=4,simulated_seconds=0x1.04c8a4f3eb346p-15',
        (45056, 48896, 51456, 51456),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x0.0p+0',
          ('compute_imbalance', '0x1.18e7127b039bcp+0'),
          ('exposed_comm_s', '0x0.0p+0'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x0.0p+0'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'spmm_cost-k4-row-pcie-h1-gather': (
        ('0x1.17ceba20c6b56p-17',
         '0x1.1e26d84b0d07fp-17',
         '0x1.e7d715ae3a98ep-18',
         '0x1.d282ed19778fcp-18'),
        '0x1.48f7b7ff57b0fp-16',
        '0x1.62bcc9db91f2dp-16',
        (('max_load', 1292),
         ('max_over_mean', '0x1.4c6a0083bb0c1p+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/pcie:launches=2,simulated_seconds=0x1.55da40ed74d1ep-'
        '15;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=4,cache_'
        'misses=4,simulated_seconds=0x1.04c8a4f3eb346p-15',
        (45056, 48896, 51456, 51456),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.0e508adab18fep-15',
          ('compute_imbalance', '0x1.18e7127b039bcp+0'),
          ('exposed_comm_s', '0x1.0e508adab18fep-15'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.94db28173812bp-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'spmm_cost-k4-2d-nvlink-h1-gather': (
        ('0x1.d364f2560a386p-18',
         '0x1.c96bc2d928620p-18',
         '0x1.7f2aa8c8c9f54p-18',
         '0x1.7d61f937d0d48p-18'),
        '0x1.9ae647059bcaep-18',
        '0x1.13e14c010946ep-17',
        (('max_load', 1007),
         ('max_over_mean', '0x1.031662488e05bp+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/nvlink:launches=2,simulated_seconds=0x1.9c461f03b3613'
        'p-17;reduce_scatter/nvlink:launches=1,simulated_seconds=0x1.1439'
        '42008f2c7p-19;shard_plan/dist:cache_misses=1;spmm/sputnik:launch'
        'es=4,cache_misses=4,simulated_seconds=0x1.a65755cbf3590p-16',
        (50432, 46080, 48640, 48640),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.13e14c010946ep-17',
          ('compute_imbalance', '0x1.1b4f0aa1a74a9p+0'),
          ('exposed_comm_s', '0x1.13e14c010946ep-17'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.1531154a1efaap-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'spmm_cost-k4-2d-pcie-h4-gather': (
        ('0x1.d364f2560a386p-18',
         '0x1.c96bc2d928620p-18',
         '0x1.7f2aa8c8c9f54p-18',
         '0x1.7d61f937d0d48p-18'),
        '0x1.1872ac5eb200ep-15',
        '0x1.9a7014763fde8p-15',
        (('max_load', 1007),
         ('max_over_mean', '0x1.031662488e05bp+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/pcie:launches=2,simulated_seconds=0x1.3237be3aec42cp-'
        '14;reduce_scatter/pcie:launches=1,simulated_seconds=0x1.39cd117c'
        '65678p-17;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=4'
        ',cache_misses=4,simulated_seconds=0x1.a65755cbf3590p-16',
        (129280, 124928, 133376, 133376),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.3c3b1145184c2p-14',
          ('compute_imbalance', '0x1.1b4f0aa1a74a9p+0'),
          ('exposed_comm_s', '0x1.3c3b1145184c2p-14'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.d4b3fbf83c8acp-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'spmm-k1-row-nvlink-h1-gather': (
        ('0x1.05ee314398682p-16',),
        '0x0.0p+0',
        '0x0.0p+0',
        (),
        '436136af684505739e77a4ed22d57dfd',
        'spmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.05e'
        'e314398682p-16',
        (106240,),
        ('op:spmm',),
        (),
    ),
    'spmm-k2-row-pcie-h1-gather': (
        ('0x1.80724818992d0p-17', '0x1.2d1bccee7a8dbp-17'),
        '0x1.b69f9fff1f969p-18',
        '0x1.d8fbb7cf6d43cp-18',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        '436136af684505739e77a4ed22d57dfd',
        'all_gather/pcie:launches=2,simulated_seconds=0x1.c7cdabe7466d2p-'
        '17;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=2,cache_'
        'misses=2,simulated_seconds=0x1.56c70a8389dd6p-16',
        (70912, 68864),
        ('op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.d8fbb7cf6d43cp-18',
          ('compute_imbalance', '0x1.1f1eb93453077p+0'),
          ('exposed_comm_s', '0x1.d8fbb7cf6d43cp-18'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.8600a8878d482p-2'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'spmm-k2-2d-nvlink-h1-gather': (
        ('0x1.80724818992d0p-17', '0x1.2d1bccee7a8dbp-17'),
        '0x1.176e39fc1b8b2p-19',
        '0x1.1b1879f7051bep-19',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        '436136af684505739e77a4ed22d57dfd',
        'all_gather/nvlink:launches=2,simulated_seconds=0x1.194359f990538'
        'p-18;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=2,cach'
        'e_misses=2,simulated_seconds=0x1.56c70a8389dd6p-16',
        (70912, 68864),
        ('op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.1b1879f7051bep-19',
          ('compute_imbalance', '0x1.1f1eb93453077p+0'),
          ('exposed_comm_s', '0x1.1b1879f7051bep-19'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.3e67fa24820c0p-3'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'spmm-k4-row-nvlink-h1-local': (
        ('0x1.17ceba20c6b56p-17',
         '0x1.1e26d84b0d07fp-17',
         '0x1.e7d715ae3a98ep-18',
         '0x1.d282ed19778fcp-18'),
        '0x1.9ae647059bcaep-18',
        '0x0.0p+0',
        (('max_load', 1292),
         ('max_over_mean', '0x1.4c6a0083bb0c1p+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        '436136af684505739e77a4ed22d57dfd',
        'all_gather/nvlink:launches=1,simulated_seconds=0x1.9ae647059bcae'
        'p-18;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=4,cach'
        'e_misses=4,simulated_seconds=0x1.04c8a4f3eb346p-15',
        (45056, 48896, 51456, 51456),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x0.0p+0',
          ('compute_imbalance', '0x1.18e7127b039bcp+0'),
          ('exposed_comm_s', '0x0.0p+0'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x0.0p+0'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'spmm-k4-2d-nvlink-h1-gather': (
        ('0x1.d364f2560a386p-18',
         '0x1.c96bc2d928620p-18',
         '0x1.7f2aa8c8c9f54p-18',
         '0x1.7d61f937d0d48p-18'),
        '0x1.9ae647059bcaep-18',
        '0x1.13e14c010946ep-17',
        (('max_load', 1007),
         ('max_over_mean', '0x1.031662488e05bp+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        'da52fb80b4741573946205c594025583',
        'all_gather/nvlink:launches=2,simulated_seconds=0x1.9c461f03b3613'
        'p-17;reduce_scatter/nvlink:launches=1,simulated_seconds=0x1.1439'
        '42008f2c7p-19;shard_plan/dist:cache_misses=1;spmm/sputnik:launch'
        'es=4,cache_misses=4,simulated_seconds=0x1.a65755cbf3590p-16',
        (50432, 46080, 48640, 48640),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.13e14c010946ep-17',
          ('compute_imbalance', '0x1.1b4f0aa1a74a9p+0'),
          ('exposed_comm_s', '0x1.13e14c010946ep-17'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.1531154a1efaap-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'spmm-k4-2d-pcie-h1-local': (
        ('0x1.d364f2560a386p-18',
         '0x1.c96bc2d928620p-18',
         '0x1.7f2aa8c8c9f54p-18',
         '0x1.7d61f937d0d48p-18'),
        '0x1.48f7b7ff57b0fp-16',
        '0x1.988f0b28db9f0p-18',
        (('max_load', 1007),
         ('max_over_mean', '0x1.031662488e05bp+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        'da52fb80b4741573946205c594025583',
        'all_gather/pcie:launches=1,simulated_seconds=0x1.48f7b7ff57b0fp-'
        '16;reduce_scatter/pcie:launches=1,simulated_seconds=0x1.988f0b28'
        'db9f0p-18;shard_plan/dist:cache_misses=1;spmm/sputnik:launches=4'
        ',cache_misses=4,simulated_seconds=0x1.a65755cbf3590p-16',
        (50432, 46080, 48640, 48640),
        ('op:spmm', 'op:spmm', 'op:spmm', 'op:spmm', 'dist:spmm_sharded'),
        (('0x1.3a423e340c0aap-16',
          ('compute_imbalance', '0x1.1b4f0aa1a74a9p+0'),
          ('exposed_comm_s', '0x1.3a423e340c0aap-16'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.7539ddb8e3d72p-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'sddmm_cost-k1-row-nvlink-h1-gather': (
        ('0x1.3d9f8144361abp-19',),
        '0x0.0p+0',
        '0x0.0p+0',
        (),
        None,
        'sddmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.3d'
        '9f8144361abp-19',
        (113664,),
        ('op:sddmm',),
        (),
    ),
    'sddmm_cost-k2-row-nvlink-h1-gather': (
        ('0x1.32d82aea77012p-19', '0x1.2c285731e8151p-19'),
        '0x1.14ae89ffec5e8p-19',
        '0x1.138ed5617bbfap-19',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        None,
        'all_gather/nvlink:launches=2,simulated_seconds=0x1.141eafb0b40f1'
        'p-18;sddmm/sputnik:launches=2,cache_misses=2,simulated_seconds=0'
        'x1.2f80410e2f8b2p-18;shard_plan/dist:cache_misses=1',
        (71680, 69120),
        ('op:sddmm', 'op:sddmm', 'dist:sddmm_sharded'),
        (('0x1.138ed5617bbfap-19',
          ('compute_imbalance', '0x1.02d1f44ff99bdp+0'),
          ('exposed_comm_s', '0x1.138ed5617bbfap-19'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.e47edb046eaddp-2'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'sddmm_cost-k4-row-pcie-h1-local': (
        ('0x1.420da927a8100p-19',
         '0x1.4294eb8d87ce0p-19',
         '0x1.4453d5da73677p-19',
         '0x1.44710fdcb2ad8p-19'),
        '0x1.35a3ea9a2bff8p-16',
        '0x0.0p+0',
        (('max_load', 1292),
         ('max_over_mean', '0x1.4c6a0083bb0c1p+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/pcie:launches=1,simulated_seconds=0x1.35a3ea9a2bff8p-'
        '16;sddmm/sputnik:launches=4,cache_misses=4,simulated_seconds=0x1'
        '.4359de9b157ccp-17;shard_plan/dist:cache_misses=1',
        (45056, 44800, 47360, 47104),
        ('op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'dist:sddmm_sharded'),
        (('0x1.0d15c89e95a9dp-16',
          ('compute_imbalance', '0x1.00dd0a08a7b03p+0'),
          ('exposed_comm_s', '0x1.0d15c89e95a9dp-16'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.bcf0d0e8095b7p-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'sddmm_cost-k4-2d-nvlink-h1-local': (
        ('0x1.3711f31e8db80p-19',
         '0x1.36584267f683fp-19',
         '0x1.389dca092a303p-19',
         '0x1.38d0c4a9f6e32p-19'),
        '0x1.98d6830878698p-18',
        '0x0.0p+0',
        (('max_load', 1007),
         ('max_over_mean', '0x1.031662488e05bp+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/nvlink:launches=1,simulated_seconds=0x1.98d6830878698'
        'p-18;sddmm/sputnik:launches=4,cache_misses=4,simulated_seconds=0'
        'x1.37b6310e6953ep-17;shard_plan/dist:cache_misses=1',
        (48128, 44032, 45824, 46080),
        ('op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'dist:sddmm_sharded'),
        (('0x1.f8dc4166f9efep-19',
          ('compute_imbalance', '0x1.00e81279c8567p+0'),
          ('exposed_comm_s', '0x1.f8dc4166f9efep-19'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.3c203a22c729ap-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'sddmm_cost-k4-2d-pcie-h1-gather': (
        ('0x1.3711f31e8db80p-19',
         '0x1.36584267f683fp-19',
         '0x1.389dca092a303p-19',
         '0x1.38d0c4a9f6e32p-19'),
        '0x1.35a3ea9a2bff8p-16',
        '0x1.2dbcfca024225p-16',
        (('max_load', 1007),
         ('max_over_mean', '0x1.031662488e05bp+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        None,
        'all_gather/pcie:launches=2,simulated_seconds=0x1.31b0739d2810ep-'
        '15;sddmm/sputnik:launches=4,cache_misses=4,simulated_seconds=0x1'
        '.37b6310e6953ep-17;shard_plan/dist:cache_misses=1',
        (48128, 44032, 45824, 46080),
        ('op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'dist:sddmm_sharded'),
        (('0x1.1e23675288a2cp-15',
          ('compute_imbalance', '0x1.00e81279c8567p+0'),
          ('exposed_comm_s', '0x1.1e23675288a2cp-15'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.df41072232156p-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', '2d')),),
    ),
    'sddmm-k1-row-nvlink-h1-gather': (
        ('0x1.3d9f8144361abp-19',),
        '0x0.0p+0',
        '0x0.0p+0',
        (),
        '00f35b6fde9c4794f80049e559140f18',
        'sddmm/sputnik:launches=1,cache_misses=1,simulated_seconds=0x1.3d'
        '9f8144361abp-19',
        (113664,),
        ('op:sddmm',),
        (),
    ),
    'sddmm-k2-row-pcie-h1-gather': (
        ('0x1.32d82aea77012p-19', '0x1.2c285731e8151p-19'),
        '0x1.9cda8e22e554bp-18',
        '0x1.925150d585831p-18',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        '00f35b6fde9c4794f80049e559140f18',
        'all_gather/pcie:launches=2,simulated_seconds=0x1.9795ef7c356bep-'
        '17;sddmm/sputnik:launches=2,cache_misses=2,simulated_seconds=0x1'
        '.2f80410e2f8b2p-18;shard_plan/dist:cache_misses=1',
        (71680, 69120),
        ('op:sddmm', 'op:sddmm', 'dist:sddmm_sharded'),
        (('0x1.4adfe4c197abap-17',
          ('compute_imbalance', '0x1.02d1f44ff99bdp+0'),
          ('exposed_comm_s', '0x1.4adfe4c197abap-17'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.9fa321cd6592ap-1'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'sddmm-k2-row-nvlink-h1-local': (
        ('0x1.32d82aea77012p-19', '0x1.2c285731e8151p-19'),
        '0x1.14ae89ffec5e8p-19',
        '0x0.0p+0',
        (('max_load', 1992),
         ('max_over_mean', '0x1.0041dd860bd5dp+0'),
         ('mean_load', '0x1.f180000000000p+10')),
        '00f35b6fde9c4794f80049e559140f18',
        'all_gather/nvlink:launches=1,simulated_seconds=0x1.14ae89ffec5e8'
        'p-19;sddmm/sputnik:launches=2,cache_misses=2,simulated_seconds=0'
        'x1.2f80410e2f8b2p-18;shard_plan/dist:cache_misses=1',
        (71680, 69120),
        ('op:sddmm', 'op:sddmm', 'dist:sddmm_sharded'),
        (('0x0.0p+0',
          ('compute_imbalance', '0x1.02d1f44ff99bdp+0'),
          ('exposed_comm_s', '0x0.0p+0'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x0.0p+0'),
          ('k', 2),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'sddmm-k4-row-nvlink-h1-local': (
        ('0x1.420da927a8100p-19',
         '0x1.4294eb8d87ce0p-19',
         '0x1.4453d5da73677p-19',
         '0x1.44710fdcb2ad8p-19'),
        '0x1.98d6830878698p-18',
        '0x0.0p+0',
        (('max_load', 1292),
         ('max_over_mean', '0x1.4c6a0083bb0c1p+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        '00f35b6fde9c4794f80049e559140f18',
        'all_gather/nvlink:launches=1,simulated_seconds=0x1.98d6830878698'
        'p-18;sddmm/sputnik:launches=4,cache_misses=4,simulated_seconds=0'
        'x1.4359de9b157ccp-17;shard_plan/dist:cache_misses=1',
        (45056, 44800, 47360, 47104),
        ('op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'dist:sddmm_sharded'),
        (('0x1.ed3bf6343e258p-19',
          ('compute_imbalance', '0x1.00dd0a08a7b03p+0'),
          ('exposed_comm_s', '0x1.ed3bf6343e258p-19'),
          ('interconnect', 'nvlink'),
          ('interconnect_bound', '0x1.34d8937fef7d2p-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
    'sddmm-k4-row-pcie-h1-gather': (
        ('0x1.420da927a8100p-19',
         '0x1.4294eb8d87ce0p-19',
         '0x1.4453d5da73677p-19',
         '0x1.44710fdcb2ad8p-19'),
        '0x1.35a3ea9a2bff8p-16',
        '0x1.2dbcfca024225p-16',
        (('max_load', 1292),
         ('max_over_mean', '0x1.4c6a0083bb0c1p+0'),
         ('mean_load', '0x1.f180000000000p+9')),
        '00f35b6fde9c4794f80049e559140f18',
        'all_gather/pcie:launches=2,simulated_seconds=0x1.31b0739d2810ep-'
        '15;sddmm/sputnik:launches=4,cache_misses=4,simulated_seconds=0x1'
        '.4359de9b157ccp-17;shard_plan/dist:cache_misses=1',
        (45056, 44800, 47360, 47104),
        ('op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'op:sddmm',
         'dist:sddmm_sharded'),
        (('0x1.1d69629f5ce61p-15',
          ('compute_imbalance', '0x1.00dd0a08a7b03p+0'),
          ('exposed_comm_s', '0x1.1d69629f5ce61p-15'),
          ('interconnect', 'pcie'),
          ('interconnect_bound', '0x1.de09770f3d73ep-1'),
          ('k', 4),
          ('plan_cache', 'miss'),
          ('plan_source', 'built'),
          ('strategy', 'row')),),
    ),
}


if __name__ == "__main__":
    import pprint
    import textwrap

    print("GOLDEN: dict[str, tuple] = {")
    for case in CASES:
        print(f"    {_case_id(case)!r}: (")
        for value in _observe(case):
            if isinstance(value, str) and len(value) > 64:
                pieces = [value[i:i + 64] for i in range(0, len(value), 64)]
                text = "\n".join(map(repr, pieces))
            else:
                text = pprint.pformat(value, width=68)
            print(textwrap.indent(text, " " * 8) + ",")
        print("    ),")
    print("}")
