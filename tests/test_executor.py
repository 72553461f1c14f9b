"""Tests for repro.gpu.executor — cost vectors to runtimes."""

import numpy as np
import pytest

from repro.gpu import (
    BlockCosts,
    BlockResources,
    ExecutionResult,
    KernelLaunch,
    V100,
    execute,
    register_launch_observer,
    unregister_launch_observer,
)
from repro.gpu.executor import _LAUNCH_OBSERVERS


def make_launch(**kwargs) -> KernelLaunch:
    defaults = dict(
        name="k",
        n_blocks=160,
        resources=BlockResources(threads=128, registers_per_thread=32),
        costs=BlockCosts(fma_instructions=1000.0, dram_bytes=1024.0),
        flops=1e6,
    )
    defaults.update(kwargs)
    return KernelLaunch(**defaults)


class TestBlockCosts:
    def test_broadcast_scalar(self):
        c = BlockCosts(fma_instructions=3.0).broadcast(5)
        assert c.fma_instructions.shape == (5,)
        assert np.all(c.fma_instructions == 3.0)

    def test_broadcast_preserves_arrays(self):
        arr = np.arange(4.0)
        c = BlockCosts(dram_bytes=arr).broadcast(4)
        assert np.array_equal(c.dram_bytes, arr)

    def test_broadcast_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid size"):
            BlockCosts(dram_bytes=np.arange(3.0)).broadcast(4)


class TestKernelLaunch:
    def test_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            make_launch(n_blocks=0)

    def test_bad_pipeline_efficiency_rejected(self):
        with pytest.raises(ValueError):
            make_launch(pipeline_efficiency=0.0)
        with pytest.raises(ValueError):
            make_launch(pipeline_efficiency=1.5)


class TestExecute:
    def test_basic_fields(self):
        res = execute(make_launch(), V100)
        assert res.runtime_s > 0
        assert res.n_blocks == 160
        assert res.flops == 1e6
        assert res.dram_bytes == pytest.approx(160 * 1024.0)
        assert res.occupancy is not None

    def test_runtime_scales_with_math_work(self):
        slow = execute(make_launch(costs=BlockCosts(fma_instructions=1e6)), V100)
        fast = execute(make_launch(costs=BlockCosts(fma_instructions=1e3)), V100)
        assert slow.runtime_s > fast.runtime_s

    def test_pipeline_efficiency_slows_kernel(self):
        full = execute(make_launch(pipeline_efficiency=1.0), V100)
        half = execute(make_launch(pipeline_efficiency=0.5), V100)
        assert half.runtime_s > full.runtime_s

    def test_launch_overhead_floor(self):
        res = execute(
            make_launch(n_blocks=1, costs=BlockCosts(other_instructions=1.0)), V100
        )
        assert res.runtime_s >= V100.launch_overhead_s

    def test_low_occupancy_penalized(self):
        """Few resident warps -> poor latency hiding -> slower per unit work."""
        small_grid = execute(
            make_launch(n_blocks=80, costs=BlockCosts(dram_bytes=1e6)), V100
        )
        big_grid = execute(
            make_launch(n_blocks=8000, costs=BlockCosts(dram_bytes=1e6)), V100
        )
        per_block_small = (small_grid.runtime_s - V100.launch_overhead_s) / 1
        per_block_big = (big_grid.runtime_s - V100.launch_overhead_s) / 100
        assert per_block_small > per_block_big * 0.9

    def test_throughput_property(self):
        res = execute(make_launch(), V100)
        assert res.throughput_flops == pytest.approx(res.flops / res.runtime_s)
        assert 0 < res.peak_fraction(V100) < 1

    def test_l1_bytes_charged_on_shared_pipe(self):
        base = execute(make_launch(costs=BlockCosts(smem_bytes=1e6)), V100)
        via_l1 = execute(make_launch(costs=BlockCosts(l1_bytes=1e6)), V100)
        assert base.runtime_s == pytest.approx(via_l1.runtime_s)


class TestExecutionResultHelpers:
    def test_sequence_sums(self):
        a = execute(make_launch(), V100)
        b = execute(make_launch(), V100)
        seq = ExecutionResult.sequence("pair", [a, b])
        assert seq.runtime_s == pytest.approx(a.runtime_s + b.runtime_s)
        assert seq.flops == a.flops + b.flops
        assert len(seq.children) == 2

    def test_sequence_empty_rejected(self):
        with pytest.raises(ValueError):
            ExecutionResult.sequence("nothing", [])

    def test_add_overhead(self):
        a = execute(make_launch(), V100)
        b = a.add_overhead(1e-6)
        assert b.runtime_s == pytest.approx(a.runtime_s + 1e-6)
        assert a.runtime_s < b.runtime_s  # original untouched

    def test_add_negative_overhead_rejected(self):
        a = execute(make_launch(), V100)
        with pytest.raises(ValueError):
            a.add_overhead(-1.0)


class TestObserverErrorPaths:
    """A misbehaving observer must never corrupt the observer list."""

    @pytest.fixture(autouse=True)
    def _clean_observers(self):
        before = list(_LAUNCH_OBSERVERS)
        yield
        _LAUNCH_OBSERVERS[:] = before

    def test_raising_launch_observer_propagates_without_leak(self):
        def bad(launch, device):
            raise RuntimeError("observer boom")

        register_launch_observer(bad)
        with pytest.raises(RuntimeError, match="observer boom"):
            execute(make_launch(), V100)
        # The failure left the registration intact (no silent removal)...
        assert bad in _LAUNCH_OBSERVERS
        unregister_launch_observer(bad)
        # ...and after unregistering, launches succeed again.
        assert bad not in _LAUNCH_OBSERVERS
        assert execute(make_launch(), V100).runtime_s > 0

    def test_register_is_idempotent(self):
        def obs(launch, device):
            pass

        register_launch_observer(obs)
        register_launch_observer(obs)
        assert _LAUNCH_OBSERVERS.count(obs) == 1
        unregister_launch_observer(obs)
        assert obs not in _LAUNCH_OBSERVERS

    def test_unregister_missing_is_noop(self):
        unregister_launch_observer(lambda launch, device: None)

    def test_unregister_during_notify_is_safe(self):
        """An observer removing itself (or a peer) mid-notification must not
        skip or double-call the remaining observers."""
        calls = []

        def self_removing(launch, device):
            calls.append("self_removing")
            unregister_launch_observer(self_removing)

        def peer(launch, device):
            calls.append("peer")

        register_launch_observer(self_removing)
        register_launch_observer(peer)
        execute(make_launch(), V100)
        assert calls == ["self_removing", "peer"]
        # Second launch: only the peer remains.
        execute(make_launch(), V100)
        assert calls == ["self_removing", "peer", "peer"]
