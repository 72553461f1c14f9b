"""Tests for repro.gpu.occupancy — the CUDA occupancy calculator."""

import pytest

from repro.gpu import V100, BlockResources, compute_occupancy


class TestBlockResources:
    def test_warps_round_up(self):
        assert BlockResources(threads=33).warps(V100) == 2
        assert BlockResources(threads=32).warps(V100) == 1

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            BlockResources(threads=0)

    def test_negative_resources_rejected(self):
        with pytest.raises(ValueError):
            BlockResources(threads=32, shared_mem_bytes=-1)


class TestLimits:
    def test_thread_limited(self):
        occ = compute_occupancy(
            BlockResources(threads=1024, registers_per_thread=16), V100
        )
        assert occ.blocks_per_sm == 2
        assert occ.limiting_factor == "threads"

    def test_block_limited_for_tiny_blocks(self):
        occ = compute_occupancy(
            BlockResources(threads=32, registers_per_thread=16), V100
        )
        assert occ.blocks_per_sm == V100.max_blocks_per_sm
        assert occ.limiting_factor == "blocks"

    def test_shared_memory_limited(self):
        occ = compute_occupancy(
            BlockResources(
                threads=64, shared_mem_bytes=48 * 1024, registers_per_thread=16
            ),
            V100,
        )
        assert occ.blocks_per_sm == 2
        assert occ.limiting_factor == "shared_memory"

    def test_register_limited(self):
        occ = compute_occupancy(
            BlockResources(threads=256, registers_per_thread=128), V100
        )
        assert occ.limiting_factor == "registers"
        assert occ.blocks_per_sm == 2

    def test_too_many_threads_per_block_rejected(self):
        with pytest.raises(ValueError, match="exceeds device limit"):
            compute_occupancy(BlockResources(threads=2048), V100)

    def test_oversized_shared_memory_rejected(self):
        with pytest.raises(ValueError, match="per-SM capacity"):
            compute_occupancy(
                BlockResources(threads=32, shared_mem_bytes=100 * 1024), V100
            )

    def test_zero_occupancy_rejected(self):
        with pytest.raises(ValueError, match="zero occupancy"):
            compute_occupancy(
                BlockResources(threads=1024, registers_per_thread=255), V100
            )


class TestOccupancyProperties:
    def test_full_occupancy_possible(self):
        occ = compute_occupancy(
            BlockResources(threads=256, registers_per_thread=32), V100
        )
        resident = occ.blocks_per_sm * occ.warps_per_block
        assert resident == V100.max_warps_per_sm
