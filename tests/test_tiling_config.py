"""Tests for the tiling geometry and kernel configurations."""

import numpy as np
import pytest

from repro.core import SddmmConfig, SpmmConfig, derive_tiling, value_dtype
from repro.core.selection import next_power_of_two, widest_vector_width
from repro.tune import select_sddmm_config, select_spmm_config


class TestSpmmConfig:
    def test_defaults_enable_everything(self):
        c = SpmmConfig()
        assert c.roma and c.load_balance and c.residue_unroll and c.index_prescale
        assert c.vector_width == 4

    def test_tile_must_be_vector_multiple(self):
        with pytest.raises(ValueError):
            SpmmConfig(block_items_x=30, vector_width=4)

    def test_block_items_k_must_be_vector_multiple(self):
        with pytest.raises(ValueError):
            SpmmConfig(block_items_k=30, vector_width=4)

    def test_mixed_precision_disables_prescale(self):
        """Section V-D3: int16 indices cannot hold pre-scaled offsets."""
        c = SpmmConfig(precision="mixed", index_prescale=True)
        assert not c.index_prescale
        assert c.element_bytes == 2 and c.index_bytes == 2

    def test_fp32_bytes(self):
        c = SpmmConfig()
        assert c.element_bytes == 4 and c.index_bytes == 4

    @pytest.mark.parametrize(
        "opt", ["vector", "roma", "load_balance", "residue_unroll", "index_prescale"]
    )
    def test_without_each_optimization(self, opt):
        c = SpmmConfig().without(opt)
        if opt == "vector":
            assert c.vector_width == 1
        elif opt == "roma":
            assert not c.roma
        elif opt == "load_balance":
            assert not c.load_balance
        elif opt == "residue_unroll":
            assert not c.residue_unroll
        else:
            assert not c.index_prescale

    def test_unknown_optimization_rejected(self):
        with pytest.raises(ValueError):
            SpmmConfig().without("magic")

    def test_bad_precision_rejected(self):
        with pytest.raises(ValueError):
            SpmmConfig(precision="fp64")

    def test_value_dtype_helper(self):
        assert value_dtype("fp32") == np.dtype(np.float32)
        assert value_dtype("mixed") == np.dtype(np.float16)


class TestSddmmConfig:
    def test_defaults(self):
        c = SddmmConfig()
        assert c.nonzeros_per_block == 32 and c.vector_width == 4

    def test_strip_bounds(self):
        with pytest.raises(ValueError):
            SddmmConfig(nonzeros_per_block=0)
        with pytest.raises(ValueError):
            SddmmConfig(nonzeros_per_block=64)

    def test_scalar_variant_uses_smaller_strips(self):
        c = SddmmConfig().without("vector")
        assert c.vector_width == 1 and c.nonzeros_per_block < 32


class TestDeriveTiling:
    def test_subwarp_tiling_for_narrow_tiles(self):
        """Tile narrower than a warp's vector footprint -> multiple subwarps
        share the warp (Section V-B1)."""
        t = derive_tiling(SpmmConfig(block_items_x=32, vector_width=4))
        assert t.subwarp_threads == 8
        assert t.subwarps_per_warp == 4
        assert t.thread_items_x == 4
        assert t.block_items_y == 16  # 4 warps x 4 subwarps

    def test_full_warp_per_tile(self):
        t = derive_tiling(SpmmConfig(block_items_x=128, vector_width=4))
        assert t.subwarp_threads == 32
        assert t.subwarps_per_warp == 1
        assert t.thread_items_x == 4

    def test_scalar_tile_one(self):
        t = derive_tiling(SpmmConfig(block_items_x=1, vector_width=1))
        assert t.subwarps_per_warp == 32
        assert t.block_items_y == 128

    def test_threads_per_block(self):
        t = derive_tiling(SpmmConfig(warps_per_block=4))
        assert t.threads_per_block == 128

    def test_grid_covers_output(self):
        t = derive_tiling(SpmmConfig(block_items_x=64, vector_width=4))
        gx, gy = t.grid(100, 129)
        assert gx * 64 >= 129 and (gx - 1) * 64 < 129
        assert gy * t.block_items_y >= 100

    def test_grid_rejects_empty(self):
        t = derive_tiling(SpmmConfig())
        with pytest.raises(ValueError):
            t.grid(0, 4)


class TestSelectionHeuristics:
    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(33) == 64
        assert next_power_of_two(64) == 64
        with pytest.raises(ValueError):
            next_power_of_two(0)

    def test_widest_vector_width(self):
        assert widest_vector_width(128) == 4
        assert widest_vector_width(6) == 2
        assert widest_vector_width(7) == 1
        assert widest_vector_width(8, 12) == 4

    def test_spmm_heuristic_caps_tile_at_64(self, small_sparse):
        c = select_spmm_config(small_sparse, 512)
        assert c.block_items_x == 64

    def test_spmm_heuristic_rounds_to_pow2(self, small_sparse):
        c = select_spmm_config(small_sparse, 20)
        assert c.block_items_x == 32
        assert c.vector_width == widest_vector_width(32, 20)

    def test_sddmm_heuristic_fixed_tile(self):
        c = select_sddmm_config(128)
        assert c.nonzeros_per_block == 32 and c.vector_width == 4
        assert select_sddmm_config(33).vector_width == 1


class TestSelectionEdgeCases:
    """Satellite coverage for the selection heuristic's boundary behavior:
    non-power-of-two N, N above the tile cap, and odd-dimension vector
    fallback — each config must also drive the kernel to exact numerics."""

    def _run(self, rng, a, n, config):
        from repro import ExecutionContext, ops
        from repro.gpu import V100

        b = rng.standard_normal((a.n_cols, n)).astype(np.float32)
        out = ops.spmm(a, b, config=config, context=ExecutionContext(V100)).output
        ref = a.to_dense().astype(np.float32) @ b
        assert np.allclose(out, ref, atol=1e-4)

    @pytest.mark.parametrize("n", [3, 5, 6, 12, 20, 48, 96, 100])
    def test_non_power_of_two_n_rounds_up_and_runs(self, rng, small_sparse, n):
        c = select_spmm_config(small_sparse, n)
        assert c.block_items_x == min(64, next_power_of_two(n))
        # The vector width must divide both the tile and the real N, or the
        # kernel's vector loads would run off the batch.
        assert c.block_items_x % c.vector_width == 0
        assert n % c.vector_width == 0
        self._run(rng, small_sparse, n, c)

    @pytest.mark.parametrize("n", [65, 100, 129, 512])
    def test_n_above_tile_cap_clamps_to_max_tile(self, rng, small_sparse, n):
        from repro.core.selection import MAX_TILE_X

        c = select_spmm_config(small_sparse, n)
        assert c.block_items_x == MAX_TILE_X
        if n == 100:  # 100 = 4*25: vectors stay wide despite the odd tile fit
            assert c.vector_width == 4
        self._run(rng, small_sparse, n, c)

    @pytest.mark.parametrize("n,expected_vw", [(7, 1), (33, 1), (6, 2), (66, 2)])
    def test_odd_dims_fall_back_to_narrow_vectors(
        self, rng, small_sparse, n, expected_vw
    ):
        c = select_spmm_config(small_sparse, n)
        assert c.vector_width == expected_vw
        self._run(rng, small_sparse, n, c)

    def test_sddmm_odd_k_falls_back_to_scalar(self):
        assert select_sddmm_config(7).vector_width == 1
        assert select_sddmm_config(10).vector_width == 2

    def test_pad_batch_for_vectors_restores_vector_width(self, rng):
        from repro.core.selection import pad_batch_for_vectors

        b = rng.standard_normal((16, 10)).astype(np.float32)
        padded = pad_batch_for_vectors(b)
        assert padded.shape == (16, 12)
        assert (padded[:, 10:] == 0).all()
        assert widest_vector_width(padded.shape[1]) == 4
        # Already-aligned batches pass through untouched.
        assert pad_batch_for_vectors(padded) is padded
