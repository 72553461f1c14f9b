"""Tests for the paper's footnote/extension features: general SDDMM
variants, dynamic parallelism, and the block-sparse comparator."""

import numpy as np
import pytest

from repro.baselines import block_sparse_spmm, constrain_to_blocks
from repro.bench import sputnik_sddmm_time
from repro import ops
from repro.core import SddmmConfig
from repro.sparse import BlockSparseMatrix, sddmm_reference
from tests.conftest import random_sparse


class TestScaledSddmm:
    def test_matches_scaled_reference(self, rng, context):
        """Footnote 1: the textbook A B^T ∘ C with element-wise scaling."""
        mask = random_sparse(rng, 40, 32, 0.4)
        lhs = rng.standard_normal((40, 16)).astype(np.float32)
        rhs = rng.standard_normal((32, 16)).astype(np.float32)
        out = ops.sddmm(
            lhs, rhs, mask, config=SddmmConfig(scale_by_values=True), context=context
        )
        ref = sddmm_reference(lhs, rhs, mask, scale_by_values=True)
        assert np.allclose(out.output.values, ref.values, atol=1e-4)

    def test_scaling_costs_extra_traffic(self, rng, device):
        mask = random_sparse(rng, 512, 512, 0.3)
        plain = sputnik_sddmm_time(mask, 64, device, SddmmConfig())
        scaled = sputnik_sddmm_time(
            mask, 64, device, SddmmConfig(scale_by_values=True)
        )
        assert scaled.dram_bytes > plain.dram_bytes


class TestNonTransposedSddmm:
    def test_matches_reference(self, rng, context):
        """Footnote 1: A B ∘ I[C] with the right operand not transposed."""
        mask = random_sparse(rng, 40, 32, 0.4)
        lhs = rng.standard_normal((40, 16)).astype(np.float32)
        rhs_t = rng.standard_normal((16, 32)).astype(np.float32)  # (k, cols)
        out = ops.sddmm(
            lhs, rhs_t, mask, config=SddmmConfig(transposed_rhs=False), context=context
        )
        ref = sddmm_reference(lhs, rhs_t.T.copy(), mask)
        assert np.allclose(out.output.values, ref.values, atol=1e-4)

    def test_drops_the_shuffle_reduction(self, rng, device):
        """Simpler kernel: fewer instructions than the transposed variant."""
        mask = random_sparse(rng, 512, 512, 0.3)
        from repro.core.sddmm import build_launch

        t_launch, _ = build_launch(mask, 64, SddmmConfig(), device)
        n_launch, _ = build_launch(
            mask, 64, SddmmConfig(transposed_rhs=False), device
        )
        t_instr = np.sum(t_launch.costs.broadcast(t_launch.n_blocks).other_instructions)
        n_instr = np.sum(n_launch.costs.broadcast(n_launch.n_blocks).other_instructions)
        assert n_instr < t_instr


class TestDynamicParallelism:
    def test_numerics_unchanged(self, rng, context):
        mask = random_sparse(rng, 40, 32, 0.4)
        lhs = rng.standard_normal((40, 8)).astype(np.float32)
        rhs = rng.standard_normal((32, 8)).astype(np.float32)
        a = ops.sddmm(lhs, rhs, mask, config=SddmmConfig(), context=context)
        b = ops.sddmm(
            lhs,
            rhs,
            mask,
            config=SddmmConfig(dynamic_parallelism=True),
            context=context,
        )
        assert np.array_equal(a.output.values, b.output.values)

    def test_runtime_comparable(self, rng, device):
        """Section VI-A: neither strategy wins decisively at DL sparsities —
        dynamic parallelism saves the (negligible) early-exit drag but pays
        one extra API-level launch."""
        mask = random_sparse(rng, 1024, 1024, 0.1)
        over = sputnik_sddmm_time(mask, 64, device, SddmmConfig()).runtime_s
        dyn = sputnik_sddmm_time(
            mask, 64, device, SddmmConfig(dynamic_parallelism=True)
        ).runtime_s
        assert dyn == pytest.approx(over + device.launch_overhead_s, rel=0.1)


class TestBlockSparseBaseline:
    def test_numerics(self, rng, device):
        dense = np.zeros((64, 64), np.float32)
        dense[0:16, 16:32] = rng.standard_normal((16, 16))
        dense[32:48, 0:16] = rng.standard_normal((16, 16))
        bsr = BlockSparseMatrix.from_dense(dense, 16)
        b = rng.standard_normal((64, 32)).astype(np.float32)
        out = block_sparse_spmm(bsr, b, device)
        assert np.allclose(out.output, dense @ b, atol=1e-3)

    def test_shape_validation(self, rng, device):
        bsr = BlockSparseMatrix.from_dense(np.eye(32, dtype=np.float32), 8)
        with pytest.raises(ValueError):
            block_sparse_spmm(bsr, np.ones((33, 4), np.float32), device)

    def test_constrain_preserves_storage_budget(self, rng):
        a = random_sparse(rng, 256, 256, 0.15)
        bsr, kept = constrain_to_blocks(a, 16)
        assert bsr.nnz_stored <= a.nnz + 16 * 16  # within one block
        assert 0.0 < kept <= 1.0

    def test_constrain_keeps_heaviest_blocks(self, rng):
        """A matrix whose mass is concentrated in one block keeps it."""
        dense = rng.standard_normal((32, 32)).astype(np.float32) * 0.01
        dense[0:8, 0:8] = 10.0
        from repro.sparse import CSRMatrix

        a = CSRMatrix.from_dense(dense)
        bsr, kept = constrain_to_blocks(a, 8)
        assert np.allclose(bsr.to_dense()[0:8, 0:8], 10.0)

    def test_constrain_validates_divisibility(self, rng):
        a = random_sparse(rng, 30, 32, 0.2)
        with pytest.raises(ValueError):
            constrain_to_blocks(a, 8)

    def test_random_topology_loses_magnitude(self, rng):
        """The Section I trade-off: unstructured nonzeros forced into
        blocks lose most of their magnitude at the same budget."""
        a = random_sparse(rng, 256, 256, 0.1)
        _, kept = constrain_to_blocks(a, 16)
        assert kept < 0.5
