"""Tests for the Sputnik SpMM kernel: numerics under every configuration,
cost-model sanity, and the behaviours the paper's optimizations predict."""

import numpy as np
import pytest

from repro import ops
from repro.core import SpmmConfig
from repro.core.spmm import build_launch
from repro.gpu import V100, execute
from repro.sparse import CSRMatrix, spmm_reference
from tests.conftest import random_sparse


def reference(a, b):
    return a.to_dense().astype(np.float32) @ b.astype(np.float32)


class TestNumerics:
    def test_matches_reference(self, rng, context):
        a = random_sparse(rng, 128, 96, 0.3)
        b = rng.standard_normal((96, 64)).astype(np.float32)
        out = ops.spmm(a, b, context=context).output
        assert np.allclose(out, reference(a, b), atol=1e-4)

    @pytest.mark.parametrize(
        "config",
        [
            SpmmConfig(),
            SpmmConfig(vector_width=1, block_items_x=32),
            SpmmConfig(roma=False),
            SpmmConfig(load_balance=False),
            SpmmConfig(residue_unroll=False),
            SpmmConfig(index_prescale=False),
            SpmmConfig(vector_width=2, block_items_x=16),
            SpmmConfig(warps_per_block=2),
        ],
    )
    def test_every_config_is_exact(self, rng, context, config):
        """Optimizations change cost, never results."""
        a = random_sparse(rng, 64, 48, 0.35)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        out = ops.spmm(a, b, config=config, context=context).output
        assert np.allclose(out, reference(a, b), atol=1e-4)

    def test_mixed_precision(self, rng, context):
        a = random_sparse(rng, 64, 48, 0.3, dtype=np.float16)
        b = rng.standard_normal((48, 32)).astype(np.float16)
        config = SpmmConfig(precision="mixed", block_items_x=32)
        out = ops.spmm(a, b, config=config, context=context).output
        assert out.dtype == np.float16
        assert np.allclose(
            out.astype(np.float32),
            spmm_reference(a, b).astype(np.float32),
            atol=1e-2,
        )

    def test_empty_rows_produce_zeros(self, context, rng):
        dense = np.zeros((16, 24), np.float32)
        dense[3, 5] = 2.0
        a = CSRMatrix.from_dense(dense)
        b = rng.standard_normal((24, 8)).astype(np.float32)
        out = ops.spmm(a, b, context=context).output
        assert np.allclose(out[0], 0) and np.allclose(out[3], 2.0 * b[5], atol=1e-5)

    def test_single_column_batch(self, rng, context):
        a = random_sparse(rng, 32, 32, 0.4)
        b = rng.standard_normal((32, 1)).astype(np.float32)
        out = ops.spmm(
            a, b, config=SpmmConfig(block_items_x=1, vector_width=1), context=context
        ).output
        assert np.allclose(out, reference(a, b), atol=1e-4)


class TestValidation:
    def test_dtype_mismatch_rejected(self, rng, context):
        a = random_sparse(rng, 16, 16, 0.5)
        with pytest.raises(TypeError, match="dense operand"):
            ops.spmm(
                a, np.ones((16, 8), np.float64), config=SpmmConfig(), context=context
            )

    def test_precision_mismatch_rejected(self, rng, context):
        a = random_sparse(rng, 16, 16, 0.5, dtype=np.float16)
        with pytest.raises(TypeError, match="precision"):
            ops.spmm(
                a, np.ones((16, 8), np.float16), config=SpmmConfig(), context=context
            )

    def test_shape_mismatch_rejected(self, rng, context):
        a = random_sparse(rng, 16, 16, 0.5)
        with pytest.raises(ValueError, match="incompatible"):
            ops.spmm(a, np.ones((17, 8), np.float32), context=context)

    def test_unaligned_batch_rejected_for_vector_kernels(self, rng, context):
        a = random_sparse(rng, 16, 16, 0.5)
        with pytest.raises(ValueError, match="not divisible"):
            ops.spmm(
                a, np.ones((16, 7), np.float32), config=SpmmConfig(), context=context
            )


class TestCostModel:
    def test_swizzle_never_changes_output(self, rng, context):
        a = random_sparse(rng, 96, 64, 0.3)
        b = rng.standard_normal((64, 32)).astype(np.float32)
        on = ops.spmm(
            a, b, config=SpmmConfig(load_balance=True), context=context
        ).output
        off = ops.spmm(
            a, b, config=SpmmConfig(load_balance=False), context=context
        ).output
        assert np.array_equal(on, off)

    def test_swizzle_helps_imbalanced_matrices(self, device):
        """Figure 7's core claim at kernel level."""
        from repro.datasets import imbalanced_matrix

        a = imbalanced_matrix(1.5, m=2048, k=512, sparsity=0.8)
        on = execute(build_launch(a, 64, SpmmConfig(load_balance=True), device), device)
        off = execute(
            build_launch(a, 64, SpmmConfig(load_balance=False), device), device
        )
        assert on.runtime_s < off.runtime_s

    def test_swizzle_near_noop_on_balanced_matrices(self, device):
        from repro.datasets import imbalanced_matrix

        a = imbalanced_matrix(0.0, m=2048, k=512, sparsity=0.8)
        on = execute(build_launch(a, 64, SpmmConfig(load_balance=True), device), device)
        off = execute(
            build_launch(a, 64, SpmmConfig(load_balance=False), device), device
        )
        assert on.runtime_s == pytest.approx(off.runtime_s, rel=0.05)

    def test_vector_loads_help_large_problems(self, rng, device):
        a = random_sparse(rng, 1024, 1024, 0.25)
        vec = execute(
            build_launch(a, 128, SpmmConfig(block_items_x=64, vector_width=4), device),
            device,
        )
        scalar = execute(
            build_launch(a, 128, SpmmConfig(block_items_x=64, vector_width=1), device),
            device,
        )
        assert vec.runtime_s < scalar.runtime_s

    def test_residue_unroll_reduces_issued_instructions(self, rng, device):
        """Rows not divisible by the K-tile pay for scalar residue loops;
        the unrolled handler issues strictly fewer instructions and is
        never slower."""
        a = random_sparse(rng, 512, 300, 0.21)  # ragged row lengths
        l_on = build_launch(a, 64, SpmmConfig(residue_unroll=True), device)
        l_off = build_launch(a, 64, SpmmConfig(residue_unroll=False), device)
        on_instr = np.sum(l_on.costs.broadcast(l_on.n_blocks).other_instructions)
        off_instr = np.sum(l_off.costs.broadcast(l_off.n_blocks).other_instructions)
        assert on_instr < off_instr
        assert execute(l_on, device).runtime_s <= execute(l_off, device).runtime_s * 1.001

    def test_flops_reported(self, rng, device):
        a = random_sparse(rng, 64, 64, 0.3)
        launch = build_launch(a, 32, SpmmConfig(block_items_x=32), device)
        assert launch.flops == 2.0 * a.nnz * 32

    def test_grid_size(self, rng, device):
        a = random_sparse(rng, 100, 64, 0.3)
        config = SpmmConfig(block_items_x=32, vector_width=4)  # biy = 16
        launch = build_launch(a, 64, config, device)
        assert launch.n_blocks == 2 * 7  # ceil(64/32) x ceil(100/16)

    def test_runtime_grows_with_batch(self, rng, device):
        a = random_sparse(rng, 256, 256, 0.3)
        small = execute(build_launch(a, 32, SpmmConfig(block_items_x=32), device), device)
        large = execute(build_launch(a, 512, SpmmConfig(block_items_x=64), device), device)
        assert large.runtime_s > small.runtime_s

    def test_mixed_precision_moves_fewer_bytes(self, rng, device):
        a32 = random_sparse(rng, 512, 512, 0.3)
        a16 = a32.astype(np.float16)
        f32 = build_launch(a32, 128, SpmmConfig(), device)
        f16 = build_launch(a16, 128, SpmmConfig(precision="mixed"), device)
        total32 = np.sum(f32.costs.broadcast(f32.n_blocks).dram_bytes)
        total16 = np.sum(f16.costs.broadcast(f16.n_blocks).dram_bytes)
        assert total16 < total32


class TestCscFormulation:
    """Section IV-C: the CSC/column-major formulation is equally efficient."""

    def test_numerics(self, rng, context):
        from repro.sparse import csr_to_csc

        a = random_sparse(rng, 48, 64, 0.3)
        csc = csr_to_csc(a)
        b = rng.standard_normal((32, 48)).astype(np.float32)
        out = ops.csc_spmm(b, csc, context=context)
        assert np.allclose(out.output, b @ a.to_dense(), atol=1e-3)

    def test_cost_parity_with_csr(self, rng, context):
        """B A via CSC costs exactly what A^T B^T costs via CSR."""
        from repro.sparse import CachedTranspose, csr_to_csc

        a = random_sparse(rng, 256, 128, 0.3)
        csc = csr_to_csc(a)
        b = rng.standard_normal((64, 256)).astype(np.float32)
        via_csc = ops.csc_spmm(b, csc, context=context)
        t = CachedTranspose(a).transpose(a)
        via_csr = ops.spmm(t, np.ascontiguousarray(b.T), context=context)
        assert via_csc.runtime_s == pytest.approx(via_csr.runtime_s, rel=1e-6)

    def test_shape_validation(self, rng, context):
        from repro.sparse import csr_to_csc

        csc = csr_to_csc(random_sparse(rng, 16, 16, 0.5))
        with pytest.raises(ValueError):
            ops.csc_spmm(np.ones((4, 17), np.float32), csc, context=context)
