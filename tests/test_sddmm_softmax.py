"""Tests for the Sputnik SDDMM and sparse-softmax kernels."""

import numpy as np
import pytest

from repro import ops
from repro.core import SddmmConfig
from repro.core.sddmm import build_launch as sddmm_launch
from repro.gpu import V100, execute
from repro.sparse import CSRMatrix, sddmm_reference, sparse_softmax_reference
from tests.conftest import random_sparse


class TestSddmmNumerics:
    def test_matches_reference(self, rng, context):
        mask = random_sparse(rng, 96, 64, 0.3)
        lhs = rng.standard_normal((96, 32)).astype(np.float32)
        rhs = rng.standard_normal((64, 32)).astype(np.float32)
        out = ops.sddmm(lhs, rhs, mask, context=context).output
        ref = sddmm_reference(lhs, rhs, mask)
        assert np.allclose(out.values, ref.values, atol=1e-4)

    @pytest.mark.parametrize(
        "config",
        [
            SddmmConfig(),
            SddmmConfig(vector_width=1, nonzeros_per_block=8),
            SddmmConfig(load_balance=False),
            SddmmConfig(nonzeros_per_block=16, vector_width=2),
        ],
    )
    def test_every_config_is_exact(self, rng, context, config):
        mask = random_sparse(rng, 48, 40, 0.4)
        lhs = rng.standard_normal((48, 16)).astype(np.float32)
        rhs = rng.standard_normal((40, 16)).astype(np.float32)
        out = ops.sddmm(lhs, rhs, mask, config=config, context=context).output
        ref = sddmm_reference(lhs, rhs, mask)
        assert np.allclose(out.values, ref.values, atol=1e-4)

    def test_transposed_rhs_semantics(self, rng, context):
        """The kernel computes A B^T at mask positions (Section IV-B)."""
        mask = random_sparse(rng, 20, 24, 0.5)
        lhs = rng.standard_normal((20, 8)).astype(np.float32)
        rhs = rng.standard_normal((24, 8)).astype(np.float32)
        out = ops.sddmm(lhs, rhs, mask, context=context).output.to_dense()
        dense = lhs @ rhs.T
        support = mask.to_dense() != 0
        assert np.allclose(out[support], dense[support], atol=1e-4)


class TestSddmmValidation:
    def test_fp16_rejected(self, rng, context):
        mask = random_sparse(rng, 16, 16, 0.5)
        lhs = np.ones((16, 8), np.float32)
        with pytest.raises(NotImplementedError):
            ops.sddmm(
                lhs, lhs, mask, config=SddmmConfig(precision="mixed"), context=context
            )

    def test_inner_dim_vector_alignment(self, rng, context):
        mask = random_sparse(rng, 16, 16, 0.5)
        lhs = np.ones((16, 7), np.float32)
        rhs = np.ones((16, 7), np.float32)
        with pytest.raises(ValueError, match="not divisible"):
            ops.sddmm(
                lhs, rhs, mask, config=SddmmConfig(vector_width=4), context=context
            )

    def test_shape_mismatch(self, rng, context):
        mask = random_sparse(rng, 16, 16, 0.5)
        with pytest.raises(ValueError):
            ops.sddmm(
                np.ones((15, 8), np.float32),
                np.ones((16, 8), np.float32),
                mask,
                context=context,
            )

    def test_empty_mask_rejected(self, context):
        mask = CSRMatrix.from_dense(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="no nonzeros"):
            ops.sddmm(
                np.ones((4, 4), np.float32),
                np.ones((4, 4), np.float32),
                mask,
                context=context,
            )


class TestSddmmCostModel:
    def test_grid_counts_real_strips_only(self, rng, device):
        mask = random_sparse(rng, 64, 256, 0.2)
        launch, drag = sddmm_launch(mask, 32, SddmmConfig(), device)
        expected = int(np.ceil(mask.row_lengths / 32).sum())
        assert launch.n_blocks == expected
        assert drag >= 0.0

    def test_early_exit_drag_is_small(self, rng, device):
        """The over-provisioned grid's empty blocks cost ~nothing, matching
        'we do not observe significant overhead' (Section VI-A)."""
        mask = random_sparse(rng, 256, 2048, 0.05)
        launch, drag = sddmm_launch(mask, 32, SddmmConfig(), device)
        runtime = execute(launch, device).runtime_s
        assert drag < 0.05 * runtime

    def test_scalar_variant_launches_more_blocks(self, rng, device):
        mask = random_sparse(rng, 64, 256, 0.2)
        vec, _ = sddmm_launch(mask, 32, SddmmConfig(), device)
        scalar, _ = sddmm_launch(mask, 32, SddmmConfig().without("vector"), device)
        assert scalar.n_blocks > vec.n_blocks

    def test_runtime_scales_with_inner_dim(self, rng, device):
        mask = random_sparse(rng, 256, 256, 0.3)
        k32 = execute(sddmm_launch(mask, 32, SddmmConfig(), device)[0], device)
        k256 = execute(sddmm_launch(mask, 256, SddmmConfig(), device)[0], device)
        assert k256.runtime_s > k32.runtime_s


class TestSparseSoftmaxKernel:
    def test_matches_reference(self, rng, context):
        a = random_sparse(rng, 64, 64, 0.3)
        out = ops.sparse_softmax(a, context=context).output
        ref = sparse_softmax_reference(a)
        assert np.allclose(out.values, ref.values, atol=1e-5)

    def test_scale_passthrough(self, rng, context):
        a = random_sparse(rng, 32, 32, 0.5)
        out = ops.sparse_softmax(a, scale=0.25, context=context).output
        ref = sparse_softmax_reference(a, scale=0.25)
        assert np.allclose(out.values, ref.values, atol=1e-5)

    def test_cost_is_bandwidth_like(self, rng, context):
        small = ops.sparse_softmax(random_sparse(rng, 64, 64, 0.3), context=context)
        big = ops.sparse_softmax(random_sparse(rng, 1024, 1024, 0.3), context=context)
        assert big.runtime_s > small.runtime_s

    def test_empty_matrix_rejected(self, context):
        with pytest.raises(ValueError):
            ops.sparse_softmax(CSRMatrix.from_dense(np.zeros((4, 4))), context=context)
