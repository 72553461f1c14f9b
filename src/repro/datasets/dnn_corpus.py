"""Synthetic corpus of deep-learning sparse matrices (Section II).

The paper's dataset holds 3,012 weight matrices from 49 models: ResNet-50
and Transformer trained with four sparsification algorithms at several
sparsity targets (from the study of Gale, Elsen & Hooker 2019). The raw
checkpoints are not redistributable, so per DESIGN.md Section 2 this module
generates a corpus with the same *marginals* the kernels actually see:

- the published layer shapes of ResNet-50's convolutions (as im2col GEMMs)
  and the Transformer base model's attention/FFN projections;
- sparsities spanning the study's 50-98 % range;
- row-length CoV per sparsification algorithm: magnitude pruning and
  state-of-the-art regularizers leave mildly imbalanced rows, while
  variational dropout is noisier.

The generated corpus reproduces Figure 2's aggregate statistics (verified in
``benchmarks/bench_fig02_matrix_study.py``).
"""

from __future__ import annotations

import numpy as np

from .spec import MatrixSpec

#: Sparsification algorithms in the source study, with the row-length CoV
#: their unstructured masks typically exhibit.
ALGORITHMS: dict[str, float] = {
    "magnitude_pruning": 0.16,
    "l0_regularization": 0.22,
    "variational_dropout": 0.42,
    "random_pruning": 0.08,
}

#: Sparsity targets of the source study's sweep.
SPARSITIES = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)

#: Transformer-base projection shapes (rows, cols) and the sequence-product
#: N dimensions benchmarked (batch 1 and batch 8 of 128-token sequences).
TRANSFORMER_LAYERS: list[tuple[str, int, int]] = (
    [(f"encoder_{i}_attn_{p}", 512, 512) for i in range(6) for p in "qkvo"]
    + [(f"encoder_{i}_ffn_in", 2048, 512) for i in range(6)]
    + [(f"encoder_{i}_ffn_out", 512, 2048) for i in range(6)]
    + [(f"decoder_{i}_attn_{p}", 512, 512) for i in range(6) for p in "qkvo"]
    + [(f"decoder_{i}_ffn_in", 2048, 512) for i in range(6)]
    + [(f"decoder_{i}_ffn_out", 512, 2048) for i in range(6)]
)
TRANSFORMER_BATCH_COLUMNS = (128, 1024)

#: ResNet-50 convolutions as im2col GEMMs: (name, C_out, C_in * kh * kw,
#: spatial H*W at that stage). 1x1 and 3x3 convolutions from each stage.
RESNET_LAYERS: list[tuple[str, int, int, int]] = (
    [(f"stage1_block{i}_1x1a", 64, 256, 3136) for i in range(3)]
    + [(f"stage1_block{i}_3x3", 64, 576, 3136) for i in range(3)]
    + [(f"stage1_block{i}_1x1b", 256, 64, 3136) for i in range(3)]
    + [(f"stage2_block{i}_1x1a", 128, 512, 784) for i in range(4)]
    + [(f"stage2_block{i}_3x3", 128, 1152, 784) for i in range(4)]
    + [(f"stage2_block{i}_1x1b", 512, 128, 784) for i in range(4)]
    + [(f"stage3_block{i}_1x1a", 256, 1024, 196) for i in range(6)]
    + [(f"stage3_block{i}_3x3", 256, 2304, 196) for i in range(6)]
    + [(f"stage3_block{i}_1x1b", 1024, 256, 196) for i in range(6)]
    + [(f"stage4_block{i}_1x1a", 512, 2048, 49) for i in range(3)]
    + [(f"stage4_block{i}_3x3", 512, 4608, 49) for i in range(3)]
    + [(f"stage4_block{i}_1x1b", 2048, 512, 49) for i in range(3)]
    + [
        ("stage1_downsample", 256, 64, 3136),
        ("stage2_downsample", 512, 256, 784),
        ("stage3_downsample", 1024, 512, 196),
        ("stage4_downsample", 2048, 1024, 49),
        ("fc", 1000, 2048, 1),
    ]
)
RESNET_INFERENCE_BATCH = 1
RESNET_TRAINING_BATCH = 256


def _resnet_batch_columns(spatial: int) -> tuple[int, int]:
    """(inference, training) N dimensions; inference padded to a multiple of
    4 for vector memory instructions (Section VII-A1)."""
    infer = RESNET_INFERENCE_BATCH * spatial
    infer += (-infer) % 4
    # The training batch keeps dense-operand sizes manageable for the
    # simulator by capping the spatial product contribution.
    train = min(RESNET_TRAINING_BATCH * spatial, 12544)
    return infer, train


def build_corpus(seed: int = 0) -> list[MatrixSpec]:
    """Generate the full synthetic corpus (3,012 matrix specs, 49 models)."""
    specs: list[MatrixSpec] = []
    rng = np.random.default_rng(seed)
    model_id = 0
    # 4 algorithms x 7 sparsities x (Transformer + ResNet) = 56 model slots;
    # the source study kept 49 models above its quality thresholds, so the
    # 7 weakest (highest-sparsity variational/random variants) are dropped.
    dropped = {
        ("variational_dropout", 0.98, "transformer"),
        ("variational_dropout", 0.98, "resnet50"),
        ("random_pruning", 0.98, "transformer"),
        ("random_pruning", 0.98, "resnet50"),
        ("random_pruning", 0.95, "transformer"),
        ("random_pruning", 0.95, "resnet50"),
        ("variational_dropout", 0.95, "resnet50"),
    }
    for algorithm, base_cov in ALGORITHMS.items():
        for sparsity in SPARSITIES:
            for arch in ("transformer", "resnet50"):
                if (algorithm, sparsity, arch) in dropped:
                    continue
                model = f"{arch}/{algorithm}/s{int(sparsity * 100)}"
                cov = base_cov * (0.8 + 0.4 * rng.random())
                if arch == "transformer":
                    for layer, rows, cols in TRANSFORMER_LAYERS:
                        specs.append(
                            MatrixSpec(
                                name=f"{model}/{layer}",
                                model=model,
                                layer=layer,
                                rows=rows,
                                cols=cols,
                                sparsity=sparsity,
                                row_cov=cov,
                                seed=int(rng.integers(2**31)),
                                batch_columns=TRANSFORMER_BATCH_COLUMNS,
                            )
                        )
                else:
                    for layer, rows, cols, spatial in RESNET_LAYERS:
                        specs.append(
                            MatrixSpec(
                                name=f"{model}/{layer}",
                                model=model,
                                layer=layer,
                                rows=rows,
                                cols=cols,
                                sparsity=sparsity,
                                row_cov=cov,
                                seed=int(rng.integers(2**31)),
                                batch_columns=_resnet_batch_columns(spatial),
                            )
                        )
                model_id += 1
    # The source study's per-model matrix counts vary slightly; trim the
    # synthetic corpus evenly to the paper's exact total of 3,012 matrices.
    target = 3012
    if len(specs) > target:
        keep = np.linspace(0, len(specs) - 1, target).round().astype(int)
        specs = [specs[i] for i in keep]
    return specs


def sample_corpus(
    n: int, seed: int = 0, corpus: list[MatrixSpec] | None = None
) -> list[MatrixSpec]:
    """Deterministic stratified sample of the corpus for benchmarking.

    Benchmarks use an evenly strided sample that preserves the
    model/sparsity strata (the corpus is generated in stratum order); the
    full 3,012-matrix sweep would take a few minutes in one process.
    """
    if corpus is None:
        corpus = build_corpus(seed)
    if n <= 0:
        raise ValueError("sample size must be positive")
    if n >= len(corpus):
        return list(corpus)
    idx = np.linspace(0, len(corpus) - 1, n).round().astype(int)
    return [corpus[i] for i in idx]
