"""Neural-network substrate: the layers, models, and training utilities the
paper's applications (sparse Transformer, sparse MobileNetV1, sparse RNNs)
are built from."""

from .activation import bias_relu, elementwise_execution, relu
from .attention import (
    dense_attention,
    dense_attention_cost,
    softmax,
    sparse_attention,
    sparse_attention_cost,
)
from .batchnorm import (
    BatchNorm,
    fuse_into_dense,
    fuse_into_depthwise,
    fuse_into_sparse,
)
from .conv import depthwise_conv, im2col
from .dynamic import (
    DropGrowSchedule,
    drop_grow_step,
    drop_grow_update,
    select_rows,
)
from .layers import Linear, SparseLinear
from .mobilenet import MobileNetReport, MobileNetV1, reference_accuracy, scaled_channels
from .mobilenet import benchmark as benchmark_mobilenet
from .profile import Profile
from .pruning import MagnitudePruner, gradual_sparsity, magnitude_prune, prune_to_csr
from .rnn_cells import SparseGruCell, SparseLstmCell, SparseRnnCell, random_cell
from .training import TrainingResult, make_regression_task, train_pruned_mlp
from .transformer_layer import TransformerLayer, TransformerStack, layer_norm
from .transformer import (
    TransformerConfig,
    TransformerReport,
    profile_dense,
    profile_sparse,
)
from .transformer import benchmark as benchmark_transformer

__all__ = [
    "Profile",
    "Linear",
    "SparseLinear",
    "relu",
    "bias_relu",
    "elementwise_execution",
    "softmax",
    "dense_attention",
    "sparse_attention",
    "dense_attention_cost",
    "sparse_attention_cost",
    "BatchNorm",
    "fuse_into_dense",
    "fuse_into_sparse",
    "fuse_into_depthwise",
    "im2col",
    "depthwise_conv",
    "TransformerConfig",
    "TransformerReport",
    "profile_dense",
    "profile_sparse",
    "benchmark_transformer",
    "TransformerLayer",
    "TransformerStack",
    "layer_norm",
    "MobileNetV1",
    "MobileNetReport",
    "benchmark_mobilenet",
    "reference_accuracy",
    "scaled_channels",
    "SparseRnnCell",
    "SparseGruCell",
    "SparseLstmCell",
    "random_cell",
    "magnitude_prune",
    "prune_to_csr",
    "gradual_sparsity",
    "MagnitudePruner",
    "DropGrowSchedule",
    "drop_grow_update",
    "drop_grow_step",
    "select_rows",
    "make_regression_task",
    "train_pruned_mlp",
    "TrainingResult",
]
