"""The paper's fixed selection heuristics (Section VII, first paragraph).

For SpMM the paper selects "the n-dimension tile size to be N, rounded up
to a power of 2, up to a maximum of 64"; for SDDMM a fixed n-dimension tile
of 32; and for both "the widest vector memory operations possible". These
functions are the ``heuristic`` selector's policy and the seed every other
selector starts from; call sites outside :mod:`repro.tune` should resolve
configs through the selector protocol (:func:`repro.tune.resolve_selector`)
rather than importing these directly.
"""

from __future__ import annotations

from ..core.config import Precision, SddmmConfig, SpmmConfig
from ..core.selection import MAX_TILE_X, next_power_of_two, widest_vector_width
from ..sparse.csr import CSRMatrix


def select_spmm_config(
    a: CSRMatrix, n: int, precision: Precision = "fp32"
) -> SpmmConfig:
    """The paper's SpMM heuristic: tile-N = min(64, next_pow2(N)), widest
    vector width that divides both the tile and N."""
    del a  # the published heuristic keys only on the problem's N dimension
    tile = min(MAX_TILE_X, next_power_of_two(n))
    vw = widest_vector_width(tile, n)
    return SpmmConfig(
        block_items_x=tile,
        block_items_k=32,
        vector_width=vw,
        precision=precision,
    )


def select_sddmm_config(k: int, precision: Precision = "fp32") -> SddmmConfig:
    """The paper's SDDMM heuristic: n-dimension tile 32, widest vectors."""
    return SddmmConfig(
        nonzeros_per_block=32,
        vector_width=widest_vector_width(k),
        precision=precision,
    )
