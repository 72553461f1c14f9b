"""Cost-model-driven config search: oracle and pruned hill climbing.

The simulator makes every candidate costable without running numerics, so
the ``tuned`` selector searches per topology fingerprint:

1. cost the heuristic seed (the floor — the tuner never returns a config
   it costed slower than the seed);
2. cost the shared candidate menu (:mod:`repro.tune.space`), which is
   exactly what the oracle does, so a tuned config is never worse than
   the oracle's pick either;
3. hill-climb from the best config via legality-filtered one-knob
   neighborhood moves until a round yields no improvement (bounded
   rounds), reaching knobs the menu holds fixed (``block_items_k``, the
   boolean toggles).

Candidate costing runs inside the simulated executor, so injected
executor-site launch faults can fire mid-search; a candidate that fails to
cost is skipped, and if *everything* fails — seed included — the search
falls back to the heuristic config (``fell_back=True``) instead of
crashing.

Module-level wall-clock accounting (:func:`tuning_seconds`) lets the
autotune benchmark assert that a warm plan store (which persists each
search's :class:`TuningResult`) bounds tuning overhead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..core.config import Precision, SddmmConfig, SpmmConfig
from ..gpu.device import DeviceSpec
from ..gpu.executor import execute
from ..sparse.csr import CSRMatrix
from .heuristics import select_sddmm_config, select_spmm_config
from .space import (
    sddmm_candidates,
    sddmm_neighbors,
    spmm_candidates,
    spmm_neighbors,
)

#: Hill-climbing round cap; each round costs every neighbor of the
#: incumbent, so the search is bounded even on pathological cost surfaces.
MAX_ROUNDS = 4

_tuning_seconds = 0.0


def tuning_seconds() -> float:
    """Total wall-clock seconds spent inside config search this process."""
    return _tuning_seconds


def reset_tuning_seconds() -> None:
    global _tuning_seconds
    _tuning_seconds = 0.0


@dataclass(frozen=True)
class TuningResult:
    """Winner plus search stats; this is what the PlanStore persists.

    ``runtime_s``/``seed_runtime_s`` are *simulated* kernel runtimes;
    ``candidates_costed`` counts distinct configs costed (menu + neighbor
    moves, deduplicated); ``fell_back`` marks a search in which no
    candidate could be costed at all, where ``config`` is the heuristic
    seed and the runtimes are infinite.
    """

    op: str
    config: SpmmConfig | SddmmConfig
    runtime_s: float
    seed_config: SpmmConfig | SddmmConfig
    seed_runtime_s: float
    candidates_costed: int
    rounds: int
    fell_back: bool = False

    @property
    def speedup_over_seed(self) -> float:
        """Simulated seed-runtime / tuned-runtime (>= 1 by construction)."""
        if not math.isfinite(self.runtime_s) or self.runtime_s <= 0:
            return 1.0
        return self.seed_runtime_s / self.runtime_s


def _hill_climb(
    op: str,
    seed,
    menu: Iterable,
    neighbors_of: Callable,
    cost: Callable[[object], float],
    max_rounds: int,
) -> TuningResult:
    global _tuning_seconds
    start = time.perf_counter()
    costed: dict = {}

    def runtime_of(config) -> float:
        if config not in costed:
            try:
                costed[config] = float(cost(config))
            except Exception:
                # Injected launch faults (or an unexpectedly illegal
                # candidate) kill this candidate only, never the search.
                costed[config] = math.inf
        return costed[config]

    try:
        seed_runtime = runtime_of(seed)
        best, best_runtime = seed, seed_runtime
        for config in menu:
            runtime = runtime_of(config)
            if runtime < best_runtime:
                best, best_runtime = config, runtime
        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            improved = False
            for config in neighbors_of(best):
                runtime = runtime_of(config)
                if runtime < best_runtime:
                    best, best_runtime, improved = config, runtime, True
            if not improved:
                break
        fell_back = not math.isfinite(best_runtime)
        if fell_back:
            best = seed  # nothing costed: hand back the heuristic config
        return TuningResult(
            op=op,
            config=best,
            runtime_s=best_runtime,
            seed_config=seed,
            seed_runtime_s=seed_runtime,
            candidates_costed=len(costed),
            rounds=rounds,
            fell_back=fell_back,
        )
    finally:
        _tuning_seconds += time.perf_counter() - start


def tune_spmm_config(
    a: CSRMatrix,
    n: int,
    device: DeviceSpec,
    precision: Precision = "fp32",
    max_rounds: int = MAX_ROUNDS,
) -> TuningResult:
    """Search the SpMM config space for one (matrix, n) problem."""
    from ..core.spmm import build_launch

    def cost(config: SpmmConfig) -> float:
        return execute(build_launch(a, n, config, device), device).runtime_s

    return _hill_climb(
        "spmm",
        select_spmm_config(a, n, precision),
        spmm_candidates(n, precision),
        lambda config: spmm_neighbors(config, n),
        cost,
        max_rounds,
    )


def tune_sddmm_config(
    mask: CSRMatrix,
    k: int,
    device: DeviceSpec,
    precision: Precision = "fp32",
    max_rounds: int = MAX_ROUNDS,
) -> TuningResult:
    """Search the SDDMM config space for one (mask, k) problem."""
    from ..core.sddmm import build_launch

    def cost(config: SddmmConfig) -> float:
        launch, drag = build_launch(mask, k, config, device)
        return execute(launch, device).add_overhead(drag).runtime_s

    return _hill_climb(
        "sddmm",
        select_sddmm_config(k, precision),
        sddmm_candidates(k, precision),
        lambda config: sddmm_neighbors(config, k),
        cost,
        max_rounds,
    )


def oracle_spmm_config(
    a: CSRMatrix, n: int, device: DeviceSpec, precision: Precision = "fp32"
) -> SpmmConfig:
    """Pick the fastest SpMM config by costing every candidate (no numerics).

    This is the "oracle kernel selector" the MobileNet evaluation applies to
    the four 1x1 convolutions where the heuristic mispredicts. It costs the
    same candidate menu the tuner's first round does.
    """
    from ..core.spmm import build_launch

    best: tuple[float, SpmmConfig] | None = None
    for config in spmm_candidates(n, precision):
        runtime = execute(build_launch(a, n, config, device), device).runtime_s
        if best is None or runtime < best[0]:
            best = (runtime, config)
    if best is None:
        raise ValueError(f"no legal SpMM configuration for N={n}")
    return best[1]


def oracle_sddmm_config(
    mask: CSRMatrix, k: int, device: DeviceSpec, precision: Precision = "fp32"
) -> SddmmConfig:
    """Pick the fastest SDDMM config by costing every candidate."""
    from ..core.sddmm import build_launch

    best: tuple[float, SddmmConfig] | None = None
    for config in sddmm_candidates(k, precision):
        launch, drag = build_launch(mask, k, config, device)
        runtime = execute(launch, device).add_overhead(drag).runtime_s
        if best is None or runtime < best[0]:
            best = (runtime, config)
    if best is None:
        raise ValueError(f"no legal SDDMM configuration for K={k}")
    return best[1]
