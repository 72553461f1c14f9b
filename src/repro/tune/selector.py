"""The selector protocol: one interface for every config-selection policy.

An :class:`ExecutionContext` resolves ``selector=`` arguments through
:func:`resolve_selector` and calls ``build_spmm``/``build_sddmm`` on the
result; nothing outside :mod:`repro.tune` constructs kernel configs
directly. Three policies ship:

- ``heuristic`` — the paper's fixed rules (Section VII). Cheap enough
  that winners live only in the in-memory plan cache (``persist=False``).
- ``oracle``   — exhaustively costs the shared candidate menu
  (Section VII-D1's "oracle kernel selector"). Persisted.
- ``tuned``    — pruned hill-climbing search seeded by the heuristic
  (:mod:`repro.tune.search`). Returns a :class:`TuningResult` carrying
  search stats; persisted so tuning amortizes across sweeps/processes.

Custom selectors register via :func:`register_selector`, or pass any
object with ``name``/``persist``/``build_spmm``/``build_sddmm`` directly
as the ``selector=`` argument.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from ..core.config import Precision, SddmmConfig, SpmmConfig
from ..sparse.csr import CSRMatrix
from .heuristics import select_sddmm_config, select_spmm_config
from .search import (
    TuningResult,
    oracle_sddmm_config,
    oracle_spmm_config,
    tune_sddmm_config,
    tune_spmm_config,
)


@runtime_checkable
class Selector(Protocol):
    """A config-selection policy.

    ``build_*`` may return a bare config or a :class:`TuningResult`
    wrapping one; the context unwraps and caches either. ``persist``
    selectors write winners through to the on-disk :class:`PlanStore`
    (worth it when selection costs more than a heuristic call).
    """

    name: str
    persist: bool

    def build_spmm(
        self, context, a: CSRMatrix, n: int, precision: Precision
    ) -> SpmmConfig | TuningResult: ...

    def build_sddmm(
        self, context, mask: CSRMatrix, k: int, precision: Precision
    ) -> SddmmConfig | TuningResult: ...


class HeuristicSelector:
    """The paper's published selection rules."""

    name = "heuristic"
    persist = False

    def build_spmm(self, context, a, n, precision):
        del context
        return select_spmm_config(a, n, precision)

    def build_sddmm(self, context, mask, k, precision):
        del context, mask
        return select_sddmm_config(k, precision)


class OracleSelector:
    """Exhaustive costing of the shared candidate menu."""

    name = "oracle"
    persist = True

    def build_spmm(self, context, a, n, precision):
        return oracle_spmm_config(a, n, context.device, precision)

    def build_sddmm(self, context, mask, k, precision):
        return oracle_sddmm_config(mask, k, context.device, precision)


class TunedSelector:
    """Pruned hill-climbing search; returns a stats-carrying result."""

    name = "tuned"
    persist = True

    def build_spmm(self, context, a, n, precision):
        return tune_spmm_config(a, n, context.device, precision)

    def build_sddmm(self, context, mask, k, precision):
        return tune_sddmm_config(mask, k, context.device, precision)


SELECTOR_REGISTRY: dict[str, Selector] = {}


def register_selector(selector: Selector) -> Selector:
    """Make a selector resolvable by name (``selector="<name>"``)."""
    for attr in ("name", "persist", "build_spmm", "build_sddmm"):
        if not hasattr(selector, attr):
            raise TypeError(
                f"selector {selector!r} does not implement the Selector "
                f"protocol (missing {attr!r})"
            )
    SELECTOR_REGISTRY[selector.name] = selector
    return selector


register_selector(HeuristicSelector())
register_selector(OracleSelector())
register_selector(TunedSelector())

def resolve_selector(selector) -> Selector:
    """Resolve a ``selector=`` argument: a registered name or a policy
    object implementing the protocol."""
    if isinstance(selector, str):
        try:
            return SELECTOR_REGISTRY[selector]
        except KeyError:
            raise ValueError(
                f"unknown selector {selector!r}; expected one of "
                f"{tuple(SELECTOR_REGISTRY)} or a Selector instance"
            ) from None
    if isinstance(selector, Selector):
        return selector
    raise ValueError(
        f"selector must be a registered name or implement the Selector "
        f"protocol, got {selector!r}"
    )
