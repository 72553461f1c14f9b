"""Plan identity and caching for the operator dispatch layer.

Every kernel plan in :mod:`repro.core` depends only on a matrix's *structure*
(offsets, indices, shape, value dtype) — never on its values. That makes a
plan reusable across every matrix sharing a topology: training steps that
update weight values in place, attention heads sharing one connectivity
pattern, and repeated benchmark invocations all hit the same plan.

The cache key is a :func:`matrix_fingerprint` — a content hash of the
structure arrays, memoized on the matrix — so "matrix identity" is
structural, not ``id()``-based: rebuilding an identical CSR matrix still
hits, and a topology edited in place and then ``invalidate()``-d misses
(the fingerprint changes), which is exactly the invalidation the paper's
setup/compute split requires (Section IX).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable

import numpy as np

from ..core.repair import TopologyDelta, make_delta
from ..reliability.errors import PlanCorruptionError


class _PoisonedEntry:
    """Sentinel standing in for a plan whose cached bytes were corrupted."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<poisoned plan>"


_POISONED = _PoisonedEntry()


#: Default maximum number of cached plans per context. Plans hold the
#: swizzled row order and ROMA extents (O(rows) each), so a few hundred is
#: cheap; LRU eviction bounds the worst case for benchmark sweeps.
DEFAULT_MAX_PLANS = 512


def matrix_fingerprint(matrix: Any) -> str:
    """A sparse matrix's structure identity: offsets, indices, shape, dtype.

    Values are deliberately excluded — plans are valid across value updates
    (e.g. an optimizer step on a fixed sparsity pattern). CSR and CSC
    matrices hash their structure once, at construction, so this is an
    attribute read (see :class:`~repro.sparse.csr.StructureIdentity`).
    """
    try:
        return matrix.fingerprint
    except AttributeError:
        raise TypeError(
            f"cannot fingerprint {type(matrix).__name__}: expected a CSR or "
            "CSC matrix"
        ) from None


def topology_delta(parent, child, rows: np.ndarray) -> TopologyDelta:
    """Fingerprint-aware :class:`~repro.core.repair.TopologyDelta`.

    ``rows`` is the edited row set, which every topology edit tracks
    (drop/grow updates know exactly which rows they touched). Register the
    result with a context (:meth:`ExecutionContext.register_topology_delta`)
    to make the child's plans repairable from the parent's.
    """
    return make_delta(
        parent,
        child,
        rows,
        parent_fp=matrix_fingerprint(parent),
        child_fp=matrix_fingerprint(child),
    )


class PlanCache:
    """LRU cache for kernel plans, selected configs, and cost results.

    Keys are arbitrary hashable tuples; by convention the first element is
    the op name and the second the operand fingerprint (or dense dims).

    ``on_evict(key, value)`` — when set — observes every entry leaving the
    cache (LRU overflow in :meth:`put`, explicit :meth:`evict`, and
    :meth:`clear`), so an owner charging plans against a device allocator
    can release the bytes. Poison sentinels are reported too;
    consumers must treat the value as opaque.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_PLANS) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self.on_evict: Callable[[Hashable, Any], None] | None = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Any | None:
        """Look up ``key``, refreshing its recency; ``None`` on miss.

        Raises :class:`PlanCorruptionError` if the entry was poisoned (the
        fault injector's model of corrupted cached plan state); the error
        carries the key so recovery can :meth:`evict` and re-plan.
        """
        try:
            self._entries.move_to_end(key)
        except KeyError:
            return None
        value = self._entries[key]
        if value is _POISONED:
            raise PlanCorruptionError(
                f"cached plan {key!r} failed its integrity check", key=key
            )
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert ``key``, evicting the least-recently-used entry if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            old_key, old_value = self._entries.popitem(last=False)
            if self.on_evict is not None:
                self.on_evict(old_key, old_value)

    def clear(self) -> None:
        if self.on_evict is not None:
            for key, value in list(self._entries.items()):
                self.on_evict(key, value)
        self._entries.clear()

    def evict(self, key: Hashable) -> None:
        """Drop one entry (recovery path for poisoned plans)."""
        value = self._entries.pop(key, None)
        if value is not None and self.on_evict is not None:
            self.on_evict(key, value)

    def keys(self) -> list[Hashable]:
        """Snapshot of the cached keys (LRU order, oldest first)."""
        return list(self._entries)

    def poison(self, key: Hashable) -> None:
        """Replace a cached entry with a corruption sentinel (fault
        injection only); the next :meth:`get` raises."""
        if key in self._entries:
            self._entries[key] = _POISONED
