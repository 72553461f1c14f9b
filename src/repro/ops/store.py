"""Disk-backed persistent plan store.

Plans in this codebase are pure derived state: everything in an
:class:`~repro.core.spmm.SpmmPlan` (and friends) follows deterministically
from a matrix's *structure*, the kernel config, and the device. An
in-process :class:`~repro.ops.plans.PlanCache` already amortizes planning
within one process; the :class:`PlanStore` extends that across processes and
runs — a corpus sweep's worker pool shares one store directory, and a warm
re-run skips ``_analyze`` (and even matrix materialization, for the sweep's
result-level entries) entirely.

On-disk format (one file per entry, named by a blake2b digest of the key):

- a pickled *envelope* dict: magic tag, store format version, the ``repr``
  of the logical key, a blake2b checksum of the payload bytes, and the
  pickled payload itself.
- loads verify magic, version, key repr, and checksum before unpickling the
  payload; any mismatch or exception counts as a corrupt entry, which is
  evicted (unlinked) and reported as a miss — a corrupted store can only
  cost recomputation, never wrong results.
- writes go to a temp file in the store directory followed by an atomic
  :func:`os.replace`, so concurrent sweep workers can share a store without
  locks (last writer wins; all writers produce identical bytes-equivalent
  plans anyway).

Keys are tuples of ``repr``-stable values (strings, ints, frozen dataclass
configs, :class:`~repro.gpu.device.DeviceSpec`); the digest covers the full
``repr`` plus the format version, so a version bump invalidates every
existing entry.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Bump to invalidate every persisted plan (e.g. when a plan dataclass or
#: the cost model changes shape). v2: ExecutionResult grew the per-launch
#: ``phases`` attribution, so v1 pickles would deserialize without it.
#: v3: the batched-plan envelope (SpmmBatchedPlan/SddmmBatchedPlan/
#: SparseSoftmaxBatchedPlan with z-scaled launches and batch-size keys) —
#: stale v2 pickles must self-heal rather than deserialize into the new
#: batched execute signatures.
#: v4: tuned selection persists whole ``repro.tune.TuningResult`` envelopes
#: (config + search stats) under selector-qualified config keys — v3
#: pickles of bare configs would miss the search metadata readers now
#: unwrap.
#: v5: multi-GPU sharding persists ``repro.dist.ShardPlan`` envelopes
#: (per-device row assignments, column ranges, and load accounting) under
#: ``("shard_plan", ...)`` keys — older stores know nothing of the key
#: family and must not serve stale entries to the sharded dispatch path.
#: v6: dynamic-sparsity plan repair — plan dataclasses grew repair state
#: (a per-column histogram on SpmmPlan/SddmmPlan, ``SddmmPlan.row_order``,
#: ``ShardPlan.row_order``) and envelopes carry an optional repair
#: ``lineage`` record, so v5 pickles would deserialize without the state
#: the repair path then maintained incrementally.
#: v7: the stack depth ``h`` became a field of SpmmPlan/SddmmPlan/
#: SparseSoftmaxPlan and the three ``*BatchedPlan`` classes are gone, so v6
#: pickles of batched plans name classes that no longer exist.
#: v8: repair rebuilds from the child's memoized analysis, so SpmmPlan and
#: SddmmPlan lost their per-column histogram field. A v7 repaired plan
#: would unpickle still carrying that histogram, and ``estimate_nbytes``
#: (which walks ``__dict__``) would charge it bytes a fresh plan does not
#: hold.
#: v9: the stacked ops are the depth of the single ones, so every kernel
#: plan key carries ``h`` (``("spmm", fp, n, h, config)``) and the
#: ``*_batched`` key families are gone; v8 keys would never be asked for
#: again.
PLAN_STORE_VERSION = 9

#: Magic tag identifying a plan-store envelope.
_MAGIC = "repro-plan-store"

#: File suffix of store entries.
_SUFFIX = ".plan"


@dataclass
class StoreStats:
    """Running counters for one :class:`PlanStore` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Corrupt/incompatible entries deleted during a load.
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanStore:
    """A directory of pickled plan entries keyed by structure fingerprints.

    ``version`` defaults to :data:`PLAN_STORE_VERSION`; passing a different
    value (tests, forced invalidation) makes every entry written under
    another version unreadable — reads treat it as a miss without evicting,
    so two versions can share a directory during a migration.
    """

    def __init__(
        self, root: str | Path, version: int = PLAN_STORE_VERSION
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.version = int(version)
        self.stats = StoreStats()

    def __repr__(self) -> str:
        return (
            f"PlanStore(root={str(self.root)!r}, version={self.version}, "
            f"entries={len(self)})"
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_SUFFIX}"))

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    def key_digest(self, key: Any) -> str:
        """Stable content digest of a logical key (+ format version)."""
        h = hashlib.blake2b(digest_size=20)
        h.update(_MAGIC.encode())
        h.update(str(self.version).encode())
        h.update(repr(key).encode())
        return h.hexdigest()

    def path_for(self, key: Any) -> Path:
        return self.root / (self.key_digest(key) + _SUFFIX)

    def __contains__(self, key: Any) -> bool:
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Load / save
    # ------------------------------------------------------------------
    def fetch(self, key: Any) -> tuple[Any | None, str]:
        """Look up ``key``; returns ``(value, status)``.

        ``status`` is ``"hit"``, ``"miss"``, or ``"corrupt"`` (the entry
        existed but failed validation and was evicted). Corrupt entries
        count as both an eviction and a miss in :attr:`stats`.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None, "miss"
        try:
            envelope = pickle.loads(blob)
            if (
                not isinstance(envelope, dict)
                or envelope.get("magic") != _MAGIC
                or envelope.get("version") != self.version
                or envelope.get("key") != repr(key)
            ):
                raise ValueError("envelope mismatch")
            payload = envelope["payload"]
            digest = hashlib.blake2b(payload, digest_size=16).hexdigest()
            if digest != envelope.get("checksum"):
                raise ValueError("payload checksum mismatch")
            value = pickle.loads(payload)
        except Exception:
            # Truncated write, bit rot, version skew inside the pickle, a
            # hash collision with a different key — all recover the same
            # way: drop the entry and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            self.stats.evictions += 1
            self.stats.misses += 1
            return None, "corrupt"
        self.stats.hits += 1
        return value, "hit"

    def load(self, key: Any) -> Any | None:
        """Value for ``key``, or ``None`` on miss/corruption."""
        value, _ = self.fetch(key)
        return value

    def save(
        self, key: Any, value: Any, lineage: dict | None = None
    ) -> Path:
        """Persist ``value`` under ``key`` (atomic, concurrency-safe).

        ``lineage`` optionally records how a *repaired* plan came to be
        (parent/child fingerprints, edited-row count): it rides in the
        envelope for post-mortem inspection via :meth:`lineage` but plays
        no part in validation — a repaired plan is bit-identical to a cold
        one, so readers never need to care.
        """
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "magic": _MAGIC,
            "version": self.version,
            "key": repr(key),
            "checksum": hashlib.blake2b(payload, digest_size=16).hexdigest(),
            "payload": payload,
        }
        if lineage is not None:
            envelope["lineage"] = dict(lineage)
        path = self.path_for(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(pickle.dumps(envelope, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        return path

    def lineage(self, key: Any) -> dict | None:
        """Repair-lineage record of an entry, or ``None``.

        ``None`` means the entry is absent, unreadable, or was written by
        a cold build; only plans persisted by the repair path carry one.
        """
        path = self.path_for(key)
        try:
            envelope = pickle.loads(path.read_bytes())
        except Exception:
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("magic") != _MAGIC
            or envelope.get("version") != self.version
            or envelope.get("key") != repr(key)
        ):
            return None
        lineage = envelope.get("lineage")
        return dict(lineage) if isinstance(lineage, dict) else None

    def get_or_build(
        self, key: Any, build: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(value, was_hit)``, building and persisting on a miss."""
        value, status = self.fetch(key)
        if status == "hit":
            return value, True
        value = build()
        self.save(key, value)
        return value, False

    def evict(self, key: Any) -> None:
        """Drop one entry (missing is a no-op)."""
        try:
            self.path_for(key).unlink()
            self.stats.evictions += 1
        except OSError:
            pass

    def clear(self) -> None:
        """Delete every entry in the store directory."""
        for path in self.root.glob(f"*{_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass

    def reset_stats(self) -> None:
        self.stats = StoreStats()
