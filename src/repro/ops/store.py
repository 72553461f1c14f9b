"""Disk-backed store of decisions that are expensive to recompute.

Kernel plans are not persisted: everything in an
:class:`~repro.core.spmm.SpmmPlan` (and friends) follows from a matrix's
memoized structure analysis, the kernel config and the device, so an
in-process :class:`~repro.ops.plans.PlanCache` miss rebuilds it about as
fast as a pickle would load. What a :class:`PlanStore` keeps across
processes and runs is what costs a search or a measurement:

- searched configs: the :class:`~repro.tune.TuningResult` of the oracle and
  tuned selectors, under selector-qualified ``(device, "spmm_config", ...)``
  keys (see ``ExecutionContext._select_config``);
- finished sweep rows, under ``("sweep_row", ...)`` keys written by
  :mod:`repro.bench.sweep`, so a warm re-run skips even matrix
  materialization.

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
  locks (last writer wins; all writers produce identical values anyway).

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
from typing import Any

#: Bump to invalidate every persisted entry when a stored value or its key
#: changes shape. The store holds searched configs (``TuningResult``) and
#: sweep rows; plans are rebuilt in memory, so a plan-field change no
#: longer bumps it. Versions 1-9 tracked the plan envelopes the store held
#: until then (v9: every plan key carried the stack depth ``h``).
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
    """A directory of pickled entries (searched configs, sweep rows).

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

    def save(self, key: Any, value: Any) -> Path:
        """Persist ``value`` under ``key`` (atomic, concurrency-safe)."""
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        envelope = {
            "magic": _MAGIC,
            "version": self.version,
            "key": repr(key),
            "checksum": hashlib.blake2b(payload, digest_size=16).hexdigest(),
            "payload": payload,
        }
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
