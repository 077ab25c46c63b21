"""LRU + TTL spectrum cache with a byte budget.

Keys are the content addresses of :class:`~repro.service.requests.
SpectrumRequest`; values are per-bin spectra (numpy arrays).  Three
limits apply together:

- ``max_entries`` — LRU capacity in entry count;
- ``max_bytes`` — total stored payload (``sizeof``: array bytes plus a
  fixed per-entry bookkeeping overhead);
- ``ttl_s`` — entries older than this (in the caller's clock, virtual or
  wall) are expired on access.

Every decision increments a counter in :class:`CacheStats`, which the
service telemetry folds into its report.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.tracer import NULL_TRACER

__all__ = ["CacheStats", "SpectrumCache"]

#: Flat bookkeeping charge per entry (key, timestamps, list links).
ENTRY_OVERHEAD_BYTES = 128


@dataclass
class CacheStats:
    """Counters of every cache decision since construction."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    oversize_rejections: int = 0

    def hit_ratio(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio(),
            "insertions": self.insertions,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "oversize_rejections": self.oversize_rejections,
        }


@dataclass
class _Entry:
    value: np.ndarray
    nbytes: int
    inserted_at: float


class SpectrumCache:
    """Bounded spectrum store: LRU order, TTL expiry, byte budget."""

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: int = 32 << 20,
        ttl_s: float = float("inf"),
        tracer=None,
        track: int = 0,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        if ttl_s <= 0.0:
            raise ValueError("ttl_s must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_s = ttl_s
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.track = track
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def bytes_stored(self) -> int:
        return self._bytes

    @staticmethod
    def sizeof(value: np.ndarray) -> int:
        """Budgeted size of one entry: payload bytes + fixed overhead."""
        return int(np.asarray(value).nbytes) + ENTRY_OVERHEAD_BYTES

    # ------------------------------------------------------------------
    # The cache protocol
    # ------------------------------------------------------------------
    def get(self, key: str, now: float) -> Optional[np.ndarray]:
        """Look up ``key`` at time ``now``; None on miss or expiry."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.track, "cache.miss", cat="cache", args={"key": key[:8]}
                )
            return None
        if now - entry.inserted_at >= self.ttl_s:
            del self._entries[key]
            self._bytes -= entry.nbytes
            self.stats.expirations += 1
            self.stats.misses += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.track,
                    "cache.expired",
                    cat="cache",
                    args={"key": key[:8], "age_s": now - entry.inserted_at},
                )
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self.track, "cache.hit", cat="cache", args={"key": key[:8]}
            )
        return entry.value

    def put(self, key: str, value: np.ndarray, now: float) -> bool:
        """Insert (or refresh) an entry; False if it exceeds the budget."""
        arr = np.asarray(value)
        nbytes = self.sizeof(arr)
        if nbytes > self.max_bytes:
            self.stats.oversize_rejections += 1
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key] = _Entry(value=arr, nbytes=nbytes, inserted_at=now)
        self._bytes += nbytes
        self.stats.insertions += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self.track,
                "cache.insert",
                cat="cache",
                args={"key": key[:8], "nbytes": nbytes},
            )
        self._evict_over_budget()
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evict_over_budget(self) -> None:
        while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
            key, entry = self._entries.popitem(last=False)
            self._bytes -= entry.nbytes
            self.stats.evictions += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.track,
                    "cache.evict",
                    cat="cache",
                    args={"key": key[:8], "nbytes": entry.nbytes},
                )
