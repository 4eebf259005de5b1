"""A small LRU cache used by the query service layer.

The eXtract demo served interactive web traffic, where the same handful of
show-case queries arrive over and over.  :class:`LRUCache` is the shared
building block for the serving caches:

* the **query-result cache** in :class:`repro.system.ExtractSystem`
  (keyed on document, normalised query, algorithm, snippet bound), and
* the **root memo** of the snippet generator's IList builder
  (:attr:`repro.snippet.ilist.IListBuilder.roots`, keyed on result root).

An entry leaves by eviction, by :meth:`LRUCache.clear`, or by not being
adopted: a text-only document update carries into the new version's
caches every entry it cannot have affected (:meth:`LRUCache.adopt`).

It is deliberately dependency-free (an ``OrderedDict`` with move-to-end
semantics) and records hit/miss/eviction counts so the cache benchmarks and
the CLI can report hit rates.  An entry may carry a weight, and the cache
bounds the summed weight of its entries: the root memo weighs a root by
its subtree nodes, so it is bounded by work rather than by roots.

The cache is **thread-safe**: every operation (including the statistics
updates) runs under one re-entrant lock, so the concurrent executor of
:mod:`repro.api` can share a cache between worker threads and still read
coherent counters (``hits + misses == lookups`` at any observation point).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

#: default capacity of the serving caches; large enough for a demo workload,
#: small enough that eviction is exercised in tests.
DEFAULT_CACHE_SIZE = 256

_MISSING = object()


@dataclass
class CacheStats:
    """Counters of one cache's lifetime activity."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} hit_rate={self.hit_rate:.2f}>"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    >>> cache = LRUCache(maxsize=2)
    >>> cache.put("a", 1); cache.put("b", 2)
    >>> cache.get("a")
    1
    >>> cache.put("c", 3)          # evicts "b", the least recently used
    >>> cache.get("b") is None
    True
    >>> cache.stats.evictions
    1

    A ``maxsize`` of 0 disables the cache entirely (every ``get`` misses,
    ``put`` is a no-op), which lets callers switch caching off without
    branching at every call site.

    ``maxsize`` bounds the summed *weight* of the entries; an entry weighs
    1 unless :meth:`put` / :meth:`setdefault` say otherwise, so by default
    it bounds their number.  An entry heavier than ``maxsize`` is never
    stored.

    All operations are serialised through one :class:`threading.RLock`, so
    concurrent readers/writers never corrupt the recency order and always
    observe coherent statistics.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 0:
            raise ValueError(f"cache maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        #: the weight of every entry that does not weigh 1 (so an
        #: unweighted cache keeps no per-entry weight)
        self._weights: dict[Hashable, int] = {}
        #: summed weight of the entries, never above ``maxsize``
        self._weight = 0
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # core mapping operations
    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used) or ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any, weight: int = 1) -> None:
        """Insert or refresh an entry of ``weight``, evicting the least
        recently used ones until the summed weight fits ``maxsize``.  An
        entry heavier than ``maxsize`` is not stored, and drops the entry
        it would have replaced."""
        if self.maxsize == 0:
            return
        with self._lock:
            entries = self._entries
            if key in entries:
                del entries[key]
                self._weight -= self._weights.pop(key, 1)
            if weight > self.maxsize:
                return
            entries[key] = value
            if weight != 1:
                self._weights[key] = weight
            self._weight += weight
            while self._weight > self.maxsize:
                evicted, _ = entries.popitem(last=False)
                self._weight -= self._weights.pop(evicted, 1)
                self.stats.evictions += 1

    def setdefault(self, key: Hashable, value: Any, weight: int = 1) -> Any:
        """The entry under ``key``, after inserting ``value`` (of ``weight``,
        as :meth:`put`) if there is none — one atomic step, so concurrent
        callers that each computed the entry all leave holding the one that
        got there first.  Counts neither a hit nor a miss: the caller's
        :meth:`get` already did.
        """
        if self.maxsize == 0:
            return value
        with self._lock:
            existing = self._entries.get(key, _MISSING)
            if existing is not _MISSING:
                self._entries.move_to_end(key)
                return existing
            self.put(key, value, weight)
            return value

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not update recency or statistics."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def weight(self) -> int:
        """The summed weight of the entries (their number when unweighted)."""
        with self._lock:
            return self._weight

    # ------------------------------------------------------------------ #
    # invalidation
    # ------------------------------------------------------------------ #
    def adopt(
        self, source: "LRUCache", keep: Callable[[Hashable, Any], bool]
    ) -> tuple[int, int]:
        """Carry the entries of ``source`` that satisfy ``keep`` into this cache.

        The selective-invalidation primitive of incremental document
        updates: the *new* (empty) cache adopts every entry of the replaced
        document's cache that the edit provably cannot affect, preserving
        recency order, and inherits the source's statistics so monitoring
        counters stay continuous across the swap — with every dropped entry
        recorded as an invalidation.  ``source`` is only read (it may still
        be serving in-flight requests) and never mutated.

        Returns ``(kept, dropped)``.  Entries are snapshotted from
        ``source`` first and inserted under this cache's lock second, so
        the two locks are never held together.
        """
        with source._lock:
            weights = source._weights
            entries = [(key, value, weights.get(key, 1)) for key, value in source._entries.items()]
            stats = source.stats_snapshot()
        kept = dropped = 0
        with self._lock:
            self.stats = stats
            for key, value, weight in entries:
                if keep(key, value):
                    self.put(key, value, weight)
                    kept += 1
                else:
                    dropped += 1
            self.stats.invalidations += dropped
        return kept, dropped

    def clear(self) -> int:
        """Drop everything; returns the number of entries removed."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._weights.clear()
            self._weight = 0
            self.stats.invalidations += count
            return count

    def stats_snapshot(self) -> CacheStats:
        """An atomic copy of the counters (safe to read while serving)."""
        with self._lock:
            return CacheStats(
                hits=self.stats.hits,
                misses=self.stats.misses,
                evictions=self.stats.evictions,
                invalidations=self.stats.invalidations,
            )

    def __repr__(self) -> str:
        with self._lock:
            size = len(self._entries)
            bound = f"{size}" if self._weight == size else f"{size} weight={self._weight}"
            return f"<LRUCache size={bound}/{self.maxsize} {self.stats!r}>"
