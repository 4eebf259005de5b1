"""Tests for the LRU cache used by the query service layer."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.utils.cache import CacheStats, LRUCache


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = LRUCache(maxsize=4)
        assert cache.get("missing") is None
        assert cache.get("missing", 42) == 42
        assert cache.stats.misses == 2

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now least recently used
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # rewrite refreshes recency and value
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert cache.get("b") is None

    def test_zero_maxsize_disables_cache(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_negative_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)

    def test_clear(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_contains_does_not_touch_stats(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.lookups == 0

    def test_repr(self):
        cache = LRUCache(maxsize=4)
        cache.put("a", 1)
        assert "size=1/4" in repr(cache)


class TestWeightedLRUCache:
    """``maxsize`` bounds the summed weight of the entries."""

    def test_eviction_by_summed_weight(self):
        cache = LRUCache(maxsize=10)
        cache.put("a", 1, weight=4)
        cache.put("b", 2, weight=4)
        assert cache.weight == 8 and len(cache) == 2
        cache.get("a")  # "b" is now least recently used
        cache.put("c", 3, weight=5)  # 13 > 10: "b" goes, 9 is left
        assert "b" not in cache and cache.get("a") == 1 and cache.get("c") == 3
        assert cache.weight == 9
        cache.put("d", 4, weight=9)  # both others go
        assert list(cache._entries) == ["d"] and cache.weight == 9
        assert cache.stats.evictions == 3

    def test_refreshing_an_entry_replaces_its_weight(self):
        cache = LRUCache(maxsize=10)
        cache.put("a", 1, weight=6)
        cache.put("a", 2, weight=2)
        cache.put("b", 3, weight=8)
        assert cache.weight == 10 and cache.get("a") == 2
        cache.put("b", 4)  # back to the default weight of 1
        assert cache.weight == 3 and cache.get("b") == 4
        assert cache.stats.evictions == 0

    def test_an_unweighted_cache_keeps_no_per_entry_weight(self):
        cache = LRUCache(maxsize=2)
        for key in "abc":
            cache.put(key, key)
        assert cache.weight == len(cache) == 2 and cache._weights == {}

    def test_an_entry_heavier_than_the_budget_is_not_stored(self):
        cache = LRUCache(maxsize=10)
        cache.put("a", 1, weight=3)
        cache.put("huge", 2, weight=11)
        assert "huge" not in cache
        assert cache.get("a") == 1 and cache.weight == 3  # nothing was evicted for it
        assert cache.stats.evictions == 0
        # ... and a heavy put under a stored key drops the stale entry
        cache.put("a", 10, weight=11)
        assert "a" not in cache and cache.weight == 0

    def test_setdefault_returns_an_entry_it_cannot_store(self):
        cache = LRUCache(maxsize=10)
        value = object()
        assert cache.setdefault("huge", value, weight=11) is value
        assert "huge" not in cache and cache.weight == 0
        assert LRUCache(maxsize=0).setdefault("a", value) is value

    def test_setdefault_honours_the_weight(self):
        cache = LRUCache(maxsize=10)
        assert cache.setdefault("a", 1, weight=7) == 1
        assert cache.setdefault("a", 2, weight=7) == 1  # the first one stays
        assert cache.weight == 7
        assert cache.setdefault("b", 3, weight=4) == 3  # evicts "a"
        assert "a" not in cache and cache.weight == 4
        assert cache.stats.evictions == 1
        assert cache.stats.lookups == 0  # setdefault counts no lookup

    def test_invalidation_and_clear_release_weight(self):
        cache = LRUCache(maxsize=10)
        cache.put("a", 1, weight=3)
        cache.put("b", 2, weight=4)
        cache.put("c", 3, weight=2)
        cache.put("a", 1)  # the same key again, at weight 1
        assert cache.weight == 7
        cache.put("c", 3, weight=11)  # too heavy to store: drops "c"
        assert "c" not in cache and cache.weight == 5
        target = LRUCache(maxsize=10)
        assert target.adopt(cache, lambda key, value: key != "b") == (1, 1)
        assert target.weight == 1 and target.stats.invalidations == 1
        assert target.clear() == 1
        assert target.weight == 0 and target.stats.invalidations == 2

    def test_adopt_carries_the_weights(self):
        source = LRUCache(maxsize=10)
        source.put("a", 1, weight=6)
        source.put("b", 2, weight=3)
        target = LRUCache(maxsize=10)
        assert target.adopt(source, lambda key, value: True) == (2, 0)
        assert target.weight == 9
        target.put("c", 3, weight=2)  # 11: "a" goes
        assert "a" not in target and target.weight == 5

    def test_repr_shows_the_weight_when_it_is_not_the_size(self):
        cache = LRUCache(maxsize=10)
        cache.put("a", 1, weight=4)
        assert "size=1 weight=4/10" in repr(cache)

    def test_summed_weight_never_exceeds_the_budget_under_threads(self):
        cache = LRUCache(maxsize=50)
        overweight: list[int] = []
        start = threading.Barrier(8)

        def work(worker: int) -> None:
            start.wait()
            for step in range(500):
                key = (worker * 7 + step) % 40
                weight = 1 + (worker + step) % 12
                if step % 3:
                    cache.put(key, step, weight=weight)
                else:
                    cache.setdefault(key, step, weight=weight)
                cache.get((key + 1) % 40)
                if step % 50 == 0:  # too heavy to store: drops the entry
                    cache.put(key, step, weight=cache.maxsize + 1)
                with cache._lock:
                    total = sum(cache._weights.get(key, 1) for key in cache._entries)
                    if total > cache.maxsize or total != cache.weight:
                        overweight.append(total)

        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert overweight == []
        assert 0 < cache.weight <= 50
        assert cache.weight == sum(cache._weights.get(key, 1) for key in cache._entries)
        assert set(cache._weights) <= set(cache._entries)
        assert cache.stats.evictions > 0
        assert cache.stats.lookups == 8 * 500


class TestCacheStats:
    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0

    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75
        assert stats.lookups == 4

    def test_as_dict(self):
        stats = CacheStats(hits=1, misses=1, evictions=2, invalidations=3)
        as_dict = stats.as_dict()
        assert as_dict["hits"] == 1
        assert as_dict["hit_rate"] == 0.5
        assert as_dict["evictions"] == 2
        assert as_dict["invalidations"] == 3
