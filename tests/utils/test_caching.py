"""Unit tests for repro.utils.caching.LRUCache."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.caching import LRUCache


class TestBasics:
    def test_put_get(self):
        cache: LRUCache[str, int] = LRUCache()
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache: LRUCache[str, int] = LRUCache()
        assert cache.get("missing") is None

    def test_get_or_compute(self):
        cache: LRUCache[str, int] = LRUCache()
        calls = []

        def compute():
            calls.append(1)
            return 7

        assert cache.get_or_compute("k", compute) == 7
        assert cache.get_or_compute("k", compute) == 7
        assert len(calls) == 1

    def test_overwrite_updates_bytes(self):
        cache: LRUCache[str, np.ndarray] = LRUCache()
        cache.put("a", np.zeros(10))
        cache.put("a", np.zeros(20))
        assert cache.nbytes == 20 * 8

    def test_clear(self):
        cache: LRUCache[str, int] = LRUCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.nbytes == 0


class TestEviction:
    def test_evicts_lru(self):
        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=200)
        cache.put("old", np.zeros(10))  # 80 bytes
        cache.put("new", np.zeros(10))
        cache.get("old")  # old is now most recently used
        cache.put("extra", np.zeros(10))  # exceeds 200 -> evict "new"
        assert "old" in cache
        assert "new" not in cache
        assert "extra" in cache

    def test_keeps_at_least_one_entry(self):
        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=8)
        cache.put("huge", np.zeros(100))
        assert "huge" in cache

    def test_invalid_budget(self):
        with pytest.raises(ValidationError):
            LRUCache(max_bytes=0)

    def test_kind_counts_track_insert_replace_evict_and_clear(self):
        cache: LRUCache[tuple, np.ndarray] = LRUCache(
            max_bytes=240, kind=lambda key: key[0]
        )
        cache.put(("a", 0), np.zeros(10))  # 80 bytes each
        cache.put(("a", 1), np.zeros(10))
        cache.put(("a", 1), np.zeros(10))  # replacement: still one entry
        cache.put(("b", 0), np.zeros(10))
        assert cache.kind_counts() == {"a": 2, "b": 1}
        cache.put(("b", 1), np.zeros(10))  # evicts ("a", 0)
        assert cache.kind_counts() == {"a": 1, "b": 2}
        cache.put(("a", 1), np.zeros(40), cold=True)  # dropped: no room
        assert cache.kind_counts() == {"b": 2}
        cache.clear()
        assert cache.kind_counts() == {}
        assert LRUCache(max_bytes=100).kind_counts() == {}


class TestStatistics:
    def test_eviction_counter_under_byte_pressure(self):
        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=200)
        for i in range(6):
            cache.put(f"k{i}", np.zeros(10))  # 80 bytes each, budget fits 2
        assert len(cache) == 2
        assert cache.evictions == 4

    def test_stats_snapshot_under_pressure(self):
        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=200)
        cache.put("a", np.zeros(10))
        cache.put("b", np.zeros(10))
        cache.get("a")  # hit
        cache.get("zzz")  # miss
        cache.put("c", np.zeros(10))  # evicts "b" (LRU)
        stats = cache.stats()
        assert stats == {
            "entries": 2,
            "nbytes": 160,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "hit_rate": pytest.approx(0.5),
        }

    def test_overwrite_is_not_an_eviction(self):
        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=200)
        cache.put("a", np.zeros(10))
        cache.put("a", np.zeros(10))
        assert cache.evictions == 0

    def test_clear_resets_evictions(self):
        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=100)
        cache.put("a", np.zeros(10))
        cache.put("b", np.zeros(10))
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0

    def test_named_cache_reports_obs_counters(self):
        from repro.obs import metrics as obs_metrics

        hits = obs_metrics.counter("repro_cache_hits_total")
        misses = obs_metrics.counter("repro_cache_misses_total")
        evictions = obs_metrics.counter("repro_cache_evictions_total")
        label = "test_caching_named"
        hits0 = hits.value(cache=label)
        misses0 = misses.value(cache=label)
        evictions0 = evictions.value(cache=label)

        cache: LRUCache[str, np.ndarray] = LRUCache(max_bytes=200, name=label)
        cache.put("a", np.zeros(10))
        cache.get("a")
        cache.get("missing")
        cache.put("b", np.zeros(10))
        cache.put("c", np.zeros(10))  # over budget -> evict

        assert hits.value(cache=label) == hits0 + 1
        assert misses.value(cache=label) == misses0 + 1
        assert evictions.value(cache=label) == evictions0 + 1

    def test_unnamed_cache_stays_out_of_obs(self):
        from repro.obs import metrics as obs_metrics

        hits = obs_metrics.counter("repro_cache_hits_total")
        before = dict(hits.samples())
        cache: LRUCache[str, int] = LRUCache()
        cache.put("a", 1)
        cache.get("a")
        assert dict(hits.samples()) == before

    def test_hit_rate(self):
        cache: LRUCache[str, int] = LRUCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert LRUCache().hit_rate == 0.0

    def test_custom_sizeof(self):
        cache: LRUCache[str, str] = LRUCache(max_bytes=10, sizeof=len)
        cache.put("a", "xxxx")
        cache.put("b", "yyyyyy")
        assert cache.nbytes <= 10


class TestThreadSafety:
    """The scorer installs batch results from worker threads; the cache
    must survive concurrent mixed traffic without corrupting its byte
    accounting or statistics."""

    def test_concurrent_put_get_consistent(self):
        import threading

        cache: LRUCache[int, np.ndarray] = LRUCache(max_bytes=512 * 80)
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def worker(offset: int) -> None:
            try:
                barrier.wait()
                for i in range(200):
                    key = (offset * 200 + i) % 100
                    cache.put(key, np.full(8, key, dtype=np.float64))
                    got = cache.get(key)
                    # Another thread may have evicted it, but a present
                    # value must be the right one.
                    if got is not None:
                        assert got[0] == key
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # Accounting must match the surviving entries exactly.
        assert cache.nbytes == sum(
            v.nbytes for v in cache._data.values()
        )
        assert len(cache) == len(cache._data)
        assert cache.hits + cache.misses == 4 * 200

    def test_concurrent_eviction_keeps_budget(self):
        import threading

        cache: LRUCache[int, np.ndarray] = LRUCache(max_bytes=10 * 80)
        barrier = threading.Barrier(4)

        def hammer(offset: int) -> None:
            barrier.wait()
            for i in range(300):
                cache.put(offset * 1000 + i, np.zeros(8))

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.nbytes <= 10 * 80
        assert cache.stats()["evictions"] > 0

    def test_get_or_compute_concurrent_last_writer_wins(self):
        import threading

        cache: LRUCache[str, int] = LRUCache()
        barrier = threading.Barrier(8)
        seen: list[int] = []

        def compute_slot(value: int) -> None:
            barrier.wait()
            seen.append(cache.get_or_compute("slot", lambda: value))

        threads = [
            threading.Thread(target=compute_slot, args=(v,)) for v in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Redundant computes are allowed; the cached value must be one of
        # the computed ones and reads must never see a torn state.
        assert cache.get("slot") in range(8)
        assert len(seen) == 8
