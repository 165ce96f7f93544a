"""A small LRU cache with byte-budget accounting for score vectors.

The subspace scorer (:mod:`repro.subspaces.scorer`) memoises one float64
vector of length ``n_samples`` per visited subspace. For the paper-scale
sweeps (hundreds of thousands of subspaces on 70d/100d datasets) an
unbounded dict would exhaust memory, so the cache evicts least-recently-used
entries once a configurable byte budget is exceeded.

``functools.lru_cache`` is unsuitable here because it bounds the *count* of
entries rather than their size, and because the cache must be inspectable
(hit/miss/eviction statistics feed the runtime experiments and the
:mod:`repro.obs` metrics).

A named cache additionally reports its traffic to the process-global
metrics registry as ``repro_cache_{hits,misses,evictions}_total`` with a
``cache`` label, so every instance's behaviour shows up in a
``--metrics-out`` dump without plumbing registry handles around.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, TypeVar

import numpy as np

from repro.exceptions import ValidationError
from repro.obs import metrics as obs_metrics

__all__ = ["LRUCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_UNBOUNDED = float("inf")

_OBS_HITS = obs_metrics.counter(
    "repro_cache_hits_total", "LRU cache lookups served from cache, by cache name"
)
_OBS_MISSES = obs_metrics.counter(
    "repro_cache_misses_total", "LRU cache lookups that missed, by cache name"
)
_OBS_EVICTIONS = obs_metrics.counter(
    "repro_cache_evictions_total",
    "LRU cache entries evicted over the byte budget, by cache name",
)


class LRUCache(Generic[K, V]):
    """Least-recently-used mapping bounded by an approximate byte budget.

    Thread-safe: all operations (including the hit/miss/eviction counter
    updates) run under one reentrant lock, so the cache may back the
    thread-pool execution backend's result installation without losing
    counts or corrupting the recency order.

    Parameters
    ----------
    max_bytes:
        Eviction threshold. ``None`` means unbounded.
    sizeof:
        Function estimating the size in bytes of a value. The default
        handles NumPy arrays exactly and charges a flat 64 bytes for
        anything else.
    name:
        Optional observability name. When set, hits, misses, and
        evictions are also counted on the process-global metrics registry
        under ``repro_cache_*_total{cache=name}``.
    on_evict:
        Optional callback invoked (under the cache lock — keep it cheap
        and non-reentrant) with ``(key, value)`` for every entry evicted
        over the byte budget. Explicit removals via :meth:`clear` do not
        trigger it. The distance provider uses this to count evictions
        on its process-wide metric.
    kind:
        Optional function mapping a key to its kind. When set, the cache
        keeps a live count of entries per kind, updated on every insert,
        replacement, eviction and :meth:`clear`, so :meth:`kind_counts`
        costs nothing per lookup instead of a scan over every key.
    """

    def __init__(
        self,
        max_bytes: int | None = None,
        *,
        sizeof: Callable[[V], int] | None = None,
        name: str | None = None,
        on_evict: Callable[[K, V], None] | None = None,
        kind: Callable[[K], Hashable] | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValidationError(f"max_bytes must be positive or None, got {max_bytes}")
        self._max_bytes = _UNBOUNDED if max_bytes is None else float(max_bytes)
        self._sizeof = sizeof if sizeof is not None else _default_sizeof
        self._data: OrderedDict[K, V] = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.name = name
        self._on_evict = on_evict
        self._kind = kind
        self._kinds: Counter[Hashable] = Counter()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: K) -> bool:
        with self._lock:
            return key in self._data

    @property
    def nbytes(self) -> int:
        """Approximate bytes currently held."""
        with self._lock:
            return self._bytes

    def get(self, key: K) -> V | None:
        """Return the cached value for ``key`` (marking it recently used) or ``None``."""
        with self._lock:
            if key not in self._data:
                self.misses += 1
                if self.name is not None:
                    _OBS_MISSES.inc(cache=self.name)
                return None
            self.hits += 1
            if self.name is not None:
                _OBS_HITS.inc(cache=self.name)
            self._data.move_to_end(key)
            return self._data[key]

    def put(self, key: K, value: V, *, cold: bool = False) -> None:
        """Insert ``value`` under ``key``, evicting LRU entries if over budget.

        With ``cold=True`` the insert is *opportunistic*: the entry is
        stored at the least-recently-used end only when it fits in the
        spare budget, and is silently dropped otherwise — it never evicts
        anything. Callers use this for values that are worth keeping only
        if there is room (e.g. the distance provider's leaf composed
        matrices, which must never flush the feature blocks and prefix
        matrices that every later composition builds on). A subsequent
        :meth:`get` promotes a cold entry to most-recently-used as usual.
        """
        with self._lock:
            if key in self._data:
                self._bytes -= self._sizeof(self._data[key])
                del self._data[key]
                self._count_kind(key, -1)
            size = self._sizeof(value)
            if cold and self._bytes + size > self._max_bytes:
                return
            self._data[key] = value
            self._count_kind(key, 1)
            if cold:
                self._data.move_to_end(key, last=False)
            self._bytes += size
            while self._bytes > self._max_bytes and len(self._data) > 1:
                evicted_key, evicted = self._data.popitem(last=False)
                self._bytes -= self._sizeof(evicted)
                self._count_kind(evicted_key, -1)
                self.evictions += 1
                if self.name is not None:
                    _OBS_EVICTIONS.inc(cache=self.name)
                if self._on_evict is not None:
                    self._on_evict(evicted_key, evicted)

    def get_or_compute(self, key: K, compute: Callable[[], V]) -> V:
        """Return the cached value for ``key``, computing and storing it on a miss.

        ``compute`` runs outside the lock, so concurrent callers may
        compute the same value redundantly but never deadlock through a
        reentrant ``compute``; last writer wins.
        """
        value = self.get(key)
        if value is None and key not in self:
            value = compute()
            self.put(key, value)
        return value  # type: ignore[return-value]

    def keys(self) -> list[K]:
        """Snapshot of the cached keys in LRU-to-MRU order."""
        with self._lock:
            return list(self._data)

    def items_snapshot(self) -> list[tuple[K, V]]:
        """Snapshot of ``(key, value)`` pairs in LRU-to-MRU order.

        Counter-neutral: unlike :meth:`get`, reading the snapshot touches
        neither the hit/miss statistics nor the recency order. The engine
        snapshot writer (:mod:`repro.serve.engine`) uses this so that
        persisting warm state is invisible to the cache-effectiveness
        numbers the obs layer reports.
        """
        with self._lock:
            return list(self._data.items())

    def kind_counts(self) -> dict[Hashable, int]:
        """Entries currently cached per kind (empty without ``kind=``)."""
        with self._lock:
            return {k: c for k, c in self._kinds.items() if c}

    def _count_kind(self, key: K, delta: int) -> None:
        if self._kind is not None:
            self._kinds[self._kind(key)] += delta

    def clear(self) -> None:
        """Drop all entries and reset statistics."""
        with self._lock:
            self._data.clear()
            self._kinds.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        """Snapshot of the cache's counters (the view the obs layer reads)."""
        with self._lock:
            return {
                "entries": len(self._data),
                "nbytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }


def _default_sizeof(value: object) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        # Composite entries (e.g. the distance provider's neighbour
        # sketches: an index array plus a bound vector) charge the sum of
        # their parts.
        return 64 + sum(_default_sizeof(item) for item in value)
    return 64
