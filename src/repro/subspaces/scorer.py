"""Subspace scoring with memoisation — the testbed's performance backbone.

Every explainer follows the same inner loop: project the dataset onto a
candidate subspace, run a detector on the projection, and read off either
one point's (standardised) score or the scores of a set of outliers. The
detectors score *all* points of a projection in one call, and the
explainers revisit subspaces heavily (Beam revisits per explained point;
LookOut scores every point in every enumerated subspace; experiment sweeps
revisit across explanation dimensionalities), so :class:`SubspaceScorer`
memoises the full score vector per (detector, subspace).

The scorer is **batch-first**: explainer stages hand whole candidate
batches to :meth:`SubspaceScorer.scores_many`, which partitions them into
cache hits and misses and evaluates all misses in one wave through an
:class:`~repro.exec.ExecutionBackend` (serial, thread, or process — see
:func:`repro.exec.resolve_backend`). Batching never changes *what* is
computed — candidate visit order, cache-counter semantics, and the
returned values are identical across backends — only how the independent
misses are evaluated. Cached vectors are frozen
(``writeable = False``) so an accidental mutation raises instead of
silently corrupting every later lookup.

Neighbourhood detectors (LOF, Fast ABOD, k-NN — they set
``uses_knn_queries``) are additionally served by the shared distance
substrate (:mod:`repro.neighbors.provider`): the scorer attaches the
process-wide :class:`~repro.neighbors.DistanceProvider` for its dataset
fingerprint, and each cache-miss task asks it for the subspace's exact
k nearest neighbours, composed from cached per-feature blocks instead of
recomputed from the projection. Explainer stage loops pass ``parents=``
hints that anchor the provider's neighbour sketches and seed its
compositions. The provider's canonical composition order keeps
scores byte-identical across backends and cache states; with
``REPRO_DIST_CACHE_MB=0`` the substrate is off and every miss takes the
direct-projection path.

An exhaustive search, which scores every subspace once, calls
:meth:`SubspaceScorer.walk` instead: one backend task per first feature
walks the provider's prefix lattice, so each subspace's distances are
its parent's plus one block, and no score vector is memoised.

The z-score standardisation applied by :meth:`point_zscore` implements the
paper's dimensionality-bias correction (Section 2.2):

    score'(p_s) = (score(p_s) - mean(score_s)) / sqrt(Var(score_s))
"""

from __future__ import annotations

import threading
import time
from collections.abc import Generator, Iterable, Sequence

import numpy as np

from repro.detectors.base import Detector
from repro.exceptions import ValidationError
from repro.exec import ExecutionBackend, resolve_backend
from repro.neighbors.provider import DistanceProvider, prefix_walk, shared_provider
from repro.obs import metrics as obs_metrics
from repro.shm import plane as _shm
from repro.stats.zscore import zscores
from repro.subspaces.subspace import Subspace, as_subspace, project
from repro.utils.caching import LRUCache
from repro.utils.validation import check_matrix, check_positive_int

__all__ = ["SubspaceScorer"]

#: Default cache budget: 256 MiB of float64 score vectors.
_DEFAULT_CACHE_BYTES = 256 * 1024 * 1024

_CACHE_HITS = obs_metrics.counter(
    "repro_scorer_cache_hits_total",
    "Subspace score lookups served from the scorer's memo cache",
)
_CACHE_MISSES = obs_metrics.counter(
    "repro_scorer_cache_misses_total",
    "Subspace score lookups that ran the detector",
)
_SUBSPACES_SCORED = obs_metrics.counter(
    "repro_scorer_subspaces_scored_total",
    "Detector invocations that actually ran, by detector",
)
_BATCH_MISSES = obs_metrics.histogram(
    "repro_scorer_batch_misses",
    "Cache misses per scores_many batch (the dispatched wave size)",
    buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0),
)


def _score_subspace_task(
    payload: tuple[np.ndarray, Detector, "DistanceProvider | None"],
    item: tuple[tuple[int, ...], tuple[int, ...] | None],
) -> np.ndarray:
    """One cache miss: score the projection onto a subspace.

    Module-level so the process backend can pickle it; ``payload`` is the
    shared read-only ``(X, detector, provider)`` triple shipped once per
    worker (the provider pickles without its cache — a process worker
    rebuilds feature blocks lazily and, by the provider's canonical
    composition order, reproduces bit-identical distances). ``item`` is
    ``(features, parent_hint)``.
    """
    X, detector, provider = payload
    features, parent = item
    if provider is not None and provider.covers(features):
        knn = provider.knn_view(features, parent=parent)
        return detector.score(project(X, features), knn=knn)
    return detector.score(project(X, features))


def _walk_task(
    payload: tuple[np.ndarray, Detector, "DistanceProvider | None"],
    item: tuple[int, tuple[int, ...]],
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """One branch of the lattice walk: every subspace starting at ``first``.

    ``item`` is ``(first, dimensionalities)``. Walks the branch in
    lexicographic order up to the largest dimensionality and scores the
    subspaces whose size was asked for: from the walk's composed matrix
    when the provider covers the subspace, else by the direct path, the
    same predicate :func:`_score_subspace_task` applies.
    """
    X, detector, provider = payload
    first, dims = item
    if provider is None:
        walk = ((s, None) for s in prefix_walk(X.shape[1], first, dims[-1]))
    else:
        walk = provider.walk(first, dims[-1])
    scored = []
    for s, matrix in walk:
        if len(s) not in dims:
            continue
        if matrix is None:
            scores = detector.score(project(X, s))
        else:
            knn = provider.knn_view(s, matrix=matrix)  # type: ignore[union-attr]
            scores = detector.score(project(X, s), knn=knn)
        scored.append((s, scores))
    return scored


class SubspaceScorer:
    """Caches detector score vectors per subspace of one dataset.

    Parameters
    ----------
    X:
        The dataset, shape ``(n_samples, n_features)``.
    detector:
        Any :class:`~repro.detectors.Detector`. Its
        :meth:`~repro.detectors.Detector.cache_key` co-keys the cache, so a
        single scorer may be shared across detectors only by constructing
        one scorer per detector (the usual pattern).
    max_cache_bytes:
        Byte budget for memoised score vectors (default 256 MiB);
        least-recently-used vectors are evicted beyond it.
    backend:
        How cache-miss waves are evaluated: an
        :class:`~repro.exec.ExecutionBackend`, a backend name
        (``"serial"`` / ``"thread"`` / ``"process"``), or ``None`` to
        resolve from the ``REPRO_BACKEND`` environment variable (default
        serial). All backends produce identical results; see
        ``docs/ARCHITECTURE.md`` for how to pick one.
    distance_provider:
        The distance substrate serving neighbourhood detectors. ``None``
        (default) attaches the process-wide shared provider for this
        dataset when the detector sets ``uses_knn_queries``
        (no-op otherwise, and disabled by ``REPRO_DIST_CACHE_MB=0``);
        ``False`` forces the direct-projection path; an explicit
        :class:`~repro.neighbors.DistanceProvider` instance is used as
        given.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.detectors import LOF
    >>> X = np.vstack([np.random.default_rng(0).normal(size=(64, 3)),
    ...                [[6.0, 6.0, 6.0]]])
    >>> scorer = SubspaceScorer(X, LOF(k=5))
    >>> scorer.point_zscore((0, 1), 64) > 2.0
    True
    >>> scorer.n_evaluations
    1
    """

    def __init__(
        self,
        X: np.ndarray,
        detector: Detector,
        *,
        max_cache_bytes: int | None = _DEFAULT_CACHE_BYTES,
        backend: "str | ExecutionBackend | None" = None,
        distance_provider: "DistanceProvider | bool | None" = None,
    ) -> None:
        if not isinstance(detector, Detector):
            raise ValidationError(
                f"detector must be a repro Detector, got {type(detector).__name__}"
            )
        self.X = check_matrix(X, name="X", min_rows=2)
        self.detector = detector
        self._detector_key = detector.cache_key()
        self._cache: LRUCache[tuple, np.ndarray] = LRUCache(
            max_cache_bytes, name="scorer"
        )
        self._backend = resolve_backend(backend)
        if distance_provider is None:
            self._provider = (
                shared_provider(self.X)
                if detector.uses_knn_queries
                else None
            )
        elif distance_provider is False:
            self._provider = None
        elif isinstance(distance_provider, DistanceProvider):
            self._provider = distance_provider
        else:
            raise ValidationError(
                "distance_provider must be a DistanceProvider, False, or "
                f"None, got {type(distance_provider).__name__}"
            )
        # Stable payload object so the process backend ships the dataset
        # once per worker and reuses its pool across waves.
        self._payload = (self.X, self.detector, self._provider)
        self._lock = threading.RLock()
        self._n_evaluations = 0
        self._detector_seconds = 0.0
        self._detector_cpu_seconds = 0.0

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend evaluating this scorer's cache misses."""
        return self._backend

    @property
    def n_samples(self) -> int:
        """Number of points in the dataset."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of features in the dataset."""
        return self.X.shape[1]

    @property
    def n_evaluations(self) -> int:
        """How many detector invocations actually ran (cache misses and
        subspaces scored by :meth:`walk`)."""
        return self._n_evaluations

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of subspace lookups served from cache."""
        return self._cache.hit_rate

    @property
    def cache_stats(self) -> dict[str, int | float]:
        """Hit/miss/eviction counters of the memo cache (obs snapshot)."""
        return self._cache.stats()

    @property
    def cache_nbytes(self) -> int:
        """Approximate bytes held by the memoised score vectors.

        The warm-state pool (:class:`repro.serve.engine.ExplainEngine`)
        charges each pooled scorer by this number when enforcing its byte
        budget.
        """
        return self._cache.nbytes

    @property
    def distance_provider(self) -> "DistanceProvider | None":
        """The attached distance substrate, or ``None`` when disabled."""
        return self._provider

    @property
    def distance_stats(self) -> dict[str, int | float] | None:
        """Counters of the distance substrate (``None`` when disabled)."""
        return None if self._provider is None else self._provider.stats()

    def prewarm_shared(self, features: "Iterable[int] | None" = None) -> int:
        """Warm per-feature distance blocks and publish them for workers.

        Materialises the substrate's per-feature f32 blocks (all features
        by default), then — when the shared-memory plane is enabled and
        this scorer dispatches through the process backend — publishes
        the dataset matrix and every warm block so pool workers attach
        read-only views of the same bits instead of recomputing blocks
        per worker. Publication is idempotent and the backend's payload
        lease keeps the segments alive for the pool's lifetime; the call
        is warm-blocks-only for serial/thread backends (which share
        memory anyway) and a no-op without a distance substrate.

        Returns the number of blocks materialised by this call.
        """
        if self._provider is None:
            return 0
        warmed = self._provider.warm_blocks(features)
        if self._backend.name == "process" and _shm.shm_enabled():
            self._provider.publish_shared()
        return warmed

    @property
    def detector_seconds(self) -> float:
        """Cumulative wall-clock seconds spent evaluating cache misses.

        The pipeline diffs this across a run to split a cell's cost into
        detector time vs. explainer search overhead — the breakdown the
        paper's Section 4.3 runtime analysis reasons about. With a
        parallel backend this is the *wall-clock* of the dispatched waves,
        i.e. what the caller actually waited for.
        """
        return self._detector_seconds

    @property
    def detector_cpu_seconds(self) -> float:
        """Cumulative CPU seconds of this process spent in miss waves.

        Unlike :attr:`detector_seconds` (wall-clock waited), this is
        ``time.process_time`` — CPU actually burned here. Under a thread
        backend it exceeds per-wave wall time when waves parallelise;
        under a process backend workers' CPU is *not* included (it is
        spent in other processes), so a large wall/CPU gap is the
        signature of work having been shipped out.
        """
        return self._detector_cpu_seconds

    # ------------------------------------------------------------------
    # Batch-first core.
    # ------------------------------------------------------------------

    def scores_many(
        self,
        subspaces: Sequence[Iterable[int]],
        *,
        parents: "Sequence[Iterable[int] | None] | None" = None,
    ) -> list[np.ndarray]:
        """Raw detector scores for a whole batch of subspaces (cached).

        Partitions the batch into cache hits and misses, evaluates all
        misses in one wave through the execution backend, installs the
        results, and returns one (read-only, cached) score vector per
        input subspace, in input order. Duplicate subspaces within the
        batch are evaluated once; the duplicates count as cache hits,
        matching a scalar lookup loop exactly.

        ``parents`` optionally aligns one parent-subspace hint (or
        ``None``) with each candidate: stage-wise explainers pass the seed
        a candidate was grown from, and the distance substrate extends the
        parent's cached matrix by one block addition. Hints are purely
        advisory — they never change any score value.
        """
        subs = [
            as_subspace(s).validate_against(self.n_features) for s in subspaces
        ]
        if parents is not None and len(parents) != len(subs):
            raise ValidationError(
                f"parents must align with subspaces: got {len(parents)} "
                f"hints for {len(subs)} subspaces"
            )
        if not subs:
            return []
        out: list[np.ndarray | None] = [None] * len(subs)
        # Positions awaiting each missed key, in first-occurrence order.
        pending: dict[tuple, list[int]] = {}
        miss_items: list[tuple[tuple[int, ...], tuple[int, ...] | None]] = []
        with self._lock:
            for i, s in enumerate(subs):
                key = (self._detector_key, tuple(s))
                if key in pending:
                    pending[key].append(i)
                    continue
                cached = self._cache.get(key)
                if cached is not None:
                    _CACHE_HITS.inc()
                    out[i] = cached
                else:
                    _CACHE_MISSES.inc()
                    pending[key] = [i]
                    parent = parents[i] if parents is not None else None
                    miss_items.append(
                        (tuple(s), tuple(parent) if parent is not None else None)
                    )
            _BATCH_MISSES.observe(len(miss_items))
        if miss_items:
            started = time.perf_counter()
            cpu_started = time.process_time()
            wave = self._backend.map_ordered(
                _score_subspace_task, miss_items, payload=self._payload
            )
            cpu_elapsed = time.process_time() - cpu_started
            elapsed = time.perf_counter() - started
            with self._lock:
                self._detector_seconds += elapsed
                self._detector_cpu_seconds += cpu_elapsed
                for (key, positions), scores in zip(pending.items(), wave):
                    scores = np.asarray(scores, dtype=np.float64)
                    # Freeze before caching: every consumer reads the same
                    # instance, so mutation must raise, not corrupt.
                    scores.flags.writeable = False
                    self._cache.put(key, scores)
                    self._n_evaluations += 1
                    _SUBSPACES_SCORED.inc(detector=self.detector.name)
                    out[positions[0]] = scores
                    for extra in positions[1:]:
                        # Scalar-loop semantics: within-batch duplicates
                        # are served from cache (and counted as hits).
                        got = self._cache.get(key)
                        _CACHE_HITS.inc()
                        out[extra] = scores if got is None else got
        return out  # type: ignore[return-value]

    def walk(
        self, dimensionalities: Iterable[int]
    ) -> Generator[tuple[tuple[int, ...], np.ndarray], None, None]:
        """Raw scores of every subspace whose size is in ``dimensionalities``.

        One backend task per first feature walks that branch of the
        subspace lattice (:meth:`DistanceProvider.walk
        <repro.neighbors.DistanceProvider.walk>`) and returns its
        ``(subspace, scores)`` pairs, which arrive branch by branch as
        tasks complete, lexicographic within a branch. Each sorted
        subspace appears once, with the bits :meth:`scores` would return,
        but nothing is memoised and no lookup counts as a hit or a miss;
        each counts in :attr:`n_evaluations` and
        ``repro_scorer_subspaces_scored_total``. Dimensionalities are
        validated before any task is dispatched.
        """
        dims = tuple(
            sorted(
                {check_positive_int(m, name="dimensionality") for m in dimensionalities}
            )
        )
        if dims and dims[-1] > self.n_features:
            raise ValidationError(
                f"dimensionality {dims[-1]} exceeds dataset width {self.n_features}"
            )
        # A branch holds subspaces of at least dims[0] features only when
        # enough features follow its first one.
        firsts = range(self.n_features - dims[0] + 1) if dims else ()
        return self._walk([(first, dims) for first in firsts])

    def _walk(
        self, items: list[tuple[int, tuple[int, ...]]]
    ) -> Generator[tuple[tuple[int, ...], np.ndarray], None, None]:
        for _, scored in self._backend.map_completed(
            _walk_task, items, payload=self._payload
        ):
            with self._lock:
                self._n_evaluations += len(scored)
            _SUBSPACES_SCORED.inc(len(scored), detector=self.detector.name)
            yield from scored

    def point_zscores_many(
        self,
        subspaces: Sequence[Iterable[int]],
        point: int,
        *,
        parents: "Sequence[Iterable[int] | None] | None" = None,
    ) -> np.ndarray:
        """Standardised score of one point across a batch of subspaces.

        This is the quantity Beam and RefOut rank a stage's candidates
        by; one call evaluates the whole stage in a single backend wave.
        """
        point = self._check_point(point)
        vectors = self.scores_many(subspaces, parents=parents)
        out = np.empty(len(vectors), dtype=np.float64)
        for i, scores in enumerate(vectors):
            std = scores.std()
            if std == 0.0 or not np.isfinite(std):
                out[i] = 0.0
            else:
                out[i] = (scores[point] - scores.mean()) / std
        return out

    def points_zscores_many(
        self,
        subspaces: Sequence[Iterable[int]],
        points: Iterable[int],
        *,
        parents: "Sequence[Iterable[int] | None] | None" = None,
    ) -> np.ndarray:
        """Standardised scores of several points across a batch of subspaces.

        Returns an array of shape ``(len(subspaces), len(points))`` —
        LookOut's utility matrix is its transpose.
        """
        idx = [self._check_point(p) for p in points]
        vectors = self.scores_many(subspaces, parents=parents)
        out = np.empty((len(vectors), len(idx)), dtype=np.float64)
        for i, scores in enumerate(vectors):
            out[i, :] = zscores(scores)[idx]
        return out

    # ------------------------------------------------------------------
    # Scalar views (thin wrappers over the batch core).
    # ------------------------------------------------------------------

    def scores(self, subspace: Iterable[int]) -> np.ndarray:
        """Raw detector scores of all points in ``subspace`` (cached).

        The returned array is the cached instance and is read-only
        (``writeable=False``); mutating it raises.
        """
        return self.scores_many([subspace])[0]

    def zscores(self, subspace: Iterable[int]) -> np.ndarray:
        """Standardised scores of all points in ``subspace``."""
        return zscores(self.scores(subspace))

    def point_score(self, subspace: Iterable[int], point: int) -> float:
        """Raw detector score of one point in ``subspace``."""
        return float(self.scores(subspace)[self._check_point(point)])

    def point_zscore(self, subspace: Iterable[int], point: int) -> float:
        """Standardised (z-) score of one point in ``subspace``.

        This is the quantity Beam and RefOut rank subspaces by.
        """
        return float(self.point_zscores_many([subspace], point)[0])

    def points_zscores(
        self, subspace: Iterable[int], points: Iterable[int]
    ) -> np.ndarray:
        """Standardised scores of several points in ``subspace``."""
        return self.points_zscores_many([subspace], points)[0]

    # ------------------------------------------------------------------
    # Warm-state transfer (engine snapshot/restore).
    # ------------------------------------------------------------------

    def export_cache(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """Memoised ``(subspace, score vector)`` pairs in LRU-to-MRU order.

        Counter-neutral: exporting touches neither the hit/miss counters
        nor the recency order, so a snapshot taken between requests leaves
        every statistic exactly as a snapshot-free run would. Vectors are
        the cached read-only instances — callers serialise, they must not
        mutate.
        """
        with self._lock:
            return [
                (key[1], scores)
                for key, scores in self._cache.items_snapshot()
                if key[0] == self._detector_key
            ]

    def import_cache(
        self, entries: Iterable[tuple[Iterable[int], np.ndarray]]
    ) -> int:
        """Install pre-computed score vectors, bypassing the miss path.

        The restore half of :meth:`export_cache`: each entry is validated
        against this scorer's dataset shape, frozen, and installed under
        the scorer's own detector key — without incrementing misses or
        :attr:`n_evaluations`. A restored worker therefore serves warm
        lookups while its evaluation counter stays 0, which is exactly how
        the cluster kill-drill proves "no cold recompute after restore".
        Returns the number of vectors installed.
        """
        installed = 0
        with self._lock:
            for subspace, scores in entries:
                features = tuple(
                    as_subspace(subspace).validate_against(self.n_features)
                )
                scores = np.asarray(scores, dtype=np.float64)
                if scores.shape != (self.n_samples,):
                    raise ValidationError(
                        f"imported score vector for subspace {features} has "
                        f"shape {scores.shape}, expected ({self.n_samples},)"
                    )
                scores = scores.copy()
                scores.flags.writeable = False
                self._cache.put((self._detector_key, features), scores)
                installed += 1
        return installed

    def clear_cache(self) -> None:
        """Drop all memoised score vectors and reset statistics."""
        with self._lock:
            self._cache.clear()
            self._n_evaluations = 0
            self._detector_seconds = 0.0
            self._detector_cpu_seconds = 0.0

    def close(self) -> None:
        """Release the execution backend's worker pool (if any)."""
        self._backend.close()

    def _check_point(self, point: int) -> int:
        point = int(point)
        if not 0 <= point < self.n_samples:
            raise ValidationError(
                f"point index {point} out of range for {self.n_samples} samples"
            )
        return point

    def __repr__(self) -> str:
        return (
            f"SubspaceScorer(n_samples={self.n_samples}, "
            f"n_features={self.n_features}, detector={self.detector!r}, "
            f"backend={self._backend.name!r}, cached={len(self._cache)})"
        )
