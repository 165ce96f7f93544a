"""Warm explanation state as a first-class layer: the :class:`ExplainEngine`.

Before this module, fingerprint-keyed scorer sharing was re-plumbed by
every execution surface separately: :class:`~repro.pipeline.ExplanationPipeline`
kept a private ``dict`` of scorers, the grid runner relied on each of its
pipelines keeping theirs, the parallel grid rebuilt them per worker group,
and the streaming monitor constructed a fresh scorer per anomaly. The
engine centralises that state — one pool of warm
:class:`~repro.subspaces.SubspaceScorer` instances keyed by
``(dataset fingerprint, detector cache key)`` — so every surface (batch
pipeline, grid, stream, and the :mod:`repro.serve` request loop) goes
through the same admission/eviction policy instead of each growing its
own unbounded cache.

Three properties make the pool safe to share:

* **Fingerprint keying.** Entries are keyed by the dataset's content
  fingerprint and the detector's :meth:`~repro.detectors.Detector.cache_key`,
  never by object identity — equal reconstructions of a dataset hit the
  same warm scorer, and a recycled ``id()`` can never alias stale state.
* **Determinism.** A warm scorer only *caches* detector score vectors; it
  never changes what they are (see ``docs/ARCHITECTURE.md``, "the
  equivalence guarantee"). Explanations computed through a warm pool are
  byte-identical to cold runs — the property the serve layer's coalescing
  drill asserts end to end.
* **Byte-budgeted eviction.** Score-vector bytes across all pooled
  scorers are bounded (``REPRO_ENGINE_POOL_MB``); when the pool exceeds
  its budget, least-recently-used *entries* (whole scorers) are evicted
  and closed. A server holding hundreds of datasets warm degrades to
  recomputation, never to unbounded growth.

The engine also offers :meth:`ExplainEngine.explain_many` — the coalesced
execution primitive of the serve layer: concurrent requests for the same
(dataset, pipeline, dimensionality) collapse into a single
:meth:`~repro.subspaces.SubspaceScorer.scores_many` wave over the union
of their points, and each request's response is sliced back out,
byte-identical to the one-shot run it replaces.
"""

from __future__ import annotations

import base64
import dataclasses
import itertools
import json
import os
import pickle
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.datasets.base import Dataset
from repro.detectors.base import Detector, data_fingerprint
from repro.exceptions import ValidationError
from repro.obs import metrics as obs_metrics
from repro.subspaces.scorer import SubspaceScorer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.pipeline.pipeline import PipelineResult

__all__ = [
    "DEFAULT_ENGINE_POOL_MB",
    "ENGINE_POOL_MB_ENV",
    "ENGINE_SNAPSHOT_DIR_ENV",
    "SNAPSHOT_VERSION",
    "ExplainEngine",
    "resolve_engine_pool_bytes",
]

#: Environment variable naming the warm-pool byte budget in MiB.
#: ``0`` (or negative) disables pooling: every scorer request is cold.
ENGINE_POOL_MB_ENV = "REPRO_ENGINE_POOL_MB"

#: Default pool budget when the environment names none: 512 MiB of
#: memoised score vectors across all warm scorers.
DEFAULT_ENGINE_POOL_MB = 512

#: Default cap on pooled *entries* (warm scorers). Bytes alone would let a
#: stream of tiny one-shot matrices (e.g. streaming anomaly windows) grow
#: the pool without bound in count; the entry cap keeps eviction O(small).
DEFAULT_ENGINE_POOL_ENTRIES = 256

#: Environment variable naming the directory cluster workers write their
#: engine snapshots into (one ``worker-<slot>.json`` per worker). Unset
#: means snapshots are off unless a path is configured explicitly.
ENGINE_SNAPSHOT_DIR_ENV = "REPRO_ENGINE_SNAPSHOT_DIR"

#: Version of the on-disk engine snapshot format. Readers reject other
#: versions (a restore from an incompatible snapshot must fail loudly,
#: not install garbage into a warm pool).
SNAPSHOT_VERSION = 1

#: Process-wide sequence for unique snapshot tmp-file names (two writers in
#: one process must never share a tmp path — see :meth:`ExplainEngine.save_snapshot`).
_SNAPSHOT_SEQ = itertools.count()

_POOL_ENTRIES = obs_metrics.gauge(
    "repro_engine_pool_entries",
    "Warm (dataset, detector) scorers currently pooled by explain engines",
)
_POOL_BYTES = obs_metrics.gauge(
    "repro_engine_pool_bytes",
    "Score-vector bytes held by pooled scorers across all explain engines",
)
_POOL_HITS = obs_metrics.counter(
    "repro_engine_pool_hits_total",
    "Scorer requests served from a warm pool entry",
)
_POOL_MISSES = obs_metrics.counter(
    "repro_engine_pool_misses_total",
    "Scorer requests that built a cold scorer",
)
_POOL_EVICTIONS = obs_metrics.counter(
    "repro_engine_pool_evictions_total",
    "Warm scorers evicted over the pool byte budget",
)
_COALESCED = obs_metrics.counter(
    "repro_engine_coalesced_requests_total",
    "Requests answered from a coalesced explain_many wave",
)
_POOL_CHAINED = obs_metrics.counter(
    "repro_engine_pool_chained_total",
    "Cold pool entries built by sliding a predecessor window's warm "
    "distance provider instead of rebuilding feature blocks",
)
_SNAPSHOT_WRITES = obs_metrics.counter(
    "repro_engine_snapshot_writes_total",
    "Engine snapshots persisted to disk",
)
_RESTORED_VECTORS = obs_metrics.counter(
    "repro_engine_restored_vectors_total",
    "Score vectors installed into warm pools from snapshots",
)


def resolve_engine_pool_bytes() -> int:
    """The pool byte budget the environment asks for (may be zero = off)."""
    raw = os.environ.get(ENGINE_POOL_MB_ENV, "").strip()
    if not raw:
        return DEFAULT_ENGINE_POOL_MB * 1024 * 1024
    try:
        mb = int(float(raw))
    except ValueError as exc:
        raise ValidationError(
            f"{ENGINE_POOL_MB_ENV} must be a number of MiB, got {raw!r}"
        ) from exc
    return max(0, mb) * 1024 * 1024


class ExplainEngine:
    """Pool of warm per-(dataset, detector) scorers with byte-budgeted eviction.

    Parameters
    ----------
    backend:
        Execution backend handed to every scorer the engine builds — a
        name, an :class:`~repro.exec.ExecutionBackend` instance, or
        ``None`` for the ``REPRO_BACKEND`` default.
    max_pool_bytes:
        Byte budget for memoised score vectors across all pooled scorers.
        ``None`` resolves from ``REPRO_ENGINE_POOL_MB`` (default 512 MiB);
        ``0`` disables pooling entirely (every request builds a cold
        scorer — the ablation/baseline mode).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.datasets import load_dataset
    >>> from repro.detectors import LOF
    >>> engine = ExplainEngine()
    >>> dataset = load_dataset("hics_14")
    >>> a = engine.scorer_for(dataset, LOF(k=15))
    >>> b = engine.scorer_for(dataset, LOF(k=15))
    >>> a is b  # same fingerprint + detector key -> same warm scorer
    True
    >>> engine.stats()["entries"]
    1
    """

    def __init__(
        self,
        *,
        backend: object = None,
        max_pool_bytes: int | None = None,
        max_pool_entries: int = DEFAULT_ENGINE_POOL_ENTRIES,
    ) -> None:
        self.backend = backend
        self.max_pool_bytes = (
            resolve_engine_pool_bytes()
            if max_pool_bytes is None
            else int(max_pool_bytes)
        )
        if self.max_pool_bytes < 0:
            raise ValidationError(
                f"max_pool_bytes must be >= 0, got {self.max_pool_bytes}"
            )
        self.max_pool_entries = int(max_pool_entries)
        if self.max_pool_entries < 1:
            raise ValidationError(
                f"max_pool_entries must be >= 1, got {self.max_pool_entries}"
            )
        self._lock = threading.RLock()
        self._pool: OrderedDict[tuple, SubspaceScorer] = OrderedDict()
        self._datasets: dict[str, Dataset] = {}
        self._hits = 0
        self._misses = 0
        self._chained = 0
        self._evictions = 0
        self._snapshots_written = 0
        self._restored_vectors = 0

    # ------------------------------------------------------------------
    # Dataset registry.
    # ------------------------------------------------------------------

    def register_dataset(self, dataset: Dataset) -> Dataset:
        """Pin ``dataset`` under its registry name for name-based lookup.

        The serve layer resolves request dataset names through the engine
        so every request against the same name shares one matrix (and
        hence one fingerprint, one warm scorer, one distance provider).
        """
        if not isinstance(dataset, Dataset):
            raise ValidationError(
                f"dataset must be a repro Dataset, got {type(dataset).__name__}"
            )
        dataset = self._adopt_shared(dataset)
        with self._lock:
            self._datasets[dataset.name] = dataset
        return dataset

    @staticmethod
    def _adopt_shared(dataset: Dataset) -> Dataset:
        """Swap the matrix for a shared-memory view when one is published.

        Cluster workers inherit the parent's segment registry
        (``REPRO_SHM_REGISTRY``); adopting at registration time means
        every worker's scorers, providers, and request handling read the
        parent's published bits instead of a private copy — same
        fingerprint, same numbers, one physical matrix per host.
        """
        from repro.shm import plane as _shm

        if not _shm.shm_enabled():
            return dataset
        plane = _shm.get_plane(create=False)
        if plane is None and os.environ.get(_shm.SHM_REGISTRY_ENV) is None:
            return dataset
        view = _shm.get_plane().adopt(dataset.X)
        if view is None:
            return dataset
        return dataclasses.replace(dataset, X=view)

    def dataset(self, name: str, **overrides: object) -> Dataset:
        """A registered dataset by name, building registry names on demand.

        Unregistered names fall back to
        :func:`repro.datasets.load_dataset` (which memoises per exact
        parameterisation) and are then pinned, so the first request for a
        dataset pays construction and every later one is a dict lookup.
        """
        with self._lock:
            cached = self._datasets.get(name)
        if cached is not None:
            return cached
        from repro.datasets.registry import load_dataset

        return self.register_dataset(load_dataset(name, **overrides))

    @property
    def dataset_names(self) -> tuple[str, ...]:
        """Names currently pinned in the engine's dataset registry."""
        with self._lock:
            return tuple(sorted(self._datasets))

    # ------------------------------------------------------------------
    # Warm scorer pool.
    # ------------------------------------------------------------------

    def scorer_for(self, dataset: Dataset, detector: Detector) -> SubspaceScorer:
        """The pooled scorer binding ``dataset`` and ``detector`` (warm if seen).

        Entries are keyed by ``(dataset.fingerprint, detector.cache_key())``
        so two detector instances with identical parameters share one warm
        scorer, exactly as their score vectors would be interchangeable.
        With a zero pool budget this always builds a cold scorer.
        """
        key = (dataset.fingerprint, detector.cache_key())
        return self._lookup(key, dataset.X, detector)

    def scorer_for_matrix(
        self,
        X: object,
        detector: Detector,
        *,
        chain: tuple | None = None,
    ) -> SubspaceScorer:
        """A pooled scorer for a raw matrix without a :class:`Dataset` wrapper.

        The streaming monitor explains anomalies against ad-hoc window
        matrices; keying by content fingerprint (same hash the dataset
        layer uses) lets repeated identical windows — e.g. several
        anomalies scored before the window advances — share warm state,
        while the entry cap keeps a stream of unique windows bounded.

        ``chain`` — ``(parent_fingerprint, new_rows, n_evict)`` — names a
        predecessor window this one slid out of. On a pool miss the
        predecessor entry's warm distance provider is slid forward
        (:meth:`~repro.neighbors.DistanceProvider.slide`) and handed to
        the new scorer, so consecutive stream windows share their
        per-feature blocks instead of rebuilding ``O(n²·d)`` state. The
        canonical composition chain keeps chained results byte-identical
        to cold ones; the hint is dropped whenever the substrate budget
        would have disabled providers anyway (so chained and unchained
        paths score through identical code).
        """
        key = (("matrix", data_fingerprint(X)), detector.cache_key())
        return self._lookup(key, X, detector, chain=chain)

    def _chained_provider(
        self, X: np.ndarray, detector: Detector, chain: tuple
    ) -> "object | None":
        """A slid provider for ``X`` from the chained predecessor, or None.

        Must be bit-neutral: only returns a provider when the unchained
        path would also score provider-backed (same budget predicate as
        :func:`~repro.neighbors.provider.shared_provider`), and the slid
        matrix is verified equal to ``X`` before use.
        """
        from repro.neighbors.provider import resolve_dist_cache_bytes

        if not detector.uses_knn_queries:
            return None
        parent_fp, new_rows, n_evict = chain
        n = X.shape[0]
        if resolve_dist_cache_bytes() < 12 * n * n:
            return None
        parent = self._pool.get((("matrix", parent_fp), detector.cache_key()))
        if parent is None or parent.distance_provider is None:
            return None
        new_rows = np.asarray(new_rows, dtype=np.float64)
        if new_rows.ndim != 2 or not 0 < new_rows.shape[0] < n:
            return None
        previous = parent.distance_provider
        if previous.n_samples - int(n_evict) + new_rows.shape[0] != n:
            return None
        slid = previous.slide(new_rows, n_evict=int(n_evict))
        if not np.array_equal(slid.X, X):
            return None
        return slid

    def _lookup(
        self,
        key: tuple,
        X: object,
        detector: Detector,
        chain: tuple | None = None,
    ) -> SubspaceScorer:
        with self._lock:
            if self.max_pool_bytes == 0:
                self._misses += 1
                _POOL_MISSES.inc()
                return SubspaceScorer(X, detector, backend=self.backend)
            scorer = self._pool.get(key)
            if scorer is not None:
                self._pool.move_to_end(key)
                self._hits += 1
                _POOL_HITS.inc()
                return scorer
            self._misses += 1
            _POOL_MISSES.inc()
            provider = None
            if chain is not None:
                provider = self._chained_provider(
                    np.asarray(X, dtype=np.float64), detector, chain
                )
            if provider is not None:
                scorer = SubspaceScorer(
                    X, detector, backend=self.backend, distance_provider=provider
                )
                self._chained += 1
                _POOL_CHAINED.inc()
            else:
                scorer = SubspaceScorer(X, detector, backend=self.backend)
            self._pool[key] = scorer
            self._refresh_gauges()
            return scorer

    def trim(self) -> int:
        """Evict least-recently-used scorers beyond the pool budgets.

        Returns the number of entries evicted. Called by the execution
        surfaces after each run (score-vector bytes grow *during* a run,
        so admission-time checks alone would under-enforce); safe to call
        at any time. The most recent entry is never evicted — a pipeline's
        only warm scorer survives arbitrarily small budgets.
        """
        evicted = 0
        with self._lock:
            while len(self._pool) > 1 and (
                len(self._pool) > self.max_pool_entries
                or self.pool_nbytes > self.max_pool_bytes
            ):
                _, scorer = self._pool.popitem(last=False)
                scorer.close()
                evicted += 1
                self._evictions += 1
                _POOL_EVICTIONS.inc()
            if evicted:
                self._refresh_gauges()
        return evicted

    @property
    def pool_nbytes(self) -> int:
        """Approximate score-vector bytes across all pooled scorers."""
        with self._lock:
            return sum(s.cache_nbytes for s in self._pool.values())

    def stats(self) -> dict[str, int | float]:
        """Pool counters for snapshots and the serve ``stats`` op."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "entries": len(self._pool),
                "datasets": len(self._datasets),
                "bytes": self.pool_nbytes,
                "max_bytes": self.max_pool_bytes,
                "max_entries": self.max_pool_entries,
                "hits": self._hits,
                "misses": self._misses,
                "chained": self._chained,
                "evictions": self._evictions,
                "hit_rate": self._hits / total if total else 0.0,
                "snapshots_written": self._snapshots_written,
                "restored_vectors": self._restored_vectors,
                # Detector invocations that actually ran across pooled
                # scorers — 0 on a snapshot-restored worker serving only
                # warm lookups (the cluster kill-drill's no-recompute proof).
                "n_evaluations": sum(
                    scorer.n_evaluations for scorer in self._pool.values()
                ),
            }

    def clear(self) -> None:
        """Drop every pooled scorer and pinned dataset (counters survive)."""
        with self._lock:
            for scorer in self._pool.values():
                scorer.close()
            self._pool.clear()
            self._datasets.clear()
            self._refresh_gauges()

    def close(self) -> None:
        """Release all pooled scorers and their backend worker pools."""
        self.clear()

    def _refresh_gauges(self) -> None:
        _POOL_ENTRIES.set(len(self._pool))
        _POOL_BYTES.set(sum(s.cache_nbytes for s in self._pool.values()))

    # ------------------------------------------------------------------
    # Snapshot / restore (the cluster's crash-rewarm path).
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The engine's warm inventory as a JSON-encodable dict.

        Captures what a restarted worker needs to *re-warm without
        recomputing*: the dataset registry (names + content fingerprints —
        never the matrices, which the restorer re-resolves and validates),
        every name-keyed pool entry's detector (pickled) with its memoised
        score vectors (raw little-endian float64 bytes, base64 — an exact
        round-trip, so restored explanations are byte-identical to
        always-warm ones), and the contrast-cache disk pointer
        (``REPRO_HICS_CACHE``) whose on-disk entries survive the crash on
        their own.

        Matrix-keyed entries (:meth:`scorer_for_matrix` — ad-hoc streaming
        windows) are excluded: they have no name to re-resolve under.

        Snapshotting is counter-neutral (see
        :meth:`~repro.subspaces.SubspaceScorer.export_cache`), so a
        snapshotting server's cache statistics match a snapshot-free run.
        """
        from repro.explainers.contrast_cache import HICS_CACHE_ENV

        with self._lock:
            datasets = [
                {"name": name, "fingerprint": list(ds.fingerprint)}
                for name, ds in sorted(self._datasets.items())
            ]
            entries = []
            for key, scorer in self._pool.items():
                fingerprint, _detector_key = key
                if fingerprint[0] == "matrix":
                    continue
                vectors = [
                    {
                        "subspace": list(map(int, subspace)),
                        "scores": base64.b64encode(
                            np.ascontiguousarray(
                                scores.astype("<f8", copy=False)
                            ).tobytes()
                        ).decode("ascii"),
                    }
                    for subspace, scores in scorer.export_cache()
                ]
                entries.append(
                    {
                        "dataset": fingerprint[0],
                        "fingerprint": list(fingerprint),
                        "detector": base64.b64encode(
                            pickle.dumps(scorer.detector)
                        ).decode("ascii"),
                        "detector_repr": repr(scorer.detector),
                        "vectors": vectors,
                    }
                )
        return {
            "version": SNAPSHOT_VERSION,
            "kind": "engine_snapshot",
            "datasets": datasets,
            "entries": entries,
            "contrast_cache_dir": os.environ.get(HICS_CACHE_ENV) or None,
        }

    def save_snapshot(self, path: str | os.PathLike) -> dict:
        """Write :meth:`snapshot` to ``path`` atomically; returns the dict.

        Same tmp-then-:func:`os.replace` discipline as the contrast
        cache's disk mode: a reader (the restarted worker) only ever sees
        a complete snapshot, never a torn write — a worker killed
        mid-snapshot leaves the previous snapshot intact. The tmp name is
        unique per call (pid + sequence), so concurrent writers within
        one process (post-wave persistence racing a clean-stop write)
        each complete; last replace wins.
        """
        snapshot = self.snapshot()
        path = os.fspath(path)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}.{next(_SNAPSHOT_SEQ)}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, sort_keys=True)
        os.replace(tmp, path)
        with self._lock:
            self._snapshots_written += 1
        _SNAPSHOT_WRITES.inc()
        return snapshot

    def restore_snapshot(
        self,
        source: dict | str | os.PathLike,
        *,
        resolver: "Callable[[str], Dataset] | None" = None,
    ) -> dict[str, int]:
        """Re-warm this engine from a snapshot dict or file.

        ``resolver`` maps a dataset name back to its matrix (the server
        passes its profile-aware resolution; the default is this engine's
        own :meth:`dataset` lookup). Every resolved dataset is validated
        against the snapshot's recorded content fingerprint — an entry
        whose matrix no longer matches (changed profile, regenerated data)
        is **skipped**, not installed: a stale score vector served as warm
        state would silently corrupt results, whereas a skipped entry
        merely recomputes.

        Restored vectors bypass the scorer's miss counters (see
        :meth:`~repro.subspaces.SubspaceScorer.import_cache`), so
        ``n_evaluations == 0`` on a restored worker is the observable
        proof that registered datasets were served without cold recompute.

        Snapshots contain pickled detector objects — restore only files
        this process (or its supervisor) wrote, the same trust boundary as
        the ``repro.ft`` checkpoint journal.

        Returns ``{"datasets": ..., "entries": ..., "vectors": ...,
        "skipped": ...}`` counts.
        """
        if not isinstance(source, dict):
            with open(os.fspath(source), encoding="utf-8") as fh:
                source = json.load(fh)
        if source.get("version") != SNAPSHOT_VERSION or (
            source.get("kind") != "engine_snapshot"
        ):
            raise ValidationError(
                "not a compatible engine snapshot: kind="
                f"{source.get('kind')!r} version={source.get('version')!r}"
            )
        if resolver is None:
            resolver = self.dataset
        counts = {"datasets": 0, "entries": 0, "vectors": 0, "skipped": 0}
        resolved: dict[str, Dataset | None] = {}

        def _resolve(name: str, fingerprint: list) -> Dataset | None:
            # One resolution attempt per name; a fingerprint mismatch
            # (changed profile, regenerated data) poisons the name so
            # every entry against it is skipped, never installed stale.
            if name not in resolved:
                try:
                    dataset = resolver(name)
                except Exception:
                    dataset = None
                resolved[name] = dataset
            dataset = resolved[name]
            if dataset is None or list(dataset.fingerprint) != list(fingerprint):
                return None
            return dataset

        for record in source.get("datasets", ()):
            dataset = _resolve(record["name"], record["fingerprint"])
            if dataset is None:
                counts["skipped"] += 1
                continue
            self.register_dataset(dataset)
            counts["datasets"] += 1
        for entry in source.get("entries", ()):
            dataset = _resolve(entry["dataset"], entry["fingerprint"])
            if dataset is None:
                counts["skipped"] += 1
                continue
            self.register_dataset(dataset)
            detector = pickle.loads(base64.b64decode(entry["detector"]))
            scorer = self.scorer_for(dataset, detector)
            installed = scorer.import_cache(
                (
                    tuple(vector["subspace"]),
                    np.frombuffer(
                        base64.b64decode(vector["scores"]), dtype="<f8"
                    ),
                )
                for vector in entry["vectors"]
            )
            counts["entries"] += 1
            counts["vectors"] += installed
            _RESTORED_VECTORS.inc(installed)
        with self._lock:
            self._restored_vectors += counts["vectors"]
        self.trim()
        self._refresh_gauges()
        return counts

    # ------------------------------------------------------------------
    # Coalesced execution (the serve layer's batch primitive).
    # ------------------------------------------------------------------

    def explain_many(
        self,
        dataset: Dataset,
        detector: Detector,
        explainer: object,
        dimensionality: int,
        point_sets: Sequence[Iterable[int]],
    ) -> "list[PipelineResult]":
        """Serve several explain requests against one (dataset, pipeline).

        For **point explainers** the requests coalesce: the union of all
        requested points runs as *one* pipeline execution (each point is
        explained independently and deterministically, so one wave through
        :meth:`~repro.subspaces.SubspaceScorer.scores_many` covers every
        request), and each request's explanations and evaluation are
        sliced back out — byte-identical to running that request alone.

        **Summary explainers** depend on the exact point *set* (LookOut's
        marginal gains, HiCS's re-ranking), so each request runs its own
        pipeline execution; they still share this engine's warm scorer and
        the process-global contrast cache, which is where their speedup
        comes from.

        Returns one :class:`~repro.pipeline.PipelineResult` per entry of
        ``point_sets``, in order.
        """
        from repro.explainers.base import PointExplainer
        from repro.metrics.evaluation import evaluate_point_explanations
        from repro.pipeline.pipeline import ExplanationPipeline, PipelineResult

        pipeline = ExplanationPipeline(
            detector, explainer, backend=self.backend, engine=self
        )
        sets = [tuple(int(p) for p in ps) for ps in point_sets]
        if not sets:
            return []
        distinct = {ps for ps in sets}
        if (
            not isinstance(explainer, PointExplainer)
            or len(distinct) == 1
        ):
            # Summarisers (set-dependent) and single-shape batches run the
            # plain pipeline per distinct set; duplicates share one run.
            by_set = {
                ps: pipeline.run(dataset, dimensionality, points=ps)
                for ps in dict.fromkeys(sets)
            }
            if len(sets) > len(by_set):
                _COALESCED.inc(len(sets) - len(by_set))
            self.trim()
            return [by_set[ps] for ps in sets]

        union = tuple(sorted({p for ps in sets for p in ps}))
        base = pipeline.run(dataset, dimensionality, points=union)
        _COALESCED.inc(len(sets))
        self.trim()
        results: list[PipelineResult] = []
        assert base.explanations is not None
        for ps in sets:
            explanations = {int(p): base.explanations[int(p)] for p in ps}
            evaluation = evaluate_point_explanations(
                explanations,
                dataset.ground_truth,
                dimensionality,
                points=ps,
            )
            results.append(
                PipelineResult(
                    dataset=base.dataset,
                    detector=base.detector,
                    explainer=base.explainer,
                    dimensionality=base.dimensionality,
                    evaluation=evaluation,
                    seconds=base.seconds,
                    n_subspaces_scored=base.n_subspaces_scored,
                    cost_breakdown=dict(base.cost_breakdown),
                    explanations=explanations,
                    summary=None,
                )
            )
        return results

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"ExplainEngine(entries={stats['entries']}, "
            f"bytes={stats['bytes']}, max_bytes={self.max_pool_bytes})"
        )
