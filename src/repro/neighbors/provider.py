"""Shared distance substrate: per-feature decomposition of Euclidean distances.

Every explainer in the testbed re-scores thousands of small subspace
projections of *one* dataset, and each LOF / Fast ABOD / k-NN evaluation
used to re-derive a full ``O(n^2 * d)`` pairwise distance matrix from the
projection. Squared Euclidean distance decomposes per feature,

.. math:: D^2(S)_{ij} = \\sum_{f \\in S} (x_{if} - x_{jf})^2,

so almost all of that work is redundant across candidate subspaces.
:class:`DistanceProvider` exploits the identity:

* **Per-feature blocks.** ``(n, n)`` matrices of squared differences, one
  per feature, materialised lazily in ``float32`` (half the memory and
  bandwidth of float64; the rounding happens once per block, before any
  composition).
* **Composition.** A subspace's squared-distance matrix is the float32 sum
  of its feature blocks, accumulated **in sorted feature order** — the
  *canonical chain*. Composed matrices carry ``+inf`` on the diagonal so
  k-NN consumers need no masking copy; ``inf + 0`` keeps the diagonal
  masked through every incremental extension. Staying in float32 keeps
  each composed matrix at ``4 n^2`` bytes — half the cache pressure and
  half the memory bandwidth of every downstream selection pass, which
  dominates the k-NN cost at paper scale.
* **Incremental parent reuse.** Stage-wise explainers grow a subspace by
  one feature; ``D^2(S ∪ {f}) = D^2(S) + D^2(f)`` when the cached parent
  is a sorted prefix of the child. More generally the provider walks the
  longest cached sorted prefix and only adds the missing blocks.
* **Transient k-NN composition.** Neighbourhood detectors never see a
  matrix: they ask :meth:`DistanceProvider.kneighbors` for neighbour
  lists. A full-path query composes its canonical chain into a transient
  array (extending a cached composed prefix when one exists), selects
  the neighbours with the packed-key sort of
  :func:`~repro.neighbors.knn._packed_smallest_k`, and drops the matrix.
  One-shot candidate matrices therefore never enter the cache; only
  :meth:`~DistanceProvider.squared_distances` callers (sketch anchors,
  the streaming detector's slid full-space matrix) cache composed
  matrices.
* **Prefix-lattice walk.** An exhaustive search scores every subspace up
  to some size. :meth:`DistanceProvider.walk` visits them depth first in
  lexicographic order (:func:`prefix_walk`), so a node's parent is its
  sorted prefix and was the last node visited one level up. Each child
  is therefore one float32 add of its last block onto the parent's
  matrix, written into a per-depth buffer; the buffers live outside the
  LRU, and nothing the walk composes is cached.
* **LRU byte budget.** Blocks, sketches and composed matrices share one
  byte-budgeted LRU cache (``REPRO_DIST_CACHE_MB``, default 256 MiB).
  Blocks and sketches — the values every later query builds on — live
  at the warm end; matrices cached by
  :meth:`~DistanceProvider.squared_distances` are inserted *cold* (first
  to be evicted), so they can never flush the substrate's working set.

Determinism
-----------
The canonical chain makes every composed value *independent of cache
state*: whatever was evicted, whatever parent hints were passed, whatever
thread computed it, ``D^2(S)`` is always the float32 left-to-right sum of
the same float32 blocks in sorted order — so checkpoint/resume drills and
backend-equivalence tests see byte-identical scores with the provider on.
That is also why an arbitrary (non-prefix) parent is never reused
directly: float addition is not associative, and reusing it would make
score bits depend on which candidates happened to be cached.

The provider pickles *without* its cache (a process-backend worker
rebuilds blocks lazily and, by the canonical chain, reproduces the exact
same bits), and it declines subspaces wider than :attr:`max_compose_dim`.
A declined subspace is scored by the detector's direct path,
:class:`~repro.neighbors.KNNIndex` (a float64 matmul expansion), whose
bits differ from the float32 chain's. The predicate therefore fixes score
bits: it depends only on the subspace, never on cache state, and changing
the cutoff changes the scores of every subspace it moves.
"""

from __future__ import annotations

import os
import threading
import weakref
import zlib
from collections.abc import Iterable, Iterator
from operator import itemgetter

import numpy as np

from repro.exceptions import ValidationError
from repro.neighbors.knn import _packed_smallest_k
from repro.obs import metrics as obs_metrics
from repro.utils.caching import LRUCache
from repro.utils.validation import check_feature_indices, check_matrix

__all__ = [
    "DEFAULT_DIST_CACHE_MB",
    "DEFAULT_MAX_COMPOSE_DIM",
    "DEFAULT_SKETCH_FACTOR",
    "DIST_CACHE_MB_ENV",
    "SKETCH_FACTOR_ENV",
    "DistanceProvider",
    "KNNQueryView",
    "prefix_walk",
    "resolve_dist_cache_bytes",
    "resolve_sketch_factor",
    "shared_provider",
]

#: Environment variable naming the provider byte budget in MiB.
#: ``0`` (or negative) disables the distance substrate entirely.
DIST_CACHE_MB_ENV = "REPRO_DIST_CACHE_MB"

#: Environment variable overriding the neighbour-sketch width factor.
#: ``0`` disables sketching (every k-NN query walks the full canonical
#: path — the ablation switch); otherwise must be >= 2.
SKETCH_FACTOR_ENV = "REPRO_SKETCH_FACTOR"

#: Default byte budget when the environment names none: 256 MiB.
DEFAULT_DIST_CACHE_MB = 256

#: Default widest subspace composed from blocks; wider ones are scored by
#: the direct float64 path (see module docstring).
DEFAULT_MAX_COMPOSE_DIM = 8

#: Neighbour-sketch candidate count as a multiple of ``k`` (see
#: :meth:`DistanceProvider.kneighbors`). Larger sketches certify more
#: rows (squared distances grow with every added feature, so the parent's
#: low ranks must reach past the child's k-th neighbour) at the cost of
#: wider gathers; 12k certifies comfortably at paper scale (n≈1000,
#: k=15) even for 1-feature parents.
DEFAULT_SKETCH_FACTOR = 12

#: A query is sketched only when its candidate width ``m`` is at most
#: ``n / _SKETCH_MAX_FRACTION``: a wider gather costs more than composing
#: and selecting over the full row (``benchmarks/bench_distance.py
#: --knn`` records the crossover).
_SKETCH_MAX_FRACTION = 8

_BLOCKS = obs_metrics.gauge(
    "repro_dist_blocks",
    "Per-feature squared-difference blocks currently cached",
)
_COMPOSED = obs_metrics.gauge(
    "repro_dist_composed",
    "Composed subspace distance matrices currently cached",
)
_BYTES = obs_metrics.gauge(
    "repro_dist_bytes",
    "Bytes held by the distance substrate (blocks + composed matrices)",
)
_HITS = obs_metrics.counter(
    "repro_dist_hits_total",
    "Distance-substrate cache hits, by kind (block / subspace)",
)
_MISSES = obs_metrics.counter(
    "repro_dist_misses_total",
    "Distance-substrate cache misses that computed a matrix, by kind",
)
_PARENT_REUSES = obs_metrics.counter(
    "repro_dist_parent_reuse_total",
    "Subspace compositions that extended a cached (prefix) parent matrix",
)
_EVICTIONS = obs_metrics.counter(
    "repro_dist_evictions_total",
    "Distance-substrate cache entries evicted over the byte budget",
)
_KNN_QUERIES = obs_metrics.counter(
    "repro_dist_knn_queries_total",
    "Substrate k-NN queries, by path (sketch / full)",
)
_KNN_FALLBACK_ROWS = obs_metrics.counter(
    "repro_dist_knn_fallback_rows_total",
    "Rows of sketched k-NN queries that failed certification and were "
    "answered from full canonical rows",
)
_SLID = obs_metrics.counter(
    "repro_dist_slides_total",
    "Cache entries carried across a sliding-window update (a strip "
    "computation instead of a full rebuild), by kind (block / subspace)",
)


def resolve_dist_cache_bytes() -> int:
    """Byte budget of the distance substrate from ``REPRO_DIST_CACHE_MB``.

    Returns ``0`` when the environment disables the substrate.
    """
    raw = os.environ.get(DIST_CACHE_MB_ENV)
    if raw is None or not raw.strip():
        mb = DEFAULT_DIST_CACHE_MB
    else:
        try:
            mb = int(raw)
        except ValueError as exc:
            raise ValidationError(
                f"{DIST_CACHE_MB_ENV} must be an integer (MiB), got {raw!r}"
            ) from exc
    return max(0, mb) * 1024 * 1024


def resolve_sketch_factor() -> int:
    """Sketch width factor from ``REPRO_SKETCH_FACTOR`` (default 12).

    ``0`` turns sketching off — every neighbour query takes the full
    canonical path. 1 is rejected: a 1-wide sketch can never
    certify anything and would only hide a configuration mistake.
    """
    raw = os.environ.get(SKETCH_FACTOR_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_SKETCH_FACTOR
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{SKETCH_FACTOR_ENV} must be an integer, got {raw!r}"
        ) from exc
    if value != 0 and value < 2:
        raise ValidationError(
            f"{SKETCH_FACTOR_ENV} must be 0 (off) or >= 2, got {value}"
        )
    return value


def _fingerprint(X: np.ndarray) -> int:
    """Content fingerprint keying the shared-provider registry."""
    header = np.asarray(X.shape, dtype=np.int64).tobytes()
    return zlib.crc32(header + np.ascontiguousarray(X).tobytes())


def _select(D: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour indices and distances from a composed squared-distance matrix."""
    idx, sq = _packed_smallest_k(D, k)
    return idx, np.sqrt(sq, out=sq)


def prefix_walk(
    n_features: int, first: int, max_dim: int
) -> Iterator[tuple[int, ...]]:
    """Sorted subspaces of at most ``max_dim`` features starting at ``first``.

    Lexicographic order is a depth-first pre-order of the prefix lattice:
    each subspace follows its sorted prefix, whose whole subtree comes
    before the prefix's next sibling.

    Examples
    --------
    >>> list(prefix_walk(4, 1, 2))
    [(1,), (1, 2), (1, 3)]
    >>> list(prefix_walk(4, 0, 3))[:5]
    [(0,), (0, 1), (0, 1, 2), (0, 1, 3), (0, 2)]
    """
    if not 0 <= first < n_features:
        raise ValidationError(
            f"feature {first} out of range for {n_features} features"
        )
    if max_dim < 1:
        raise ValidationError(f"max_dim must be at least 1, got {max_dim}")
    stack = [(int(first),)]
    while stack:
        s = stack.pop()
        yield s
        if len(s) < max_dim:
            # Pushed in reverse, so the smallest next feature pops first.
            stack.extend(s + (f,) for f in range(n_features - 1, s[-1], -1))


class DistanceProvider:
    """Lazily cached per-feature distance decomposition of one dataset.

    Parameters
    ----------
    X:
        The dataset, shape ``(n_samples, n_features)``. Validated to
        float64 once; all blocks derive from this copy.
    max_bytes:
        LRU byte budget shared by feature blocks and composed matrices.
        ``None`` resolves ``REPRO_DIST_CACHE_MB`` (default 256 MiB).
    max_compose_dim:
        Widest subspace served from block composition (default 8); see
        :meth:`covers`.

    Examples
    --------
    >>> import numpy as np
    >>> X = np.array([[0.0, 1.0, 5.0], [3.0, 1.0, 9.0], [0.0, 2.0, 5.0]])
    >>> provider = DistanceProvider(X, max_bytes=1 << 20)
    >>> sq = provider.squared_distances((0, 2))
    >>> bool(sq[0, 1] == 3.0 ** 2 + 4.0 ** 2)   # features 0 and 2 only
    True
    >>> bool(np.isinf(sq[0, 0]))   # diagonal is masked for k-NN
    True
    >>> base = provider.squared_distances((0, 1))
    >>> float(provider.squared_distances((0, 1, 2), parent=(0, 1))[0, 1])
    25.0
    >>> provider.stats()["parent_reuses"]
    1
    """

    def __init__(
        self,
        X: np.ndarray,
        *,
        max_bytes: int | None = None,
        max_compose_dim: int = DEFAULT_MAX_COMPOSE_DIM,
        sketch_factor: int | None = None,
    ) -> None:
        self.X = check_matrix(X, name="X", min_rows=2)
        self.max_bytes = (
            resolve_dist_cache_bytes() if max_bytes is None else int(max_bytes)
        )
        if self.max_bytes <= 0:
            raise ValidationError(
                "DistanceProvider needs a positive byte budget; use "
                "shared_provider() for the disable-on-zero-budget policy"
            )
        self.max_compose_dim = int(max_compose_dim)
        self.sketch_factor = (
            resolve_sketch_factor() if sketch_factor is None else int(sketch_factor)
        )
        if self.sketch_factor != 0 and self.sketch_factor < 2:
            raise ValidationError(
                f"sketch_factor must be 0 (sketches off) or at least 2, "
                f"got {sketch_factor}"
            )
        self._init_runtime()

    def _init_runtime(self) -> None:
        """(Re)build the unpicklable runtime state: cache and counters."""
        # Keys are tagged by kind ("b" block, "c" composed, "k" sketch);
        # the cache counts entries per kind as they come and go.
        self._cache: LRUCache[tuple, object] = LRUCache(
            self.max_bytes,
            name="dist",
            on_evict=self._record_eviction,
            kind=itemgetter(0),
        )
        # Contiguous float64 feature columns (n * 8 bytes each) backing the
        # sketch-query gathers; tiny, so they live outside the LRU budget.
        self._cols: dict[int, np.ndarray] = {}
        self._stats_lock = threading.Lock()
        self._block_hits = 0
        self._block_misses = 0
        self._composed_hits = 0
        self._composed_misses = 0
        self._parent_reuses = 0
        self._sketch_hits = 0
        self._sketch_misses = 0
        self._knn_sketched = 0
        self._knn_full = 0
        self._knn_fallback_rows = 0
        self._blocks_slid = 0
        self._composed_slid = 0

    # ------------------------------------------------------------------
    # Capability predicates (must not depend on cache state).
    # ------------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of points in the dataset."""
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        """Number of features in the dataset."""
        return self.X.shape[1]

    @property
    def block_bytes(self) -> int:
        """Bytes of one float32 per-feature block."""
        return self.n_samples * self.n_samples * 4

    def covers(self, features: Iterable[int]) -> bool:
        """Whether the provider serves this subspace from block composition.

        Deterministic in the subspace alone (dimensionality cutoff) — the
        decision must never depend on what happens to be cached, or score
        bits would vary with cache state.
        """
        return 1 <= len(tuple(features)) <= self.max_compose_dim

    def _check_k(self, k: int) -> int:
        k = int(k)
        if not 1 <= k <= self.n_samples - 1:
            raise ValidationError(
                f"k={k} exceeds the number of available neighbours "
                f"({self.n_samples - 1})"
            )
        return k

    @property
    def x_fingerprint(self) -> int:
        """Content fingerprint of the dataset (memoised; keys the shm plane)."""
        fp = getattr(self, "_x_fp", None)
        if fp is None:
            fp = _fingerprint(self.X)
            self._x_fp = fp
        return fp

    # ------------------------------------------------------------------
    # Shared-memory plane integration (zero-copy process workers).
    # ------------------------------------------------------------------

    def warm_blocks(self, features: "Iterable[int] | None" = None) -> int:
        """Materialise the per-feature blocks (default: all features).

        A parent that warms blocks before spinning up a process pool pays
        the ``O(n^2)`` block cost once; published through the shm plane,
        every worker then attaches those bits instead of recomputing them.
        Returns the number of blocks now cached.
        """
        feats = range(self.n_features) if features is None else features
        count = 0
        for feature in feats:
            self.feature_block(int(feature))
            count += 1
        return count

    def publish_shared(self, plane: object = None) -> list[tuple]:
        """Publish the dataset and every warm block into the shm plane.

        Returns the plane keys published (the caller typically leases
        them for the lifetime of its worker pool). The process backend
        calls this while packing a payload — see
        :meth:`repro.exec.ProcessBackend._pack_payload`.
        """
        from repro.shm import plane as _shm

        if plane is None:
            plane = _shm.get_plane()
        fp = self.x_fingerprint
        keys: list[tuple] = []
        ref = plane.publish(self.X, key=("data", fp))  # type: ignore[attr-defined]
        keys.append(ref.key)
        # items_snapshot is counter- and recency-neutral: publishing the
        # warm blocks must not perturb the cache statistics equivalence
        # contracts assert on.
        for key, block in self._cache.items_snapshot():
            if key[0] != "b":
                continue
            block_ref = plane.publish(  # type: ignore[attr-defined]
                block, key=("block", fp, int(key[1]))
            )
            keys.append(block_ref.key)
        return keys

    # ------------------------------------------------------------------
    # The substrate.
    # ------------------------------------------------------------------

    def feature_block(self, feature: int) -> np.ndarray:
        """The float32 squared-difference block of one feature (read-only).

        ``block[i, j] = (X[i, f] - X[j, f])^2`` with an exactly-zero
        diagonal; computed in float64 and rounded once to float32.
        """
        feature = int(feature)
        if not 0 <= feature < self.n_features:
            raise ValidationError(
                f"feature {feature} out of range for {self.n_features} features"
            )
        key = ("b", feature)
        block = self._cache.get(key)
        if block is not None:
            self._count("block_hits")
            _HITS.inc(kind="block")
            return block
        self._count("block_misses")
        _MISSES.inc(kind="block")
        column = self.X[:, feature]
        diff = column[:, None] - column[None, :]
        block = np.square(diff, out=diff).astype(np.float32)
        block.flags.writeable = False
        self._cache.put(key, block)
        self._refresh_gauges()
        return block

    def squared_distances(
        self,
        features: Iterable[int],
        *,
        parent: Iterable[int] | None = None,
    ) -> np.ndarray:
        """Composed squared-distance matrix of a subspace (read-only).

        Float32, shape ``(n, n)``, diagonal ``+inf`` (self-distances are
        pre-masked for k-NN selection). The value is always the canonical
        sorted-order sum of the float32 feature blocks, whatever is cached.

        Parameters
        ----------
        features:
            The subspace (any iterable of feature indices).
        parent:
            Advisory hint: the subspace this one was grown from. Reused
            directly (one block addition) when it is a sorted prefix of
            ``features``; otherwise the provider falls back to the longest
            cached sorted prefix, which preserves canonical bits.
        """
        s = check_feature_indices(features, n_features=self.n_features)
        out = self._lookup_composed(s)
        if out is None:
            hint: tuple[int, ...] | None = None
            if parent is not None and len(s) > 1:
                hint = check_feature_indices(parent, n_features=self.n_features)
            out = self._compose(s, hint)
            out.flags.writeable = False
            # Insert cold: an explicitly requested matrix must never flush
            # the blocks and sketches every later query builds on.
            self._cache.put(("c", s), out, cold=True)
            self._refresh_gauges()
        return out

    def _lookup_composed(self, s: tuple[int, ...]) -> np.ndarray | None:
        """The cached composed matrix of ``s`` (counted as hit or miss)."""
        cached = self._cache.get(("c", s))
        if cached is not None:
            self._count("composed_hits")
            _HITS.inc(kind="subspace")
            return cached
        self._count("composed_misses")
        _MISSES.inc(kind="subspace")
        return None

    def _compose(
        self, s: tuple[int, ...], hint: tuple[int, ...] | None = None
    ) -> np.ndarray:
        """A fresh array holding the canonical chain of ``s``; caches nothing.

        Extends a cached composed proper prefix of ``s`` when one exists
        (the advisory ``hint`` first when it is a sorted prefix, then the
        longest), otherwise starts from the first block with its ``+inf``
        diagonal; then adds the missing blocks one float32 addition at a
        time. Any cached prefix holds canonical bits, so the choice of
        starting point changes cost only.
        """
        lengths: Iterable[int] = range(len(s) - 1, 0, -1)
        if hint is not None and 0 < len(hint) < len(s) and hint == s[: len(hint)]:
            lengths = (len(hint), *lengths)
        for start in lengths:
            base = self._cache.get(("c", s[:start]))
            if base is not None:
                self._count("parent_reuses")
                _PARENT_REUSES.inc()
                # One ufunc pass, bitwise identical to copy-then-add.
                out = base + self.feature_block(s[start])
                start += 1
                break
        else:
            out = self.feature_block(s[0]).copy()
            np.fill_diagonal(out, np.inf)
            start = 1
        for feature in s[start:]:
            out += self.feature_block(feature)
        return out

    def walk(
        self, first: int, max_dim: int
    ) -> Iterator[tuple[tuple[int, ...], np.ndarray | None]]:
        """``(subspace, matrix)`` for each subspace :func:`prefix_walk` visits.

        A node's parent is its sorted prefix, the last node visited one
        level up, so its matrix is the parent's plus one float32 add of
        its last block: the canonical chain, with the bits
        :meth:`squared_distances` would return. Each depth owns one
        ``(n, n)`` float32 buffer outside the LRU, so a walk holds at most
        ``min(max_dim, max_compose_dim)`` of them, and a yielded
        (read-only) matrix is valid only until the walk resumes. Nothing
        is cached. Subspaces the provider does not cover (wider than
        :attr:`max_compose_dim`) come with ``None``.
        """
        n = self.n_samples
        depth_cap = min(int(max_dim), self.max_compose_dim)
        buffers: list[np.ndarray] = []
        views: list[np.ndarray] = []
        for s in prefix_walk(self.n_features, first, max_dim):
            depth = len(s) - 1
            if depth >= depth_cap:
                yield s, None
                continue
            if depth == len(buffers):
                buffers.append(np.empty((n, n), dtype=np.float32))
                views.append(buffers[-1].view())
                views[-1].flags.writeable = False
            out = buffers[depth]
            if depth == 0:
                np.copyto(out, self.feature_block(s[0]))
                np.fill_diagonal(out, np.inf)
            else:
                np.add(buffers[depth - 1], self.feature_block(s[-1]), out=out)
            yield s, views[depth]

    # ------------------------------------------------------------------
    # Sliding-window updates: add/evict rows without recomputing blocks.
    # ------------------------------------------------------------------

    def slide(
        self,
        new_rows: np.ndarray,
        *,
        n_evict: int | None = None,
        compose: Iterable[Iterable[int]] = (),
    ) -> "DistanceProvider":
        """A provider over the window slid forward by ``new_rows``.

        The returned provider serves ``vstack([X[n_evict:], new_rows])``
        (``n_evict`` defaults to ``len(new_rows)``, keeping the window
        size fixed) and inherits this provider's budget and knobs. Every
        cached per-feature block is carried over *slid* instead of cold:
        squared differences among the kept rows are the same values in
        both windows, so the kept ``(n - n_evict)²`` region is a bit-copy
        of the old block, and only the strip against the new rows is
        computed — with :meth:`feature_block`'s exact arithmetic (float64
        difference, squared, rounded once to float32), then mirrored
        across the diagonal (``(a-b)² == (b-a)²`` bitwise, so blocks are
        bitwise symmetric). An ``O(δ·n)`` strip per block replaces the
        ``O(n²)`` rebuild, and by the canonical chain every matrix the
        new provider ever composes is byte-identical to a cold rebuild's.

        Composed matrices whose (sorted) subspaces are listed in
        ``compose`` are slid the same way when cached: kept region copied
        (the ``+inf`` diagonal maps onto the diagonal), strip rows built
        as the canonical left-to-right chain over the slid blocks with
        ``+inf`` at the new rows' self-distances — exactly where the cold
        chain applies its mask — and the column region filled from the
        strip's transpose (a float32 sum of bitwise-symmetric blocks is
        bitwise symmetric). Sketches are dropped; they rebuild lazily and
        certification can never change result bits.
        """
        new_rows = np.asarray(new_rows, dtype=np.float64)
        if new_rows.ndim == 1:
            new_rows = new_rows[None, :]
        if new_rows.ndim != 2 or new_rows.shape[0] < 1:
            raise ValidationError(
                f"new_rows must be a non-empty 2-d matrix, got shape "
                f"{new_rows.shape}"
            )
        if new_rows.shape[1] != self.n_features:
            raise ValidationError(
                f"new_rows have {new_rows.shape[1]} features, provider "
                f"serves {self.n_features}"
            )
        delta = new_rows.shape[0]
        n_evict = delta if n_evict is None else int(n_evict)
        if not 0 <= n_evict <= self.n_samples:
            raise ValidationError(
                f"n_evict={n_evict} out of range for {self.n_samples} rows"
            )
        keep = self.n_samples - n_evict
        X_new = np.vstack([self.X[n_evict:], new_rows])
        slid = DistanceProvider(
            X_new,
            max_bytes=self.max_bytes,
            max_compose_dim=self.max_compose_dim,
            sketch_factor=self.sketch_factor,
        )
        if keep == 0:
            return slid  # nothing survives the slide; all entries rebuild
        n_new = keep + delta
        rows_idx = np.arange(delta)
        diag_idx = np.arange(keep, n_new)
        for key, old in self._cache.items_snapshot():
            if key[0] != "b":
                continue
            feature = int(key[1])
            block = np.empty((n_new, n_new), dtype=np.float32)
            block[:keep, :keep] = old[n_evict:, n_evict:]
            column = slid.X[:, feature]
            diff = column[keep:, None] - column[None, :]
            # The ufunc's float64→float32 store applies the same C cast
            # as feature_block's astype, so strip bits match a cold block.
            np.square(diff, out=diff)
            block[keep:, :] = diff
            block[:keep, keep:] = block[keep:, :keep].T
            block.flags.writeable = False
            slid._cache.put(("b", feature), block)
            slid._count("blocks_slid")
            _SLID.inc(kind="block")
        for subspace in compose:
            s = check_feature_indices(subspace, n_features=self.n_features)
            old = self._cache.get(("c", s))
            if old is None or not slid.covers(s):
                continue  # the new provider recomposes cold: same bits
            out = np.empty((n_new, n_new), dtype=np.float32)
            out[:keep, :keep] = old[n_evict:, n_evict:]
            strip = slid.feature_block(s[0])[keep:, :].copy()
            strip[rows_idx, diag_idx] = np.inf
            for feature in s[1:]:
                strip += slid.feature_block(feature)[keep:, :]
            out[keep:, :] = strip
            out[:keep, keep:] = out[keep:, :keep].T
            out.flags.writeable = False
            slid._cache.put(("c", s), out)
            slid._count("composed_slid")
            _SLID.inc(kind="subspace")
        slid._refresh_gauges()
        return slid

    # ------------------------------------------------------------------
    # Certified neighbour sketches: exact k-NN without the full matrix.
    # ------------------------------------------------------------------

    def knn_view(
        self,
        features: Iterable[int],
        *,
        parent: Iterable[int] | None = None,
        matrix: np.ndarray | None = None,
    ) -> "KNNQueryView":
        """A neighbour-query view of one subspace bound to this provider.

        ``matrix`` is the subspace's composed matrix when the caller
        already holds it (a :meth:`walk` node); the view then selects
        from it directly instead of querying :meth:`kneighbors`.
        """
        return KNNQueryView(self, tuple(features), parent, matrix)

    def kneighbors(
        self,
        features: Iterable[int],
        k: int,
        *,
        parent: Iterable[int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the ``k`` nearest non-self neighbours.

        Same contract as :meth:`KNNIndex.kneighbors
        <repro.neighbors.KNNIndex.kneighbors>` run on this subspace's
        composed matrix — ascending distance, ties broken by index — and
        **bit-identical** to it. The *full path* composes the canonical
        chain into a transient array (a cached composed prefix, or the
        matrix itself, is reused when present; nothing new is cached) and
        selects with the packed-key sort of
        :func:`~repro.neighbors.knn._packed_smallest_k`, whose rows tied at
        the k-th boundary fall back to ``argpartition``.

        Wide queries at large ``n`` take the *sketch path*: squared
        distances only grow as features are added, so the k nearest
        neighbours of a grown subspace must come from its parent's near
        neighbourhood. The provider keeps a *sketch* per parent (its
        ``m`` nearest candidates per row plus the ``(m+1)``-th parent
        distance as a bound ``B``) and answers the child query from an
        ``(n, m)`` gather of canonical block sums: a row is *certified*
        when its k-th candidate distance ``t`` satisfies ``B > t`` —
        every excluded point has ``child >= parent >= B > t``, so the
        candidate top-k is exactly the global top-k. (Float32 addition of
        non-negative blocks is monotone, so the inequality chain survives
        rounding.) Rows that fail certification, and rows with a distance
        tie at the k-th boundary, are answered from their full canonical
        rows — results never depend on the sketch, which is why cache
        state, hints, and eviction patterns cannot change a single bit.

        A query is sketched only when its candidate width ``m`` satisfies
        ``8 m <= n``: for wider sketches the gather of ``m`` columns and
        the certification cost more than composing and selecting over the
        whole row. The rule depends on ``n``, ``k`` and the anchor depth
        alone, never on cache state.

        Parameters
        ----------
        features:
            The subspace to query.
        k:
            Neighbour count, ``1 <= k <= n_samples - 1``.
        parent:
            Advisory hint: any proper subset of ``features`` (the
            subspace this one was grown from) whose sketch anchors
            certification. Without a usable hint the sorted prefix
            ``features[:-1]`` anchors instead. On the full path a hint
            that is a sorted prefix seeds the composition when cached.
        """
        s = check_feature_indices(features, n_features=self.n_features)
        n = self.n_samples
        k = self._check_k(k)
        hint: tuple[int, ...] | None = None
        if parent is not None and len(s) >= 2:
            hint = check_feature_indices(parent, n_features=self.n_features)
        p: tuple[int, ...] | None = None
        m = 0
        if len(s) >= 2 and self.sketch_factor:
            if hint is not None and 0 < len(hint) < len(s) and set(hint) < set(s):
                p = hint
            if p is None:
                p = s[:-1]
            # Width shrinks with parent depth: relative distance growth
            # from d to d+1 features falls off as 1/d, so deep parents
            # certify with far fewer candidates (the choice of ``m``
            # moves rows between the sketch and fallback paths — it can
            # never change a bit of the result).
            factor = max(3, -(-2 * self.sketch_factor // (len(p) + 1)))
            m = factor * k
            if _SKETCH_MAX_FRACTION * m > n:
                p = None
        if p is None:
            self._count("knn_full")
            _KNN_QUERIES.inc(path="full")
            D = self._lookup_composed(s)
            if D is None:
                D = self._compose(s, hint)
            return _select(D, k)

        self._count("knn_sketched")
        _KNN_QUERIES.inc(path="sketch")
        cand, bound = self._sketch(p, m)
        vals = self._gather_canonical(s, cand)

        # Value-only sort: numpy's SIMD float sort is several times faster
        # than introselect argpartition at this shape, and the sorted row
        # yields both the k-th value and the boundary-tie test
        # (``svals[:, k] > kth`` iff exactly k values are <= kth).
        svals = np.sort(vals, axis=1)
        kth = svals[:, k - 1]
        good = (bound > kth) & (svals[:, k] > kth)

        idx = np.empty((n, k), dtype=np.intp)
        dist = np.empty((n, k), dtype=np.float32)
        mask = vals <= kth[:, None]
        mask &= good[:, None]
        n_good = n - int(np.count_nonzero(~good))
        if n_good:
            # Certified rows have exactly k marked candidates; nonzero
            # walks them row-major, so the columns reshape to (n_good, k).
            rr, cc = np.nonzero(mask)
            loc_vals = vals[rr, cc].reshape(n_good, k)
            loc_idx = cand[rr, cc].reshape(n_good, k).astype(np.intp)
            order = np.lexsort((loc_idx, loc_vals), axis=1)
            rows_2d = np.arange(n_good)[:, None]
            idx[good] = loc_idx[rows_2d, order]
            dist[good] = loc_vals[rows_2d, order]

        bad = np.flatnonzero(~good)
        if bad.size:
            self._count_n("knn_fallback_rows", int(bad.size))
            _KNN_FALLBACK_ROWS.inc(int(bad.size))
            idx[bad], dist[bad] = _packed_smallest_k(self._full_rows(s, bad), k)
        return idx, np.sqrt(dist, out=dist)

    def _sketch(self, parent: tuple[int, ...], m: int) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour sketch of ``parent``: top-``m`` candidates + bound.

        ``cand[r]`` holds the ``m`` nearest candidates of row ``r`` under
        the parent's distances (any order); ``bound[r]`` is the
        ``(m+1)``-th smallest parent distance — a lower bound on the
        parent (hence child) distance of every non-candidate. Which tied
        candidate lands in the sketch is irrelevant for correctness: only
        certification soundness matters, and the bound is a value, not an
        index.
        """
        key = ("k", parent, m)
        cached = self._cache.get(key)
        if cached is not None:
            self._count("sketch_hits")
            _HITS.inc(kind="sketch")
            return cached  # type: ignore[return-value]
        self._count("sketch_misses")
        _MISSES.inc(kind="sketch")
        Dp = self.squared_distances(parent)
        ap = np.argpartition(Dp, m, axis=1)
        cand = ap[:, :m].astype(np.int32)
        bound = np.take_along_axis(Dp, ap[:, m : m + 1], axis=1)[:, 0].copy()
        cand.flags.writeable = False
        bound.flags.writeable = False
        sketch = (cand, bound)
        self._cache.put(key, sketch)
        self._refresh_gauges()
        return sketch

    def _column(self, feature: int) -> np.ndarray:
        """Contiguous float64 column of one feature (read-only)."""
        col = self._cols.get(feature)
        if col is None:
            col = np.ascontiguousarray(self.X[:, feature])
            col.flags.writeable = False
            self._cols[feature] = col
        return col

    def _gather_canonical(self, s: tuple[int, ...], cand: np.ndarray) -> np.ndarray:
        """Canonical-chain squared distances gathered at candidate columns.

        Recomputed straight from the feature *columns* — kilobytes that
        live in L1 — instead of gathering from ``(n, n)`` blocks, whose
        random access dominates sketched-query cost. The bits still match
        the composed matrix exactly: each per-feature term repeats
        :meth:`feature_block`'s arithmetic (float64 difference, squared,
        rounded once to float32) at the gathered entries — the multiply
        ufunc storing into a float32 ``out`` applies the same C
        double-to-float cast as ``astype`` — and elementwise addition
        commutes with gathering, so the left-to-right float32 sum in
        sorted order *is* the canonical chain. Candidates never include
        ``self`` (they come from a diagonal-masked parent), so the
        diagonal needs no handling here. Scratch buffers are allocated
        per call: the provider is shared across scorer threads.
        """
        gbuf = np.empty(cand.shape, dtype=np.float64)
        out = np.empty(cand.shape, dtype=np.float32)
        term: np.ndarray | None = None
        for i, f in enumerate(s):
            col = self._column(f)
            # mode="clip" skips np.take's bounds-checking buffer; candidate
            # indices are provider-made, always in range.
            np.take(col, cand, out=gbuf, mode="clip")
            np.subtract(col[:, None], gbuf, out=gbuf)
            if i == 0:
                np.multiply(gbuf, gbuf, out=out)
            else:
                if term is None:
                    term = np.empty(cand.shape, dtype=np.float32)
                np.multiply(gbuf, gbuf, out=term)
                out += term
        return out

    def _full_rows(self, s: tuple[int, ...], rows: np.ndarray) -> np.ndarray:
        """Full canonical squared-distance rows (diagonal ``+inf``).

        Serves the uncertified rows of a sketched query; recomputed from
        feature columns like :meth:`_gather_canonical` (row-slicing also
        commutes with the canonical chain), so these bits equal the
        corresponding rows of the composed matrix. The ``+inf``
        self-distance mask is applied after the first term, exactly where
        the composition chain applies it (``inf + x = inf`` thereafter).
        """
        shape = (rows.size, self.n_samples)
        out: np.ndarray | None = None
        start = 0
        # A cached composed prefix (left by a sketch build) seeds the rows
        # with one contiguous copy; row-slicing commutes with the chain,
        # so this changes cost only, never bits.
        for length in range(len(s), 0, -1):
            base = self._cache.get(("c", s[:length]))
            if base is not None:
                out = base[rows]  # fancy indexing: a fresh writable copy
                start = length
                break
        gbuf = np.empty(shape, dtype=np.float64)
        term: np.ndarray | None = None
        for i in range(start, len(s)):
            col = self._column(s[i])
            np.subtract(col[rows][:, None], col[None, :], out=gbuf)
            if out is None:
                out = np.empty(shape, dtype=np.float32)
                np.multiply(gbuf, gbuf, out=out)
                out[np.arange(rows.size), rows] = np.inf
            else:
                if term is None:
                    term = np.empty(shape, dtype=np.float32)
                np.multiply(gbuf, gbuf, out=term)
                out += term
        return out

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int | float]:
        """Snapshot of the substrate's counters (the obs / cost view)."""
        with self._stats_lock:
            counters = {
                "block_hits": self._block_hits,
                "block_misses": self._block_misses,
                "composed_hits": self._composed_hits,
                "composed_misses": self._composed_misses,
                "parent_reuses": self._parent_reuses,
                "sketch_hits": self._sketch_hits,
                "sketch_misses": self._sketch_misses,
                "knn_sketched": self._knn_sketched,
                "knn_full": self._knn_full,
                "knn_fallback_rows": self._knn_fallback_rows,
                "blocks_slid": self._blocks_slid,
                "composed_slid": self._composed_slid,
            }
        kinds = self._cache.kind_counts()
        counters.update(
            blocks=kinds.get("b", 0),
            composed=kinds.get("c", 0),
            sketches=kinds.get("k", 0),
            nbytes=self._cache.nbytes,
            evictions=self._cache.evictions,
            hits=counters["block_hits"] + counters["composed_hits"],
            misses=counters["block_misses"] + counters["composed_misses"],
        )
        return counters

    def clear(self) -> None:
        """Drop every cached block and composed matrix (counters reset)."""
        self._cache.clear()
        with self._stats_lock:
            self._block_hits = self._block_misses = 0
            self._composed_hits = self._composed_misses = 0
            self._parent_reuses = 0
            self._sketch_hits = self._sketch_misses = 0
            self._knn_sketched = self._knn_full = 0
            self._knn_fallback_rows = 0
            self._blocks_slid = self._composed_slid = 0
        self._refresh_gauges()

    def _count(self, name: str) -> None:
        with self._stats_lock:
            setattr(self, f"_{name}", getattr(self, f"_{name}") + 1)

    def _count_n(self, name: str, amount: int) -> None:
        with self._stats_lock:
            setattr(self, f"_{name}", getattr(self, f"_{name}") + amount)

    def _record_eviction(self, key: tuple, value: np.ndarray) -> None:
        # Runs under the cache lock; keep it to counter work only.
        _EVICTIONS.inc()

    def _refresh_gauges(self) -> None:
        kinds = self._cache.kind_counts()
        _BLOCKS.set(kinds.get("b", 0))
        _COMPOSED.set(kinds.get("c", 0))
        _BYTES.set(self._cache.nbytes)

    # ------------------------------------------------------------------
    # Pickling: ship the recipe, not the cache — or, through the shm
    # plane, ship *references* and attach the parent's bits in place.
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict[str, object]:
        state: dict[str, object] = {
            "X": self.X,
            "max_bytes": self.max_bytes,
            "max_compose_dim": self.max_compose_dim,
            "sketch_factor": self.sketch_factor,
        }
        from repro.shm import plane as _shm

        if _shm.shm_enabled():
            plane = _shm.get_plane(create=False)
            if plane is not None:
                fp = self.x_fingerprint
                x_ref = plane.ref(("data", fp))
                if x_ref is not None:
                    # The dataset is published: ship the ref instead of the
                    # bytes, plus refs for every published warm block so
                    # workers start with the parent's substrate attached.
                    state["X"] = x_ref
                    block_refs = {}
                    for key, _ in self._cache.items_snapshot():
                        if key[0] != "b":
                            continue
                        block_ref = plane.ref(("block", fp, int(key[1])))
                        if block_ref is not None:
                            block_refs[int(key[1])] = block_ref
                    if block_refs:
                        state["shm_blocks"] = block_refs
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        from repro.shm import plane as _shm

        X = state["X"]
        block_refs = state.get("shm_blocks") or {}
        shm_attached = False
        if isinstance(X, _shm.ArrayRef):
            attached = _shm.get_plane().attach(X)
            if attached is None:
                raise RuntimeError(
                    f"distance provider dataset segment {X.segment!r} "  # type: ignore[union-attr]
                    "vanished before attach; the publishing process must "
                    "keep its lease while workers deserialise"
                )
            X = attached
            shm_attached = True
        self.X = X  # type: ignore[assignment]
        self.max_bytes = state["max_bytes"]  # type: ignore[assignment]
        self.max_compose_dim = state["max_compose_dim"]  # type: ignore[assignment]
        self.sketch_factor = state.get("sketch_factor", DEFAULT_SKETCH_FACTOR)  # type: ignore[assignment]
        self._init_runtime()
        if shm_attached and block_refs:
            plane = _shm.get_plane()
            for feature, block_ref in block_refs.items():
                view = plane.attach(block_ref)
                if view is None:
                    continue  # lazy recompute reproduces the same bits
                self._cache.put(("b", int(feature)), view)

    def __repr__(self) -> str:
        return (
            f"DistanceProvider(n_samples={self.n_samples}, "
            f"n_features={self.n_features}, max_bytes={self.max_bytes}, "
            f"cached={len(self._cache)})"
        )


class KNNQueryView:
    """A provider-backed neighbour query bound to one subspace.

    The object detectors receive through ``score(..., knn=...)``: a
    single method :meth:`kneighbors` answering exact canonical k-NN for
    the bound subspace (see :meth:`DistanceProvider.kneighbors`). Holding
    the parent hint here keeps the detector API free of subspace-growth
    concepts. A view bound to a composed ``matrix`` (a
    :meth:`DistanceProvider.walk` node) selects from it with the packed-key
    selection of the provider's full path.
    """

    __slots__ = ("_provider", "_features", "_parent", "_matrix")

    def __init__(
        self,
        provider: DistanceProvider,
        features: tuple[int, ...],
        parent: Iterable[int] | None = None,
        matrix: np.ndarray | None = None,
    ) -> None:
        self._provider = provider
        self._features = features
        self._parent = tuple(parent) if parent is not None else None
        self._matrix = matrix

    @property
    def n_samples(self) -> int:
        """Number of points served by the bound provider."""
        return self._provider.n_samples

    def kneighbors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Canonical k nearest non-self neighbours of every point."""
        if self._matrix is not None:
            return _select(self._matrix, self._provider._check_k(k))
        return self._provider.kneighbors(
            self._features, k, parent=self._parent
        )

    def __repr__(self) -> str:
        return (
            f"KNNQueryView(features={self._features}, parent={self._parent})"
        )


#: One provider per dataset content, shared across scorers and explainers;
#: weak values so a provider dies with its last scorer.
_SHARED: "weakref.WeakValueDictionary[tuple, DistanceProvider]" = (
    weakref.WeakValueDictionary()
)
_SHARED_LOCK = threading.Lock()


def shared_provider(
    X: np.ndarray,
    *,
    max_bytes: int | None = None,
    max_compose_dim: int = DEFAULT_MAX_COMPOSE_DIM,
) -> DistanceProvider | None:
    """The process-wide provider for this dataset content, or ``None``.

    Providers are keyed by a content fingerprint (shape + bytes), the same
    sharing rule the pipeline applies to scorers, so every explainer and
    every detector scoring the same dataset reuses one set of feature
    blocks. Returns ``None`` — the substrate disables itself — when:

    * the resolved byte budget is zero (``REPRO_DIST_CACHE_MB=0``), or
    * the budget cannot hold even a minimal working set (two float32
      blocks plus one composed float32 matrix, ``12 n^2`` bytes).
    """
    budget = resolve_dist_cache_bytes() if max_bytes is None else int(max_bytes)
    if budget <= 0:
        return None
    X = np.asarray(X)
    n = X.shape[0] if X.ndim == 2 else 0
    if budget < 12 * n * n:
        return None
    key = (_fingerprint(X), X.shape)
    with _SHARED_LOCK:
        provider = _SHARED.get(key)
        if provider is None or provider.max_bytes != budget:
            provider = DistanceProvider(
                X, max_bytes=budget, max_compose_dim=max_compose_dim
            )
            _SHARED[key] = provider
        return provider
