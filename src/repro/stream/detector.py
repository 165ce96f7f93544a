"""Windowed streaming wrapper around any batch detector.

Each arriving point is scored against the current window contents, then
appended. The emitted quantity is the point's *standardised* score within
the window's score distribution — the same z-score convention the batch
testbed uses — so a fixed threshold has a stable meaning as the stream
evolves (and as concepts drift out of the window).

Incremental substrate
---------------------
Once the window is full, consecutive scoring contexts differ by exactly
one row: ``context_t = [w_0..w_{n-1}, p_t]`` becomes
``context_{t+1} = [w_1..w_{n-1}, p_t, p_{t+1}]`` — a slide by one. For
neighbourhood detectors (``uses_knn_queries``) the wrapper therefore keeps
a private :class:`~repro.neighbors.DistanceProvider` over the context and
*slides* it forward per arrival (:meth:`DistanceProvider.slide
<repro.neighbors.DistanceProvider.slide>`): one ``O(n·d)`` strip plus a
kept-region copy instead of ``d`` cold ``O(n²)`` block builds. The
canonical composition chain makes the slid matrices byte-identical to a
cold rebuild, so scores cannot depend on the path taken; with
``REPRO_STREAM_INCREMENTAL=0`` the provider is rebuilt cold each arrival
— the recompute baseline the byte-identity drill compares against.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Detector
from repro.exceptions import ValidationError
from repro.neighbors.provider import DistanceProvider
from repro.obs import metrics as obs_metrics
from repro.stats.zscore import zscore_of
from repro.stream.incremental import stream_incremental_enabled
from repro.stream.window import SlidingWindow
from repro.utils.validation import check_positive_int, check_vector

__all__ = ["StreamingDetector"]

_POINTS = obs_metrics.counter(
    "repro_stream_points_total", "Points ingested by streaming detectors"
)
_WINDOW_FILL = obs_metrics.gauge(
    "repro_stream_window_points", "Points currently held in the sliding window"
)
_LAST_ZSCORE = obs_metrics.gauge(
    "repro_stream_last_zscore", "Windowed z-score of the most recent point"
)
_PROVIDER_SLIDES = obs_metrics.counter(
    "repro_stream_provider_slides_total",
    "Streaming scoring contexts served by sliding the previous arrival's "
    "warm distance provider forward one row",
)
_PROVIDER_REBUILDS = obs_metrics.counter(
    "repro_stream_provider_rebuilds_total",
    "Streaming scoring contexts that built their distance provider cold "
    "(first full window, discontinuity, or REPRO_STREAM_INCREMENTAL=0)",
)


class StreamingDetector:
    """Score a stream point-by-point with a batch detector over a window.

    Parameters
    ----------
    detector:
        Any batch :class:`~repro.detectors.Detector`.
    window_size:
        Number of recent points the detector sees.
    n_features:
        Stream dimensionality.
    warmup:
        Points to absorb before scoring starts; scores during warmup are
        ``0.0`` (nothing to compare against). Defaults to half the window.
    """

    def __init__(
        self,
        detector: Detector,
        window_size: int,
        n_features: int,
        warmup: int | None = None,
    ) -> None:
        if not isinstance(detector, Detector):
            raise ValidationError(
                f"detector must be a Detector, got {type(detector).__name__}"
            )
        self.detector = detector
        self.window = SlidingWindow(window_size, n_features)
        if warmup is None:
            warmup = max(2, window_size // 2)
        self.warmup = check_positive_int(warmup, name="warmup", minimum=2)
        self._ctx_provider: DistanceProvider | None = None
        self._last_context: np.ndarray | None = None

    @property
    def ready(self) -> bool:
        """Whether enough points arrived for scores to be meaningful."""
        return len(self.window) >= self.warmup

    @property
    def last_context(self) -> np.ndarray | None:
        """The matrix the most recent :meth:`update` scored against.

        ``[window-before-append, point]`` — the point is the final row.
        ``None`` until the first post-warmup arrival (and after
        :meth:`ingest`). The explainer reads this instead of re-stacking
        the window, whose :meth:`~repro.stream.SlidingWindow.as_matrix`
        view is already advanced past the scored context.
        """
        return self._last_context

    @property
    def context_provider(self) -> DistanceProvider | None:
        """The warm distance provider over :attr:`last_context`, if any."""
        return self._ctx_provider

    def update(self, point: object) -> float:
        """Score ``point`` against the current window, then ingest it.

        Returns the point's z-score within the window's score
        distribution (0.0 during warmup).
        """
        vector = check_vector(point, name="point")
        score = 0.0
        if self.ready:
            context = np.vstack([self.window.as_matrix(), vector[None, :]])
            raw = self._score_context(context)
            score = zscore_of(raw, context.shape[0] - 1)
            self._last_context = context
        self.window.append(vector)
        _POINTS.inc(detector=self.detector.name)
        _WINDOW_FILL.set(len(self.window), detector=self.detector.name)
        _LAST_ZSCORE.set(score, detector=self.detector.name)
        return score

    def _score_context(self, context: np.ndarray) -> np.ndarray:
        """Raw detector scores for one context matrix.

        Neighbourhood detectors are served from the private provider
        whenever the window is full — a predicate of stream position
        alone, so the routing (and hence every score bit) is identical
        with incremental mode on and off; the kill-switch only decides
        whether the provider arrives warm (slid) or cold (rebuilt).
        """
        if not (self.detector.uses_knn_queries and self.window.is_full):
            return self.detector.score(context)
        full = tuple(range(context.shape[1]))
        provider = self._advance_provider(context, full)
        # k-NN queries compose transiently; caching the full-space matrix
        # here is what lets the next arrival slide it instead of
        # recomposing it, and the query below then reads it in place.
        provider.squared_distances(full)
        return self.detector.score(context, knn=provider.knn_view(full))

    def _advance_provider(
        self, context: np.ndarray, full: tuple[int, ...]
    ) -> DistanceProvider:
        """The distance provider over ``context``, slid forward when warm."""
        previous = self._ctx_provider
        provider: DistanceProvider | None = None
        if (
            stream_incremental_enabled()
            and previous is not None
            and previous.n_samples == context.shape[0]
        ):
            slid = previous.slide(context[-1:], n_evict=1, compose=[full])
            # Guards against any ingestion discontinuity (clear, bulk
            # ingest without scoring); O(n·d), negligible next to scoring.
            if np.array_equal(slid.X, context):
                provider = slid
                _PROVIDER_SLIDES.inc(detector=self.detector.name)
        if provider is None:
            n, d = context.shape
            provider = DistanceProvider(
                context,
                # Private, env-independent budget: all d blocks plus the
                # composed full-space matrix, twice over (the slide holds
                # predecessor and successor alive together).
                max_bytes=max(8 * (d + 2) * n * n, 1 << 20),
                max_compose_dim=d,
                # Sketches are per-window throwaways here; the full
                # canonical path reuses the slid composed matrix instead.
                sketch_factor=0,
            )
            _PROVIDER_REBUILDS.inc(detector=self.detector.name)
        self._ctx_provider = provider
        return provider

    def ingest(self, X: np.ndarray) -> int:
        """Absorb rows into the window without scoring them.

        The bulk path under :meth:`score_stream`'s warmup fast-forward;
        returns the number of rows absorbed. Invalidates the warm
        context provider — the next scored arrival rebuilds cold.
        """
        added = self.window.extend(X)
        self._ctx_provider = None
        self._last_context = None
        _POINTS.inc(added, detector=self.detector.name)
        _WINDOW_FILL.set(len(self.window), detector=self.detector.name)
        return added

    def score_stream(self, X: np.ndarray) -> np.ndarray:
        """Feed every row of ``X`` through :meth:`update`; return all scores.

        Rows that fall entirely inside the warmup (score ``0.0`` by
        definition — :attr:`ready` is still false when each is scored)
        are bulk-ingested instead of round-tripping the scoring loop;
        indices and scores are identical to the one-at-a-time path.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional, got ndim={X.ndim}")
        prefix = min(X.shape[0], max(0, self.warmup - len(self.window)))
        scores = np.zeros(X.shape[0])
        if prefix:
            self.ingest(X[:prefix])
            _LAST_ZSCORE.set(0.0, detector=self.detector.name)
        scores[prefix:] = [self.update(row) for row in X[prefix:]]
        return scores
