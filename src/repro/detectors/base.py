"""Detector protocol shared by all unsupervised outlier detectors.

Design notes
------------
The explanation algorithms repeatedly re-score *projections* of the same
dataset onto thousands of candidate subspaces, so the detector interface is
a single stateless call :meth:`Detector.score` that fits on ``X`` and
returns one outlyingness score per row — there is no separate
``fit``/``predict`` split to keep in sync across projections.

Two conventions every implementation must honour:

* **Higher score = more outlying.** Detectors whose native criterion is
  inverted (Fast ABOD: low angle variance = outlier) negate internally.
* **Determinism per input.** Stochastic detectors derive their randomness
  from ``(seed, fingerprint(X))`` so that scoring the same projection twice
  yields identical scores — a requirement of the subspace score cache.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import ClassVar

import numpy as np

from repro.obs.trace import span as obs_span
from repro.utils.validation import check_matrix

__all__ = ["Detector", "data_fingerprint"]


def data_fingerprint(X: np.ndarray) -> int:
    """Deterministic 32-bit fingerprint of an array's contents and shape."""
    header = np.asarray(X.shape, dtype=np.int64).tobytes()
    return zlib.crc32(header + np.ascontiguousarray(X).tobytes())


class Detector(ABC):
    """Abstract unsupervised outlier detector.

    Subclasses set the class attribute :attr:`name` (used in reports and
    cache keys) and implement :meth:`_score_validated`, receiving an already
    validated float64 matrix.
    """

    name: ClassVar[str] = "detector"

    #: Whether :meth:`score` can work from a k-nearest-neighbour *query*
    #: alone rather than from ``X``. Neighbourhood-based detectors (LOF,
    #: Fast ABOD, k-NN) opt in; the subspace scorer only attaches a
    #: distance provider when this is set, and hands each evaluation the
    #: substrate's query view, which answers exact canonical k-NN (see
    #: :meth:`repro.neighbors.DistanceProvider.kneighbors`).
    uses_knn_queries: ClassVar[bool] = False

    def score(
        self,
        X: np.ndarray,
        *,
        knn: "object | None" = None,
    ) -> np.ndarray:
        """Outlyingness score for every row of ``X`` (higher = more outlying).

        Parameters
        ----------
        X:
            Data matrix of shape ``(n_samples, n_features)``.
        knn:
            Optional neighbour-query view with a
            ``kneighbors(k) -> (indices, distances)`` method returning the
            canonically ordered k nearest non-self neighbours of every
            row (the view served by
            :meth:`repro.neighbors.DistanceProvider.knn_view`). Only
            honoured when :attr:`uses_knn_queries` is true; other
            detectors ignore it and score from ``X``.

        Returns
        -------
        numpy.ndarray
            Float vector of length ``n_samples``.
        """
        X = check_matrix(X, name="X", min_rows=2)
        with obs_span(
            "detector.score",
            detector=self.name,
            n_samples=X.shape[0],
            n_features=X.shape[1],
        ):
            if knn is not None and self.uses_knn_queries:
                scores = self._score_with_knn(X, knn)
            else:
                scores = self._score_validated(X)
        return np.asarray(scores, dtype=np.float64)

    @abstractmethod
    def _score_validated(self, X: np.ndarray) -> np.ndarray:
        """Score a validated matrix; implemented by subclasses."""

    def _score_with_knn(self, X: np.ndarray, knn: object) -> np.ndarray:
        """Score from a k-NN query view alone.

        Overridden by detectors that set :attr:`uses_knn_queries`; the
        default ignores the view and recomputes from ``X``.
        """
        return self._score_validated(X)

    def cache_key(self) -> tuple[object, ...]:
        """Hashable identity of this detector's scoring behaviour.

        Two detector instances with equal cache keys must produce identical
        scores for identical inputs; the subspace scorer uses this to share
        cached score vectors.
        """
        return (self.name,) + tuple(sorted(self._params().items()))

    def _params(self) -> dict[str, object]:
        """Parameter mapping included in ``repr`` and :meth:`cache_key`."""
        return {}

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self._params().items()))
        return f"{type(self).__name__}({params})"
