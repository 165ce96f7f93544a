"""Local Outlier Factor (Breunig et al., SIGMOD 2000).

Density-based detector: a point is outlying when its local reachability
density is low relative to that of its k nearest neighbours. Inliers score
around 1, outliers significantly above 1 (paper Section 2.1).

The paper's testbed uses ``k = 15``.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Detector
from repro.neighbors.knn import KNNIndex
from repro.obs.trace import span as obs_span
from repro.utils.validation import check_positive_int

__all__ = ["LOF"]

# Cap on local reachability density: duplicated points have zero average
# reachability distance, whose reciprocal would be infinite. The cap keeps
# the LOF ratio finite while preserving "duplicates are extremely dense".
_MAX_LRD = 1e12


class LOF(Detector):
    """Local Outlier Factor detector.

    Parameters
    ----------
    k:
        Number of nearest neighbours (default 15, the paper's setting).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> X = np.vstack([rng.normal(0, 0.2, size=(60, 2)), [[4.0, 4.0]]])
    >>> scores = LOF(k=10).score(X)
    >>> int(np.argmax(scores))
    60
    """

    name = "lof"
    uses_knn_queries = True

    def __init__(self, k: int = 15) -> None:
        self.k = check_positive_int(k, name="k")

    def _params(self) -> dict[str, object]:
        return {"k": self.k}

    def _score_validated(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        k = min(self.k, n - 1)
        with obs_span("detector.lof.knn", n_samples=n, k=k):
            neigh_idx, neigh_dist = KNNIndex(X).kneighbors(k)
        return self._lof_math(neigh_idx, neigh_dist)

    def _score_with_knn(self, X: np.ndarray, knn) -> np.ndarray:
        k = min(self.k, X.shape[0] - 1)
        return self._lof_math(*knn.kneighbors(k))

    @staticmethod
    def _lof_math(neigh_idx: np.ndarray, neigh_dist: np.ndarray) -> np.ndarray:
        """LOF from canonically ordered (ascending) neighbour lists."""
        # k-distance of every point = distance to its k-th neighbour.
        k_dist = neigh_dist[:, -1]
        # reach-dist_k(p <- o) = max(k-dist(o), d(p, o)) for o in kNN(p).
        reach = np.maximum(k_dist[neigh_idx], neigh_dist)
        avg_reach = reach.mean(axis=1)
        with np.errstate(divide="ignore"):
            lrd = np.where(avg_reach > 0.0, 1.0 / avg_reach, _MAX_LRD)
        lrd = np.minimum(lrd, _MAX_LRD)
        # LOF(p) = mean over neighbours of lrd(o) / lrd(p).
        return lrd[neigh_idx].mean(axis=1) / lrd
