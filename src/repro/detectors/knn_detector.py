"""k-NN distance detector (Ramaswamy et al. style) — testbed extension.

Not part of the paper's trio, but the paper's first research question —
*"is it effective to combine any explanation algorithm with any
off-the-shelf outlier detector?"* — invites plugging additional detectors
into the pipelines. This simple distance-based detector is the classic
fourth family (distance-based) the paper's Section 3.1 mentions as
"frequently outperformed" by the chosen three; the ablation benchmarks use
it to verify that claim inside our testbed.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Detector
from repro.exceptions import ValidationError
from repro.neighbors.knn import KNNIndex
from repro.utils.validation import check_positive_int

__all__ = ["KNNDetector"]


class KNNDetector(Detector):
    """Outlyingness as distance to the k-th (or mean of the k) neighbours.

    Parameters
    ----------
    k:
        Neighbourhood size.
    aggregation:
        ``"kth"`` scores by the distance to the k-th nearest neighbour,
        ``"mean"`` by the average distance over the k nearest neighbours.
    """

    name = "knn"
    uses_knn_queries = True

    def __init__(self, k: int = 10, aggregation: str = "kth") -> None:
        self.k = check_positive_int(k, name="k")
        if aggregation not in ("kth", "mean"):
            raise ValidationError(
                f"aggregation must be 'kth' or 'mean', got {aggregation!r}"
            )
        self.aggregation = aggregation

    def _params(self) -> dict[str, object]:
        return {"k": self.k, "aggregation": self.aggregation}

    def _score_validated(self, X: np.ndarray) -> np.ndarray:
        return self._score_with_knn(X, KNNIndex(X))

    def _score_with_knn(self, X: np.ndarray, knn) -> np.ndarray:
        k = min(self.k, X.shape[0] - 1)
        _, dist = knn.kneighbors(k)
        if self.aggregation == "kth":
            return dist[:, -1]
        return dist.mean(axis=1)
