"""Fast Angle-Based Outlier Detection (Kriegel et al., KDD 2008).

A point surrounded by neighbours in many directions sees a high variance of
angles to pairs of other points; a point at the border of the distribution
sees its neighbours in similar directions, hence a *small* angle variance.
Fast ABOD restricts the pairs to the k nearest neighbours, reducing the
cubic cost of exact ABOD to :math:`O(k^2 N + N^2)`.

The angle-based outlier factor for point :math:`o` over neighbour pairs
:math:`x_1, x_2` is (paper Section 2.1):

.. math::

    \\mathrm{ABOF}(o) = \\operatorname{Var}_{x_1, x_2}
        \\frac{\\langle \\vec{o x_1}, \\vec{o x_2} \\rangle}
             {\\lVert \\vec{o x_1} \\rVert^2 \\cdot \\lVert \\vec{o x_2} \\rVert^2}

Since *small* ABOF means *more* outlying, :meth:`FastABOD.score` returns
``-log(ABOF)`` to satisfy the library's higher-is-more-outlying convention.
The logarithm is a strictly monotone transform — ABOD's *ranking* of points
is exactly preserved — but it matters for the testbed: raw ABOF values span
many orders of magnitude (angle ratios scale with inverse squared
distances), so the z-score standardisation the explainers apply
(Section 2.2) would otherwise collapse the outliers' standardised scores
into the noise. This mirrors how the original ABOD paper plots ABOF on a
log scale.

The paper's testbed uses ``k = 10``.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Detector
from repro.neighbors.knn import KNNIndex
from repro.obs.trace import span as obs_span
from repro.utils.validation import check_positive_int

__all__ = ["FastABOD"]

# Guards divisions when a neighbour coincides with the evaluated point.
_EPS = 1e-12


class FastABOD(Detector):
    """Fast Angle-Based Outlier Detector.

    Parameters
    ----------
    k:
        Number of nearest neighbours whose pairs form the angle sample
        (default 10, the paper's setting). Needs ``k >= 2`` for at least
        one pair.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(3)
    >>> X = np.vstack([rng.normal(0, 0.3, size=(80, 2)), [[5.0, 5.0]]])
    >>> scores = FastABOD(k=10).score(X)
    >>> int(np.argmax(scores))
    80
    """

    name = "fast_abod"
    # Only the neighbour *indices* feed the angle computation, so the
    # substrate's k-NN query serves it without a full distance matrix.
    uses_knn_queries = True

    def __init__(self, k: int = 10) -> None:
        self.k = check_positive_int(k, name="k", minimum=2)

    def _params(self) -> dict[str, object]:
        return {"k": self.k}

    def _score_validated(self, X: np.ndarray) -> np.ndarray:
        n = X.shape[0]
        k = min(self.k, n - 1)
        if k < 2:
            # Two points only: no angle pairs exist; nobody stands out.
            return np.zeros(n)
        with obs_span("detector.fast_abod.knn", n_samples=n, k=k):
            neigh_idx, _ = KNNIndex(X).kneighbors(k)
        return self._abof_scores(X, neigh_idx, k)

    def _score_with_knn(self, X: np.ndarray, knn) -> np.ndarray:
        n = X.shape[0]
        k = min(self.k, n - 1)
        if k < 2:
            return np.zeros(n)
        neigh_idx, _ = knn.kneighbors(k)
        return self._abof_scores(X, neigh_idx, k)

    @staticmethod
    def _abof_scores(X: np.ndarray, neigh_idx: np.ndarray, k: int) -> np.ndarray:
        n = X.shape[0]
        pair_i, pair_j = np.triu_indices(k, k=1)
        with obs_span("detector.fast_abod.angles", n_samples=n, n_pairs=len(pair_i)):
            # All n points at once: difference vectors (n, k, m), Gram
            # matrices (n, k, k) via one batched matmul, then the pair
            # ratios gathered from the upper triangle.
            vectors = X[neigh_idx] - X[:, None, :]
            sq_norms = np.einsum("nkm,nkm->nk", vectors, vectors)
            gram = vectors @ vectors.transpose(0, 2, 1)
            dots = gram[:, pair_i, pair_j]
            weights = sq_norms[:, pair_i] * sq_norms[:, pair_j]
            ratios = dots / np.maximum(weights, _EPS)
            abof = ratios.var(axis=1)
        # Low angle variance = outlier; the monotone -log keeps ABOD's
        # ranking while taming the heavy tail for z-standardisation.
        return -np.log(abof + _EPS)
