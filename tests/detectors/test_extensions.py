"""Unit tests for the extension detectors (k-NN distance, Mahalanobis)."""

import numpy as np
import pytest

from repro.detectors import KNNDetector, MahalanobisDetector
from repro.exceptions import ValidationError


class TestKNNDetector:
    def test_detects_planted_outlier(self, blob_with_outlier):
        X, outlier = blob_with_outlier
        scores = KNNDetector(k=5).score(X)
        assert int(np.argmax(scores)) == outlier

    def test_kth_vs_mean_aggregation(self, rng):
        X = rng.normal(size=(50, 2))
        kth = KNNDetector(k=5, aggregation="kth").score(X)
        mean = KNNDetector(k=5, aggregation="mean").score(X)
        assert (kth >= mean).all()  # kth distance bounds the mean from above

    def test_rejects_bad_aggregation(self):
        with pytest.raises(ValidationError):
            KNNDetector(aggregation="median")

    def test_scores_nonnegative(self, rng):
        assert (KNNDetector(k=3).score(rng.normal(size=(30, 2))) >= 0).all()

    @pytest.mark.parametrize("aggregation", ["kth", "mean"])
    def test_knn_view_matches_precomputed_distances_bitwise(
        self, rng, direct_knn, aggregation
    ):
        from repro.neighbors.provider import DistanceProvider

        X = rng.normal(size=(90, 5))
        provider = DistanceProvider(X, max_bytes=1 << 24)
        s = (0, 2, 4)
        P = X[:, list(s)]
        det = KNNDetector(k=7, aggregation=aggregation)
        via_knn = det.score(P, knn=provider.knn_view(s, parent=(0, 2)))
        direct = det.score(P, knn=direct_knn(X, s))
        assert via_knn.tobytes() == direct.tobytes()


class TestMahalanobisDetector:
    def test_detects_planted_outlier(self, blob_with_outlier):
        X, outlier = blob_with_outlier
        scores = MahalanobisDetector().score(X)
        assert int(np.argmax(scores)) == outlier

    def test_accounts_for_correlation(self, rng):
        # Two points equally far from the mean in Euclidean terms, but one
        # lies along the correlation axis: Mahalanobis must prefer the
        # off-axis one as more outlying.
        latent = rng.normal(size=500)
        X = np.column_stack([latent, latent + rng.normal(0, 0.1, 500)])
        X = np.vstack([X, [2.0, 2.0], [2.0, -2.0]])
        scores = MahalanobisDetector().score(X)
        assert scores[-1] > scores[-2]

    def test_degenerate_covariance_regularised(self):
        X = np.array([[1.0, 2.0]] * 20 + [[1.5, 2.5]])
        scores = MahalanobisDetector(regularization=1e-3).score(X)
        assert np.isfinite(scores).all()

    def test_single_feature(self, rng):
        X = rng.normal(size=(40, 1))
        X[0] = 10.0
        scores = MahalanobisDetector().score(X)
        assert int(np.argmax(scores)) == 0

    def test_rejects_bad_regularization(self):
        with pytest.raises(ValidationError):
            MahalanobisDetector(regularization=2.0)


class TestFactory:
    def test_make_paper_detector(self):
        from repro.detectors import make_paper_detector

        assert make_paper_detector("lof").k == 15
        assert make_paper_detector("fast_abod").k == 10
        forest = make_paper_detector("iforest", n_repeats=2)
        assert forest.n_trees == 100
        assert forest.n_repeats == 2

    def test_unknown_name(self):
        from repro.detectors import make_paper_detector

        with pytest.raises(ValidationError):
            make_paper_detector("svm")
