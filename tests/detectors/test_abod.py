"""Unit tests for the Fast ABOD detector."""

import numpy as np
import pytest

from repro.detectors import FastABOD
from repro.exceptions import ValidationError
from repro.neighbors.provider import DistanceProvider


class TestFastABODBehaviour:
    def test_detects_planted_outlier(self, blob_with_outlier):
        X, outlier = blob_with_outlier
        scores = FastABOD(k=10).score(X)
        assert int(np.argmax(scores)) == outlier

    def test_border_point_outscores_center(self, rng):
        # ABOD's signature property: points at the border of the data see
        # their neighbours in similar directions (low angle variance).
        X = rng.uniform(-1, 1, size=(200, 2))
        X[0] = [0.0, 0.0]  # deep inside
        X[1] = [3.0, 3.0]  # far outside the support
        scores = FastABOD(k=15).score(X)
        assert scores[1] > scores[0]

    def test_high_dimensional_data(self, rng):
        X = rng.normal(size=(100, 40))
        X[0] += 8.0
        scores = FastABOD(k=10).score(X)
        assert int(np.argmax(scores)) == 0

    def test_coincident_points_finite(self):
        X = np.array([[0.0, 0.0]] * 20 + [[4.0, 4.0]])
        scores = FastABOD(k=5).score(X)
        assert np.isfinite(scores).all()

    def test_two_points_scores_zero(self):
        scores = FastABOD(k=2).score([[0.0, 0.0], [1.0, 1.0]])
        assert (scores == 0.0).all()

    def test_deterministic(self, rng):
        X = rng.normal(size=(50, 3))
        det = FastABOD(k=8)
        assert np.allclose(det.score(X), det.score(X))


class TestFastABODInterface:
    def test_requires_k_at_least_two(self):
        with pytest.raises(ValidationError):
            FastABOD(k=1)

    def test_cache_key(self):
        assert FastABOD(k=10).cache_key() != FastABOD(k=12).cache_key()


class TestFastABODKNNQueryPath:
    @pytest.mark.parametrize("n", [120, 800])
    def test_knn_view_matches_precomputed_distances_bitwise(
        self, rng, direct_knn, n
    ):
        # Fast ABOD needs only neighbour indices: the provider's k-NN view
        # (full path at n = 120, sketch at n = 800) must pick exactly the
        # neighbours argpartition picks on the canonical float32 matrix.
        X = rng.normal(size=(n, 6))
        provider = DistanceProvider(X, max_bytes=1 << 26)
        s = (0, 2, 5)
        P = X[:, list(s)]
        via_knn = FastABOD(k=10).score(P, knn=provider.knn_view(s, parent=(0, 2)))
        direct = FastABOD(k=10).score(P, knn=direct_knn(X, s))
        assert via_knn.tobytes() == direct.tobytes()
        path = "knn_full" if n == 120 else "knn_sketched"
        assert provider.stats()[path] == 1

    def test_knn_view_close_to_direct(self, rng):
        # The substrate selects in float32, the direct path in float64.
        X = rng.normal(size=(120, 6))
        provider = DistanceProvider(X, max_bytes=1 << 24)
        s = (1, 3, 4)
        P = X[:, list(s)]
        via_knn = FastABOD(k=10).score(P, knn=provider.knn_view(s))
        np.testing.assert_allclose(via_knn, FastABOD(k=10).score(P), rtol=1e-4)

    def test_two_points_via_knn_view_scores_zero(self):
        X = np.array([[0.0, 1.0], [2.0, 3.0]])
        provider = DistanceProvider(X, max_bytes=1 << 20)
        scores = FastABOD(k=5).score(X, knn=provider.knn_view((0, 1)))
        np.testing.assert_array_equal(scores, np.zeros(2))
