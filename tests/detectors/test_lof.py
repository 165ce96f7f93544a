"""Unit tests for the LOF detector."""

import numpy as np
import pytest

from repro.detectors import LOF
from repro.exceptions import ValidationError
from repro.neighbors.provider import DistanceProvider


class TestLOFBehaviour:
    def test_detects_planted_outlier(self, blob_with_outlier):
        X, outlier = blob_with_outlier
        scores = LOF(k=10).score(X)
        assert int(np.argmax(scores)) == outlier

    def test_inliers_score_near_one(self, rng):
        X = rng.uniform(size=(400, 2))
        scores = LOF(k=15).score(X)
        assert np.median(scores) == pytest.approx(1.0, abs=0.1)

    def test_uniform_grid_scores_close_to_one(self):
        # A regular grid has near-identical local density away from the
        # border, so interior LOF ~ 1 (edge effects decay inwards).
        xs, ys = np.meshgrid(np.arange(12.0), np.arange(12.0))
        X = np.column_stack([xs.ravel(), ys.ravel()])
        scores = LOF(k=4).score(X)
        interior = scores.reshape(12, 12)[4:-4, 4:-4]
        assert np.allclose(interior, 1.0, atol=0.05)

    def test_varying_density(self, rng):
        # Outlier near a sparse cluster should outscore ordinary members of
        # a dense cluster (the scenario LOF was designed for): its score is
        # measured against *local* density, not the global one.
        dense = rng.normal(0.0, 0.05, size=(100, 2))
        sparse = rng.normal(5.0, 1.0, size=(100, 2))
        lone = np.array([[5.0, 12.0]])
        X = np.vstack([dense, sparse, lone])
        scores = LOF(k=10).score(X)
        assert scores[-1] > np.percentile(scores[:100], 99)

    def test_duplicates_do_not_crash(self):
        X = np.array([[0.0, 0.0]] * 30 + [[5.0, 5.0]])
        scores = LOF(k=5).score(X)
        assert np.isfinite(scores).all()
        assert int(np.argmax(scores)) == 30

    def test_k_larger_than_n_clamped(self, rng):
        X = rng.normal(size=(8, 2))
        scores = LOF(k=50).score(X)
        assert scores.shape == (8,)

    def test_invariant_to_translation(self, rng):
        X = rng.normal(size=(60, 3))
        assert np.allclose(LOF(k=10).score(X), LOF(k=10).score(X + 100.0))


class TestLOFInterface:
    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            LOF(k=0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValidationError):
            LOF().score([1.0, 2.0])

    def test_cache_key_distinguishes_k(self):
        assert LOF(k=5).cache_key() != LOF(k=10).cache_key()
        assert LOF(k=5).cache_key() == LOF(k=5).cache_key()

    def test_repr(self):
        assert "k=15" in repr(LOF())


class TestLOFKNNQueryPath:
    def test_knn_view_matches_precomputed_distances_bitwise(
        self, rng, direct_knn
    ):
        # The provider's k-NN view (packed-key full path at n = 120, a
        # certified sketch at n = 800) and argpartition on the precomputed
        # canonical float32 matrix must give the same LOF bits.
        for n, path in ((120, "knn_full"), (800, "knn_sketched")):
            X = rng.normal(size=(n, 6))
            provider = DistanceProvider(X, max_bytes=1 << 26)
            s = (1, 3, 5)
            P = X[:, list(s)]
            view = provider.knn_view(s, parent=(1, 3))
            via_knn = LOF(k=10).score(P, knn=view)
            direct = LOF(k=10).score(P, knn=direct_knn(X, s))
            assert via_knn.tobytes() == direct.tobytes(), n
            assert provider.stats()[path] == 1, n

    def test_knn_view_close_to_direct(self, rng):
        # The substrate works in float32; the direct path in float64.
        X = rng.normal(size=(120, 6))
        provider = DistanceProvider(X, max_bytes=1 << 24)
        s = (0, 2, 4)
        P = X[:, list(s)]
        via_knn = LOF(k=10).score(P, knn=provider.knn_view(s))
        direct = LOF(k=10).score(P)
        np.testing.assert_allclose(via_knn, direct, rtol=1e-4)

    def test_knn_ignored_by_non_knn_detector_flag(self, rng):
        # A detector that does not opt in must ignore the view entirely.
        X = rng.normal(size=(40, 3))
        lof = LOF(k=5)
        try:
            lof.uses_knn_queries = False
            scores = lof.score(X, knn=object())
        finally:
            del lof.uses_knn_queries
        np.testing.assert_array_equal(scores, LOF(k=5).score(X))
