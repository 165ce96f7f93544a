"""Unit tests for repro.subspaces.scorer.SubspaceScorer."""

import numpy as np
import pytest

from repro.detectors import LOF, KNNDetector
from repro.exceptions import ValidationError
from repro.stats.zscore import zscores
from repro.subspaces import SubspaceScorer


@pytest.fixture()
def scorer(subspace_outlier_data) -> SubspaceScorer:
    X, _, _ = subspace_outlier_data
    return SubspaceScorer(X, LOF(k=10))


class TestCaching:
    def test_second_lookup_is_cached(self, scorer):
        first = scorer.scores((0, 1))
        assert scorer.n_evaluations == 1
        second = scorer.scores((1, 0))  # same subspace, different order
        assert scorer.n_evaluations == 1
        assert first is second

    def test_distinct_subspaces_evaluated(self, scorer):
        scorer.scores((0, 1))
        scorer.scores((0, 2))
        assert scorer.n_evaluations == 2

    def test_hit_rate(self, scorer):
        scorer.scores((0, 1))
        scorer.scores((0, 1))
        assert scorer.cache_hit_rate == pytest.approx(0.5)

    def test_clear_cache(self, scorer):
        scorer.scores((0, 1))
        scorer.clear_cache()
        assert scorer.n_evaluations == 0
        scorer.scores((0, 1))
        assert scorer.n_evaluations == 1

    def test_eviction_under_budget(self, subspace_outlier_data):
        X, _, _ = subspace_outlier_data
        tiny = SubspaceScorer(X, LOF(k=5), max_cache_bytes=2 * X.shape[0] * 8)
        for f in range(5):
            tiny.scores((f,))
        assert tiny.n_evaluations == 5
        tiny.scores((0,))  # long evicted
        assert tiny.n_evaluations == 6


class TestScores:
    def test_matches_direct_detector_call(self, subspace_outlier_data):
        X, _, _ = subspace_outlier_data
        scorer = SubspaceScorer(X, LOF(k=10))
        expected = LOF(k=10).score(X[:, [2, 4]])
        assert np.allclose(scorer.scores((2, 4)), expected)

    def test_zscores_match_stats_module(self, scorer):
        raw = scorer.scores((0, 1))
        assert np.allclose(scorer.zscores((0, 1)), zscores(raw))

    def test_point_zscore_of_outlier_is_high(self, subspace_outlier_data):
        X, point, subspace = subspace_outlier_data
        scorer = SubspaceScorer(X, LOF(k=10))
        assert scorer.point_zscore(subspace, point) > 3.0

    def test_point_zscore_constant_scores(self):
        # A detector that returns constants: z-score defined as 0.
        X = np.ones((10, 2)) * np.arange(10)[:, None]
        scorer = SubspaceScorer(X, KNNDetector(k=1))
        # equally spaced points give constant kth distances
        assert scorer.point_zscore((0,), 3) == 0.0

    def test_points_zscores(self, scorer):
        z = scorer.points_zscores((0, 1), [0, 3, 5])
        full = scorer.zscores((0, 1))
        assert np.allclose(z, full[[0, 3, 5]])


class TestValidation:
    def test_rejects_non_detector(self, subspace_outlier_data):
        X, _, _ = subspace_outlier_data
        with pytest.raises(ValidationError, match="Detector"):
            SubspaceScorer(X, detector=lambda x: x)

    def test_rejects_out_of_range_subspace(self, scorer):
        from repro.exceptions import SubspaceError

        with pytest.raises(SubspaceError):
            scorer.scores((99,))

    def test_rejects_out_of_range_point(self, scorer):
        with pytest.raises(ValidationError, match="point index"):
            scorer.point_score((0,), 10_000)

    def test_detectors_do_not_share_cache_entries(self, subspace_outlier_data):
        X, _, _ = subspace_outlier_data
        a = SubspaceScorer(X, LOF(k=5))
        b = SubspaceScorer(X, LOF(k=20))
        assert not np.allclose(a.scores((0, 1)), b.scores((0, 1)))


class TestBatchScoring:
    def test_scores_many_matches_scalar(self, scorer):
        subspaces = [(0, 1), (2, 4), (1, 3)]
        batch = scorer.scores_many(subspaces)
        assert len(batch) == 3
        for subspace, vector in zip(subspaces, batch):
            assert vector is scorer.scores(subspace)

    def test_scores_many_counts_duplicates_as_hits(self, scorer):
        # A batch with repeats must behave like the equivalent scalar
        # lookup loop: one evaluation per distinct subspace, the rest hits.
        batch = scorer.scores_many([(0, 1), (1, 0), (0, 1), (2, 3)])
        assert scorer.n_evaluations == 2
        assert batch[0] is batch[1] and batch[1] is batch[2]
        assert scorer._cache.hits == 2

    def test_scores_many_mixed_hits_and_misses(self, scorer):
        scorer.scores((0, 1))
        scorer.scores_many([(0, 1), (2, 4)])
        assert scorer.n_evaluations == 2

    def test_scores_many_empty(self, scorer):
        assert scorer.scores_many([]) == []

    def test_cached_vectors_are_read_only(self, scorer):
        vector = scorer.scores((0, 1))
        with pytest.raises(ValueError):
            vector[0] = 123.0
        batch = scorer.scores_many([(2, 4)])
        with pytest.raises(ValueError):
            batch[0][:] = 0.0

    def test_point_zscores_many(self, scorer):
        subspaces = [(0, 1), (2, 4), (3,)]
        z = scorer.point_zscores_many(subspaces, 0)
        assert z.shape == (3,)
        for value, subspace in zip(z, subspaces):
            assert value == pytest.approx(scorer.point_zscore(subspace, 0))

    def test_points_zscores_many(self, scorer):
        subspaces = [(0, 1), (2, 4)]
        points = [0, 3, 5]
        z = scorer.points_zscores_many(subspaces, points)
        assert z.shape == (2, 3)
        for row, subspace in zip(z, subspaces):
            assert np.allclose(row, scorer.points_zscores(subspace, points))

    def test_batch_validation_happens_before_any_scoring(self, scorer):
        from repro.exceptions import SubspaceError

        with pytest.raises(SubspaceError):
            scorer.scores_many([(0, 1), (99,)])
        # The valid prefix must not have been evaluated.
        assert scorer.n_evaluations == 0


class TestBackendDispatch:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backend_batch_matches_serial(self, subspace_outlier_data, backend):
        from repro.exec import resolve_backend

        X, _, _ = subspace_outlier_data
        reference = SubspaceScorer(X, LOF(k=10))
        subject = SubspaceScorer(
            X, LOF(k=10), backend=resolve_backend(backend, n_jobs=2)
        )
        subspaces = [(0, 1), (2, 4), (1, 3), (0, 5)]
        expected = reference.scores_many(subspaces)
        got = subject.scores_many(subspaces)
        subject.close()
        for e, g in zip(expected, got):
            assert e.tobytes() == g.tobytes()

    def test_backend_property_and_close(self, subspace_outlier_data):
        from repro.exec import ThreadBackend

        X, _, _ = subspace_outlier_data
        scorer = SubspaceScorer(X, LOF(k=10), backend=ThreadBackend(n_jobs=2))
        assert scorer.backend.name == "thread"
        scorer.scores_many([(0, 1)])
        scorer.close()


class TestWalk:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("provider", [None, False])
    def test_scores_every_subspace_once(
        self, subspace_outlier_data, backend, provider
    ):
        from itertools import combinations

        from repro.exec import resolve_backend

        X, _, _ = subspace_outlier_data
        reference = SubspaceScorer(X, LOF(k=10), distance_provider=provider)
        subject = SubspaceScorer(
            X,
            LOF(k=10),
            backend=resolve_backend(backend, n_jobs=2),
            distance_provider=provider,
        )
        walked = list(subject.walk((3, 1)))
        subject.close()
        expected = [s for m in (1, 3) for s in combinations(range(6), m)]
        assert sorted(s for s, _ in walked) == sorted(expected)
        for s, scores in walked:
            assert scores.tobytes() == reference.scores(s).tobytes(), s

    def test_caches_nothing_and_counts_evaluations(self, scorer):
        from repro.obs import metrics as obs_metrics

        scored = obs_metrics.counter("repro_scorer_subspaces_scored_total")
        before = scored.value(detector="lof")
        assert len(list(scorer.walk((2,)))) == 15
        assert scored.value(detector="lof") - before == 15
        assert scorer.n_evaluations == 15
        stats = scorer.cache_stats
        assert stats["hits"] == stats["misses"] == 0
        assert scorer.export_cache() == []

    def test_validates_before_dispatch(self, scorer):
        with pytest.raises(ValidationError, match="exceeds dataset width"):
            scorer.walk((2, 7))
        with pytest.raises(ValidationError):
            scorer.walk((0,))
        assert list(scorer.walk(())) == []
        assert scorer.n_evaluations == 0
