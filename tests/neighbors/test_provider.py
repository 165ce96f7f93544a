"""Tests for the shared distance substrate (repro.neighbors.provider)."""

import pickle

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.neighbors.knn import _smallest_k
from repro.neighbors.provider import (
    DIST_CACHE_MB_ENV,
    DistanceProvider,
    KNNQueryView,
    resolve_dist_cache_bytes,
    shared_provider,
)
from repro.utils.caching import LRUCache


@pytest.fixture
def X():
    rng = np.random.default_rng(42)
    return rng.normal(size=(50, 8))


@pytest.fixture
def X_wide():
    """Large enough that k <= 8 queries satisfy the 8 m <= n sketch rule."""
    rng = np.random.default_rng(42)
    return rng.normal(size=(800, 8))


def direct_sq(X, features):
    """Reference squared distances of a projection, diagonal +inf."""
    P = X[:, list(features)]
    diff = P[:, None, :] - P[None, :, :]
    sq = (diff**2).sum(axis=2)
    np.fill_diagonal(sq, np.inf)
    return sq


class TestFeatureBlocks:
    def test_block_values_and_layout(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 22)
        block = provider.feature_block(3)
        assert block.dtype == np.float32
        assert not block.flags.writeable
        expected = (X[:, 3, None] - X[None, :, 3]) ** 2
        np.testing.assert_allclose(block, expected, rtol=1e-6)
        assert np.all(np.diag(block) == 0.0)

    def test_block_cached_once(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 22)
        a = provider.feature_block(0)
        b = provider.feature_block(0)
        assert a is b
        stats = provider.stats()
        assert stats["block_misses"] == 1
        assert stats["block_hits"] == 1

    def test_block_out_of_range(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 22)
        with pytest.raises(ValidationError):
            provider.feature_block(99)


class TestComposition:
    def test_matches_direct_projection(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        rng = np.random.default_rng(0)
        for _ in range(20):
            dim = int(rng.integers(1, 7))
            sub = tuple(sorted(rng.choice(8, size=dim, replace=False).tolist()))
            sq = provider.squared_distances(sub)
            ref = direct_sq(X, sub)
            off = ~np.eye(len(X), dtype=bool)
            np.testing.assert_allclose(sq[off], ref[off], rtol=1e-5, atol=1e-5)
            assert np.all(np.isinf(np.diag(sq)))
            assert not sq.flags.writeable

    def test_unsorted_input_canonicalised(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        a = provider.squared_distances((4, 1, 6))
        b = provider.squared_distances((1, 4, 6))
        assert a is b  # same cache entry

    def test_composed_cached(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        a = provider.squared_distances((1, 2))
        b = provider.squared_distances((1, 2))
        assert a is b
        stats = provider.stats()
        assert stats["composed_misses"] == 1
        assert stats["composed_hits"] == 1


class TestCanonicalChain:
    """Composed values must not depend on cache state or construction route."""

    def test_parent_route_is_byte_identical(self, X):
        fresh = DistanceProvider(X, max_bytes=1 << 24)
        direct = fresh.squared_distances((0, 2, 5))

        warmed = DistanceProvider(X, max_bytes=1 << 24)
        warmed.squared_distances((0, 2))
        via_parent = warmed.squared_distances((0, 2, 5), parent=(0, 2))
        assert warmed.stats()["parent_reuses"] == 1
        assert direct.tobytes() == via_parent.tobytes()

    def test_prefix_walk_is_byte_identical(self, X):
        fresh = DistanceProvider(X, max_bytes=1 << 24)
        direct = fresh.squared_distances((1, 3, 4, 6))

        walked = DistanceProvider(X, max_bytes=1 << 24)
        walked.squared_distances((1,))
        walked.squared_distances((1, 3))
        walked.squared_distances((1, 3, 4))
        chained = walked.squared_distances((1, 3, 4, 6))  # no explicit hint
        # (1,3) extended (1,), (1,3,4) extended (1,3), and the final call
        # found (1,3,4) via the prefix walk: three reuses.
        assert walked.stats()["parent_reuses"] == 3
        assert direct.tobytes() == chained.tobytes()

    def test_non_prefix_parent_hint_is_ignored_safely(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        provider.squared_distances((2, 5))
        # (2, 5) is not a sorted prefix of (1, 2, 5): reuse must not occur,
        # because float addition in a different order would change bits.
        out = provider.squared_distances((1, 2, 5), parent=(2, 5))
        assert provider.stats()["parent_reuses"] == 0
        ref = DistanceProvider(X, max_bytes=1 << 24).squared_distances((1, 2, 5))
        assert out.tobytes() == ref.tobytes()

    def test_eviction_does_not_change_values(self, X):
        reference = DistanceProvider(X, max_bytes=1 << 24)
        ref = reference.squared_distances((0, 1, 2, 3))

        # Budget fits only ~2 blocks: constant eviction churn.
        tiny_budget = 3 * X.shape[0] * X.shape[0] * 4
        churner = DistanceProvider(X, max_bytes=tiny_budget)
        for sub in [(0, 1), (2, 3), (4, 5), (6, 7), (0, 3), (1, 2)]:
            churner.squared_distances(sub)
        out = churner.squared_distances((0, 1, 2, 3))
        assert churner.stats()["evictions"] > 0
        assert out.tobytes() == ref.tobytes()


class TestBudgetAccounting:
    def test_lru_eviction_respects_budget(self, X):
        n = X.shape[0]
        budget = 3 * n * n * 4  # three float32 blocks
        provider = DistanceProvider(X, max_bytes=budget)
        for f in range(8):
            provider.feature_block(f)
        stats = provider.stats()
        assert stats["evictions"] >= 5
        assert stats["nbytes"] <= budget
        assert stats["blocks"] <= 3

    def test_stats_track_kinds_separately(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        provider.squared_distances((0, 1))
        stats = provider.stats()
        assert stats["blocks"] == 2
        assert stats["composed"] == 1
        n = X.shape[0]
        # Two float32 blocks plus one float32 composed matrix.
        assert stats["nbytes"] == 3 * n * n * 4

    def test_clear_resets(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        provider.squared_distances((0, 1))
        provider.clear()
        stats = provider.stats()
        assert stats["blocks"] == 0
        assert stats["composed"] == 0
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_lru_on_evict_callback(self):
        evicted = []
        cache = LRUCache(
            2 * 800, name=None, on_evict=lambda k, v: evicted.append(k)
        )
        for i in range(4):
            cache.put(("b", i), np.zeros(100))  # 800 bytes each
        assert evicted == [("b", 0), ("b", 1)]
        assert cache.evictions == 2


class TestCoversAndDisable:
    def test_covers_is_dimensionality_cutoff(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24, max_compose_dim=3)
        assert provider.covers((0,))
        assert provider.covers((0, 1, 2))
        assert not provider.covers((0, 1, 2, 3))

    def test_env_zero_disables(self, X, monkeypatch):
        monkeypatch.setenv(DIST_CACHE_MB_ENV, "0")
        assert resolve_dist_cache_bytes() == 0
        assert shared_provider(X) is None

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv(DIST_CACHE_MB_ENV, "lots")
        with pytest.raises(ValidationError):
            resolve_dist_cache_bytes()

    def test_tiny_budget_disables(self, X):
        # Cannot hold a minimal working set: substrate declines.
        assert shared_provider(X, max_bytes=100) is None

    def test_zero_budget_constructor_rejected(self, X):
        with pytest.raises(ValidationError):
            DistanceProvider(X, max_bytes=0)


class TestSharing:
    def test_same_content_shares_instance(self, X):
        a = shared_provider(X, max_bytes=1 << 24)
        b = shared_provider(X.copy(), max_bytes=1 << 24)
        assert a is not None and a is b

    def test_different_content_distinct(self, X):
        a = shared_provider(X, max_bytes=1 << 24)
        b = shared_provider(X + 1.0, max_bytes=1 << 24)
        assert a is not None and b is not None and a is not b


class TestPickling:
    def test_pickle_drops_cache_but_preserves_bits(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        original = provider.squared_distances((1, 4))
        clone = pickle.loads(pickle.dumps(provider))
        assert len(clone._cache) == 0  # cache state not shipped
        assert clone.stats()["hits"] == 0
        rebuilt = clone.squared_distances((1, 4))
        assert rebuilt.tobytes() == original.tobytes()

    def test_pickle_preserves_sketch_factor(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24, sketch_factor=5)
        clone = pickle.loads(pickle.dumps(provider))
        assert clone.sketch_factor == 5


def reference_knn(provider, features, k):
    """Ground-truth k-NN from the composed matrix (the full path)."""
    D = provider.squared_distances(features)
    order = _smallest_k(D, k)
    sq = np.take_along_axis(D, order, axis=1)
    return order, np.sqrt(sq)


class TestCertifiedSketches:
    """kneighbors must be bit-identical to the full path in every regime."""

    def test_sketched_query_is_byte_identical(self, X_wide):
        provider = DistanceProvider(X_wide, max_bytes=1 << 26)
        rng = np.random.default_rng(3)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            s = tuple(sorted(rng.choice(8, size=d, replace=False).tolist()))
            k = int(rng.integers(2, 9))
            idx, dist = provider.kneighbors(s, k)
            ref_idx, ref_dist = reference_knn(provider, s, k)
            assert idx.tobytes() == ref_idx.tobytes()
            assert dist.tobytes() == ref_dist.tobytes()
        assert provider.stats()["knn_sketched"] == 25

    def test_hint_choice_cannot_change_bits(self, X_wide):
        s, k = (1, 3, 5, 7), 8
        baseline = DistanceProvider(X_wide, max_bytes=1 << 26).kneighbors(s, k)
        for hint in (None, (1,), (3, 7), (1, 3, 5), (5,)):
            provider = DistanceProvider(X_wide, max_bytes=1 << 26)
            idx, dist = provider.kneighbors(s, k, parent=hint)
            assert idx.tobytes() == baseline[0].tobytes()
            assert dist.tobytes() == baseline[1].tobytes()

    def test_constant_parent_all_rows_fall_back_exactly(self):
        # A constant anchor feature puts every pairwise parent distance at
        # zero: no row can certify (bound == 0), so all of them take the
        # full-row fallback — and the answer must still be exact.
        rng = np.random.default_rng(9)
        X = rng.normal(size=(800, 4))
        X[:, 0] = 2.5
        provider = DistanceProvider(X, max_bytes=1 << 26)
        idx, dist = provider.kneighbors((0, 2), 6)  # implicit parent (0,)
        ref_idx, ref_dist = reference_knn(provider, (0, 2), 6)
        assert idx.tobytes() == ref_idx.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()
        stats = provider.stats()
        assert stats["knn_sketched"] == 1
        assert stats["knn_fallback_rows"] == X.shape[0]

    def test_duplicated_points_boundary_ties_exact(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(800, 5))
        X[200:300] = X[100:200]  # exact duplicates: distance ties everywhere
        provider = DistanceProvider(X, max_bytes=1 << 26)
        for s in [(0, 1), (1, 2, 4), (0, 2, 3, 4)]:
            idx, dist = provider.kneighbors(s, 7)
            ref_idx, ref_dist = reference_knn(provider, s, 7)
            assert idx.tobytes() == ref_idx.tobytes()
            assert dist.tobytes() == ref_dist.tobytes()
        assert provider.stats()["knn_sketched"] == 3

    def test_single_feature_uses_full_path(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        idx, dist = provider.kneighbors((4,), 5)
        ref_idx, ref_dist = reference_knn(provider, (4,), 5)
        assert idx.tobytes() == ref_idx.tobytes()
        stats = provider.stats()
        assert stats["knn_full"] == 1
        assert stats["knn_sketched"] == 0

    def test_large_k_uses_full_path(self, X):
        # k at the sketch-width cap leaves no certification headroom; the
        # provider must answer from the composed matrix instead.
        n = X.shape[0]
        provider = DistanceProvider(X, max_bytes=1 << 24)
        idx, dist = provider.kneighbors((2, 5), n - 1)
        ref_idx, ref_dist = reference_knn(provider, (2, 5), n - 1)
        assert idx.tobytes() == ref_idx.tobytes()
        assert provider.stats()["knn_full"] == 1

    def test_sketch_cached_per_anchor(self, X_wide):
        provider = DistanceProvider(X_wide, max_bytes=1 << 26)
        provider.kneighbors((1, 3), 5, parent=(1,))
        provider.kneighbors((1, 4), 5, parent=(1,))  # same anchor, same m
        stats = provider.stats()
        assert stats["sketch_misses"] == 1
        assert stats["sketch_hits"] == 1
        assert stats["sketches"] == 1

    def test_sketch_rule_is_eighth_of_n(self, X_wide):
        # A 1-feature anchor sketches m = 12 k candidates: k = 8 gives
        # m = 96 <= 800 / 8 and sketches, k = 9 gives m = 108 and does not.
        provider = DistanceProvider(X_wide, max_bytes=1 << 26)
        provider.kneighbors((2, 5), 8)
        assert provider.stats()["knn_sketched"] == 1
        provider.kneighbors((2, 5), 9)
        assert provider.stats()["knn_full"] == 1

    def test_paper_shape_takes_full_path(self):
        # n = 198, k = 15 (the breast surrogate with LOF's k): no anchor
        # depth brings m down to n / 8, so every query is exact full-row.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(198, 5))
        provider = DistanceProvider(X, max_bytes=1 << 24)
        for s in [(0, 1), (0, 1, 2), (0, 1, 2, 3)]:
            idx, dist = provider.kneighbors(s, 15)
            ref_idx, ref_dist = reference_knn(provider, s, 15)
            assert idx.tobytes() == ref_idx.tobytes()
            assert dist.tobytes() == ref_dist.tobytes()
        stats = provider.stats()
        assert stats["knn_full"] == 3
        assert stats["knn_sketched"] == 0
        assert stats["sketches"] == 0

    def test_invalid_k_rejected(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        with pytest.raises(ValidationError):
            provider.kneighbors((0, 1), 0)
        with pytest.raises(ValidationError):
            provider.kneighbors((0, 1), X.shape[0])

    def test_invalid_sketch_factor_rejected(self, X):
        with pytest.raises(ValidationError):
            DistanceProvider(X, max_bytes=1 << 24, sketch_factor=1)

    def test_knn_view_delegates(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        view = provider.knn_view((2, 6), parent=(2,))
        assert isinstance(view, KNNQueryView)
        assert view.n_samples == X.shape[0]
        idx, dist = view.kneighbors(4)
        ref_idx, ref_dist = provider.kneighbors((2, 6), 4, parent=(2,))
        assert idx.tobytes() == ref_idx.tobytes()
        assert dist.tobytes() == ref_dist.tobytes()


class TestTransientComposition:
    """Full-path queries compose into a throwaway array, never the cache."""

    def test_full_path_query_caches_no_composed_matrix(self, X):
        provider = DistanceProvider(X, max_bytes=1 << 24)
        provider.squared_distances((0, 1))
        before = provider.stats()["composed"]
        for s in [(2, 3), (0, 1, 4), (1, 5, 6, 7)]:
            provider.kneighbors(s, 10)
        stats = provider.stats()
        assert stats["knn_full"] == 3
        assert stats["composed"] == before == 1
        assert stats["nbytes"] == (1 + 8) * X.shape[0] ** 2 * 4  # + blocks

    def test_cached_prefix_and_matrix_are_reused_exactly(self, X):
        reference = DistanceProvider(X, max_bytes=1 << 24)
        expected = reference.kneighbors((1, 3, 6), 9)
        provider = DistanceProvider(X, max_bytes=1 << 24)
        provider.squared_distances((1, 3))
        via_prefix = provider.kneighbors((1, 3, 6), 9)
        assert provider.stats()["parent_reuses"] == 1
        provider.squared_distances((1, 3, 6))
        via_cached = provider.kneighbors((1, 3, 6), 9)
        assert provider.stats()["composed_hits"] == 1
        for got in (via_prefix, via_cached):
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()

    def test_kind_counts_follow_evictions(self, X):
        n = X.shape[0]
        provider = DistanceProvider(X, max_bytes=3 * n * n * 4)
        for s in [(0, 1), (2, 3), (4, 5)]:
            provider.squared_distances(s)
        stats = provider.stats()
        keys = provider._cache.keys()
        assert stats["blocks"] == sum(1 for key in keys if key[0] == "b")
        assert stats["composed"] == sum(1 for key in keys if key[0] == "c")
        assert stats["evictions"] > 0
