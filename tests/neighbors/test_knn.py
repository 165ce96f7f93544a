"""Unit tests for repro.neighbors.knn (scipy KD-tree as oracle)."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.exceptions import ValidationError
from repro.neighbors.knn import KNNIndex, _packed_smallest_k, _smallest_k, kneighbors
from repro.neighbors.provider import DistanceProvider


class TestKneighbors:
    def test_matches_kdtree(self, rng):
        X = rng.normal(size=(80, 3))
        idx, dist = KNNIndex(X).kneighbors(7)
        ref_dist, ref_idx = cKDTree(X).query(X, k=8)
        assert np.allclose(dist, ref_dist[:, 1:])
        assert (idx == ref_idx[:, 1:]).all()

    def test_excludes_self(self, rng):
        X = rng.normal(size=(30, 2))
        idx, _ = KNNIndex(X).kneighbors(3)
        for i in range(30):
            assert i not in idx[i]

    def test_distances_sorted(self, rng):
        _, dist = kneighbors(rng.normal(size=(40, 2)), 5)
        assert (np.diff(dist, axis=1) >= 0).all()

    def test_k_equals_n_minus_one(self, rng):
        X = rng.normal(size=(6, 2))
        idx, _ = KNNIndex(X).kneighbors(5)
        assert idx.shape == (6, 5)

    def test_k_too_large(self, rng):
        with pytest.raises(ValidationError, match="exceeds"):
            KNNIndex(rng.normal(size=(5, 2))).kneighbors(5)

    def test_duplicates_handled(self):
        X = np.array([[0.0, 0.0]] * 4 + [[1.0, 1.0]])
        idx, dist = KNNIndex(X).kneighbors(2)
        assert dist[0, 0] == pytest.approx(0.0)
        assert 0 not in idx[0]  # self still excluded despite ties

    def test_deterministic_tie_break(self):
        # Three equidistant points: tie broken by index.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        idx, _ = KNNIndex(X).kneighbors(3)
        assert list(idx[0]) == [1, 2, 3]

    def test_kth_distance(self, rng):
        X = rng.normal(size=(20, 2))
        index = KNNIndex(X)
        _, dist = index.kneighbors(4)
        assert np.allclose(index.kth_distance(4), dist[:, -1])


class TestQuery:
    def test_external_query(self, rng):
        X = rng.normal(size=(50, 3))
        Q = rng.normal(size=(5, 3))
        idx, dist = KNNIndex(X).query(Q, 4)
        ref_dist, ref_idx = cKDTree(X).query(Q, k=4)
        assert np.allclose(dist, ref_dist)
        assert (idx == ref_idx).all()

    def test_query_self_at_zero(self, rng):
        X = rng.normal(size=(10, 2))
        idx, dist = KNNIndex(X).query(X[:1], 1)
        assert idx[0, 0] == 0
        assert dist[0, 0] == pytest.approx(0.0)

    def test_query_allows_k_equals_n(self, rng):
        X = rng.normal(size=(5, 2))
        idx, _ = KNNIndex(X).query(X[:2], 5)
        assert idx.shape == (2, 5)


def _masked_sq(X: np.ndarray) -> np.ndarray:
    """Canonical float32 squared distances, diagonal ``+inf``."""
    provider = DistanceProvider(X, max_bytes=1 << 26)
    return provider.squared_distances(range(X.shape[1]))


def _case(kind: str, seed: int, n: int = 97, d: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if kind == "duplicate_rows":
        X[n // 2 :] = X[: n - n // 2]
    elif kind == "constant_column":
        X[:, 0] = 1.5
        X = X[:, :1] if seed % 2 else X  # a 1-d constant: all-zero rows
    elif kind == "all_equal_rows":
        X[:] = X[0]
    elif kind == "coarse_grid":
        X = np.round(X, 1)  # many ties, some at the k-th boundary
    return X


class TestPackedSelection:
    """Packed-key selection must equal the argpartition routine bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "kind",
        ["random_rows", "duplicate_rows", "constant_column", "all_equal_rows",
         "coarse_grid"],
    )
    @pytest.mark.parametrize("k_of_n", [lambda n: 1, lambda n: 15, lambda n: n - 2],
                             ids=["k1", "k15", "k_n-2"])
    def test_matches_argpartition(self, seed, kind, k_of_n):
        D = _masked_sq(_case(kind, seed))
        k = k_of_n(D.shape[0])
        idx, sq = _packed_smallest_k(D, k)
        ref = _smallest_k(D, k)
        assert idx.dtype == ref.dtype and sq.dtype == np.float32
        assert idx.tobytes() == ref.tobytes()
        assert sq.tobytes() == np.take_along_axis(D, ref, axis=1).tobytes()

    def test_rows_span_several_chunks(self):
        # n = 700 packs fewer rows per chunk than the matrix has.
        D = _masked_sq(_case("coarse_grid", 3, n=700, d=2))
        idx, sq = _packed_smallest_k(D, 9)
        ref = _smallest_k(D, 9)
        assert idx.tobytes() == ref.tobytes()
        assert sq.tobytes() == np.take_along_axis(D, ref, axis=1).tobytes()

    def test_k_equals_n_minus_one(self):
        D = _masked_sq(_case("duplicate_rows", 4, n=12))
        idx, _ = _packed_smallest_k(D, 11)
        assert idx.tobytes() == _smallest_k(D, 11).tobytes()
