"""Property tests: decomposition-path scores match direct-path scores.

The distance substrate composes a subspace's squared distances from
float32 per-feature blocks, so the scores its k-NN view yields are not
bit-identical to the direct float64 projection path — but they must agree
to tight tolerance for every neighbourhood detector, across random
subspaces, input dtypes, and parent chains. (Bit-level *self*-consistency
of the substrate is covered in ``tests/neighbors/test_provider.py``.)
"""

import numpy as np
import pytest

from repro.detectors import LOF, FastABOD, KNNDetector
from repro.neighbors.distance import euclidean_cdist, euclidean_pdist_matrix
from repro.neighbors.provider import DistanceProvider
from repro.subspaces.scorer import SubspaceScorer

DETECTORS = [LOF(k=10), FastABOD(k=8), KNNDetector(k=5, aggregation="kth"),
             KNNDetector(k=5, aggregation="mean")]


def random_dataset(seed, n=120, d=10, dtype=np.float64):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X[: n // 20] += rng.normal(scale=6.0, size=(n // 20, d))  # outliers
    return np.ascontiguousarray(X.astype(dtype))


@pytest.mark.parametrize("detector", DETECTORS, ids=lambda d: repr(d))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_matches_direct_path(detector, seed):
    X = random_dataset(seed)
    provider = DistanceProvider(X, max_bytes=1 << 25)
    rng = np.random.default_rng(seed + 100)
    for _ in range(8):
        dim = int(rng.integers(1, 6))
        sub = tuple(sorted(rng.choice(X.shape[1], size=dim, replace=False).tolist()))
        P = X[:, list(sub)]
        direct = detector.score(P)
        via = detector.score(P, knn=provider.knn_view(sub))
        np.testing.assert_allclose(via, direct, rtol=1e-4, atol=1e-6)


@pytest.mark.parametrize("detector", DETECTORS[:2], ids=lambda d: repr(d))
def test_parent_reuse_chain_matches_direct_path(detector):
    """Scores stay correct while a subspace grows one feature at a time."""
    X = random_dataset(7)
    provider = DistanceProvider(X, max_bytes=1 << 25)
    chain = (2, 4, 5, 7, 9)
    parent = None
    for end in range(1, len(chain) + 1):
        sub = chain[:end]
        P = X[:, list(sub)]
        np.testing.assert_allclose(
            detector.score(P, knn=provider.knn_view(sub, parent=parent)),
            detector.score(P),
            rtol=1e-4,
            atol=1e-6,
        )
        parent = sub
    # Every step composed transiently: no query matrix stayed cached.
    stats = provider.stats()
    assert stats["composed_misses"] == len(chain)
    assert stats["composed"] == 0


def test_scorer_provider_on_off_allclose():
    """SubspaceScorer results agree with the substrate on and off."""
    X = random_dataset(3)
    subs = [(0, 1), (0, 1, 2), (3, 7), (2, 4, 5, 7)]
    parents = [None, (0, 1), None, (2, 4, 5)]
    on = SubspaceScorer(
        X, LOF(k=10), distance_provider=DistanceProvider(X, max_bytes=1 << 25)
    )
    off = SubspaceScorer(X, LOF(k=10), distance_provider=False)
    for a, b in zip(on.scores_many(subs, parents=parents), off.scores_many(subs)):
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-6)
    stats = on.distance_stats
    assert stats is not None and stats["composed_misses"] == len(subs)
    assert off.distance_stats is None


class TestFloat32DistancePath:
    """Satellite: float32 input must not silently upcast to float64."""

    def test_cdist_preserves_float32(self):
        X = random_dataset(11, dtype=np.float32)
        D = euclidean_cdist(X, X)
        assert D.dtype == np.float32

    def test_pdist_preserves_float32(self):
        X = random_dataset(11, dtype=np.float32)
        D = euclidean_pdist_matrix(X)
        assert D.dtype == np.float32
        assert np.all(np.diag(D) == 0.0)
        np.testing.assert_array_equal(D, D.T)

    def test_float32_close_to_float64(self):
        X64 = random_dataset(13)
        X32 = X64.astype(np.float32)
        np.testing.assert_allclose(
            euclidean_pdist_matrix(X32),
            euclidean_pdist_matrix(X64),
            rtol=1e-4,
            atol=1e-4,
        )

    def test_mixed_dtypes_fall_back_to_float64(self):
        A = random_dataset(17, n=30)
        B = A.astype(np.float32)
        assert euclidean_cdist(A, B).dtype == np.float64

    def test_non_contiguous_float32_made_contiguous(self):
        X = np.asfortranarray(random_dataset(19, dtype=np.float32))
        D = euclidean_cdist(X, X)
        assert D.dtype == np.float32

    def test_detector_scores_on_float32_input(self):
        X64 = random_dataset(23, n=80, d=4)
        X32 = X64.astype(np.float32)
        for detector in DETECTORS:
            np.testing.assert_allclose(
                detector.score(X32), detector.score(X64), rtol=1e-3, atol=1e-4
            )
