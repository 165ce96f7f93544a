"""Shared fixtures for the test suite.

Dataset construction (especially the exhaustive ground-truth search) is the
expensive part of testing, so the fixtures are session-scoped and the
datasets deliberately small. Fixtures that plant a *known* outlier return
the planted structure alongside the data so tests can assert recovery.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.detectors import LOF
from repro.neighbors.knn import _smallest_k
from repro.neighbors.provider import DistanceProvider
from repro.subspaces import SubspaceScorer


@pytest.fixture(autouse=True)
def _isolate_repro_env():
    """Restore every ``REPRO_*`` environment variable after each test.

    The CLI deliberately exports its flags as ``REPRO_*`` variables so
    they reach library layers and worker processes; without this guard a
    test that invokes ``repro.cli.main`` (or sets the variables directly)
    would leak configuration — e.g. a checkpoint path — into every test
    that runs after it. Variables set outside the suite (such as the CI
    matrix's ``REPRO_BACKEND``) are preserved.
    """
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    yield
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in saved:
            del os.environ[key]
    os.environ.update(saved)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20210323)  # EDBT 2021 :-)


@pytest.fixture(scope="session")
def blob_with_outlier() -> tuple[np.ndarray, int]:
    """A tight 2d Gaussian blob plus one far point (index 60)."""
    gen = np.random.default_rng(7)
    X = np.vstack([gen.normal(0.0, 0.2, size=(60, 2)), [[4.0, 4.0]]])
    return X, 60


@pytest.fixture(scope="session")
def subspace_outlier_data() -> tuple[np.ndarray, int, tuple[int, int]]:
    """6d noise where point 0 deviates exactly in features (2, 4)."""
    gen = np.random.default_rng(2)
    X = gen.normal(size=(100, 6))
    X[0, [2, 4]] = [8.0, -8.0]
    return X, 0, (2, 4)


@pytest.fixture(scope="session")
def hics_small():
    """The 14d synthetic dataset at reduced sample count."""
    return load_dataset("hics_14", n_samples=300)


@pytest.fixture(scope="session")
def breast_small():
    """A smoke-scale realistic surrogate (8 features, 2-3d ground truth)."""
    return load_dataset("breast", n_features=8, gt_dimensionalities=(2, 3))


class DirectKNNView:
    """Reference k-NN view: ``argpartition`` on a composed matrix.

    Selects with :func:`repro.neighbors.knn._smallest_k` on the canonical
    float32 matrix of a fresh provider — the selection the substrate's
    query path (packed keys, sketches, fallbacks) must reproduce bit for
    bit.
    """

    def __init__(self, X: np.ndarray, features: tuple[int, ...]) -> None:
        provider = DistanceProvider(X, max_bytes=1 << 26)
        self._D = provider.squared_distances(features)

    def kneighbors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        order = _smallest_k(self._D, k)
        return order, np.sqrt(np.take_along_axis(self._D, order, axis=1))


@pytest.fixture(scope="session")
def direct_knn():
    """Factory ``direct_knn(X, features)`` of :class:`DirectKNNView`."""
    return DirectKNNView


@pytest.fixture(scope="session")
def hics_small_scorer(hics_small) -> SubspaceScorer:
    """LOF scorer over the small synthetic dataset (shared cache)."""
    return SubspaceScorer(hics_small.X, LOF(k=15))
