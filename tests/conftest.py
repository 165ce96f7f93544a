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

from repro.datasets import GroundTruth, load_dataset
from repro.detectors import LOF
from repro.detectors.iforest import _Tree, average_path_length
from repro.exceptions import ValidationError
from repro.neighbors.distance import euclidean_pdist_matrix
from repro.neighbors.knn import _smallest_k
from repro.neighbors.provider import DistanceProvider
from repro.stats.zscore import zscores
from repro.subspaces import SubspaceScorer, all_subspaces
from repro.utils.validation import check_matrix, check_positive_int


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


class ReferenceKNNIndex:
    """Reference direct k-NN index: ``argpartition`` on the full matrix.

    Materialises the float64 distance matrix with
    :func:`repro.neighbors.distance.euclidean_pdist_matrix`, masks a copy's
    diagonal and selects with :func:`repro.neighbors.knn._smallest_k`. The
    production :class:`~repro.neighbors.KNNIndex` rebuilds row blocks from
    one Gram product and selects with packed keys; it must reproduce these
    neighbour lists and distances bit for bit.
    """

    def __init__(self, X: np.ndarray) -> None:
        self.X = check_matrix(X, name="X", min_rows=2)
        self._dist = euclidean_pdist_matrix(self.X)
        # A point must not be its own neighbour: mask the diagonal.
        self._masked = self._dist.copy()
        np.fill_diagonal(self._masked, np.inf)

    def kneighbors(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        order = _smallest_k(self._masked, k)
        dist = np.take_along_axis(self._masked, order, axis=1)
        return order, dist


@pytest.fixture(scope="session")
def reference_knn():
    """Factory ``reference_knn(X)`` of :class:`ReferenceKNNIndex`."""
    return ReferenceKNNIndex


# Reference Isolation Forest growth: a min/max scan of every feature per
# node and ``rng.choice`` for the feature draw. The production grower reads
# only the drawn feature and must reproduce these trees and this random
# stream bit for bit.
def _grow_tree(S: np.ndarray, height_limit: int, rng: np.random.Generator) -> _Tree:
    """Grow one isolation tree on sample ``S`` up to ``height_limit``."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    adjust: list[float] = []
    max_depth = 0

    # Depth-first construction with an explicit stack of (row mask, depth,
    # parent slot). Each stack entry allocates its node index on pop.
    stack: list[tuple[np.ndarray, int, int, bool]] = [
        (np.arange(S.shape[0]), 0, -1, False)
    ]
    while stack:
        rows, depth, parent, is_right = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_right:
                right[parent] = node_id
            else:
                left[parent] = node_id
        max_depth = max(max_depth, depth)
        split = _choose_split(S, rows, rng) if (
            depth < height_limit and rows.shape[0] > 1
        ) else None
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            adjust.append(depth + average_path_length(rows.shape[0]))
            continue
        feat, thr = split
        feature.append(feat)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        adjust.append(0.0)
        values = S[rows, feat]
        go_left = values < thr
        stack.append((rows[~go_left], depth + 1, node_id, True))
        stack.append((rows[go_left], depth + 1, node_id, False))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        adjust=np.asarray(adjust, dtype=np.float64),
        depth=max_depth,
    )


def _choose_split(
    S: np.ndarray, rows: np.ndarray, rng: np.random.Generator
) -> tuple[int, float] | None:
    """Pick a uniformly random (feature, threshold) that splits ``rows``.

    Features whose values are constant within the node cannot split it;
    one is drawn uniformly among the non-constant features, mirroring the
    reference implementation. Returns ``None`` when all features are
    constant (duplicated points), making the node a leaf.
    """
    values = S[rows]
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    splittable = np.flatnonzero(hi > lo)
    if splittable.shape[0] == 0:
        return None
    feat = int(rng.choice(splittable))
    thr = float(rng.uniform(lo[feat], hi[feat]))
    return feat, thr


@pytest.fixture(scope="session")
def reference_grow_tree():
    """The reference grower ``reference_grow_tree(S, height_limit, rng)``."""
    return _grow_tree


def _reference_ground_truth(
    X: np.ndarray,
    outliers,
    dimensionalities=(2, 3, 4),
    detector=None,
    top_per_dim: int = 1,
) -> GroundTruth:
    """Reference exhaustive ground truth: one scorer batch per dimensionality.

    Scores every subspace of each dimensionality through
    :meth:`SubspaceScorer.scores_many`, collects every outlier's z-score
    per subspace and sorts that list by (higher z, lexicographically
    smaller subspace). The production search walks the prefix lattice and
    keeps a running top per outlier; on valid input with distinct
    outliers it must keep these subspaces exactly.
    """
    X = check_matrix(X, name="X", min_rows=3)
    outlier_list = [int(o) for o in outliers]
    if not outlier_list:
        raise ValidationError("outliers must not be empty")
    top_per_dim = check_positive_int(top_per_dim, name="top_per_dim")
    detector = detector if detector is not None else LOF(k=15)
    scorer = SubspaceScorer(X, detector)

    relevant: dict[int, list] = {o: [] for o in outlier_list}
    for dim in dimensionalities:
        dim = check_positive_int(dim, name="dimensionality")
        if dim > X.shape[1]:
            raise ValidationError(
                f"dimensionality {dim} exceeds dataset width {X.shape[1]}"
            )
        best: dict[int, list] = {o: [] for o in outlier_list}
        subspaces = list(all_subspaces(X.shape[1], dim))
        z_batch = [zscores(v) for v in scorer.scores_many(subspaces)]
        for subspace, z in zip(subspaces, z_batch):
            for o in outlier_list:
                best[o].append((float(z[o]), subspace))
        for o in outlier_list:
            ranked = sorted(best[o], key=lambda t: (-t[0], tuple(t[1])))
            relevant[o].extend(s for _, s in ranked[:top_per_dim])
    scorer.close()
    return GroundTruth(relevant)


@pytest.fixture(scope="session")
def reference_ground_truth():
    """The reference search ``reference_ground_truth(X, outliers, ...)``."""
    return _reference_ground_truth


@pytest.fixture(scope="session")
def hics_small_scorer(hics_small) -> SubspaceScorer:
    """LOF scorer over the small synthetic dataset (shared cache)."""
    return SubspaceScorer(hics_small.X, LOF(k=15))
