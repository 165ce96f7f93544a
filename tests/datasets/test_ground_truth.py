"""Unit tests for the ground-truth construction procedures."""

import numpy as np
import pytest

from repro.datasets import exhaustive_ground_truth, top_outliers_per_subspace
from repro.detectors import LOF
from repro.exceptions import ValidationError
from repro.obs import metrics as obs_metrics


@pytest.fixture(scope="module")
def planted():
    """Two planted outliers in different 2d subspaces of 5d data."""
    gen = np.random.default_rng(3)
    X = gen.normal(size=(150, 5))
    X[0, [0, 1]] = [7.0, -7.0]
    X[1, [3, 4]] = [-7.0, 7.0]
    return X


class TestExhaustiveGroundTruth:
    def test_finds_planted_subspaces(self, planted):
        gt = exhaustive_ground_truth(planted, [0, 1], dimensionalities=(2,))
        assert gt.relevant_at(0, 2) == ((0, 1),)
        assert gt.relevant_at(1, 2) == ((3, 4),)

    def test_one_subspace_per_dim_by_default(self, planted):
        gt = exhaustive_ground_truth(planted, [0], dimensionalities=(2, 3))
        assert len(gt.relevant_for(0)) == 2
        assert gt.dimensionalities() == (2, 3)

    def test_top_per_dim(self, planted):
        gt = exhaustive_ground_truth(
            planted, [0], dimensionalities=(2,), top_per_dim=3
        )
        assert len(gt.relevant_at(0, 2)) == 3

    def test_custom_detector(self, planted):
        gt = exhaustive_ground_truth(
            planted, [0], dimensionalities=(2,), detector=LOF(k=5)
        )
        assert gt.relevant_at(0, 2) == ((0, 1),)

    def test_rejects_empty_outliers(self, planted):
        with pytest.raises(ValidationError):
            exhaustive_ground_truth(planted, [], dimensionalities=(2,))

    def test_rejects_dim_above_width(self, planted):
        with pytest.raises(ValidationError):
            exhaustive_ground_truth(planted, [0], dimensionalities=(9,))


class TestTopOutliersPerSubspace:
    def test_associates_planted_outliers(self, planted):
        gt = top_outliers_per_subspace(planted, [(0, 1), (3, 4)], k=1)
        assert gt.relevant_for(0) == ((0, 1),)
        assert gt.relevant_for(1) == ((3, 4),)

    def test_k_points_per_subspace(self, planted):
        gt = top_outliers_per_subspace(planted, [(0, 1)], k=5)
        covered = [p for p in gt.points if (0, 1) in gt.relevant_for(p)]
        assert len(covered) == 5

    def test_point_in_two_subspaces(self, planted):
        X = planted.copy()
        X[0, [3, 4]] = [7.0, 7.0]  # now deviates in both blocks
        gt = top_outliers_per_subspace(X, [(0, 1), (3, 4)], k=2)
        assert gt.relevant_for(0) == ((0, 1), (3, 4))

    def test_rejects_empty_subspaces(self, planted):
        from repro.exceptions import GroundTruthError

        with pytest.raises(GroundTruthError):
            top_outliers_per_subspace(planted, [])


def _duplicated_column(X):
    """``X`` with feature 4 a copy of feature 1: ties in z across subspaces."""
    X = X.copy()
    X[:, 4] = X[:, 1]
    return X


def _small_integers_constant_column():
    """Coarse values and one constant feature: ties at the k-th neighbour."""
    gen = np.random.default_rng(11)
    X = gen.integers(-2, 3, size=(90, 6)).astype(np.float64)
    X[:, 2] = 1.0
    return X


class TestMatchesReference:
    """The lattice walk keeps exactly the reference search's subspaces."""

    @pytest.mark.parametrize(
        ("data", "outliers", "dims", "top", "k"),
        [
            ("planted", [0, 1, 7], (2, 3), 2, 15),
            ("duplicated", [0, 1, 2, 40], (1, 2, 3), 3, 15),
            ("integers", [0, 5, 89], (2, 4), 2, 5),
        ],
    )
    def test_fixed_examples(
        self, planted, reference_ground_truth, data, outliers, dims, top, k
    ):
        X = {
            "planted": planted,
            "duplicated": _duplicated_column(planted),
            "integers": _small_integers_constant_column(),
        }[data]
        got = exhaustive_ground_truth(X, outliers, dims, LOF(k=k), top)
        want = reference_ground_truth(X, outliers, dims, LOF(k=k), top)
        for point in outliers:
            assert got.relevant_for(point) == want.relevant_for(point)

    def test_realistic_surrogate(self, breast_small, reference_ground_truth):
        want = reference_ground_truth(
            breast_small.X, breast_small.outliers, (2, 3)
        )
        for point in breast_small.outliers:
            assert breast_small.ground_truth.relevant_for(
                point
            ) == want.relevant_for(point)


class TestValidation:
    """Every argument is checked before the search starts."""

    def test_rejects_negative_outlier(self, planted):
        with pytest.raises(ValidationError, match="out of range"):
            exhaustive_ground_truth(planted, [-1], dimensionalities=(2,))

    def test_rejects_outlier_past_the_end(self, planted):
        with pytest.raises(ValidationError, match="out of range"):
            exhaustive_ground_truth(
                planted, [0, planted.shape[0]], dimensionalities=(2,)
            )

    def test_repeated_outliers_count_once(self, planted):
        repeated = exhaustive_ground_truth(
            planted, [3, 3], dimensionalities=(2,), top_per_dim=2
        )
        single = exhaustive_ground_truth(
            planted, [3], dimensionalities=(2,), top_per_dim=2
        )
        assert len(repeated.relevant_at(3, 2)) == 2
        assert repeated.relevant_for(3) == single.relevant_for(3)

    def test_rejects_wide_dimensionality_before_searching(self, planted):
        scored = obs_metrics.counter("repro_scorer_subspaces_scored_total")
        before = scored.value(detector="lof")
        with pytest.raises(ValidationError, match="exceeds dataset width"):
            exhaustive_ground_truth(
                planted[:, :4], [0], dimensionalities=(2, 9)
            )
        assert scored.value(detector="lof") == before
