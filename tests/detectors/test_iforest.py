"""Unit tests for the Isolation Forest detector."""

import numpy as np
import pytest

from repro.detectors import IsolationForest, average_path_length
from repro.detectors import iforest
from repro.detectors.iforest import _forest_path_lengths, _grow_tree
from repro.exceptions import ValidationError


class TestAveragePathLength:
    def test_conventions(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0

    def test_monotone(self):
        values = [average_path_length(n) for n in range(2, 200)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_formula(self):
        n = 256
        harmonic = np.log(n - 1) + np.euler_gamma
        assert average_path_length(n) == pytest.approx(
            2 * harmonic - 2 * (n - 1) / n
        )


class TestIsolationForestBehaviour:
    def test_detects_planted_outlier(self, rng):
        X = np.vstack([rng.normal(0, 0.5, size=(200, 3)), [[9.0, -9.0, 9.0]]])
        scores = IsolationForest(n_trees=50, n_repeats=1, seed=0).score(X)
        assert int(np.argmax(scores)) == 200

    def test_scores_in_unit_interval(self, rng):
        X = rng.normal(size=(150, 4))
        scores = IsolationForest(n_trees=30, n_repeats=1, seed=1).score(X)
        assert (scores > 0.0).all()
        assert (scores < 1.0).all()

    def test_outlier_score_above_half(self, rng):
        X = np.vstack([rng.normal(0, 0.3, size=(300, 2)), [[10.0, 10.0]]])
        scores = IsolationForest(n_trees=100, n_repeats=1, seed=2).score(X)
        assert scores[-1] > 0.5

    def test_deterministic_per_input(self, rng):
        X = rng.normal(size=(80, 3))
        det = IsolationForest(n_trees=20, n_repeats=2, seed=3)
        assert np.array_equal(det.score(X), det.score(X))

    def test_different_inputs_different_randomness(self, rng):
        det = IsolationForest(n_trees=20, n_repeats=1, seed=3)
        X = rng.normal(size=(80, 3))
        # Same values, different column: fingerprint differs.
        a = det.score(X)
        b = det.score(X[:, [1, 0, 2]])
        assert not np.allclose(a, b)

    def test_repeats_reduce_variance(self, rng):
        X = np.vstack([rng.normal(size=(200, 2)), [[6.0, 6.0]]])
        few = [
            IsolationForest(n_trees=10, n_repeats=1, seed=s).score(X)[-1]
            for s in range(8)
        ]
        many = [
            IsolationForest(n_trees=10, n_repeats=10, seed=s).score(X)[-1]
            for s in range(8)
        ]
        assert np.var(many) < np.var(few)

    def test_duplicated_points_become_leaves(self, rng):
        X = np.array([[1.0, 1.0]] * 50 + [[2.0, 2.0]])
        scores = IsolationForest(n_trees=20, n_repeats=1, seed=0).score(X)
        assert np.isfinite(scores).all()
        assert int(np.argmax(scores)) == 50

    def test_subsample_capped_at_n(self, rng):
        X = rng.normal(size=(40, 2))
        scores = IsolationForest(
            n_trees=10, subsample_size=256, n_repeats=1, seed=0
        ).score(X)
        assert scores.shape == (40,)


class TestTreeConstruction:
    def test_leaf_only_tree_for_constant_data(self):
        gen = np.random.default_rng(0)
        S = np.ones((10, 3))
        tree = _grow_tree(S, height_limit=5, rng=gen)
        assert tree.feature[0] == -1  # root is a leaf

    def test_path_lengths_bounded_by_height(self, rng):
        S = rng.normal(size=(64, 2))
        tree = _grow_tree(S, height_limit=4, rng=np.random.default_rng(1))
        lengths = _forest_path_lengths([tree], S)[0]
        # depth <= 4 plus the c(leaf size) adjustment
        assert (lengths <= 4 + average_path_length(64)).all()

    def test_parameters_validated(self):
        with pytest.raises(ValidationError):
            IsolationForest(n_trees=0)
        with pytest.raises(ValidationError):
            IsolationForest(subsample_size=1)
        with pytest.raises(ValidationError):
            IsolationForest(n_repeats=0)


class TestReferenceGrowth:
    """The grower against the reference in ``tests/conftest.py``.

    The tree-level property test lives in
    ``tests/property/test_detector_properties.py``.
    """

    @pytest.mark.parametrize("n_repeats", [1, 2])
    def test_score_bitwise_equal_to_reference_forest(
        self, n_repeats, reference_grow_tree, monkeypatch
    ):
        gen = np.random.default_rng(4)
        X = np.column_stack(
            [
                gen.normal(size=300),
                np.round(gen.normal(size=300), 1),
                gen.integers(0, 3, size=300).astype(float),
                np.full(300, 2.5),
            ]
        )
        X[150:170] = X[:20]
        det = IsolationForest(n_trees=25, n_repeats=n_repeats, seed=9)
        scores = det.score(X)
        monkeypatch.setattr(iforest, "_grow_tree", reference_grow_tree)
        reference = det.score(X)
        assert scores.tobytes() == reference.tobytes()

    def test_choice_equals_indexed_integers_draw(self):
        # The grower draws its split feature as
        # ``splittable[rng.integers(len(splittable))]`` where the reference
        # calls ``rng.choice(splittable)``. Both must give the same value
        # and leave the generator in the same state, or every tree changes.
        for size in (1, 2, 3, 5, 31, 256, 1 << 20):
            a = np.arange(size, dtype=np.int64) * 3 + 1
            as_list = a.tolist()
            for seed in range(4):
                by_choice = np.random.default_rng(seed)
                by_index = np.random.default_rng(seed)
                for _ in range(25):
                    assert by_choice.choice(a) == as_list[by_index.integers(len(a))]
                assert by_choice.bit_generator.state == by_index.bit_generator.state
