"""Property-based tests (hypothesis) for detector invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.detectors import LOF, FastABOD, IsolationForest, KNNDetector
from repro.detectors.iforest import _grow_tree

finite = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)


def matrices(min_rows=5, max_rows=25, min_cols=1, max_cols=4):
    shapes = st.tuples(
        st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
    )
    return arrays(np.float64, shapes, elements=finite)


@settings(max_examples=25, deadline=None)
@given(X=matrices())
def test_lof_finite_and_shaped(X):
    scores = LOF(k=3).score(X)
    assert scores.shape == (X.shape[0],)
    assert np.isfinite(scores).all()


grid_points = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    min_size=5,
    max_size=25,
    unique=True,
)


@settings(max_examples=25, deadline=None)
@given(points=grid_points)
def test_lof_translation_invariant(points):
    # Grid data guarantees pairwise distances >= 0.5, so no points merge
    # under float rounding after the shift — the regime where LOF's
    # translation invariance is well defined.
    X = np.asarray(points, dtype=np.float64) * 0.5
    a = LOF(k=3).score(X)
    b = LOF(k=3).score(X + 17.0)
    assert np.allclose(a, b, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(X=matrices(min_rows=6), k=st.integers(2, 5))
def test_fast_abod_finite(X, k):
    scores = FastABOD(k=k).score(X)
    assert scores.shape == (X.shape[0],)
    assert np.isfinite(scores).all()


@settings(max_examples=15, deadline=None)
@given(X=matrices(min_rows=8), seed=st.integers(0, 10))
def test_iforest_scores_in_unit_interval(X, seed):
    scores = IsolationForest(n_trees=10, n_repeats=1, seed=seed).score(X)
    assert ((scores >= 0.0) & (scores <= 1.0)).all()


@settings(max_examples=15, deadline=None)
@given(X=matrices(min_rows=8), seed=st.integers(0, 10))
def test_iforest_deterministic(X, seed):
    det = IsolationForest(n_trees=8, n_repeats=1, seed=seed)
    assert np.array_equal(det.score(X), det.score(X))


@st.composite
def tree_samples(draw):
    """An ``(n, d)`` sample of one of the kinds that stress the split draw."""
    n, d = draw(st.integers(2, 300)), draw(st.integers(1, 31))
    kind = draw(
        st.sampled_from(
            ["floats", "rounded", "constant_column", "duplicated_rows",
             "small_integers", "signed_zeros", "adjacent_floats"]
        )
    )
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = gen.normal(size=(n, d)) * 10.0 ** gen.integers(-3, 4)
    if kind == "rounded":
        S = np.round(S / np.abs(S).max(), 1)
    elif kind == "constant_column":
        S[:, gen.integers(d)] = gen.normal()
    elif kind == "duplicated_rows":
        S = S[gen.integers(0, max(1, n // 4), size=n)]
    elif kind == "small_integers":
        S = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == "signed_zeros":
        zeros = gen.choice([-0.0, 0.0], size=(n, d))
        S = np.where(gen.random((n, d)) < 0.6, zeros, np.round(S, 0))
    elif kind == "adjacent_floats":
        # A node range of a few ulps makes the threshold land on a value.
        S = 1.0 + gen.integers(0, 4, size=(n, d)) * np.spacing(1.0)
    return S


@settings(max_examples=150, deadline=None)
@given(S=tree_samples(), height_limit=st.integers(1, 9), seed=st.integers(0, 10))
def test_iforest_growth_matches_reference(reference_grow_tree, S, height_limit, seed):
    grown, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        tree = _grow_tree(S, height_limit, grown)
        expected = reference_grow_tree(S, height_limit, reference)
        for field in ("feature", "threshold", "left", "right", "adjust"):
            got, want = getattr(tree, field), getattr(expected, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        assert tree.depth == expected.depth
        assert grown.bit_generator.state == reference.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(X=matrices())
def test_knn_detector_nonnegative_and_scale_covariant(X):
    det = KNNDetector(k=3)
    scores = det.score(X)
    assert (scores >= 0.0).all()
    assert np.allclose(det.score(2.0 * X), 2.0 * scores, atol=1e-8)
