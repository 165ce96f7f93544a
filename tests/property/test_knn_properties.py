"""Property tests (hypothesis): the row-block k-NN path against its oracle.

:class:`~repro.neighbors.KNNIndex` never materialises the ``(n, n)``
distance matrix: it rebuilds row blocks from one Gram product and selects
with packed float64 keys. The reference index in ``tests/conftest.py``
materialises the matrix and selects with ``argpartition``. Neighbour
lists, distances and every neighbourhood detector's scores must agree
byte for byte, on inputs that span several row blocks, tie at the k-th
boundary, repeat rows or overflow the distance expansion.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import LOF, FastABOD, KNNDetector
from repro.neighbors.knn import KNNIndex


@st.composite
def knn_inputs(draw):
    """An ``(n, d)`` matrix of one of the kinds that stress selection."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Hypothesis favours small sizes. Above 256 rows the selection spans
    # several row blocks, so half the cases draw a uniform size there.
    n = draw(st.integers(2, 1100)) if draw(st.booleans()) else int(gen.integers(257, 1101))
    d = draw(st.integers(1, 40))
    kind = draw(
        st.sampled_from(
            ["floats", "rounded", "constant_column", "duplicated_rows",
             "all_equal", "small_integers", "float32", "huge"]
        )
    )
    X = gen.normal(size=(n, d))
    if kind == "rounded":
        X = np.round(X, 1)  # distance ties, some at the k-th boundary
    elif kind == "constant_column":
        X[:, gen.integers(d)] = gen.normal()
    elif kind == "duplicated_rows":
        X = X[gen.integers(0, max(1, n // 4), size=n)]
    elif kind == "all_equal":
        X[:] = X[0]
    elif kind == "small_integers":
        X = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    elif kind == "float32":
        X = X.astype(np.float32)
    elif kind == "huge":
        X = X * 1e155  # the expansion overflows: inf and NaN distances
    k = min(draw(st.sampled_from([1, 10, 15, n - 1])), n - 1)
    return X, k


@settings(max_examples=60, deadline=None)
@given(case=knn_inputs())
def test_kneighbors_matches_reference(reference_knn, case):
    X, k = case
    with np.errstate(over="ignore", invalid="ignore"):
        idx, dist = KNNIndex(X).kneighbors(k)
        ref_idx, ref_dist = reference_knn(X).kneighbors(k)
    assert idx.dtype == ref_idx.dtype and dist.dtype == ref_dist.dtype
    assert idx.tobytes() == ref_idx.tobytes()
    assert dist.tobytes() == ref_dist.tobytes()


@settings(max_examples=40, deadline=None)
@given(case=knn_inputs())
def test_detector_scores_match_reference(reference_knn, case):
    X, k = case
    k = min(k, 15)  # Fast ABOD's angle pairs grow as k^2 per point
    detectors = [LOF(k=k), FastABOD(k=max(k, 2)),
                 KNNDetector(k=k, aggregation="kth"),
                 KNNDetector(k=k, aggregation="mean")]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        reference = reference_knn(X)
        for det in detectors:
            got = det.score(X)
            want = det.score(X, knn=reference)
            assert got.tobytes() == want.tobytes(), repr(det)
