"""Property tests (hypothesis): the lattice-walk ground truth against its oracle.

:func:`~repro.datasets.exhaustive_ground_truth` walks the subspace lattice
once and keeps a running top per (outlier, dimensionality). The reference
search in ``tests/conftest.py`` scores one batch per dimensionality and
sorts every subspace per outlier. Both must keep the same subspaces for
every outlier, on data that ties: a duplicated column gives different
subspaces equal z-scores, so the lexicographic tie rule decides; a
constant column and small integers tie neighbours at the k-th boundary.
The search runs on the default substrate, with the substrate off (the
direct path), on the thread backend, and with a detector that uses no
substrate, and it must score each subspace exactly once.
"""

import os
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import exhaustive_ground_truth
from repro.detectors import LOF, IsolationForest
from repro.obs import metrics as obs_metrics

#: Environment of each configuration the search must agree under.
CONFIGS = {
    "substrate": {},
    "direct": {"REPRO_DIST_CACHE_MB": "0"},
    "thread": {"REPRO_BACKEND": "thread", "REPRO_N_JOBS": "2"},
    "iforest": {},
}


@st.composite
def ground_truth_inputs(draw):
    """Data, distinct outliers, dimensionalities, top count and LOF k."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 300))
    d = draw(st.integers(2, 9))
    kind = draw(
        st.sampled_from(
            ["floats", "duplicated_column", "constant_column", "small_integers"]
        )
    )
    X = gen.normal(size=(n, d))
    if kind == "duplicated_column":
        source, target = gen.choice(d, size=2, replace=False)
        X[:, target] = X[:, source]
    elif kind == "constant_column":
        X[:, gen.integers(d)] = gen.normal()
    elif kind == "small_integers":
        X = gen.integers(-2, 3, size=(n, d)).astype(np.float64)
    outliers = draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True)
    )
    dims = tuple(sorted(draw(st.sets(st.integers(1, min(4, d)), min_size=1))))
    top = draw(st.integers(1, 3))
    k = min(draw(st.sampled_from([1, 5, 15])), n - 1)
    return X, outliers, dims, top, k


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=25, deadline=None)
@given(case=ground_truth_inputs())
def test_matches_reference(reference_ground_truth, config, case):
    X, outliers, dims, top, k = case
    if config == "iforest":
        detector = IsolationForest(n_trees=2, n_repeats=1)
    else:
        detector = LOF(k=k)
    scored = obs_metrics.counter("repro_scorer_subspaces_scored_total")
    with mock.patch.dict(os.environ, CONFIGS[config]):
        before = scored.value(detector=detector.name)
        got = exhaustive_ground_truth(X, outliers, dims, detector, top)
        delta = scored.value(detector=detector.name) - before
        want = reference_ground_truth(X, outliers, dims, detector, top)
    assert delta == sum(comb(X.shape[1], m) for m in dims)
    for point in outliers:
        assert got.relevant_for(point) == want.relevant_for(point)
