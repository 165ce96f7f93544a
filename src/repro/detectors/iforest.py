"""Isolation Forest (Liu, Ting & Zhou, ICDM 2008).

Isolation-based detector: outliers are isolated by fewer random
axis-parallel splits than inliers. The anomaly score of point :math:`x` is

.. math:: s(x, \\psi) = 2^{-E[h(x)] / c(\\psi)}

where :math:`h(x)` is the path length of :math:`x` in a random isolation
tree grown on a subsample of size :math:`\\psi`, and :math:`c(\\psi)` is the
average path length of an unsuccessful BST search, normalising scores into
``(0, 1)`` with outliers close to 1.

The paper's testbed uses ``t = 100`` trees, ``psi = 256`` and averages the
score over 10 independent repetitions to reduce variance (Section 3.1);
:class:`IsolationForest` exposes that as ``n_repeats``.

Implementation notes
--------------------
Growth is a Python loop over nodes, so a node reads only the feature it
splits on: the sample's columns become lists of floats once per tree, and a
node sorts its rows by the drawn column, which gives the node's range at
the ends and the two children on either side of the threshold. The tie
screen, one ``np.sort`` of the sample per tree, finds the features with a
repeated value; only those can be constant in a node, so only those are
checked per node. The trees and random draws are those of a min/max scan
of every feature per node, which the tests keep as the reference.

Trees are stored as flat NumPy arrays (one row per node), and all points are
routed through all trees of a forest together, level by level: a handful of
vectorised gathers per level instead of a Python walk per point — essential
because the explainers score thousands of subspace projections.
Randomness is derived from ``(seed, fingerprint(X))`` so that re-scoring
the same projection is deterministic (see :mod:`repro.detectors.base`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.detectors.base import Detector, data_fingerprint
from repro.obs.trace import span as obs_span
from repro.utils.validation import check_positive_int

__all__ = ["IsolationForest", "average_path_length"]


def average_path_length(n: float) -> float:
    """Average path length ``c(n)`` of an unsuccessful BST search on ``n`` points.

    ``c(n) = 2 H(n-1) - 2 (n-1)/n`` with ``H(i) ≈ ln(i) + γ``; by convention
    ``c(1) = 0`` and ``c(2) = 1`` (Liu et al., Section 2).
    """
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = math.log(n - 1.0) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1.0) / n


@dataclass
class _Tree:
    """Flat array representation of one isolation tree.

    ``feature[i] < 0`` marks node ``i`` as a leaf; ``adjust`` holds the leaf
    depth plus the :func:`average_path_length` correction for the leaf size.
    """

    feature: np.ndarray  # (n_nodes,) int32, -1 for leaves
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray  # (n_nodes,) int32 child index
    right: np.ndarray  # (n_nodes,) int32 child index
    adjust: np.ndarray  # (n_nodes,) float64, depth + c(leaf_size) at leaves
    depth: int  # maximum node depth


class IsolationForest(Detector):
    """Isolation Forest with repetition averaging.

    Parameters
    ----------
    n_trees:
        Trees per forest (paper: 100).
    subsample_size:
        Points drawn (without replacement) to grow each tree (paper: 256).
        Capped at the dataset size.
    n_repeats:
        Independent forests whose scores are averaged (paper: 10).
    seed:
        Base seed; combined with a fingerprint of the scored data so every
        projection gets distinct but reproducible randomness.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(11)
    >>> X = np.vstack([rng.normal(0, 0.5, size=(128, 2)), [[9.0, -9.0]]])
    >>> det = IsolationForest(n_trees=50, n_repeats=1, seed=0)
    >>> int(np.argmax(det.score(X)))
    128
    """

    name = "iforest"

    def __init__(
        self,
        n_trees: int = 100,
        subsample_size: int = 256,
        n_repeats: int = 10,
        seed: int = 0,
    ) -> None:
        self.n_trees = check_positive_int(n_trees, name="n_trees")
        self.subsample_size = check_positive_int(subsample_size, name="subsample_size", minimum=2)
        self.n_repeats = check_positive_int(n_repeats, name="n_repeats")
        self.seed = int(seed)

    def _params(self) -> dict[str, object]:
        return {
            "n_trees": self.n_trees,
            "subsample_size": self.subsample_size,
            "n_repeats": self.n_repeats,
            "seed": self.seed,
        }

    def _score_validated(self, X: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng([self.seed & 0x7FFFFFFF, data_fingerprint(X)])
        total = np.zeros(X.shape[0])
        for repeat in range(self.n_repeats):
            with obs_span(
                "detector.iforest.fit_score",
                repeat=repeat,
                n_trees=self.n_trees,
            ):
                total += self._score_once(X, rng)
        return total / self.n_repeats

    def _score_once(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = X.shape[0]
        psi = min(self.subsample_size, n)
        height_limit = max(1, math.ceil(math.log2(psi)))
        # Grow all trees first (the rng is consumed only during growth, so
        # the random stream is identical to the old grow/score interleave),
        # then route every point through every tree in one batched pass.
        trees = []
        for _ in range(self.n_trees):
            sample = rng.choice(n, size=psi, replace=False)
            trees.append(_grow_tree(X[sample], height_limit, rng))
        paths = _forest_path_lengths(trees, X)
        expected = np.add.reduce(paths, axis=0) / self.n_trees
        return np.exp2(-expected / average_path_length(psi))


def _forest_path_lengths(trees: list[_Tree], X: np.ndarray) -> np.ndarray:
    """Adjusted path lengths of every row of ``X`` in every tree, batched.

    The per-tree flat arrays are concatenated with node-index offsets and
    leaves rewritten to self-loop, so a whole forest is traversed with one
    ``(n_trees, n)`` node matrix and a handful of gathers per level —
    instead of ``n_trees`` separate Python-level traversals.

    Returns an array of shape ``(n_trees, n_samples)``.
    """
    n = X.shape[0]
    sizes = np.array([tree.feature.shape[0] for tree in trees], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    adjust = np.concatenate([tree.adjust for tree in trees])
    node_ids = np.arange(feature.shape[0], dtype=np.int64)
    is_split = feature >= 0
    safe_feature = np.where(is_split, feature, 0)
    left = np.concatenate(
        [tree.left.astype(np.int64) + off for tree, off in zip(trees, offsets)]
    )
    right = np.concatenate(
        [tree.right.astype(np.int64) + off for tree, off in zip(trees, offsets)]
    )
    # Leaves self-loop: once a point reaches its leaf, further levels are
    # no-ops and no masking bookkeeping is needed.
    left = np.where(is_split, left, node_ids)
    right = np.where(is_split, right, node_ids)

    node = np.broadcast_to(offsets[:, None], (len(trees), n)).copy()
    rows = np.arange(n)
    max_depth = max(tree.depth for tree in trees)
    for _ in range(max_depth + 1):
        if not is_split[node].any():
            break
        go_left = X[rows[None, :], safe_feature[node]] < threshold[node]
        node = np.where(go_left, left[node], right[node])
    return adjust[node]


def _grow_tree(S: np.ndarray, height_limit: int, rng: np.random.Generator) -> _Tree:
    """Grow one isolation tree on the finite sample ``S`` up to ``height_limit``.

    Depth first, each node that can split draws a feature uniformly among
    those not constant in it (``rng.integers``), then a threshold uniformly
    between the feature's node minimum and maximum (``rng.uniform``).
    """
    columns = S.T.tolist()
    # Tie screen: only a feature with a repeated sample value can be constant
    # in a node of two or more rows, and one constant in a node stays so below.
    ordered = np.sort(S, axis=0)
    tied = (ordered[1:] == ordered[:-1]).any(axis=0)
    distinct = np.flatnonzero(~tied).tolist()
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    adjust: list[float] = []
    max_depth = 0

    # Depth-first construction with an explicit stack of (rows, depth,
    # parent slot, tied features that may vary). Each stack entry allocates
    # its node index on pop.
    stack = [(list(range(S.shape[0])), 0, -1, False, np.flatnonzero(tied).tolist())]
    while stack:
        rows, depth, parent, is_right, maybe = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            (right if is_right else left)[parent] = node_id
        left.append(-1)
        right.append(-1)
        max_depth = max(max_depth, depth)
        splittable = []
        if depth < height_limit and len(rows) > 1:
            maybe = [f for f in maybe if _varies(columns[f], rows)]
            splittable = sorted(distinct + maybe) if maybe else distinct
        if not splittable:
            feature.append(-1)
            threshold.append(0.0)
            adjust.append(depth + average_path_length(len(rows)))
            continue
        # Same value and generator state as ``rng.choice(splittable)``, at a
        # fifth of its cost.
        feat = splittable[rng.integers(len(splittable))]
        # Sorted by the drawn feature (in linear time when the parent split
        # on it too), the rows hold the node's range at their ends and the
        # two children on either side of the threshold.
        key = columns[feat].__getitem__
        rows.sort(key=key)
        thr = float(rng.uniform(key(rows[0]), key(rows[-1])))
        cut = bisect_left(rows, thr, key=key)
        feature.append(feat)
        threshold.append(thr)
        adjust.append(0.0)
        stack.append((rows[cut:], depth + 1, node_id, True, maybe))
        stack.append((rows[:cut], depth + 1, node_id, False, maybe))

    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        adjust=np.asarray(adjust, dtype=np.float64),
        depth=max_depth,
    )


def _varies(column: list[float], rows: list[int]) -> bool:
    """Whether ``column`` takes two or more values on ``rows``."""
    first = column[rows[0]]
    return column[rows[-1]] != first or any(column[r] != first for r in rows)
