"""Ground-truth construction procedures (paper Section 3.2).

Two procedures mirror the paper:

* :func:`exhaustive_ground_truth` — the RefOut authors' method, applied by
  the paper to the three real datasets: for every outlier and every
  requested dimensionality, exhaustively score all subspaces with a
  detector (LOF in the paper) and keep the top-scored subspace(s) per
  outlier per dimensionality. Scores are standardised (z-scores) to avoid
  dimensionality bias.
* :func:`top_outliers_per_subspace` — the HiCS association method: given
  known relevant subspaces, run the detector in each and associate the
  top-``k`` scoring points with it (the paper uses k = 5, matching the
  generator's 5 deviating points per subspace).

:func:`verify_separability` checks the alignment the paper asserts — that
every ground-truth outlier is ranked by the detector within the top
positions of its relevant subspace — and is used by the test-suite and the
Table 1 experiment.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.datasets.base import Dataset, GroundTruth
from repro.detectors.base import Detector
from repro.detectors.lof import LOF
from repro.exceptions import GroundTruthError, ValidationError
from repro.subspaces.enumeration import all_subspaces
from repro.subspaces.scorer import SubspaceScorer
from repro.subspaces.subspace import Subspace
from repro.utils.validation import check_matrix, check_positive_int

__all__ = [
    "exhaustive_ground_truth",
    "top_outliers_per_subspace",
    "verify_separability",
]


def exhaustive_ground_truth(
    X: np.ndarray,
    outliers: Iterable[int],
    dimensionalities: Sequence[int] = (2, 3, 4),
    detector: Detector | None = None,
    top_per_dim: int = 1,
) -> GroundTruth:
    """Exhaustively derive relevant subspaces per outlier per dimensionality.

    For each requested dimensionality, every subspace is scored once for
    all points in one :meth:`~repro.subspaces.SubspaceScorer.zscores_many`
    batch, and each outlier keeps its ``top_per_dim``
    best-z-scored subspaces. This is the paper's procedure for the real
    datasets ("performing an exhaustive search from 2 up to 4 dimensions
    using LOF and keeping the top scored subspace per outlier at the
    corresponding dimension").

    Warning: the number of subspaces is :math:`\\binom{d}{m}` per
    dimensionality ``m`` — intractable for wide datasets. The experiment
    profiles bound ``d`` and ``dimensionalities`` accordingly.
    """
    X = check_matrix(X, name="X", min_rows=3)
    outlier_list = [int(o) for o in outliers]
    if not outlier_list:
        raise ValidationError("outliers must not be empty")
    top_per_dim = check_positive_int(top_per_dim, name="top_per_dim")
    detector = detector if detector is not None else LOF(k=15)
    scorer = SubspaceScorer(X, detector)

    relevant: dict[int, list[Subspace]] = {o: [] for o in outlier_list}
    for dim in dimensionalities:
        dim = check_positive_int(dim, name="dimensionality")
        if dim > X.shape[1]:
            raise ValidationError(
                f"dimensionality {dim} exceeds dataset width {X.shape[1]}"
            )
        best: dict[int, list[tuple[float, Subspace]]] = {
            o: [] for o in outlier_list
        }
        # One batch per dimensionality: a single scorer wave instead of
        # one lookup-and-dispatch round trip per subspace.
        subspaces = list(all_subspaces(X.shape[1], dim))
        for subspace, z in zip(subspaces, scorer.zscores_many(subspaces)):
            for o in outlier_list:
                best[o].append((float(z[o]), subspace))
        for o in outlier_list:
            ranked = sorted(best[o], key=lambda t: (-t[0], tuple(t[1])))
            relevant[o].extend(s for _, s in ranked[:top_per_dim])
    return GroundTruth(relevant)


def top_outliers_per_subspace(
    X: np.ndarray,
    subspaces: Iterable[Iterable[int]],
    k: int = 5,
    detector: Detector | None = None,
) -> GroundTruth:
    """Associate each known relevant subspace with its top-``k`` scored points.

    The paper's procedure for the HiCS datasets, where the relevant
    subspaces and the outliers were given but not associated: "we run LOF
    and keep the top-5 outliers with the highest scores per relevant
    subspace".
    """
    X = check_matrix(X, name="X", min_rows=3)
    k = check_positive_int(k, name="k")
    detector = detector if detector is not None else LOF(k=15)
    scorer = SubspaceScorer(X, detector)

    relevant: dict[int, list[Subspace]] = {}
    for raw in subspaces:
        subspace = Subspace(raw).validate_against(X.shape[1])
        scores = scorer.scores(subspace)
        top = np.argsort(-scores, kind="stable")[:k]
        for point in top:
            relevant.setdefault(int(point), []).append(subspace)
    if not relevant:
        raise GroundTruthError("no subspaces provided")
    return GroundTruth(relevant)


def verify_separability(
    dataset: Dataset,
    detector: Detector | None = None,
    *,
    tolerance_factor: float = 2.0,
) -> dict[Subspace, float]:
    """Check that ground-truth outliers rank highly in their subspaces.

    For every relevant subspace ``s`` with ``q`` associated outliers, the
    detector scores the projection and we record the fraction of the
    associated outliers found within the top ``tolerance_factor * q``
    ranks. For ``full_space`` datasets every outlier deviates in every
    subspace, so the rank budget is widened to the total outlier count. A
    well-formed testbed dataset should score 1.0 everywhere — Section 3.2
    requires all outliers to be discoverable by the detectors.

    Returns
    -------
    dict
        Recovered fraction per relevant subspace.
    """
    detector = detector if detector is not None else LOF(k=15)
    scorer = SubspaceScorer(dataset.X, detector)
    result: dict[Subspace, float] = {}
    for subspace in dataset.ground_truth.subspaces():
        planted = dataset.ground_truth.outliers_of(subspace)
        budget = max(1, int(tolerance_factor * len(planted)))
        if dataset.kind == "full_space":
            budget = max(budget, len(dataset.outliers))
        scores = scorer.scores(subspace)
        top = set(np.argsort(-scores, kind="stable")[:budget].tolist())
        recovered = sum(1 for p in planted if p in top)
        result[subspace] = recovered / len(planted)
    return result
