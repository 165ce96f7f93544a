"""Surrogates for the paper's three real datasets (full-space outliers).

The paper evaluates on *Breast* (198×31, 20 outliers), *Breast Diagnostic*
(569×30, 57 outliers) and *Electricity* (1205×23, 121 outliers) — UCI data
prepared by the RefOut authors, with ~10 % contamination by LOF-detected
**full-space** outliers and ground truth derived by exhaustive LOF search
over 2–4d subspaces.

Those files are not redistributable here, so this module generates
*surrogates with the same structural properties* (see DESIGN.md, the
substitution table):

* identical shape and contamination,
* inliers drawn from a few moderately-correlated Gaussian clusters
  spanning **all** features (so there is no planted subspace structure —
  the condition under which the paper reports HiCS failing),
* outliers displaced from a cluster in *every* feature by several standard
  deviations — visible in the full space, in projections, and in
  augmentations, exactly the paper's "full space outlier" regime,
* ground truth constructed with the paper's own procedure
  (:func:`~repro.datasets.ground_truth.exhaustive_ground_truth`).

The exhaustive search is the cost driver: :math:`\\binom{d}{m}` LOF runs
per dimensionality ``m``. One walk over the subspace lattice composes each
subspace's distances from its parent's with one add, so the neighbour
selection of every LOF run is most of what remains. The experiment
profiles therefore scale ``n_features`` and the searched dimensionalities
down for smoke runs while the ``paper`` profile keeps the published
shapes.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.ground_truth import exhaustive_ground_truth
from repro.detectors.base import Detector
from repro.exceptions import ValidationError
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive_int

__all__ = ["REALISTIC_SHAPES", "make_realistic_dataset"]

#: (n_samples, n_features, n_outliers) of the paper's real datasets.
REALISTIC_SHAPES: dict[str, tuple[int, int, int]] = {
    "breast": (198, 31, 20),
    "breast_diagnostic": (569, 30, 57),
    "electricity": (1205, 23, 121),
}

#: Outlier displacement per feature, in cluster standard deviations.
_DISPLACEMENT_SIGMAS = (3.5, 6.0)

_N_CLUSTERS = 3


def make_realistic_dataset(
    name: str = "breast",
    *,
    n_samples: int | None = None,
    n_features: int | None = None,
    n_outliers: int | None = None,
    gt_dimensionalities: tuple[int, ...] = (2, 3, 4),
    detector: Detector | None = None,
    seed: int = 0,
) -> Dataset:
    """Generate a full-space-outlier surrogate of a real dataset.

    Parameters
    ----------
    name:
        One of :data:`REALISTIC_SHAPES` (``"breast"``,
        ``"breast_diagnostic"``, ``"electricity"``) — sets the default
        shape — or any other label if all three shape arguments are given.
    n_samples, n_features, n_outliers:
        Shape overrides (e.g. smoke profiles shrink ``n_features`` to keep
        the exhaustive ground-truth search fast).
    gt_dimensionalities:
        Dimensionalities of the exhaustive ground-truth search
        (paper: 2–4).
    detector:
        Detector for the ground-truth search (paper: LOF, the default).
    seed:
        Generator seed.
    """
    if name in REALISTIC_SHAPES:
        default_n, default_d, default_o = REALISTIC_SHAPES[name]
    elif n_samples is None or n_features is None or n_outliers is None:
        raise ValidationError(
            f"unknown dataset name {name!r}: give n_samples, n_features and "
            f"n_outliers explicitly, or use one of {sorted(REALISTIC_SHAPES)}"
        )
    else:
        default_n = default_d = default_o = 0  # all overridden below
    n = check_positive_int(n_samples or default_n, name="n_samples", minimum=30)
    d = check_positive_int(n_features or default_d, name="n_features", minimum=2)
    o = check_positive_int(n_outliers or default_o, name="n_outliers")
    if o >= n // 2:
        raise ValidationError(
            f"n_outliers={o} too large for n_samples={n} (max {n // 2 - 1})"
        )
    max_dim = max(gt_dimensionalities)
    if max_dim > d:
        raise ValidationError(
            f"gt dimensionality {max_dim} exceeds n_features={d}"
        )

    rng = as_rng(np.random.SeedSequence([0x5EA1, int(seed), n, d, o]))
    X, cluster_of = _sample_inliers(n, d, rng)
    outlier_idx = _plant_outliers(X, cluster_of, o, rng)

    ground_truth = exhaustive_ground_truth(
        X, outlier_idx, dimensionalities=gt_dimensionalities, detector=detector
    )
    return Dataset(
        name=name,
        X=X,
        outliers=tuple(outlier_idx),
        ground_truth=ground_truth,
        kind="full_space",
        metadata={
            "generator": "make_realistic_dataset",
            "seed": int(seed),
            "gt_dimensionalities": tuple(gt_dimensionalities),
            "surrogate_for": name if name in REALISTIC_SHAPES else None,
        },
    )


def _sample_inliers(
    n: int, d: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian cluster mixture with mild random correlations, all features."""
    centers = rng.uniform(-4.0, 4.0, size=(_N_CLUSTERS, d))
    scales = rng.uniform(0.5, 1.0, size=(_N_CLUSTERS, d))
    cluster_of = rng.integers(_N_CLUSTERS, size=n)
    X = centers[cluster_of] + rng.normal(size=(n, d)) * scales[cluster_of]
    # Mild global correlation: mix each feature with a shared latent factor.
    latent = rng.normal(size=n)
    loadings = rng.uniform(0.0, 0.4, size=d)
    X += np.outer(latent, loadings)
    return X, cluster_of


def _plant_outliers(
    X: np.ndarray, cluster_of: np.ndarray, n_outliers: int, rng: np.random.Generator
) -> list[int]:
    """Displace ``n_outliers`` random points away from their cluster.

    Every feature is displaced by 3.5–6 cluster standard deviations with a
    random sign, so the point is outlying in the full space and in
    essentially every projection — with the *strongest* deviations (the
    exhaustively-derived relevant subspaces) varying per point.
    """
    n, d = X.shape
    lo, hi = _DISPLACEMENT_SIGMAS
    chosen = rng.choice(n, size=n_outliers, replace=False)
    for point in chosen:
        members = np.flatnonzero(cluster_of == cluster_of[point])
        center = X[members].mean(axis=0)
        sigma = X[members].std(axis=0) + 1e-9
        signs = rng.choice([-1.0, 1.0], size=d)
        magnitude = rng.uniform(lo, hi, size=d)
        X[point] = center + signs * magnitude * sigma
    return sorted(int(p) for p in chosen)
