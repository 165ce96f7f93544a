"""Experiment profiles: paper-scale and scaled-down parameterisations.

The paper's full sweeps are hours of compute (e.g. Beam assessing ~2.2M
subspaces for 5d explanations of a 70d dataset). A profile bundles every
knob an experiment needs — which datasets, which explanation
dimensionalities, and the hyper-parameter overrides for detectors and
explainers — so each experiment module runs unchanged at any scale:

* ``smoke``   — seconds per experiment; used by the benchmark suite.
* ``quick``   — a few minutes; the default for the CLI.
* ``paper``   — Section 3.1 settings on all eight datasets.

Scaling preserves the *shape* of the results (who wins, where the
crossovers fall), which is the reproduction target; EXPERIMENTS.md records
the profile used for every reported number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.datasets.base import Dataset
from repro.datasets.registry import load_dataset
from repro.detectors import FastABOD, IsolationForest, LOF, Detector
from repro.exceptions import ExperimentError
from repro.explainers import Beam, HiCS, LookOut, RefOut

__all__ = ["PROFILES", "ExperimentProfile", "get_profile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """All knobs of one evaluation run.

    Attributes
    ----------
    name:
        Profile label.
    synthetic_widths:
        Which HiCS datasets to include (subset of 14/23/39/70/100).
    synthetic_samples:
        Points per synthetic dataset (paper: 1000).
    realistic_names:
        Which real-data surrogates to include.
    realistic_overrides:
        Per-dataset generator overrides (smaller ``n_features`` /
        ``gt_dimensionalities`` make the exhaustive ground-truth search
        tractable at small scales).
    explanation_dims:
        Explanation dimensionalities to sweep (paper: 2–5).
    runtime_synthetic_widths:
        Synthetic datasets of the runtime experiment (paper Figure 11 uses
        up to 39d).
    runtime_realistic_names:
        Realistic datasets of the runtime experiment (paper: Electricity).
    max_outliers_per_run:
        Cap on points explained per pipeline run (``None`` = all). The
        paper explains every ground-truth point; small profiles subsample
        for speed.
    iforest, lof_k, abod_k:
        Detector hyper-parameters.
    beam, refout, lookout, hics:
        Explainer hyper-parameter dictionaries.
    n_jobs:
        Worker processes for the MAP sweeps (1 = in-process). The paper
        profile benefits most; scaled profiles are cheap enough serially.
    backend:
        Execution backend kind for the sweeps — ``"serial"``, ``"thread"``
        or ``"process"``, or ``None`` to resolve from the ``REPRO_BACKEND``
        environment variable (which is how the CLI's ``--backend`` flag
        reaches the profile). At ``n_jobs == 1`` it is the scorers'
        backend (intra-cell parallelism); above that it is the pool the
        (dataset × detector) groups fan out through (``None`` then means
        ``"process"``). All backends produce identical numbers.
    seed:
        Seed for dataset generation and stochastic explainers.
    """

    name: str
    synthetic_widths: tuple[int, ...]
    synthetic_samples: int
    realistic_names: tuple[str, ...]
    realistic_overrides: dict = field(default_factory=dict)
    explanation_dims: tuple[int, ...] = (2, 3, 4, 5)
    runtime_synthetic_widths: tuple[int, ...] = ()
    runtime_realistic_names: tuple[str, ...] = ()
    max_outliers_per_run: int | None = None
    lof_k: int = 15
    abod_k: int = 10
    iforest: dict = field(default_factory=dict)
    beam: dict = field(default_factory=dict)
    refout: dict = field(default_factory=dict)
    lookout: dict = field(default_factory=dict)
    hics: dict = field(default_factory=dict)
    n_jobs: int = 1
    backend: str | None = None
    seed: int = 0

    # ------------------------------------------------------------------
    # Component construction.
    # ------------------------------------------------------------------

    def detectors(self) -> list[Detector]:
        """The paper's three detectors with this profile's parameters."""
        iforest_params = {
            "n_trees": 100,
            "subsample_size": 256,
            "n_repeats": 10,
            "seed": self.seed,
            **self.iforest,
        }
        return [
            LOF(k=self.lof_k),
            FastABOD(k=self.abod_k),
            IsolationForest(**iforest_params),
        ]

    def point_explainer_factories(self) -> list:
        """Factories for the two point explainers (Beam_FX, RefOut)."""
        beam_params = {"beam_width": 100, "result_size": 100, **self.beam}
        refout_params = {
            "pool_size": 100,
            "beam_width": 100,
            "result_size": 100,
            "pool_dim_fraction": 0.7,
            "seed": self.seed,
            **self.refout,
        }
        return [
            lambda: Beam(**beam_params),
            lambda: RefOut(**refout_params),
        ]

    def summary_explainer_factories(self) -> list:
        """Factories for the two summarisers (LookOut, HiCS_FX)."""
        lookout_params = {"budget": 100, **self.lookout}
        hics_params = {
            "alpha": 0.1,
            "mc_iterations": 100,
            "candidate_cutoff": 400,
            "test": "welch",
            "result_size": 100,
            "seed": self.seed,
            **self.hics,
        }
        return [
            lambda: LookOut(**lookout_params),
            lambda: HiCS(**hics_params),
        ]

    # ------------------------------------------------------------------
    # Dataset construction.
    # ------------------------------------------------------------------

    def synthetic_datasets(self, widths: tuple[int, ...] | None = None) -> list[Dataset]:
        """Build (cached) the profile's synthetic datasets."""
        return [
            load_dataset(
                f"hics_{w}", seed=self.seed, n_samples=self.synthetic_samples
            )
            for w in (widths if widths is not None else self.synthetic_widths)
        ]

    def realistic_datasets(
        self, names: tuple[str, ...] | None = None
    ) -> list[Dataset]:
        """Build (cached) the profile's realistic surrogate datasets."""
        return [
            load_dataset(
                name, seed=self.seed, **self.realistic_overrides.get(name, {})
            )
            for name in (names if names is not None else self.realistic_names)
        ]

    def all_datasets(self) -> list[Dataset]:
        """Synthetic followed by realistic datasets."""
        return self.synthetic_datasets() + self.realistic_datasets()

    def limit_points(self, points: tuple[int, ...]) -> tuple[int, ...]:
        """Apply the profile's per-run outlier cap (deterministic prefix)."""
        if self.max_outliers_per_run is None:
            return points
        return points[: self.max_outliers_per_run]

    def select_points(self, dataset: Dataset, dimensionality: int) -> tuple[int, ...]:
        """Points of interest for one grid cell under this profile's cap.

        The paper hands every pipeline the dataset's *full* outlier set;
        scaled profiles keep that structure but cap both halves: up to
        ``max_outliers_per_run`` points explained at the requested
        dimensionality (the evaluated set) plus up to the same number of
        other outliers (so summarisers still face competition from points
        explained at other dimensionalities).
        """
        all_at_dim = dataset.ground_truth.points_at(dimensionality)
        if self.max_outliers_per_run is None:
            return dataset.outliers
        at_dim = self.limit_points(all_at_dim)
        # "Others" are outliers explained at different dimensionalities
        # only — including further at-dim points here would silently widen
        # the evaluated set beyond the cap.
        others = tuple(p for p in dataset.outliers if p not in set(all_at_dim))
        return tuple(sorted(at_dim + self.limit_points(others)))

    def scaled(self, **changes: object) -> "ExperimentProfile":
        """A copy of this profile with fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


def _smoke() -> ExperimentProfile:
    return ExperimentProfile(
        name="smoke",
        synthetic_widths=(14,),
        synthetic_samples=300,
        realistic_names=("breast",),
        realistic_overrides={
            "breast": {"n_features": 8, "gt_dimensionalities": (2, 3)},
        },
        explanation_dims=(2, 3),
        runtime_synthetic_widths=(14,),
        runtime_realistic_names=("breast",),
        max_outliers_per_run=3,
        iforest={"n_trees": 20, "n_repeats": 1},
        beam={"beam_width": 15, "result_size": 15},
        refout={"pool_size": 30, "beam_width": 15, "result_size": 15},
        lookout={"budget": 15},
        # The cutoff must stay well below C(n_features, 2) or HiCS's
        # correlation pruning never engages and its real-dataset failure
        # mode (paper Figure 10 f-h) cannot reproduce.
        hics={"mc_iterations": 20, "candidate_cutoff": 12, "result_size": 15},
    )


def _quick() -> ExperimentProfile:
    return ExperimentProfile(
        name="quick",
        synthetic_widths=(14, 23),
        synthetic_samples=1000,
        realistic_names=("breast", "electricity"),
        realistic_overrides={
            "breast": {"n_features": 12, "gt_dimensionalities": (2, 3)},
            "electricity": {
                "n_features": 10,
                "n_samples": 600,
                "n_outliers": 60,
                "gt_dimensionalities": (2, 3),
            },
        },
        explanation_dims=(2, 3),
        runtime_synthetic_widths=(14, 23),
        runtime_realistic_names=("electricity",),
        max_outliers_per_run=10,
        iforest={"n_trees": 30, "n_repeats": 1},
        beam={"beam_width": 50, "result_size": 50},
        refout={"pool_size": 60, "beam_width": 50, "result_size": 50},
        lookout={"budget": 50},
        hics={"mc_iterations": 50, "candidate_cutoff": 30, "result_size": 50},
    )


def _paper() -> ExperimentProfile:
    return ExperimentProfile(
        name="paper",
        synthetic_widths=(14, 23, 39, 70, 100),
        synthetic_samples=1000,
        realistic_names=("breast", "breast_diagnostic", "electricity"),
        realistic_overrides={},
        explanation_dims=(2, 3, 4, 5),
        runtime_synthetic_widths=(14, 23, 39),
        runtime_realistic_names=("electricity",),
        max_outliers_per_run=None,
        n_jobs=4,
    )


PROFILES: dict[str, ExperimentProfile] = {
    "smoke": _smoke(),
    "quick": _quick(),
    "paper": _paper(),
}


def get_profile(name: str) -> ExperimentProfile:
    """Look up a profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from None
