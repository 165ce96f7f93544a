"""Shared machinery for the MAP sweeps of Figures 9 and 10.

Both figures run a family of explainers against the three detectors across
all datasets and explanation dimensionalities, then display one
MAP-vs-dimensionality panel per dataset. Only the explainer family
differs, so the sweep lives here.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.experiments.config import ExperimentProfile
from repro.experiments.report import ExperimentReport
from repro.pipeline.parallel import run_grid_parallel

__all__ = ["run_map_sweep"]


def run_map_sweep(
    *,
    experiment: str,
    title: str,
    profile: ExperimentProfile,
    explainer_factories: Sequence[Callable[[], object]],
) -> ExperimentReport:
    """Run explainers × detectors × datasets × dims; report MAP panels.

    One ASCII panel per dataset mirrors one subplot of the paper's figure:
    rows = explanation dimensionality, columns = ``explainer+detector``
    pipeline, cells = MAP. With ``profile.n_jobs > 1`` the
    (dataset × detector) groups fan out over a worker pool; at 1 they run
    in-process.
    """
    datasets = profile.all_datasets()
    results, skipped, skipped_undefined, failed_cells = run_grid_parallel(
        datasets,
        profile.detectors(),
        list(explainer_factories),
        profile.explanation_dims,
        n_jobs=profile.n_jobs,
        backend=profile.backend,
        points_selector=profile.select_points,
    )

    sections: list[str] = []
    rows: list[dict[str, object]] = []
    for dataset in datasets:
        subset = results.filter(dataset=dataset.name)
        if not len(subset):
            continue
        sections.append(
            subset.to_ascii(
                rows="dimensionality",
                cols="pipeline",
                value="map",
                title=(
                    f"{dataset.name} ({dataset.n_samples} samples, "
                    f"{dataset.n_features} features, "
                    f"{len(dataset.outliers)} outliers) — MAP"
                ),
            )
        )
        rows.extend(subset.rows())
    if skipped:
        skipped_lines = [
            f"  {ds} / {det} / {expl} @ {dim}d: {reason}"
            for ds, det, expl, dim, reason in skipped
        ]
        sections.append("skipped cells:\n" + "\n".join(skipped_lines))
    if skipped_undefined:
        undefined_lines = [
            f"  {ds} @ {dim}d: {reason}" for ds, dim, reason in skipped_undefined
        ]
        sections.append(
            "undefined cells (never attempted):\n" + "\n".join(undefined_lines)
        )
    if failed_cells:
        failed_lines = [
            f"  {ds} / {det} / {expl} @ {dim}d: {reason}"
            for ds, det, expl, dim, reason in failed_cells
        ]
        sections.append(
            "failed cells (transient-retry budget exhausted — rerun with "
            "--resume to reattempt):\n" + "\n".join(failed_lines)
        )
    return ExperimentReport(
        experiment=experiment,
        title=title,
        profile=profile.name,
        sections=sections,
        rows=rows,
        results=results,
    )
