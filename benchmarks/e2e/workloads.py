"""The benchmark's workloads, one invocation per fresh process.

``run.py`` starts this file once per invocation::

    python3 benchmarks/e2e/workloads.py WORKLOAD SEED MODE RESULT_JSON [SPANS_JSONL]

``MODE`` is ``time`` (untraced), ``trace`` (layer wrappers installed) or
``verify`` (the same outputs through an independent path). The process
builds everything from the seed through the public ``repro`` API and
runs with the library's defaults. It writes set-up and sweep seconds,
the op counts, a result digest, the ``repro.obs`` counters and, when
traced, the per-layer table to ``RESULT_JSON``.

Every workload is a scaled-down slice of the paper's pipeline: one
invocation takes seconds, so a run can repeat it many times.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass

#: The checkout's own package source; an invocation never imports another.
SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))

if __name__ == "__main__":
    sys.path.insert(0, SRC)

from repro.datasets.base import Dataset
from repro.detectors import LOF, FastABOD
from repro.experiments import figure9, figure10, table1
from repro.experiments.config import ExperimentProfile, get_profile
from repro.explainers.contrast_cache import contrast_cache_stats
from repro.obs.metrics import get_registry
from repro.pipeline.pipeline import ExplanationPipeline
from repro.serve.engine import ExplainEngine
from repro.stats.zscore import zscores
from repro.subspaces.enumeration import all_subspaces

from tracer import Tracer, fold

__all__ = ["WORKLOADS", "Outcome", "Workload", "digest", "result_rows"]

#: Explanation ranks each digest row keeps per point.
TOP_RANKS = 10


@dataclass
class Outcome:
    """What one sweep produced: digest rows, op counts, problems found."""

    rows: list
    attempted: int
    failed: int
    problems: list[str]


@dataclass(frozen=True)
class Workload:
    """A profile built from the seed, a sweep, and its independent check."""

    profile: Callable[[int], ExperimentProfile]
    sweep: Callable[[ExperimentProfile, list[Dataset]], Outcome]
    verify: Callable[[ExperimentProfile, list[Dataset]], Outcome]


# ----------------------------------------------------------------------
# Profiles: the only inputs the program receives.
# ----------------------------------------------------------------------


def gt_build_profile(seed: int) -> ExperimentProfile:
    """Smoke datasets, with the breast surrogate at 198x14 searched 2-4d."""
    return get_profile("smoke").scaled(
        seed=seed,
        realistic_overrides={
            "breast": {"n_features": 14, "gt_dimensionalities": (2, 3, 4)}
        },
    )


def grid_profile(seed: int) -> ExperimentProfile:
    """Smoke grid at 2d: 200-point hics_14, 2-tree forest, 15-subspace pool."""
    return get_profile("smoke").scaled(
        seed=seed,
        synthetic_samples=200,
        explanation_dims=(2,),
        iforest={"n_trees": 2, "n_repeats": 1},
        refout={"pool_size": 15, "beam_width": 15, "result_size": 15},
    )


def grid_par2_profile(seed: int) -> ExperimentProfile:
    """The same grid through the profile's own process-pool knob."""
    return grid_profile(seed).scaled(n_jobs=2)


def cold_knn_profile(seed: int) -> ExperimentProfile:
    """Figure 11's datasets (hics_14, electricity) at 600 and 300 points."""
    smoke = get_profile("smoke")
    return smoke.scaled(
        seed=seed,
        synthetic_samples=600,
        realistic_names=("electricity",),
        realistic_overrides={
            "electricity": {
                "n_features": 10,
                "n_samples": 300,
                "n_outliers": 30,
                "gt_dimensionalities": (2, 3),
            }
        },
        explanation_dims=(2,),
        refout={"pool_size": 10, "beam_width": 15, "result_size": 15},
    )


# ----------------------------------------------------------------------
# Sweeps and their independent checks.
# ----------------------------------------------------------------------


def ground_truth_rows(datasets: list[Dataset]) -> list:
    """Every outlier's ground-truth subspaces, per dataset."""
    return [
        [dataset.name, point, [list(s) for s in dataset.ground_truth.relevant_for(point)]]
        for dataset in datasets
        for point in dataset.ground_truth.points
    ]


def sweep_table1(profile: ExperimentProfile, datasets: list[Dataset]) -> Outcome:
    """Table 1 over the built datasets; an op is one dataset build."""
    report = table1.run(profile)
    rows = ground_truth_rows(datasets) + [["table1", row] for row in report.rows]
    problems = [
        f"{dataset.name}: outlier {point} lacks one {dim}d ground-truth subspace"
        for dataset in datasets
        if dataset.kind == "full_space"
        for point in dataset.outliers
        for dim in dataset.metadata["gt_dimensionalities"]
        if len(dataset.ground_truth.relevant_at(point, dim)) != 1
    ]
    return Outcome(rows, len(datasets), 0, problems)


def verify_table1(profile: ExperimentProfile, datasets: list[Dataset]) -> Outcome:
    """Table 1 plus a direct LOF recomputation of every 2d ground truth.

    Scores each 2d projection with a bare ``LOF`` call (no scorer, no
    distance substrate) and requires the searched subspace to reach the
    best z-score within float32 rounding.
    """
    outcome = sweep_table1(profile, datasets)
    for dataset in datasets:
        if dataset.kind != "full_space":
            continue
        candidates = list(all_subspaces(dataset.n_features, 2))
        z = [zscores(LOF(k=15).score(dataset.X[:, list(s)])) for s in candidates]
        for point in dataset.outliers:
            (chosen,) = dataset.ground_truth.relevant_at(point, 2)
            best = max(float(vector[point]) for vector in z)
            found = float(z[candidates.index(chosen)][point])
            if found < best - 1e-5:
                outcome.problems.append(
                    f"{dataset.name}: outlier {point} ground truth {tuple(chosen)} "
                    f"scores {found:.6f}, best 2d subspace {best:.6f}"
                )
    return outcome


def _grid_cells(profile: ExperimentProfile, datasets: list[Dataset]) -> int:
    """Cells the Figure 9 + 10 sweeps define: 12 pipelines per slice."""
    slices = sum(
        1
        for dataset in datasets
        for dim in profile.explanation_dims
        if dim in dataset.ground_truth.dimensionalities()
        and profile.select_points(dataset, dim)
    )
    return 12 * slices


def sweep_grid(profile: ExperimentProfile, datasets: list[Dataset]) -> Outcome:
    """Figures 9 and 10 as the CLI runs them; an op is one grid cell."""
    results = []
    for experiment in (figure9, figure10):
        results.extend(experiment.run(profile).results)
    attempted = _grid_cells(profile, datasets)
    return Outcome(
        result_rows(results), attempted, attempted - len(results), check_results(results)
    )


def verify_grid(profile: ExperimentProfile, datasets: list[Dataset]) -> Outcome:
    """The same cells through the other grid executor."""
    other = profile.scaled(n_jobs=1 if profile.n_jobs > 1 else 2)
    return sweep_grid(other, datasets)


def _cold_cells(profile: ExperimentProfile, datasets: list[Dataset], engine):
    """Figure 11's cell loop for LOF and Fast ABOD × the four explainers."""
    detectors = [LOF(k=profile.lof_k), FastABOD(k=profile.abod_k)]
    factories = (
        profile.point_explainer_factories() + profile.summary_explainer_factories()
    )
    results, errors, attempted = [], [], 0
    for dataset in datasets:
        for dim in profile.explanation_dims:
            if dim not in dataset.ground_truth.dimensionalities():
                continue
            points = profile.select_points(dataset, dim)
            for detector in detectors:
                for factory in factories:
                    attempted += 1
                    pipeline = ExplanationPipeline(
                        detector,
                        factory(),
                        share_scorer=engine is not None,
                        engine=engine,
                    )
                    try:
                        results.append(pipeline.run(dataset, dim, points=points))
                    except Exception as exc:  # noqa: BLE001 - counted as a failed op
                        errors.append(f"{dataset.name} / {pipeline.name}: {exc!r}")
    return Outcome(
        result_rows(results),
        attempted,
        attempted - len(results),
        check_results(results) + errors,
    )


def sweep_cold(profile: ExperimentProfile, datasets: list[Dataset]) -> Outcome:
    """Every cell with a fresh scorer, as Figure 11 times them."""
    return _cold_cells(profile, datasets, engine=None)


def verify_cold(profile: ExperimentProfile, datasets: list[Dataset]) -> Outcome:
    """The same cells sharing warm scorers: caches must not change results."""
    return _cold_cells(profile, datasets, engine=ExplainEngine())


WORKLOADS: dict[str, Workload] = {
    "gt_build": Workload(gt_build_profile, sweep_table1, verify_table1),
    "grid_smoke": Workload(grid_profile, sweep_grid, verify_grid),
    "grid_smoke_par2": Workload(grid_par2_profile, sweep_grid, verify_grid),
    "cold_knn": Workload(cold_knn_profile, sweep_cold, verify_cold),
}


# ----------------------------------------------------------------------
# Digests and checks.
# ----------------------------------------------------------------------


def result_rows(results) -> list:  # noqa: ANN001 - iterable of PipelineResult
    """One row per cell: identity, MAP, recall, every point's top ranks."""
    rows = []
    for result in results:
        explanations = result.explanations or {}
        rows.append(
            [
                result.dataset,
                f"{result.explainer}+{result.detector}",
                result.dimensionality,
                round(result.map, 9),
                round(result.mean_recall, 9),
                [
                    [point, [list(s) for s in explanations[point].subspaces[:TOP_RANKS]]]
                    for point in sorted(explanations)
                ],
            ]
        )
    return rows


def digest(rows: list) -> str:
    """Order-independent sha256 over the rows."""
    encoded = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(encoded).encode()).hexdigest()


def check_results(results) -> list[str]:  # noqa: ANN001 - iterable of PipelineResult
    """Range and shape checks every cell must pass."""
    problems = []
    for result in results:
        cell = f"{result.dataset} / {result.explainer}+{result.detector}"
        if not (0.0 <= result.map <= 1.0 and 0.0 <= result.mean_recall <= 1.0):
            problems.append(f"{cell}: MAP {result.map} or recall out of [0, 1]")
        for point, ranking in (result.explanations or {}).items():
            if not ranking.subspaces or any(
                len(s) != result.dimensionality for s in ranking.subspaces
            ):
                problems.append(f"{cell}: point {point} ranking has a wrong shape")
    return problems


def registry_counts() -> dict[str, float]:
    """The ``repro.obs`` counters the per-layer ratios are read from."""
    registry = get_registry()

    def total(name: str) -> float:
        metric = registry.get(name)
        return 0.0 if metric is None else float(sum(v for _, v in metric.samples()))

    hics = contrast_cache_stats()
    return {
        "scorer_evaluations": total("repro_scorer_subspaces_scored_total"),
        "scorer_hits": total("repro_scorer_cache_hits_total"),
        "scorer_misses": total("repro_scorer_cache_misses_total"),
        "dist_hits": total("repro_dist_hits_total"),
        "dist_misses": total("repro_dist_misses_total"),
        "hics_hits": float(hics["hits"]),
        "hics_misses": float(hics["misses"]),
    }


# ----------------------------------------------------------------------
# Invocation.
# ----------------------------------------------------------------------


def invoke(name: str, seed: int, mode: str, spans_path: str | None = None) -> dict:
    """Run one workload invocation in this process; return its record."""
    workload = WORKLOADS[name]
    profile = workload.profile(seed)
    tracer = Tracer().install() if mode == "trace" else None
    try:
        with tracer.span() if tracer is not None else nullcontext():
            started = time.perf_counter()
            datasets = profile.all_datasets()
            setup_s = time.perf_counter() - started
            sweep = workload.verify if mode == "verify" else workload.sweep
            outcome = sweep(profile, datasets)
            sweep_s = time.perf_counter() - started - setup_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "workload": name,
        "seed": seed,
        "mode": mode,
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "digest": digest(outcome.rows),
        "counts": registry_counts(),
    }
    if tracer is not None:
        record["layers"] = fold(tracer.spans)
        if spans_path:
            tracer.write_jsonl(spans_path)
    return record


def main(argv: list[str]) -> int:
    if len(argv) not in (5, 6) or argv[1] not in WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    import repro

    if not os.path.realpath(repro.__file__).startswith(SRC + os.sep):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    name, seed, mode, out = argv[1], int(argv[2]), argv[3], argv[4]
    if mode not in ("time", "trace", "verify"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    record = invoke(name, seed, mode, argv[5] if len(argv) == 6 else None)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
