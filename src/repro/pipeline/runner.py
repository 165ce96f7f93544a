"""Grid runner: all detector × explainer × dataset × dimensionality cells.

The paper's evaluation is a cross-product (Figure 7: 12 pipelines × 8
datasets × explanation dimensionalities 2–5). :class:`GridRunner` executes
such a grid in-process with one warm scorer per (dataset, detector) — the
same amortisation the testbed relies on — and collects a
:class:`~repro.pipeline.results.ResultTable`. It is the in-process entry
point of the one grid executor in :mod:`repro.pipeline.parallel`, so
fault tolerance (see :mod:`repro.ft`), per-cell journaling, resume, the
``repro_grid_cells_*`` metrics and the deterministic (dataset, detector,
explainer, dimensionality) row order are exactly those of
:func:`~repro.pipeline.run_grid_parallel`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.datasets.base import Dataset
from repro.detectors.base import Detector
from repro.exceptions import ExperimentError
from repro.ft import FTConfig, resolve_ft
from repro.pipeline.parallel import _run_grid
from repro.pipeline.pipeline import ExplanationPipeline, PipelineResult
from repro.pipeline.results import ResultTable

__all__ = ["GridRunner"]

ProgressHook = Callable[[PipelineResult], None]


class GridRunner:
    """Runs every combination of the supplied components.

    Parameters
    ----------
    detectors:
        Detector instances (reused across explainers via shared scorers).
    explainer_factories:
        Zero-argument callables producing fresh explainer instances —
        factories rather than instances so stateful explainers cannot leak
        state across (dataset, detector) groups.
    on_result:
        Optional callback invoked after each cell (progress reporting).
        Also fires for cells replayed from a checkpoint journal, so
        progress counts stay truthful across resumes.
    skip_errors:
        When ``True``, cells that raise a *fatal* error are recorded as
        skipped instead of aborting the grid (mirrors the paper running
        some pipelines "only up to 3d explanations" where others were
        infeasible). Transient errors are governed by ``ft`` instead: they
        are retried, and on exhaustion always degrade into
        :attr:`failed_cells` rather than raising.
    points_selector:
        Optional ``(dataset, dimensionality) -> points`` hook restricting
        which ground-truth points each cell explains (experiment profiles
        cap the outlier count for scaled-down runs). ``None`` explains all
        points the ground truth defines at the dimensionality.
    backend:
        Execution backend (name, instance, or ``None`` for the
        ``REPRO_BACKEND`` default) of the grid's scorers — this is the
        *intra-cell* parallelism knob; see
        :func:`~repro.pipeline.run_grid_parallel` for inter-cell fan-out.
    ft:
        Fault-tolerance configuration (checkpoint journal, retry budget,
        per-cell timeout, fault injection). ``None`` resolves from the
        ``REPRO_CHECKPOINT`` / ``REPRO_MAX_RETRIES`` / ``REPRO_CELL_TIMEOUT``
        / ``REPRO_FAULT_RATE`` environment variables — all inert by
        default, so a plain ``GridRunner(...)`` behaves exactly as before.

    Each :meth:`run` draws every scorer from one
    :class:`~repro.serve.ExplainEngine`, so all explainers paired with the
    same detector share one warm scorer per dataset, and the detectors of
    one dataset share its distance provider.
    """

    def __init__(
        self,
        detectors: Sequence[Detector],
        explainer_factories: Sequence[Callable[[], object]],
        *,
        on_result: ProgressHook | None = None,
        skip_errors: bool = False,
        points_selector: Callable[[Dataset, int], tuple[int, ...]] | None = None,
        backend: object = None,
        ft: FTConfig | None = None,
    ) -> None:
        if not detectors:
            raise ExperimentError("at least one detector is required")
        if not explainer_factories:
            raise ExperimentError("at least one explainer factory is required")
        self.detectors = list(detectors)
        self.explainer_factories = list(explainer_factories)
        self.on_result = on_result
        self.skip_errors = skip_errors
        self.points_selector = points_selector
        self.ft = ft
        self.skipped: list[tuple[str, str, str, int, str]] = []
        #: Cells never attempted: ``(dataset, dimensionality, reason)`` where
        #: reason is ``"undefined_dimensionality"`` (no ground-truth point at
        #: the requested dimensionality) or ``"empty_selection"`` (the
        #: ``points_selector`` returned no points). One entry covers every
        #: pipeline of the grid, making grid coverage auditable instead of
        #: silently thinner than the cross-product suggests.
        self.skipped_undefined: list[tuple[str, int, str]] = []
        #: Cells that exhausted their transient-retry budget:
        #: ``(dataset, detector, explainer, dimensionality, error)`` — the
        #: same audit shape as :attr:`skipped`. A failed cell never aborts
        #: the grid; it is journaled (when checkpointing) for triage and
        #: re-attempted on the next resumed run.
        self.failed_cells: list[tuple[str, str, str, int, str]] = []
        self.backend = backend

    @property
    def pipelines(self) -> list[ExplanationPipeline]:
        """All detector × explainer pipelines of the grid, built fresh per access."""
        return [
            ExplanationPipeline(detector, factory(), backend=self.backend)  # type: ignore[arg-type]
            for detector in self.detectors
            for factory in self.explainer_factories
        ]

    def run(
        self,
        datasets: Iterable[Dataset],
        dimensionalities: Sequence[int],
        *,
        checkpoint: str | None = None,
        resume: bool | None = None,
    ) -> ResultTable:
        """Execute the full grid and return the collected results.

        Cells whose dataset has no ground-truth point at a requested
        dimensionality (or whose ``points_selector`` returns nothing) are
        not defined; they are recorded in :attr:`skipped_undefined` and
        counted on ``repro_grid_cells_skipped_total`` rather than silently
        dropped.

        ``checkpoint`` (and ``resume``) override the corresponding
        :class:`~repro.ft.FTConfig` fields for this run only: with a
        journal path, every completed cell is appended (flushed per cell),
        and a restart skips journaled cells, merging their rows into the
        table at the position an uninterrupted run would produce them.
        """
        ft = resolve_ft(self.ft)
        if checkpoint is not None:
            ft = ft.with_overrides(checkpoint=checkpoint)
        if resume is not None:
            ft = ft.with_overrides(resume=resume)
        table, skipped, undefined, failed = _run_grid(
            list(datasets), self.detectors, self.explainer_factories,
            dimensionalities, n_jobs=1, backend=self.backend,
            points_selector=self.points_selector, skip_errors=self.skip_errors,
            ft=ft, on_result=self.on_result,
        )
        self.skipped.extend(skipped)
        self.skipped_undefined.extend(undefined)
        self.failed_cells.extend(failed)
        return table
