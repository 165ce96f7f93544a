"""Grid execution: one executor behind both grid entry points.

The paper's evaluation is a cross-product (Figure 7: 12 pipelines × 8
datasets × explanation dimensionalities 2–5). Both entry points —
:class:`~repro.pipeline.GridRunner` and :func:`run_grid_parallel` — run
it through the one private executor in this module. It plans the grid
once as (dataset × detector) groups: every explainer of a group draws the
same warm scorer, so the per-(dataset, detector) score cache amortises
detector cost exactly as in the paper's testbed, and a group is one
dataset ship when groups fan out.

With ``n_jobs == 1`` the groups run inline and share one
:class:`~repro.serve.ExplainEngine` for the call, so scorers of different
detectors on one dataset share its distance provider; ``backend`` is
then the scorers' execution backend. With ``n_jobs > 1`` ``backend`` is
the pool the groups fan out through — the same
:class:`~repro.exec.ExecutionBackend` abstraction the
:class:`~repro.subspaces.SubspaceScorer` dispatches its cache-miss waves
through — and each worker builds one engine per group.

Every cell outcome passes one absorb step in the calling process: it
journals the cell to the :mod:`repro.ft` checkpoint, counts it on the
``repro_grid_cells_*`` metrics, reports it to the heartbeat and to the
``on_result`` hook. Inline, a cell is absorbed the moment it finishes;
from the pool, when its group lands (a killed run keeps everything that
landed). A resumed run replays journaled cells instead of recomputing
them, and rows are merged in one deterministic (dataset, detector,
explainer, dimensionality) order however the groups were scheduled.

Cells that are never attempted (no ground-truth point at a requested
dimensionality, or an empty ``points_selector`` result) are recorded as
``(dataset, dimensionality, reason)`` audit records, so grid coverage is
auditable instead of silently thinner than the cross-product suggests.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.datasets.base import Dataset
from repro.detectors.base import Detector
from repro.exceptions import ExperimentError
from repro.exec import ExecutionBackend, resolve_backend
from repro.ft import CheckpointJournal, FTConfig, cell_key, execute_cell, resolve_ft
from repro.obs import metrics as obs_metrics
from repro.obs.heartbeat import heartbeat_from_env
from repro.obs.trace import span as obs_span
from repro.pipeline.pipeline import ExplanationPipeline, PipelineResult
from repro.pipeline.results import ResultTable
from repro.serve.engine import ExplainEngine
from repro.shm import plane as _shm

__all__ = ["GRID_SHARDS_ENV", "resolve_grid_shards", "run_grid_parallel"]

#: Shard count for the sharded grid dispatch (``--shards``): ``0``/unset
#: keeps the classic completion-order dispatch, ``auto`` matches the
#: worker count, any positive integer fixes the number of shards.
GRID_SHARDS_ENV = "REPRO_GRID_SHARDS"


def resolve_grid_shards(
    shards: "int | str | None" = None, *, n_jobs: int
) -> int:
    """Resolve the grid shard count from an explicit value or the env.

    ``None`` reads :data:`GRID_SHARDS_ENV`; ``"auto"`` means one shard
    per worker; ``0``/``"off"`` disables sharding (classic dispatch).

    Examples
    --------
    >>> resolve_grid_shards(0, n_jobs=4)
    0
    >>> resolve_grid_shards("auto", n_jobs=4)
    4
    >>> resolve_grid_shards(3, n_jobs=4)
    3
    """
    raw = shards if shards is not None else os.environ.get(GRID_SHARDS_ENV, "0")
    if isinstance(raw, str):
        text = raw.strip().lower()
        if text in ("", "0", "off", "no", "false"):
            return 0
        if text == "auto":
            return max(1, int(n_jobs))
        try:
            value = int(text)
        except ValueError:
            raise ExperimentError(
                f"invalid shard count {raw!r}: expected an integer or 'auto'"
            ) from None
    else:
        value = int(raw)
    if value < 0:
        raise ExperimentError(f"shard count must be >= 0, got {value}")
    return value


def _partition_shards(weights: Sequence[int], n_shards: int) -> list[list[int]]:
    """LPT-partition group indices into at most ``n_shards`` shards.

    Longest-processing-time-first: heaviest group into the currently
    lightest shard, ties broken by index, so the partition is
    deterministic. Each shard's indices come back ascending — workers
    drain their home shard in submission order, which keeps the
    journal's completion pattern close to the classic dispatch.

    Examples
    --------
    >>> _partition_shards([5, 1, 4, 2], 2)
    [[0, 1], [2, 3]]
    """
    n_shards = max(1, min(int(n_shards), len(weights)))
    loads = [0] * n_shards
    members: list[list[int]] = [[] for _ in range(n_shards)]
    for index in sorted(range(len(weights)), key=lambda i: (-weights[i], i)):
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += weights[index]
        members[target].append(index)
    for shard in members:
        shard.sort()
    return members


def _publish_datasets(
    backend: ExecutionBackend, groups: "Sequence[GroupSpec]"
) -> "_shm.PlaneLease | None":
    """Publish every distinct dataset matrix before a process-backend map.

    Workers then attach read-only views instead of unpickling a copy per
    group (see :meth:`Dataset.__getstate__`). The returned lease must be
    held until the map completes — every worker has deserialised by then
    — and released so the segments unlink with the run. ``None`` when
    the backend keeps memory shared anyway (serial/thread) or shm is off.
    """
    if backend.name != "process" or not _shm.shm_enabled():
        return None
    plane = _shm.get_plane()
    keys: dict[tuple, None] = {}
    for dataset, _, _ in groups:
        ref = plane.publish(dataset.X, key=("data", dataset.fingerprint[1]))
        keys[ref.key] = None
    if not keys:
        return None
    return plane.lease(keys)


_CELLS_RUN = obs_metrics.counter(
    "repro_grid_cells_total", "Grid cells executed to completion"
)
_CELLS_SKIPPED = obs_metrics.counter(
    "repro_grid_cells_skipped_total", "Grid cells skipped, by reason"
)

#: One planned cell: (journal key, explainer instance, explainer name,
#: dimensionality, points).
Cell = tuple[str, object, str, int, tuple[int, ...] | None]
#: One (dataset, detector) group, the unit of dispatch.
GroupSpec = tuple[Dataset, Detector, list[Cell]]
#: One error-skipped or failed cell: (dataset, detector, explainer, dim, error).
SkipRecord = tuple[str, str, str, int, str]
#: One never-attempted slice: (dataset, dimensionality, reason).
UndefinedRecord = tuple[str, int, str]
#: How one cell ended: ``("result", PipelineResult)``, ``("replayed",
#: None)`` for a journaled cell, or ``("failed" | "error", message)``.
CellOutcome = tuple[str, object]
#: ``(table, skipped, skipped_undefined, failed_cells)``.
GridOutcome = tuple[
    ResultTable, list[SkipRecord], list[UndefinedRecord], list[SkipRecord]
]


def run_grid_parallel(
    datasets: Sequence[Dataset],
    detectors: Sequence[Detector],
    explainer_factories: Sequence[Callable[[], object]],
    dimensionalities: Sequence[int],
    *,
    n_jobs: int = 2,
    backend: "str | ExecutionBackend | None" = None,
    points_selector: Callable[[Dataset, int], tuple[int, ...]] | None = None,
    skip_errors: bool = True,
    ft: "FTConfig | None" = None,
    shards: "int | str | None" = None,
) -> GridOutcome:
    """Run the full grid, inline or over a worker pool.

    Parameters mirror :class:`~repro.pipeline.GridRunner`. ``n_jobs`` is
    the worker count. At ``n_jobs=1`` the groups run inline, exactly as
    ``GridRunner.run`` runs them, and ``backend`` is the scorers'
    execution backend. Above that ``backend`` is the pool kind
    (``"process"`` by default) or a caller-owned instance. ``ft``
    configures checkpointing, retries, and per-cell timeouts (``None``
    resolves from the ``REPRO_*`` environment — inert by default).
    ``shards`` switches the pool to the sharded dispatch: groups are
    LPT-partitioned into per-worker shards and idle workers steal from
    the tail of the longest remaining shard (``"auto"`` = one shard per
    worker, ``0``/``None`` resolves ``REPRO_GRID_SHARDS``, default off).
    Stealing changes scheduling only — the result table is byte-identical
    to the classic dispatch, and every stolen group still journals the
    moment it lands, so a killed sharded run resumes exactly like a
    classic one.

    Returns ``(table, skipped, skipped_undefined, failed_cells)``: the
    result table, the fatally-skipped cell records, the never-attempted
    audit records, and the cells that exhausted their transient-retry
    budget (same record shape as ``skipped``; they never abort the grid).

    All components must be picklable for the process backend — true for
    every detector, explainer and dataset in this library.

    Examples
    --------
    >>> table, skipped, undefined, failed = run_grid_parallel(
    ...     datasets, detectors, factories, [2, 3],
    ...     n_jobs=4, backend="process",
    ...     ft=FTConfig(checkpoint="grid.journal", max_retries=2),
    ... )                                                # doctest: +SKIP
    """
    if n_jobs < 1:
        raise ExperimentError(f"n_jobs must be >= 1, got {n_jobs}")
    if not datasets or not detectors or not explainer_factories:
        raise ExperimentError("datasets, detectors and explainers are required")
    return _run_grid(
        datasets, detectors, explainer_factories, dimensionalities,
        n_jobs=n_jobs, backend=backend, points_selector=points_selector,
        skip_errors=skip_errors, ft=ft, shards=shards,
    )


def _run_grid(
    datasets: Sequence[Dataset],
    detectors: Sequence[Detector],
    explainer_factories: Sequence[Callable[[], object]],
    dimensionalities: Sequence[int],
    *,
    n_jobs: int,
    backend: "str | ExecutionBackend | None",
    points_selector: Callable[[Dataset, int], tuple[int, ...]] | None,
    skip_errors: bool,
    ft: "FTConfig | None",
    shards: "int | str | None" = None,
    on_result: Callable[[PipelineResult], None] | None = None,
) -> GridOutcome:
    """Plan, execute, journal and merge one grid for either entry point."""
    ft = resolve_ft(ft)
    journal = (
        CheckpointJournal(ft.checkpoint, resume=ft.resume)
        if ft.checkpoint
        else None
    )
    if journal is not None:
        # Fresh journal: stamp the run's provenance header. Resumed
        # journal: shout about any environment drift since the first run.
        journal.ensure_manifest()

    with obs_span(
        "grid.run", n_pipelines=len(detectors) * len(explainer_factories)
    ):
        groups, skipped_undefined = _plan(
            datasets, detectors, explainer_factories, dimensionalities,
            points_selector,
        )
        # Journaled cells never rerun: they come back as "replayed" and
        # are read from the journal here, in the calling process.
        done_keys = (
            frozenset(journal.completed_keys()) if journal is not None else frozenset()
        )
        landed: list[list[tuple[str, object]]] = [[] for _ in groups]
        # Live progress (REPRO_HEARTBEAT_S / --heartbeat); None when off.
        heartbeat = heartbeat_from_env(sum(len(cells) for _, _, cells in groups))

        def absorb(index: int, outcomes: Iterable[CellOutcome]) -> None:
            """Route each finished cell of one group: journal, metrics, hooks."""
            dataset, detector, cells = groups[index]
            for cell, (status, value) in zip(cells, outcomes):
                key, _, explainer_name, dimensionality, _ = cell
                if status == "replayed":
                    value = journal.replay(key)  # type: ignore[union-attr]
                elif status == "result":
                    _CELLS_RUN.inc()
                    if journal is not None:
                        journal.record_result(key, value)  # type: ignore[arg-type]
                else:  # "failed" or "error": value is the message
                    _CELLS_SKIPPED.inc(reason=status)
                    if journal is not None and status == "failed":
                        journal.record_failure(key, {
                            "dataset": dataset.name,
                            "detector": detector.name,
                            "explainer": explainer_name,
                            "dimensionality": int(dimensionality),
                            "error": str(value),
                        })
                    value = (
                        dataset.name, detector.name, explainer_name,
                        dimensionality, str(value),
                    )
                if heartbeat is not None:
                    heartbeat.cells_done(
                        1,
                        failed=int(status == "failed"),
                        skipped=int(status == "error"),
                        replayed=int(status == "replayed"),
                    )
                landed[index].append((status, value))
                if on_result is not None and status in ("result", "replayed"):
                    on_result(value)  # type: ignore[arg-type]

        try:
            if n_jobs == 1:
                engine = ExplainEngine(backend=backend)
                for index, group in enumerate(groups):
                    absorb(
                        index,
                        _run_cells(group, skip_errors, ft, done_keys, engine, backend),
                    )
            else:
                packed = [(group, skip_errors, ft, done_keys) for group in groups]
                _dispatch(packed, backend, n_jobs, shards, absorb)
        finally:
            if heartbeat is not None:
                heartbeat.stop()

    # Deterministic merge: groups in plan order, cells in group order —
    # the table is ordered exactly as an uninterrupted inline run's.
    table = ResultTable()
    skipped: list[SkipRecord] = []
    failed_cells: list[SkipRecord] = []
    for outcomes in landed:
        for status, value in outcomes:
            if status == "failed":
                failed_cells.append(value)  # type: ignore[arg-type]
            elif status == "error":
                skipped.append(value)  # type: ignore[arg-type]
            else:
                table.add(value)  # type: ignore[arg-type]
    return table, skipped, skipped_undefined, failed_cells


def _plan(
    datasets: Sequence[Dataset],
    detectors: Sequence[Detector],
    explainer_factories: Sequence[Callable[[], object]],
    dimensionalities: Sequence[int],
    points_selector: Callable[[Dataset, int], tuple[int, ...]] | None,
) -> tuple[list[GroupSpec], list[UndefinedRecord]]:
    """The grid's (dataset × detector) groups and its never-attempted slices."""
    n_pipelines = len(detectors) * len(explainer_factories)
    groups: list[GroupSpec] = []
    skipped_undefined: list[UndefinedRecord] = []
    for dataset in datasets:
        available = set(dataset.ground_truth.dimensionalities())
        slices: list[tuple[int, tuple[int, ...] | None]] = []
        for dimensionality in dimensionalities:
            points, reason = None, None
            if dimensionality not in available:
                reason = "undefined_dimensionality"
            elif points_selector is not None:
                points = points_selector(dataset, dimensionality)
                if not points:
                    reason = "empty_selection"
            if reason is None:
                slices.append((dimensionality, points))
                continue
            skipped_undefined.append((dataset.name, int(dimensionality), reason))
            # One slice hides a whole row of pipeline cells from the grid.
            _CELLS_SKIPPED.inc(n_pipelines, reason=reason)
        if not slices:
            continue
        for detector in detectors:
            cells: list[Cell] = []
            for factory in explainer_factories:
                explainer = factory()
                name = getattr(explainer, "name", type(explainer).__name__)
                for dimensionality, points in slices:
                    key = cell_key(
                        dataset.fingerprint, detector.name, name, dimensionality, points
                    )
                    cells.append((key, explainer, name, dimensionality, points))
            groups.append((dataset, detector, cells))
    return groups, skipped_undefined


def _dispatch(
    packed: "list[tuple[GroupSpec, bool, FTConfig, frozenset[str]]]",
    backend: "str | ExecutionBackend | None",
    n_jobs: int,
    shards: "int | str | None",
    absorb: Callable[[int, Iterable[CellOutcome]], None],
) -> None:
    """Fan the groups out over a pool and absorb each group as it lands."""
    pool = resolve_backend(backend if backend is not None else "process", n_jobs)
    lease = None
    try:
        groups = [item[0] for item in packed]
        n_shards = resolve_grid_shards(shards, n_jobs=n_jobs)
        # Publish dataset matrices once; workers attach views instead of
        # unpickling a copy per group. Held until the map completes (all
        # workers deserialised by then).
        lease = _publish_datasets(pool, groups)
        if n_shards:
            partition = _partition_shards(
                [len(cells) for _, _, cells in groups], n_shards
            )
            flat_to_group = [i for shard in partition for i in shard]
            landed = (
                (flat_to_group[flat], outcomes)
                for flat, outcomes in pool.map_shards(
                    _run_group, [[packed[i] for i in shard] for shard in partition]
                )
            )
        else:
            landed = pool.map_completed(_run_group, packed)
        for index, outcomes in landed:
            absorb(index, outcomes)
    finally:
        if lease is not None:
            lease.release()
        if not isinstance(backend, ExecutionBackend):
            pool.close()  # Pool owned here, not by the caller.


def _run_cells(
    group: GroupSpec,
    skip_errors: bool,
    ft: FTConfig,
    done_keys: frozenset[str],
    engine: ExplainEngine,
    backend: object,
) -> Iterator[CellOutcome]:
    """Run one group's cells, yielding each outcome as the cell finishes.

    Each cell runs under the shared :func:`repro.ft.execute_cell` guard —
    the same retry/backoff/timeout and transient-vs-fatal classification
    however the grid is scheduled. Journaled cells yield
    ``("replayed", None)`` without running.
    """
    dataset, detector, cells = group
    for key, explainer, explainer_name, dimensionality, points in cells:
        if key in done_keys:
            yield "replayed", None
            continue
        pipeline = ExplanationPipeline(
            detector, explainer, backend=backend, engine=engine  # type: ignore[arg-type]
        )
        with obs_span(
            "grid.cell",
            dataset=dataset.name,
            detector=detector.name,
            explainer=explainer_name,
            dimensionality=int(dimensionality),
        ):
            outcome = execute_cell(
                lambda: pipeline.run(dataset, dimensionality, points=points),
                key=key,
                ft=ft,
                skip_errors=skip_errors,
            )
        yield outcome


def _run_group(
    packed: "tuple[GroupSpec, bool, FTConfig, frozenset[str]]",
) -> list[CellOutcome]:
    """Run one group in a pool worker, with one warm-state engine for it.

    Module-level and single-argument so every backend (including the
    process pool) can dispatch it. Every explainer of the group draws the
    same warm scorer from the engine; no state is shared across workers.
    """
    group, skip_errors, ft, done_keys = packed
    return list(_run_cells(group, skip_errors, ft, done_keys, ExplainEngine(), None))
