"""Outside-in layer tracer for the end-to-end benchmark.

The benchmark attributes time to the layers of the ``repro`` package
without changing a line of it. :meth:`Tracer.install` wraps the public
entry points of every layer (:data:`ENTRY_POINTS`) in a span recorder and
:meth:`Tracer.uninstall` puts every original back:

* a method is patched on the class that defines it and on every subclass
  that overrides it;
* a function is replaced in every ``repro.*`` module attribute that *is*
  the original, so ``from ... import`` bindings are caught too.

Spans stay in memory. :func:`fold` turns them into per-layer self time
(a span's busy time minus the union of its children's intervals, so
overlapping thread-backend children are not subtracted twice) and call
counts; :meth:`Tracer.write_jsonl` writes them out once the pass ends.

Process-pool workers inherit the wrappers when forked but their spans
stay in the worker, so a process-backend grid is attributed for the
parent process only.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import defaultdict
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

__all__ = ["DRIVER", "ENTRY_POINTS", "LAYERS", "Span", "Tracer", "fold"]

#: Layer of the benchmark's own root span: the workload's set-up and
#: sweep. Its self time is whatever no wrapped entry point covers.
DRIVER = "(driver)"

#: ``(layer, module, attribute)`` of every wrapped entry point. A
#: ``Class.method`` attribute patches the method; a layer ending in ``.*``
#: is completed per call with the instance's ``name`` (``detectors.lof``).
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("datasets.synthetic", "repro.datasets.synthetic", "make_hics_dataset"),
    ("datasets.realistic", "repro.datasets.realistic", "make_realistic_dataset"),
    ("datasets.ground_truth", "repro.datasets.ground_truth", "exhaustive_ground_truth"),
    ("datasets.ground_truth", "repro.datasets.ground_truth", "top_outliers_per_subspace"),
    ("subspaces.scorer", "repro.subspaces.scorer", "SubspaceScorer.scores_many"),
    ("neighbors", "repro.neighbors.provider", "DistanceProvider.squared_distances"),
    ("neighbors", "repro.neighbors.provider", "DistanceProvider.kneighbors"),
    ("neighbors", "repro.neighbors.provider", "KNNQueryView.kneighbors"),
    ("neighbors", "repro.neighbors.knn", "KNNIndex.kneighbors"),
    ("neighbors", "repro.neighbors.knn", "kneighbors"),
    ("neighbors", "repro.neighbors.distance", "euclidean_pdist_matrix"),
    ("detectors.*", "repro.detectors.base", "Detector.score"),
    ("stats", "repro.stats.batch", "welch_statistic_batch"),
    ("stats", "repro.stats.batch", "welch_p_values"),
    ("stats", "repro.stats.batch", "ks_statistic_batch"),
    ("stats", "repro.stats.batch", "ks_p_values"),
    ("stats", "repro.stats.batch", "masked_mean_var"),
    ("stats", "repro.stats.welch", "welch_statistic"),
    ("stats", "repro.stats.ks", "ks_statistic"),
    ("explainers.beam", "repro.explainers.beam", "Beam.explain"),
    ("explainers.refout", "repro.explainers.refout", "RefOut.explain"),
    ("explainers.lookout", "repro.explainers.lookout", "LookOut.summarize"),
    ("explainers.hics", "repro.explainers.hics", "HiCS.summarize"),
    ("exec", "repro.exec.backends", "ExecutionBackend.map_ordered"),
    ("exec", "repro.exec.backends", "ExecutionBackend.map_completed"),
    ("exec", "repro.exec.backends", "ExecutionBackend.map_shards"),
    ("pipeline.grid", "repro.pipeline.runner", "GridRunner.run"),
    ("pipeline.parallel", "repro.pipeline.parallel", "run_grid_parallel"),
    ("pipeline.run", "repro.pipeline.pipeline", "ExplanationPipeline.run"),
    ("serve.engine", "repro.serve.engine", "ExplainEngine.scorer_for"),
    ("shm", "repro.shm.plane", "SharedMemoryPlane.publish"),
    ("shm", "repro.shm.plane", "SharedMemoryPlane.lease"),
    ("metrics", "repro.metrics.evaluation", "evaluate_point_explanations"),
)

#: Every layer name a trace can report, the labelled detector layers
#: spelled out for the paper's three detectors.
LAYERS: tuple[str, ...] = tuple(
    dict.fromkeys(
        name
        for layer, _, _ in ENTRY_POINTS
        for name in (
            [f"detectors.{d}" for d in ("lof", "fast_abod", "iforest")]
            if layer == "detectors.*"
            else [layer]
        )
    )
)


class Span:
    """One call of a wrapped entry point (or the driver's root block).

    ``intervals`` holds one ``(start, end)`` pair for a plain call and one
    per resumption for a generator, so time the consumer spends between
    two ``yield``\\ s is not charged to the generator's layer.
    """

    __slots__ = ("layer", "parent", "intervals")

    def __init__(self, layer: str, parent: "Span | None") -> None:
        self.layer = layer
        self.parent = parent
        self.intervals: list[tuple[float, float]] = []


class Tracer:
    """Installs span-recording wrappers and collects the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "e2e_current_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point; a second install before uninstall raises."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        _import_repro()
        try:
            for layer, module_name, attribute in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    self._patch_method(layer, getattr(module, class_name), method)
                else:
                    self._patch_function(layer, getattr(module, attribute))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _patch_method(self, layer: str, cls: type, method: str) -> None:
        patched = False
        for klass in (cls, *_subclasses(cls)):
            original = vars(klass).get(method)
            if original is None:
                continue
            setattr(klass, method, self._wrap(layer, original))
            self._patches.append((klass, method, original))
            patched = True
        if not patched:
            raise AttributeError(f"{cls.__qualname__} defines no {method!r}")

    def _patch_function(self, layer: str, original: object) -> None:
        wrapper = self._wrap(layer, original)
        patched = False
        for module in _repro_modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapper)
                    self._patches.append((module, attribute, original))
                    patched = True
        if not patched:
            raise AttributeError(f"no repro module binds {original!r}")

    # ------------------------------------------------------------------
    # Span recording.
    # ------------------------------------------------------------------

    def _open(self, layer: str) -> Span:
        span = Span(layer, self._current.get())
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, layer: str = DRIVER) -> Iterator[Span]:
        """Record the enclosed block as one span (the driver's root)."""
        span = self._open(layer)
        token = self._current.set(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.intervals.append((start, time.perf_counter()))
            self._current.reset(token)

    def _wrap(self, layer: str, fn):  # noqa: ANN001 - any callable
        prefix = layer[:-1] if layer.endswith(".*") else None

        def layer_of(args: tuple) -> str:
            if prefix is None:
                return layer
            return prefix + str(getattr(args[0], "name", "unknown"))

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                span = self._open(layer_of(args))
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        token = self._current.set(span)
                        start = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            span.intervals.append((start, time.perf_counter()))
                            self._current.reset(token)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer_of(args))
            token = self._current.set(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.intervals.append((start, time.perf_counter()))
                self._current.reset(token)

        return wrapper

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span: id, parent id, layer, intervals."""
        ids = {id(span): index for index, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                parent = None if span.parent is None else ids.get(id(span.parent))
                record = {
                    "id": index,
                    "parent": parent,
                    "layer": span.layer,
                    "intervals": span.intervals,
                }
                handle.write(json.dumps(record) + "\n")


def fold(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per-layer ``self_s`` (seconds) and ``calls`` over ``spans``."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        busy = _merge(span.intervals)
        covered = _merge(
            interval for child in children[id(span)] for interval in child.intervals
        )
        row = table.setdefault(span.layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += _length(busy) - _overlap(busy, covered)
        row["calls"] += 1
    return table


def _merge(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Sorted, disjoint union of ``intervals``."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _length(intervals: list[tuple[float, float]]) -> float:
    return sum(end - start for start, end in intervals)


def _overlap(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Total length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        low = max(a[i][0], b[j][0])
        high = min(a[i][1], b[j][1])
        if high > low:
            total += high - low
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def _subclasses(cls: type) -> list[type]:
    found: dict[type, None] = {}
    for sub in cls.__subclasses__():
        found[sub] = None
        found.update(dict.fromkeys(_subclasses(sub)))
    return list(found)


def _repro_modules() -> list[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _import_repro() -> None:
    """Import every ``repro`` module so no later import binds an original."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
