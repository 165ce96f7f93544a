"""Tests of the benchmark's outside-in tracer.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

from run import layer_metrics
from tracer import DRIVER, ENTRY_POINTS, LAYERS, Span, Tracer, fold

SPEC_PATH = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


def _span(layer, intervals, parent=None):
    span = Span(layer, parent)
    span.intervals.extend(intervals)
    return span


def test_self_time_subtracts_union_of_overlapping_children():
    root = _span("root", [(0.0, 10.0)])
    spans = [
        root,
        _span("child", [(1.0, 4.0)], root),
        _span("child", [(3.0, 6.0)], root),  # overlaps the first child
        _span("child", [(8.0, 9.0)], root),
    ]
    table = fold(spans)
    assert table["root"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert table["child"] == {"self_s": pytest.approx(7.0), "calls": 3}


def test_generator_span_charges_only_its_resumptions():
    root = _span("root", [(0.0, 10.0)])
    generator = _span("gen", [(1.0, 2.0), (5.0, 6.0)], root)
    task = _span("task", [(1.5, 2.0)], generator)
    # A child running while the generator is suspended is clipped away.
    late = _span("task", [(3.0, 4.0)], generator)
    table = fold([root, generator, task, late])
    assert table["gen"]["self_s"] == pytest.approx(2.0 - 0.5)
    assert table["root"]["self_s"] == pytest.approx(10.0 - 2.0)


def test_function_rebinding_reaches_from_imports():
    import repro.datasets.ground_truth as ground_truth
    import repro.datasets.realistic as realistic

    original = ground_truth.exhaustive_ground_truth
    assert realistic.exhaustive_ground_truth is original
    with Tracer() as tracer:
        wrapper = realistic.exhaustive_ground_truth
        assert wrapper is not original
        assert ground_truth.exhaustive_ground_truth is wrapper
        with tracer.span():
            realistic.make_realistic_dataset(
                "tiny", n_samples=40, n_features=4, n_outliers=3,
                gt_dimensionalities=(2,), seed=0,
            )
    assert realistic.exhaustive_ground_truth is original
    (gt_span,) = [s for s in tracer.spans if s.layer == "datasets.ground_truth"]
    assert gt_span.parent.layer == "datasets.realistic"


def _bindings():
    """Identity of every attribute an entry point could be bound to."""
    seen = {}
    for _, module_name, attribute in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(module, class_name)
            for klass in [cls, *cls.__subclasses__()]:
                seen[(klass, method)] = vars(klass).get(method)
        else:
            original = getattr(module, attribute)
            for name, mod in list(sys.modules.items()):
                if name.startswith("repro") and mod is not None:
                    for attr, value in vars(mod).items():
                        if value is original:
                            seen[(mod, attr)] = value
    return seen


def test_uninstall_restores_every_original():
    before = _bindings()
    tracer = Tracer().install()
    patched = list(tracer._patches)
    assert patched
    assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    tracer.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    for key, value in before.items():
        assert after[key] is value, key
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original


def _tiny_workload():
    """Every layer once, at toy scale: serial grid plus a process grid."""
    from repro.datasets.realistic import make_realistic_dataset
    from repro.datasets.synthetic import make_hics_dataset
    from repro.detectors import LOF, FastABOD, IsolationForest
    from repro.explainers import Beam, HiCS, LookOut, RefOut
    from repro.pipeline.parallel import run_grid_parallel
    from repro.pipeline.runner import GridRunner

    datasets = [
        make_hics_dataset(14, n_samples=150, seed=0),
        make_realistic_dataset(
            "tiny", n_samples=60, n_features=5, n_outliers=4,
            gt_dimensionalities=(2,), seed=0,
        ),
    ]
    detectors = [LOF(k=5), FastABOD(k=5), IsolationForest(n_trees=2, seed=0)]
    factories = [
        lambda: Beam(beam_width=5, result_size=5),
        lambda: RefOut(pool_size=5, beam_width=5, result_size=5, seed=0),
        lambda: LookOut(budget=5),
        lambda: HiCS(mc_iterations=5, candidate_cutoff=5, result_size=5, seed=0),
    ]
    points = lambda dataset, dim: dataset.ground_truth.points_at(dim)[:2]  # noqa: E731
    GridRunner(detectors, factories, points_selector=points).run(datasets, (2,))
    run_grid_parallel(
        datasets[1:], detectors[:1], factories[:1], (2,),
        n_jobs=2, backend="process", points_selector=points,
    )


def test_tiny_workload_covers_every_layer_with_little_driver_time():
    tracer = Tracer()
    with tracer:
        with tracer.span():
            _tiny_workload()
    table = fold(tracer.spans)
    missing = [layer for layer in LAYERS if table.get(layer, {}).get("calls", 0) == 0]
    assert not missing
    (root,) = [s for s in tracer.spans if s.layer == DRIVER]
    wall = root.intervals[0][1] - root.intervals[0][0]
    assert table[DRIVER]["self_s"] <= 0.05 * wall

    record = {
        "layers": table,
        "setup_s": wall,
        "sweep_s": 0.0,
        "counts": dict.fromkeys(
            ["scorer_evaluations", "scorer_hits", "scorer_misses", "dist_hits",
             "dist_misses", "hics_hits", "hics_misses"], 1.0,
        ),
    }
    emitted = set(layer_metrics(record)) | {"exec.utilization", "trace_overhead"}
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {m["name"] for m in spec["per_layer"]} <= emitted
