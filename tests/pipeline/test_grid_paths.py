"""One grid through every execution path: same table, same metrics.

``GridRunner.run`` and ``run_grid_parallel`` share one executor, so the
inline run, the inline ``n_jobs=1`` call and both pools must agree on
everything a caller can observe: the result table (byte for byte, in
order), the audit lists, and the ``repro_grid_cells_*`` counter deltas.
The grid holds completed cells, a never-attempted slice, fatally
exploding cells and one retry-exhausted cell, so every outcome route is
exercised on every path. An inline run must also journal each cell
before the next one runs, and fire ``on_result`` for replayed rows.
"""

import csv
import io

import pytest

from repro.detectors import LOF, KNNDetector
from repro.explainers import Beam, LookOut
from repro.ft import CheckpointJournal, FaultInjector, FTConfig
from repro.obs import metrics as obs_metrics
from repro.pipeline import GridRunner, run_grid_parallel

DIMS = [2, 3, 9]  # 9d is undefined on hics_14: one never-attempted slice
REASONS = ("undefined_dimensionality", "empty_selection", "error", "failed")


class Exploding(Beam):
    """Module-level so instances can cross the process boundary."""

    def explain(self, *args, **kwargs):
        raise RuntimeError("boom")


class FailOneCell(FaultInjector):
    """Permanently fails the 2d LookOut+kNN cell, and only that cell."""

    def selected(self, key):
        return "|knn|lookout|2|" in key


def factories():
    return [
        lambda: Beam(beam_width=8, result_size=8),
        lambda: LookOut(budget=8),
        lambda: Exploding(beam_width=5),
    ]


def detectors():
    return [LOF(k=15), KNNDetector(k=10)]


def selector(dataset, dimensionality):
    return dataset.ground_truth.points_at(dimensionality)[:2]


def fault_config():
    return FTConfig(injector=FailOneCell(rate=1.0, max_faults=10**9))


def canonical_bytes(table):
    """The deterministic projection of a result table, as CSV bytes."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for r in table:
        writer.writerow(
            [r.dataset, r.detector, r.explainer, r.dimensionality,
             repr(r.map), repr(r.mean_recall), r.evaluation.n_points]
        )
    return buffer.getvalue().encode()


def counters():
    cells = obs_metrics.counter("repro_grid_cells_total")
    skipped = obs_metrics.counter("repro_grid_cells_skipped_total")
    return (cells.value(), *(skipped.value(reason=r) for r in REASONS))


def via_runner(dataset):
    runner = GridRunner(
        detectors(), factories(), skip_errors=True,
        points_selector=selector, ft=fault_config(),
    )
    table = runner.run([dataset], DIMS)
    return table, runner.skipped, runner.skipped_undefined, runner.failed_cells


def via_parallel(dataset, **kwargs):
    return run_grid_parallel(
        [dataset], detectors(), factories(), DIMS,
        points_selector=selector, ft=fault_config(), **kwargs,
    )


PATHS = {
    "runner": via_runner,
    "parallel_inline": lambda ds: via_parallel(ds, n_jobs=1),
    "parallel_thread": lambda ds: via_parallel(ds, n_jobs=2, backend="thread"),
    "parallel_process": lambda ds: via_parallel(ds, n_jobs=2, backend="process"),
}


@pytest.fixture(scope="module")
def outcomes(hics_small):
    """Each path's (table bytes, audit lists, counter deltas)."""
    observed = {}
    for name, run in PATHS.items():
        before = counters()
        table, skipped, undefined, failed = run(hics_small)
        delta = tuple(after - b for after, b in zip(counters(), before))
        observed[name] = (canonical_bytes(table), skipped, undefined, failed, delta)
    return observed


class TestGridPaths:
    def test_reference_grid_shape(self, outcomes, hics_small):
        table_bytes, skipped, undefined, failed, delta = outcomes["runner"]
        # 2 detectors x 3 explainers x 2 defined dims = 12 attempted cells:
        # 4 explode, 1 fails, 7 complete; the 9d slice hides 6 more.
        assert len(table_bytes.splitlines()) == 7
        assert undefined == [(hics_small.name, 9, "undefined_dimensionality")]
        assert len(skipped) == 4 and all("boom" in s[-1] for s in skipped)
        assert [cell[:4] for cell in failed] == [(hics_small.name, "knn", "lookout", 2)]
        assert delta == (7, 6, 0, 4, 1)

    @pytest.mark.parametrize("path", [p for p in PATHS if p != "runner"])
    def test_table_bytes_and_order_match(self, outcomes, path):
        assert outcomes[path][0] == outcomes["runner"][0]

    @pytest.mark.parametrize("path", [p for p in PATHS if p != "runner"])
    def test_audit_lists_match(self, outcomes, path):
        assert outcomes[path][1:4] == outcomes["runner"][1:4]

    @pytest.mark.parametrize("path", [p for p in PATHS if p != "runner"])
    def test_cell_counters_match(self, outcomes, path):
        assert outcomes[path][4] == outcomes["runner"][4]


class TestInlineJournal:
    def test_each_cell_journaled_before_the_next_runs(self, hics_small, tmp_path):
        path = str(tmp_path / "inline.journal")
        journaled = []  # journal length each time the hook fires
        runner = GridRunner(
            detectors(), factories()[:2], points_selector=selector,
            on_result=lambda _: journaled.append(len(CheckpointJournal(path))),
        )
        table = runner.run([hics_small], [2], checkpoint=path)
        assert journaled == list(range(1, len(table) + 1))

        replayed = []
        resumed = GridRunner(
            detectors(), factories()[:2], points_selector=selector,
            on_result=replayed.append,
        ).run([hics_small], [2], checkpoint=path)
        assert len(replayed) == len(table) == 4
        assert canonical_bytes(resumed) == canonical_bytes(table)
