"""Tests of ``compare.py`` on synthetic records, and of the digests.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json

import pytest

import compare
from run import DIGESTS_PATH, summary

SPEC = {
    "end_to_end": [
        {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    ]
}


def _record(total_s, peak_rss_mb=(100.0, 100.0, 100.0), failed=0):
    return {
        "workloads": {
            "w": {
                "attempted": 30,
                "failed": failed,
                "metrics": {
                    "total_s": summary(list(total_s)),
                    "peak_rss_mb": summary(list(peak_rss_mb)),
                },
            }
        }
    }


@pytest.mark.parametrize(
    ("a", "b", "expected"),
    [
        ([10.0, 10.1, 9.9], [10.2, 10.3, 10.1], "same"),
        ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "worse"),
        ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "better"),
        # Spread wider than the bound: unresolved, whatever the medians do.
        ([10.0, 13.0, 7.0], [10.0, 10.1, 9.9], "unresolved"),
        ([10.0, 13.0, 7.0], [14.0, 14.1, 13.9], "unresolved"),
        # ... unless every B run beats every A run.
        ([10.0, 13.0, 8.0], [5.0, 7.0, 6.0], "better"),
    ],
)
def test_verdicts(a, b, expected):
    assert compare.verdict(summary(a), summary(b), 0.1, "lower") == expected


def test_higher_is_better_flips_the_direction():
    a, b = summary([10.0, 10.1, 9.9]), summary([12.0, 12.1, 11.9])
    assert compare.verdict(a, b, 0.1, "higher") == "better"
    assert compare.verdict(b, a, 0.1, "higher") == "worse"


def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr():
    a = summary([10.0 + 0.01 * i for i in range(10)])
    clear = summary([8.0 + 0.01 * i for i in range(10)])
    assert compare.claim_met(a, clear, "lower") == (True, 10, 10)
    # Nine of ten pairs won, but the medians sit inside A's spread.
    close = summary([10.0 + 0.01 * i - 0.005 for i in range(9)] + [20.0])
    met, wins, pairs = compare.claim_met(a, close, "lower")
    assert (met, wins, pairs) == (False, 9, 10)


def test_compare_fails_on_worse_and_on_a_higher_failed_ratio():
    base = _record([10.0, 10.1, 9.9])
    _, ok = compare.compare(base, _record([10.0, 10.1, 9.9]), SPEC, [])
    assert ok
    _, ok = compare.compare(base, _record([10.0, 10.1, 9.9], (120.0,) * 3), SPEC, [])
    assert not ok
    lines, ok = compare.compare(base, _record([10.0, 10.1, 9.9], failed=1), SPEC, [])
    assert not ok and "failed ratio" in lines[-1]


def test_compare_main_reports_claims(tmp_path, monkeypatch):
    a = _record([10.0 + 0.01 * i for i in range(10)])
    b = _record([8.0 + 0.01 * i for i in range(10)])
    paths = []
    for name, record in (("A.json", a), ("B.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(record))
        paths.append(str(path))
    spec_path = tmp_path / "BENCHMARK.json"
    spec_path.write_text(json.dumps(SPEC))
    monkeypatch.setattr(compare, "SPEC_PATH", str(spec_path))
    assert compare.main(paths + ["--claim", "total_s@w"]) == 0
    assert compare.main(paths[::-1] + ["--claim", "total_s@w"]) == 1


def test_digest_is_order_independent():
    from workloads import digest

    rows = [["a", 1, [[1, 2]]], ["b", 2, [[0, 3]]]]
    assert digest(rows) == digest(rows[::-1])
    assert digest(rows) != digest(rows[:1])


def test_serial_and_process_grids_share_their_committed_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        digests = json.load(handle)
    assert {"0", "1"} <= set(digests["grid_smoke"])
    assert digests["grid_smoke"] == digests["grid_smoke_par2"]
