"""Compare two records written by ``run.py --out`` (see README.md).

    python3 benchmarks/e2e/compare.py A.json B.json [--claim METRIC@WORKLOAD ...]

A is the parent, B the change. For every (workload, end-to-end metric)
it prints one verdict under the bounds of ``BENCHMARK.json``:

* ``unresolved``: the quartile spread of A or of B, as a share of its
  median, is wider than the bound, unless every B run beats every A run
  (then ``better``);
* ``worse`` / ``better``: B's median moved against / with the metric's
  direction by more than the bound;
* ``same`` otherwise.

``--claim`` applies the paired rule to one metric: B wins at least nine
tenths of the pairs (runs paired in order, ties count for neither) and
the medians differ by more than A's interquartile range.

The exit status is 1 on any ``worse``, on a failed-op ratio higher in B
than in A, or on a claim not met.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Share of the pairs the change must win for a claim.
CLAIM_WIN_SHARE = 0.9


def _sign(better: str) -> int:
    """+1 when lower is better: ``sign * (b - a) > 0`` means B is worse."""
    return 1 if better == "lower" else -1


def spread(stats: dict) -> float:
    """Interquartile range as a share of the median."""
    return (stats["q3"] - stats["q1"]) / stats["median"]


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    """``same``, ``better``, ``worse`` or ``unresolved`` for one metric."""
    sign = _sign(better)
    if max(spread(a), spread(b)) > bound:
        beats_all = all(sign * (y - x) < 0 for x in a["values"] for y in b["values"])
        return "better" if beats_all else "unresolved"
    change = sign * (b["median"] - a["median"]) / a["median"]
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def claim_met(a: dict, b: dict, better: str) -> tuple[bool, int, int]:
    """The paired rule: ``(met, B wins, pairs)``."""
    sign = _sign(better)
    pairs = list(zip(a["values"], b["values"]))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    improved = sign * (b["median"] - a["median"]) < 0
    separated = abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
    met = bool(pairs) and wins >= CLAIM_WIN_SHARE * len(pairs) and improved and separated
    return met, wins, len(pairs)


def failed_ratio(entry: dict) -> float:
    return entry["failed"] / entry["attempted"] if entry["attempted"] else 1.0


def compare(a: dict, b: dict, spec: dict, claims: list[str]) -> tuple[list[str], bool]:
    """Report lines and whether B passes against A."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        f"{'workload':<16} {'metric':<12} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8}  verdict"
    ]
    ok = True
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        entry_a, entry_b = a["workloads"][workload], b["workloads"][workload]
        for name, metric in metrics.items():
            sa, sb = entry_a["metrics"][name], entry_b["metrics"][name]
            result = verdict(sa, sb, metric["bound"], metric["better"])
            ok = ok and result != "worse"
            change = (sb["median"] - sa["median"]) / sa["median"]
            lines.append(
                f"{workload:<16} {name:<12} "
                f"{_fmt(sa):>30} {_fmt(sb):>30} {change:>+8.1%}  {result}"
            )
        ratio_a, ratio_b = failed_ratio(entry_a), failed_ratio(entry_b)
        if ratio_b > ratio_a:
            ok = False
            lines.append(
                f"{workload:<16} failed ratio rose from {ratio_a:.3f} to {ratio_b:.3f}"
            )
    for claim in claims:
        name, _, workload = claim.partition("@")
        if name not in metrics or workload not in a["workloads"] or workload not in b["workloads"]:
            raise SystemExit(f"unknown claim {claim!r}: use METRIC@WORKLOAD")
        met, wins, pairs = claim_met(
            a["workloads"][workload]["metrics"][name],
            b["workloads"][workload]["metrics"][name],
            metrics[name]["better"],
        )
        ok = ok and met
        lines.append(
            f"claim {claim}: B wins {wins}/{pairs} pairs -> {'met' if met else 'NOT met'}"
        )
    return lines, ok


def _fmt(stats: dict) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--claim", action="append", default=[], metavar="METRIC@WORKLOAD")
    args = parser.parse_args(argv)
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(args.a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b = json.load(handle)
    lines, ok = compare(a, b, spec, args.claim)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
