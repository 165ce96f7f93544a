"""Distance substrate micro-benchmarks.

Compares the two ways a subspace's pairwise distances can be produced:

* **direct** — project the dataset and run
  :func:`~repro.neighbors.distance.euclidean_pdist_matrix` (the
  pre-substrate hot path: one matmul expansion plus several full-matrix
  passes for clamping, sqrt, symmetrisation, and diagonal masking);
* **composed** — sum cached per-feature float32 blocks through
  :class:`~repro.neighbors.DistanceProvider` (one float64 accumulation
  pass per feature, diagonal pre-masked, no sqrt at all).

Run standalone for a wall-clock table and a machine-readable JSON record::

    PYTHONPATH=src python benchmarks/bench_distance.py [--json PATH]

``--knn`` instead times one exact k-NN query per path — the certified
sketch against the full path (transient composition plus packed-key
selection) — at n ∈ {198, 300, 600, 1000, 2000} and anchor depths 1–3,
and marks the path the provider's ``8 m <= n`` sketch rule picks. It is
the record behind that rule's constant.

The pytest-benchmark entry points cover the same operations for the
perf-regression suite.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from repro.neighbors import provider as provider_module
from repro.neighbors.distance import euclidean_pdist_matrix
from repro.neighbors.provider import DEFAULT_SKETCH_FACTOR, DistanceProvider

#: Sizes of the per-query k-NN table: the e2e benchmark's datasets (198,
#: 300, 600 points) and the paper-scale ones beyond.
KNN_SIZES = (198, 300, 600, 1000, 2000)


def _matrix(n: int, d: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d))


def _subspace_grid(d: int, dim: int) -> list[tuple[int, ...]]:
    """A stage-like batch: every contiguous window of ``dim`` features."""
    return [tuple(range(i, i + dim)) for i in range(d - dim + 1)]


def _direct_pass(X: np.ndarray, subspaces) -> int:
    for sub in subspaces:
        euclidean_pdist_matrix(np.ascontiguousarray(X[:, list(sub)]))
    return len(subspaces)


def _composed_pass(provider: DistanceProvider, subspaces) -> int:
    for sub in subspaces:
        provider.squared_distances(sub)
    return len(subspaces)


def test_direct_pdist_2d_batch(benchmark):
    X = _matrix(1000, 16)
    subspaces = _subspace_grid(16, 2)
    assert benchmark(_direct_pass, X, subspaces) == len(subspaces)


def test_composed_2d_batch_cold(benchmark):
    X = _matrix(1000, 16)
    subspaces = _subspace_grid(16, 2)

    def run():
        provider = DistanceProvider(X, max_bytes=1 << 28)
        return _composed_pass(provider, subspaces)

    assert benchmark(run) == len(subspaces)


def test_composed_parent_chain(benchmark):
    """Stage-wise growth: each subspace extends the previous by one block."""
    X = _matrix(1000, 16)
    chain = [tuple(range(dim)) for dim in range(1, 9)]

    def run():
        provider = DistanceProvider(X, max_bytes=1 << 28)
        parent = None
        for sub in chain:
            provider.squared_distances(sub, parent=parent)
            parent = sub
        return provider.stats()["parent_reuses"]

    assert benchmark(run) == len(chain) - 1


def _query_ms(provider: DistanceProvider, s, k: int, reps: int) -> float:
    """Median wall time of one warm ``kneighbors`` query, in ms."""
    provider.kneighbors(s, k, parent=s[:-1])  # warm blocks (and sketch)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        provider.kneighbors(s, k, parent=s[:-1])
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1000.0


def knn_table(sizes=KNN_SIZES, k: int = 15, d: int = 6, reps: int = 15) -> list[dict]:
    """Per-query cost of the sketch and full k-NN paths.

    For each size and anchor depth (1-3 features, the query adds one),
    the sketch column forces the sketch path regardless of the size
    rule, with the anchor's sketch already cached (stage waves query
    many children per anchor); the full column disables sketching. Both
    run with every feature block warm, as in a scorer wave.
    """
    fraction = provider_module._SKETCH_MAX_FRACTION
    rows = []
    for n in sizes:
        X = _matrix(n, d, seed=n)
        for depth in (1, 2, 3):
            s = tuple(range(depth + 1))
            factor = max(3, -(-2 * DEFAULT_SKETCH_FACTOR // (depth + 1)))
            m = factor * k
            full = DistanceProvider(X, max_bytes=1 << 30, sketch_factor=0)
            full_ms = _query_ms(full, s, k, reps)
            sketch_ms = None
            if m < n - 1:
                with mock.patch.object(provider_module, "_SKETCH_MAX_FRACTION", 1):
                    sketched = DistanceProvider(X, max_bytes=1 << 30)
                    sketch_ms = _query_ms(sketched, s, k, reps)
                    assert sketched.stats()["knn_full"] == 0
            rows.append({
                "op": "knn_query", "n": n, "k": k, "depth": depth, "m": m,
                "full_ms": round(full_ms, 4),
                "sketch_ms": None if sketch_ms is None else round(sketch_ms, 4),
                "rule": "sketch" if fraction * m <= n else "full",
            })
    return rows


def main(argv=None) -> None:
    """Standalone mode: wall-clock table plus a JSON perf record."""
    import argparse
    import os

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the rows as a JSON array to PATH")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--d", type=int, default=16)
    parser.add_argument("--knn", action="store_true",
                        help="time the sketch vs full k-NN query paths instead")
    args = parser.parse_args(argv)

    if args.knn:
        records = knn_table()
        print(f"per-query exact k-NN (k=15), {os.cpu_count()} CPU(s); "
              f"rule: sketch iff {provider_module._SKETCH_MAX_FRACTION} m <= n")
        print(f"  {'n':>5} {'depth':>5} {'m':>4} {'sketch ms':>10} "
              f"{'full ms':>9} {'faster':>7} {'rule':>7}")
        for r in records:
            sketch = r["sketch_ms"]
            faster = "-" if sketch is None else (
                "sketch" if sketch < r["full_ms"] else "full")
            shown = "-" if sketch is None else f"{sketch:.3f}"
            print(f"  {r['n']:>5} {r['depth']:>5} {r['m']:>4} {shown:>10} "
                  f"{r['full_ms']:>9.3f} {faster:>7} {r['rule']:>7}")
        _write_json(args.json, records)
        return

    X = _matrix(args.n, args.d)
    records = []

    def timed(op, fn, **extra):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        records.append({"op": op, "n": args.n, "d": args.d,
                        "wall_time_s": round(elapsed, 6), **extra})
        return elapsed

    for dim in (2, 4):
        subspaces = _subspace_grid(args.d, dim)
        timed(f"direct_pdist_{dim}d", lambda: _direct_pass(X, subspaces),
              n_subspaces=len(subspaces))
        provider = DistanceProvider(X, max_bytes=1 << 28)
        timed(
            f"composed_{dim}d_cold",
            lambda p=provider: _composed_pass(p, subspaces),
            n_subspaces=len(subspaces),
            cache_hit_rate=0.0,
        )
        stats = provider.stats()
        total = stats["hits"] + stats["misses"]
        timed(
            f"composed_{dim}d_warm",
            lambda p=provider: _composed_pass(p, subspaces),
            n_subspaces=len(subspaces),
            cache_hit_rate=round(stats["hits"] / total if total else 0.0, 4),
        )

    print(f"distance substrate micro-bench: n={args.n}, d={args.d}, "
          f"{os.cpu_count()} CPU(s)")
    by_op = {r["op"]: r["wall_time_s"] for r in records}
    for record in records:
        line = f"  {record['op']:24s} {record['wall_time_s'] * 1000:8.1f} ms"
        direct_key = f"direct_pdist_{record['op'].split('_')[1].rstrip('d')}d"
        if record["op"] != direct_key and direct_key in by_op:
            line += f"  (vs direct: {by_op[direct_key] / record['wall_time_s']:5.2f}x)"
        print(line)

    _write_json(args.json, records)


def _write_json(path, records) -> None:
    if not path:
        return
    import json

    from repro.obs import RunManifest

    # Provenance stamp: which code and environment produced these
    # numbers (tools/bench_report.py renders it, the sentinel ignores it).
    stamp = RunManifest.collect().compact()
    for record in records:
        record["manifest"] = stamp
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
