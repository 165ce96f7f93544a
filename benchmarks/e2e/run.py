"""End-to-end benchmark of the paper's pipeline, four workloads (README.md).

One run of one workload::

    python3 benchmarks/e2e/run.py --workload grid_smoke --seed 0 --seconds 20 --trace 0

repeats fresh-process invocations of the workload for ``--seconds``,
checks their result digests, prints every metric with its unit and, as
the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or with ``--trace 1`` its per-layer metrics).

A set of runs over every workload, in an order that rotates per pass::

    python3 benchmarks/e2e/run.py [--runs 5] --seed 0 --out A.json [--trace 1]

summarises each metric as median, quartiles and n; ``compare.py`` reads
two such records. With three runs the quartiles of
``statistics.quantiles`` are the extremes, hence five by default.
``--spans DIR`` writes the spans of the first traced invocation of each
workload to ``DIR/<workload>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracer import DRIVER, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.realpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS_PATH = os.path.join(HERE, "digests.json")
CHILD = os.path.join(HERE, "workloads.py")
#: Scratch directories of the invocations, removed as each one ends.
WORK = os.path.join(ROOT, ".e2e_work")

#: A run makes at least this many measured invocations, however long
#: they take, so every median has three samples.
MIN_INVOCATIONS = 3
#: An invocation takes seconds; one that hangs is killed well before a
#: run's 180 s limit.
INVOCATION_TIMEOUT_S = 60
#: Descendants still alive this long after an invocation exits are killed.
#: Long enough for the ``multiprocessing`` resource tracker, which the
#: process-pool workloads leave behind, to unlink its shared memory.
REAP_GRACE_S = 10.0
#: ``prctl`` option that re-parents orphaned descendants to this process.
PR_SET_CHILD_SUBREAPER = 36

#: End-to-end metrics measured per invocation, by the parent process, and
#: how a run summarises each over its timed invocations. The shared host
#: has slow phases of 10-30 s, as long as a run, that slow every invocation
#: in them by up to 60 % in wall and CPU time alike. A median of the
#: workload's wall or CPU time then reports how much of the run fell in
#: such a phase; the fastest invocation reports the program.
E2E_METRICS = {
    "total_s": min,
    "setup_s": statistics.median,
    "cpu_s": min,
    "peak_rss_mb": statistics.median,
}


class InvocationError(RuntimeError):
    """An invocation exited non-zero, timed out or wrote no result."""


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summary(values: list[float]) -> dict[str, object]:
    """Median, quartiles (``statistics.quantiles``, n=4) and n."""
    values = [float(v) for v in values]
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# One invocation: a fresh process in an empty directory.
# ----------------------------------------------------------------------


def become_subreaper() -> None:
    """Adopt orphaned descendants, so each one can be waited for (Linux)."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants() -> None:
    """Wait until every descendant of an ended invocation has ended too.

    As a subreaper this process inherits the invocation's orphans (pool
    workers, the resource tracker). They get ``REAP_GRACE_S`` to finish
    their own clean-up; whatever is left then is killed, and the orphans
    of a killed one become children in turn. Returns once this process
    has no child left.
    """
    deadline = time.monotonic() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def invoke(workload: str, seed: int, mode: str, spans_path: str | None = None) -> dict:
    """Run one invocation; add its wall, CPU and peak RSS to its record.

    The process tree's CPU time and peak RSS come from ``os.wait4``, which
    folds in every pool worker the invocation reaped. ``REPRO_*``
    variables are stripped so the library runs with its defaults. Every
    process the invocation started has ended when this returns.
    """
    os.makedirs(WORK, exist_ok=True)
    cwd = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    try:
        result_path = os.path.join(cwd, "result.json")
        log_path = os.path.join(cwd, "output.log")
        argv = [sys.executable, CHILD, workload, str(seed), mode, result_path]
        if spans_path:
            argv.append(spans_path)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        with open(log_path, "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                reap_descendants()
            total_s = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0 or not os.path.exists(result_path):
            with open(log_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-3000:]
            raise InvocationError(
                f"{workload} ({mode}, seed {seed}) exited {proc.returncode}:\n{tail}"
            )
        record = load_json(result_path)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    record["total_s"] = total_s
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return record


# ----------------------------------------------------------------------
# One run: a verify invocation, invocations for --seconds, the checks.
# ----------------------------------------------------------------------


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""
    layers = record["layers"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        row = layers.get(layer, {"self_s": 0.0, "calls": 0})
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.calls"] = row["calls"]
    traced_wall = record["setup_s"] + record["sweep_s"]
    out["driver.self_s"] = layers[DRIVER]["self_s"]
    out["driver.self_share"] = layers[DRIVER]["self_s"] / traced_wall
    counts = record["counts"]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    out["subspaces.scorer.evaluations"] = counts["scorer_evaluations"]
    out["subspaces.scorer.hit_ratio"] = ratio(counts["scorer_hits"], counts["scorer_misses"])
    out["neighbors.hit_ratio"] = ratio(counts["dist_hits"], counts["dist_misses"])
    out["explainers.hics.cache_hit_ratio"] = ratio(
        counts["hics_hits"], counts["hics_misses"]
    )
    return out


def check(workload: str, seed: int, records: list[dict], verify: dict) -> list[str]:
    """Problems with a run's outputs; empty when they are correct."""
    problems = [p for record in records + [verify] for p in record["problems"]]
    digests = sorted({record["digest"] for record in records})
    if len(digests) != 1:
        problems.append(f"invocations disagree on the result digest: {digests}")
    if verify["digest"] != records[0]["digest"]:
        problems.append(
            f"verify path digest {verify['digest']} != {records[0]['digest']}"
        )
    expected = load_json(DIGESTS_PATH).get(workload, {}).get(str(seed))
    if expected is not None and expected != records[0]["digest"]:
        problems.append(
            f"digest {records[0]['digest']} != committed {expected} for seed {seed}"
        )
    return problems


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    spans_dir: str | None = None,
) -> dict:
    """One run: the invocations made within ``seconds``, summarised.

    Each end-to-end metric is summarised as ``E2E_METRICS`` says, each
    per-layer metric by its median. The verify invocation goes first and is not timed, so it is also the
    run's warm-up. With ``trace`` the invocations alternate traced and
    untraced, so the run also measures the tracing overhead.
    """
    verify = invoke(workload, seed, "verify")
    timed: list[dict] = []
    traced: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        done = timed + traced
        if len(done) >= MIN_INVOCATIONS and time.monotonic() + statistics.median(
            r["total_s"] for r in done
        ) > deadline:
            break
        mode = "trace" if trace and len(done) % 2 == 0 else "time"
        spans = None
        if mode == "trace" and not traced and spans_dir:
            spans = os.path.join(os.path.abspath(spans_dir), f"{workload}.spans.jsonl")
        (traced if mode == "trace" else timed).append(invoke(workload, seed, mode, spans))

    problems = check(workload, seed, timed + traced, verify)
    attempted = sum(r["attempted"] for r in timed + traced)
    failed = attempted if problems else sum(r["failed"] for r in timed + traced)
    metrics = {name: pick(r[name] for r in timed) for name, pick in E2E_METRICS.items()}
    result = {
        "workload": workload,
        "seed": seed,
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digest": timed[0]["digest"],
        "invocations": len(timed) + len(traced),
        "metrics": metrics,
    }
    if traced:
        per_call = [layer_metrics(record) for record in traced]
        layers = {
            name: statistics.median(m[name] for m in per_call) for name in per_call[0]
        }
        layers["exec.utilization"] = statistics.median(
            r["cpu_s"] / (r["total_s"] * nproc()) for r in timed
        )
        layers["trace_overhead"] = (
            statistics.median(r["total_s"] for r in traced)
            / statistics.median(r["total_s"] for r in timed)
            - 1.0
        )
        result["layers"] = layers
    return result


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------


def print_run(result: dict, units: dict[str, str]) -> None:
    print(
        f"{result['workload']} seed {result['seed']}: {result['invocations']} "
        f"invocations, {result['attempted']} ops, {result['failed']} failed, "
        f"digest {result['digest'][:16]}"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<12} {value:12.4f} {units.get(name, '')}")
    layers = result.get("layers", {})
    for name in sorted(layers, key=lambda n: (not n.endswith(".self_s"), -layers[n], n)):
        print(f"  {name:<40} {layers[name]:14.6f} {units.get(name, '')}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def contract_line(result: dict, spec: dict, trace: bool) -> str:
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["layers"] if trace else result["metrics"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                for m in chosen
            },
        }
    )


def run_set(args: argparse.Namespace, spec: dict, units: dict[str, str]) -> dict:
    """Every workload, ``--runs`` passes, then one traced pass if asked."""
    names = [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(args.runs):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            result = run_workload(name, args.seed, args.seconds, trace=False)
            print_run(result, units)
            runs[name].append(result)
    record: dict[str, object] = {
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "nproc": nproc(),
        "manifest": manifest_stamp(),
        "workloads": {},
    }
    for name in names:
        results = runs[name]
        entry: dict[str, object] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "digest": results[0]["digest"],
            "problems": [p for r in results for p in r["problems"]],
            "metrics": {
                metric: {"unit": units[metric], **summary([r["metrics"][metric] for r in results])}
                for metric in E2E_METRICS
            },
        }
        if args.trace:
            traced = run_workload(name, args.seed, args.seconds, True, args.spans)
            print_run(traced, units)
            entry["layers"] = traced["layers"]
            entry["correct"] = entry["correct"] and traced["correct"]
        record["workloads"][name] = entry  # type: ignore[index]
    return record


def manifest_stamp() -> dict:
    """``RunManifest.collect().compact()`` of the package under test."""
    sys.path.insert(0, SRC)
    from repro.obs.manifest import RunManifest

    return RunManifest.collect().compact()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default=None)
    parser.add_argument("--spans", default=None, metavar="DIR")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    spec = load_json(SPEC_PATH)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.spans:
        os.makedirs(args.spans, exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # Compile once up front so no invocation pays for bytecode compilation.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    become_subreaper()
    try:
        if args.workload == "all":
            record = run_set(args, spec, units)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump(record, handle, indent=1)
                    handle.write("\n")
            correct = all(w["correct"] for w in record["workloads"].values())
            print(json.dumps({"correct": correct, "out": args.out}))
            return 0 if correct else 1
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.spans
        )
        print_run(result, units)
        print(contract_line(result, spec, bool(args.trace)))
        return 0 if result["correct"] else 1
    except InvocationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
