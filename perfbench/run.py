"""Benchmark: turn a batch of detected races into checked verdicts.

    python3 perfbench/run.py --workload table1_serial --seed 1 --seconds 20 --trace 0

A closed loop with one client: each batch pass (one
``AnalysisEngine.analyze_workloads`` call over the workload's programs) starts
only after the previous one has returned, for ``--seconds`` seconds.  Every
pass runs in a freshly forked process, so each one pays its own pool spin-up
and teardown, and its CPU time and peak RSS are its own.  Every verdict of
every pass is checked (see ``verdicts.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time on untraced passes and half on passes with the timing wrappers of
``spans.py`` installed, and prints the per-layer metrics.  The last line of
standard output is the JSON result; see README.md for every metric.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: working space inside the checkout: the serial reference verdicts, the
#: counters of earlier runs, and each run's cache and span directories
WORK = ROOT / ".bench_build" / "perfbench"

#: set-ups per run, at least, and their least total seconds; set-up time is
#: their median.  Building a batch takes about 10 ms, so most workloads make
#: many; warm_rerun's also prime a cache (about 7 s), so it makes three.
SETUP_REPS = 3
SETUP_SECONDS = 1.0

#: EngineRun.stats counters that must repeat exactly between runs of the
#: same code; the solver's are only required to on serial workloads, since
#: its memo counts depend on chunk placement on the pool
STABLE_COUNTERS = (
    "interp_statements",
    "interp_forks",
    "interp_cow_copies",
    "classifications_computed",
    "traces_recorded",
    "trace_cache_hits",
    "classification_cache_hits",
)
SERIAL_COUNTERS = (
    "solver_queries",
    "solver_cache_hits",
    "solver_cache_misses",
    "solver_assignments_enumerated",
)
REPORTED_COUNTERS = STABLE_COUNTERS + SERIAL_COUNTERS + (
    "task_retries",
    "pool_respawns",
    "tasks_quarantined",
    "deadlines_exceeded",
)


class ChildFailed(RuntimeError):
    pass


def in_child(fn: Callable, *args):
    """Run ``fn(*args)`` in a forked process and return its result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        try:
            try:
                payload = ("ok", fn(*args))
            except BaseException:
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_end, "wb") as out:
                pickle.dump(payload, out)
        finally:
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as inp:
        data = inp.read()
    os.waitpid(pid, 0)
    status, value = pickle.loads(data) if data else ("error", "child died")
    if status != "ok":
        raise ChildFailed(value)
    return value


def source_sha() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    """The checkout's commit when it is a git checkout (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def write_json(path: Path, data) -> None:
    temp = path.with_suffix(f".{os.getpid()}.tmp")
    temp.write_text(json.dumps(data, sort_keys=True))
    os.replace(temp, path)


# ------------------------------------------------------------------ passes


def _build(names) -> float:
    """Seconds to build the batch (in a child, so the build is cold)."""
    from batches import load_batch

    started = time.perf_counter()
    load_batch(names)
    return time.perf_counter() - started


def _analyze(names, cache_dir):
    """Build the batch and classify it serially with the pinned settings
    (in a child).  Returns ``(seconds, verdict signatures)``."""
    from batches import build_settings, load_batch
    from repro.engine import AnalysisEngine
    from verdicts import reference_of

    config, options, _notes = build_settings(False, cache_dir)
    started = time.perf_counter()
    runs = AnalysisEngine(config, options).analyze_workloads(load_batch(names))
    return time.perf_counter() - started, reference_of(runs)


def serial_reference(sha: str) -> Dict:
    """The serial verdict signatures of every program, computed once per
    source tree and kept under WORK."""
    from batches import STRESS, TABLE1

    path = WORK / f"reference-{sha}.json"
    if path.exists():
        return json.loads(path.read_text())
    _seconds, reference = in_child(_analyze, list(TABLE1 + STRESS), None)
    write_json(path, reference)
    return reference


def run_pass(names, config, options, reference, span_dir: Optional[Path]):
    """One batch pass (in a child): timings, rusage, scores, counters."""
    from batches import load_batch
    from verdicts import failed_pass, score_pass

    workloads = load_batch(names)

    missing_targets: List[str] = []
    if span_dir is not None:
        import spans

        missing_targets = spans.install(span_dir)
    from repro.engine import AnalysisEngine

    error = None
    runs = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    try:
        runs = AnalysisEngine(config, options).analyze_workloads(workloads)
    except Exception:
        error = traceback.format_exc()
    wall = time.perf_counter() - started
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    if error is None:
        score = score_pass(workloads, runs, reference)
    else:
        score = failed_pass([w.name for w in workloads], reference, error.splitlines()[-1])
    stats = runs[0].stats if runs else None
    result = {
        "wall": wall,
        "main_cpu": own.ru_utime + own.ru_stime - before.ru_utime - before.ru_stime,
        "worker_cpu": kids.ru_utime + kids.ru_stime,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "races": sum(len(run.result.classified) for run in runs),
        "score": score,
        "error": error,
        "counters": {key: getattr(stats, key, 0) for key in REPORTED_COUNTERS},
    }
    if span_dir is not None:
        import spans

        result["spans"] = [spans.main_snapshot()] + spans.worker_snapshots(span_dir)
        result["missing_targets"] = missing_targets
    return result


def closed_loop(seconds: float, one_pass: Callable[[], Dict]) -> List[Dict]:
    """Passes back to back until the next would overrun ``seconds``."""
    passes: List[Dict] = []
    started = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall"] for p in passes)
        if elapsed + typical > seconds:
            return passes


# ------------------------------------------------------------------ set-up


def set_up(workload, names: List[str], run_dir: Path, reps: int, seconds: float):
    """Set up ``reps`` times, and again until the set-ups have taken
    ``seconds``, each time in a fresh process.

    Set-up is building the batch; for warm_rerun it also primes a fresh
    cache directory.  Returns ``(seconds per set-up, last cache directory)``.
    """
    times: List[float] = []
    cache_dir = None
    while len(times) < reps or sum(times) < seconds:
        if workload.warm_cache:
            cache_dir = str(run_dir / f"cache-{len(times)}")
            times.append(in_child(_analyze, names, cache_dir)[0])
        else:
            times.append(in_child(_build, names))
    return times, cache_dir


# ----------------------------------------------------------------- metrics


def end_to_end(setup_times, passes) -> Dict[str, float]:
    walls = [p["wall"] for p in passes]
    return {
        "setup_s": statistics.median(setup_times),
        "batch_s": statistics.median(walls),
        "races_per_s": sum(p["races"] for p in passes) / sum(walls),
        "cpu_ms_per_race": statistics.median(
            1000.0 * (p["main_cpu"] + p["worker_cpu"]) / max(1, p["races"])
            for p in passes
        ),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


E2E_UNITS = {
    "setup_s": "s",
    "batch_s": "s",
    "races_per_s": "1/s",
    "cpu_ms_per_race": "ms",
    "peak_rss_mb": "MB",
}


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: the layers spans are charged to (see spans.TARGETS)
LAYERS = (
    "engine", "dispatch", "tasks", "cache", "record", "detect", "classify",
    "single", "alternate", "explore", "multipath", "compare", "solver",
)


def _accounted(snapshots) -> float:
    """Seconds the spans and the tracer's own bookkeeping account for."""
    return sum(
        sum(snapshot["self"].values()) + snapshot["total"].get("trace.bookkeeping", 0.0)
        for snapshot in snapshots
    )


def layer_metrics(traced, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (all processes merged)."""
    total: Dict[str, float] = {}
    layer_total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for snapshot in traced["spans"]:
        for merged, part in (
            (total, snapshot["total"]),
            (layer_total, snapshot["layer_total"]),
            (self_time, snapshot["self"]),
            (calls, snapshot["calls"]),
            (counts, snapshot["counts"]),
        ):
            for key, value in part.items():
                merged[key] = merged.get(key, 0) + value

    counters = traced["counters"]
    wall = traced["wall"]
    computed = counters["classifications_computed"]
    queries = counters["solver_queries"]
    task_seconds = layer_total.get("tasks", 0.0)
    metrics = {
        "engine.classifications_computed": computed,
        "dispatch.wait_s": total.get("dispatch.wait", 0.0),
        "dispatch.submit_s": total.get("dispatch.submit", 0.0),
        "dispatch.pool_lifecycle_s": total.get("dispatch.lifecycle", 0.0),
        "dispatch.recoveries": sum(
            counters[key]
            for key in ("task_retries", "pool_respawns", "tasks_quarantined", "deadlines_exceeded")
        ),
        "tasks.payload_bytes": counts.get("tasks.payload_bytes", 0),
        "cache.load_s": total.get("cache.load", 0.0),
        "cache.store_s": total.get("cache.store", 0.0),
        "cache.trace_hits": counters["trace_cache_hits"],
        "cache.classification_hits": counters["classification_cache_hits"],
        "cache.trace_hit_ratio": _ratio(
            counters["trace_cache_hits"],
            counters["trace_cache_hits"] + counters["traces_recorded"],
        ),
        "cache.classification_hit_ratio": _ratio(
            counters["classification_cache_hits"],
            counters["classification_cache_hits"] + computed,
        ),
        "record.s": layer_total.get("record", 0.0),
        "record.calls": calls.get("record.trace", 0),
        "detect.cluster_s": layer_total.get("detect", 0.0),
        "detect.races": counts.get("detect.races", 0),
        "alternate.replay_primary_s": total.get("alternate.replay_primary", 0.0),
        "alternate.replay_primary_calls": calls.get("alternate.replay_primary", 0),
        "alternate.replays_per_race": _ratio(calls.get("alternate.replay_primary", 0), computed),
        "alternate.run_alternate_s": total.get("alternate.run_alternate", 0.0),
        "alternate.run_alternate_calls": calls.get("alternate.run_alternate", 0),
        "alternate.enforced_ratio": _ratio(
            counts.get("alternate.enforced", 0), calls.get("alternate.run_alternate", 0)
        ),
        "explore.s": layer_total.get("explore", 0.0),
        "explore.calls": calls.get("explore.paths", 0),
        "explore.primaries": counts.get("explore.primaries", 0),
        "multipath.s": layer_total.get("multipath", 0.0),
        "multipath.paths": calls.get("multipath.path", 0),
        "compare.s": layer_total.get("compare", 0.0),
        "compare.calls": calls.get("compare.outputs", 0),
        "solver.s": layer_total.get("solver", 0.0),
        "solver.queries": queries,
        "solver.memo_hit_ratio": _ratio(counters["solver_cache_hits"], queries),
        "solver.assignments_enumerated": counters["solver_assignments_enumerated"],
        "interp.statements": counters["interp_statements"],
        "interp.forks": counters["interp_forks"],
        "interp.cow_copies": counters["interp_cow_copies"],
        "interp.statements_per_s": _ratio(counters["interp_statements"], task_seconds),
        "trace.main_unaccounted_s": wall - _accounted(traced["spans"][:1]),
        "trace.worker_unaccounted_s": (
            workers * wall - _accounted(traced["spans"][1:]) if workers else 0.0
        ),
        "trace.bookkeeping_s": total.get("trace.bookkeeping", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for key, value in self_time.items() if key.split(".", 1)[0] == layer
        )
    for kind in ("record", "classify", "plan", "path"):
        metrics[f"tasks.{kind}_s"] = total.get(f"tasks.{kind}", 0.0)
        metrics[f"tasks.{kind}_calls"] = calls.get(f"tasks.{kind}", 0)
    return metrics


#: units of the per-layer metrics, by name suffix
_SUFFIX_UNITS = (
    ("_per_s", "1/s"),
    ("_s", "s"),
    (".s", "s"),
    ("_ms_p50", "ms"),
    ("_ms_p95", "ms"),
    ("_ratio", "ratio"),
    ("_bytes", "bytes"),
)


def unit_of(name: str) -> str:
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(traced_passes, untraced_passes, workers, unstable: int) -> Dict[str, float]:
    rows = [layer_metrics(p, workers) for p in traced_passes]
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    race_ms = [
        value for p in traced_passes for snapshot in p["spans"] for value in snapshot["race_ms"]
    ]
    metrics["classify.race_ms_p50"] = _percentile(race_ms, 0.50)
    metrics["classify.race_ms_p95"] = _percentile(race_ms, 0.95)
    metrics["trace.overhead_ratio"] = statistics.median(
        p["wall"] for p in traced_passes
    ) / statistics.median(p["wall"] for p in untraced_passes)
    # Worker CPU is taken from the untraced passes, which it is not inflated in.
    metrics["dispatch.worker_busy_ratio"] = _ratio(
        sum(p["worker_cpu"] for p in untraced_passes),
        workers * sum(p["wall"] for p in untraced_passes),
    )
    metrics["counters.unstable"] = unstable
    return metrics


# ---------------------------------------------------------------- counters


def check_counters(name: str, pooled: bool, passes, sha: str) -> List[str]:
    """Counters that differ between passes, or from an earlier run of the
    same source tree; that run's counters are kept under WORK."""
    keys = STABLE_COUNTERS + (() if pooled else SERIAL_COUNTERS)
    first = {key: passes[0]["counters"][key] for key in keys}
    flags = []
    for index, p in enumerate(passes[1:], start=1):
        for key in keys:
            if p["counters"][key] != first[key]:
                flags.append(f"pass {index} {key}={p['counters'][key]} != pass 0 {first[key]}")
    path = WORK / f"counters-{sha}-{name}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        for key in keys:
            if key in earlier and earlier[key] != first[key]:
                flags.append(f"{key}={first[key]} != earlier run {earlier[key]}")
    else:
        write_json(path, first)
    return flags


# -------------------------------------------------------------------- main


def parse_args(argv=None):
    from batches import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    pinned_env = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if pinned_env:
        # They would override the pinned defaults (REPRO_PARALLEL=2 turns the
        # serial workloads into pooled ones).
        return fail(f"refusing to run with {', '.join(pinned_env)} set; unset them")
    if not (SRC / "repro" / "__init__.py").is_file():
        return fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))

    from batches import WORKLOADS, build_settings, pool_workers, program_order

    # Imports are not set-up: every set-up and pass is forked after them.
    import repro.engine  # noqa: F401
    import repro.experiments.metrics  # noqa: F401

    workload = WORKLOADS[args.workload]
    names = program_order(workload, args.seed)
    sha = source_sha()
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        reference = serial_reference(sha)
        if args.trace:
            setup_times, cache_dir = set_up(workload, names, run_dir, 1, 0.0)
        else:
            setup_times, cache_dir = set_up(workload, names, run_dir, SETUP_REPS, SETUP_SECONDS)
        config, options, notes = build_settings(workload.pooled, cache_dir)
        workers = pool_workers() if workload.pooled else 0
        print("perfbench env: " + json.dumps({
            "workload": workload.name,
            "seed": args.seed,
            "order": names,
            "nproc": len(os.sched_getaffinity(0)),
            "pool_workers": workers,
            "python": platform.python_version(),
            "commit": git_commit(),
            "source_sha": sha,
            "notes": notes,
        }))

        numbers = itertools.count()

        def one_pass(traced: bool) -> Dict:
            index = next(numbers)
            pass_options = options
            if cache_dir is not None:
                # Each pass reads its own copy of the primed cache: a cache
                # directory rewritten pass after pass gets slower to write to
                # (file creation in it), which would drift within a run.
                pass_dir = run_dir / f"pass-{index}"
                shutil.copytree(cache_dir, pass_dir)
                shutil.rmtree(run_dir / f"pass-{index - 1}", ignore_errors=True)
                pass_options = dataclasses.replace(options, cache_dir=str(pass_dir))
            span_dir = None
            if traced:
                span_dir = run_dir / f"spans-{index}"
                span_dir.mkdir()
            return in_child(run_pass, names, config, pass_options, reference, span_dir)

        if args.trace:
            untraced_passes = closed_loop(args.seconds / 2, lambda: one_pass(False))
            traced_passes = closed_loop(args.seconds / 2, lambda: one_pass(True))
            passes = untraced_passes + traced_passes
        else:
            passes = closed_loop(args.seconds, lambda: one_pass(False))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in passes:
        if p["error"]:
            print(p["error"], file=sys.stderr)
    attempted = sum(p["score"].attempted for p in passes)
    failed = sum(p["score"].failed for p in passes)
    unexpected = sum(p["score"].unexpected for p in passes)
    failures: Dict[str, int] = {}
    for p in passes:
        for line in p["score"].failures:
            failures[line] = failures.get(line, 0) + 1
    for line, count in sorted(failures.items()):
        print(f"perfbench failed op ({count}/{len(passes)} passes): {line}")
    flags = check_counters(workload.name, workload.pooled, passes, sha)
    for flag in flags:
        print(f"perfbench counter flag: {flag}")
    print("perfbench counters: " + json.dumps(passes[0]["counters"], sort_keys=True))
    print(
        f"perfbench passes={len(passes)} races/pass={passes[0]['score'].attempted} "
        f"walls=" + ",".join(f"{p['wall']:.3f}" for p in passes)
    )

    if args.trace:
        for target in traced_passes[0]["missing_targets"]:
            print(f"perfbench trace: target gone, its span reads 0: {target}")
        values = per_layer(traced_passes, untraced_passes, workers, len(flags))
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in sorted(values.items())}
    else:
        values = end_to_end(setup_times, passes)
        metrics = {name: {"value": values[name], "unit": E2E_UNITS[name]} for name in E2E_UNITS}
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
