"""Benchmark: the staged analysis engine (serial vs parallel, cold vs warm).

Runs the Table 1 workload list *plus* the synthetic ``stress`` (hundreds of
distinct harmless races in one trace), ``stress_deep`` (many primary paths
per race) and ``stress_harmful`` (hundreds of crash races, the
evidence-heavy classification path) workloads through the engine three
ways:

1. serially at race granularity (the reference),
2. over a process pool at ``(race, primary-path)`` granularity,
3. twice against a shared cache directory (cold, then warm -- the warm run
   must classify nothing).

Three A/B comparisons quantify the hot-path optimizations:

* **path mode** -- shipped primaries vs ``explore_primary`` re-derivation
  at path granularity (wall time plus the shipped/re-explored counters;
  shipped mode must perform **zero** re-explorations),
* **solver cache** -- the memoizing solver on vs off on ``stress_deep``
  (wall time plus enumerated-assignment counts; the memo must cut
  enumeration by at least 30%), and
* **dispatch** -- the streaming engine (one persistent pool, plan→path
  overlap, worker-lifetime solver caches) vs the legacy barrier engine on
  ``stress_deep`` (wall time, pool constructions, plan→path overlap
  seconds, worker-cache hit rate; streaming must build exactly one pool,
  measure overlap > 0, hit the worker cache, and not lose to barrier), and
* **full stream** -- the run-wide scheduler (record, classify, plan and
  path futures in one ``wait`` loop) vs the ``staged`` record-barrier
  engine it replaced, on a *skewed* mixed batch (``stress_harmful`` +
  ``SQLite`` + ``stress_deep``): the slow recording anchors the staged
  barrier while the fast workloads' classifications could already run.
  Full stream must keep verdicts bit-identical to serial, measure
  record↔classify overlap > 0, and not lose to staged, and
* **warm tier** -- the persistent solver warm tier cold vs warm on the
  solver-heavy pair (``stress_deep`` + ``stress_harmful``): the second
  run against the same cache directory (classification entries deleted
  in between, so every verdict is recomputed) rehydrates the hottest
  worker-cache entries from ``solver_warm/`` sidecars and must
  enumerate strictly fewer assignments than the cold run without
  changing a verdict; a third, pooled run with ``--speculate`` replays
  the same batch against the warmed primary-count history and must
  confirm speculative path submissions, and
* **fault recovery** -- the streaming engine under a deterministic fault
  plan (one worker crash, one hang, one malformed result) vs the same
  fault-free run on the mixed ``stress_harmful`` + ``stress_deep`` batch:
  the supervised pool must absorb every fault (respawn >= 1, at most one
  task quarantined, zero run-wide serial downgrades), keep verdicts
  bit-identical to the serial reference, and finish within 1.5x the
  fault-free wall clock, and
* **fork cost** -- the copy-on-write ``clone()`` must fork a deep
  ``stress_deep`` state faster than the eager deep copy it replaced.

Classifications are verified bit-identical across all modes.  Running the
file directly emits a JSON artifact (``bench_engine.json``) with every
number, which CI uploads next to the human-readable log.  The speedup
assertions are gated on the host actually having more than one CPU: on a
single core the pool only adds process-management overhead, which is
exactly what the serial fallback exists for.
"""

import json
import os
import tempfile
import time
from dataclasses import replace

import repro.symex.solver as solver_mod
from repro.core.config import PortendConfig
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.events import fold_events, load_events
from repro.engine.stats import GLOBAL_STATS
from repro.runtime.executor import Executor
from repro.symex.factory import solver_backends
from repro.workloads import all_workload_names, load_workload

WORKERS = min(4, os.cpu_count() or 1)

#: the subset exercising per-path fan-out (few races, many primaries each)
PATH_MODE_NAMES = ["SQLite", "bbuf", "stress_deep"]


def _signature(runs):
    return [
        (
            run.workload.name,
            item.race.race_id,
            item.classification.value,
            item.k,
            item.paths_explored,
            item.schedules_explored,
            item.stage,
            item.paths_pruned,
        )
        for run in runs
        for item in run.result.classified
    ]


def run_comparison(names=None):
    names = list(names) if names is not None else all_workload_names(include_synthetic=True)

    started = time.perf_counter()
    serial_runs = AnalysisEngine().analyze(names)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_runs = AnalysisEngine(
        options=EngineOptions(parallel=WORKERS, granularity="path" if WORKERS > 1 else "auto")
    ).analyze(names)
    parallel_seconds = time.perf_counter() - started

    # The same pooled batch under the legacy barrier dispatch: the full-list
    # equivalence gate below asserts streaming ≡ barrier ≡ serial on every
    # registered workload, not just the dispatch A/B subset.
    started = time.perf_counter()
    barrier_runs = AnalysisEngine(
        options=EngineOptions(
            parallel=WORKERS,
            granularity="path" if WORKERS > 1 else "auto",
            dispatch="barrier",
        )
    ).analyze(names)
    barrier_seconds = time.perf_counter() - started

    with tempfile.TemporaryDirectory() as cache_dir:
        options = EngineOptions(cache_dir=cache_dir)
        started = time.perf_counter()
        AnalysisEngine(options=options).analyze(names)
        cold_seconds = time.perf_counter() - started
        GLOBAL_STATS.reset()
        started = time.perf_counter()
        warm_runs = AnalysisEngine(options=options).analyze(names)
        warm_seconds = time.perf_counter() - started
        warm_classifications = GLOBAL_STATS.classifications_computed

    outcome = {
        "serial_runs": serial_runs,
        "serial_seconds": serial_seconds,
        "parallel_runs": parallel_runs,
        "parallel_seconds": parallel_seconds,
        "barrier_runs": barrier_runs,
        "barrier_seconds": barrier_seconds,
        "cold_seconds": cold_seconds,
        "warm_runs": warm_runs,
        "warm_seconds": warm_seconds,
        "warm_classifications": warm_classifications,
    }
    outcome["path_mode"] = run_path_mode_comparison()
    outcome["solver_cache"] = run_solver_cache_comparison()
    outcome["dispatch"] = run_dispatch_comparison()
    outcome["full_stream"] = run_full_stream_comparison()
    outcome["solver_backends"] = run_solver_backend_comparison()
    outcome["events"] = run_events_check()
    outcome["warm_tier"] = run_warm_tier_comparison()
    outcome["fault_recovery"] = run_fault_recovery_comparison()
    outcome["fork_cost"] = _fork_cost()
    return outcome


def _drop_classifications(cache_dir):
    """Delete the classification-cache entries, keeping traces + sidecars.

    This is how the warm-tier A/B isolates the solver tier: the second run
    must recompute every verdict (so the solver actually runs) while reusing
    the recorded traces, the cost-model sidecar and the ``solver_warm/``
    entries the first run persisted.
    """
    for name in os.listdir(cache_dir):
        if "-cls-" in name and name.endswith(".json"):
            os.remove(os.path.join(cache_dir, name))


def run_warm_tier_comparison(names=("stress_deep", "stress_harmful")):
    """Persistent solver warm tier: cold vs warm, plus speculation.

    Three legs against one shared cache directory, with the classification
    entries deleted between legs so every verdict is recomputed:

    1. **cold** -- serial path-granularity run on an empty directory; the
       engine persists the hottest worker-cache entries to ``solver_warm/``
       sidecars and the per-race primary counts to ``costmodel.json``,
    2. **warm** -- the identical run again; fresh solver caches rehydrate
       from the sidecars, so enumeration must drop strictly below cold
       while every verdict stays bit-identical,
    3. **speculate** -- the same batch over a pool at path granularity with
       speculative path submission on: the warmed primary-count history
       predicts each race's fan-out, path tasks are pre-submitted before
       their plan lands, and the confirmed speculations are counted.

    The warm tier and speculation are both advisory: a no-warm-tier
    reference run pins the signature all three legs must reproduce.
    """
    serial = dict(parallel=0, granularity="path")
    baseline_runs = AnalysisEngine(
        options=EngineOptions(warm_tier=False, speculate=False, **serial)
    ).analyze(list(names))
    reference = _signature(baseline_runs)

    with tempfile.TemporaryDirectory() as cache_dir:
        options = EngineOptions(
            cache_dir=cache_dir, warm_tier=True, speculate=False, **serial
        )
        legs = {}
        signatures = {}
        for label in ("cold", "warm"):
            GLOBAL_STATS.reset()
            started = time.perf_counter()
            runs = AnalysisEngine(options=options).analyze(list(names))
            legs[label] = {
                "seconds": time.perf_counter() - started,
                "solver_enumerated": GLOBAL_STATS.solver_assignments_enumerated,
                "worker_cache_hits": GLOBAL_STATS.worker_cache_hits,
                "classifications_computed": GLOBAL_STATS.classifications_computed,
            }
            signatures[label] = _signature(runs)
            _drop_classifications(cache_dir)
        warm_dir = os.path.join(cache_dir, "solver_warm")
        sidecars = len(os.listdir(warm_dir)) if os.path.isdir(warm_dir) else 0

        GLOBAL_STATS.reset()
        started = time.perf_counter()
        spec_runs = AnalysisEngine(
            options=EngineOptions(
                parallel=WORKERS,
                granularity="path" if WORKERS > 1 else "auto",
                cache_dir=cache_dir,
                warm_tier=True,
                speculate=True,
            )
        ).analyze(list(names))
        speculation = {
            "seconds": time.perf_counter() - started,
            "hits": GLOBAL_STATS.speculation_hits,
            "wasted": GLOBAL_STATS.speculation_wasted,
        }
        signatures["speculate"] = _signature(spec_runs)

    cold_enumerated = legs["cold"]["solver_enumerated"]
    warm_enumerated = legs["warm"]["solver_enumerated"]
    return {
        "workloads": list(names),
        "workers": WORKERS,
        "cold": legs["cold"],
        "warm": legs["warm"],
        "warm_sidecars": sidecars,
        "speculation": speculation,
        "identical": all(
            signature == reference for signature in signatures.values()
        ),
        "enumeration_drop": (
            (cold_enumerated - warm_enumerated) / cold_enumerated
            if cold_enumerated
            else 0.0
        ),
    }


def run_fault_recovery_comparison(names=("stress_harmful", "stress_deep")):
    """The supervised streaming engine under injected faults vs fault-free.

    A serial run pins the reference signature; a fault-free streaming run
    pins the baseline wall clock; the faulted streaming run replays the
    identical batch under a deterministic plan injecting one worker crash,
    one 800ms hang and one malformed result into the pool workers.  The
    supervision ladder must absorb all three on the pool -- retries plus at
    least one respawn, at most one quarantined task, zero run-wide serial
    downgrades -- with bit-identical verdicts and bounded overhead.

    The hang is deliberately shorter than the deadline floor: it is absorbed
    as latency, not escalated to a watchdog respawn, so the wall-clock gate
    measures recovery cost rather than a deadline wait (the watchdog path
    has its own tests in ``tests/test_faults.py``).
    """
    serial_runs = AnalysisEngine(
        options=EngineOptions(parallel=0, granularity="race")
    ).analyze(list(names))
    reference = _signature(serial_runs)

    pool_options = dict(
        parallel=WORKERS, granularity="auto", dispatch="streaming"
    )
    started = time.perf_counter()
    clean_runs = AnalysisEngine(options=EngineOptions(**pool_options)).analyze(
        list(names)
    )
    clean_seconds = time.perf_counter() - started

    # The crash targets the few-race workload: a broken pool sweeps *every*
    # in-flight chunk into singleton retries, so crashing mid-stress_harmful
    # (hundreds of races per chunk) would measure singleton-resubmission
    # overhead instead of recovery cost.
    plan = json.dumps(
        {
            "faults": [
                {"op": "crash", "stage": "classify", "workload": "stress_deep"},
                {"op": "hang", "stage": "classify", "workload": "stress_harmful",
                 "ms": 400},
                {"op": "malformed", "stage": "classify", "workload": "stress_deep"},
            ]
        }
    )
    started = time.perf_counter()
    engine = AnalysisEngine(
        options=EngineOptions(fault_plan=plan, **pool_options)
    )
    faulted_runs = engine.analyze(list(names))
    faulted_seconds = time.perf_counter() - started
    stats = engine.last_run_stats

    return {
        "workloads": list(names),
        "workers": WORKERS,
        "clean": {"seconds": clean_seconds},
        "faulted": {
            "seconds": faulted_seconds,
            "faults_injected": stats.faults_injected,
            "task_retries": stats.task_retries,
            "pool_respawns": stats.pool_respawns,
            "tasks_quarantined": stats.tasks_quarantined,
            "deadlines_exceeded": stats.deadlines_exceeded,
            "pool_downgrades": stats.pool_downgrades,
            "pools_created": stats.pools_created,
        },
        "identical": (
            _signature(clean_runs) == reference
            and _signature(faulted_runs) == reference
        ),
        "overhead": (faulted_seconds / clean_seconds) if clean_seconds else 0.0,
    }


def run_solver_backend_comparison(names=("stress_deep",)):
    """Every registered solver backend, serially, against the same batch.

    The factory contract is that backends differ only in *how* they reach an
    answer, never in the answer itself: verdicts must stay bit-identical, and
    the classification cache is deliberately keyed without the backend name.
    The comparison also records how much enumeration each backend avoids --
    the portfolio backend's interval-propagation fast path should answer the
    wrapped path-condition queries without enumerating at all.
    """
    per_backend = {}
    signatures = {}
    for backend in solver_backends():
        GLOBAL_STATS.reset()
        started = time.perf_counter()
        runs = AnalysisEngine(
            config=replace(PortendConfig(), solver_backend=backend)
        ).analyze(list(names))
        per_backend[backend] = {
            "seconds": time.perf_counter() - started,
            "solver_queries": GLOBAL_STATS.solver_queries,
            "solver_enumerated": GLOBAL_STATS.solver_assignments_enumerated,
            "solver_fastpath": GLOBAL_STATS.solver_fastpath_answers,
            "solver_seconds": GLOBAL_STATS.solver_seconds,
        }
        signatures[backend] = _signature(runs)
    reference = signatures["default"]
    default_enumerated = per_backend["default"]["solver_enumerated"]
    portfolio_enumerated = per_backend.get("portfolio", {}).get(
        "solver_enumerated", default_enumerated
    )
    return {
        "workloads": list(names),
        "backends": per_backend,
        "identical": all(signature == reference for signature in signatures.values()),
        "enumeration_drop": (
            (default_enumerated - portfolio_enumerated) / default_enumerated
            if default_enumerated
            else 0.0
        ),
    }


def run_events_check(names=("stress_deep",)):
    """Event logging on vs off: identical verdicts, fold == live counters.

    The structured event log is pure observability -- turning it on must not
    change a single verdict, and folding the JSONL stream written to disk
    must reproduce exactly the ``EngineStats`` the run reported, counter for
    counter.
    """
    pool_options = dict(
        parallel=WORKERS, granularity="path" if WORKERS > 1 else "auto"
    )
    plain_runs = AnalysisEngine(options=EngineOptions(**pool_options)).analyze(
        list(names)
    )
    with tempfile.TemporaryDirectory() as tmp:
        events_path = os.path.join(tmp, "events.jsonl")
        engine = AnalysisEngine(
            options=EngineOptions(events_path=events_path, **pool_options)
        )
        logged_runs = engine.analyze(list(names))
        events = load_events(events_path)
    by_kind = {}
    for event in events:
        by_kind[event["kind"]] = by_kind.get(event["kind"], 0) + 1
    return {
        "workloads": list(names),
        "events_total": len(events),
        "by_kind": by_kind,
        "solver_query_events": by_kind.get("solver_query", 0),
        "identical": _signature(plain_runs) == _signature(logged_runs),
        "fold_matches": fold_events(events) == engine.last_run_stats,
    }


def run_dispatch_comparison(names=("stress_deep",)):
    """Streaming vs barrier dispatch over a pool at path granularity.

    ``stress_deep`` is the shape streaming exists for: every race plans,
    then fans out into many path tasks, so the legacy barrier between the
    plan queue and the path queue leaves the pool idling behind the slowest
    plan, and every stage pays a fresh pool spin-up.  Streaming runs the
    same tasks through one persistent pool and overlaps the two queues.
    """
    modes = {}
    signatures = {}
    for label in ("barrier", "streaming"):
        # Best-of-2 wall clock: the throughput gate in verify() compares
        # single-digit-millisecond margins, so one noisy scheduler hiccup
        # must not decide it.  The counters are deterministic per run
        # (overlap aside) and come from the last repetition.
        best_seconds = None
        for _repetition in range(2):
            GLOBAL_STATS.reset()
            started = time.perf_counter()
            runs = AnalysisEngine(
                options=EngineOptions(
                    parallel=WORKERS,
                    granularity="path" if WORKERS > 1 else "auto",
                    dispatch=label,
                )
            ).analyze(list(names))
            elapsed = time.perf_counter() - started
            best_seconds = elapsed if best_seconds is None else min(best_seconds, elapsed)
        queries = GLOBAL_STATS.solver_queries
        modes[label] = {
            "seconds": best_seconds,
            "pools_created": GLOBAL_STATS.pools_created,
            "pool_reuses": GLOBAL_STATS.pool_reuses,
            "stage_overlap_seconds": GLOBAL_STATS.stage_overlap_seconds,
            "worker_cache_hits": GLOBAL_STATS.worker_cache_hits,
            "solver_queries": queries,
            "worker_cache_hit_rate": (
                GLOBAL_STATS.worker_cache_hits / queries if queries else 0.0
            ),
        }
        signatures[label] = _signature(runs)
    return {
        "workloads": list(names),
        "workers": WORKERS,
        "barrier": modes["barrier"],
        "streaming": modes["streaming"],
        "identical": signatures["barrier"] == signatures["streaming"],
        "speedup": (
            modes["barrier"]["seconds"] / modes["streaming"]["seconds"]
            if modes["streaming"]["seconds"]
            else 0.0
        ),
    }


def run_full_stream_comparison(names=("stress_harmful", "SQLite", "stress_deep")):
    """Full-stream vs staged dispatch on a skewed mixed batch.

    The batch is deliberately lopsided: ``stress_harmful`` records for far
    longer than ``SQLite``, so the staged engine's record barrier parks the
    whole pool behind the slowest recording while the fast workloads'
    stage-3 queues sit ready.  The full-stream scheduler starts classifying
    ``SQLite`` the moment its recording lands -- the record↔classify overlap
    channel measures exactly that window.  Verdicts must stay bit-identical
    to the serial reference under both modes.
    """
    serial_runs = AnalysisEngine(
        options=EngineOptions(parallel=0, granularity="race")
    ).analyze(list(names))
    reference = _signature(serial_runs)
    modes = {}
    signatures = {}
    for label in ("staged", "streaming"):
        # Best-of-2 wall clock, same reasoning as the dispatch gate: the
        # margin between two pooled runs is small and must not be decided
        # by one scheduler hiccup on a shared runner.
        best_seconds = None
        for _repetition in range(2):
            GLOBAL_STATS.reset()
            started = time.perf_counter()
            runs = AnalysisEngine(
                options=EngineOptions(
                    parallel=WORKERS, granularity="auto", dispatch=label
                )
            ).analyze(list(names))
            elapsed = time.perf_counter() - started
            best_seconds = elapsed if best_seconds is None else min(best_seconds, elapsed)
        modes[label] = {
            "seconds": best_seconds,
            "pools_created": GLOBAL_STATS.pools_created,
            "pool_reuses": GLOBAL_STATS.pool_reuses,
            "stage_overlap_seconds": GLOBAL_STATS.stage_overlap_seconds,
            "record_classify_overlap_seconds": (
                GLOBAL_STATS.record_classify_overlap_seconds
            ),
        }
        signatures[label] = _signature(runs)
    return {
        "workloads": list(names),
        "workers": WORKERS,
        "staged": modes["staged"],
        "streaming": modes["streaming"],
        "identical": all(
            signature == reference for signature in signatures.values()
        ),
        "speedup": (
            modes["staged"]["seconds"] / modes["streaming"]["seconds"]
            if modes["streaming"]["seconds"]
            else 0.0
        ),
    }


def _fork_cost(name="stress_deep", warmup_steps=400, clones=200):
    """Time ``clone()`` (copy-on-write) vs ``clone_eager()`` (deep copy).

    The state is a mid-execution snapshot of the deep-path stress workload
    -- live threads, frames, sync objects and memory -- i.e. the exact shape
    ``_fork_branch`` duplicates at every symbolic branch.  COW forking is
    O(touched-on-write) instead of O(state), so it must win outright.
    """
    workload = load_workload(name)
    executor = Executor(workload.program)
    state = executor.initial_state(concrete_inputs=dict(workload.inputs))
    executor.run(state, max_steps=warmup_steps)

    started = time.perf_counter()
    for _clone in range(clones):
        state.clone()
    cow_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for _clone in range(clones):
        state.clone_eager()
    eager_seconds = time.perf_counter() - started

    return {
        "workload": name,
        "warmup_steps": warmup_steps,
        "clones": clones,
        "cow_seconds": cow_seconds,
        "eager_seconds": eager_seconds,
        "speedup": (eager_seconds / cow_seconds) if cow_seconds else 0.0,
    }


def run_path_mode_comparison(names=None):
    """Shipped-primary vs re-explore path mode, serially (stable timings)."""
    names = list(names) if names is not None else list(PATH_MODE_NAMES)

    GLOBAL_STATS.reset()
    started = time.perf_counter()
    shipped_runs = AnalysisEngine(options=EngineOptions(granularity="path")).analyze(names)
    shipped = {
        "seconds": time.perf_counter() - started,
        "primaries_shipped": GLOBAL_STATS.primaries_shipped,
        "primaries_reexplored": GLOBAL_STATS.primaries_reexplored,
        "solver_enumerated": GLOBAL_STATS.solver_assignments_enumerated,
    }

    GLOBAL_STATS.reset()
    started = time.perf_counter()
    reexplore_runs = AnalysisEngine(
        options=EngineOptions(granularity="path", ship_primaries=False)
    ).analyze(names)
    reexplore = {
        "seconds": time.perf_counter() - started,
        "primaries_shipped": GLOBAL_STATS.primaries_shipped,
        "primaries_reexplored": GLOBAL_STATS.primaries_reexplored,
        "solver_enumerated": GLOBAL_STATS.solver_assignments_enumerated,
    }

    return {
        "workloads": names,
        "shipped": shipped,
        "reexplore": reexplore,
        "identical": _signature(shipped_runs) == _signature(reexplore_runs),
        "speedup": (reexplore["seconds"] / shipped["seconds"]) if shipped["seconds"] else 0.0,
    }


def run_solver_cache_comparison(names=("stress_deep",)):
    """The memoizing solver on vs off, serially on the deep-path workload.

    Pinned to the ``default`` backend: the gate measures the memo's effect
    on enumeration, which the portfolio fast path would short-circuit.
    """
    modes = {}
    signatures = {}
    for label, enabled in (("off", False), ("on", True)):
        previous = solver_mod.set_cache_enabled_default(enabled)
        try:
            GLOBAL_STATS.reset()
            started = time.perf_counter()
            runs = AnalysisEngine(
                config=replace(PortendConfig(), solver_backend="default")
            ).analyze(list(names))
            modes[label] = {
                "seconds": time.perf_counter() - started,
                "solver_queries": GLOBAL_STATS.solver_queries,
                "solver_cache_hits": GLOBAL_STATS.solver_cache_hits,
                "solver_enumerated": GLOBAL_STATS.solver_assignments_enumerated,
            }
            signatures[label] = _signature(runs)
        finally:
            solver_mod.set_cache_enabled_default(previous)
    enumerated_off = modes["off"]["solver_enumerated"]
    enumerated_on = modes["on"]["solver_enumerated"]
    return {
        "workloads": list(names),
        "off": modes["off"],
        "on": modes["on"],
        "identical": signatures["off"] == signatures["on"],
        "enumeration_drop": (
            (enumerated_off - enumerated_on) / enumerated_off if enumerated_off else 0.0
        ),
    }


def render(outcome):
    serial_runs = outcome["serial_runs"]
    races = sum(len(run.result.classified) for run in serial_runs)
    speedup = (
        outcome["serial_seconds"] / outcome["parallel_seconds"]
        if outcome["parallel_seconds"]
        else float("inf")
    )
    warm_speedup = (
        outcome["cold_seconds"] / outcome["warm_seconds"]
        if outcome["warm_seconds"]
        else float("inf")
    )
    path_mode = outcome["path_mode"]
    solver_cache = outcome["solver_cache"]
    dispatch = outcome["dispatch"]
    full_stream = outcome["full_stream"]
    backends = outcome["solver_backends"]
    events = outcome["events"]
    warm_tier = outcome["warm_tier"]
    fault_recovery = outcome["fault_recovery"]
    fork_cost = outcome["fork_cost"]
    lines = [
        "Engine benchmark: staged pipeline, serial vs parallel vs warm cache",
        f"{'workloads':<26} {len(serial_runs)}",
        f"{'distinct races':<26} {races}",
        f"{'worker processes':<26} {WORKERS} (host cpus: {os.cpu_count()})",
        f"{'serial wall-clock':<26} {outcome['serial_seconds']:.2f}s  (race granularity)",
        f"{'parallel wall-clock':<26} {outcome['parallel_seconds']:.2f}s  "
        f"({'path' if WORKERS > 1 else 'race'} granularity)",
        f"{'parallel speedup':<26} {speedup:.2f}x",
        f"{'barrier wall-clock':<26} {outcome['barrier_seconds']:.2f}s  (legacy dispatch)",
        f"{'cold cached run':<26} {outcome['cold_seconds']:.2f}s",
        f"{'warm cached run':<26} {outcome['warm_seconds']:.2f}s  "
        f"({outcome['warm_classifications']} classifications computed)",
        f"{'warm speedup':<26} {warm_speedup:.2f}x",
        "",
        f"Path mode ({', '.join(path_mode['workloads'])}):",
        f"{'shipped primaries':<26} {path_mode['shipped']['seconds']:.2f}s  "
        f"({path_mode['shipped']['primaries_shipped']} shipped, "
        f"{path_mode['shipped']['primaries_reexplored']} re-explored)",
        f"{'re-explore fallback':<26} {path_mode['reexplore']['seconds']:.2f}s  "
        f"({path_mode['reexplore']['primaries_reexplored']} re-explored)",
        f"{'shipping speedup':<26} {path_mode['speedup']:.2f}x",
        "",
        f"Solver cache ({', '.join(solver_cache['workloads'])}):",
        f"{'cache off':<26} {solver_cache['off']['seconds']:.2f}s  "
        f"({solver_cache['off']['solver_enumerated']} assignments enumerated)",
        f"{'cache on':<26} {solver_cache['on']['seconds']:.2f}s  "
        f"({solver_cache['on']['solver_enumerated']} assignments enumerated, "
        f"{solver_cache['on']['solver_cache_hits']} hits)",
        f"{'enumeration drop':<26} {solver_cache['enumeration_drop']:.1%}",
        "",
        f"Dispatch ({', '.join(dispatch['workloads'])}, {dispatch['workers']} workers):",
        f"{'barrier':<26} {dispatch['barrier']['seconds']:.2f}s  "
        f"({dispatch['barrier']['pools_created']} pools created)",
        f"{'streaming':<26} {dispatch['streaming']['seconds']:.2f}s  "
        f"({dispatch['streaming']['pools_created']} pool created, "
        f"{dispatch['streaming']['pool_reuses']} reuses, "
        f"{dispatch['streaming']['stage_overlap_seconds']:.2f}s plan/path overlap)",
        f"{'worker-cache hit rate':<26} "
        f"{dispatch['streaming']['worker_cache_hit_rate']:.1%} "
        f"({dispatch['streaming']['worker_cache_hits']} of "
        f"{dispatch['streaming']['solver_queries']} queries)",
        f"{'streaming speedup':<26} {dispatch['speedup']:.2f}x",
        "",
        f"Full stream ({', '.join(full_stream['workloads'])}, "
        f"{full_stream['workers']} workers):",
        f"{'staged (record barrier)':<26} {full_stream['staged']['seconds']:.2f}s  "
        f"({full_stream['staged']['stage_overlap_seconds']:.2f}s plan/path overlap)",
        f"{'full stream':<26} {full_stream['streaming']['seconds']:.2f}s  "
        f"({full_stream['streaming']['stage_overlap_seconds']:.2f}s plan/path, "
        f"{full_stream['streaming']['record_classify_overlap_seconds']:.2f}s "
        f"record/classify overlap)",
        f"{'full-stream speedup':<26} {full_stream['speedup']:.2f}x",
        f"{'verdicts identical':<26} {full_stream['identical']}",
        "",
        f"Solver backends ({', '.join(backends['workloads'])}):",
    ]
    for name, numbers in backends["backends"].items():
        lines.append(
            f"{name:<26} {numbers['seconds']:.2f}s  "
            f"({numbers['solver_queries']} queries, "
            f"{numbers['solver_enumerated']} enumerated, "
            f"{numbers['solver_fastpath']} fast-path answers)"
        )
    lines += [
        f"{'enumeration drop':<26} {backends['enumeration_drop']:.1%}",
        f"{'verdicts identical':<26} {backends['identical']}",
        "",
        f"Event log ({', '.join(events['workloads'])}):",
        f"{'events written':<26} {events['events_total']} "
        f"({events['solver_query_events']} solver queries)",
        f"{'verdicts identical':<26} {events['identical']}",
        f"{'fold == live counters':<26} {events['fold_matches']}",
        "",
        f"Warm tier ({', '.join(warm_tier['workloads'])}):",
        f"{'cold run':<26} {warm_tier['cold']['seconds']:.2f}s  "
        f"({warm_tier['cold']['solver_enumerated']} assignments enumerated, "
        f"{warm_tier['warm_sidecars']} sidecars persisted)",
        f"{'warm run':<26} {warm_tier['warm']['seconds']:.2f}s  "
        f"({warm_tier['warm']['solver_enumerated']} assignments enumerated, "
        f"{warm_tier['warm']['worker_cache_hits']} worker-cache hits)",
        f"{'enumeration drop':<26} {warm_tier['enumeration_drop']:.1%}",
        f"{'speculative run':<26} {warm_tier['speculation']['seconds']:.2f}s  "
        f"({warm_tier['speculation']['hits']} speculation hits, "
        f"{warm_tier['speculation']['wasted']} wasted)",
        f"{'verdicts identical':<26} {warm_tier['identical']}",
        "",
        f"Fault recovery ({', '.join(fault_recovery['workloads'])}, "
        f"{fault_recovery['workers']} workers):",
        f"{'fault-free streaming':<26} {fault_recovery['clean']['seconds']:.2f}s",
        f"{'faulted streaming':<26} {fault_recovery['faulted']['seconds']:.2f}s  "
        f"({fault_recovery['faulted']['faults_injected']} faults injected, "
        f"{fault_recovery['faulted']['task_retries']} retries, "
        f"{fault_recovery['faulted']['pool_respawns']} respawns, "
        f"{fault_recovery['faulted']['tasks_quarantined']} quarantined, "
        f"{fault_recovery['faulted']['pool_downgrades']} downgrades)",
        f"{'recovery overhead':<26} {fault_recovery['overhead']:.2f}x",
        f"{'verdicts identical':<26} {fault_recovery['identical']}",
        "",
        f"Interpreter fork cost ({fork_cost['workload']}):",
        f"{'fork cost (COW)':<26} {fork_cost['cow_seconds']:.4f}s  "
        f"({fork_cost['clones']} clones of a {fork_cost['workload']} state)",
        f"{'fork cost (eager copy)':<26} {fork_cost['eager_seconds']:.4f}s  "
        f"({fork_cost['speedup']:.2f}x slower than COW)",
    ]
    return "\n".join(lines)


def to_artifact(outcome):
    """The JSON artifact CI uploads: every number, no live objects."""
    return {
        "workers": WORKERS,
        "host_cpus": os.cpu_count(),
        "workloads": [run.workload.name for run in outcome["serial_runs"]],
        "distinct_races": sum(
            len(run.result.classified) for run in outcome["serial_runs"]
        ),
        "serial_seconds": outcome["serial_seconds"],
        "parallel_seconds": outcome["parallel_seconds"],
        "barrier_seconds": outcome["barrier_seconds"],
        "cold_seconds": outcome["cold_seconds"],
        "warm_seconds": outcome["warm_seconds"],
        "warm_classifications": outcome["warm_classifications"],
        "path_mode": outcome["path_mode"],
        "solver_cache": outcome["solver_cache"],
        "dispatch": outcome["dispatch"],
        "full_stream": outcome["full_stream"],
        "solver_backends": outcome["solver_backends"],
        "events": outcome["events"],
        "warm_tier": outcome["warm_tier"],
        "fault_recovery": outcome["fault_recovery"],
        "fork_cost": outcome["fork_cost"],
    }


def verify(outcome):
    """Correctness gates, shared by the pytest entry point and __main__.

    Running the file directly (as the CI bench job does) must fail loudly if
    per-path parallel classification ever diverges from serial, the warm
    cache re-classifies, shipped-primary mode re-explores a prefix, or the
    solver memo stops earning its keep.
    """
    assert _signature(outcome["serial_runs"]) == _signature(outcome["parallel_runs"])
    assert _signature(outcome["serial_runs"]) == _signature(outcome["barrier_runs"])
    assert _signature(outcome["serial_runs"]) == _signature(outcome["warm_runs"])
    # Per-workload ground truth: the default list totals 93 (the paper's
    # Table 3) plus the stress slots; a names subset checks its own subset.
    for run in outcome["serial_runs"]:
        assert run.result.distinct_races() == run.workload.expected_distinct_races, (
            run.workload.name,
            run.result.distinct_races(),
        )
    # A fully warm cache must skip classification entirely.
    assert outcome["warm_classifications"] == 0
    # Shipped-primary mode performs zero redundant prefix explorations and
    # stays bit-identical to the re-explore fallback.
    path_mode = outcome["path_mode"]
    assert path_mode["identical"]
    assert path_mode["shipped"]["primaries_reexplored"] == 0
    assert path_mode["shipped"]["primaries_shipped"] > 0
    assert path_mode["reexplore"]["primaries_reexplored"] > 0
    # The solver memo cuts enumeration by >= 30% on the deep-path workload
    # without changing a single verdict.
    solver_cache = outcome["solver_cache"]
    assert solver_cache["identical"]
    assert solver_cache["enumeration_drop"] >= 0.30, solver_cache
    # Streaming vs barrier dispatch: bit-identical verdicts, and the
    # worker-lifetime solver cache must actually be hit (identical
    # constraint-set queries recur across the races/paths of one workload
    # whichever process runs the tasks).
    dispatch = outcome["dispatch"]
    assert dispatch["identical"]
    assert dispatch["streaming"]["worker_cache_hits"] > 0, dispatch
    # The full-stream scheduler must stay bit-identical to serial on the
    # skewed mixed batch whichever mode dispatched it.
    full_stream = outcome["full_stream"]
    assert full_stream["identical"], full_stream
    # Every solver backend must produce bit-identical verdicts, and the
    # portfolio fast path must both fire and never enumerate more than the
    # default backend does.
    backends = outcome["solver_backends"]
    assert backends["identical"], backends
    assert (
        backends["backends"]["portfolio"]["solver_enumerated"]
        <= backends["backends"]["default"]["solver_enumerated"]
    ), backends
    assert backends["backends"]["portfolio"]["solver_fastpath"] > 0, backends
    # Event logging is pure observability: verdicts unchanged, and folding
    # the on-disk stream reproduces the run's counters exactly.
    events = outcome["events"]
    assert events["identical"], events
    assert events["fold_matches"], events
    assert events["solver_query_events"] > 0, events
    # The persistent warm tier: the warm run rehydrates fresh solver caches
    # from the sidecars, so it must enumerate *strictly* fewer assignments
    # than the cold run, actually hit the rehydrated entries, recompute
    # every verdict (the classification cache was emptied between legs),
    # and not be slower than cold (small noise allowance) -- all without
    # changing a verdict relative to the no-warm-tier reference.
    warm_tier = outcome["warm_tier"]
    assert warm_tier["identical"], warm_tier
    assert warm_tier["warm_sidecars"] > 0, warm_tier
    assert warm_tier["warm"]["classifications_computed"] > 0, warm_tier
    assert (
        warm_tier["warm"]["solver_enumerated"]
        < warm_tier["cold"]["solver_enumerated"]
    ), warm_tier
    assert warm_tier["warm"]["worker_cache_hits"] > 0, warm_tier
    assert (
        warm_tier["warm"]["seconds"] <= 1.10 * warm_tier["cold"]["seconds"]
    ), warm_tier
    # Fault recovery: verdicts are bit-identical to serial no matter what the
    # plan injected -- recovery re-runs deterministic tasks, it never changes
    # answers.  The pooled-recovery gates (respawns fired, nothing run-wide
    # downgraded) live in the multi-core block below: on a single core the
    # engine runs serially and the driver never injects.
    fault_recovery = outcome["fault_recovery"]
    assert fault_recovery["identical"], fault_recovery
    # A COW fork must beat the eager deep copy it replaced.
    fork_cost = outcome["fork_cost"]
    assert fork_cost["cow_seconds"] < fork_cost["eager_seconds"], fork_cost
    if (os.cpu_count() or 1) > 1 and WORKERS > 1:
        # Speculative path submission needs a pool at path granularity to
        # engage; with the warmed primary-count history it must confirm at
        # least one speculation on this batch.
        assert warm_tier["speculation"]["hits"] > 0, warm_tier
        # Real parallel hardware must beat the serial pipeline on a
        # multi-race batch (hundreds of independent tasks).
        assert outcome["parallel_seconds"] < outcome["serial_seconds"]
        # The streaming engine builds exactly one pool per run and reuses
        # it for every later stage, overlaps the plan and path queues for a
        # measurable amount of time, and must not lose to the barrier
        # engine it replaces (it runs the same tasks minus the pool churn
        # and the inter-stage idling).
        assert dispatch["streaming"]["pools_created"] == 1, dispatch
        assert dispatch["streaming"]["pool_reuses"] >= 1, dispatch
        assert dispatch["streaming"]["stage_overlap_seconds"] > 0.0, dispatch
        assert dispatch["barrier"]["pools_created"] > 1, dispatch
        # Best-of-2 wall clocks with a 15% noise allowance: the comparison
        # is between pooled runs whose structural margin (pool spin-ups +
        # inter-stage idling) is small on this workload, and a shared CI
        # runner's scheduler jitter must not fail the gate when the
        # deterministic counters above already prove the mechanism works.
        assert (
            dispatch["streaming"]["seconds"] <= 1.15 * dispatch["barrier"]["seconds"]
        ), dispatch
        # The full-stream run-wide scheduler on the skewed batch: one
        # persistent pool, measurable record↔classify overlap (stage 3 of
        # the fast workloads ran while the slow recording was in flight),
        # and no regression against the staged record-barrier engine (same
        # noise allowance as the dispatch gate above).
        assert full_stream["streaming"]["pools_created"] == 1, full_stream
        assert (
            full_stream["streaming"]["record_classify_overlap_seconds"] > 0.0
        ), full_stream
        assert (
            full_stream["staged"]["record_classify_overlap_seconds"] == 0.0
        ), full_stream
        assert (
            full_stream["streaming"]["seconds"]
            <= 1.15 * full_stream["staged"]["seconds"]
        ), full_stream
        # The supervised pool under injected faults: every fault fired and
        # was absorbed on the pool -- the crash respawned the (single) pool,
        # at most one task was quarantined, and the run never downgraded to
        # run-wide serial execution.  Recovery cost is bounded: the faulted
        # run finishes within 1.5x the fault-free wall clock.
        faulted = fault_recovery["faulted"]
        assert faulted["faults_injected"] == 3, fault_recovery
        assert faulted["task_retries"] >= 1, fault_recovery
        assert faulted["pool_respawns"] >= 1, fault_recovery
        assert faulted["tasks_quarantined"] <= 1, fault_recovery
        assert faulted["pool_downgrades"] == 0, fault_recovery
        assert faulted["pools_created"] == 1, fault_recovery
        assert (
            faulted["seconds"] <= 1.5 * fault_recovery["clean"]["seconds"]
        ), fault_recovery


def test_engine_serial_vs_parallel(benchmark, once):
    outcome = once(benchmark, run_comparison)
    print()
    print(render(outcome))
    verify(outcome)


if __name__ == "__main__":
    _outcome = run_comparison()
    print(render(_outcome))
    with open("bench_engine.json", "w", encoding="utf-8") as _handle:
        json.dump(to_artifact(_outcome), _handle, indent=2)
    verify(_outcome)
