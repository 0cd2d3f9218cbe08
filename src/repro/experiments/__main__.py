"""Command-line entry point: ``python -m repro.experiments <experiment>``.

The shared-run experiments (table3/table4/table5/fig9) all consume one
default-configuration analysis of the workload list; the driver computes
those runs once through the :class:`repro.engine.AnalysisEngine` -- honoring
``--parallel``, ``--cache-dir`` and ``--workloads`` -- and hands them to
every requested experiment.  The ablation experiments (table2, fig7, fig10)
sweep their own configurations but still honor ``--parallel`` and
``--cache-dir`` for each per-config analysis.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import fig7, fig9, fig10, table1, table2, table3, table4, table5

_EXPERIMENTS = {
    "table1": (table1, {}),
    "table2": (table2, {}),
    "table3": (table3, {}),
    "table4": (table4, {}),
    "table5": (table5, {}),
    "fig7": (fig7, {}),
    "fig9": (fig9, {}),
    "fig10": (fig10, {}),
}

#: experiments whose run() accepts precomputed default-config runs
_RUNS_CAPABLE = {"table3", "table4", "table5", "fig9"}

#: ablation experiments that analyze with their own configs but still accept
#: the engine's parallel/cache flags per analysis
_ENGINE_FLAG_CAPABLE = {"table2", "fig7", "fig10"}


def _check_workload_names(parser, names) -> None:
    """``parser.error`` (exit 2) unless every name is a registry workload."""
    from repro.workloads import all_workload_names

    known = all_workload_names(include_synthetic=True)
    lowered = {name.lower() for name in known}
    unknown = [name for name in names if name.lower() not in lowered]
    if unknown:
        parser.error(
            f"unknown workload {', '.join(map(repr, unknown))}; "
            f"choose from {', '.join(known)}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate a table or figure from the Portend paper.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "cache-info", "events-info", "profile"],
        help="which table/figure to regenerate, 'cache-info' to dump "
        "per-entry age and hit counts of a --cache-dir (including the "
        "costmodel.json and solver_warm/ sidecar tiers), 'events-info' to "
        "summarize a structured event log written via --events, or "
        "'profile' to run one workload's analysis under cProfile",
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        metavar="WORKLOAD",
        help="workload name for the 'profile' experiment (e.g. 'bbuf')",
    )
    parser.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="classify races over N worker processes (0/1 = serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache recorded execution traces in DIR and reuse them",
    )
    parser.add_argument(
        "--workloads",
        default=None,
        metavar="NAMES",
        help="comma-separated workload subset for the shared-run experiments "
        "(table3/table4/table5/fig9); default: the full Table 1 list",
    )
    parser.add_argument(
        "--task-granularity",
        default="auto",
        choices=["auto", "race", "path"],
        dest="granularity",
        help="classification task grain: 'race' = one task per (workload, race), "
        "'path' = one task per (race, primary-path); 'auto' adapts per workload "
        "when --parallel > 1 (path for few-race workloads, race for many-race "
        "ones) and stays at 'race' serially",
    )
    parser.add_argument(
        "--dispatch",
        default="streaming",
        choices=["streaming", "staged", "barrier"],
        help="pool dispatch strategy under --parallel: 'streaming' runs the "
        "whole record→classify→plan→path pipeline as one run-wide scheduler "
        "on a persistent worker pool; 'staged' keeps the persistent pool but "
        "barriers after the record stage (the previous default, kept for A/B "
        "comparison); 'barrier' is the legacy fresh-pool-per-stage behaviour",
    )
    parser.add_argument(
        "--chunk-target-ms",
        type=int,
        default=500,
        metavar="MS",
        help="per-chunk wall-clock target for the cost-aware scheduler: wide "
        "plan and path queues are packed into chunks estimated to run roughly "
        "this long (default 500; see the costmodel.json sidecar in "
        "--cache-dir); race-granularity classification chunks are replay "
        "sharing units and keep a deterministic size",
    )
    parser.add_argument(
        "--warm-tier",
        action=argparse.BooleanOptionalAction,
        default=None,
        dest="warm_tier",
        help="persist the hottest worker-lifetime solver-cache entries to "
        "solver_warm/ sidecars in --cache-dir and rehydrate them into fresh "
        "worker processes, so cold processes start warm (advisory: verdicts "
        "are bit-identical either way).  Default: the REPRO_WARM_TIER "
        "environment variable, else on; requires --cache-dir to take effect",
    )
    parser.add_argument(
        "--speculate",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="pre-submit path tasks for the primary count the cost model's "
        "history predicts, before each race's plan lands (full-stream "
        "scheduler only; changes scheduling, never verdicts).  Default: the "
        "REPRO_SPECULATE environment variable, else off",
    )
    parser.add_argument(
        "--solver",
        default=None,
        metavar="BACKEND",
        help="solver backend for every analysis: 'default' (bounded "
        "enumeration) or 'portfolio' (interval-propagation fast path with "
        "enumeration fallback); backends are verdict-bit-identical.  "
        "Defaults to the REPRO_SOLVER environment variable, else 'default'",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault-injection plan for the pool workers: inline "
        "JSON (starting with '{') or a path to a JSON file describing crash/"
        "hang/malformed-result/corrupt-sidecar faults (see "
        "repro.engine.faults).  Shared-run experiments only.  Defaults to "
        "the REPRO_FAULT_PLAN environment variable, else none",
    )
    parser.add_argument(
        "--max-pool-respawns",
        type=int,
        default=None,
        metavar="N",
        help="rebuild a crashed/hung persistent pool up to N times per run "
        "before downgrading the rest of the run to serial execution.  "
        "Defaults to REPRO_MAX_POOL_RESPAWNS, else 2",
    )
    parser.add_argument(
        "--max-task-retries",
        type=int,
        default=None,
        metavar="N",
        help="re-execute a task that crashed its worker, missed its deadline "
        "or returned a malformed result up to N extra times before "
        "quarantining it (alone) to the in-driver serial path.  Defaults to "
        "REPRO_MAX_TASK_RETRIES, else 2",
    )
    parser.add_argument(
        "--task-deadline-ms",
        type=int,
        default=None,
        metavar="MS",
        help="flat per-chunk deadline for pooled tasks; an expired chunk is "
        "cancelled, the pool respawned and the chunk retried.  0 derives "
        "deadlines from the cost model's latency estimates (with a floor "
        "from REPRO_DEADLINE_FLOOR_MS).  Defaults to "
        "REPRO_TASK_DEADLINE_MS, else 0",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions the 'profile' experiment prints (by "
        "cumulative time; default 25)",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="append every engine run's structured event stream to PATH as "
        "JSON lines (the file is truncated at invocation start); summarize "
        "it afterwards with the 'events-info' experiment",
    )
    parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound each cache layer in --cache-dir to N entries "
        "(least-recently-used entries are evicted beyond it)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine cache/recompute counters after the experiments "
        "(always printed when --cache-dir is given)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "cache-info":
        if not args.cache_dir:
            parser.error("cache-info requires --cache-dir")
        from repro.engine.cache import collect_cache_info, render_cache_info

        print(render_cache_info(collect_cache_info(args.cache_dir)))
        return 0

    if args.experiment == "events-info":
        if not args.events:
            parser.error("events-info requires --events")
        from repro.engine.events import load_events, render_events_info

        try:
            events = load_events(args.events)
        except OSError as exc:
            parser.exit(1, f"events-info: {args.events}: {exc.strerror}\n")
        except ValueError as exc:
            parser.exit(1, f"events-info: {exc}\n")
        print(render_events_info(events))
        return 0

    if args.solver is not None:
        from repro.symex.factory import solver_backends

        if args.solver not in solver_backends():
            parser.error(
                f"unknown solver backend {args.solver!r}; "
                f"choose from {', '.join(solver_backends())}"
            )

    workload_names = (
        [item.strip() for item in args.workloads.split(",") if item.strip()]
        if args.workloads
        else None
    )
    if workload_names:
        _check_workload_names(parser, workload_names)

    if args.experiment == "profile":
        if not args.target:
            parser.error("profile requires a workload name (e.g. 'profile bbuf')")
        _check_workload_names(parser, [args.target])
        from repro.experiments.profile import render_profile, run_profile

        report = run_profile(args.target, top=args.profile_top)
        print(render_profile(report))
        return 0

    if args.events:
        # Engine runs append; start each invocation from an empty log.
        open(args.events, "w", encoding="utf-8").close()

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    from repro.engine.stats import GLOBAL_STATS

    GLOBAL_STATS.reset()

    shared_runs = None
    if any(name in _RUNS_CAPABLE for name in names):
        from repro.experiments.runner import analyze_all

        shared_runs = analyze_all(
            names=workload_names,
            measure_plain_time="table4" in names,
            parallel=args.parallel,
            cache_dir=args.cache_dir,
            granularity=args.granularity,
            cache_max_entries=args.cache_max_entries,
            dispatch=args.dispatch,
            solver=args.solver,
            events=args.events,
            chunk_target_ms=args.chunk_target_ms,
            warm_tier=args.warm_tier,
            speculate=args.speculate,
            fault_plan=args.fault_plan,
            max_pool_respawns=args.max_pool_respawns,
            max_task_retries=args.max_task_retries,
            task_deadline_ms=args.task_deadline_ms,
        )

    for name in names:
        module, kwargs = _EXPERIMENTS[name]
        if name in _RUNS_CAPABLE and shared_runs is not None:
            result = module.run(runs=shared_runs, **kwargs)
        elif name in _ENGINE_FLAG_CAPABLE:
            result = module.run(
                parallel=args.parallel,
                cache_dir=args.cache_dir,
                granularity=args.granularity,
                dispatch=args.dispatch,
                solver=args.solver,
                events=args.events,
                chunk_target_ms=args.chunk_target_ms,
                warm_tier=args.warm_tier,
                speculate=args.speculate,
                **kwargs,
            )
        else:
            result = module.run(**kwargs)
        print(module.render(result))
        print()

    if args.stats or args.cache_dir:
        # One line the warm-cache CI job can assert on: a second identically
        # configured run must report "classifications computed=0".
        print(GLOBAL_STATS.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
