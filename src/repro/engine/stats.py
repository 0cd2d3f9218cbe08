"""Counters for the analysis engine's pipeline stages -- now an event fold.

The counters answer the operational questions the caches raise: how many
traces were actually re-recorded, and how many races were actually
re-classified?  A fully warm run reports ``classifications computed=0`` --
the CI warm-cache job asserts exactly that string on the second of two
identically-configured ``python -m repro.experiments all --cache-dir D``
invocations.

Since the structured-event refactor, :class:`EngineStats` is a *view*: the
engine emits typed events (see :mod:`repro.engine.events`) and every counter
here is produced by folding that stream with
:func:`repro.engine.events.fold_events`.  Nothing in the pipeline increments
these fields directly anymore; ``GLOBAL_STATS`` survives as a compatibility
aggregate that the engine updates by merging each run's folded stats when
the run finishes (one experiment invocation builds many short-lived
:class:`AnalysisEngine` instances -- one per ablation config -- and the
interesting number is the total across all of them).  All event emission in
the driving process happens as tasks are dispatched and collected; pool
workers only attach event buffers to their result payloads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineStats:
    """Counters for one process's engine activity."""

    #: executions recorded (trace-cache misses)
    traces_recorded: int = 0
    #: recordings served from the trace cache
    trace_cache_hits: int = 0
    #: races classified by running the analysis (classification-cache misses)
    classifications_computed: int = 0
    #: classifications served from the classification cache
    classification_cache_hits: int = 0
    #: path tasks that classified a primary shipped in the plan payload
    primaries_shipped: int = 0
    #: path tasks that fell back to re-exploring their primary prefix
    primaries_reexplored: int = 0
    #: solver queries issued by dispatched tasks (aggregated from workers)
    solver_queries: int = 0
    #: solver queries answered from the constraint-set memo
    solver_cache_hits: int = 0
    #: solver queries that ran the narrowing/enumeration machinery
    solver_cache_misses: int = 0
    #: concrete assignments enumerated by the bounded solver
    solver_assignments_enumerated: int = 0
    #: the subset of solver cache hits served from a worker-lifetime entry
    #: written by an earlier task of the same process
    worker_cache_hits: int = 0
    #: queries a backend answered without enumerating (portfolio fast path)
    solver_fastpath_answers: int = 0
    #: wall-clock seconds spent inside solver queries (aggregated)
    solver_seconds: float = 0.0
    #: ProcessPoolExecutor constructions (streaming: one per engine run)
    pools_created: int = 0
    #: dispatches served by an already-running persistent pool
    pool_reuses: int = 0
    #: wall-clock seconds during which plan and path futures of the
    #: streaming scheduler were simultaneously in flight
    stage_overlap_seconds: float = 0.0
    #: wall-clock seconds during which record futures and stage-3
    #: (classify/plan/path) futures were simultaneously in flight -- the
    #: full-stream scheduler's record↔classify overlap channel
    record_classify_overlap_seconds: float = 0.0
    #: speculative path tasks whose predicted index the landed plan
    #: confirmed (their results merged normally)
    speculation_hits: int = 0
    #: speculative path tasks the landed plan disavowed (discarded)
    speculation_wasted: int = 0
    #: interpreter statements executed by dispatched tasks (aggregated)
    interp_statements: int = 0
    #: symbolic-branch state forks taken by the interpreter
    interp_forks: int = 0
    #: copy-on-write materializations (containers/threads/frames copied on
    #: first write after a fork)
    interp_cow_copies: int = 0
    #: interpreter statements jumped over by spin fast-forward; with
    #: ``interp_statements`` it sums to what the interpreter would have
    #: executed without it
    spin_steps_skipped: int = 0
    #: primary replay passes run by dispatched tasks; one pass serves every
    #: race of its sharing unit (a race-granularity chunk's trace, or one
    #: trace's queue when serial)
    primary_replays: int = 0
    #: multi-path searches run by dispatched tasks: one per task that ran
    #: states into its unit's shared search (which every race of the unit
    #: reads)
    explorations: int = 0
    #: task executions re-submitted after a worker crash, deadline expiry,
    #: or malformed result (supervision layer)
    task_retries: int = 0
    #: persistent-pool teardown+rebuild cycles after a worker crash or hang
    #: (bounded by ``--max-pool-respawns``; distinct from ``pools_created``)
    pool_respawns: int = 0
    #: tasks exiled to the in-driver serial path after exhausting retries
    #: (the task alone is quarantined, never the run)
    tasks_quarantined: int = 0
    #: in-flight chunks cancelled by the deadline watchdog
    deadlines_exceeded: int = 0
    #: faults fired by an installed fault plan (replayed from its claim
    #: ledger at run finish)
    faults_injected: int = 0
    #: run-wide serial downgrades after the respawn budget was exhausted
    #: (the chaos CI job asserts this stays 0 under the standard fault plan)
    pool_downgrades: int = 0

    def reset(self) -> None:
        self.traces_recorded = 0
        self.trace_cache_hits = 0
        self.classifications_computed = 0
        self.classification_cache_hits = 0
        self.primaries_shipped = 0
        self.primaries_reexplored = 0
        self.solver_queries = 0
        self.solver_cache_hits = 0
        self.solver_cache_misses = 0
        self.solver_assignments_enumerated = 0
        self.worker_cache_hits = 0
        self.solver_fastpath_answers = 0
        self.solver_seconds = 0.0
        self.pools_created = 0
        self.pool_reuses = 0
        self.stage_overlap_seconds = 0.0
        self.record_classify_overlap_seconds = 0.0
        self.speculation_hits = 0
        self.speculation_wasted = 0
        self.interp_statements = 0
        self.interp_forks = 0
        self.interp_cow_copies = 0
        self.spin_steps_skipped = 0
        self.primary_replays = 0
        self.explorations = 0
        self.task_retries = 0
        self.pool_respawns = 0
        self.tasks_quarantined = 0
        self.deadlines_exceeded = 0
        self.faults_injected = 0
        self.pool_downgrades = 0

    def merge(self, other: "EngineStats") -> None:
        """Add another stats view into this one (used to fold a finished
        run's per-run stats into the process-wide ``GLOBAL_STATS``)."""
        self.traces_recorded += other.traces_recorded
        self.trace_cache_hits += other.trace_cache_hits
        self.classifications_computed += other.classifications_computed
        self.classification_cache_hits += other.classification_cache_hits
        self.primaries_shipped += other.primaries_shipped
        self.primaries_reexplored += other.primaries_reexplored
        self.solver_queries += other.solver_queries
        self.solver_cache_hits += other.solver_cache_hits
        self.solver_cache_misses += other.solver_cache_misses
        self.solver_assignments_enumerated += other.solver_assignments_enumerated
        self.worker_cache_hits += other.worker_cache_hits
        self.solver_fastpath_answers += other.solver_fastpath_answers
        self.solver_seconds += other.solver_seconds
        self.pools_created += other.pools_created
        self.pool_reuses += other.pool_reuses
        self.stage_overlap_seconds += other.stage_overlap_seconds
        self.record_classify_overlap_seconds += other.record_classify_overlap_seconds
        self.speculation_hits += other.speculation_hits
        self.speculation_wasted += other.speculation_wasted
        self.interp_statements += other.interp_statements
        self.interp_forks += other.interp_forks
        self.interp_cow_copies += other.interp_cow_copies
        self.spin_steps_skipped += other.spin_steps_skipped
        self.primary_replays += other.primary_replays
        self.explorations += other.explorations
        self.task_retries += other.task_retries
        self.pool_respawns += other.pool_respawns
        self.tasks_quarantined += other.tasks_quarantined
        self.deadlines_exceeded += other.deadlines_exceeded
        self.faults_injected += other.faults_injected
        self.pool_downgrades += other.pool_downgrades

    def absorb_solver(self, payload) -> None:
        """Fold one task's solver-counter snapshot into the aggregate.

        Task results carry ``SolverStats.to_dict()`` snapshots back to the
        driving process (each task builds one fresh solver, so the snapshot
        *is* the delta); the engine calls this as it collects results, which
        keeps the "workers never touch the counters" invariant while still
        counting pooled work.
        """
        if not payload:
            return
        self.solver_queries += payload.get("queries", 0)
        self.solver_cache_hits += payload.get("cache_hits", 0)
        self.solver_cache_misses += payload.get("cache_misses", 0)
        self.solver_assignments_enumerated += payload.get("enumerated_assignments", 0)
        self.worker_cache_hits += payload.get("worker_cache_hits", 0)
        self.solver_fastpath_answers += payload.get("fastpath_answers", 0)
        self.solver_seconds += payload.get("seconds", 0.0)

    def absorb_interp(self, payload) -> None:
        """Fold one task's interpreter-counter snapshot into the aggregate.

        Task results carry ``InterpCounters.to_dict()`` snapshots (each task
        builds one fresh executor, so the snapshot is the task's delta),
        emitted as ``interp_stats`` events next to the solver snapshots.
        """
        if not payload:
            return
        self.interp_statements += payload.get("statements", 0)
        self.interp_forks += payload.get("forks", 0)
        self.interp_cow_copies += payload.get("cow_copies", 0)
        self.spin_steps_skipped += payload.get("spin_steps_skipped", 0)

    def summary(self) -> str:
        return (
            f"engine stats: traces recorded={self.traces_recorded}, "
            f"trace-cache hits={self.trace_cache_hits}, "
            f"classifications computed={self.classifications_computed}, "
            f"classification-cache hits={self.classification_cache_hits}, "
            f"primaries shipped={self.primaries_shipped}, "
            f"primaries re-explored={self.primaries_reexplored}, "
            f"solver queries={self.solver_queries} "
            f"(cache hits={self.solver_cache_hits}, "
            f"misses={self.solver_cache_misses}), "
            f"solver assignments enumerated={self.solver_assignments_enumerated}, "
            f"solver fast-path answers={self.solver_fastpath_answers}, "
            f"worker-cache hits={self.worker_cache_hits}, "
            f"pools created={self.pools_created}, "
            f"pool reuses={self.pool_reuses}, "
            f"stage overlap seconds={self.stage_overlap_seconds:.2f}, "
            f"record/classify overlap seconds="
            f"{self.record_classify_overlap_seconds:.2f}, "
            f"speculation hits={self.speculation_hits}, "
            f"speculation wasted={self.speculation_wasted}, "
            f"interp statements={self.interp_statements}, "
            f"interp forks={self.interp_forks}, "
            f"interp cow copies={self.interp_cow_copies}, "
            f"spin steps skipped={self.spin_steps_skipped}, "
            f"primary replays={self.primary_replays}, "
            f"explorations={self.explorations}, "
            f"task retries={self.task_retries}, "
            f"pool respawns={self.pool_respawns}, "
            f"tasks quarantined={self.tasks_quarantined}, "
            f"deadlines exceeded={self.deadlines_exceeded}, "
            f"faults injected={self.faults_injected}, "
            f"pool downgrades={self.pool_downgrades}"
        )


#: the process-wide compatibility aggregate: each engine run folds its event
#: stream into per-run stats and merges them here when the run finishes;
#: reset by ``python -m repro.experiments``
GLOBAL_STATS = EngineStats()
