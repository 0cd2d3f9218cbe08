"""Primary replay and alternate-ordering enforcement.

This module is the record/replay choreography shared by every analysis
stage:

* :func:`replay_primaries` replays the recorded trace (optionally with
  different concrete inputs) once for many races, stopping at each race's
  pre-race point, post-race point, and completion, and captures the
  corresponding checkpoints -- lines 1-4 of Algorithm 1.  Forking a
  checkpoint at every stop of one pass replaces re-executing the prefix
  once per race (the KLEE/Cloud9 executor idiom).  :func:`replay_primary` is
  the per-race reference replay, and :class:`PrimaryReplayStore` keeps the
  passes (and the multi-path exploration logs) of one sharing unit.
* :func:`run_alternate` primes a new execution with the pre-race checkpoint
  and enforces the alternate ordering of the racing accesses by preempting
  the thread that performed the first access and forcing the other racing
  thread to run -- lines 5-7 of Algorithm 1 -- then lets the execution
  continue under a configurable post-race schedule policy (round-robin for
  the deterministic single-post analysis, random for multi-schedule
  analysis, §3.4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.config import PortendConfig
from repro.core.spec import SemanticPredicate, SpecChecker, diagnose_timeout
from repro.detection.race_report import RaceReport
from repro.explore.paths import ExplorationLogs
from repro.lang.ast import SYNC_STMTS
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome, OutcomeKind
from repro.runtime.executor import Executor, RunStatus
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.scheduler import (
    ControlledPolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulePolicy,
)
from repro.runtime.state import ExecutionState


class RacePointLocator:
    """Stop-predicate factory that finds the racing accesses during a replay.

    With identical inputs the replay is deterministic, so the recorded step
    numbers locate the racing accesses exactly; with different inputs (the
    multi-path primaries of §3.3) the locator falls back to matching the
    first dynamic occurrence of the racing thread/pc pair, tolerating the
    divergence the paper describes.
    """

    def __init__(self, race: RaceReport, use_steps: bool = True) -> None:
        self.race = race
        self.use_steps = use_steps

    def stop_before_first_access(self) -> Callable[[ExecutionState, int, object], bool]:
        first = self.race.first

        def predicate(state: ExecutionState, tid: int, stmt) -> bool:
            if tid != first.tid or stmt.pc != first.pc:
                return False
            if self.use_steps and state.step_count + 1 < first.step:
                return False
            return True

        return predicate

    def stop_after_second_access(self) -> Callable[[ExecutionState, int, object], bool]:
        second = self.race.second

        def predicate(state: ExecutionState, tid: int, stmt) -> bool:
            if tid != second.tid or stmt.pc != second.pc:
                return False
            if self.use_steps and state.step_count < second.step:
                return False
            return True

        return predicate

    def watched_pcs(self) -> frozenset:
        return frozenset((self.race.first.pc, self.race.second.pc))


class _RaceAccessWatcher(ExecutionListener):
    """Observes accesses to the racing location by a specific thread."""

    def __init__(self, race: RaceReport, tid: int) -> None:
        self.race = race
        self.tid = tid
        self.seen = False
        self.seen_pc: Optional[int] = None

    def _same_variable(self, access: MemoryAccess) -> bool:
        location = self.race.location
        return (
            access.location.space == location.space
            and access.location.name == location.name
        )

    @property
    def spin_skip_safe(self) -> bool:  # type: ignore[override]
        # Until it fires the watcher matches accesses by thread and
        # location only, so a spin that did not fire it never will.
        return not self.seen

    def on_access(self, state, access: MemoryAccess) -> None:
        if self.seen or access.tid != self.tid:
            return
        if self._same_variable(access):
            self.seen = True
            self.seen_pc = access.pc

    def fired(self, state: ExecutionState, tid: int, stmt) -> bool:
        """Stop predicate: the watched access has happened."""
        return self.seen


@dataclass
class PrimaryReplay:
    """The primary execution of one race, replayed to completion.

    ``final_state`` and ``pre_race_checkpoint`` may be shared with other
    races replayed in the same pass: treat both as read-only and clone
    before running on (as :func:`run_alternate` does).
    """

    final_state: ExecutionState
    pre_race_checkpoint: Optional[ExecutionState]
    post_race_snapshot: Optional[Tuple]
    reached_race: bool
    steps: int

    @property
    def outcome(self) -> Optional[ExecutionOutcome]:
        return self.final_state.outcome


class AlternateStatus(enum.Enum):
    """How the attempt to enforce the alternate ordering ended."""

    COMPLETED = "completed"
    TIMEOUT = "timeout"
    STUCK = "scheduling stuck"
    RACE_NOT_REACHED = "race not reached"


@dataclass
class AlternateResult:
    """One alternate execution: enforcement status plus final state."""

    status: AlternateStatus
    state: ExecutionState
    pre_race_checkpoint: Optional[ExecutionState]
    post_race_snapshot: Optional[Tuple] = None
    timeout_diagnosis: Optional[str] = None
    lock_cycle: Optional[List[int]] = None
    enforced_pc: Optional[int] = None
    steps: int = 0

    @property
    def outcome(self) -> Optional[ExecutionOutcome]:
        return self.state.outcome

    @property
    def enforced(self) -> bool:
        return self.status is AlternateStatus.COMPLETED


def _spec_listeners(predicates: Sequence[SemanticPredicate]) -> List[ExecutionListener]:
    return [SpecChecker(predicates)] if predicates else []


def replay_primary(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    concrete_inputs: Optional[Dict[str, int]] = None,
    predicates: Sequence[SemanticPredicate] = (),
    max_steps: Optional[int] = None,
    use_steps: bool = True,
) -> PrimaryReplay:
    """Replay the primary execution of one race on its own.

    Three runs, each with its own step budget: up to the pre-race point, up
    to and including the second racing access, and to completion.  This is
    the reference the shared pass of :func:`replay_primaries` reproduces
    race by race; the Record/Replay-Analyzer baseline uses it directly.
    """
    inputs = dict(trace.concrete_inputs)
    if concrete_inputs:
        inputs.update(concrete_inputs)
    locator = RacePointLocator(race, use_steps=use_steps)
    policy = ReplayPolicy(trace.decisions)
    state = executor.initial_state(concrete_inputs=inputs)
    listeners = _spec_listeners(predicates)
    budget = max_steps or executor.config.max_steps
    watched = locator.watched_pcs()

    # Phase 1: up to (but not including) the first racing access.
    result = executor.run(
        state,
        policy=policy,
        listeners=listeners,
        max_steps=budget,
        watched_pcs=watched,
        stop_before=locator.stop_before_first_access(),
    )
    pre_race = state.clone() if result.status is RunStatus.STOPPED_BEFORE else None

    snapshot = None
    if pre_race is not None:
        # Phase 2: up to and including the second racing access.
        result = executor.run(
            state,
            policy=policy,
            listeners=listeners,
            max_steps=budget,
            watched_pcs=watched,
            stop_after=locator.stop_after_second_access(),
        )
        if result.status is RunStatus.STOPPED_AFTER:
            snapshot = state.memory.snapshot()

    # Phase 3: run to completion.
    if state.outcome is None:
        executor.run(state, policy=policy, listeners=listeners, max_steps=budget)

    return PrimaryReplay(
        final_state=state,
        pre_race_checkpoint=pre_race,
        post_race_snapshot=snapshot,
        reached_race=pre_race is not None,
        steps=state.step_count,
    )


class _RaceCursor:
    """One race's progress through the phases of :func:`replay_primary`.

    ``phase`` is 1 (looking for the pre-race point), 2 (looking for the
    post-race point) or 3 (running to completion); ``limit`` is the pass
    step count at which the current phase's own budget runs out.
    """

    __slots__ = ("race", "phase", "limit", "before", "after", "pre_race", "snapshot", "final")

    def __init__(self, race: RaceReport, use_steps: bool, limit: int) -> None:
        locator = RacePointLocator(race, use_steps=use_steps)
        self.race = race
        self.phase = 1
        self.limit = limit
        self.before = locator.stop_before_first_access()
        self.after = locator.stop_after_second_access()
        self.pre_race: Optional[ExecutionState] = None
        self.snapshot: Optional[Tuple] = None
        self.final: Optional[ExecutionState] = None


def _stop_predicate(cursors: List[_RaceCursor], phase: int, matched: List[_RaceCursor]):
    """A merged stop predicate over the racing accesses of ``cursors`` in
    ``phase``; the cursors whose own predicate fired land in ``matched``."""
    index: Dict[Tuple[int, int], List[_RaceCursor]] = {}
    for cursor in cursors:
        if cursor.phase == phase:
            access = cursor.race.first if phase == 1 else cursor.race.second
            index.setdefault((access.tid, access.pc), []).append(cursor)
    if not index:
        return None

    def predicate(state: ExecutionState, tid: int, stmt) -> bool:
        candidates = index.get((tid, stmt.pc))
        if candidates is None:
            return False
        for cursor in candidates:
            check = cursor.before if phase == 1 else cursor.after
            if check(state, tid, stmt):
                matched.append(cursor)
        return bool(matched)

    return predicate


def _replay_pass(
    executor: Executor,
    trace: ExecutionTrace,
    races: Sequence[RaceReport],
    inputs: Dict[str, int],
    predicates: Sequence[SemanticPredicate],
    budget: int,
    use_steps: bool,
) -> Dict[int, PrimaryReplay]:
    """One run under the recorded schedule that serves every race in ``races``.

    The run pauses wherever one race's own replay would: before a first
    racing access, after a second one, and where a phase's step budget runs
    out.  Pausing and resuming a replay does not change its course (the
    replay policy keeps the running thread at analysis-only preemption
    points), so every race sees the states its own replay would.
    """
    policy = ReplayPolicy(trace.decisions)
    state = executor.initial_state(concrete_inputs=inputs)
    listeners = _spec_listeners(predicates)
    watched = frozenset(pc for race in races for pc in (race.first.pc, race.second.pc))
    cursors = [_RaceCursor(race, use_steps, budget) for race in races]
    steps = 0
    while True:
        active = [cursor for cursor in cursors if cursor.final is None]
        if not active:
            break
        if state.outcome is not None:
            # The last stop came after the final statement: do not run the
            # finished state again (the per-race replay would not).
            for cursor in active:
                cursor.final = state
            break
        matched: List[_RaceCursor] = []
        result = executor.run(
            state,
            policy=policy,
            listeners=listeners,
            max_steps=min(cursor.limit for cursor in active) - steps,
            watched_pcs=watched,
            stop_before=_stop_predicate(active, 1, matched),
            stop_after=_stop_predicate(active, 2, matched),
        )
        steps += result.steps_executed
        if result.status is RunStatus.STOPPED_BEFORE:
            checkpoint = state.clone()
            for cursor in matched:
                cursor.pre_race = checkpoint
                cursor.phase, cursor.limit = 2, steps + budget
        elif result.status is RunStatus.STOPPED_AFTER:
            snapshot = state.memory.snapshot()
            for cursor in matched:
                cursor.snapshot = snapshot
                cursor.phase, cursor.limit = 3, steps + budget
        elif result.status is RunStatus.STEP_LIMIT:
            for cursor in active:
                if cursor.limit != steps:
                    continue
                if cursor.phase == 3:
                    # This race's replay stops here, short of completion.
                    cursor.final = state.clone()
                else:
                    cursor.phase, cursor.limit = 3, steps + budget
        else:
            # Completed (or stuck, which a resumed run would report again).
            for cursor in active:
                cursor.final = state
    return {
        cursor.race.race_id: PrimaryReplay(
            final_state=cursor.final,
            pre_race_checkpoint=cursor.pre_race,
            post_race_snapshot=cursor.snapshot,
            reached_race=cursor.pre_race is not None,
            steps=cursor.final.step_count,
        )
        for cursor in cursors
    }


def replay_passes(program: Program, races: Sequence[RaceReport]) -> List[List[RaceReport]]:
    """Split ``races`` into the groups that can share one replay pass.

    Resuming a replay paused before a synchronisation statement re-enters
    the scheduler, which consumes a recorded decision; a race whose first
    access is one therefore changes the course of every replay that pauses
    where it does, and gets a pass of its own.
    """
    shared: List[RaceReport] = []
    alone: List[List[RaceReport]] = []
    for race in races:
        if isinstance(program.statement_at(race.first.pc), SYNC_STMTS):
            alone.append([race])
        else:
            shared.append(race)
    return ([shared] if shared else []) + alone


def replay_primaries(
    executor: Executor,
    trace: ExecutionTrace,
    races: Sequence[RaceReport],
    inputs: Optional[Dict[str, int]] = None,
    predicates: Sequence[SemanticPredicate] = (),
    max_steps: Optional[int] = None,
    use_steps: bool = True,
) -> Dict[int, PrimaryReplay]:
    """Replay the primary execution of many races at once.

    Returns ``{race_id: PrimaryReplay}``, each equal to what
    :func:`replay_primary` returns for that race alone, from one run per
    group of :func:`replay_passes`.  Races whose first access is the same
    statement share one copy-on-write pre-race checkpoint, and races that
    complete share the final state.
    """
    merged = dict(trace.concrete_inputs)
    if inputs:
        merged.update(inputs)
    budget = max_steps or executor.config.max_steps
    replays: Dict[int, PrimaryReplay] = {}
    for group in replay_passes(executor.program, races):
        replays.update(
            _replay_pass(executor, trace, group, merged, predicates, budget, use_steps)
        )
    return replays


class PrimaryReplayStore:
    """The primary replays of one sharing unit, one pass per input set.

    A unit is a set of races of one trace, classified one after another by
    one process with the same predicates and step budget: one trace's queue
    when serial, one race-granularity chunk on the pool.  The first request
    for a given ``(concrete inputs, use_steps)`` replays every race of the
    unit that is still being classified; later requests with the same
    inputs are served from that pass.  :meth:`release` drops a race's
    replays once its classification returns, so the store never holds more
    than the unit's in-flight races.

    The unit's multi-path explorations share the same way: ``explorations``
    holds one breadth-first search per input set, which each race's
    :class:`~repro.explore.paths.MultiPathExplorer` filters for its own
    race, and which goes when the last of its races is released.
    """

    def __init__(self, race_ids: Iterable[int] = ()) -> None:
        race_ids = list(race_ids)
        #: races of the unit not yet released, in classification order
        self._live: Dict[int, None] = dict.fromkeys(race_ids)
        self._passes: Dict[Tuple, Dict[int, PrimaryReplay]] = {}
        self.explorations = ExplorationLogs(race_ids)
        #: one entry per replay pass run so far: its width and whether it
        #: replayed the trace's own inputs (``primary_replay`` events)
        self.pass_log: List[Dict] = []

    def replay(
        self,
        executor: Executor,
        trace: ExecutionTrace,
        race: RaceReport,
        concrete_inputs: Optional[Dict[str, int]] = None,
        predicates: Sequence[SemanticPredicate] = (),
        max_steps: Optional[int] = None,
        use_steps: bool = True,
    ) -> PrimaryReplay:
        """``race``'s primary replay, running a pass only when none has it."""
        inputs = dict(trace.concrete_inputs)
        if concrete_inputs:
            inputs.update(concrete_inputs)
        key = (tuple(sorted(inputs.items())), use_steps, max_steps)
        replays = self._passes.setdefault(key, {})
        if race.race_id not in replays:
            self._live.setdefault(race.race_id)
            by_id = trace.races_by_id()
            pending = [by_id[race_id] for race_id in self._live if race_id not in replays]
            budget = max_steps or executor.config.max_steps
            for group in replay_passes(executor.program, pending):
                replays.update(
                    _replay_pass(
                        executor, trace, group, inputs, predicates, budget, use_steps
                    )
                )
                self.pass_log.append(
                    {
                        "races": len(group),
                        "trace_inputs": use_steps and inputs == trace.concrete_inputs,
                    }
                )
        return replays[race.race_id]

    def release(self, race_id: int) -> None:
        """Forget ``race_id``: its classification has returned."""
        self._live.pop(race_id, None)
        self.explorations.release(race_id)
        for key in list(self._passes):
            self._passes[key].pop(race_id, None)
            if not self._passes[key]:
                del self._passes[key]


def alternate_timeout(
    primary_steps: int,
    timeout_factor: int = PortendConfig.timeout_factor,
    max_steps: Optional[int] = None,
) -> int:
    """The alternate's step budget: ``timeout_factor`` × the primary's
    steps, at least 1,000 (§4, Algorithm 1 line 8), and at most
    ``max_steps`` when given."""
    budget = max(1_000, timeout_factor * primary_steps)
    return budget if max_steps is None else min(budget, max_steps)


def run_alternate(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    primary: PrimaryReplay,
    post_race_policy: Optional[SchedulePolicy] = None,
    predicates: Sequence[SemanticPredicate] = (),
    timeout_steps: Optional[int] = None,
    capture_post_race_snapshot: bool = False,
) -> AlternateResult:
    """Enforce the alternate ordering of the racing accesses and run onwards.

    ``primary`` comes from :func:`replay_primaries` or
    :func:`replay_primary` (its pre-race checkpoint seeds the alternate).
    ``timeout_steps`` bounds the enforcement and the post-race execution;
    the default is :func:`alternate_timeout` at the default factor.
    """
    if primary.pre_race_checkpoint is None:
        return AlternateResult(
            status=AlternateStatus.RACE_NOT_REACHED,
            state=primary.final_state,
            pre_race_checkpoint=None,
        )

    first, second = race.first, race.second
    # The checkpoint may come from a pass another task's executor ran:
    # charge this run's statements to the executor running it.
    state = primary.pre_race_checkpoint.clone()
    state.attach_counters(executor.counters)
    budget = timeout_steps if timeout_steps is not None else alternate_timeout(primary.steps)
    listeners = _spec_listeners(predicates)
    watcher = _RaceAccessWatcher(race, second.tid)
    locator = RacePointLocator(race, use_steps=False)
    watched = locator.watched_pcs()

    # Enforce the alternate order: preempt the thread that performed the
    # first racing access and let the other racing thread run (Algorithm 1,
    # line 6).  The other thread is preferred rather than strictly forced so
    # that, when it is momentarily blocked or not yet created, the remaining
    # threads can still run and unblock it.
    enforcement = ControlledPolicy(RoundRobinPolicy())
    enforcement.forbid(first.tid)
    enforcement.prefer(second.tid)

    result = executor.run(
        state,
        policy=enforcement,
        listeners=listeners + [watcher],
        max_steps=budget,
        watched_pcs=watched,
        stop_after=watcher.fired,
    )

    if not watcher.seen:
        if state.outcome is not None:
            # The alternate terminated (crash, deadlock, ...) before the
            # forced thread reached its racing access; the classifier will
            # inspect the outcome directly (a deadlock or crash here is a
            # specification violation caused by the attempted reordering).
            return AlternateResult(
                status=AlternateStatus.COMPLETED,
                state=state,
                pre_race_checkpoint=primary.pre_race_checkpoint,
                steps=state.step_count,
            )
        if result.status is RunStatus.SCHEDULING_STUCK:
            cycle = state.sync.find_lock_cycle(state.blocked_reasons())
            return AlternateResult(
                status=AlternateStatus.STUCK,
                state=state,
                pre_race_checkpoint=primary.pre_race_checkpoint,
                lock_cycle=cycle,
                timeout_diagnosis=None,
                steps=state.step_count,
            )
        # Step budget exhausted while the forced thread spins: diagnose.
        diagnosis = diagnose_timeout(program, state, spinning_tid=second.tid)
        return AlternateResult(
            status=AlternateStatus.TIMEOUT,
            state=state,
            pre_race_checkpoint=primary.pre_race_checkpoint,
            timeout_diagnosis=diagnosis,
            steps=state.step_count,
        )

    # The alternate ordering was enforced; release the scheduler.
    snapshot = None
    if capture_post_race_snapshot and state.outcome is None:
        # Let the preempted thread perform its own racing access so that the
        # "state immediately after the race" is comparable with the primary's
        # post-race snapshot (this is what the Record/Replay-Analyzer
        # baseline diffs).
        follower = _RaceAccessWatcher(race, first.tid)
        release = ControlledPolicy(RoundRobinPolicy())
        release.force(first.tid)
        executor.run(
            state,
            policy=release,
            listeners=listeners + [follower],
            max_steps=min(budget, 5_000),
            watched_pcs=watched,
            stop_after=follower.fired,
        )
        snapshot = state.memory.snapshot()

    if state.outcome is None:
        continuation = post_race_policy or RoundRobinPolicy()
        executor.run(
            state,
            policy=continuation,
            listeners=listeners,
            max_steps=budget,
            watched_pcs=frozenset(),
        )

    return AlternateResult(
        status=AlternateStatus.COMPLETED,
        state=state,
        pre_race_checkpoint=primary.pre_race_checkpoint,
        post_race_snapshot=snapshot,
        enforced_pc=watcher.seen_pc,
        steps=state.step_count,
    )


def make_schedule_policies(count: int, seed: int) -> List[SchedulePolicy]:
    """Post-race schedule policies for multi-schedule analysis (§3.4).

    The first alternate uses the deterministic round-robin continuation (the
    "single-post" schedule); the remaining ``count - 1`` use randomised
    schedules with distinct seeds.
    """
    policies: List[SchedulePolicy] = [RoundRobinPolicy()]
    for index in range(1, max(1, count)):
        policies.append(RandomPolicy(seed=seed + index))
    return policies[:count]
