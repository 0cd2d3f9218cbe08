"""Multi-path exploration of primary executions (§3.3, Fig. 5).

The explorer re-executes the target program with (some of) its inputs marked
symbolic.  Branches on symbolic conditions fork the execution state; each
state follows the recorded schedule trace, and states whose schedule diverges
from the trace *before* the racing accesses are pruned ("Portend prunes the
paths that do not obey the thread schedule in the trace").  Divergence after
the second racing access is tolerated, which "significantly increases
Portend's accuracy over the state of the art".

For every retained, completed primary path the explorer reports the path
condition, the symbolic outputs, and a concrete input assignment (the SMT
model) that drives the program down that path.

The explored tree depends only on the program, the trace and its inputs;
only the filter that keeps a path depends on the race.  The races of one
sharing unit therefore read one breadth-first search, an
:class:`ExplorationLog` that runs each state once, the first time some race
needs it (the KLEE/Cloud9 idiom of forking from one run instead of
re-executing it).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.errors import ExecutionOutcome
from repro.runtime.executor import Executor, RunStatus
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.scheduler import ReplayPolicy, RoundRobinPolicy
from repro.runtime.state import ExecutionState, OutputRecord
from repro.symex.expr import SymVar
from repro.symex.path_condition import PathCondition
from repro.symex.solver import Solver


@dataclass
class PrimaryPath:
    """One explored primary path that exercises the target race.

    The path is **plain data**: everything the per-path analysis
    (:func:`repro.core.multi_path.analyze_primary_path`) consumes -- the
    path condition, the symbolic outputs, the concrete input model, the
    terminal outcome and the exploration bookkeeping -- is serializable via
    :meth:`to_dict`/:meth:`from_dict`, so a plan task can ship its explored
    primaries to path workers instead of each worker re-running the BFS
    prefix.
    """

    index: int
    path_condition: PathCondition
    symbolic_outputs: List[OutputRecord]
    concrete_inputs: Dict[str, int]
    diverged_after_race: bool
    race_reached_step: int
    symbolic_branches: int
    outcome: Optional[ExecutionOutcome] = None

    # -------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        """JSON wire format of the path."""
        return {
            "index": self.index,
            "path_condition": self.path_condition.to_dict(),
            "symbolic_outputs": [record.to_dict() for record in self.symbolic_outputs],
            "concrete_inputs": dict(self.concrete_inputs),
            "diverged_after_race": self.diverged_after_race,
            "race_reached_step": self.race_reached_step,
            "symbolic_branches": self.symbolic_branches,
            "outcome": self.outcome.to_dict() if self.outcome is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PrimaryPath":
        outcome = data["outcome"]
        return cls(
            index=data["index"],
            path_condition=PathCondition.from_dict(data["path_condition"]),
            symbolic_outputs=[
                OutputRecord.from_dict(record) for record in data["symbolic_outputs"]
            ],
            concrete_inputs=dict(data["concrete_inputs"]),
            diverged_after_race=data["diverged_after_race"],
            race_reached_step=data["race_reached_step"],
            symbolic_branches=data["symbolic_branches"],
            outcome=ExecutionOutcome.from_dict(outcome) if outcome is not None else None,
        )


class _RaceReachedTracker(ExecutionListener):
    """Marks (in each state's notes) when each race's racing accesses ran.

    The notes are keyed by race id and travel with forked states, so the
    explorer can later tell, race by race, whether a schedule divergence
    happened before or after the race.  Races are indexed by the name of
    their racing location, so an access elsewhere costs one lookup.
    """

    NOTE_FIRST = "explore.first_access_step"
    NOTE_RACE = "explore.race_reached_step"

    def __init__(self, races: Iterable[RaceReport]) -> None:
        self._by_name: Dict[str, List[RaceReport]] = {}
        for race in races:
            self._by_name.setdefault(race.location.name, []).append(race)

    def on_access(self, state, access: MemoryAccess) -> None:
        races = self._by_name.get(access.location.name)
        if races is None:
            return
        notes = state.notes
        for race in races:
            if access.location.space != race.location.space:
                continue
            reached = (self.NOTE_RACE, race.race_id)
            if reached in notes:
                continue
            first = (self.NOTE_FIRST, race.race_id)
            if access.tid == race.first.tid and access.pc == race.first.pc:
                notes.setdefault(first, access.step)
                continue
            if access.tid == race.second.tid and first in notes:
                notes[reached] = access.step

    def race_steps(self, state: ExecutionState) -> Dict[int, int]:
        """``{race_id: step}`` for every race ``state`` has exercised."""
        return {
            key[1]: step
            for key, step in state.notes.items()
            if isinstance(key, tuple) and key[0] == self.NOTE_RACE
        }


@dataclass
class ExploredState:
    """What one state of the search left behind once it ran: plain data.

    ``diverged``/``divergence_step``/``divergence_reason`` are the
    :class:`~repro.runtime.scheduler.ReplayPolicy` diagnostics of the run;
    ``race_steps`` maps each tracked race the state exercised to the step
    of its second racing access.
    """

    status: RunStatus
    diverged: bool
    divergence_step: Optional[int]
    divergence_reason: Optional[str]
    race_steps: Dict[int, int]
    path_condition: PathCondition
    outputs: List[OutputRecord]
    outcome: Optional[ExecutionOutcome]
    symbolic_branches: int
    symbolic_inputs: Dict[str, SymVar]


class ExplorationLog:
    """The breadth-first search of one trace's inputs, extended lazily.

    States pop in FIFO order and forks append in creation order, exactly as
    every race's own search would; the log runs a state only when the first
    race that needs it asks (:meth:`state`), on that race's executor, and
    keeps what the run left behind as an :class:`ExploredState`.  The live
    states it holds are only the unexplored worklist.
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        races: Sequence[RaceReport],
        symbolic_names: Sequence[str],
        max_steps_per_state: int,
    ) -> None:
        self.trace = trace
        #: the races whose notes the search records
        self.race_ids = frozenset(race.race_id for race in races)
        self.entries: List[ExploredState] = []
        self._tracker = _RaceReachedTracker(races)
        self._symbolic_names = list(symbolic_names)
        self._max_steps = max_steps_per_state
        #: None until the first state runs
        self._worklist: Optional[Deque[ExecutionState]] = None

    def reaches(self, index: int) -> bool:
        """Does the search pop an ``index``-th state?  Needs ``index``
        states popped already (the explorer asks in order)."""
        if index < len(self.entries):
            return True
        return self._worklist is None or bool(self._worklist)

    def state(self, index: int, executor: Executor) -> ExploredState:
        """The ``index``-th popped state, running the search on ``executor``
        (which is charged for the statements) as far as no race has yet."""
        if self._worklist is None:
            self._worklist = deque(
                [
                    executor.initial_state(
                        concrete_inputs=dict(self.trace.concrete_inputs),
                        symbolic_inputs=self._symbolic_names,
                    )
                ]
            )
        while len(self.entries) <= index:
            state = self._worklist.popleft()
            state.attach_counters(executor.counters)
            # Resume trace replay at the decision this state has reached:
            # ``preemption_points`` counts the recorded scheduling decisions
            # consumed so far, so forked states continue the trace in place.
            policy = ReplayPolicy(
                self.trace.decisions[state.preemption_points:],
                fallback=RoundRobinPolicy(),
            )
            result = executor.run(
                state,
                policy=policy,
                listeners=[self._tracker],
                max_steps=self._max_steps,
            )
            self._worklist.extend(result.forks)
            self.entries.append(
                ExploredState(
                    status=result.status,
                    diverged=policy.diverged,
                    divergence_step=policy.divergence_step,
                    divergence_reason=policy.divergence_reason,
                    race_steps=self._tracker.race_steps(state),
                    path_condition=state.path_condition,
                    outputs=list(state.output_log),
                    outcome=state.outcome,
                    symbolic_branches=state.symbolic_branches,
                    symbolic_inputs=dict(state.symbolic_inputs),
                )
            )
        return self.entries[index]


class ExplorationLogs:
    """The exploration logs of one sharing unit.

    The unit is the one :class:`repro.core.alternate.PrimaryReplayStore`
    serves (which holds one of these): races of one trace, classified one
    after another by one process.  A log tracks every race of the unit not
    yet released when it starts; a race it does not track gets a fresh log.
    :meth:`release` drops a log once none of its races is left.
    """

    def __init__(self, race_ids: Iterable[int] = ()) -> None:
        #: races of the unit not yet released, in classification order
        self._live: Dict[int, None] = dict.fromkeys(race_ids)
        self._logs: Dict[Tuple, ExplorationLog] = {}
        #: one entry per search that ran states into a log: the log's width
        #: and the states it ran (``exploration`` events)
        self.runs: List[Dict] = []

    def log_for(
        self,
        trace: ExecutionTrace,
        race: RaceReport,
        symbolic_names: Sequence[str],
        max_steps_per_state: int,
    ) -> ExplorationLog:
        """The log ``race``'s exploration reads, started if none tracks it."""
        self._live.setdefault(race.race_id)
        key = (
            tuple(sorted(trace.concrete_inputs.items())),
            tuple(symbolic_names),
            max_steps_per_state,
        )
        log = self._logs.get(key)
        if log is None or race.race_id not in log.race_ids:
            by_id = trace.races_by_id()
            races = [race] + [
                by_id[race_id] for race_id in self._live if race_id != race.race_id
            ]
            log = self._logs[key] = ExplorationLog(
                trace, races, symbolic_names, max_steps_per_state
            )
        return log

    def __len__(self) -> int:
        """Logs held: none once every race of the unit is released."""
        return len(self._logs)

    def release(self, race_id: int) -> None:
        """Forget ``race_id``: its classification has returned."""
        self._live.pop(race_id, None)
        for key, log in list(self._logs.items()):
            if log.race_ids.isdisjoint(self._live):
                del self._logs[key]


class MultiPathExplorer:
    """Find up to Mp primary paths that follow the trace and hit the race."""

    def __init__(
        self,
        executor: Executor,
        program: Program,
        trace: ExecutionTrace,
        race: RaceReport,
        solver: Optional[Solver] = None,
        max_primaries: int = 5,
        max_states: int = 256,
        max_steps_per_state: int = 200_000,
        symbolic_input_limit: int = 2,
        explorations: Optional[ExplorationLogs] = None,
    ) -> None:
        self.executor = executor
        self.program = program
        self.trace = trace
        self.race = race
        self.solver = solver or executor.solver
        self.max_primaries = max_primaries
        self.max_states = max_states
        self.max_steps_per_state = max_steps_per_state
        self.symbolic_input_limit = symbolic_input_limit
        #: the sharing unit's logs; without them the race is a unit of one
        self.explorations = (
            explorations if explorations is not None else ExplorationLogs([race.race_id])
        )
        self.states_explored = 0
        self.states_pruned = 0
        #: one human-readable entry per pruned state, explaining why the
        #: path was discarded (schedule divergence reasons come from
        #: :class:`repro.runtime.scheduler.ReplayPolicy` diagnostics)
        self.prune_reasons: List[str] = []

    @classmethod
    def for_config(
        cls,
        executor: Executor,
        program: Program,
        trace: ExecutionTrace,
        race: RaceReport,
        config,
        max_primaries: Optional[int] = None,
        explorations: Optional[ExplorationLogs] = None,
    ) -> "MultiPathExplorer":
        """Build an explorer from a :class:`PortendConfig`.

        The single place that maps config knobs onto explorer arguments:
        the serial classifier, the engine's plan task, and the per-path
        re-derivation all construct their explorers here, so a future
        exploration knob cannot silently diverge between them (which would
        break the plan/worker path-count agreement).  ``config`` is untyped
        to keep :mod:`repro.explore` import-independent from
        :mod:`repro.core`.
        """
        return cls(
            executor,
            program,
            trace,
            race,
            solver=executor.solver,
            max_primaries=(
                config.effective_mp() if max_primaries is None else max_primaries
            ),
            max_states=config.max_explored_states,
            max_steps_per_state=config.max_steps_per_execution,
            symbolic_input_limit=config.symbolic_inputs,
            explorations=explorations,
        )

    # -------------------------------------------------------------- symbolic

    def symbolic_input_names(self) -> List[str]:
        """Choose which declared inputs to mark symbolic (paper uses 2)."""
        declared = list(self.program.input_declarations())
        return declared[: self.symbolic_input_limit]

    # ----------------------------------------------------------------- explore

    def explore(self) -> List[PrimaryPath]:
        """Filter the unit's search down to this race's retained paths.

        The rules and their order are those of a search of this race alone,
        so the paths, their indices and the prune diagnostics are too; the
        log runs only the states no earlier race of the unit needed.
        """
        log = self.explorations.log_for(
            self.trace, self.race, self.symbolic_input_names(), self.max_steps_per_state
        )
        ran_before = len(log.entries)
        primaries: List[PrimaryPath] = []
        index = 0

        while log.reaches(index) and len(primaries) < self.max_primaries:
            if self.states_explored >= self.max_states:
                break
            explored = log.state(index, self.executor)
            index += 1
            self.states_explored += 1

            if explored.status is not RunStatus.COMPLETED:
                self._prune(f"execution did not complete ({explored.status.value})")
                continue
            race_step = explored.race_steps.get(self.race.race_id)
            if race_step is None:
                # This path never exercised the target race: prune (§3.3).
                self._prune("path never exercised the target race")
                continue
            if explored.diverged and (
                explored.divergence_step is None or explored.divergence_step < race_step
            ):
                # Schedule divergence before the race: the path does not obey
                # the recorded schedule trace, prune it.
                detail = explored.divergence_reason or "unknown divergence"
                self._prune(
                    f"schedule diverged before the race at step "
                    f"{explored.divergence_step}: {detail}",
                )
                continue

            concrete_inputs = self._solve_inputs(explored)
            if concrete_inputs is None:
                self._prune("path condition has no concrete input model")
                continue
            primaries.append(
                PrimaryPath(
                    index=len(primaries),
                    path_condition=explored.path_condition,
                    symbolic_outputs=list(explored.outputs),
                    concrete_inputs=concrete_inputs,
                    diverged_after_race=explored.diverged,
                    race_reached_step=race_step,
                    symbolic_branches=explored.symbolic_branches,
                    outcome=explored.outcome,
                )
            )
        ran = len(log.entries) - ran_before
        if ran:
            self.explorations.runs.append({"races": len(log.race_ids), "states": ran})
        return primaries

    # -------------------------------------------------------------- internals

    def _prune(self, reason: str) -> None:
        # The pruned state is the one just popped.  Name it by that
        # exploration order, not by its process-global state_id: the id
        # depends on every clone the process made before, so serial and
        # pooled runs would word the same prune differently.
        self.states_pruned += 1
        self.prune_reasons.append(f"state {self.states_explored}: {reason}")

    def _solve_inputs(self, explored: ExploredState) -> Optional[Dict[str, int]]:
        """Concrete inputs that drive the program down this path."""
        model = self.solver.get_model(list(explored.path_condition.constraints))
        if model is None and len(explored.path_condition) > 0:
            return None
        inputs = dict(self.trace.concrete_inputs)
        for name, var in explored.symbolic_inputs.items():
            if model is not None and name in model:
                inputs[name] = model[name]
            elif name not in inputs:
                inputs[name] = var.lo
        return inputs


def explore_primary(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config,
    path_index: int,
    explorations: Optional[ExplorationLogs] = None,
) -> Optional[PrimaryPath]:
    """Deterministically re-derive one primary path of a race's exploration.

    The explorer's search is breadth-first over a deterministic worklist
    (states pop in FIFO order, forks append in creation order), so the
    primaries found with ``max_primaries = n`` are exactly the first ``n``
    primaries of a larger exploration -- a *prefix property*.  A worker that
    only needs path ``i`` can therefore stop the search at ``i + 1``
    primaries instead of paying for the full ``Mp`` sweep.  Since plans ship
    their serialized primaries (:meth:`PrimaryPath.to_dict`), the engine's
    ``PathTask`` only calls this as a *fallback* when no shipped primary is
    attached; the test suite also uses it as the equivalence oracle for the
    shipped wire format.  Returns None when the exploration yields
    fewer than ``path_index + 1`` primaries (the caller's plan disagrees with
    this process, which deterministic exploration rules out in practice).

    ``config`` is a :class:`repro.core.config.PortendConfig`; it is untyped
    here to keep :mod:`repro.explore` import-independent from
    :mod:`repro.core`.
    """
    explorer = MultiPathExplorer.for_config(
        executor,
        program,
        trace,
        race,
        config,
        max_primaries=min(config.effective_mp(), path_index + 1),
        explorations=explorations,
    )
    primaries = explorer.explore()
    if len(primaries) <= path_index:
        return None
    return primaries[path_index]
