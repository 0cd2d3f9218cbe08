"""Multi-path multi-schedule analysis: Algorithm 2 of the paper.

For every primary path found by the :class:`repro.explore.paths.MultiPathExplorer`
(up to Mp paths that follow the recorded schedule and exercise the race), the
analysis generates the corresponding alternate executions under Ma different
post-race schedules, watches for specification violations, and compares the
alternates' concrete outputs against the primary's symbolic outputs.

The per-path work is factored into :func:`analyze_primary_path`, which
returns a JSON-clean :class:`PathVerdict`, and the cross-path aggregation
into :func:`merge_path_verdicts`.  This split is what allows the analysis
engine to classify one race at ``(race, primary-path)`` granularity: workers
analyze individual paths independently (RNG seeding is per
``(race_id, path_index)``, see :meth:`PortendConfig.race_seed`) and the
deterministic merge recombines their verdicts into a result bit-identical to
the serial loop below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.alternate import (
    AlternateStatus,
    PrimaryReplayStore,
    alternate_timeout,
    run_alternate,
)
from repro.core.categories import (
    ClassificationEvidence,
    RaceClass,
    SpecViolationKind,
)
from repro.core.config import PortendConfig
from repro.core.output_comparison import compare_concrete, compare_symbolic
from repro.core.single_pre_post import _schedule_evidence, _spec_violation_kind
from repro.core.spec import SemanticPredicate, outcome_is_spec_violation
from repro.detection.race_report import RaceReport
from repro.explore.paths import MultiPathExplorer, PrimaryPath
from repro.explore.schedules import alternate_schedule_policies
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor


@dataclass
class MultiPathResult:
    """Aggregated verdict of the multi-path multi-schedule stage."""

    verdict: RaceClass
    evidence: ClassificationEvidence
    paths_explored: int
    schedules_explored: int
    witnesses: int
    states_pruned: int = 0
    dependent_branches: int = 0
    #: why each pruned primary path was discarded (§3.3 diagnostics)
    prune_reasons: List[str] = field(default_factory=list)


@dataclass
class PathVerdict:
    """One primary path's contribution to a race's multi-path verdict.

    The fields mirror exactly what the serial per-path loop accumulates into
    the shared evidence/counters, so :func:`merge_path_verdicts` can replay
    the aggregation without re-running any execution.  Everything is
    JSON-serializable: path verdicts cross process boundaries as the payload
    of the engine's ``PathTask`` results.
    """

    path_index: int
    #: symbolic branch count of this primary (input-dependent branches)
    symbolic_branches: int = 0
    #: did the primary replay reach the racing accesses at all?
    reached_race: bool = True
    #: a spec violation anywhere on this path (primary, replay or alternate)
    spec_violated: bool = False
    spec_violation_kind: Optional[SpecViolationKind] = None
    crash_description: str = ""
    failing_inputs: Dict[str, int] = field(default_factory=dict)
    failing_schedule: List[str] = field(default_factory=list)
    #: alternate schedules actually run before this path stopped
    schedules_explored: int = 0
    #: alternates whose output matched the primary's
    witnesses: int = 0
    #: ad-hoc-synchronisation notes, in schedule order
    notes: List[str] = field(default_factory=list)
    #: first primary/alternate output difference observed on this path
    saw_output_difference: bool = False
    output_difference: List[Tuple[str, str]] = field(default_factory=list)
    difference_inputs: Dict[str, int] = field(default_factory=dict)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "path_index": self.path_index,
            "symbolic_branches": self.symbolic_branches,
            "reached_race": self.reached_race,
            "spec_violated": self.spec_violated,
            "spec_violation_kind": (
                self.spec_violation_kind.value if self.spec_violation_kind else None
            ),
            "crash_description": self.crash_description,
            "failing_inputs": dict(self.failing_inputs),
            "failing_schedule": list(self.failing_schedule),
            "schedules_explored": self.schedules_explored,
            "witnesses": self.witnesses,
            "notes": list(self.notes),
            "saw_output_difference": self.saw_output_difference,
            "output_difference": [list(pair) for pair in self.output_difference],
            "difference_inputs": dict(self.difference_inputs),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "PathVerdict":
        kind = data["spec_violation_kind"]
        return cls(
            path_index=data["path_index"],
            symbolic_branches=data["symbolic_branches"],
            reached_race=data["reached_race"],
            spec_violated=data["spec_violated"],
            spec_violation_kind=SpecViolationKind(kind) if kind else None,
            crash_description=data["crash_description"],
            failing_inputs=dict(data["failing_inputs"]),
            failing_schedule=list(data["failing_schedule"]),
            schedules_explored=data["schedules_explored"],
            witnesses=data["witnesses"],
            notes=list(data["notes"]),
            saw_output_difference=data["saw_output_difference"],
            output_difference=[
                (first, second) for first, second in data["output_difference"]
            ],
            difference_inputs=dict(data["difference_inputs"]),
        )


def analyze_primary_path(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: PortendConfig,
    path: PrimaryPath,
    predicates: Sequence[SemanticPredicate] = (),
    replays: Optional[PrimaryReplayStore] = None,
) -> PathVerdict:
    """Analyze one primary path: replay it and run its Ma alternates.

    The verdict records only this path's own contribution; it stops at the
    first specification violation (as the serial loop would) so the partial
    schedule/witness counters match the serial accumulation exactly.  The
    replay comes from ``replays`` when given, so a path whose inputs are
    the trace's reuses the single stage's pass.
    """
    verdict = PathVerdict(path_index=path.index, symbolic_branches=path.symbolic_branches)

    # A specification violation reachable on the primary path itself is a
    # "spec violated" verdict (line 17 of Algorithm 1 applies to every
    # explored primary).
    if outcome_is_spec_violation(path.outcome):
        verdict.spec_violated = True
        verdict.spec_violation_kind = _spec_violation_kind(path.outcome)
        verdict.crash_description = f"primary path {path.index}: {path.outcome.describe()}"
        verdict.failing_inputs = dict(path.concrete_inputs)
        verdict.failing_schedule = _schedule_evidence(trace, race, alternate_first=False)
        return verdict

    same_inputs = path.concrete_inputs == dict(trace.concrete_inputs)
    store = replays if replays is not None else PrimaryReplayStore()
    primary_replay = store.replay(
        executor,
        trace,
        race,
        concrete_inputs=path.concrete_inputs,
        predicates=predicates,
        max_steps=config.max_steps_per_execution,
        use_steps=same_inputs,
    )
    if outcome_is_spec_violation(primary_replay.outcome):
        verdict.spec_violated = True
        verdict.spec_violation_kind = _spec_violation_kind(primary_replay.outcome)
        verdict.crash_description = (
            f"primary replay with inputs {path.concrete_inputs}: "
            f"{primary_replay.outcome.describe()}"
        )
        verdict.failing_inputs = dict(path.concrete_inputs)
        verdict.failing_schedule = _schedule_evidence(trace, race, alternate_first=False)
        return verdict
    if not primary_replay.reached_race:
        verdict.reached_race = False
        return verdict

    timeout_steps = alternate_timeout(
        primary_replay.steps, config.timeout_factor, config.max_steps_per_execution
    )
    policies = alternate_schedule_policies(
        config.effective_ma(), config.race_seed(race.race_id, path.index)
    )
    for policy in policies:
        verdict.schedules_explored += 1
        alternate = run_alternate(
            executor,
            program,
            trace,
            race,
            primary_replay,
            post_race_policy=policy,
            predicates=predicates,
            timeout_steps=timeout_steps,
        )
        if alternate.status in (AlternateStatus.TIMEOUT, AlternateStatus.STUCK):
            if alternate.timeout_diagnosis == "infinite-loop" or alternate.lock_cycle:
                kind = (
                    SpecViolationKind.INFINITE_LOOP
                    if alternate.timeout_diagnosis == "infinite-loop"
                    else SpecViolationKind.DEADLOCK
                )
                verdict.spec_violated = True
                verdict.spec_violation_kind = kind
                verdict.crash_description = (
                    f"alternate of primary path {path.index} cannot make progress ({kind.value})"
                )
                verdict.failing_inputs = dict(path.concrete_inputs)
                verdict.failing_schedule = _schedule_evidence(trace, race, alternate_first=True)
                return verdict
            # Ad-hoc synchronisation on this path; it contributes no
            # witness but is not evidence of harm either.
            verdict.notes.append(
                f"alternate of primary path {path.index} prevented by ad-hoc synchronisation"
            )
            continue
        if outcome_is_spec_violation(alternate.outcome):
            verdict.spec_violated = True
            verdict.spec_violation_kind = _spec_violation_kind(alternate.outcome)
            verdict.crash_description = (
                f"alternate of primary path {path.index} with inputs "
                f"{path.concrete_inputs}: {alternate.outcome.describe()}"
            )
            verdict.failing_inputs = dict(path.concrete_inputs)
            verdict.failing_schedule = _schedule_evidence(trace, race, alternate_first=True)
            return verdict

        if config.symbolic_output_comparison:
            comparison = compare_symbolic(
                path.symbolic_outputs,
                path.path_condition,
                alternate.state.output_log,
                executor.solver,
            )
        else:
            comparison = compare_concrete(
                primary_replay.final_state.output_log, alternate.state.output_log
            )
        if comparison.matches:
            verdict.witnesses += 1
        else:
            if not verdict.saw_output_difference:
                verdict.output_difference = comparison.differences
                verdict.difference_inputs = dict(path.concrete_inputs)
            verdict.saw_output_difference = True
    return verdict


def merge_path_verdicts(
    verdicts: Sequence[PathVerdict],
    paths_explored: int,
    states_pruned: int = 0,
    prune_reasons: Sequence[str] = (),
) -> MultiPathResult:
    """Deterministically recombine per-path verdicts into one stage result.

    Reproduces the serial loop's aggregation semantics exactly, including the
    early return on the first specification violation: verdicts are consumed
    in path-index order, counters from paths after the first violating path
    are ignored, and the first output difference (in path order) supplies the
    evidence.  Given the same verdicts, the merge is a pure function -- it is
    the reduction step of the engine's per-path parallel classification.
    """
    evidence = ClassificationEvidence()
    witnesses = 0
    schedules_explored = 0
    dependent_branches = 0
    saw_output_difference = False

    for verdict in sorted(verdicts, key=lambda v: v.path_index):
        dependent_branches = max(dependent_branches, verdict.symbolic_branches)
        witnesses += verdict.witnesses
        schedules_explored += verdict.schedules_explored
        evidence.notes.extend(verdict.notes)
        if verdict.saw_output_difference:
            saw_output_difference = True
            if not evidence.output_difference:
                evidence.output_difference = list(verdict.output_difference)
                evidence.failing_inputs = dict(verdict.difference_inputs)
        if verdict.spec_violated:
            evidence.spec_violation_kind = verdict.spec_violation_kind
            evidence.crash_description = verdict.crash_description
            evidence.failing_inputs = dict(verdict.failing_inputs)
            evidence.failing_schedule = list(verdict.failing_schedule)
            return MultiPathResult(
                RaceClass.SPEC_VIOLATED,
                evidence,
                paths_explored,
                schedules_explored,
                witnesses,
                states_pruned,
                dependent_branches,
                list(prune_reasons),
            )

    verdict_class = (
        RaceClass.OUTPUT_DIFFERS if saw_output_difference else RaceClass.K_WITNESS_HARMLESS
    )
    return MultiPathResult(
        verdict_class,
        evidence,
        paths_explored,
        schedules_explored,
        witnesses,
        states_pruned,
        dependent_branches,
        list(prune_reasons),
    )


def classify_multipath(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: PortendConfig,
    predicates: Sequence[SemanticPredicate] = (),
    replays: Optional[PrimaryReplayStore] = None,
) -> MultiPathResult:
    """Run the multi-path (and optionally multi-schedule) analysis for a race.

    Serial composition of the per-path split: explore the primaries once
    (reading the unit's shared search in ``replays``), analyze them in path
    order (stopping at the first specification
    violation, whose later siblings the merge would discard anyway), then
    merge.  The engine's per-path parallel mode runs the same
    :func:`analyze_primary_path` bodies in worker processes and the same
    :func:`merge_path_verdicts` reduction in the parent.
    """
    explorer = MultiPathExplorer.for_config(
        executor, program, trace, race, config,
        explorations=replays.explorations if replays is not None else None,
    )
    primaries = explorer.explore()
    verdicts: List[PathVerdict] = []
    for path in primaries:
        verdict = analyze_primary_path(
            executor, program, trace, race, config, path,
            predicates=predicates, replays=replays,
        )
        verdicts.append(verdict)
        if verdict.spec_violated:
            break
    return merge_path_verdicts(
        verdicts,
        paths_explored=len(primaries),
        states_pruned=explorer.states_pruned,
        prune_reasons=explorer.prune_reasons,
    )
