"""Per-race classification pipeline.

``classify_race`` strings the stages together exactly as §3 describes:

1. single-pre/single-post analysis (Algorithm 1) identifies races whose
   alternate ordering cannot be enforced ("single ordering"), and catches
   specification violations and output differences visible with the original
   inputs and a single alternate schedule;
2. if that stage is inconclusive (``outSame``), multi-path multi-schedule
   analysis (Algorithm 2) explores Mp primary paths and Ma alternate
   schedules per path and compares outputs symbolically;
3. the race is classified "k-witness harmless" with k = Mp × Ma only if every
   explored combination produced equivalent behaviour.

The stages are exposed individually so the analysis engine can distribute
them: :func:`run_single_stage` produces a JSON-clean
:class:`SingleStageOutcome`, :func:`needs_multipath` decides whether
Algorithm 2 applies, and :func:`finalize_single` /
:func:`finalize_multipath` turn stage outcomes into the final
:class:`ClassifiedRace`.  ``classify_race`` composes exactly these
functions, so a classification assembled from distributed pieces is
bit-identical to the serial call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.alternate import PrimaryReplayStore
from repro.core.categories import ClassifiedRace, ClassificationEvidence, RaceClass
from repro.core.config import PortendConfig
from repro.core.multi_path import MultiPathResult, classify_multipath
from repro.core.single_pre_post import single_classify
from repro.core.spec import SemanticPredicate
from repro.detection.race_report import RaceReport
from repro.lang.program import Program
from repro.record_replay.trace import ExecutionTrace
from repro.runtime.executor import Executor


@dataclass
class SingleStageOutcome:
    """JSON-clean summary of Algorithm 1 for one race.

    Carries exactly the pieces of the single-pre/single-post result that the
    rest of the pipeline consumes, so it can cross a process boundary (the
    engine's per-race plan task returns one).
    """

    #: RaceClass value string (``OUTPUT_SAME`` means "inconclusive")
    verdict: str
    analysis_steps: int
    post_race_states_differ: Optional[bool]
    #: ClassificationEvidence.to_dict() payload
    evidence: Dict

    def race_class(self) -> RaceClass:
        return RaceClass(self.verdict)

    # ---------------------------------------------------------- serialization

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict,
            "analysis_steps": self.analysis_steps,
            "post_race_states_differ": self.post_race_states_differ,
            "evidence": dict(self.evidence),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SingleStageOutcome":
        return cls(
            verdict=data["verdict"],
            analysis_steps=data["analysis_steps"],
            post_race_states_differ=data["post_race_states_differ"],
            evidence=dict(data["evidence"]),
        )


def run_single_stage(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: PortendConfig,
    predicates: Sequence[SemanticPredicate] = (),
    replays: Optional[PrimaryReplayStore] = None,
) -> SingleStageOutcome:
    """Run Algorithm 1 and summarize it for the downstream stages."""
    single = single_classify(
        executor, program, trace, race, config, predicates=predicates, replays=replays
    )
    analysis_steps = single.primary.steps
    if single.alternate is not None:
        analysis_steps += single.alternate.steps
    return SingleStageOutcome(
        verdict=single.verdict.value,
        analysis_steps=analysis_steps,
        post_race_states_differ=single.post_race_states_differ,
        evidence=single.evidence.to_dict(),
    )


def needs_multipath(outcome: SingleStageOutcome, config: PortendConfig) -> bool:
    """Whether Algorithm 2 must run after this single-stage outcome."""
    return outcome.race_class() is RaceClass.OUTPUT_SAME and (
        config.enable_multi_path or config.enable_multi_schedule
    )


def finalize_single(
    race: RaceReport,
    outcome: SingleStageOutcome,
    config: PortendConfig,
    elapsed: float,
) -> ClassifiedRace:
    """Final classification when the multi-path stage does not run.

    Either the single stage was conclusive, or multi-path/multi-schedule
    analysis is disabled and the lone primary/alternate pair is the only
    witness of harmlessness (``k = 1``).
    """
    verdict = outcome.race_class()
    k = 1
    if verdict is RaceClass.OUTPUT_SAME:
        # Single-path mode: the lone primary/alternate pair is the only
        # witness of harmlessness.
        verdict = RaceClass.K_WITNESS_HARMLESS
    return ClassifiedRace(
        race=race,
        classification=verdict,
        k=k,
        paths_explored=1,
        schedules_explored=1,
        analysis_seconds=elapsed,
        analysis_steps=outcome.analysis_steps,
        evidence=ClassificationEvidence.from_dict(outcome.evidence),
        stage="single-pre/single-post",
    )


def finalize_multipath(
    race: RaceReport,
    outcome: SingleStageOutcome,
    multi: MultiPathResult,
    config: PortendConfig,
    elapsed: float,
) -> ClassifiedRace:
    """Combine the single-stage outcome with the multi-path stage result."""
    verdict = multi.verdict
    paths_explored = max(1, multi.paths_explored)
    schedules_explored = max(1, multi.schedules_explored)
    k = multi.witnesses if multi.witnesses else paths_explored * config.effective_ma()
    multi_evidence = multi.evidence
    if (
        multi_evidence.spec_violation_kind
        or multi_evidence.output_difference
        or multi_evidence.notes
    ):
        evidence = multi_evidence
        evidence.post_race_states_differ = outcome.post_race_states_differ
    else:
        evidence = ClassificationEvidence.from_dict(outcome.evidence)
    if verdict is RaceClass.K_WITNESS_HARMLESS and multi.witnesses == 0:
        # No path/schedule combination could be completed; the only
        # witness is the single-pre/single-post pair itself.
        k = 1
    return ClassifiedRace(
        race=race,
        classification=verdict,
        k=k,
        paths_explored=paths_explored,
        schedules_explored=schedules_explored,
        analysis_seconds=elapsed,
        analysis_steps=outcome.analysis_steps,
        evidence=evidence,
        stage="multi-path/multi-schedule",
        paths_pruned=multi.states_pruned,
        prune_reasons=list(multi.prune_reasons),
    )


def classify_race(
    executor: Executor,
    program: Program,
    trace: ExecutionTrace,
    race: RaceReport,
    config: Optional[PortendConfig] = None,
    predicates: Sequence[SemanticPredicate] = (),
    replays: Optional[PrimaryReplayStore] = None,
) -> ClassifiedRace:
    """Classify one distinct race into the four-category taxonomy.

    ``replays`` is the sharing unit's store of primary replays (see
    :class:`~repro.core.alternate.PrimaryReplayStore`); the race's replays
    are dropped from it once the classification returns.
    """
    config = config or PortendConfig()
    started = time.perf_counter()
    if replays is None:
        replays = PrimaryReplayStore([race.race_id])
    try:
        outcome = run_single_stage(
            executor, program, trace, race, config, predicates=predicates, replays=replays
        )
        if not needs_multipath(outcome, config):
            return finalize_single(race, outcome, config, time.perf_counter() - started)
        multi = classify_multipath(
            executor, program, trace, race, config, predicates=predicates, replays=replays
        )
        return finalize_multipath(
            race, outcome, multi, config, time.perf_counter() - started
        )
    finally:
        replays.release(race.race_id)
