"""Per-pass verdict checking: ground truth, plus the serial reference.

One operation is one race verdict.  A verdict fails when it is missing,
when its class disagrees with the workload's ground truth, when its
signature differs from the serial reference, or when the pass that should
have produced it raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: misclassifications the paper itself reports, keyed by (program, variable),
#: with the class Portend is expected to give instead.  ocean's phase_done is
#: the §5.4 miss: it is output-differs through an undocumented debug
#: constant, and Portend calls it k-witness harmless.  It still counts as a
#: failed operation on every pass; it only keeps ``correct`` true.
EXPECTED_MISSES = {("ocean", "phase_done"): "k-witness harmless"}

#: ``{program: {race_id (as str): signature}}``
Reference = Dict[str, Dict[str, List]]


def signature(classified) -> List:
    """What must be bit-identical between serial and pooled runs."""
    return [
        classified.race.location.name,
        classified.classification.value,
        classified.k,
        classified.paths_explored,
        classified.schedules_explored,
        classified.stage,
        classified.paths_pruned,
    ]


def reference_of(runs) -> Reference:
    return {
        run.workload.name: {
            str(item.race.race_id): signature(item) for item in run.result.classified
        }
        for run in runs
    }


@dataclass
class PassScore:
    attempted: int = 0
    failed: int = 0
    #: one line per failed verdict
    failures: List[str] = field(default_factory=list)
    #: the failures EXPECTED_MISSES does not account for
    unexpected: int = 0

    def fail(self, line: str, expected: bool = False) -> None:
        self.failed += 1
        self.failures.append(line + (" (expected, §5.4)" if expected else ""))
        if not expected:
            self.unexpected += 1


def failed_pass(names: Sequence[str], reference: Reference, reason: str) -> PassScore:
    """A pass that raised: every verdict it owed has failed."""
    score = PassScore()
    for name in names:
        for race_id in reference[name]:
            score.attempted += 1
            score.fail(f"{name} race {race_id}: pass raised ({reason})")
    return score


def score_pass(workloads, runs, reference: Reference) -> PassScore:
    """Score one pass's verdicts against ground truth and the reference."""
    from repro.experiments.metrics import score_workload

    score = PassScore()
    by_name = {run.workload.name: run for run in runs}
    for workload in workloads:
        expected = reference[workload.name]
        run = by_name.get(workload.name)
        classified = list(run.result.classified) if run is not None else []
        truth = score_workload(workload, classified)
        wrong_class = {variable: (want, got) for variable, want, got in truth.mismatches}
        unmatched = set(truth.unmatched_races)
        seen = set()
        for item in classified:
            race_id = str(item.race.race_id)
            variable = item.race.location.name
            seen.add(race_id)
            score.attempted += 1
            where = f"{workload.name} {variable} (race {race_id})"
            if race_id not in expected:
                score.fail(f"{where}: verdict for a race the reference lacks")
            elif variable in unmatched:
                score.fail(f"{where}: no ground truth for this race")
            elif variable in wrong_class:
                want, got = wrong_class[variable]
                miss = EXPECTED_MISSES.get((workload.name, variable))
                score.fail(
                    f"{where}: truth={want} got={got}",
                    expected=miss == got and signature(item) == expected[race_id],
                )
            elif signature(item) != expected[race_id]:
                score.fail(
                    f"{where}: signature {signature(item)} != serial {expected[race_id]}"
                )
        for race_id in expected:
            if race_id not in seen:
                score.attempted += 1
                score.fail(f"{workload.name} race {race_id}: verdict missing")
    return score

