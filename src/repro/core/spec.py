"""Specification-violation detection.

Portend watches for two kinds of properties (§3.5):

* "basic" properties that violate any program's specification: crashes,
  deadlocks, memory errors, infinite loops -- these surface as
  :class:`repro.runtime.errors.ExecutionOutcome` values produced by the
  runtime, and
* "semantic" properties supplied by developers as assert-like predicates over
  program state -- these are evaluated by :class:`SpecChecker` while the
  analysis executions run (the paper's fmm example checks that all timestamps
  are positive).

This module also contains the timeout diagnosis used by Algorithm 1 to tell
an infinite loop (spec violation) apart from ad-hoc synchronisation (single
ordering): a busy-wait loop whose exit condition can still be written by some
other live thread is ad-hoc synchronisation; one whose exit condition is
loop-invariant across every live thread is an infinite loop ([60] in the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lang.ast import expression_reads
from repro.lang.program import Program
from repro.runtime.errors import CrashInfo, CrashKind, ExecutionOutcome, OutcomeKind
from repro.runtime.listeners import ExecutionListener, MemoryAccess
from repro.runtime.state import ExecutionState
from repro.runtime.threadstate import LoopEntry
from repro.symex.expr import is_symbolic


@dataclass(frozen=True)
class SemanticPredicate:
    """A developer-provided semantic property.

    ``check`` receives the execution state and returns True while the
    property holds.  Predicates should be side-effect free.
    """

    name: str
    check: Callable[[ExecutionState], bool]
    description: str = ""

    def holds(self, state: ExecutionState) -> bool:
        return bool(self.check(state))


class SpecChecker(ExecutionListener):
    """Evaluates semantic predicates during an analysis execution.

    The checker runs after every shared-memory *write* (semantic properties
    on our workloads are predicates over shared state, so only writes can
    invalidate them) and once more when the execution finishes.  On a
    violation it terminates the state with a ``SEMANTIC_VIOLATION`` crash,
    which the classifier then reports as "spec violated".
    """

    def __init__(self, predicates: Sequence[SemanticPredicate] = ()) -> None:
        self.predicates = list(predicates)
        self.violated: Optional[SemanticPredicate] = None

    @property
    def spin_skip_safe(self) -> bool:  # type: ignore[override]
        # Predicates read shared state after writes; only a checker with
        # nothing to check is indifferent to skipped steps.
        return not self.predicates

    def _check(self, state: ExecutionState, tid: int, pc: int, label: str) -> None:
        if self.violated is not None or state.outcome is not None:
            return
        for predicate in self.predicates:
            try:
                ok = predicate.holds(state)
            except Exception:  # noqa: BLE001 - predicate bugs must not kill the analysis
                continue
            if not ok:
                self.violated = predicate
                state.outcome = ExecutionOutcome(
                    OutcomeKind.CRASH,
                    crash=CrashInfo(
                        kind=CrashKind.SEMANTIC_VIOLATION,
                        message=f"semantic predicate {predicate.name!r} violated",
                        tid=tid,
                        pc=pc,
                        label=label,
                    ),
                )
                return

    def on_access(self, state: ExecutionState, access: MemoryAccess) -> None:
        if access.is_write and self.predicates:
            self._check(state, access.tid, access.pc, access.label)

    def on_finish(self, state: ExecutionState) -> None:
        if self.predicates and state.outcome is not None and state.outcome.kind is OutcomeKind.DONE:
            self._check(state, 0, 0, "<end of execution>")


def outcome_is_spec_violation(outcome: Optional[ExecutionOutcome]) -> bool:
    """True when a terminal outcome is a "basic" specification violation."""
    if outcome is None:
        return False
    return outcome.kind in (OutcomeKind.CRASH, OutcomeKind.DEADLOCK)


# ---------------------------------------------------------------------------
# Timeout diagnosis: infinite loop vs ad-hoc synchronisation
# ---------------------------------------------------------------------------


def _loop_condition_reads(state: ExecutionState, tid: int) -> Optional[Set[Tuple[str, Optional[str]]]]:
    """Shared locations that can influence the innermost loop's exit condition.

    The exit condition itself may read only thread-local state (e.g.
    ``while (observed == 0)`` with ``observed = shared_flag`` in the body), so
    the body's shared reads are included as well -- an over-approximation
    that errs toward diagnosing ad-hoc synchronisation (harmless) rather than
    an infinite loop (harmful).
    """
    from repro.lang.ast import Assign, If, While, iter_statements

    thread = state.threads.get(tid)
    if thread is None or not thread.frames:
        return None
    frame = thread.frames[-1]
    for entry in reversed(frame.control):
        if not isinstance(entry, LoopEntry):
            continue
        reads = set(expression_reads(entry.stmt.cond))
        for stmt in iter_statements(entry.stmt.body):
            if isinstance(stmt, Assign):
                reads |= set(expression_reads(stmt.value))
            elif isinstance(stmt, (If, While)):
                reads |= set(expression_reads(stmt.cond))
        return {(space, name) for space, name in reads}
    return None


def _thread_write_set(program: Program, state: ExecutionState, tid: int) -> Set[Tuple[str, Optional[str]]]:
    """Over-approximate the shared locations ``tid`` may still write."""
    thread = state.threads.get(tid)
    writes: Set[Tuple[str, Optional[str]]] = set()
    if thread is None or thread.is_finished:
        return writes
    for frame in thread.frames:
        writes |= set(program.write_set(frame.function))
    return writes


def diagnose_timeout(
    program: Program,
    state: ExecutionState,
    spinning_tid: Optional[int] = None,
) -> str:
    """Classify an alternate-enforcement timeout.

    Returns ``"infinite-loop"`` when the spinning thread's loop exit
    condition cannot be modified by any other live thread (a specification
    violation), and ``"adhoc-sync"`` otherwise (the alternate ordering is
    simply impossible to enforce -- a "single ordering" race).
    """
    tid = spinning_tid if spinning_tid is not None else state.current_tid
    if tid is None:
        return "adhoc-sync"
    exit_reads = _loop_condition_reads(state, tid)
    if exit_reads is None:
        # Not spinning in a loop we can reason about; be conservative and
        # treat the failure as ad-hoc synchronisation (harmless).
        return "adhoc-sync"
    normalized_reads = {(space, name) for space, name in exit_reads}
    for other_tid, other in state.threads.items():
        if other_tid == tid or other.is_finished:
            continue
        writes = _thread_write_set(program, state, other_tid)
        for space, name in writes:
            if (space, name) in normalized_reads:
                return "adhoc-sync"
            # Array writes are tracked per array, not per element.
            if space == "array" and ("array", name) in normalized_reads:
                return "adhoc-sync"
    return "infinite-loop"
