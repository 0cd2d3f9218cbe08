"""Spin fast-forward: jump over the periods of a loop that can only end at
the step budget.

Portend tells ad-hoc synchronisation apart by letting the alternate run
into a step budget of ``timeout_factor`` × the primary's steps (§4,
Algorithm 1 line 8): the forced thread spins on a flag that no runnable
thread will set.  Interpreting every iteration up to the budget is most of
the work such an alternate does.

A run under a stateless schedule policy, whose listeners all declare
themselves skip-safe, is a function of its execution state.  When a thread
reaches the same loop head twice in a row with equal state fingerprints,
the run from the second head repeats the steps in between, period after
period.  Only the *affine* fields move, each by the same amount per period,
until the step budget or a loop-iteration limit ends the spin.
:class:`SpinProbe` finds such a pair of heads and moves every affine field
forward by whole periods at once, to the exact state the interpreter would
have reached.  The rest of the run is interpreted as usual, so the status,
step count and final state of the run do not change.

The fingerprint covers everything that can steer the future: memory and
sync state; each thread's status, blocking reason, pending reacquire, held
mutexes and result, and each frame's locals and control stack; the current
and next thread id and the run's last watched pc; the lengths of the
output log, input log and path condition; the symbolic-branch count and
the outcome.  It leaves out only the affine fields: ``step_count``,
``preemption_points``, ``context_switches``, each thread's ``steps``, every
``LoopEntry.iterations``, and the probed loop's induction locals (see
:func:`repro.lang.ast.induction_locals`).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.lang import ast
from repro.runtime.listeners import ListenerGroup
from repro.runtime.state import ExecutionState
from repro.runtime.threadstate import LoopEntry

#: stands in for an induction local's value in a fingerprint
_STEPPED = object()

#: the state-wide affine fields, first in every affine vector
_STATE_FIELDS = ("step_count", "preemption_points", "context_switches")


class SpinProbe:
    """Probes the loop heads of one run and jumps over spin periods.

    A loop is fingerprinted at each head whose iteration count is a power
    of two, and compared at the head right after (counts 3, 5, 9, ...), so
    a loop that does not spin costs O(log n) fingerprints.  Marks are keyed
    by (thread, frame depth, control depth, loop pc): iteration counts rise
    by one per head of a loop instance, so a mark at ``n - 1`` always comes
    from the head just before.
    """

    __slots__ = ("_induction", "_max_iterations", "_marks")

    def __init__(
        self,
        induction: Callable[[ast.While], FrozenSet[str]],
        max_loop_iterations: int,
    ) -> None:
        self._induction = induction
        self._max_iterations = max_loop_iterations
        self._marks: Dict[Tuple, Tuple[int, Tuple, List[int]]] = {}

    def at_head(
        self,
        state: ExecutionState,
        tid: int,
        entry: LoopEntry,
        listeners: ListenerGroup,
        last_watched: Optional[int],
        steps_left: int,
    ) -> int:
        """Probe before ``tid`` evaluates the condition of ``entry``, the
        loop on top of its control stack; return the steps jumped over."""
        count = entry.iterations
        recording = count & (count - 1) == 0
        if not recording and (count - 1) & (count - 2):
            return 0
        thread = state.threads[tid]
        key = (tid, len(thread.frames), len(thread.frames[-1].control), entry.stmt.pc)
        if recording:
            if count and listeners.spin_skip_safe:
                fingerprint, values, _ = _observe(
                    state, tid, self._induction(entry.stmt), last_watched
                )
                self._marks[key] = (count, fingerprint, values)
            return 0
        mark = self._marks.pop(key, None)
        if mark is None or mark[0] != count - 1 or not listeners.spin_skip_safe:
            return 0
        fingerprint, values, slots = _observe(
            state, tid, self._induction(entry.stmt), last_watched
        )
        if fingerprint != mark[1]:
            return 0
        return self._jump(state, slots, values, mark[2], steps_left)

    def _jump(
        self,
        state: ExecutionState,
        slots: List[Tuple],
        now: List[int],
        then: List[int],
        steps_left: int,
    ) -> int:
        """Advance every affine field by whole periods; return the steps."""
        deltas = [after - before for before, after in zip(then, now)]
        period = deltas[0]
        # Stay short of the budget, so the run loop's own check ends the run
        # on exactly the step it would have.
        periods = (steps_left - 1) // period
        for slot, value, delta in zip(slots, now, deltas):
            if slot[0] == "loop" and delta > 0:
                # No skipped head may push a loop past its iteration limit;
                # the interpreted remainder then reports LOOP_LIMIT itself.
                periods = min(periods, (self._max_iterations - value) // delta)
        if periods <= 0:
            return 0
        state.counters.spin_steps_skipped += periods * deltas[len(_STATE_FIELDS)]
        for slot, delta in zip(slots, deltas):
            if not delta:
                continue
            kind, advance = slot[0], periods * delta
            if kind == "state":
                setattr(state, slot[1], getattr(state, slot[1]) + advance)
            elif kind == "thread":
                state.thread_mut(slot[1]).steps += advance
            elif kind == "loop":
                state.frame_mut(slot[1], slot[2]).control[slot[3]].iterations += advance
            elif kind == "local":
                state.frame_mut(slot[1]).locals[slot[2]] += advance
        return periods * period


def _observe(
    state: ExecutionState,
    tid: int,
    induction: FrozenSet[str],
    last_watched: Optional[int],
) -> Tuple[Tuple, List[int], List[Tuple]]:
    """``(fingerprint, affine values, affine slots)`` of ``state`` at a head
    of the loop on top of ``tid``'s control stack.

    The values are the state-wide affine fields followed by the interpreter's
    statement counter and then per-thread fields in traversal order; equal
    fingerprints imply equal slot lists, so two vectors subtract slot by
    slot.
    """
    values = [getattr(state, name) for name in _STATE_FIELDS]
    values.append(state.counters.statements)
    slots: List[Tuple] = [("state", name) for name in _STATE_FIELDS]
    slots.append(("statements",))
    threads = []
    for other, thread in state.threads.items():
        values.append(thread.steps)
        slots.append(("thread", other))
        top = len(thread.frames) - 1
        frames = []
        for depth, frame in enumerate(thread.frames):
            control = []
            for position, entry in enumerate(frame.control):
                if type(entry) is LoopEntry:
                    control.append(entry.stmt.pc)
                    values.append(entry.iterations)
                    slots.append(("loop", other, depth, position))
                else:
                    control.append((id(entry.stmts), entry.index))
            local_values = frame.locals
            if other == tid and depth == top and induction:
                local_values = dict(local_values)
                for name in sorted(induction):
                    value = local_values.get(name)
                    if type(value) is int:
                        local_values[name] = _STEPPED
                        values.append(value)
                        slots.append(("local", other, name))
            frames.append(
                (
                    frame.function,
                    frame.return_target,
                    tuple(control),
                    tuple(local_values.items()),
                )
            )
        threads.append(
            (
                other,
                thread.status,
                thread.blocked_on,
                thread.pending_reacquire,
                tuple(thread.held_mutexes),
                thread.result,
                tuple(frames),
            )
        )
    fingerprint = (
        state.memory.snapshot(),
        state.sync.snapshot(),
        tuple(threads),
        state.current_tid,
        state.next_tid,
        last_watched,
        len(state.output_log),
        len(state.input_log),
        len(state.path_condition),
        state.path_condition.infeasible,
        state.symbolic_branches,
        state.outcome,
    )
    return fingerprint, values, slots
