"""Execution events and the listener interface.

The executor publishes events to listeners as the interpreted program runs;
the dynamic race detector, the trace recorder and Portend's specification
checker are all listeners.  Listeners must not mutate the execution state
(with the documented exception of :class:`repro.core.spec.SpecChecker`, which
may terminate a state when a semantic predicate fails).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

from repro.runtime.memory import MemoryLocation
from repro.runtime.threadstate import StackEntry
from repro.symex.expr import Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.state import ExecutionState


@dataclass(frozen=True)
class MemoryAccess:
    """One dynamic access to a shared-memory location."""

    tid: int
    location: MemoryLocation
    is_write: bool
    pc: int
    label: str
    step: int
    stack: Tuple[StackEntry, ...] = ()
    value: Optional[Value] = None

    @property
    def kind(self) -> str:
        return "WRITE" if self.is_write else "READ"

    def describe(self) -> str:
        return (
            f"{self.kind} of {self.location.describe()} by thread {self.tid} "
            f"at {self.label or self.pc}"
        )


@dataclass(frozen=True)
class SyncEvent:
    """A synchronisation operation observed during execution.

    ``kind`` is one of: ``lock``, ``unlock``, ``cond_wait``, ``cond_signal``,
    ``cond_broadcast``, ``barrier_release``, ``spawn``, ``join``, ``exit``.
    ``peer`` identifies the other party when relevant (child/joined tid, or
    the set of released tids for barriers and broadcasts).
    """

    tid: int
    kind: str
    target: str
    pc: int
    step: int
    peer: Optional[Tuple[int, ...]] = None


class ExecutionListener:
    """Base listener with no-op callbacks; subclass and override as needed."""

    #: True while skipping whole periods of a spin loop (callbacks and all,
    #: see :mod:`repro.runtime.spin`) cannot change what this listener does,
    #: records or later reports.  Unsafe by default, so recorders and
    #: detectors see every step.
    spin_skip_safe: bool = False

    def on_step(self, state: "ExecutionState", tid: int, pc: int) -> None:
        """Called after every interpreter step."""

    def on_access(self, state: "ExecutionState", access: MemoryAccess) -> None:
        """Called for every shared-memory read and write."""

    def on_sync(self, state: "ExecutionState", event: SyncEvent) -> None:
        """Called for every synchronisation operation."""

    def on_schedule(
        self, state: "ExecutionState", chosen_tid: int, previous_tid: Optional[int], reason: str
    ) -> None:
        """Called whenever the scheduler makes (and commits) a decision."""

    def on_output(self, state: "ExecutionState", record) -> None:
        """Called when the program emits output (a ``write`` system call)."""

    def on_input(self, state: "ExecutionState", record) -> None:
        """Called when the program consumes an input (system-call return)."""

    def on_finish(self, state: "ExecutionState") -> None:
        """Called once when the state reaches a terminal outcome."""


class ListenerGroup(ExecutionListener):
    """Fans events out to an ordered collection of listeners."""

    def __init__(self, listeners: Sequence[ExecutionListener] = ()) -> None:
        self.listeners = list(listeners)

    def add(self, listener: ExecutionListener) -> None:
        self.listeners.append(listener)

    @property
    def spin_skip_safe(self) -> bool:  # type: ignore[override]
        return all(listener.spin_skip_safe for listener in self.listeners)

    def on_step(self, state, tid, pc) -> None:
        for listener in self.listeners:
            listener.on_step(state, tid, pc)

    def on_access(self, state, access) -> None:
        for listener in self.listeners:
            listener.on_access(state, access)

    def on_sync(self, state, event) -> None:
        for listener in self.listeners:
            listener.on_sync(state, event)

    def on_schedule(self, state, chosen_tid, previous_tid, reason) -> None:
        for listener in self.listeners:
            listener.on_schedule(state, chosen_tid, previous_tid, reason)

    def on_output(self, state, record) -> None:
        for listener in self.listeners:
            listener.on_output(state, record)

    def on_input(self, state, record) -> None:
        for listener in self.listeners:
            listener.on_input(state, record)

    def on_finish(self, state) -> None:
        for listener in self.listeners:
            listener.on_finish(state)
