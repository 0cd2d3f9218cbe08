"""Pool lifecycle, dispatch strategies, and supervision for the engine.

The engine used to build a fresh ``ProcessPoolExecutor`` inside every stage
dispatch and block on ``pool.map`` -- a hard barrier per stage, plus one
pool spin-up/tear-down (and one cold worker-process state) per queue.
:class:`PoolDispatcher` replaces that with three selectable strategies:

* **streaming** (the default) -- one persistent pool per engine run, fed by
  the engine's *full-stream scheduler*: records, classifications, plans and
  paths all live in one ``wait(FIRST_COMPLETED)`` loop, so stage-3 work of
  one workload runs while another workload is still recording (see
  ``AnalysisEngine._stream_pipeline``).  The pool is created lazily on the
  first pooled dispatch (or eagerly by :meth:`warm`) with
  :func:`~repro.engine.tasks.pool_worker_initializer` installed, reused by
  every subsequent dispatch (both sides emit ``pool`` events into the run's
  :class:`~repro.engine.events.EventLogger`, which fold into the
  ``pools_created``/``pool_reuses`` counters), and shut down by the engine
  when the run finishes.
* **staged** -- the same persistent pool, but with a barrier after the
  record stage: stage 3 only starts once every recording has landed, and
  only the plan→path queues overlap.  This was the previous default; it is
  kept selectable as the A/B baseline the benchmark's full-stream gate
  compares against.
* **barrier** -- the legacy strategy: a fresh pool per dispatch,
  ``pool.map`` with a chunksize, full teardown afterwards (with one bounded
  fresh-pool retry if that pool breaks mid-map).

Chunking is **cost-aware**: wide queues are packed by the run's
:class:`~repro.engine.costmodel.CostModel` into chunks targeting roughly
``target_seconds`` of estimated work each, submitted longest-expected-first,
and every chunk's prediction is reported as a ``scheduler_decision`` event
once the queue drains.  A cold model falls back to size-based packing that
still guarantees at least ``min(count, workers)`` chunks -- the old
``count // 4·workers`` heuristic could leave a short-but-skewed queue badly
balanced across the pool.

Supervision (the fault-tolerance layer)
---------------------------------------

Every pooled drain runs under a :class:`PoolSupervisor`, which turns worker
failure from a run-wide event into a per-task one.  The degradation ladder:

1. **retry** -- a chunk that crashes its worker, misses its deadline, or
   returns a malformed result is *bisected into singletons* and re-submitted
   with capped exponential backoff, up to ``max_task_retries`` extra
   executions per task;
2. **respawn** -- a ``BrokenProcessPool`` (or an expired deadline) tears the
   persistent pool down with ``shutdown(cancel_futures=True)`` and rebuilds
   it -- re-running :func:`~repro.engine.tasks.pool_worker_initializer`, so
   the warm tier re-arms -- up to ``max_pool_respawns`` times per run;
3. **quarantine** -- a task that keeps failing is exiled to the in-driver
   serial path (*it alone*, not the run).  Crashes cannot name a culprit
   (every pending future of a broken pool fails identically), so repeat
   suspects are first *probed alone* on the rebuilt pool: a lone probe that
   crashes the pool is the poison task, is quarantined, and its respawn does
   not count against the budget;
4. **serial** -- only when the respawn budget is exhausted does the rest of
   the run execute in-driver (recorded as a ``pool`` event with
   ``action=downgraded``).

Deadlines default to ``max(floor, 8 × EWMA estimate)`` per chunk (floor
``REPRO_DEADLINE_FLOOR_MS``, default 30s); ``task_deadline_ms > 0`` pins a
flat deadline instead.  Worker results are validated at this boundary
(:func:`validate_worker_output`): a wrong-shaped result raises
:class:`~repro.engine.errors.EngineError` naming the task instead of a bare
``KeyError`` deep inside the merge.  Recovery is buffered as plain records
and replayed as ``task_retry`` / ``pool_respawn`` / ``task_quarantined`` /
``deadline_exceeded`` events *after* the drain (like ``scheduler_decision``),
so the event stream stays canonical-order deterministic.

All strategies preserve the serial fallback: payloads that cannot pickle
(custom predicate closures) or a pool that cannot spawn (restricted
environments) downgrade the dispatch to in-process execution of the same
task code, and :attr:`PoolDispatcher.pool_unavailable` records that it
happened so ``auto`` granularity stops fanning out per-path work no pool
will run.  Results are bit-identical either way -- every task is
deterministic, supervision only re-runs deterministic tasks, the cost model
only influences batching and ordering, and callers merge in task order,
never completion order.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.engine.costmodel import CostModel, payload_fingerprint
from repro.engine.errors import EngineError
from repro.engine.events import EventLogger
from repro.engine.tasks import (
    execute_noop_task,
    execute_path_task,
    execute_payload_chunk,
    execute_plan_task,
    execute_record_task,
    execute_task,
    pool_worker_initializer,
)

#: dispatch strategies (see EngineOptions.dispatch)
DISPATCH_MODES = ("streaming", "staged", "barrier")

#: strategies that keep one persistent pool for the whole run
_PERSISTENT_MODES = ("streaming", "staged")

#: cost-model task kind per worker entry point (anything else is "task")
_WORKER_KINDS = {
    execute_record_task: "record",
    execute_task: "classify",
    execute_plan_task: "plan",
    execute_path_task: "path",
}

#: auto deadline = max(floor, multiplier × the chunk's EWMA estimate)
_DEADLINE_MULTIPLIER = 8.0

#: never spin the watchdog faster than this
_MIN_WAIT_S = 0.05

_MISSING = object()


def _env_int(name: str, default: int) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        return default


def worker_kind(worker: Callable) -> str:
    """The cost-model bucket for one worker entry point."""
    return _WORKER_KINDS.get(worker, "task")


def describe_task(kind: str, payload: Mapping) -> str:
    """A human-readable name for one task payload (used in errors/events)."""
    name = f"{kind} task for workload {payload.get('workload', '?')!r}"
    if payload.get("race_id") is not None:
        name += f", race {payload['race_id']}"
    if payload.get("path_index") is not None:
        name += f", path {payload['path_index']}"
    return name


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_worker_output(kind: str, payload: Mapping, output) -> None:
    """Validate one worker result at the dispatch boundary.

    Each task kind has required keys/types; a worker that returns a
    wrong-shaped dict (bit rot, a fault plan's ``malformed`` op, a future
    network transport) raises :class:`EngineError` naming the task here,
    instead of a bare ``KeyError`` deep inside ``_merge_path_results``.
    """
    name = describe_task(kind, payload)
    if not isinstance(output, Mapping):
        raise EngineError(
            f"{name} returned {type(output).__name__}, expected a result dict"
        )

    def need(field: str, check: Callable[[object], bool], expect: str) -> None:
        value = output.get(field, _MISSING)
        if value is _MISSING or not check(value):
            raise EngineError(
                f"{name} returned a malformed result: field {field!r} {expect}"
            )

    if kind == "record":
        need("trace", lambda v: isinstance(v, Mapping), "must be a trace dict")
        need("detection_seconds", _is_number, "must be a number")
    elif kind == "classify":
        need("classified", lambda v: isinstance(v, Mapping),
             "must be a classified-race dict")
    elif kind == "plan":
        need("single", lambda v: isinstance(v, Mapping),
             "must be a single-stage outcome dict")
        need("needs_paths", lambda v: isinstance(v, bool), "must be a bool")
        need("path_count", _is_int, "must be an int")
        need("primaries", lambda v: isinstance(v, list), "must be a list")
        need("states_pruned", _is_int, "must be an int")
        need("prune_reasons", lambda v: isinstance(v, list), "must be a list")
        need("seconds", _is_number, "must be a number")
    elif kind == "path":
        need("path_index", _is_int, "must be an int")
        if not output.get("missing"):
            need("verdict", lambda v: isinstance(v, Mapping),
                 "must be a verdict dict")
            need("seconds", _is_number, "must be a number")
    # other kinds ("task", e.g. warm-up no-ops) only need to be a Mapping


def _payload_identity(payload: Mapping) -> Dict:
    identity: Dict = {}
    if payload.get("race_id") is not None:
        identity["race"] = payload["race_id"]
    if payload.get("path_index") is not None:
        identity["path"] = payload["path_index"]
    return identity


class _Flight:
    """One in-flight (or queued) chunk submission and its retry state."""

    __slots__ = (
        "key", "worker", "kind", "payloads", "positions",
        "attempts", "suspicion", "estimate", "deadline_s",
        "submitted_at", "probe",
    )

    def __init__(self, key, worker, kind, payloads, positions, estimate):
        self.key = key
        self.worker = worker
        self.kind = kind
        self.payloads = payloads
        self.positions = positions
        #: failed executions so far (retry budget consumed)
        self.attempts = 0
        #: pool crashes this flight was in flight for (culprit ambiguity)
        self.suspicion = 0
        self.estimate = estimate
        self.deadline_s = None
        self.submitted_at = 0.0
        #: True while this flight runs *alone* on the pool to test whether
        #: it is the task that keeps killing workers
        self.probe = False


class PoolSupervisor:
    """Supervises one drain's submissions on the persistent pool.

    Callers :meth:`submit` tagged chunks and repeatedly call
    :meth:`wait_some` until :attr:`done`; each tag's outputs are delivered
    exactly once, in assembled payload order, no matter how many crashes,
    hangs, retries, or respawns happened along the way.  The supervisor only
    ever calls ``pool.submit`` (so the test suite's deferred fake pools work
    unchanged) and waits via the injected ``wait_fn`` (so the engine's
    monkeypatchable module-global ``wait`` stays the seam it is today);
    sweeping a *broken* pool's leftover futures uses the real
    :func:`concurrent.futures.wait`, since a fake pool never breaks.
    """

    def __init__(self, dispatcher: "PoolDispatcher", pool, wait_fn=None):
        self.dispatcher = dispatcher
        self.pool = pool
        self.wait_fn = wait_fn if wait_fn is not None else futures_wait
        self.pending: Dict[object, _Flight] = {}
        self.backlog: List[_Flight] = []
        self.probation: deque = deque()
        self._tags: Dict[int, object] = {}
        self._assembly: Dict[int, Dict] = {}
        self._completed: List = []
        self._next_key = 0

    # ------------------------------------------------------------ interface

    @property
    def done(self) -> bool:
        return not self._assembly and not self._completed

    def submit(self, worker, payloads: Sequence[Mapping], tag, estimate: float = 0.0):
        """Queue one chunk; its assembled outputs come back under ``tag``."""
        key = self._next_key
        self._next_key += 1
        self._tags[key] = tag
        self._assembly[key] = {
            "outputs": [None] * len(payloads),
            "missing": len(payloads),
        }
        flight = _Flight(
            key, worker, worker_kind(worker), list(payloads),
            list(range(len(payloads))), estimate,
        )
        if self.pool is None:
            self._run_in_driver(flight)
        elif self.probation:
            self.backlog.append(flight)
        else:
            self._submit_flight(flight)

    def wait_some(self) -> List:
        """Block until at least one tag fully assembles; return
        ``[(tag, outputs), ...]`` batches (empty only when nothing is left)."""
        while not self._completed and self._assembly:
            self._pump()
            if not self.pending:
                if self._completed:
                    break
                if self.backlog or self.probation:
                    continue
                raise EngineError(
                    "supervisor stalled with incomplete task assemblies"
                )
            kwargs = {"return_when": FIRST_COMPLETED}
            timeout = self._next_timeout()
            if timeout is not None:
                kwargs["timeout"] = timeout
            done, _not_done = self.wait_fn(set(self.pending), **kwargs)
            if not done:
                self._handle_deadlines()
                continue
            crashed: List[_Flight] = []
            for future in done:
                flight = self.pending.pop(future, None)
                if flight is None:
                    continue
                try:
                    outputs = future.result()
                except (BrokenProcessPool, OSError):
                    crashed.append(flight)
                    continue
                self._accept(flight, outputs)
            if crashed:
                self._handle_crash(crashed)
        completed, self._completed = self._completed, []
        return completed

    # ----------------------------------------------------------- submission

    def _pump(self) -> None:
        """Feed the pool from the probation and backlog queues."""
        if self.pool is None:
            held = list(self.probation) + self.backlog
            self.probation.clear()
            self.backlog = []
            for flight in held:
                self._run_in_driver(flight)
            return
        if self.probation:
            # Suspects run strictly alone: a crash during a lone probe
            # names the poison task unambiguously.
            if not self.pending:
                probe = self.probation.popleft()
                probe.probe = True
                self._submit_flight(probe)
            return
        if self.backlog:
            backlog, self.backlog = self.backlog, []
            for flight in backlog:
                self._submit_flight(flight)

    def _submit_flight(self, flight: _Flight) -> None:
        flight.submitted_at = time.monotonic()
        if self.dispatcher.task_deadline_ms > 0:
            flight.deadline_s = self.dispatcher.task_deadline_ms / 1000.0
        else:
            flight.deadline_s = max(
                self.dispatcher.deadline_floor_s,
                _DEADLINE_MULTIPLIER * max(flight.estimate, 0.0),
            )
        try:
            future = self.pool.submit(
                execute_payload_chunk, flight.worker, flight.payloads
            )
        except (BrokenProcessPool, OSError, RuntimeError):
            # A worker death (e.g. during warm-up) can surface as a broken
            # pool at *submit* time; that is a crash like any other, not a
            # reason to downgrade the run.
            self._handle_crash([flight], reason="pool broke at submit")
            return
        self.pending[future] = flight

    def _next_timeout(self) -> Optional[float]:
        deadlines = [
            flight.submitted_at + flight.deadline_s
            for flight in self.pending.values()
            if flight.deadline_s is not None
        ]
        if not deadlines:
            return None
        return max(_MIN_WAIT_S, min(deadlines) - time.monotonic())

    # ------------------------------------------------------------- delivery

    def _deliver(self, key: int, position: int, output) -> None:
        assembly = self._assembly[key]
        assembly["outputs"][position] = output
        assembly["missing"] -= 1
        if assembly["missing"] == 0:
            del self._assembly[key]
            self._completed.append((self._tags.pop(key), assembly["outputs"]))

    def _accept(self, flight: _Flight, outputs) -> None:
        if not isinstance(outputs, list) or len(outputs) != len(flight.payloads):
            self._handle_invalid(flight, list(range(len(flight.payloads))))
            return
        bad: List[int] = []
        for offset, output in enumerate(outputs):
            try:
                validate_worker_output(flight.kind, flight.payloads[offset], output)
            except EngineError:
                bad.append(offset)
        bad_set = set(bad)
        for offset in range(len(outputs)):
            if offset not in bad_set:
                self._deliver(flight.key, flight.positions[offset], outputs[offset])
        if bad:
            self._handle_invalid(flight, bad)

    # --------------------------------------------------------- failure paths

    def _handle_invalid(self, flight: _Flight, offsets: Sequence[int]) -> None:
        """Malformed results: retry the bad payloads as singletons."""
        for offset in offsets:
            single = self._single(flight, offset)
            single.attempts = flight.attempts + 1
            if single.attempts > self.dispatcher.max_task_retries:
                self._quarantine(single, "malformed result")
            else:
                self._record_retry(single, "malformed")
                if self.pool is None:
                    self._run_in_driver(single)
                else:
                    self.backlog.append(single)
        self._backoff(flight.attempts + 1)

    def _handle_crash(self, crashed: List[_Flight], reason: str = "worker crash") -> None:
        # A broken pool fails *every* pending future; sweep the stragglers
        # with the real wait so none are lost.
        if self.pending:
            futures_wait(set(self.pending))
            for future in list(self.pending):
                flight = self.pending.pop(future)
                try:
                    outputs = future.result()
                except Exception:  # noqa: BLE001 - broken pool, any failure
                    crashed.append(flight)
                else:
                    self._accept(flight, outputs)
        # A lone probe that crashed the pool IS the poison task: quarantine
        # it, and don't charge its respawn against the budget (each free
        # respawn permanently removes one poison task, so this stays
        # bounded).
        lone = len(crashed) == 1 and crashed[0].probe
        self.pool = self.dispatcher._respawn(reason, charge=not lone)
        if lone:
            flight = crashed[0]
            flight.probe = False
            self._quarantine(flight, reason)
            return
        worst = 0
        for flight in crashed:
            flight.probe = False
            for single in self._bisect(flight):
                single.attempts += 1
                single.suspicion += 1
                worst = max(worst, single.attempts)
                self._record_retry(single, "crash")
                if (
                    single.suspicion >= 2
                    or single.attempts > self.dispatcher.max_task_retries
                ):
                    self.probation.append(single)
                else:
                    self.backlog.append(single)
        self._backoff(worst)

    def _handle_deadlines(self) -> None:
        """The wait timed out: cancel expired chunks and respawn the pool."""
        now = time.monotonic()
        expired = [
            flight
            for flight in self.pending.values()
            if flight.deadline_s is not None
            and flight.submitted_at + flight.deadline_s <= now
        ]
        if not expired:
            return
        expired_set = set(id(flight) for flight in expired)
        survivors = [
            flight
            for flight in self.pending.values()
            if id(flight) not in expired_set
        ]
        for flight in expired:
            payload = flight.payloads[0]
            record = {
                "kind": "deadline_exceeded",
                "stage": flight.kind,
                "workload": payload.get("workload", "?"),
                "chunk_size": len(flight.payloads),
                "deadline_seconds": flight.deadline_s,
            }
            if len(flight.payloads) == 1:
                record.update(_payload_identity(payload))
            self.dispatcher.recovery.append(record)
        # The hung worker cannot be cancelled (shutdown(cancel_futures=True)
        # does not interrupt a running task), so the whole pool is abandoned
        # and rebuilt; the orphan exits on its own once its task returns.
        self.pending.clear()
        self.pool = self.dispatcher._respawn("task deadline exceeded")
        for flight in survivors:
            flight.probe = False
            if self.pool is None:
                self._run_in_driver(flight)
            else:
                self.backlog.append(flight)
        for flight in expired:
            flight.probe = False
            for single in self._bisect(flight):
                single.attempts += 1
                if single.attempts > self.dispatcher.max_task_retries:
                    self._quarantine(single, "task deadline exceeded")
                else:
                    self._record_retry(single, "deadline")
                    if self.pool is None:
                        self._run_in_driver(single)
                    else:
                        self.backlog.append(single)

    def _bisect(self, flight: _Flight) -> List[_Flight]:
        """Split a failed chunk into singleton flights (shared assembly key)."""
        if len(flight.payloads) == 1:
            return [flight]
        singles = []
        for offset in range(len(flight.payloads)):
            single = self._single(flight, offset)
            single.attempts = flight.attempts
            single.suspicion = flight.suspicion
            singles.append(single)
        return singles

    def _single(self, flight: _Flight, offset: int) -> _Flight:
        return _Flight(
            flight.key,
            flight.worker,
            flight.kind,
            [flight.payloads[offset]],
            [flight.positions[offset]],
            flight.estimate / max(len(flight.payloads), 1),
        )

    def _quarantine(self, flight: _Flight, reason: str) -> None:
        """Exile this flight's tasks to the in-driver serial path.

        The driving process never installs the fault plan, so a quarantined
        task runs fault-free here; if it *still* produces an invalid result,
        :func:`validate_worker_output` raises the terminal
        :class:`EngineError`.
        """
        for payload in flight.payloads:
            record = {
                "kind": "task_quarantined",
                "stage": flight.kind,
                "workload": payload.get("workload", "?"),
                "reason": reason,
            }
            record.update(_payload_identity(payload))
            self.dispatcher.recovery.append(record)
        self._run_in_driver(flight)

    def _run_in_driver(self, flight: _Flight) -> None:
        for offset, payload in enumerate(flight.payloads):
            output = flight.worker(payload)
            validate_worker_output(flight.kind, payload, output)
            self._deliver(flight.key, flight.positions[offset], output)

    def _record_retry(self, flight: _Flight, reason: str) -> None:
        for payload in flight.payloads:
            record = {
                "kind": "task_retry",
                "stage": flight.kind,
                "workload": payload.get("workload", "?"),
                "attempt": flight.attempts,
                "reason": reason,
            }
            record.update(_payload_identity(payload))
            self.dispatcher.recovery.append(record)

    def _backoff(self, attempt: int) -> None:
        base = self.dispatcher.retry_backoff_s
        if base <= 0:
            return
        time.sleep(min(1.0, base * (2 ** max(attempt - 1, 0))))


class PoolDispatcher:
    """Owns worker-pool dispatch for one engine run."""

    def __init__(
        self,
        workers: Optional[int],
        mode: str = "streaming",
        events: Optional[EventLogger] = None,
        cost_model: Optional[CostModel] = None,
        warm_tier_root: Optional[str] = None,
        max_pool_respawns: int = 2,
        max_task_retries: int = 2,
        task_deadline_ms: int = 0,
        fault_spec: Optional[Mapping] = None,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if mode not in DISPATCH_MODES:
            raise ValueError(
                f"unknown dispatch mode {mode!r}; "
                f"expected one of {', '.join(DISPATCH_MODES)}"
            )
        self.workers = int(workers or 0)
        self.mode = mode
        #: cache root whose ``solver_warm/`` sidecars every fresh pool worker
        #: should rehydrate (None = warm tier off); forwarded as the pool
        #: initializer's argument so cold processes start warm
        self.warm_tier_root = warm_tier_root
        #: pool-lifecycle events land here (the engine passes its run logger;
        #: a standalone dispatcher gets a private stream)
        self.events = events if events is not None else EventLogger()
        #: chunk sizing and submission order (the engine passes its run
        #: model, warm-started from the cache sidecar; a standalone
        #: dispatcher learns cold within the run)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        #: supervision knobs (see the module docstring's degradation ladder)
        self.max_pool_respawns = max(0, int(max_pool_respawns))
        self.max_task_retries = max(0, int(max_task_retries))
        self.task_deadline_ms = max(0, int(task_deadline_ms))
        self.deadline_floor_s = _env_int("REPRO_DEADLINE_FLOOR_MS", 30000) / 1000.0
        self.retry_backoff_s = float(retry_backoff_s)
        #: resolved fault-plan spec shipped to pool workers (None = no plan);
        #: the driving process itself never injects
        self.fault_spec = dict(fault_spec) if fault_spec else None
        #: charged pool respawns so far (lone-probe poison respawns are free)
        self.respawns = 0
        #: buffered recovery records, replayed post-drain as events (never
        #: mid-drain: completion order must not leak into the stream)
        self.recovery: List[Dict] = []
        #: a dispatch had to fall back to serial execution (advisory; the
        #: engine's "auto" granularity reads it)
        self.pool_unavailable = False
        #: the persistent pool is gone for good: stop pooling for this run
        self._broken = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._warm_futures: List = []

    # ----------------------------------------------------------- pool lease

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def acquire(self) -> Optional[ProcessPoolExecutor]:
        """The run's persistent pool (streaming/staged mode), or None serially.

        Created once per run on first use; every later acquisition reuses it
        and counts a ``pool reuse``.  Callers that see the returned pool
        raise :class:`BrokenProcessPool`/``OSError`` must report it via
        :meth:`mark_broken` and fall back to serial execution.
        """
        if self.mode not in _PERSISTENT_MODES or not self.parallel or self._broken:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=pool_worker_initializer,
                    initargs=(self.warm_tier_root, self.fault_spec),
                )
            except OSError:
                self.mark_broken()
                return None
            self.events.emit("pool", action="created")
        else:
            self.events.emit("pool", action="reused")
        return self._pool

    def acquire_for(self, payloads: Sequence[Dict]) -> Optional[ProcessPoolExecutor]:
        """:meth:`acquire` gated on the payloads actually being poolable."""
        if not payloads:
            return None
        if not payloads_picklable(payloads):
            self.pool_unavailable = True
            return None
        return self.acquire()

    def warm(self) -> None:
        """Eagerly build the persistent pool and spin up its workers.

        Called when a run starts: submits one no-op task per worker slot
        (``ProcessPoolExecutor`` forks processes on demand, so an idle
        freshly-built pool has zero workers) and returns without waiting, so
        process spin-up and each worker's initializer run concurrently with
        the driver's cache probes instead of inside the first real task's
        measured latency.  The futures are kept and reaped non-blockingly at
        the first supervised dispatch (:meth:`supervise`): a worker that
        died during warm-up is discovered there and counted as a respawn,
        not as a surprise failure inside the first real chunk.  Counts as
        the run's single ``pool created`` event; subsequent dispatches reuse
        the warm pool and count ``pool reuse`` exactly as before.
        """
        pool = self.acquire()
        if pool is None:
            return
        try:
            self._warm_futures = [
                pool.submit(execute_noop_task, {}) for _ in range(self.workers)
            ]
        except (BrokenProcessPool, OSError, RuntimeError):
            # A worker crashing mid-warm-up can break the pool while the
            # no-ops are still being submitted; rebuild it rather than
            # giving up on pooling for the whole run.
            self._respawn("worker died during warm-up")

    def supervise(self, pool, wait_fn=None) -> PoolSupervisor:
        """A :class:`PoolSupervisor` for one drain over ``pool``.

        Reaps any outstanding warm-up futures first; a warm-up death
        respawns the pool here, before the first real chunk is submitted.
        """
        pool = self._reap_warm_futures(pool)
        return PoolSupervisor(self, pool, wait_fn)

    def _reap_warm_futures(self, pool):
        futures, self._warm_futures = self._warm_futures, []
        failed = False
        for future in futures:
            if not future.done():
                continue
            try:
                if future.exception() is not None:
                    failed = True
            except Exception:  # noqa: BLE001 - cancelled counts as failed
                failed = True
        if not failed:
            return pool
        return self._respawn("worker died during warm-up")

    def _respawn(self, reason: str, charge: bool = True):
        """Tear down and rebuild the persistent pool (the supervision path).

        Respawns re-run :func:`pool_worker_initializer` (warm tier and fault
        plan re-arm) but deliberately do **not** emit ``pool created`` or
        touch ``pools_created`` -- a streaming run still creates exactly one
        pool; recoveries are their own ``pool_respawn`` events.  Returns the
        new pool, or None once the budget is exhausted (recorded as a
        ``pool`` event with ``action=downgraded``) or the rebuild fails.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        self._warm_futures = []
        if charge:
            self.respawns += 1
            if self.respawns > self.max_pool_respawns:
                self.pool_unavailable = True
                self._broken = True
                self.recovery.append(
                    {"kind": "pool", "action": "downgraded", "reason": reason}
                )
                return None
        try:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=pool_worker_initializer,
                initargs=(self.warm_tier_root, self.fault_spec),
            )
        except OSError:
            self.pool_unavailable = True
            self._broken = True
            self.recovery.append(
                {"kind": "pool", "action": "downgraded", "reason": reason}
            )
            return None
        self.recovery.append(
            {"kind": "pool_respawn", "reason": reason, "respawns": self.respawns}
        )
        return self._pool

    def drain_recovery(self) -> None:
        """Replay buffered recovery records as events, post-drain.

        Recovery happens at nondeterministic moments mid-drain; buffering the
        records and emitting them here (exactly like ``scheduler_decision``)
        keeps the canonical event stream's order independent of completion
        interleavings.
        """
        records, self.recovery = self.recovery, []
        for record in records:
            record = dict(record)
            kind = record.pop("kind")
            self.events.emit(kind, **record)

    def mark_broken(self) -> None:
        """A pooled dispatch failed terminally: the rest of the run is serial."""
        self.pool_unavailable = True
        self._broken = True
        self.shutdown()

    def shutdown(self) -> None:
        """Tear the persistent pool down (end of the engine run)."""
        pool, self._pool = self._pool, None
        self._warm_futures = []
        if pool is not None:
            pool.shutdown(wait=True)

    # ------------------------------------------------------------- dispatch

    def map(self, payloads: Sequence[Dict], worker: Callable) -> List[Dict]:
        """Run one homogeneous work queue; results in payload order."""
        if not payloads:
            return []
        if self.parallel and len(payloads) > 1:
            if self.mode in _PERSISTENT_MODES:
                pool = self.acquire_for(payloads)
                if pool is not None:
                    try:
                        return self._map_streaming(pool, payloads, worker)
                    except (BrokenProcessPool, OSError):
                        self.mark_broken()
            elif payloads_picklable(payloads):
                try:
                    return self._map_barrier(payloads, worker)
                except (BrokenProcessPool, OSError, EngineError):
                    self.pool_unavailable = True
            else:
                self.pool_unavailable = True
        # Serial fallback: run the same chunk entry in-process -- the whole
        # queue as one chunk, so each trace's classifications share one
        # replay store -- and still feed the cost model, so a serial (or
        # cold-pool) run warms the sidecar that later parallel runs
        # schedule from.
        kind = worker_kind(worker)
        outputs = []
        for payload, output in zip(payloads, execute_payload_chunk(worker, payloads)):
            validate_worker_output(kind, payload, output)
            self.cost_model.observe_output(kind, payload_fingerprint(payload), output)
            outputs.append(output)
        return outputs

    def _map_streaming(
        self, pool: ProcessPoolExecutor, payloads: Sequence[Dict], worker: Callable
    ) -> List[Dict]:
        """Cost-packed, supervised futures on the persistent pool.

        The cost model plans the queue into chunks of roughly
        ``target_seconds`` of estimated work, ordered longest-expected-first
        so stragglers start early; each drained chunk's measured latency is
        folded back into the model and reported as a ``scheduler_decision``
        event after the drain (never during it -- completion order must not
        leak into the event stream).  The supervisor absorbs crashes, hangs
        and malformed results along the way (see the module docstring).
        """
        kind = worker_kind(worker)
        if kind == "classify":
            # Classification chunks are replay sharing units: contiguous
            # (one trace's races stay together) and sized deterministically.
            size = self.cost_model.race_chunk_size(len(payloads), self.workers)
            chunks = [
                (
                    list(range(start, min(start + size, len(payloads)))),
                    sum(
                        self.cost_model.estimate(kind, payload_fingerprint(payload))
                        for payload in payloads[start : start + size]
                    ),
                )
                for start in range(0, len(payloads), size)
            ]
        else:
            chunks = self.cost_model.pack_chunks(kind, payloads, self.workers)
        supervisor = self.supervise(pool)
        for position, (indices, estimate) in enumerate(chunks):
            supervisor.submit(
                worker, [payloads[i] for i in indices], tag=position,
                estimate=estimate,
            )
        outputs: List[Optional[Dict]] = [None] * len(payloads)
        actuals = [0.0] * len(chunks)
        while not supervisor.done:
            for position, chunk_outputs in supervisor.wait_some():
                indices, _estimate = chunks[position]
                for index, output in zip(indices, chunk_outputs):
                    outputs[index] = output
                    seconds = self.cost_model.observe_output(
                        kind, payload_fingerprint(payloads[index]), output
                    )
                    if seconds:
                        actuals[position] += seconds
        for (indices, estimate), actual in zip(chunks, actuals):
            self.events.emit(
                "scheduler_decision",
                stage=kind,
                chunk_size=len(indices),
                estimated_seconds=estimate,
                actual_seconds=actual,
            )
        self.drain_recovery()
        return outputs

    def _map_barrier(self, payloads: Sequence[Dict], worker: Callable) -> List[Dict]:
        """The legacy strategy: fresh pool, blocking map, teardown.

        One bounded fresh-pool retry per respawn budget if the pool breaks
        or a result fails validation; past that the failure propagates and
        :meth:`map` falls back to serial.
        """
        kind = worker_kind(worker)
        failures = 0
        while True:
            try:
                kwargs = {}
                if self.fault_spec:
                    kwargs = dict(
                        initializer=pool_worker_initializer,
                        initargs=(None, self.fault_spec),
                    )
                with ProcessPoolExecutor(max_workers=self.workers, **kwargs) as pool:
                    self.events.emit("pool", action="created")
                    chunksize = max(1, len(payloads) // (self.workers * 4))
                    outputs = list(pool.map(worker, payloads, chunksize=chunksize))
                for payload, output in zip(payloads, outputs):
                    validate_worker_output(kind, payload, output)
                self.drain_recovery()
                return outputs
            except (BrokenProcessPool, OSError, EngineError):
                failures += 1
                if failures > self.max_pool_respawns:
                    self.drain_recovery()
                    raise
                self.recovery.append(
                    {
                        "kind": "pool_respawn",
                        "reason": "barrier dispatch failed",
                        "respawns": failures,
                    }
                )


def payloads_picklable(payloads: Sequence[Dict]) -> bool:
    """Probe one payload per workload for picklability.

    Payloads of the same workload share their program/predicates/trace
    objects, so one representative suffices (a custom predicate closure
    would fail the probe).
    """
    representatives = {payload.get("workload"): payload for payload in payloads}
    return all(picklable(payload) for payload in representatives.values())


def picklable(*objects) -> bool:
    """Whether the payload can ship to a worker (e.g. lambda predicates can't)."""
    try:
        pickle.dumps(objects)
    except Exception:  # noqa: BLE001 - any pickling failure means serial
        return False
    return True
