"""Online task-cost model for the adaptive scheduler.

The dispatcher used to size chunks with static width math (``len // 4·workers``
for wide queues, pool width for path batches): correct on homogeneous queues,
wasteful on skewed ones, where a chunk that happened to collect the expensive
tasks runs long after the rest of the pool drained.  This module replaces the
static guesses with an **online cost model**: every finished task's
``task_finish`` latency (already measured by the structured event log) is
folded into an exponentially-weighted moving average keyed by
``(task kind, workload fingerprint)``, and the scheduler asks the model two
questions:

* *how big should a chunk be* so that it runs for roughly
  :attr:`CostModel.target_seconds` (big enough to amortize pickling, small
  enough that the tail of the queue still load-balances), and
* *which payload should go first* (longest-expected-first, so stragglers
  start early instead of anchoring the tail).

Estimates are advisory only -- they change *where and in what batch* a task
runs, never what it computes -- so a cold, empty, or wildly wrong model
cannot affect verdicts, only wall-clock.

Beyond latency, the model keeps **primary-count history**: every landed
plan's ``path_count`` is folded into an EWMA keyed by
``(workload fingerprint, race id)`` with a per-workload aggregate fallback.
The scheduler uses it twice -- ``choose_granularity`` weighs the expected
cost of splitting a race against classifying it whole, and the streaming
engine pre-submits *speculative* PathTasks for the predicted K primaries
before the plan lands (see ``docs/engine.md``).  Predictions, like latency
estimates, are advisory: a wrong prediction wastes scheduling, never
changes a verdict.

**Sidecar warm start.**  When the engine runs with a cache directory, the
model persists its table to ``<cache_dir>/costmodel.json`` next to the
classification cache, and repeat runs schedule well from the first task
instead of re-learning the batch.  Format (version 1)::

    {"version": 1, "alpha": 0.3,
     "entries": {"<kind>|<fingerprint>": {"ewma": 0.012, "count": 7}, ...},
     "primaries": {"<fingerprint>#<race_id>": {"ewma": 3.0, "count": 2},
                   "<fingerprint>": {"ewma": 3.0, "count": 2}, ...}}

The ``primaries`` block is optional (older sidecars lack it and simply
start with cold predictions).  The sidecar is best-effort in both
directions: an unreadable or version-mismatched file is ignored (cold
start), and a failed save is swallowed (the run's results are already
safe).

**Capped eviction.**  ``save`` prunes both tables to
:data:`SIDECAR_MAX_ENTRIES` highest-observation-count keys via
:func:`prune_scored` -- the same helper the engine uses to cap the warm
tier's sidecar directory -- so a long-lived cache directory that has seen
hundreds of programs never grows its sidecars without bound.

**Chunk-size invariants.**  ``chunk_size``/``pack_chunks`` guarantee at least
``min(count, 2 * workers)`` chunks whenever the queue has at least two tasks
per worker, and at least ``min(count, workers)`` chunks always -- this is
the fix for the old wide-queue fallback, under which a batch needing
irregular time per task could load-balance badly across the pool.  The upper
bound is ``max(1, count // (workers * waves))`` payloads per chunk, so no
single chunk can serialize the whole queue onto one worker.

**Race-granularity classification chunks** are the exception to cost-model
sizing: :meth:`CostModel.race_chunk_size` is that upper bound alone.  Such a
chunk is a primary replay sharing unit (one replay pass serves all of a
trace's races in it), so where its boundaries fall decides which task runs
each pass and what each task's ``interp_stats`` counters say.  They must be
a pure function of the queue length and the worker count, never of EWMA
state that evolved in completion order.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

#: sidecar schema version (bump on incompatible change; old files are ignored)
SIDECAR_VERSION = 1

#: keys kept per sidecar table after capped eviction on save
SIDECAR_MAX_ENTRIES = 512

_K = TypeVar("_K")
_V = TypeVar("_V")


def prune_scored(
    items: Mapping[_K, _V], limit: int, score: Callable[[_K, _V], float]
) -> Dict[_K, _V]:
    """Keep the ``limit`` highest-scoring items (ties broken by key order).

    The shared eviction primitive for every persisted scheduler sidecar:
    the cost model prunes its tables by observation count, and the engine
    prunes the warm-tier sidecar directory by file recency.  Deterministic
    -- equal inputs produce equal survivor sets.
    """
    if limit <= 0:
        return {}
    if len(items) <= limit:
        return dict(items)
    ranked = sorted(items.items(), key=lambda kv: (-score(kv[0], kv[1]), str(kv[0])))
    return dict(sorted(ranked[:limit], key=lambda kv: str(kv[0])))

#: default EWMA smoothing factor: new observations carry 30% weight, so the
#: model adapts within a few tasks without thrashing on one outlier
DEFAULT_ALPHA = 0.3

#: default per-chunk wall-clock target (seconds); the ISSUE's ~250ms-1s band
DEFAULT_TARGET_SECONDS = 0.5


def payload_fingerprint(payload: Mapping) -> str:
    """The cost-model key fragment for one task payload.

    Prefers the program content fingerprint (stable across runs and shared
    by every task of a workload); falls back to the workload name, which is
    equally stable though not content-addressed.
    """
    return str(payload.get("program_fingerprint") or payload.get("workload") or "")


class CostModel:
    """EWMA cost estimates per (task kind, workload fingerprint).

    Thread-compatible with the engine's single-threaded scheduler loop: all
    mutation happens in the driving process as results are collected.
    """

    def __init__(
        self,
        target_seconds: float = DEFAULT_TARGET_SECONDS,
        alpha: float = DEFAULT_ALPHA,
        sidecar_path: Optional[str] = None,
    ) -> None:
        self.target_seconds = max(0.001, float(target_seconds))
        self.alpha = alpha
        self.sidecar_path = sidecar_path
        #: ("kind|fingerprint") -> [ewma_seconds, observation_count]
        self._entries: Dict[str, List[float]] = {}
        #: per-kind aggregate, the fallback for unseen fingerprints
        self._kinds: Dict[str, List[float]] = {}
        #: primary-count history: "<fingerprint>#<race_id>" (and the bare
        #: "<fingerprint>" aggregate) -> [ewma_path_count, observation_count]
        self._primaries: Dict[str, List[float]] = {}
        #: entries loaded from the sidecar (diagnostics / tests)
        self.warm_entries = 0
        if sidecar_path:
            self.load()

    # ------------------------------------------------------------ observation

    @staticmethod
    def _key(kind: str, fingerprint: str) -> str:
        return f"{kind}|{fingerprint}"

    def _fold(self, table: Dict[str, List[float]], key: str, seconds: float) -> None:
        entry = table.get(key)
        if entry is None:
            table[key] = [seconds, 1]
        else:
            entry[0] += self.alpha * (seconds - entry[0])
            entry[1] += 1

    def observe(self, kind: str, fingerprint: str, seconds: float) -> None:
        """Fold one finished task's wall-clock seconds into the model."""
        if seconds < 0:
            return
        self._fold(self._entries, self._key(kind, fingerprint), seconds)
        self._fold(self._kinds, kind, seconds)

    def observe_output(
        self, kind: str, fingerprint: str, output: Optional[Mapping]
    ) -> Optional[float]:
        """Extract a task result's measured latency and fold it in.

        Task results carry their worker-side ``task_finish`` event (the same
        latency ``events-info`` histograms); outputs without one (e.g. cache
        hits) are ignored.  Returns the observed seconds, or None.
        """
        seconds = self.output_seconds(output)
        if seconds is not None:
            self.observe(kind, fingerprint, seconds)
        return seconds

    @staticmethod
    def _primary_key(fingerprint: str, race_id: int) -> str:
        return f"{fingerprint}#{int(race_id)}"

    def observe_plan(self, fingerprint: str, race_id: int, path_count: int) -> None:
        """Fold one landed plan's primary count into the history.

        Conclusive races observe 0 paths, so the predictor also learns
        *not* to speculate on races whose single-stage analysis keeps
        settling them.
        """
        if not fingerprint or path_count < 0:
            return
        self._fold(self._primaries, self._primary_key(fingerprint, race_id), float(path_count))
        self._fold(self._primaries, fingerprint, float(path_count))

    def predict_primaries(
        self,
        fingerprint: str,
        race_id: int,
        table: Optional[Mapping[str, List[float]]] = None,
    ) -> int:
        """Predicted primary-path count for one race (0 when cold).

        ``table`` lets the streaming scheduler pass a snapshot frozen at
        drain start, so predictions do not drift with the completion order
        of the very plans they race against (that would make speculation
        non-deterministic across interleavings).
        """
        table = self._primaries if table is None else table
        entry = table.get(self._primary_key(fingerprint, race_id))
        if entry is None:
            entry = table.get(fingerprint)
        if not entry:
            return 0
        return max(0, int(round(entry[0])))

    def primaries_snapshot(self) -> Dict[str, List[float]]:
        """Copy of the primary-count table (freeze before a streaming drain)."""
        return {key: list(entry) for key, entry in self._primaries.items()}

    def split_costs(self, fingerprint: str) -> Tuple[float, float]:
        """(whole-race cost, split critical-path cost) for one workload.

        The split cost is the expected latency of the plan-then-paths
        pipeline for a single race: the plan plus one path slice (paths run
        in parallel, so one slice approximates the critical path).  Both
        are 0.0 when the model is cold, which callers must treat as "no
        opinion".
        """
        race_cost = self.estimate("classify", fingerprint)
        plan_cost = self.estimate("plan", fingerprint)
        path_cost = self.estimate("path", fingerprint)
        if plan_cost <= 0 and path_cost <= 0:
            return race_cost, 0.0
        return race_cost, plan_cost + path_cost

    @staticmethod
    def output_seconds(output: Optional[Mapping]) -> Optional[float]:
        """The worker-measured wall-clock seconds of one task output."""
        if not output:
            return None
        for event in reversed(output.get("events") or ()):
            if event.get("kind") == "task_finish":
                return float(event.get("seconds", 0.0))
        seconds = output.get("seconds")
        return float(seconds) if seconds is not None else None

    # ------------------------------------------------------------- estimation

    def estimate(self, kind: str, fingerprint: str) -> float:
        """Expected seconds for one task, or 0.0 when the model is cold."""
        entry = self._entries.get(self._key(kind, fingerprint))
        if entry is None:
            entry = self._kinds.get(kind)
        return entry[0] if entry else 0.0

    def _chunk_upper(self, count: int, workers: int) -> int:
        """Max payloads per chunk: never fewer than ``workers`` chunks, and
        two waves per worker when the queue is at least two-per-worker deep
        (stragglers then leave the pool idle for at most one chunk).

        Floor division, not ceiling: ``ceil(6 / 4)`` would pack chunks of 2
        and leave a 4-worker pool with only 3 chunks, violating the
        at-least-``min(count, workers)``-chunks invariant."""
        waves = 2 if count >= 2 * workers else 1
        return max(1, count // (workers * waves))

    def race_chunk_size(self, count: int, workers: int) -> int:
        """Payloads per race-granularity classification chunk (see the
        module docstring): deterministic, never cost-sized."""
        return self._chunk_upper(count, max(1, workers))

    def chunk_size(
        self, kind: str, fingerprint: str, count: int, workers: int
    ) -> int:
        """Payloads per chunk for a homogeneous queue of ``count`` tasks.

        With a warm estimate the chunk targets ``target_seconds`` of work;
        cold, it falls back to the legacy ``count // 4·workers`` heuristic.
        Either way the result is clamped to the invariant bounds described
        in the module docstring.
        """
        if count <= 0:
            return 1
        workers = max(1, workers)
        upper = self._chunk_upper(count, workers)
        estimate = self.estimate(kind, fingerprint)
        if estimate > 0:
            size = int(self.target_seconds / estimate)
        else:
            size = count // (workers * 4)
        return max(1, min(size, upper))

    def pack_chunks(
        self, kind: str, payloads: Sequence[Mapping], workers: int
    ) -> List[Tuple[List[int], float]]:
        """Plan a heterogeneous queue into cost-targeted chunks.

        Returns ``[(payload_indices, estimated_seconds), ...]`` ordered
        longest-expected-first, so the most expensive work is submitted (and
        therefore started) earliest.  Each chunk closes when its estimated
        cost reaches :attr:`target_seconds` or its size reaches the
        ``ceil(count / workers·waves)`` upper bound -- cold estimates close
        on size alone, which preserves the at-least-``min(count, workers)``
        chunk-count invariant.
        """
        count = len(payloads)
        if not count:
            return []
        workers = max(1, workers)
        upper = self._chunk_upper(count, workers)
        estimates = [
            self.estimate(kind, payload_fingerprint(payload)) for payload in payloads
        ]
        order = sorted(range(count), key=lambda i: -estimates[i])
        chunks: List[Tuple[List[int], float]] = []
        indices: List[int] = []
        cost = 0.0
        for position in order:
            indices.append(position)
            cost += estimates[position]
            if len(indices) >= upper or cost >= self.target_seconds:
                chunks.append((indices, cost))
                indices, cost = [], 0.0
        if indices:
            chunks.append((indices, cost))
        return chunks

    # --------------------------------------------------------------- sidecar

    def load(self, path: Optional[str] = None) -> int:
        """Warm-start from a sidecar file; returns the entries loaded."""
        path = path or self.sidecar_path
        if not path:
            return 0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return 0
        if not isinstance(data, dict) or data.get("version") != SIDECAR_VERSION:
            return 0
        loaded = 0
        for key, entry in (data.get("entries") or {}).items():
            try:
                ewma = float(entry["ewma"])
                count = int(entry["count"])
            except (KeyError, TypeError, ValueError):
                continue
            if ewma < 0 or count <= 0 or "|" not in key:
                continue
            self._entries[key] = [ewma, count]
            kind = key.split("|", 1)[0]
            # Rebuild the per-kind fallback as a mean of the loaded EWMAs.
            aggregate = self._kinds.setdefault(kind, [0.0, 0])
            aggregate[0] = (aggregate[0] * aggregate[1] + ewma) / (aggregate[1] + 1)
            aggregate[1] += 1
            loaded += 1
        for key, entry in (data.get("primaries") or {}).items():
            try:
                ewma = float(entry["ewma"])
                count = int(entry["count"])
            except (KeyError, TypeError, ValueError):
                continue
            if ewma < 0 or count <= 0:
                continue
            self._primaries[key] = [ewma, count]
        self.warm_entries = loaded
        return loaded

    def save(self, path: Optional[str] = None) -> bool:
        """Persist the tables next to the caches (atomic, best-effort).

        Both tables are pruned to :data:`SIDECAR_MAX_ENTRIES` keys by
        observation count first, so stale program fingerprints age out of
        the sidecar instead of accumulating forever.
        """
        path = path or self.sidecar_path
        if not path:
            return False
        by_count = lambda _key, entry: float(entry[1])
        self._entries = prune_scored(self._entries, SIDECAR_MAX_ENTRIES, by_count)
        self._primaries = prune_scored(self._primaries, SIDECAR_MAX_ENTRIES, by_count)
        data = {
            "version": SIDECAR_VERSION,
            "alpha": self.alpha,
            "entries": {
                key: {"ewma": entry[0], "count": int(entry[1])}
                for key, entry in sorted(self._entries.items())
            },
            "primaries": {
                key: {"ewma": entry[0], "count": int(entry[1])}
                for key, entry in sorted(self._primaries.items())
            },
        }
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            fd, temp_path = tempfile.mkstemp(
                dir=os.path.dirname(path) or ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(data, handle, sort_keys=True)
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True
