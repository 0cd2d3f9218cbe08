"""Outside-in tracing: timing wrappers around each layer's public functions.

:func:`install` replaces each target function or method below -- and every
module-level alias of it inside ``repro`` -- with a wrapper that records a
span: its duration, and its self time (the duration minus the time its child
spans took).  Spans are folded into per-name totals in memory.

Install it before the engine builds its pool: pool workers are forked from
the tracing process, so they inherit the wrappers.  A worker starts with
empty totals (an at-fork hook clears them) and rewrites its running totals
to ``<span_dir>/w-<pid>.json`` after every chunk it runs; the main process
reads those files once the pool has shut down.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: (span name, module, qualified name).  The span name's first dotted part
#: is the layer it is charged to.
TARGETS = (
    ("engine.analyze", "repro.engine.engine", "AnalysisEngine.analyze_workloads"),
    ("dispatch.wait", "repro.engine.dispatch", "PoolSupervisor.wait_some"),
    ("dispatch.submit", "repro.engine.dispatch", "PoolSupervisor.submit"),
    ("dispatch.lifecycle", "repro.engine.dispatch", "PoolDispatcher.warm"),
    ("dispatch.lifecycle", "repro.engine.dispatch", "PoolDispatcher.shutdown"),
    ("dispatch.map", "repro.engine.dispatch", "PoolDispatcher.map"),
    ("tasks.chunk", "repro.engine.tasks", "execute_payload_chunk"),
    ("tasks.record", "repro.engine.tasks", "execute_record_task"),
    ("tasks.classify", "repro.engine.tasks", "execute_task"),
    ("tasks.plan", "repro.engine.tasks", "execute_plan_task"),
    ("tasks.path", "repro.engine.tasks", "execute_path_task"),
    ("cache.load", "repro.engine.cache", "TraceCache.load"),
    ("cache.load", "repro.engine.cache", "ClassificationCache.load"),
    ("cache.store", "repro.engine.cache", "TraceCache.store"),
    ("cache.store", "repro.engine.cache", "ClassificationCache.store"),
    ("record.trace", "repro.record_replay.recorder", "record_program_trace"),
    ("detect.cluster", "repro.detection.race_report", "cluster_races"),
    ("classify.race", "repro.core.classifier", "classify_race"),
    ("classify.single_stage", "repro.core.classifier", "run_single_stage"),
    ("single.classify", "repro.core.single_pre_post", "single_classify"),
    ("alternate.replay_primary", "repro.core.alternate", "replay_primary"),
    ("alternate.run_alternate", "repro.core.alternate", "run_alternate"),
    ("explore.paths", "repro.explore.paths", "MultiPathExplorer.explore"),
    ("explore.paths", "repro.explore.paths", "explore_primary"),
    ("multipath.classify", "repro.core.multi_path", "classify_multipath"),
    ("multipath.path", "repro.core.multi_path", "analyze_primary_path"),
    ("compare.outputs", "repro.core.output_comparison", "compare_symbolic"),
    ("compare.outputs", "repro.core.output_comparison", "compare_concrete"),
    ("solver.query", "repro.symex.solver", "Solver.check"),
    ("solver.query", "repro.symex.solver", "Solver.value_range"),
)


class Tracer:
    """Span totals for one process."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = span_dir
        #: the tracing (main) process; its forks are pool workers
        self.main_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: counts taken from call results (primaries found, races clustered,
        #: alternates enforced, payload bytes)
        self.counts: Dict[str, int] = defaultdict(int)
        #: per-call milliseconds of whole-race classifications
        self.race_ms: List[float] = []
        #: layer-inclusive seconds: time inside the outermost open span of
        #: each layer, so nested spans of one layer are not counted twice
        self.layer_total: Dict[str, float] = defaultdict(float)
        self.layer_depth: Dict[str, int] = defaultdict(int)
        #: child-time accumulators of the open spans, innermost last
        self.stack: List[float] = []

    def charge_to_parent(self, seconds: float) -> None:
        """Keep ``seconds`` of tracer work out of the open span's self time."""
        if self.stack:
            self.stack[-1] += seconds
        self.total["trace.bookkeeping"] += seconds

    def snapshot(self) -> Dict:
        return {
            "total": dict(self.total),
            "layer_total": dict(self.layer_total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "race_ms": list(self.race_ms),
        }

    def flush_worker(self) -> None:
        started = time.perf_counter()
        path = self.span_dir / f"w-{self.pid}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(json.dumps(self.snapshot()))
        os.replace(temp, path)
        self.charge_to_parent(time.perf_counter() - started)


#: the process's tracer; None until :func:`install`
_TRACER: Optional[Tracer] = None


def _observe(name: str, tracer: Tracer, result) -> None:
    """Counts read off a call's result."""
    if name == "detect.cluster":
        tracer.counts["detect.races"] += len(result)
    elif name == "explore.paths":
        tracer.counts["explore.primaries"] += (
            len(result) if isinstance(result, list) else int(result is not None)
        )
    elif name == "alternate.run_alternate":
        tracer.counts["alternate.enforced"] += int(bool(getattr(result, "enforced", False)))


def _wrap(name: str, fn: Callable) -> Callable:
    layer = name.split(".", 1)[0]
    observed = name in ("detect.cluster", "explore.paths", "alternate.run_alternate")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _TRACER
        if name == "dispatch.submit":
            # Size the pickled payloads outside the submit span.
            sized = time.perf_counter()
            payloads = kwargs["payloads"] if "payloads" in kwargs else args[2]
            tracer.counts["tasks.payload_bytes"] += len(pickle.dumps(payloads))
            tracer.charge_to_parent(time.perf_counter() - sized)
        tracer.stack.append(0.0)
        tracer.layer_depth[layer] += 1
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - started
            children = tracer.stack.pop()
            if tracer.stack:
                tracer.stack[-1] += duration
            tracer.total[name] += duration
            tracer.self_time[name] += duration - children
            tracer.calls[name] += 1
            tracer.layer_depth[layer] -= 1
            if not tracer.layer_depth[layer]:
                tracer.layer_total[layer] += duration
            if name == "classify.race":
                tracer.race_ms.append(duration * 1000.0)
        if observed:
            _observe(name, tracer, result)
        if name == "tasks.chunk" and tracer.pid != tracer.main_pid:
            tracer.flush_worker()
        return result

    return wrapper


def _resolve(module_name: str, qualname: str):
    owner = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute


def install(span_dir: Path) -> List[str]:
    """Trace this process and the ones it forks from now on.

    Returns the targets that no longer exist (a later change may remove a
    function; its span then reads 0).
    """
    global _TRACER
    _TRACER = Tracer(span_dir)
    os.register_at_fork(after_in_child=_TRACER.reset)
    missing = []
    for name, module_name, qualname in TARGETS:
        try:
            owner, attribute = _resolve(module_name, qualname)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{qualname}")
            continue
        wrapper = _wrap(name, original)
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            continue
        # Functions imported by name elsewhere keep their own binding.
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return missing


def main_snapshot() -> Dict:
    return _TRACER.snapshot()


def worker_snapshots(span_dir: Path) -> List[Dict]:
    return [json.loads(path.read_text()) for path in sorted(span_dir.glob("w-*.json"))]
