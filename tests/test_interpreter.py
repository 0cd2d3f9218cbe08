"""Tests for the interpreter hot path.

* **forking** -- a concrete branch outcome must not consult the solver, and
  ``ExecutionState.clone`` must share untouched containers with the fork,
  materializing only what is actually mutated afterwards, with every
  materialization counted;
* **copy-on-write against the deep copy** -- every registry workload must
  analyse exactly as it does when each fork is an eager deep copy
  (``ExecutionState.clone_eager``), the reference the COW fork replaced;
* **unobserved accesses** -- with no listener the executor builds no
  ``MemoryAccess``; a run must end exactly as it does under a listener
  that observes every access and changes nothing;
* **retired kernel knob** -- configs written while ``PortendConfig`` still
  carried an ``interp`` field must load and key the caches exactly as they
  did then, so cache directories from that time stay warm.
"""

import pytest

from repro.core.config import PortendConfig
from repro.engine.cache import ClassificationCache, TraceCache
from repro.core.portend import Portend
from repro.runtime.executor import Executor
from repro.runtime.listeners import ExecutionListener
from repro.runtime.scheduler import RoundRobinPolicy
from repro.runtime.state import ExecutionState
from repro.workloads import all_workload_names, load_workload

#: ``PortendConfig().to_dict()`` as written before the ``interp`` field was
#: removed, with the compiled kernel selected
LEGACY_CONFIG = {
    "mp": 5,
    "ma": 2,
    "symbolic_inputs": 2,
    "timeout_factor": 5,
    "max_steps_per_execution": 200000,
    "max_explored_states": 256,
    "seed": 2012,
    "solver_backend": "default",
    "interp": "compiled",
    "enable_adhoc_detection": True,
    "enable_multi_path": True,
    "enable_multi_schedule": True,
    "symbolic_output_comparison": True,
}


class TestLegacyInterpConfig:
    @pytest.fixture(autouse=True)
    def _default_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER", raising=False)

    def test_legacy_config_loads_as_the_default(self):
        config = PortendConfig.from_dict(LEGACY_CONFIG)
        assert config == PortendConfig()
        assert config.classification_fingerprint() == (
            PortendConfig().classification_fingerprint()
        )
        assert "interp" not in config.to_dict()

    def test_cache_keys_match_the_ones_written_with_the_knob(self):
        # Digests computed by the code that still had the ``interp`` field,
        # from LEGACY_CONFIG and these exact arguments.
        config = PortendConfig.from_dict(LEGACY_CONFIG)
        fingerprint = "f" * 64
        assert TraceCache.key("bbuf", {"items": 4}, config, fingerprint) == (
            "c156e84fadf19acc204e6442433f8af2a4b26d74db276b83e1b2f677e2ce4742"
        )
        assert TraceCache.key("bbuf", {"items": 4}, config, fingerprint) == (
            TraceCache.key("bbuf", {"items": 4}, PortendConfig(), fingerprint)
        )
        assert ClassificationCache.key(
            "bbuf", {"items": 4}, config, 3, fingerprint
        ) == "997a225dadf078c3dda14f7749bcea35946bd126c2219cd515ccab12142ee9af"


class _CountingSolver:
    """Wraps a solver, counting is_satisfiable calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def is_satisfiable(self, constraints, **kwargs):
        self.calls += 1
        return self.inner.is_satisfiable(constraints, **kwargs)


class TestForkSolverSkip:
    def test_concrete_false_branch_skips_the_solver(self):
        executor = Executor(load_workload("bbuf").program)
        counting = _CountingSolver(executor.solver)
        executor.solver = counting
        assert executor._side_feasible([], 0) is False
        assert counting.calls == 0

    def test_concrete_true_branch_still_consults_the_solver(self):
        # A concretely-true constraint reduces the query to
        # is_satisfiable(base), which may be UNSAT -- it must not be skipped.
        executor = Executor(load_workload("bbuf").program)
        counting = _CountingSolver(executor.solver)
        executor.solver = counting
        assert executor._side_feasible([], 1) is True
        assert counting.calls == 1


def _running_state(steps=40):
    """A mid-execution state of a workload with threads, sync and memory."""
    workload = load_workload("bbuf")
    executor = Executor(workload.program)
    state = executor.initial_state(concrete_inputs=dict(workload.inputs))
    executor.run(state, max_steps=steps)
    return executor, state


class TestCopyOnWrite:
    def test_clone_shares_untouched_containers(self):
        _, state = _running_state()
        clone = state.clone()
        assert clone.memory._globals is state.memory._globals
        assert clone.memory._arrays is state.memory._arrays
        assert clone.memory._heap is state.memory._heap
        assert clone.sync.mutexes is state.sync.mutexes
        assert clone.output_log is state.output_log
        for tid in state.threads:
            assert clone.threads[tid] is state.threads[tid]
            assert clone.threads[tid].frames is state.threads[tid].frames

    def test_mutation_materializes_only_the_touched_container(self):
        _, state = _running_state()
        clone = state.clone()
        name = next(iter(state.memory._globals))
        before = clone.counters.cow_copies
        clone.memory.store_global(name, 123)
        # Exactly the globals dict was copied; arrays, heap and sync stay
        # shared, and the parent still sees the pre-write value container.
        assert clone.memory._globals is not state.memory._globals
        assert clone.memory._arrays is state.memory._arrays
        assert clone.memory._heap is state.memory._heap
        assert clone.sync.mutexes is state.sync.mutexes
        assert clone.counters.cow_copies == before + 1
        assert state.memory.load_global(name) != 123

    def test_thread_mut_materializes_one_thread_lazily(self):
        _, state = _running_state()
        clone = state.clone()
        tids = sorted(clone.threads)
        target = tids[0]
        thread = clone.thread_mut(target)
        assert clone.threads[target] is thread
        assert thread is not state.threads[target]
        # Only the requested thread was copied.
        for tid in tids[1:]:
            assert clone.threads[tid] is state.threads[tid]
        # The parent's view of the copied thread is untouched.
        assert state.threads[target].steps == thread.steps

    def test_frame_mut_materializes_one_frame(self):
        _, state = _running_state()
        clone = state.clone()
        tid = sorted(tid for tid, t in clone.threads.items() if t.frames)[0]
        frame = clone.frame_mut(tid)
        assert clone.threads[tid].frames[-1] is frame
        assert frame is not state.threads[tid].frames[-1]

    def test_sync_materializes_whole_layer_once(self):
        _, state = _running_state()
        clone = state.clone()
        before = clone.counters.cow_copies
        mutex_name = next(iter(clone.sync.mutexes))
        first = clone.sync.mutex_mut(mutex_name)
        second = clone.sync.mutex_mut(mutex_name)
        assert first is second
        assert clone.sync.mutexes is not state.sync.mutexes
        assert clone.counters.cow_copies == before + 1

    def test_clone_eager_shares_nothing(self):
        _, state = _running_state()
        eager = state.clone_eager()
        assert eager.memory._globals is not state.memory._globals
        assert eager.memory._arrays is not state.memory._arrays
        assert eager.sync.mutexes is not state.sync.mutexes
        assert eager.output_log is not state.output_log
        for tid in state.threads:
            assert eager.threads[tid] is not state.threads[tid]

    def test_fork_counter_counts_symbolic_forks(self):
        workload = load_workload("bbuf")
        executor = Executor(workload.program)
        state = executor.initial_state(concrete_inputs=dict(workload.inputs))
        executor.run(state)
        assert executor.counters.statements == state.step_count
        assert executor.counters.forks == 0  # concrete run: no symbolic branches


def _analysis_outcome(name):
    """Everything one workload's serial analysis produces, minus timing."""
    workload = load_workload(name)
    portend = Portend(
        workload.program,
        config=PortendConfig(),
        predicates=workload.predicates,
    )
    trace = portend.record(inputs=dict(workload.inputs))
    result = portend.classify_trace(trace)
    classified = [
        {
            key: value
            for key, value in item.to_dict().items()
            if key != "analysis_seconds"
        }
        for item in result.classified
    ]
    return {
        "trace": trace.to_dict(),
        "classified": classified,
        "prune_reasons": [sorted(item.prune_reasons) for item in result.classified],
        "counters": portend.executor.counters.to_dict(),
    }


class TestCopyOnWriteAgainstEagerClone:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_every_registry_workload_matches_the_eager_clone(self, name, monkeypatch):
        cow = _analysis_outcome(name)
        monkeypatch.setattr(ExecutionState, "clone", ExecutionState.clone_eager)
        eager = _analysis_outcome(name)
        assert cow["trace"] == eager["trace"], name
        assert cow["classified"] == eager["classified"], name
        assert cow["prune_reasons"] == eager["prune_reasons"], name
        # Same statements, forks and skipped spin steps; only the lazy
        # materializations differ, and a deep copy needs none of them.
        cow_copies = cow["counters"].pop("cow_copies")
        assert eager["counters"].pop("cow_copies") <= cow_copies
        assert cow["counters"] == eager["counters"], name


class _InertListener(ExecutionListener):
    """Observes every access and changes nothing (not even spin skipping)."""

    spin_skip_safe = True

    def __init__(self):
        self.accesses = 0

    def on_access(self, state, access):
        self.accesses += 1


def _unobserved_run(name, listeners):
    """A whole run of the workload, half its inputs symbolic so it forks."""
    workload = load_workload(name)
    executor = Executor(workload.program)
    state = executor.initial_state(
        concrete_inputs=dict(workload.inputs),
        symbolic_inputs=list(workload.program.input_declarations())[:2],
    )
    result = executor.run(state, policy=RoundRobinPolicy(), listeners=listeners)
    return {
        "status": result.status,
        "steps": result.steps_executed,
        "forks": len(result.forks),
        "outcome": state.outcome,
        "outputs": state.output_summary(),
        "memory": state.memory.snapshot(),
        "path_condition": list(state.path_condition.constraints),
        "counters": executor.counters.to_dict(),
    }


class TestUnobservedAccesses:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_run_matches_the_run_under_an_inert_listener(self, name):
        inert = _InertListener()
        observed = _unobserved_run(name, [inert])
        assert inert.accesses > 0
        assert _unobserved_run(name, []) == observed, name
