"""Tests for exploration sharing: one multi-path search per sharing unit.

The races of a unit (one trace's queue when serial, one race-granularity
chunk on the pool) read one breadth-first search, an
:class:`~repro.explore.paths.ExplorationLog`, instead of each running its
own.  Every race must still get exactly what a search of its own gives:
the same primary paths with the same indices, the same state counts and
the same prune diagnostics, in whatever order the unit's races ask.  The
registry alone cannot show that -- there, all races of a trace stop at the
same depth and no path diverges from the schedule -- so small programs
build the units where races part ways.
"""

from dataclasses import replace

import pytest

from repro.core import Portend, PortendConfig
from repro.core.alternate import PrimaryReplayStore
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.events import render_events_info
from repro.explore.paths import ExplorationLogs, MultiPathExplorer, explore_primary
from repro.lang import ProgramBuilder
from repro.lang.ast import ge, glob, local
from repro.runtime.executor import Executor
from repro.workloads import all_workload_names, load_workload
from repro.workloads.stress import build_stress


def _gated_fan():
    """Two races, ``hot`` reached on every path and ``cold`` only when
    ``a >= 2``: four paths, so the two races stop at different depths."""
    b = ProgramBuilder("gated-fan")
    b.global_var("hot", 0)
    b.global_var("cold", 0)
    worker = b.function("worker")
    worker.assign(glob("hot"), 1)
    worker.assign(glob("cold"), 1)
    worker.ret()
    main = b.function("main")
    main.input("a", "a", 0, 3, default=3)
    main.input("b", "b", 0, 3, default=3)
    main.spawn("t", "worker")
    with main.if_(ge(local("b"), 2)):
        main.assign(local("wide"), 1)
    main.assign(local("seen_hot"), glob("hot"))
    with main.if_(ge(local("a"), 2)):
        main.assign(local("seen_cold"), glob("cold"))
    main.join(local("t"))
    main.output("stdout", [local("seen_hot")])
    main.ret()
    return b.build(), {"a": 3, "b": 3}


def _split_divergence():
    """With ``mode >= 1`` the worker's extra locking exhausts the recorded
    schedule between its write of ``early`` and its write of ``late``: the
    same path diverges after the ``early`` race and before the ``late`` one."""
    b = ProgramBuilder("split-divergence")
    b.global_var("early", 0)
    b.global_var("late", 0)
    b.mutex("m")
    worker = b.function("worker", ["mode"])
    worker.assign(glob("early"), 1)
    with worker.if_(ge(local("mode"), 1)):
        for _ in range(2):
            worker.lock("m")
            worker.unlock("m")
    worker.assign(glob("late"), 1)
    worker.ret()
    main = b.function("main")
    main.input("mode", "mode", 0, 3, default=0)
    main.spawn("t", "worker", [local("mode")])
    main.assign(local("seen_early"), glob("early"))
    main.assign(local("seen_late"), glob("late"))
    main.join(local("t"))
    main.output("stdout", [local("seen_early"), local("seen_late")])
    main.ret()
    return b.build(), {"mode": 0}


def _record(program, inputs):
    portend = Portend(program)
    return portend, portend.record(inputs)


def _race(trace, name):
    (race,) = [race for race in trace.races if race.location.name == name]
    return race


def _explore(portend, trace, race, explorations=None, executor=None, **knobs):
    """One race's exploration, as everything a caller can observe."""
    explorer = MultiPathExplorer.for_config(
        executor or portend.executor,
        portend.program,
        trace,
        race,
        PortendConfig(),
        max_primaries=knobs.get("max_primaries"),
        explorations=explorations,
    )
    explorer.max_states = knobs.get("max_states", explorer.max_states)
    primaries = explorer.explore()
    return {
        "paths": [path.to_dict() for path in primaries],
        "states_explored": explorer.states_explored,
        "states_pruned": explorer.states_pruned,
        "prune_reasons": list(explorer.prune_reasons),
    }


def _alone_and_shared(portend, trace, requests):
    """Each request ``(race, knobs)`` explored alone, then through one unit
    in the given order and in reverse; returns the three lists, in request
    order."""
    alone = [_explore(portend, trace, race, **knobs) for race, knobs in requests]
    shared = []
    for order in (requests, requests[::-1]):
        logs = ExplorationLogs(race.race_id for race, _ in order)
        outcomes = [
            _explore(portend, trace, race, explorations=logs, **knobs)
            for race, knobs in order
        ]
        shared.append(outcomes if order is requests else outcomes[::-1])
    return alone, shared[0], shared[1]


class TestRegistryUnits:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_unit_of_every_race_equals_units_of_one(self, name):
        workload = load_workload(name)
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        requests = [(race, {}) for race in trace.races]
        alone, forward, backward = _alone_and_shared(portend, trace, requests)
        assert forward == alone, name
        assert backward == alone, name

    @pytest.mark.parametrize("name", ["bbuf", "ctrace", "stress_deep"])
    def test_the_unit_runs_each_state_once(self, name):
        workload = load_workload(name)
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        logs = ExplorationLogs(race.race_id for race in trace.races)
        depths = [
            _explore(portend, trace, race, explorations=logs)["states_explored"]
            for race in trace.races
        ]
        # One run, by the first race, as deep as the deepest race needed.
        assert len(logs.runs) == 1
        assert logs.runs[0] == {"races": len(trace.races), "states": max(depths)}


class TestAdversarialUnits:
    def test_races_stopping_at_different_depths(self):
        portend, trace = _record(*_gated_fan())
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        requests = [(hot, {"max_primaries": 3}), (cold, {"max_primaries": 3})]
        alone, forward, backward = _alone_and_shared(portend, trace, requests)
        # hot stops at the Mp cut, cold runs the search dry deeper down.
        assert [o["states_explored"] for o in alone] == [3, 4]
        assert len(alone[0]["paths"]) == 3 and len(alone[1]["paths"]) == 2
        assert forward == alone
        assert backward == alone

    def test_mp_cut_below_an_earlier_deeper_race(self):
        portend, trace = _record(*_gated_fan())
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        requests = [
            (cold, {}),
            (hot, {"max_primaries": 1}),
            (hot, {"max_primaries": 2}),
        ]
        alone, forward, backward = _alone_and_shared(portend, trace, requests)
        assert [o["states_explored"] for o in alone] == [4, 1, 2]
        assert forward == alone
        assert backward == alone

    def test_max_states_cut(self):
        portend, trace = _record(*_gated_fan())
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        requests = [(cold, {"max_states": 2}), (hot, {}), (cold, {"max_states": 3})]
        alone, forward, backward = _alone_and_shared(portend, trace, requests)
        assert [o["states_explored"] for o in alone] == [2, 4, 3]
        assert forward == alone
        assert backward == alone

    def test_race_never_reached(self):
        portend, trace = _record(*_gated_fan())
        hot = _race(trace, "hot")
        # A race whose first access sits at a statement no thread runs.
        ghost = replace(hot, race_id=99, first=replace(hot.first, pc=-1))
        trace.races.append(ghost)
        requests = [(hot, {}), (ghost, {}), (_race(trace, "cold"), {})]
        alone, forward, backward = _alone_and_shared(portend, trace, requests)
        assert alone[1]["paths"] == []
        assert alone[1]["states_pruned"] == alone[1]["states_explored"] == 4
        assert all(
            "never exercised the target race" in reason
            for reason in alone[1]["prune_reasons"]
        )
        assert forward == alone
        assert backward == alone

    def test_one_divergence_prunes_one_race_and_keeps_the_other(self):
        portend, trace = _record(*_split_divergence())
        early, late = _race(trace, "early"), _race(trace, "late")
        alone, forward, backward = _alone_and_shared(
            portend, trace, [(early, {}), (late, {})]
        )
        # State 1 runs mode >= 1: kept for early (it diverged after that
        # race), pruned for late (it diverged before it).
        kept = alone[0]["paths"][0]
        assert kept["diverged_after_race"] is True
        assert kept["concrete_inputs"] == {"mode": 1}
        assert alone[1]["prune_reasons"] == [
            "state 1: schedule diverged before the race at step 7: "
            "recorded schedule exhausted"
        ]
        assert forward == alone
        assert backward == alone

    def test_explore_primary_prefix_property_in_a_unit(self):
        portend, trace = _record(*_gated_fan())
        config = PortendConfig()
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        full = _explore(portend, trace, hot)["paths"]
        assert len(full) == 4
        logs = ExplorationLogs([hot.race_id, cold.race_id])
        # Re-derive hot's paths last-first and first-last through one unit:
        # the log is deeper than some requests need and shallower than others.
        for index in (1, 0, 3, 2):
            path = explore_primary(
                portend.executor, portend.program, trace, hot, config, index,
                explorations=logs,
            )
            assert path.to_dict() == full[index]
        assert explore_primary(
            portend.executor, portend.program, trace, hot, config, 4, explorations=logs
        ) is None
        assert explore_primary(
            portend.executor, portend.program, trace, cold, config, 1, explorations=logs
        ).to_dict() == _explore(portend, trace, cold)["paths"][1]

    def test_a_race_the_unit_did_not_name_gets_its_own_log(self):
        portend, trace = _record(*_gated_fan())
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        logs = ExplorationLogs([hot.race_id])
        assert _explore(portend, trace, hot, explorations=logs) == _explore(
            portend, trace, hot
        )
        assert _explore(portend, trace, cold, explorations=logs) == _explore(
            portend, trace, cold
        )
        assert [run["races"] for run in logs.runs] == [1, 2]


class TestUnitLifecycle:
    def test_the_extending_race_runs_on_its_own_executor(self):
        portend, trace = _record(*_gated_fan())
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        logs = ExplorationLogs([hot.race_id, cold.race_id])
        first, second, third = (Executor(portend.program) for _ in range(3))
        _explore(portend, trace, hot, logs, executor=first, max_primaries=1)
        _explore(portend, trace, hot, logs, executor=second, max_primaries=1)
        _explore(portend, trace, cold, logs, executor=third)
        assert first.counters.statements > 0
        assert second.counters.statements == 0  # served from the log
        assert third.counters.statements > 0  # ran states 2-4 itself
        assert [run["states"] for run in logs.runs] == [1, 3]
        alone = Executor(portend.program)
        _explore(portend, trace, cold, executor=alone)
        assert (
            first.counters.statements + third.counters.statements
            == alone.counters.statements
        )

    def test_the_log_goes_with_the_units_last_race(self):
        portend, trace = _record(*_gated_fan())
        hot, cold = _race(trace, "hot"), _race(trace, "cold")
        store = PrimaryReplayStore([hot.race_id, cold.race_id])
        _explore(portend, trace, hot, store.explorations)
        assert len(store.explorations) == 1
        store.release(hot.race_id)
        assert len(store.explorations) == 1
        store.release(cold.race_id)
        assert len(store.explorations) == 0

    def test_serial_engine_explores_a_trace_once(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze_workloads([build_stress(races=6)])
        assert engine.last_run_stats.explorations == 1
        assert "explorations=1 " in render_events_info(engine.last_run_events)
