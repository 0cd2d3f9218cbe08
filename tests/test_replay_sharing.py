"""Primary replay sharing: one replay pass serves every race of a unit.

:func:`replay_primaries` must give each race exactly what the per-race
reference :func:`replay_primary` gives it -- same reach, same step count,
same pre-race checkpoint, same post-race snapshot, same final outputs --
on every registry workload and on the edge cases of merging stops (shared
first accesses, late-armed post-race points, synchronisation statements,
spec violations, unreached races and cut step budgets).  The engine-level
gates then pin the work the sharing removes.
"""

import dataclasses

import pytest

from repro.core import Portend
from repro.core.alternate import (
    PrimaryReplayStore,
    replay_passes,
    replay_primaries,
    replay_primary,
    run_alternate,
)
from repro.core.config import PortendConfig
from repro.core.spec import SemanticPredicate
from repro.detection.race_report import RaceReport
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.events import render_events_info
from repro.lang import ProgramBuilder
from repro.lang.ast import Yield, add, ge, glob, local, lt
from repro.runtime.errors import OutcomeKind
from repro.workloads import all_workload_names, load_workload


def _memory(state):
    return None if state is None else (state.step_count, state.memory.snapshot())


def assert_same_replays(portend, trace, races, inputs=None, predicates=(), **kwargs):
    """The one-pass replays of ``races`` equal their per-race replays."""
    shared = replay_primaries(
        portend.executor, trace, races, inputs=inputs, predicates=predicates, **kwargs
    )
    assert sorted(shared) == sorted(race.race_id for race in races)
    for race in races:
        reference = replay_primary(
            portend.executor,
            portend.program,
            trace,
            race,
            concrete_inputs=inputs,
            predicates=predicates,
            **kwargs,
        )
        got = shared[race.race_id]
        assert got.reached_race == reference.reached_race, race.race_id
        assert got.steps == reference.steps, race.race_id
        assert _memory(got.pre_race_checkpoint) == _memory(
            reference.pre_race_checkpoint
        ), race.race_id
        assert got.post_race_snapshot == reference.post_race_snapshot, race.race_id
        assert (
            got.final_state.output_log == reference.final_state.output_log
        ), race.race_id
        assert got.outcome == reference.outcome, race.race_id
    return shared


def _shared_first_program():
    """``copier`` runs ``a = b + 1``: its one statement is the first access
    of two races, one on ``b`` and one on ``a``."""
    b = ProgramBuilder("shared-first")
    b.global_var("a", 0)
    b.global_var("b", 0)
    copier = b.function("copier")
    copier.assign(glob("a"), add(glob("b"), 1))
    copier.ret()
    writer = b.function("bwriter")
    writer.assign(glob("b"), 5)
    writer.ret()
    reader = b.function("areader")
    reader.assign(local("v"), glob("a"))
    reader.output("stdout", [local("v")])
    reader.ret()
    main = b.function("main")
    main.spawn("x", "copier")
    main.spawn("y", "bwriter")
    main.spawn("z", "areader")
    main.join(local("x"))
    main.join(local("y"))
    main.join(local("z"))
    main.output("stdout", [glob("a"), glob("b")])
    main.ret()
    return b.build()


def _loop_reader_program():
    """``reader`` reads ``x`` in a yielding loop; ``writer`` writes it once,
    between the reader's iterations."""
    b = ProgramBuilder("loop-second")
    b.global_var("x", 0)
    writer = b.function("writer")
    writer.assign(glob("x"), 1)
    writer.ret()
    reader = b.function("reader")
    reader.assign(local("i"), 0)
    with reader.while_(lt(local("i"), 3)):
        reader.assign(local("v"), glob("x"))
        reader.assign(local("i"), add(local("i"), 1))
        reader.yield_()
    reader.output("stdout", [local("v")])
    reader.ret()
    main = b.function("main")
    main.spawn("r", "reader")
    main.spawn("w", "writer")
    main.join(local("r"))
    main.join(local("w"))
    main.ret()
    return b.build()


def _late_race(trace):
    """The loop program's writer→reader instance as a race of its own: its
    second pc (the reader's read) also executes before its first access."""
    instance = next(
        item for item in trace.races[0].instances if item.first.is_write
    )
    assert instance.second.step > instance.first.step
    return RaceReport(99, trace.program, instance.first, instance.second, [instance])


class TestOnePassEqualsPerRaceReplays:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_registry_workload(self, name):
        workload = load_workload(name)
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)
        assert_same_replays(
            portend,
            trace,
            trace.races,
            predicates=workload.predicates,
            max_steps=PortendConfig().max_steps_per_execution,
        )

    def test_races_sharing_a_first_access_share_one_checkpoint(self):
        portend = Portend(_shared_first_program())
        trace = portend.record({})
        firsts = {(r.first.tid, r.first.pc, r.first.step) for r in trace.races}
        assert len(trace.races) == 2 and len(firsts) == 1
        shared = assert_same_replays(portend, trace, trace.races)
        one, two = (shared[race.race_id] for race in trace.races)
        assert one.pre_race_checkpoint is two.pre_race_checkpoint
        assert one.final_state is two.final_state

    @pytest.mark.parametrize("use_steps", [True, False])
    def test_post_race_point_is_armed_only_after_the_pre_race_stop(self, use_steps):
        portend = Portend(_loop_reader_program())
        trace = portend.record({})
        late = _late_race(trace)
        shared = assert_same_replays(
            portend, trace, [trace.races[0], late], use_steps=use_steps
        )
        assert shared[late.race_id].post_race_snapshot is not None

    def test_race_whose_first_access_is_a_sync_statement_replays_alone(self):
        # Resuming before a synchronisation statement consumes a recorded
        # decision, so sharing that stop would change the other races'
        # replays (their pre-race points move); the race gets its own pass.
        portend = Portend(_loop_reader_program())
        trace = portend.record({})
        program = portend.program
        yield_pc = next(
            pc
            for pc in range(1, program.statement_count() + 1)
            if isinstance(program.statement_at(pc), Yield)
        )
        late = _late_race(trace)
        sync_first = RaceReport(
            100,
            trace.program,
            dataclasses.replace(late.second, pc=yield_pc, step=7),
            late.first,
        )
        races = [trace.races[0], late, sync_first]
        assert replay_passes(program, races) == [races[:2], [sync_first]]
        for use_steps in (True, False):
            assert_same_replays(portend, trace, races, use_steps=use_steps)

    def test_spec_violation_before_the_race_points(self):
        # ``guard`` is written before the racing read: the predicate ends
        # the replay early and every race is unreached.
        early = SemanticPredicate(
            "guard stays 0", lambda state: state.memory.load_global("guard") == 0
        )
        b = ProgramBuilder("early-violation")
        b.global_var("guard", 0)
        b.global_var("shared", 0)
        worker = b.function("worker")
        worker.assign(glob("shared"), 1)
        worker.ret()
        main = b.function("main")
        main.spawn("t", "worker")
        main.assign(glob("guard"), 1)
        main.assign(local("v"), glob("shared"))
        main.join(local("t"))
        main.ret()
        portend = Portend(b.build())
        trace = portend.record({})
        assert trace.races
        shared = assert_same_replays(portend, trace, trace.races, predicates=[early])
        for replay in shared.values():
            assert not replay.reached_race
            assert replay.outcome.kind is OutcomeKind.CRASH

    def test_unreached_race(self):
        b = ProgramBuilder("gated")
        b.global_var("shared", 0)
        worker = b.function("worker")
        worker.assign(glob("shared"), 1)
        worker.ret()
        main = b.function("main")
        main.input("mode", "mode", 0, 3, default=1)
        main.spawn("t", "worker")
        with main.if_(ge(local("mode"), 1)):
            main.assign(local("snap"), glob("shared"))
        main.join(local("t"))
        main.output("stdout", [local("mode")])
        main.ret()
        portend = Portend(b.build())
        trace = portend.record({"mode": 1})
        assert trace.races
        shared = assert_same_replays(
            portend, trace, trace.races, inputs={"mode": 0}, use_steps=False
        )
        assert not any(replay.reached_race for replay in shared.values())

    @pytest.mark.parametrize("build", [_shared_first_program, _loop_reader_program])
    def test_step_budget_cut_matches_each_phase_budget(self, build):
        # Each phase of a per-race replay has its own budget, so a budget
        # that cuts the trace ends each race's replay at a different step.
        portend = Portend(build())
        trace = portend.record({})
        races = list(trace.races)
        if build is _loop_reader_program:
            races.append(_late_race(trace))
        cut = False
        for budget in range(1, trace.step_count + 3):
            shared = assert_same_replays(portend, trace, races, max_steps=budget)
            cut = cut or any(replay.outcome is None for replay in shared.values())
        assert cut


class TestReplayStore:
    def test_one_pass_per_input_set_and_release(self):
        portend = Portend(_shared_first_program())
        trace = portend.record({})
        one, two = trace.races
        store = PrimaryReplayStore([one.race_id, two.race_id])
        first = store.replay(portend.executor, trace, one)
        assert store.replay(portend.executor, trace, two).final_state is first.final_state
        assert store.replay(portend.executor, trace, one) is first
        assert store.pass_log == [{"races": 2, "trace_inputs": True}]
        # Other inputs (or the step-free locator) are a pass of their own.
        store.replay(portend.executor, trace, one, use_steps=False)
        assert store.pass_log[-1] == {"races": 2, "trace_inputs": False}
        store.release(one.race_id)
        store.replay(portend.executor, trace, two)
        assert len(store.pass_log) == 2
        store.release(two.race_id)
        assert not store._passes

    def test_alternate_statements_are_charged_to_the_running_executor(self):
        program = _shared_first_program()
        first_task = Portend(program)
        trace = first_task.record({})
        store = PrimaryReplayStore(race.race_id for race in trace.races)
        race = trace.races[0]
        replay = store.replay(first_task.executor, trace, race)
        replayed = first_task.executor.counters.statements
        second_task = Portend(program)
        run_alternate(second_task.executor, program, trace, race, replay)
        assert first_task.executor.counters.statements == replayed
        assert second_task.executor.counters.statements > 0

    @pytest.mark.parametrize("name", ["bbuf", "pbzip2", "stress_deep"])
    def test_shared_classification_equals_per_race(self, name):
        workload = load_workload(name)
        portend = Portend(workload.program, predicates=workload.predicates)
        trace = portend.record(workload.inputs)

        def signatures(items):
            out = []
            for item in items:
                data = item.to_dict()
                data.pop("analysis_seconds")
                out.append(data)
            return out

        shared = portend.classify_trace(trace).classified
        alone = [portend.classify_race(trace, race) for race in trace.races]
        assert signatures(shared) == signatures(alone)


class TestReplayCounters:
    def test_serial_stress_harmful_replays_its_trace_once(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(["stress_harmful"])
        passes = [e for e in engine.last_run_events if e["kind"] == "primary_replay"]
        assert engine.last_run_stats.primary_replays == 1
        assert [(e["races"], e["trace_inputs"]) for e in passes] == [(120, True)]
        assert "primary_replays=1 " in render_events_info(engine.last_run_events)

        # Through the facade: the recording plus one replay instead of 120;
        # each of the 119 replays saved interpreted 603 statements.
        workload = load_workload("stress_harmful")
        portend = Portend(workload.program, predicates=workload.predicates)
        portend.classify_trace(portend.record(workload.inputs))
        assert portend.executor.counters.statements == 87_483 - (120 - 1) * 603

    def test_pooled_interp_statements_repeat_exactly(self):
        counts = []
        for _ in range(2):
            engine = AnalysisEngine(
                options=EngineOptions(parallel=2, granularity="race")
            )
            engine.analyze(["stress_harmful", "bbuf"])
            stats = engine.last_run_stats
            counts.append((stats.interp_statements, stats.primary_replays))
        assert counts[0] == counts[1]
        assert counts[0][1] >= 2

    def test_race_chunks_are_sized_by_queue_length_alone(self):
        # A classification chunk is a replay sharing unit, so its size must
        # not follow the cost model: a warm estimate that would cost-size
        # chunks to one race each leaves them at count // (workers * 2).
        engine = AnalysisEngine(options=EngineOptions(parallel=2, granularity="race"))
        engine.cost_model.observe("classify", "", 100.0)
        assert engine.cost_model.chunk_size("classify", "", 120, 2) == 1
        engine.analyze(["stress_harmful"])
        sizes = [
            event["chunk_size"]
            for event in engine.last_run_events
            if event["kind"] == "scheduler_decision" and event["stage"] == "classify"
        ]
        assert sizes == [30, 30, 30, 30]
        assert engine.last_run_stats.primary_replays == 4

