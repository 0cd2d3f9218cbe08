"""Spin fast-forward: jumping over spin periods must be exact.

The oracle is the same run with a listener attached that does not declare
itself skip-safe, which turns fast-forward off without a switch.  Every
comparison covers the run's status and step count and the full final
state, affine counters included (step count, preemption points, context
switches, per-thread steps, loop iteration counts, every local), so a jump
that lands one period off, or advances a counter wrongly, fails.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Portend
from repro.core.alternate import (
    alternate_timeout,
    replay_primaries,
    run_alternate,
)
from repro.core.config import PortendConfig
from repro.core.spec import SemanticPredicate, SpecChecker
from repro.engine import AnalysisEngine, EngineOptions
from repro.engine.events import render_events_info
from repro.lang import ProgramBuilder
from repro.lang.ast import (
    While,
    add,
    eq,
    glob,
    gt,
    induction_locals,
    iter_statements,
    local,
    logical_and,
    lt,
    sub,
)
from repro.runtime.errors import OutcomeKind
from repro.runtime.executor import Executor, ExecutorConfig, RunStatus
from repro.runtime.listeners import ExecutionListener
from repro.runtime.scheduler import (
    ControlledPolicy,
    CooperativePolicy,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
)
from repro.runtime.threadstate import LoopEntry
from repro.workloads import all_workload_names, load_workload

from test_interpreter import _analysis_outcome

TABLE1 = (
    "SQLite", "ocean", "fmm", "memcached", "pbzip2", "ctrace", "bbuf",
    "AVV", "DCL", "DBM", "RW",
)
STRESS = ("stress", "stress_harmful", "stress_deep")


def full_state(state):
    """Everything observable in ``state``, the affine counters included."""
    threads = []
    for tid, thread in state.threads.items():
        frames = []
        for frame in thread.frames:
            control = tuple(
                ("loop", entry.stmt.pc, entry.iterations)
                if isinstance(entry, LoopEntry)
                else ("block", id(entry.stmts), entry.index)
                for entry in frame.control
            )
            frames.append(
                (frame.function, frame.return_target, control, tuple(frame.locals.items()))
            )
        threads.append(
            (
                tid,
                thread.status,
                thread.blocked_on,
                thread.pending_reacquire,
                tuple(thread.held_mutexes),
                thread.steps,
                thread.result,
                tuple(frames),
            )
        )
    return (
        state.step_count,
        state.preemption_points,
        state.context_switches,
        state.symbolic_branches,
        state.current_tid,
        state.next_tid,
        state.memory.snapshot(),
        state.sync.snapshot(),
        tuple(threads),
        tuple(state.output_log),
        tuple(state.input_log),
        state.path_condition.constraints,
        state.outcome,
    )


def run_both(program, policy_factory, max_steps, config=None, symbolic=()):
    """Run ``program`` with fast-forward allowed and without it, check that
    both runs end alike, and return the statements the first skipped."""
    outcomes = []
    for listeners in ([], [ExecutionListener()]):
        executor = Executor(program, config=config)
        state = executor.initial_state(symbolic_inputs=symbolic)
        result = executor.run(
            state, policy=policy_factory(), listeners=listeners, max_steps=max_steps
        )
        outcomes.append(
            (
                result.status,
                result.steps_executed,
                full_state(state),
                executor.counters.statements,
                executor.counters.spin_steps_skipped,
                executor.solver.stats.queries,
            )
        )
    fast, oracle = outcomes
    assert oracle[4] == 0
    assert fast[:3] == oracle[:3]
    assert fast[5] == oracle[5]
    # Skipped statements are exactly the ones the oracle interpreted.
    assert fast[3] + fast[4] == oracle[3]
    return fast[4]


def _spinner(body, flag_cond=None, setter_iterations=None):
    """``main`` spins on ``flag == 0`` running ``body(main)`` each time.

    With ``setter_iterations`` a second thread sets the flag after that
    many of its own loop iterations, so the spin ends on its own.
    """
    b = ProgramBuilder("spin")
    b.global_var("flag", 0)
    b.global_var("shared", 0)
    if setter_iterations is not None:
        setter = b.function("setter")
        setter.assign(local("k"), 0)
        with setter.while_(lt(local("k"), setter_iterations)):
            setter.assign(local("k"), add(local("k"), 1))
            setter.yield_()
        setter.assign(glob("flag"), 1)
        setter.ret()
    main = b.function("main")
    main.assign(local("n"), 0)
    if setter_iterations is not None:
        main.spawn("t", "setter")
    with main.while_(flag_cond if flag_cond is not None else eq(glob("flag"), 0)):
        body(main)
    main.output("stdout", [glob("shared")])
    main.ret()
    return b.build()


def _count(main):
    main.assign(local("n"), add(local("n"), 1))
    main.yield_()


class TestInductionLocals:
    def _loop(self, program):
        return next(
            stmt
            for function in program.functions.values()
            for stmt in iter_statements(function.body)
            if isinstance(stmt, While) and stmt.label.endswith("spin")
        )

    def _induction(self, *statements, cond=None):
        b = ProgramBuilder("ind")
        b.global_var("flag", 0)
        main = b.function("main")
        with main.while_(cond if cond is not None else eq(glob("flag"), 0), label="spin"):
            for emit in statements:
                emit(main)
        main.ret()
        program = b.build()
        return induction_locals(self._loop(program))

    def test_constant_steps_qualify(self):
        assert self._induction(
            lambda m: m.assign(local("up"), add(local("up"), 1)),
            lambda m: m.assign(local("down"), sub(local("down"), 3)),
        ) == {"up", "down"}

    def test_reads_other_writes_and_non_constant_steps_disqualify(self):
        assert not self._induction(
            lambda m: m.assign(local("i"), add(local("i"), 1)),
            lambda m: m.assign(glob("flag"), local("i")),
        )
        assert not self._induction(
            lambda m: m.assign(local("i"), add(local("i"), 1)),
            lambda m: m.assign(local("i"), 0),
        )
        assert not self._induction(
            lambda m: m.assign(local("i"), add(local("i"), local("i"))),
        )
        assert not self._induction(
            lambda m: m.assign(local("i"), add(local("i"), 1)),
            lambda m: m.input("i", "i"),
        )
        assert not self._induction(
            lambda m: m.assign(local("i"), add(local("i"), 1)),
            cond=logical_and(eq(glob("flag"), 0), lt(local("i"), 9)),
        )


class TestAdversarialSpins:
    def test_spin_with_an_induction_local_is_skipped(self):
        program = _spinner(_count)
        assert run_both(program, RoundRobinPolicy, 1_000) > 900

    @pytest.mark.parametrize("budget", [997, 998, 999, 1_000, 1_001, 1_003])
    def test_budget_that_is_not_a_multiple_of_the_period(self, budget):
        program = _spinner(_count)
        assert run_both(program, RoundRobinPolicy, budget) > 0

    def test_induction_local_read_by_a_break_is_not_skipped(self):
        def body(main):
            main.assign(local("n"), add(local("n"), 1))
            with main.if_(eq(local("n"), 500)):
                main.break_()
            main.yield_()

        program = _spinner(body)
        assert run_both(program, RoundRobinPolicy, 5_000) == 0

    def test_condition_that_reads_the_counter_is_not_skipped(self):
        program = _spinner(
            _count, flag_cond=logical_and(eq(glob("flag"), 0), lt(local("n"), 10_000))
        )
        assert run_both(program, RoundRobinPolicy, 3_000) == 0

    @pytest.mark.parametrize("limit", [1, 2, 3, 100, 299, 300, 301])
    def test_loop_limit_lands_on_the_same_step(self, limit):
        program = _spinner(_count)
        config = ExecutorConfig(max_loop_iterations=limit)
        run_both(program, RoundRobinPolicy, 5_000, config=config)
        executor = Executor(program, config=config)
        state = executor.initial_state()
        executor.run(state, max_steps=5_000)
        assert state.outcome.kind is OutcomeKind.LOOP_LIMIT

    def test_two_threads_interleave_at_sync_points_inside_the_period(self):
        b = ProgramBuilder("two-spinners")
        b.global_var("flag", 0)
        b.global_var("shared", 0)
        b.mutex("m")
        other = b.function("other")
        with other.while_(eq(glob("flag"), 0)):
            other.lock("m")
            other.assign(glob("shared"), add(glob("shared"), 0))
            other.unlock("m")
            other.yield_()
        other.ret()
        main = b.function("main")
        main.assign(local("n"), 0)
        main.spawn("t", "other")
        with main.while_(eq(glob("flag"), 0)):
            main.assign(local("n"), add(local("n"), 2))
            main.lock("m")
            main.assign(local("seen"), glob("shared"))
            main.unlock("m")
            main.yield_()
        main.ret()
        program = b.build()
        for policy in (RoundRobinPolicy, lambda: ControlledPolicy(RoundRobinPolicy())):
            assert run_both(program, policy, 2_000) > 1_000

    def test_condvar_ping_pong_with_reacquire_steps(self):
        # Reacquiring the mutex after a wake-up is a step but not a
        # statement, so a period's step and statement deltas differ.
        b = ProgramBuilder("ping-pong")
        b.global_var("flag", 0)
        b.global_var("turn", 0)
        b.mutex("m")
        b.condvar("c")
        pong = b.function("pong")
        with pong.while_(eq(glob("flag"), 0)):
            pong.lock("m")
            with pong.while_(eq(glob("turn"), 0)):
                pong.cond_wait("c", "m")
            pong.assign(glob("turn"), 0)
            pong.cond_signal("c")
            pong.unlock("m")
        pong.ret()
        main = b.function("main")
        main.spawn("t", "pong")
        main.assign(local("rounds"), 0)
        with main.while_(eq(glob("flag"), 0)):
            main.assign(local("rounds"), add(local("rounds"), 1))
            main.lock("m")
            main.assign(glob("turn"), 1)
            main.cond_signal("c")
            with main.while_(eq(glob("turn"), 1)):
                main.cond_wait("c", "m")
            main.unlock("m")
        main.ret()
        assert run_both(b.build(), RoundRobinPolicy, 3_000) > 2_000

    def test_spin_that_writes_shared_memory_is_not_skipped(self):
        def body(main):
            main.assign(glob("shared"), add(glob("shared"), 1))
            main.yield_()

        assert run_both(_spinner(body), RoundRobinPolicy, 1_000) == 0

    def test_spin_through_a_single_party_barrier_is_not_skipped(self):
        # Each wait releases the barrier and bumps its generation: only the
        # sync state changes from one period to the next.
        b = ProgramBuilder("barrier-spin")
        b.global_var("flag", 0)
        b.barrier("solo", 1)
        main = b.function("main")
        with main.while_(eq(glob("flag"), 0)):
            main.barrier_wait("solo")
        main.ret()
        assert run_both(b.build(), RoundRobinPolicy, 1_000) == 0

    def test_stop_predicates_must_belong_to_a_listener(self):
        program = _spinner(_count)

        class Stopper(ExecutionListener):
            spin_skip_safe = True

            def never(self, state, tid, stmt):
                return False

        stopper = Stopper()
        executor = Executor(program)
        result = executor.run(
            executor.initial_state(),
            listeners=[stopper],
            max_steps=1_000,
            stop_after=stopper.never,
        )
        assert result.steps_executed == 1_000
        assert executor.counters.spin_steps_skipped > 0
        # A predicate of its own may read anything, the step count included.
        executor = Executor(program)
        result = executor.run(
            executor.initial_state(),
            max_steps=1_000,
            stop_after=lambda state, tid, stmt: state.step_count >= 500,
        )
        assert result.status is RunStatus.STOPPED_AFTER
        assert result.steps_executed == 500
        assert executor.counters.spin_steps_skipped == 0

    def test_listener_that_turns_unsafe_between_probes(self):
        class Counting(ExecutionListener):
            def __init__(self):
                self.steps = 0

            @property
            def spin_skip_safe(self):
                # Safe at the third loop head (8 steps in), not at the
                # fourth (11 steps in), where the heads are compared.
                return self.steps < 10

            def on_step(self, state, tid, pc):
                self.steps += 1

        counting = Counting()
        executor = Executor(_spinner(_count))
        result = executor.run(executor.initial_state(), listeners=[counting], max_steps=600)
        assert executor.counters.spin_steps_skipped == 0
        assert counting.steps == result.steps_executed == 600

    def test_symbolic_induction_value_is_not_skipped(self):
        b = ProgramBuilder("symbolic-count")
        b.global_var("flag", 0)
        main = b.function("main")
        main.input("n", "n", 0, 3)
        with main.while_(eq(glob("flag"), 0)):
            main.assign(local("n"), add(local("n"), 1))
            main.yield_()
        main.ret()
        program = b.build()
        assert run_both(program, RoundRobinPolicy, 400, symbolic=("n",)) == 0

    def test_loop_that_outputs_is_not_skipped(self):
        def body(main):
            main.output("log", [1])
            main.yield_()

        program = _spinner(body)
        assert run_both(program, RoundRobinPolicy, 1_000) == 0

    def test_spin_that_ends_before_the_budget(self):
        # The setter's own counter is read by its condition, so the state
        # never repeats while it runs: the spin ends on the interpreted path.
        program = _spinner(_count, setter_iterations=40)
        run_both(program, RoundRobinPolicy, 5_000)

    def test_spin_inside_a_callee(self):
        b = ProgramBuilder("callee-spin")
        b.global_var("flag", 0)
        waiter = b.function("waiter")
        waiter.assign(local("spins"), 0)
        with waiter.while_(eq(glob("flag"), 0)):
            waiter.assign(local("spins"), add(local("spins"), 1))
            waiter.call("tick")
        waiter.ret(local("spins"))
        tick = b.function("tick")
        tick.yield_()
        tick.ret()
        main = b.function("main")
        main.call("waiter", target="r")
        main.output("stdout", [local("r")])
        main.ret()
        assert run_both(b.build(), CooperativePolicy, 1_500) > 1_000

    def test_policies_with_state_of_their_own_never_skip(self):
        program = _spinner(_count)
        assert run_both(program, lambda: RandomPolicy(seed=3), 1_000) == 0
        assert run_both(program, lambda: ReplayPolicy([]), 1_000) == 0

    def test_skip_safety_of_the_spec_checker_follows_its_predicates(self):
        assert SpecChecker().spin_skip_safe
        always = SemanticPredicate("always", lambda state: True)
        assert not SpecChecker([always]).spin_skip_safe


@st.composite
def spin_programs(draw):
    """A small program whose main thread spins on a flag, with a random
    loop body, an optional second thread, budget and loop limit."""
    b = ProgramBuilder("generated")
    b.global_var("flag", 0)
    b.global_var("g", 0)
    b.mutex("m")
    pieces = st.sampled_from(
        [
            "step",
            "step_down",
            "read",
            "write",
            "bump",
            "yield",
            "locked",
            "branch",
            "inner",
            "output",
        ]
    )
    body = draw(st.lists(pieces, min_size=1, max_size=5))
    other = draw(st.sampled_from([None, "spin", "setter"]))
    if other is not None:
        helper = b.function("helper")
        helper.assign(local("k"), 0)
        if other == "setter":
            with helper.while_(lt(local("k"), draw(st.integers(1, 60)))):
                helper.assign(local("k"), add(local("k"), 1))
                helper.yield_()
            helper.assign(glob("flag"), 1)
        else:
            with helper.while_(eq(glob("flag"), 0)):
                helper.assign(local("k"), add(local("k"), 1))
                helper.lock("m")
                helper.assign(glob("g"), add(glob("g"), 0))
                helper.unlock("m")
        helper.ret()
    main = b.function("main")
    main.assign(local("a"), 0)
    main.assign(local("b"), 0)
    if other is not None:
        main.spawn("t", "helper")
    with main.while_(eq(glob("flag"), 0)):
        for piece in body:
            if piece == "step":
                main.assign(local("a"), add(local("a"), 1))
            elif piece == "step_down":
                main.assign(local("b"), sub(local("b"), 2))
            elif piece == "read":
                main.assign(local("c"), glob("g"))
            elif piece == "write":
                main.assign(glob("g"), local("a"))
            elif piece == "bump":
                main.assign(glob("g"), add(glob("g"), 1))
            elif piece == "yield":
                main.yield_()
            elif piece == "locked":
                main.lock("m")
                main.assign(local("c"), glob("g"))
                main.unlock("m")
            elif piece == "branch":
                with main.if_(gt(local("b"), -30)):
                    main.nop()
            elif piece == "inner":
                main.assign(local("j"), 0)
                with main.while_(lt(local("j"), 2)):
                    main.assign(local("j"), add(local("j"), 1))
            else:
                main.output("log", [local("a")])
    main.ret()
    budget = draw(st.integers(20, 600))
    limit = draw(st.integers(1, 400))
    policy = draw(st.sampled_from(["round-robin", "cooperative", "controlled"]))
    return b.build(), budget, limit, policy


_POLICIES = {
    "round-robin": RoundRobinPolicy,
    "cooperative": CooperativePolicy,
    "controlled": lambda: ControlledPolicy(RoundRobinPolicy()),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spin_programs())
def test_generated_spins_match_the_interpreted_run(case):
    program, budget, limit, policy = case
    run_both(
        program,
        _POLICIES[policy],
        budget,
        config=ExecutorConfig(max_loop_iterations=limit),
    )


def _alternates(portend, inputs, always):
    """``(result key, full state, skipped)`` of every single-stage
    alternate of the workload; ``always`` (a predicate that always holds)
    makes the spec checker skip-unsafe, which turns fast-forward off."""
    workload_trace = portend.record(inputs)
    races = workload_trace.races
    replays = replay_primaries(
        portend.executor, workload_trace, races, max_steps=portend.config.max_steps_per_execution
    )
    predicates = [always] if always else []
    out = []
    for race in races:
        primary = replays[race.race_id]
        before = portend.executor.counters.spin_steps_skipped
        alternate = run_alternate(
            portend.executor,
            portend.program,
            workload_trace,
            race,
            primary,
            post_race_policy=RoundRobinPolicy(),
            predicates=predicates,
            timeout_steps=alternate_timeout(
                primary.steps,
                portend.config.timeout_factor,
                portend.config.max_steps_per_execution,
            ),
        )
        out.append(
            (
                (
                    alternate.status,
                    alternate.steps,
                    alternate.timeout_diagnosis,
                    alternate.lock_cycle,
                    alternate.enforced_pc,
                ),
                full_state(alternate.state),
                portend.executor.counters.spin_steps_skipped - before,
            )
        )
    return out


class TestRegistryAlternates:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_every_alternate_matches_the_interpreted_run(self, name):
        workload = load_workload(name)
        config = PortendConfig()
        # A predicate that always holds changes no outcome: the oracle.
        always = SemanticPredicate("always", lambda state: True)
        runs = []
        for oracle in (None, always):
            portend = Portend(workload.program, config=config)
            runs.append(_alternates(portend, workload.inputs, oracle))
        fast, slow = runs
        assert [entry[:2] for entry in fast] == [entry[:2] for entry in slow]
        assert all(entry[2] == 0 for entry in slow)
        if name in ("pbzip2", "memcached", "fmm", "ocean"):
            assert sum(entry[2] for entry in fast) > 0


class TestRegistryClassifications:
    @pytest.mark.parametrize("name", all_workload_names(include_synthetic=True))
    def test_every_verdict_matches_the_interpreted_run(self, name, monkeypatch):
        fast = _analysis_outcome(name)
        # No probe: every run interprets each spin step, the oracle.
        monkeypatch.setattr(Executor, "_spin_probe", lambda self, *args: None)
        slow = _analysis_outcome(name)
        assert fast["trace"] == slow["trace"], name
        assert fast["classified"] == slow["classified"], name
        assert fast["prune_reasons"] == slow["prune_reasons"], name
        assert slow["counters"]["spin_steps_skipped"] == 0
        skipped = fast["counters"].pop("spin_steps_skipped")
        fast["counters"]["statements"] += skipped
        slow["counters"].pop("spin_steps_skipped")
        assert fast["counters"] == slow["counters"], name


class TestSkippedWorkCounters:
    def test_serial_table1_counters(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=0))
        engine.analyze(list(TABLE1))
        stats = engine.last_run_stats
        assert (stats.interp_statements, stats.spin_steps_skipped) == (12_259, 56_298)
        # The statements the interpreter ran before spin fast-forward.
        assert stats.interp_statements + stats.spin_steps_skipped == 68_557
        assert "spin steps skipped=56298" in stats.summary()
        assert "spin_steps_skipped=56298" in render_events_info(engine.last_run_events)

    def test_pooled_full_registry_counters(self):
        engine = AnalysisEngine(options=EngineOptions(parallel=2))
        engine.analyze(list(TABLE1 + STRESS))
        stats = engine.last_run_stats
        assert (stats.interp_statements, stats.spin_steps_skipped) == (163_508, 56_298)
