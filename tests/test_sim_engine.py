"""Unit tests for the discrete-event engine."""

import sys
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine, clear_host_hook, set_host_hook
from repro.sim.eventq import HeapEventQueue, make_queue
from repro.sim.process import PARK, SimProcess
from repro.sim.trace import Tracer


class TestScheduling:
    def test_events_run_in_time_order(self, engine):
        seen = []
        engine.schedule(0.3, lambda: seen.append("c"))
        engine.schedule(0.1, lambda: seen.append("a"))
        engine.schedule(0.2, lambda: seen.append("b"))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_fifo(self, engine):
        seen = []
        for i in range(10):
            engine.schedule(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == list(range(10))

    def test_clock_advances_to_event_time(self, engine):
        stamps = []
        engine.schedule(2.5, lambda: stamps.append(engine.now))
        engine.schedule(1.0, lambda: stamps.append(engine.now))
        end = engine.run()
        assert stamps == [1.0, 2.5]
        assert end == 2.5

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_zero_delay_runs_after_current_instant_fifo(self, engine):
        seen = []

        def first():
            seen.append("first")
            engine.schedule(0.0, lambda: seen.append("nested"))

        engine.schedule(0.0, first)
        engine.schedule(0.0, lambda: seen.append("second"))
        engine.run()
        assert seen == ["first", "second", "nested"]

    def test_run_until_bounds_time(self, engine):
        seen = []
        engine.schedule(1.0, lambda: seen.append(1))
        engine.schedule(5.0, lambda: seen.append(5))
        t = engine.run(until=2.0)
        assert seen == [1] and t == 2.0
        # The remaining event still fires on a later unbounded run.
        engine.run()
        assert seen == [1, 5]

    def test_nested_run_rejected(self, engine):
        def evil():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule(0.0, evil)
        engine.run()


# Delays mix exact ties, sub-microsecond jitter and far-future jumps; a
# step is ("schedule", delay) or ("run", bound relative to now | None).
_delays = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-9, 4.2e-6, 1e-3, 1.0, 3600.0]),
    st.floats(min_value=0.0, max_value=10.0,
              allow_nan=False, allow_infinity=False))
_steps = st.lists(
    st.one_of(st.tuples(st.just("schedule"), _delays),
              st.tuples(st.just("run"), st.none() | _delays)),
    min_size=1, max_size=40)


class TestEventQueue:
    """The engine's contract with its queue (``repro.sim.eventq``)."""

    def test_same_timestamp_pops_fifo_by_seq(self):
        q = make_queue()
        for seq in (3, 1, 4, 2):
            q.push(1.0, seq, None)
        q.push(0.5, 5, None)
        assert [q.pop()[:2] for _ in range(len(q))] == [
            (0.5, 5), (1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4)]

    def test_pop_empty_raises_and_engine_reads_it_as_drained(self, engine):
        with pytest.raises(IndexError):
            make_queue().pop()
        assert engine.run() == 0.0
        assert engine.run(until=1.0) == 0.0

    def test_every_historical_name_builds_the_one_queue(self):
        assert type(make_queue("calendar")) is HeapEventQueue
        assert type(make_queue("heap")) is HeapEventQueue
        assert type(Engine()._queue) is HeapEventQueue

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps)
    def test_bounded_runs_match_sorted_list_oracle(self, steps):
        """Random schedule / run(until) interleavings fire in exact
        (when, seq) order. A bounded run pops one event past the bound and
        pushes it back under its original seq; events scheduled afterwards
        from ``now`` — earlier than it, or tied with it — must still run in
        oracle order."""
        engine = Engine()
        pending = []  # the oracle: (when, seq) of every unfired event
        fired = []
        seq = 0
        for op, arg in steps + [("run", None)]:
            if op == "schedule":
                seq += 1
                key = (engine.now + arg, seq)
                pending.append(key)
                engine.schedule(arg, lambda key=key: fired.append(key))
                continue
            until = None if arg is None else engine.now + arg
            pending.sort()
            due = [k for k in pending if until is None or k[0] <= until]
            pending = pending[len(due):]
            # A bounded run stops at the bound only if something is left
            # past it; a drained queue leaves the clock at the last event.
            if pending:
                want_now = until
            else:
                want_now = due[-1][0] if due else engine.now
            fired.clear()
            assert engine.run(until=until) == want_now
            assert fired == due
        assert pending == [] and len(engine._queue) == 0


# A process program is (start delay, ops); an op is ("hold", d), ("park",),
# ("wake", pid) or ("call", d, pid | None): a callback d from now that
# wakes pid. Delays are few and small so holds often tie the heap head.
_ticks = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
_proc_ops = st.one_of(
    st.tuples(st.just("hold"), _ticks),
    st.tuples(st.just("park")),
    st.tuples(st.just("wake"), st.integers(0, 3)),
    st.tuples(st.just("call"), _ticks, st.none() | st.integers(0, 3)))
_resume_programs = st.tuples(
    st.lists(st.tuples(_ticks, st.lists(_proc_ops, max_size=8)),
             min_size=1, max_size=4),
    st.lists(st.none() | _ticks, max_size=4),   # run(until=now + d) segments
    st.integers(1, 5))                           # host hook every k events


class _PushEveryResume:
    """Test-side interpreter of a process program: a sorted list of
    ``(when, seq, kind, arg)`` onto which every resume is pushed and from
    which every event is popped — the engine without its fast path."""

    def __init__(self, programs, hook_every):
        self.programs = programs
        self.events, self.log, self.hooks = [], [], []
        self.now, self.seq, self.executed = 0.0, 0, 0
        self.hook_every = self.hook_next = hook_every
        self.pc = [None] * len(programs)   # op a process is suspended at
        self.alive = [True] * len(programs)
        for pid, (delay, _ops) in enumerate(programs):
            self.push(delay, "proc", pid)

    def push(self, delay, kind, arg):
        self.seq += 1
        self.events.append((self.now + delay, self.seq, kind, arg))
        self.events.sort()

    def run(self, until=None):
        while self.events:
            when, _seq, kind, arg = self.events[0]
            if until is not None and when > until:
                self.now = until
                break
            del self.events[0]
            self.now = when
            self.executed += 1
            if self.executed >= self.hook_next:
                self.hook_next = self.executed + self.hook_every
                self.hooks.append((self.executed, self.now))
            if kind == "call":
                self.fire(arg)
            elif self.alive[arg]:
                self.step(arg)
        return self.now

    def fire(self, arg):
        cid, target = arg
        self.log.append(("call", cid, self.now))
        if target is not None:
            self.push(0.0, "proc", target % len(self.programs))

    def step(self, pid):
        ops = self.programs[pid][1]
        pc = self.pc[pid]
        if pc is None:
            pc = 0
        else:                              # resumed from the op at pc
            self.log.append(("op", pid, pc, self.now))
            pc += 1
        while pc < len(ops):
            op = ops[pc]
            if op[0] == "park" or (op[0] == "hold" and op[1] > 0):
                if op[0] == "hold":
                    self.push(op[1], "proc", pid)
                self.pc[pid] = pc
                return
            if op[0] == "wake":
                self.push(0.0, "proc", op[1] % len(self.programs))
            elif op[0] == "call":
                self.push(op[1], "call", ((pid, pc), op[2]))
            self.log.append(("op", pid, pc, self.now))
            pc += 1
        self.alive[pid] = False


def _run_resume_program(programs, segments, hook_every):
    """The same program on the engine; returns what the oracle records."""
    engine = Engine()
    log, hooks, procs = [], [], []
    engine.set_host_hook(
        lambda e: hooks.append((e.events_executed, e.now)), hook_every)

    def fire(cid, target):
        log.append(("call", cid, engine.now))
        if target is not None:
            procs[target % len(procs)].wake()

    def body(proc, pid, ops):
        for pc, op in enumerate(ops):
            if op[0] == "hold":
                yield op[1]
            elif op[0] == "park":
                yield PARK
            elif op[0] == "wake":
                procs[op[1] % len(procs)].wake()
            else:
                engine.schedule(op[1], partial(fire, (pid, pc), op[2]))
            log.append(("op", pid, pc, engine.now))

    for pid, (_delay, ops) in enumerate(programs):
        procs.append(SimProcess(engine, body, args=(pid, ops), daemon=True))
    for proc, (delay, _ops) in zip(procs, programs):
        proc.start(delay)
    clocks = []
    for seg in segments + [None]:
        until = None if seg is None else engine.now + seg
        clocks.append((engine.run(until=until), engine.events_executed))
    return log, clocks, hooks


class TestOwnResumeFastPath:
    """``Engine._advance`` dispatches a stackless process's own resume in
    place when it is strictly the next event; nothing observable may
    differ from pushing it onto the heap and popping it straight back.
    The oracle fails on each of four mutants of that loop: ``<`` made
    ``<=``, the ``until`` bound, the event count or the hook call
    dropped."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=_resume_programs)
    def test_matches_an_interpreter_that_pushes_every_resume(self, drawn):
        programs, segments, hook_every = drawn
        oracle = _PushEveryResume(programs, hook_every)
        clocks = []
        for seg in segments + [None]:
            until = None if seg is None else oracle.now + seg
            clocks.append((oracle.run(until=until), oracle.executed))
        assert _run_resume_program(programs, segments, hook_every) == (
            oracle.log, clocks, oracle.hooks)

    def test_a_hold_tying_the_head_goes_through_the_heap(self, engine):
        order = []

        def holder(proc):
            yield 1.0                        # ties the callback below
            order.append(("proc", engine.now))

        SimProcess(engine, holder).start()
        engine.schedule(1.0, lambda: order.append(("call", engine.now)))
        engine.run()
        assert order == [("call", 1.0), ("proc", 1.0)]

    def test_a_hold_ending_exactly_at_until_still_runs(self, engine):
        seen = []

        def holder(proc):
            yield 1.0
            seen.append(engine.now)
            yield 1.0
            seen.append(engine.now)

        SimProcess(engine, holder).start()
        assert engine.run(until=2.0) == 2.0
        assert seen == [1.0, 2.0]


NON_FINITE = [float("nan"), float("inf")]


class TestNonFiniteTimes:
    """A NaN or infinite hold or delay raises, naming the process (or
    callback) and the value, instead of putting the clock out of order."""

    @pytest.mark.parametrize("until", [None, float("inf")])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_stackless_hold(self, engine, bad, until):
        seen = []

        def bad_body(proc):
            yield bad

        def other(proc):
            yield 7e-6
            seen.append(engine.now)

        SimProcess(engine, bad_body, name="bad").start()
        SimProcess(engine, other, name="other").start()
        with pytest.raises(SimulationError, match=rf"bad#1: .*{bad}"):
            engine.run(until=until)
        assert seen == [] and engine.now == 0.0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_thread_backed_hold(self, engine, bad):
        def bad_body(proc):
            proc.hold(bad)

        SimProcess(engine, bad_body, name="blocking").start()
        with pytest.raises(SimulationError, match=rf"blocking#1: .*{bad}"):
            engine.run()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_scheduled_delay(self, engine, bad):
        with pytest.raises(SimulationError, match=rf"{bad}"):
            engine.schedule(bad, lambda: None)
        assert len(engine._heap) == 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_wake_delay(self, engine, bad):
        def sleeper(proc):
            yield PARK

        proc = SimProcess(engine, sleeper, name="sleeper", daemon=True).start()
        with pytest.raises(SimulationError, match=rf"sleeper#1: .*{bad}"):
            proc.wake(bad)

    def test_finite_delays_that_sum_past_the_largest_float_are_refused(
            self, engine):
        biggest = sys.float_info.max
        engine.schedule(biggest, lambda: engine.schedule(biggest, lambda: None))
        with pytest.raises(SimulationError, match="finite"):
            engine.run()
        assert engine.now == biggest  # the largest finite time still runs


class TestEngineHostHook:
    def teardown_method(self):
        clear_host_hook()

    def run_some_events(self, n=10):
        engine = Engine()

        def chain(remaining):
            if remaining:
                engine.schedule(0.001, lambda: chain(remaining - 1))

        chain(n)
        engine.run()
        return engine

    def test_default_hook_fires_every_n_events(self):
        seen = []
        set_host_hook(lambda eng: seen.append(eng.events_executed),
                      every_events=3)
        self.run_some_events(10)
        assert seen and all(c % 3 == 0 for c in seen)

    def test_hook_does_not_touch_virtual_time(self):
        baseline = self.run_some_events(10).now
        set_host_hook(lambda eng: None, every_events=1)
        assert self.run_some_events(10).now == baseline

    def test_hook_disarms_itself_on_exception(self):
        calls = []

        def boom(engine):
            calls.append(1)
            raise RuntimeError("observer crashed")

        set_host_hook(boom, every_events=1)
        self.run_some_events(10)     # must not propagate the error
        assert len(calls) == 1

    def test_bad_interval_is_rejected(self):
        with pytest.raises(ValueError):
            set_host_hook(lambda eng: None, every_events=0)


class TestProcessesAndErrors:
    def test_exception_in_process_propagates(self, engine):
        def body(proc):
            raise ValueError("boom")

        SimProcess(engine, body).start()
        with pytest.raises(ValueError, match="boom"):
            engine.run()

    def test_deadlock_detection(self, engine):
        def body(proc):
            proc.suspend()  # nobody will ever wake us

        SimProcess(engine, body, name="stuck").start()
        with pytest.raises(DeadlockError, match="stuck"):
            engine.run()

    def test_daemons_do_not_deadlock(self, engine):
        def daemon_body(proc):
            proc.suspend()

        def worker(proc):
            proc.hold(1.0)
            return "done"

        SimProcess(engine, daemon_body, daemon=True).start()
        p = SimProcess(engine, worker).start()
        engine.run()
        assert p.result == "done"

    def test_require_process_outside_context(self, engine):
        with pytest.raises(SimulationError):
            engine.require_process()

    def test_current_process_tracking(self, engine):
        observed = []

        def body(proc):
            observed.append(engine.current_process is proc)

        SimProcess(engine, body).start()
        engine.run()
        assert observed == [True]
        assert engine.current_process is None


class TestDeterminism:
    def test_identical_runs_produce_identical_timelines(self):
        def build_and_run():
            engine = Engine(trace=Tracer(enabled=True))
            trace = []

            def worker(proc, i):
                for step in range(3):
                    proc.hold(0.001 * (i + 1))
                    trace.append((round(engine.now, 9), i, step))

            for i in range(4):
                SimProcess(engine, worker, args=(i,), name=f"w{i}").start()
            engine.run()
            return trace

        assert build_and_run() == build_and_run()
