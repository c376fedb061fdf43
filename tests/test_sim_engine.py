"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.eventq import HeapEventQueue, make_queue
from repro.sim.process import SimProcess
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

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5]

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


class TestProcessesAndErrors:
    def test_run_process_returns_result(self, engine):
        def body(proc):
            proc.hold(1.0)
            return 42

        assert engine.run_process(body) == 42
        assert engine.now == 1.0

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
