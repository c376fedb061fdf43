"""Unit tests for simulated processes: stackless and thread-backed bodies."""

from functools import partial

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.trace import Tracer
from tests.conftest import run_procs


class TestHold:
    def test_hold_advances_virtual_time(self, engine):
        stamps = []

        def body(proc):
            stamps.append(proc.now)
            proc.hold(1.5)
            stamps.append(proc.now)
            proc.hold(0.5)
            stamps.append(proc.now)

        run_procs(engine, body)
        assert stamps == [0.0, 1.5, 2.0]

    def test_zero_and_negative_hold_are_noops(self, engine):
        def body(proc):
            proc.hold(0.0)
            proc.hold(-1.0)
            return proc.now

        assert run_procs(engine, body) == [0.0]

    def test_holds_interleave_across_processes(self, engine):
        order = []

        def a(proc):
            proc.hold(1.0)
            order.append("a@1")
            proc.hold(2.0)
            order.append("a@3")

        def b(proc):
            proc.hold(2.0)
            order.append("b@2")

        run_procs(engine, a, b)
        assert order == ["a@1", "b@2", "a@3"]


def _zero_charges(value):
    """A kernel that charges only zero costs, as ``yield cost`` does when a
    cost function books nothing."""
    yield 0
    yield 0.0
    yield -1.0
    return value


def _one_hold():
    yield 1e-6


class TestZeroHoldsAreNoOps:
    """``yield 0`` holds nothing, and is no event, in every context."""

    def test_stackless_step(self, engine):
        def body(proc):
            return (yield from _zero_charges(proc.now))

        assert run_procs(engine, body) == [0.0]
        assert engine.events_executed == 1      # the start, nothing else

    def test_thread_drive(self, engine):
        def body(proc):                 # a plain callable: thread-backed
            return proc.drive(_zero_charges(7)), proc.now

        assert run_procs(engine, body) == [(7, 0.0)]
        assert engine.events_executed == 1

    def test_blocking_wrapper_in_a_stackless_process(self, engine):
        def body(proc):
            yield 0
            assert engine.kernel(_zero_charges(3)) == 3
            with pytest.raises(SimulationError, match="stackless"):
                engine.kernel(_one_hold())
            return proc.now

        assert run_procs(engine, body) == [0.0]

    def test_engine_kernel_with_no_current_process(self, engine):
        assert engine.current_process is None
        assert engine.kernel(_zero_charges("free")) == "free"
        with pytest.raises(SimulationError, match="process context"):
            engine.kernel(_one_hold())
        assert engine.now == 0.0 and engine.events_executed == 0

    def test_service_calls_from_launcher_context_stay_free(self):
        from repro.config import preset

        plat = preset("sw-dsm-4").build()
        hamster = plat.hamster
        assert hamster.call_overhead > 0
        assert hamster.call_cost() == 0.0
        hamster.charge_call()
        # a service kernel now yields its zero call cost from here
        assert hamster.task.n_tasks() == 4
        assert plat.engine.now == 0.0
        assert all(plat.cluster.node(n).compute_time == 0.0
                   for n in range(4))


class TestSuspendWake:
    def test_suspend_until_woken(self, engine):
        def sleeper(proc):
            proc.suspend()
            return proc.now

        def waker(proc, target):
            proc.hold(3.0)
            target.wake()

        s = SimProcess(engine, sleeper, name="s").start()
        SimProcess(engine, waker, args=(s,), name="w").start()
        engine.run()
        assert s.result == 3.0

    def test_wake_with_delay(self, engine):
        def sleeper(proc):
            proc.suspend()
            return proc.now

        s = SimProcess(engine, sleeper).start()

        def waker(proc, target):
            target.wake(delay=2.0)

        SimProcess(engine, waker, args=(s,)).start()
        engine.run()
        assert s.result == 2.0


class TestJoin:
    def test_join_returns_result(self, engine):
        def worker(proc):
            yield 1.0
            return "payload"

        w = SimProcess(engine, worker).start()

        def joiner(proc):
            return (yield from proc.join_g(w))

        j = SimProcess(engine, joiner).start()
        engine.run()
        assert j.result == "payload"

    def test_join_already_dead_process(self, engine):
        def worker(proc):
            return 7

        w = SimProcess(engine, worker).start()

        def joiner(proc):
            yield 5.0  # worker long dead by now
            return (yield from proc.join_g(w))

        j = SimProcess(engine, joiner).start()
        engine.run()
        assert j.result == 7

    def test_multiple_joiners_all_wake(self, engine):
        def worker(proc):
            yield 1.0
            return "x"

        def joiner(proc):
            return (yield from proc.join_g(w))

        w = SimProcess(engine, worker).start()
        results = run_procs(engine, *([joiner] * 3))
        assert results == ["x", "x", "x"]

    def test_self_join_rejected(self, engine):
        def body(proc):
            with pytest.raises(SimulationError):
                yield from proc.join_g(proc)

        run_procs(engine, body)


class TestLifecycle:
    def test_double_start_rejected(self, engine):
        p = SimProcess(engine, lambda proc: None)
        p.start()
        with pytest.raises(SimulationError):
            p.start()
        engine.run()

    def test_delayed_start(self, engine):
        def body(proc):
            return proc.now

        p = SimProcess(engine, body).start(delay=4.0)
        engine.run()
        assert p.result == 4.0

    def test_alive_flag(self, engine):
        def body(proc):
            proc.hold(1.0)

        p = SimProcess(engine, body).start()
        assert p.alive
        engine.run()
        assert not p.alive

    def test_a_generator_returned_by_a_plain_callable_runs_on_its_thread(
            self):
        """A lambda hides the generator from ``start()``, so its body is
        driven on a backing thread — with the same events, times and trace
        as the generator function run stackless."""
        def gen_body(proc, dt, log):
            log.append(("start", proc.now))
            yield dt
            yield 0
            yield dt
            log.append(("end", proc.now))
            return proc.now

        def run(wrap):
            engine = Engine(trace=Tracer(enabled=True))
            log = []
            procs = [SimProcess(engine, wrap(dt, log), name=f"p{dt}").start()
                     for dt in (0.5, 1.0)]
            SimProcess(engine, lambda proc: proc.hold(0.75)).start()
            engine.run()
            return ([p.stackless for p in procs], [p.result for p in procs],
                    log, engine.events_executed,
                    [(ev.time, ev["proc"]) for ev in engine.trace.events])

        direct = run(lambda dt, log: partial(gen_body, dt=dt, log=log))
        wrapped = run(lambda dt, log: (lambda proc: gen_body(proc, dt, log)))
        assert (direct[0], wrapped[0]) == ([True, True], [False, False])
        assert wrapped[1:] == direct[1:]
        assert direct[1] == [1.0, 2.0]

    def test_a_returned_generator_may_block(self, engine):
        """On its thread, a lambda-returned generator may mix ``yield``
        with the blocking forms."""
        def body(proc):
            yield 0.5
            proc.hold(0.25)
            yield 0.25
            return proc.now

        p = SimProcess(engine, lambda proc: body(proc)).start()
        engine.run()
        assert (p.stackless, p.result) == (False, 1.0)

    def test_a_thread_driven_body_can_still_fail(self, engine):
        def bad(proc):
            yield 1.0
            raise ValueError("boom")

        SimProcess(engine, lambda proc: bad(proc)).start()
        with pytest.raises(ValueError, match="boom"):
            engine.run()
        assert engine.now == 1.0
