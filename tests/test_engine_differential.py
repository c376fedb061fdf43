"""Differential tests: thread-backed vs generator (continuation) processes.

The generator scheduler replaces one OS thread per simulated process with
a resumable generator driven by the dispatch loop. Its contract is strict:
**every virtual-time observable is bit-identical** to the thread backend —
event traces, final process results, lock hand-off order, fault outcomes.
These tests pin that contract down with randomized programs (hypothesis)
on top of the fixed golden scenarios of ``repro.bench.diffcheck``.

Program bodies are written once as generator functions; the generator
backend runs them stackless while the thread backend trampolines the same
generators on its baton threads (``SimProcess.drive``), so a divergence
is always a scheduler bug, never a program-text difference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.telemetry import stream_digest
from repro.errors import DeadlockError
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.resources import SimBarrier, SimLock
from repro.sim.trace import Tracer

BACKENDS = ("thread", "generator")

# ------------------------------------------------------------ program model
#: hold durations drawn from a small exact-in-binary set: determinism must
#: hold for any float, but a finite set keeps failure cases readable.
_DTS = (0.25, 0.5, 1.0, 1.75)

_op = st.one_of(
    st.tuples(st.just("hold"), st.sampled_from(_DTS)),
    st.tuples(st.just("lock"), st.integers(0, 2), st.sampled_from(_DTS)),
    st.tuples(st.just("spawn"), st.sampled_from(_DTS)),
    st.tuples(st.just("daemon"), st.sampled_from(_DTS)),
)

#: A program: per-worker rounds of ops; all workers share the round count
#: so the end-of-round barrier is always satisfiable.
_programs = st.integers(2, 4).flatmap(
    lambda n_workers: st.integers(1, 3).flatmap(
        lambda n_rounds: st.tuples(
            st.just(n_workers),
            st.lists(  # ops[worker][round] -> list of ops
                st.lists(st.lists(_op, max_size=3),
                         min_size=n_rounds, max_size=n_rounds),
                min_size=n_workers, max_size=n_workers))))


def _child(proc, dt):
    yield dt
    return ("child-done", dt, proc.now)


def _daemon(proc, dt, log):
    yield dt
    log.append(("daemon", dt, proc.now))


def _worker(proc, wid, rounds, locks, barrier, log):
    engine = proc.engine
    for r, ops in enumerate(rounds):
        for op in ops:
            if op[0] == "hold":
                yield op[1]
            elif op[0] == "lock":
                lock = locks[op[1]]
                yield from lock.acquire_g()
                log.append(("locked", wid, r, op[1], proc.now))
                yield op[2]
                lock.release()
            elif op[0] == "spawn":
                child = SimProcess(engine, _child, args=(op[1],),
                                   name=f"child-{wid}-{r}").start()
                result = yield from proc.join_g(child)
                log.append(("joined", wid, r, result))
            elif op[0] == "daemon":
                SimProcess(engine, _daemon, args=(op[1], log),
                           name=f"daemon-{wid}-{r}", daemon=True).start()
        generation = yield from barrier.wait_g()
        log.append(("barrier", wid, generation, proc.now))
    return ("worker-done", wid, proc.now)


def _run_program(backend, n_workers, program):
    engine = Engine(trace=Tracer(enabled=True), procs=backend)
    locks = [SimLock(engine, name=f"L{i}") for i in range(3)]
    barrier = SimBarrier(engine, n_workers, name="rendezvous")
    log = []
    workers = [SimProcess(engine, _worker,
                          args=(wid, program[wid], locks, barrier, log),
                          name=f"w{wid}").start()
               for wid in range(n_workers)]
    final = engine.run()
    digest, n_events = stream_digest(engine.trace.events)
    return {
        "virtual": final,
        "digest": digest,
        "trace_events": n_events,
        "log": list(log),
        "results": [w.result for w in workers],
    }


# ------------------------------------------------------------------- tests
class TestRandomProgramsBitIdentical:
    @settings(max_examples=40, deadline=None)
    @given(_programs)
    def test_trace_and_final_state_match(self, drawn):
        n_workers, program = drawn
        thread = _run_program("thread", n_workers, program)
        generator = _run_program("generator", n_workers, program)
        assert generator == thread

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_seeded_fault_plans_match(self, seed):
        """Both backends replay the same seeded fault plan identically —
        drops, retransmissions, and their trace timing included."""
        from repro.bench.diffcheck import _with_procs, diff_records
        from repro.config import preset
        from repro.faults import FaultPlan
        from repro.faults.chaos import run_chaos

        def capture(backend):
            with _with_procs(backend):
                cfg = preset("sw-dsm-2")
                cfg.trace = True
                res = run_chaos(cfg, app="pi",
                                app_params={"intervals": 2048},
                                plan=FaultPlan.seeded(seed))
            digest, n_events = stream_digest(res.built.engine.trace.events)
            return {"outcome": res.outcome, "verified": res.verified,
                    "checksum": res.checksum, "virtual": res.virtual_time,
                    "digest": digest, "trace_events": n_events,
                    "faults": dict(res.faults)}

        assert diff_records(capture("generator"), capture("thread")) == []


class TestPerEnginePids:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fresh_engine_starts_at_pid_1(self, backend):
        """pids are engine-local: the first process of *every* engine is
        pid 1 (the old class-global counter leaked identities across
        engines and made trace digests depend on test execution order)."""
        for _ in range(2):  # a second engine must restart the sequence
            engine = Engine(procs=backend)
            first = SimProcess(engine, lambda proc: proc.now, name="a").start()
            second = SimProcess(engine, lambda proc: proc.now, name="b").start()
            assert (first.pid, second.pid) == (1, 2)
            engine.run()


class TestDeadlockParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_deadlock_names_blocked_set(self, backend):
        def stuck(proc, lock):
            yield from lock.acquire_g()
            yield from lock.acquire_g()  # unreachable: self-deadlock guard

        engine = Engine(procs=backend)
        lock = SimLock(engine, name="L")

        def holder(proc):
            yield from lock.acquire_g()
            yield 1.0
            # exits still holding the lock: the waiters are stuck forever

        SimProcess(engine, holder, name="holder").start()
        waiters = [SimProcess(engine, stuck, args=(lock,),
                              name=f"stuck{i}").start() for i in range(3)]
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        assert set(exc.value.blocked) == set(waiters)
