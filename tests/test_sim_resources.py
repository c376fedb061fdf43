"""Unit + property tests for virtual-time synchronization resources."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, SynchronizationError
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.resources import SimBarrier, SimCondition, SimLock, SimQueue, SimSemaphore
from tests.conftest import run_procs


class TestSimLock:
    def test_mutual_exclusion(self, engine):
        lock = SimLock(engine)
        inside = []

        def body(proc, i):
            yield from lock.acquire_g()
            inside.append(i)
            assert len(inside) == i + 1  # one at a time, FIFO
            yield 1.0
            lock.release()

        run_procs(engine, *(partial(body, i=i) for i in range(3)))
        assert inside == [0, 1, 2]
        assert engine.now == 3.0  # fully serialized

    def test_fifo_ordering(self, engine):
        lock = SimLock(engine)
        order = []

        def body(proc, i):
            yield 0.001 * i  # arrival order = index order
            yield from lock.acquire_g()
            order.append(i)
            yield 1.0
            lock.release()

        run_procs(engine, *(partial(body, i=i) for i in range(5)))
        assert order == [0, 1, 2, 3, 4]

    def test_release_by_non_owner_rejected(self, engine):
        lock = SimLock(engine)

        def owner(proc):
            yield from lock.acquire_g()
            yield 2.0
            lock.release()

        def intruder(proc):
            yield 1.0
            with pytest.raises(SynchronizationError):
                lock.release()

        run_procs(engine, owner, intruder)

    def test_reacquire_rejected(self, engine):
        lock = SimLock(engine)

        def body(proc):
            yield from lock.acquire_g()
            with pytest.raises(SynchronizationError):
                yield from lock.acquire_g()
            lock.release()

        run_procs(engine, body)

    def test_locked_property(self, engine):
        lock = SimLock(engine)

        def body(proc):
            assert not lock.locked
            yield from lock.acquire_g()
            assert lock.locked
            lock.release()
            assert not lock.locked

        run_procs(engine, body)


class TestSimSemaphore:
    def test_initial_value_consumed(self, engine):
        sem = SimSemaphore(engine, value=2)

        def body(proc):
            yield from sem.acquire_g()
            return proc.now

        assert run_procs(engine, body, body) == [0.0, 0.0]

    def test_blocks_until_release(self, engine):
        sem = SimSemaphore(engine, value=0)

        def taker(proc):
            yield from sem.acquire_g()
            return proc.now

        def giver(proc):
            yield 2.0
            sem.release()

        t, _ = run_procs(engine, taker, giver)
        assert t == 2.0

    def test_bulk_release(self, engine):
        sem = SimSemaphore(engine, value=0)

        def taker(proc):
            yield from sem.acquire_g()
            return proc.now

        def giver(proc):
            yield 1.0
            sem.release(3)

        res = run_procs(engine, taker, taker, taker, giver)
        assert res[:3] == [1.0, 1.0, 1.0]
        assert sem.value == 0

    def test_negative_initial_rejected(self, engine):
        with pytest.raises(SimulationError):
            SimSemaphore(engine, value=-1)


class TestSimCondition:
    def test_wait_signal(self, engine):
        cond = SimCondition(engine)
        state = {"ready": False}

        def waiter(proc):
            yield from cond.lock.acquire_g()
            while not state["ready"]:
                yield from cond.wait_g()
            cond.lock.release()
            return proc.now

        def signaler(proc):
            yield 3.0
            yield from cond.lock.acquire_g()
            state["ready"] = True
            cond.signal()
            cond.lock.release()

        t, _ = run_procs(engine, waiter, signaler)
        assert t == 3.0

    def test_broadcast_wakes_all(self, engine):
        cond = SimCondition(engine)

        def waiter(proc):
            yield from cond.lock.acquire_g()
            yield from cond.wait_g()
            cond.lock.release()
            return proc.now

        def caster(proc):
            yield 1.0
            yield from cond.lock.acquire_g()
            cond.broadcast()
            cond.lock.release()

        res = run_procs(engine, waiter, waiter, waiter, caster)
        assert res[:3] == [1.0, 1.0, 1.0]

    def test_wait_without_lock_rejected(self, engine):
        cond = SimCondition(engine)

        def body(proc):
            with pytest.raises(SynchronizationError):
                yield from cond.wait_g()

        run_procs(engine, body)


class TestSimQueue:
    def test_fifo_delivery(self, engine):
        q = SimQueue(engine)

        def producer(proc):
            for i in range(3):
                yield 1.0
                q.put(i)

        def consumer(proc):
            got = []
            for _ in range(3):
                got.append((yield from q.get_g()))
            return got

        _, got = run_procs(engine, producer, consumer)
        assert got == [0, 1, 2]

    def test_get_blocks_in_virtual_time(self, engine):
        q = SimQueue(engine)

        def consumer(proc):
            yield from q.get_g()
            return proc.now

        def producer(proc):
            yield 5.0
            q.put("x")

        t, _ = run_procs(engine, consumer, producer)
        assert t == 5.0


class TestSimBarrier:
    def test_all_parties_synchronize(self, engine):
        bar = SimBarrier(engine, 3)

        def body(proc, i):
            yield float(i)
            yield from bar.wait_g()
            return proc.now

        res = run_procs(engine, *(partial(body, i=i) for i in range(3)))
        assert res == [2.0, 2.0, 2.0]  # all leave when the slowest arrives

    def test_generations(self, engine):
        bar = SimBarrier(engine, 2)
        gens = []

        def body(proc):
            gens.append((yield from bar.wait_g()))
            gens.append((yield from bar.wait_g()))

        run_procs(engine, body, body)
        assert sorted(gens) == [0, 0, 1, 1]

    def test_single_party_barrier_never_blocks(self, engine):
        bar = SimBarrier(engine, 1)

        def body(proc):
            return [(yield from bar.wait_g()), (yield from bar.wait_g())]

        assert run_procs(engine, body) == [[0, 1]]

    def test_invalid_party_count(self, engine):
        with pytest.raises(SimulationError):
            SimBarrier(engine, 0)


class TestLockFairnessProperty:
    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.integers(min_value=0, max_value=50),
                           min_size=2, max_size=8))
    def test_grant_order_matches_arrival_order(self, delays):
        """Whatever the arrival pattern, the lock grants strictly in
        arrival order (ties by start order)."""
        engine = Engine()
        lock = SimLock(engine)
        arrivals, grants = [], []

        def body(proc, i, d):
            yield d * 1e-3
            arrivals.append((proc.now, i))
            yield from lock.acquire_g()
            grants.append(i)
            yield 1.0  # force queuing
            lock.release()

        for i, d in enumerate(delays):
            SimProcess(engine, partial(body, i=i, d=d)).start()
        engine.run()
        expected = [i for _, i in sorted(arrivals, key=lambda t: (t[0],))]
        # Stable arrival order: holds of equal delay arrive in start order,
        # which `sorted` preserves.
        assert grants == expected
