"""Tests for the POSIX and Win32 thread model layers + command forwarding.

Every call of both models, and every main function, start routine and
forwarded command, is a generator function: the bodies here run
stackless."""

import numpy as np
import pytest

from repro.config import preset
from repro.errors import ModelError
from repro.models.forwarding import ForwardingService
from repro.models.pthreads import (EBUSY, EINVAL, ETIMEDOUT,
                                   PTHREAD_CREATE_DETACHED, PosixThreadsApi)
from repro.models.win32 import (INFINITE, STILL_ACTIVE, WAIT_OBJECT_0,
                                WAIT_TIMEOUT, Win32ThreadsApi)
from tests.conftest import spmd


def returns(value):
    """A generator function of any arguments that returns ``value``."""
    def returned(*args):
        return value
        yield  # unreachable
    return returned


# ------------------------------------------------------------- forwarding
class TestForwarding:
    def test_local_invoke_direct(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t1")

        def add(a, b):
            return a + b
            yield  # unreachable

        fwd.register("add", add)

        def main(env):
            if env.rank == 0:
                return (yield from fwd.invoke(0, "add", 2, 3))
            return None

        assert spmd(swdsm4, main)[0] == 5

    def test_remote_invoke_roundtrip(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t2")
        executed_on = []

        def where():
            executed_on.append("remote")
            return "done"
            yield  # unreachable

        fwd.register("where", where)

        def main(env):
            if env.rank == 0:
                return (yield from fwd.invoke(2, "where"))
            return None

        assert spmd(swdsm4, main)[0] == "done"
        assert executed_on == ["remote"]

    def test_remote_invoke_costs_time(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t3")
        fwd.register("noop", returns(None))

        def main(env):
            if env.rank == 0:
                t0 = env.wtime()
                yield from fwd.invoke(3, "noop")
                return env.wtime() - t0
            return None

        assert spmd(swdsm4, main)[0] > 100e-6  # an Ethernet round trip

    def test_bound_invoke_runs_in_rank_context(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t4")
        dsm = swdsm4.dsm

        def whoami():
            return dsm.current_rank()
            yield  # unreachable

        fwd.register("whoami", whoami)

        def main(env):
            if env.rank == 0:
                return (yield from fwd.invoke(2, "whoami", bind=True))
            return None

        assert spmd(swdsm4, main)[0] == 2

    def test_unknown_and_duplicate_commands(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t5")
        fwd.register("x", returns(None))
        with pytest.raises(ModelError):
            fwd.register("x", returns(None))

        def main(env):
            if env.rank == 0:
                with pytest.raises(ModelError):
                    yield from fwd.invoke(0, "nope")
            return True

        assert all(spmd(swdsm4, main))


# --------------------------------------------------------------- pthreads
def pthreads_on(preset_name="sw-dsm-4"):
    plat = preset(preset_name).build()
    return plat, PosixThreadsApi(plat.hamster)


def join_all(p, tids):
    """Join every tid in turn; their return values."""
    values = []
    for tid in tids:
        values.append((yield from p.pthread_join(tid))[1])
    return values


class TestPthreadLifecycle:
    def test_create_join_round_robin(self):
        plat, api = pthreads_on()

        def times10(arg):
            return arg * 10
            yield  # unreachable

        def main(p):
            tids = []
            for i in range(4):
                tids.append((yield from p.pthread_create(times10, i)))
            return (yield from join_all(p, tids))

        assert api.run(main) == [0, 10, 20, 30]

    def test_threads_distributed_across_ranks(self):
        plat, api = pthreads_on()
        dsm = plat.dsm

        def whereami(_):
            return dsm.current_rank()
            yield  # unreachable

        def main(p):
            tids = []
            for _ in range(4):
                tids.append((yield from p.pthread_create(whereami, None)))
            return sorted((yield from join_all(p, tids)))

        assert api.run(main) == [0, 1, 2, 3]

    def test_attr_pins_rank(self):
        plat, api = pthreads_on()
        dsm = plat.dsm

        def whereami(_):
            return dsm.current_rank()
            yield  # unreachable

        def main(p):
            attr = yield from p.pthread_attr_init()
            assert (yield from p.pthread_attr_setnode(attr, 3)) == 0
            tid = yield from p.pthread_create(whereami, None, attr)
            return (yield from p.pthread_join(tid))[1]

        assert api.run(main) == 3

    def test_pthread_exit_value(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            def body(_):
                yield from p.pthread_exit("early")
                return "late"  # unreachable

            tid = yield from p.pthread_create(body, None)
            return (yield from p.pthread_join(tid))[1]

        assert api.run(main) == "early"

    def test_join_detached_is_einval(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            attr = yield from p.pthread_attr_init()
            yield from p.pthread_attr_setdetachstate(attr,
                                                     PTHREAD_CREATE_DETACHED)
            tid = yield from p.pthread_create(returns(None), None, attr)
            code, _ = yield from p.pthread_join(tid)
            return code

        assert api.run(main) == EINVAL

    def test_self_and_equal(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            def body(_):
                return (yield from p.pthread_self())

            main_tid = yield from p.pthread_self()
            child = yield from p.pthread_create(body, None)
            child_tid = (yield from p.pthread_join(child))[1]
            return main_tid, child_tid, (yield from p.pthread_equal(
                main_tid, main_tid))

        main_tid, child_tid, eq = api.run(main)
        assert main_tid == 1 and child_tid != 1 and eq

    def test_once_runs_once(self):
        plat, api = pthreads_on("smp-2")
        calls = []

        def main(p):
            def init():
                calls.append(1)
                yield from p.sched_yield()

            def body(_):
                yield from p.pthread_once("ctrl", init)

            tids = []
            for _ in range(3):
                tids.append((yield from p.pthread_create(body, None)))
            yield from join_all(p, tids)
            yield from p.pthread_once("ctrl", init)
            return len(calls)

        assert api.run(main) == 1

    def test_cancel_deferred(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            from repro.models.pthreads import PTHREAD_CANCELED

            def body(_):
                for _ in range(100):
                    yield 1e-3
                    yield from p.pthread_testcancel()
                return "finished"

            tid = yield from p.pthread_create(body, None)
            yield 5e-3
            yield from p.pthread_cancel(tid)
            result = (yield from p.pthread_join(tid))[1]
            return result is PTHREAD_CANCELED

        assert api.run(main)


class TestPthreadSync:
    def test_mutex_protects_counter(self):
        plat, api = pthreads_on()

        def main(p):
            arr = yield from p.hamster.memory.alloc_array_g((1,), name="ctr")
            yield from arr.set_g(0, 0.0)
            mutex = yield from p.pthread_mutex_init()

            def body(_):
                for _ in range(5):
                    yield from p.pthread_mutex_lock(mutex)
                    value = yield from arr.get_g(0)
                    yield from arr.set_g(0, float(value) + 1.0)
                    yield from p.pthread_mutex_unlock(mutex)

            tids = []
            for _ in range(4):
                tids.append((yield from p.pthread_create(body, None)))
            yield from join_all(p, tids)
            yield from arr.refresh_g()
            return float((yield from arr.get_g(0)))

        assert api.run(main) == 20.0

    def test_trylock_and_recursive(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            from repro.models.pthreads import PTHREAD_MUTEX_RECURSIVE

            m = yield from p.pthread_mutex_init(PTHREAD_MUTEX_RECURSIVE)
            assert (yield from p.pthread_mutex_lock(m)) == 0
            assert (yield from p.pthread_mutex_lock(m)) == 0  # re-entry
            assert (yield from p.pthread_mutex_unlock(m)) == 0
            assert (yield from p.pthread_mutex_unlock(m)) == 0

            plain = yield from p.pthread_mutex_init()
            assert (yield from p.pthread_mutex_trylock(plain)) == 0

            def contender(_):
                return (yield from p.pthread_mutex_trylock(plain))

            tid = yield from p.pthread_create(contender, None)
            busy = (yield from p.pthread_join(tid))[1]
            yield from p.pthread_mutex_unlock(plain)
            return busy

        assert api.run(main) == EBUSY

    def test_unlock_not_owner_einval(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            m = yield from p.pthread_mutex_init()

            def body(_):
                return (yield from p.pthread_mutex_unlock(m))

            yield from p.pthread_mutex_lock(m)
            tid = yield from p.pthread_create(body, None)
            err = (yield from p.pthread_join(tid))[1]
            yield from p.pthread_mutex_unlock(m)
            return err

        assert api.run(main) == EINVAL

    def test_cond_signal(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            m = yield from p.pthread_mutex_init()
            cond = yield from p.pthread_cond_init(m)
            state = {"ready": False}

            def waiter(_):
                yield from p.pthread_mutex_lock(m)
                while not state["ready"]:
                    yield from p.pthread_cond_wait(cond, m)
                yield from p.pthread_mutex_unlock(m)
                return p.hamster.timing.wtime()

            tid = yield from p.pthread_create(waiter, None)
            yield 0.01
            yield from p.pthread_mutex_lock(m)
            state["ready"] = True
            yield from p.pthread_cond_signal(cond)
            yield from p.pthread_mutex_unlock(m)
            return (yield from p.pthread_join(tid))[1] >= 0.01

        assert api.run(main)

    def test_cond_timedwait_times_out(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            m = yield from p.pthread_mutex_init()
            cond = yield from p.pthread_cond_init(m)
            yield from p.pthread_mutex_lock(m)
            code = yield from p.pthread_cond_timedwait(cond, m, timeout=0.01)
            yield from p.pthread_mutex_unlock(m)
            return code

        assert api.run(main) == ETIMEDOUT

    def test_rwlock_many_readers_one_writer(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            rw = yield from p.pthread_rwlock_init()
            assert (yield from p.pthread_rwlock_rdlock(rw)) == 0
            assert (yield from p.pthread_rwlock_tryrdlock(rw)) == 0  # share
            assert (yield from p.pthread_rwlock_trywrlock(rw)) == EBUSY
            yield from p.pthread_rwlock_unlock(rw)
            yield from p.pthread_rwlock_unlock(rw)
            assert (yield from p.pthread_rwlock_trywrlock(rw)) == 0
            assert (yield from p.pthread_rwlock_tryrdlock(rw)) == EBUSY
            return (yield from p.pthread_rwlock_unlock(rw))

        assert api.run(main) == 0

    def test_barrier(self):
        plat, api = pthreads_on()

        def main(p):
            bar = yield from p.pthread_barrier_init(3)
            stamps = []

            def body(i):
                yield 0.001 * (i + 1)
                yield from p.pthread_barrier_wait(bar)
                stamps.append(p.hamster.timing.wtime())

            tids = []
            for i in range(3):
                tids.append((yield from p.pthread_create(body, i)))
            yield from join_all(p, tids)
            return max(stamps) - min(stamps) < 1e-3

        assert api.run(main)

    def test_keys(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            key = yield from p.pthread_key_create()

            def body(i):
                yield from p.pthread_setspecific(key, i * 100)
                return (yield from p.pthread_getspecific(key))

            tids = []
            for i in range(2):
                tids.append((yield from p.pthread_create(body, i)))
            vals = yield from join_all(p, tids)
            assert (yield from p.pthread_key_delete(key)) == 0
            assert (yield from p.pthread_key_delete(key)) == EINVAL
            return vals

        assert api.run(main) == [0, 100]


# ------------------------------------------------------------------ win32
def win32_on(preset_name="sw-dsm-4"):
    plat = preset(preset_name).build()
    return plat, Win32ThreadsApi(plat.hamster)


def sleeper(w):
    """A start routine that sleeps ``ms`` and returns it."""
    def body(ms):
        yield from w.Sleep(ms)
        return ms
    return body


class TestWin32Threads:
    def test_create_wait_exit_code(self):
        plat, api = win32_on()

        def plus1(arg):
            return arg + 1
            yield  # unreachable

        def main(w):
            h = yield from w.CreateThread(plus1, 41)
            assert (yield from w.GetExitCodeThread(h)) in (STILL_ACTIVE, 42)
            assert (yield from w.WaitForSingleObject(h)) == WAIT_OBJECT_0
            return (yield from w.GetExitCodeThread(h))

        assert api.run(main) == 42

    def test_create_remote_thread_placement(self):
        plat, api = win32_on()
        dsm = plat.dsm

        def whereami(_):
            return dsm.current_rank()
            yield  # unreachable

        def main(w):
            h = yield from w.CreateRemoteThread(2, whereami)
            yield from w.WaitForSingleObject(h)
            return (yield from w.GetExitCodeThread(h))

        assert api.run(main) == 2

    def test_exit_thread(self):
        plat, api = win32_on("smp-2")

        def main(w):
            def body(_):
                yield from w.ExitThread(7)

            h = yield from w.CreateThread(body)
            yield from w.WaitForSingleObject(h)
            return (yield from w.GetExitCodeThread(h))

        assert api.run(main) == 7

    def test_wait_for_multiple_all_and_any(self):
        plat, api = win32_on()

        def main(w):
            handles = []
            for ms in (5, 1, 10):
                handles.append((yield from w.CreateThread(sleeper(w), ms)))
            first = yield from w.WaitForMultipleObjects(list(handles),
                                                        wait_all=False)
            all_code = yield from w.WaitForMultipleObjects(list(handles),
                                                           wait_all=True)
            return first >= WAIT_OBJECT_0, all_code == WAIT_OBJECT_0

        assert api.run(main) == (True, True)

    def test_thread_wait_timeout(self):
        plat, api = win32_on("smp-2")

        def main(w):
            h = yield from w.CreateThread(sleeper(w), 100)  # 100 ms
            code = yield from w.WaitForSingleObject(h, timeout=1)  # 1 ms
            yield from w.WaitForSingleObject(h)
            return code

        assert api.run(main) == WAIT_TIMEOUT


class TestWin32Sync:
    def test_mutex_handles(self):
        plat, api = win32_on("smp-2")

        def main(w):
            m = yield from w.CreateMutex()
            assert (yield from w.WaitForSingleObject(m)) == WAIT_OBJECT_0
            # held: a zero-timeout wait fails
            assert (yield from w.WaitForSingleObject(m, timeout=0)) \
                == WAIT_TIMEOUT
            assert (yield from w.ReleaseMutex(m))
            assert (yield from w.CloseHandle(m))
            return True

        assert api.run(main)

    def test_semaphore_max_enforced(self):
        plat, api = win32_on("smp-2")

        def main(w):
            s = yield from w.CreateSemaphore(1, 2)
            assert (yield from w.WaitForSingleObject(s)) == WAIT_OBJECT_0
            assert (yield from w.ReleaseSemaphore(s, 2))
            # would exceed the maximum
            assert not (yield from w.ReleaseSemaphore(s, 1))
            return (yield from w.GetLastError()) != 0

        assert api.run(main)

    def test_manual_reset_event_releases_all(self):
        plat, api = win32_on()

        def main(w):
            ev = yield from w.CreateEvent(manual_reset=True)

            def body(_):
                return (yield from w.WaitForSingleObject(ev))

            hs = []
            for _ in range(3):
                hs.append((yield from w.CreateThread(body)))
            yield from w.Sleep(5)
            yield from w.SetEvent(ev)
            results, codes = [], []
            for h in hs:
                results.append((yield from w.WaitForSingleObject(h)))
            for h in hs:
                codes.append((yield from w.GetExitCodeThread(h)))
            return results, codes

        results, codes = api.run(main)
        assert results == [WAIT_OBJECT_0] * 3
        assert codes == [WAIT_OBJECT_0] * 3

    def test_auto_reset_event_releases_one(self):
        plat, api = win32_on("smp-2")

        def main(w):
            ev = yield from w.CreateEvent(manual_reset=False,
                                          initial_state=True)
            assert (yield from w.WaitForSingleObject(ev, timeout=0)) \
                == WAIT_OBJECT_0
            # auto-reset consumed the signal
            return (yield from w.WaitForSingleObject(ev, timeout=0))

        assert api.run(main) == WAIT_TIMEOUT

    def test_critical_section(self):
        plat, api = win32_on("smp-2")

        def main(w):
            cs = yield from w.InitializeCriticalSection()
            yield from w.EnterCriticalSection(cs)
            # held by us
            assert not (yield from w.TryEnterCriticalSection(cs)) or True
            yield from w.LeaveCriticalSection(cs)
            assert (yield from w.TryEnterCriticalSection(cs))
            yield from w.LeaveCriticalSection(cs)
            yield from w.DeleteCriticalSection(cs)
            return True

        assert api.run(main)

    def test_interlocked_ops(self):
        plat, api = win32_on("smp-2")

        def main(w):
            arr = yield from w.hamster.memory.alloc_array_g((1,), np.int64,
                                                            name="i")
            yield from arr.set_g(0, 10)
            assert (yield from w.InterlockedIncrement(arr)) == 11
            assert (yield from w.InterlockedDecrement(arr)) == 10
            assert (yield from w.InterlockedExchange(arr, 5)) == 10
            assert (yield from w.InterlockedCompareExchange(arr, 99, 5)) == 5
            assert (yield from w.InterlockedExchangeAdd(arr, 1)) == 99
            return int((yield from arr.get_g(0)))

        assert api.run(main) == 100

    def test_tls(self):
        plat, api = win32_on("smp-2")

        def main(w):
            key = yield from w.TlsAlloc()

            def body(i):
                yield from w.TlsSetValue(key, i)
                return (yield from w.TlsGetValue(key))

            hs = []
            for i in range(2):
                hs.append((yield from w.CreateThread(body, i)))
            vals = []
            for h in hs:
                yield from w.WaitForSingleObject(h)
                vals.append((yield from w.GetExitCodeThread(h)))
            assert (yield from w.TlsFree(key))
            return sorted(vals)

        assert api.run(main) == [0, 1]

    def test_system_info(self):
        plat, api = win32_on()

        def main(w):
            info = yield from w.GetSystemInfo()
            return (info["dwNumberOfProcessors"], info["dwNumberOfNodes"],
                    (yield from w.GetCurrentProcessorNumber()))

        assert api.run(main) == (4, 4, 0)   # the main thread runs on node 0
