"""Tests for the POSIX and Win32 thread model layers + command forwarding."""

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


# ------------------------------------------------------------- forwarding
class TestForwarding:
    def test_local_invoke_direct(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t1")
        fwd.register("add", lambda a, b: a + b)

        def main(env):
            if env.rank == 0:
                return fwd.invoke(0, "add", 2, 3)
            return None

        assert spmd(swdsm4, main)[0] == 5

    def test_remote_invoke_roundtrip(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t2")
        executed_on = []

        def where():
            executed_on.append("remote")
            return "done"

        fwd.register("where", where)

        def main(env):
            if env.rank == 0:
                return fwd.invoke(2, "where")
            return None

        assert spmd(swdsm4, main)[0] == "done"
        assert executed_on == ["remote"]

    def test_remote_invoke_costs_time(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t3")
        fwd.register("noop", lambda: None)

        def main(env):
            if env.rank == 0:
                t0 = env.wtime()
                fwd.invoke(3, "noop")
                return env.wtime() - t0
            return None

        assert spmd(swdsm4, main)[0] > 100e-6  # an Ethernet round trip

    def test_bound_invoke_runs_in_rank_context(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t4")
        dsm = swdsm4.dsm
        fwd.register("whoami", lambda: dsm.current_rank())

        def main(env):
            if env.rank == 0:
                return fwd.invoke(2, "whoami", bind=True)
            return None

        assert spmd(swdsm4, main)[0] == 2

    def test_unknown_and_duplicate_commands(self, swdsm4):
        fwd = ForwardingService(swdsm4.hamster, channel_name="t5")
        fwd.register("x", lambda: None)
        with pytest.raises(ModelError):
            fwd.register("x", lambda: None)

        def main(env):
            if env.rank == 0:
                with pytest.raises(ModelError):
                    fwd.invoke(0, "nope")
            return True

        assert all(spmd(swdsm4, main))


# --------------------------------------------------------------- pthreads
def pthreads_on(preset_name="sw-dsm-4"):
    plat = preset(preset_name).build()
    return plat, PosixThreadsApi(plat.hamster)


class TestPthreadLifecycle:
    def test_create_join_round_robin(self):
        plat, api = pthreads_on()

        def main(p):
            tids = [p.pthread_create(lambda arg: arg * 10, i) for i in range(4)]
            return [p.pthread_join(t)[1] for t in tids]

        assert api.run(main) == [0, 10, 20, 30]

    def test_threads_distributed_across_ranks(self):
        plat, api = pthreads_on()
        dsm = plat.dsm

        def main(p):
            def whereami(_):
                return dsm.current_rank()

            tids = [p.pthread_create(whereami, None) for _ in range(4)]
            return sorted(p.pthread_join(t)[1] for t in tids)

        assert api.run(main) == [0, 1, 2, 3]

    def test_attr_pins_rank(self):
        plat, api = pthreads_on()
        dsm = plat.dsm

        def main(p):
            attr = p.pthread_attr_init()
            assert p.pthread_attr_setnode(attr, 3) == 0
            tid = p.pthread_create(lambda _: dsm.current_rank(), None, attr)
            return p.pthread_join(tid)[1]

        assert api.run(main) == 3

    def test_pthread_exit_value(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            def body(_):
                p.pthread_exit("early")
                return "late"  # unreachable

            tid = p.pthread_create(body, None)
            return p.pthread_join(tid)[1]

        assert api.run(main) == "early"

    def test_join_detached_is_einval(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            attr = p.pthread_attr_init()
            p.pthread_attr_setdetachstate(attr, PTHREAD_CREATE_DETACHED)
            tid = p.pthread_create(lambda _: None, None, attr)
            code, _ = p.pthread_join(tid)
            return code

        assert api.run(main) == EINVAL

    def test_self_and_equal(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            main_tid = p.pthread_self()
            child = p.pthread_create(lambda _: p.pthread_self(), None)
            child_tid = p.pthread_join(child)[1]
            return main_tid, child_tid, p.pthread_equal(main_tid, main_tid)

        main_tid, child_tid, eq = api.run(main)
        assert main_tid == 1 and child_tid != 1 and eq

    def test_once_runs_once(self):
        plat, api = pthreads_on("smp-2")
        calls = []

        def main(p):
            def init():
                calls.append(1)

            def body(_):
                p.pthread_once("ctrl", init)

            tids = [p.pthread_create(body, None) for _ in range(3)]
            for t in tids:
                p.pthread_join(t)
            p.pthread_once("ctrl", init)
            return len(calls)

        assert api.run(main) == 1

    def test_cancel_deferred(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            from repro.models.pthreads import PTHREAD_CANCELED

            def body(_):
                proc = p.hamster.engine.require_process()
                for _ in range(100):
                    proc.hold(1e-3)
                    p.pthread_testcancel()
                return "finished"

            tid = p.pthread_create(body, None)
            p.hamster.engine.require_process().hold(5e-3)
            p.pthread_cancel(tid)
            result = p.pthread_join(tid)[1]
            return result is PTHREAD_CANCELED

        assert api.run(main)


class TestPthreadSync:
    def test_mutex_protects_counter(self):
        plat, api = pthreads_on()

        def main(p):
            arr = p.hamster.memory.alloc_array((1,), name="ctr")
            arr[0] = 0.0
            mutex = p.pthread_mutex_init()

            def body(_):
                for _ in range(5):
                    p.pthread_mutex_lock(mutex)
                    arr[0] = float(arr[0]) + 1.0
                    p.pthread_mutex_unlock(mutex)

            tids = [p.pthread_create(body, None) for _ in range(4)]
            for t in tids:
                p.pthread_join(t)
            arr.refresh()
            return float(arr[0])

        assert api.run(main) == 20.0

    def test_trylock_and_recursive(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            from repro.models.pthreads import PTHREAD_MUTEX_RECURSIVE

            m = p.pthread_mutex_init(PTHREAD_MUTEX_RECURSIVE)
            assert p.pthread_mutex_lock(m) == 0
            assert p.pthread_mutex_lock(m) == 0   # recursive re-entry
            assert p.pthread_mutex_unlock(m) == 0
            assert p.pthread_mutex_unlock(m) == 0

            plain = p.pthread_mutex_init()
            assert p.pthread_mutex_trylock(plain) == 0

            def contender(_):
                return p.pthread_mutex_trylock(plain)

            tid = p.pthread_create(contender, None)
            busy = p.pthread_join(tid)[1]
            p.pthread_mutex_unlock(plain)
            return busy

        assert api.run(main) == EBUSY

    def test_unlock_not_owner_einval(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            m = p.pthread_mutex_init()

            def body(_):
                return p.pthread_mutex_unlock(m)

            p.pthread_mutex_lock(m)
            tid = p.pthread_create(body, None)
            err = p.pthread_join(tid)[1]
            p.pthread_mutex_unlock(m)
            return err

        assert api.run(main) == EINVAL

    def test_cond_signal(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            m = p.pthread_mutex_init()
            cond = p.pthread_cond_init(m)
            state = {"ready": False}

            def waiter(_):
                p.pthread_mutex_lock(m)
                while not state["ready"]:
                    p.pthread_cond_wait(cond, m)
                p.pthread_mutex_unlock(m)
                return p.hamster.timing.wtime()

            tid = p.pthread_create(waiter, None)
            p.hamster.engine.require_process().hold(0.01)
            p.pthread_mutex_lock(m)
            state["ready"] = True
            p.pthread_cond_signal(cond)
            p.pthread_mutex_unlock(m)
            return p.pthread_join(tid)[1] >= 0.01

        assert api.run(main)

    def test_cond_timedwait_times_out(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            m = p.pthread_mutex_init()
            cond = p.pthread_cond_init(m)
            p.pthread_mutex_lock(m)
            code = p.pthread_cond_timedwait(cond, m, timeout=0.01)
            p.pthread_mutex_unlock(m)
            return code

        assert api.run(main) == ETIMEDOUT

    def test_rwlock_many_readers_one_writer(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            rw = p.pthread_rwlock_init()
            assert p.pthread_rwlock_rdlock(rw) == 0
            assert p.pthread_rwlock_tryrdlock(rw) == 0   # readers share
            assert p.pthread_rwlock_trywrlock(rw) == EBUSY
            p.pthread_rwlock_unlock(rw)
            p.pthread_rwlock_unlock(rw)
            assert p.pthread_rwlock_trywrlock(rw) == 0
            assert p.pthread_rwlock_tryrdlock(rw) == EBUSY
            return p.pthread_rwlock_unlock(rw)

        assert api.run(main) == 0

    def test_barrier(self):
        plat, api = pthreads_on()

        def main(p):
            bar = p.pthread_barrier_init(3)
            stamps = []

            def body(i):
                p.hamster.engine.require_process().hold(0.001 * (i + 1))
                p.pthread_barrier_wait(bar)
                stamps.append(p.hamster.timing.wtime())

            tids = [p.pthread_create(body, i) for i in range(3)]
            for t in tids:
                p.pthread_join(t)
            return max(stamps) - min(stamps) < 1e-3

        assert api.run(main)

    def test_keys(self):
        plat, api = pthreads_on("smp-2")

        def main(p):
            key = p.pthread_key_create()

            def body(i):
                p.pthread_setspecific(key, i * 100)
                return p.pthread_getspecific(key)

            tids = [p.pthread_create(body, i) for i in range(2)]
            vals = [p.pthread_join(t)[1] for t in tids]
            assert p.pthread_key_delete(key) == 0
            assert p.pthread_key_delete(key) == EINVAL
            return vals

        assert api.run(main) == [0, 100]


# ------------------------------------------------------------------ win32
def win32_on(preset_name="sw-dsm-4"):
    plat = preset(preset_name).build()
    return plat, Win32ThreadsApi(plat.hamster)


class TestWin32Threads:
    def test_create_wait_exit_code(self):
        plat, api = win32_on()

        def main(w):
            h = w.CreateThread(lambda arg: arg + 1, 41)
            assert w.GetExitCodeThread(h) in (STILL_ACTIVE, 42)
            assert w.WaitForSingleObject(h) == WAIT_OBJECT_0
            return w.GetExitCodeThread(h)

        assert api.run(main) == 42

    def test_create_remote_thread_placement(self):
        plat, api = win32_on()
        dsm = plat.dsm

        def main(w):
            h = w.CreateRemoteThread(2, lambda _: dsm.current_rank())
            w.WaitForSingleObject(h)
            return w.GetExitCodeThread(h)

        assert api.run(main) == 2

    def test_exit_thread(self):
        plat, api = win32_on("smp-2")

        def main(w):
            def body(_):
                w.ExitThread(7)

            h = w.CreateThread(body)
            w.WaitForSingleObject(h)
            return w.GetExitCodeThread(h)

        assert api.run(main) == 7

    def test_wait_for_multiple_all_and_any(self):
        plat, api = win32_on()

        def main(w):
            def body(ms):
                w.Sleep(ms)
                return ms

            handles = [w.CreateThread(body, ms) for ms in (5, 1, 10)]
            first = w.WaitForMultipleObjects(list(handles), wait_all=False)
            all_code = w.WaitForMultipleObjects(list(handles), wait_all=True)
            return first >= WAIT_OBJECT_0, all_code == WAIT_OBJECT_0

        assert api.run(main) == (True, True)

    def test_thread_wait_timeout(self):
        plat, api = win32_on("smp-2")

        def main(w):
            h = w.CreateThread(lambda _: w.Sleep(100))  # 100 ms
            code = w.WaitForSingleObject(h, timeout=1)  # 1 ms
            w.WaitForSingleObject(h)
            return code

        assert api.run(main) == WAIT_TIMEOUT


class TestWin32Sync:
    def test_mutex_handles(self):
        plat, api = win32_on("smp-2")

        def main(w):
            m = w.CreateMutex()
            assert w.WaitForSingleObject(m) == WAIT_OBJECT_0
            assert w.WaitForSingleObject(m, timeout=0) == WAIT_TIMEOUT  # held
            assert w.ReleaseMutex(m)
            assert w.CloseHandle(m)
            return True

        assert api.run(main)

    def test_semaphore_max_enforced(self):
        plat, api = win32_on("smp-2")

        def main(w):
            s = w.CreateSemaphore(1, 2)
            assert w.WaitForSingleObject(s) == WAIT_OBJECT_0
            assert w.ReleaseSemaphore(s, 2)
            assert not w.ReleaseSemaphore(s, 1)  # would exceed maximum
            return w.GetLastError() != 0

        assert api.run(main)

    def test_manual_reset_event_releases_all(self):
        plat, api = win32_on()

        def main(w):
            ev = w.CreateEvent(manual_reset=True)

            def body(_):
                return w.WaitForSingleObject(ev)

            hs = [w.CreateThread(body) for _ in range(3)]
            w.Sleep(5)
            w.SetEvent(ev)
            results = [w.WaitForSingleObject(h) for h in hs]
            codes = [w.GetExitCodeThread(h) for h in hs]
            return results, codes

        results, codes = api.run(main)
        assert results == [WAIT_OBJECT_0] * 3
        assert codes == [WAIT_OBJECT_0] * 3

    def test_auto_reset_event_releases_one(self):
        plat, api = win32_on("smp-2")

        def main(w):
            ev = w.CreateEvent(manual_reset=False, initial_state=True)
            assert w.WaitForSingleObject(ev, timeout=0) == WAIT_OBJECT_0
            # auto-reset consumed the signal
            return w.WaitForSingleObject(ev, timeout=0)

        assert api.run(main) == WAIT_TIMEOUT

    def test_critical_section(self):
        plat, api = win32_on("smp-2")

        def main(w):
            cs = w.InitializeCriticalSection()
            w.EnterCriticalSection(cs)
            assert not w.TryEnterCriticalSection(cs) or True  # held by us
            w.LeaveCriticalSection(cs)
            assert w.TryEnterCriticalSection(cs)
            w.LeaveCriticalSection(cs)
            w.DeleteCriticalSection(cs)
            return True

        assert api.run(main)

    def test_interlocked_ops(self):
        plat, api = win32_on("smp-2")

        def main(w):
            arr = w.hamster.memory.alloc_array((1,), np.int64, name="i")
            arr[0] = 10
            assert w.InterlockedIncrement(arr) == 11
            assert w.InterlockedDecrement(arr) == 10
            assert w.InterlockedExchange(arr, 5) == 10
            assert w.InterlockedCompareExchange(arr, 99, 5) == 5
            assert w.InterlockedExchangeAdd(arr, 1) == 99
            return int(arr[0])

        assert api.run(main) == 100

    def test_tls(self):
        plat, api = win32_on("smp-2")

        def main(w):
            key = w.TlsAlloc()

            def body(i):
                w.TlsSetValue(key, i)
                return w.TlsGetValue(key)

            hs = [w.CreateThread(body, i) for i in range(2)]
            vals = []
            for h in hs:
                w.WaitForSingleObject(h)
                vals.append(w.GetExitCodeThread(h))
            assert w.TlsFree(key)
            return sorted(vals)

        assert api.run(main) == [0, 1]

    def test_system_info(self):
        plat, api = win32_on()

        def main(w):
            info = w.GetSystemInfo()
            return (info["dwNumberOfProcessors"], info["dwNumberOfNodes"],
                    w.GetCurrentProcessorNumber())

        assert api.run(main) == (4, 4, 0)   # the main thread runs on node 0
