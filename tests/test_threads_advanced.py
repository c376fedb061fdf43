"""Advanced thread-API behaviours: cancellation states, APCs, suspend /
resume bookkeeping, priorities, and thread models over the composite DSM."""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.models.pthreads import (PTHREAD_CANCEL_DISABLE,
                                   PTHREAD_CANCEL_ENABLE, EINVAL,
                                   PosixThreadsApi)
from repro.models.win32 import (STILL_ACTIVE, WAIT_OBJECT_0, Win32ThreadsApi)


def sleeps(w, ms, code=None):
    """A start routine: sleep ``ms``, then return ``code``."""
    def body(_):
        yield from w.Sleep(ms)
        return code
    return body


class TestPthreadCancellation:
    def test_cancel_disabled_thread_survives(self):
        plat = preset("smp-2").build()
        api = PosixThreadsApi(plat.hamster)

        def main(p):
            def body(_):
                yield from p.pthread_setcancelstate(PTHREAD_CANCEL_DISABLE)
                for _ in range(10):
                    yield 1e-3
                    yield from p.pthread_testcancel()  # ignored: disabled
                return "survived"

            tid = yield from p.pthread_create(body, None)
            yield 2e-3
            yield from p.pthread_cancel(tid)
            return (yield from p.pthread_join(tid))[1]

        assert api.run(main) == "survived"

    def test_setcancelstate_invalid(self):
        plat = preset("smp-2").build()
        api = PosixThreadsApi(plat.hamster)

        def main(p):
            return (yield from p.pthread_setcancelstate(42))

        assert api.run(main) == EINVAL

    def test_cancel_of_finished_thread_harmless(self):
        plat = preset("smp-2").build()
        api = PosixThreadsApi(plat.hamster)

        def done(_):
            return "done"
            yield  # unreachable

        def main(p):
            tid = yield from p.pthread_create(done, None)
            yield 1e-3
            assert (yield from p.pthread_cancel(tid)) == 0
            return (yield from p.pthread_join(tid))[1]

        assert api.run(main) == "done"


class TestWin32ThreadControl:
    def test_suspend_resume_counts(self):
        plat = preset("smp-2").build()
        api = Win32ThreadsApi(plat.hamster)

        def main(w):
            h = yield from w.CreateThread(sleeps(w, 5, code=1))
            assert (yield from w.SuspendThread(h)) == 0  # previous count
            assert (yield from w.ResumeThread(h)) == 1   # was suspended
            assert (yield from w.ResumeThread(h)) == 0   # was not
            yield from w.WaitForSingleObject(h)
            return (yield from w.GetExitCodeThread(h))

        assert api.run(main) == 1

    def test_priority_roundtrip(self):
        plat = preset("smp-2").build()
        api = Win32ThreadsApi(plat.hamster)

        def main(w):
            h = yield from w.CreateThread(sleeps(w, 1))
            assert (yield from w.SetThreadPriority(h, 2))
            level = yield from w.GetThreadPriority(h)
            yield from w.WaitForSingleObject(h)
            return level

        assert api.run(main) == 2

    def test_queue_user_apc_runs_on_target_rank(self):
        plat = preset("sw-dsm-4").build()
        api = Win32ThreadsApi(plat.hamster)
        dsm = plat.dsm
        where = []

        def apc(arg):
            where.append(dsm.current_rank())
            yield from api.Sleep(1)

        def main(w):
            h = yield from w.CreateRemoteThread(2, sleeps(w, 10))
            assert (yield from w.QueueUserAPC(apc, h, None))
            yield from w.WaitForSingleObject(h)
            return True

        assert api.run(main)
        assert where == [2]

    def test_terminate_thread_marks_exit_code(self):
        plat = preset("smp-2").build()
        api = Win32ThreadsApi(plat.hamster)

        def main(w):
            h = yield from w.CreateThread(sleeps(w, 60_000))  # long sleeper
            assert (yield from w.TerminateThread(h, exit_code=99))
            return (yield from w.GetExitCodeThread(h))

        assert api.run(main) == 99

    def test_closed_handle_rejected(self):
        from repro.errors import ModelError

        plat = preset("smp-2").build()
        api = Win32ThreadsApi(plat.hamster)

        def main(w):
            m = yield from w.CreateMutex()
            yield from w.CloseHandle(m)
            with pytest.raises(ModelError):
                yield from w.WaitForSingleObject(m)
            return True

        assert api.run(main)

    def test_handle_kind_mismatch_rejected(self):
        from repro.errors import ModelError

        plat = preset("smp-2").build()
        api = Win32ThreadsApi(plat.hamster)

        def main(w):
            m = yield from w.CreateMutex()
            with pytest.raises(ModelError):
                yield from w.GetExitCodeThread(m)  # a mutex is no thread
            return True

        assert api.run(main)


class TestThreadsOnComposite:
    """Thread APIs over the multi-DSM platform: full-stack integration."""

    def test_pthreads_mutex_counter_on_composite(self):
        plat = ClusterConfig(platform="sci", dsm="composite", nodes=2).build()
        api = PosixThreadsApi(plat.hamster)

        def main(p):
            arr = p.hamster.dsm.make_array_on("scivm", (1,), name="c")
            yield from arr.set_g(0, 0.0)
            mutex = yield from p.pthread_mutex_init()

            def body(_):
                for _ in range(3):
                    yield from p.pthread_mutex_lock(mutex)
                    value = yield from arr.get_g(0)
                    yield from arr.set_g(0, float(value) + 1.0)
                    yield from p.pthread_mutex_unlock(mutex)

            tids = []
            for _ in range(2):
                tids.append((yield from p.pthread_create(body, None)))
            for t in tids:
                yield from p.pthread_join(t)
            return float((yield from arr.get_g(0)))

        assert api.run(main) == 6.0

    def test_win32_events_on_composite(self):
        plat = ClusterConfig(platform="sci", dsm="composite", nodes=2).build()
        api = Win32ThreadsApi(plat.hamster)

        def main(w):
            ev = yield from w.CreateEvent(manual_reset=False,
                                          initial_state=False)

            def waiter(_):
                return (yield from w.WaitForSingleObject(ev))

            h = yield from w.CreateThread(waiter)
            yield from w.Sleep(1)
            yield from w.SetEvent(ev)
            yield from w.WaitForSingleObject(h)
            return (yield from w.GetExitCodeThread(h))

        assert api.run(main) == WAIT_OBJECT_0
