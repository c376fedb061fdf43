"""The cross-model kernel, once per model of Table 2 it runs, as the golden
store's ``model/<model>/<preset>`` rows run it (:mod:`repro.bench.diffcheck`).

Each rank block-fills an ``N x N`` shared matrix, meets the others at a
barrier, adds its block into a lock-protected total, meets them again and
reads the total back; then it makes each of its model's other charging
calls once (identity, allocation, consistency, trylock, messaging, timing).
The thread APIs run the same block sum on threads: a main thread
allocates, creates one thread per rank (a create to another node is
forwarded there), joins them and returns their values, then makes each
of the model's other charging calls once.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.memory.layout import first_touch

__all__ = ["N", "KERNELS", "expected"]

#: The matrix edge.
N = 16


def expected(n_ranks: int) -> float:
    """The total every rank reads back."""
    rows = N // n_ranks
    return float(sum((r + 1) * rows * N for r in range(n_ranks)))


def _block_sum(pid, nprocs, A, total, barrier, lock, unlock, locked=False):
    """Block fill, barrier, lock-protected reduction, barrier, read-back
    (under the lock when ``locked``: a thread API's barrier is built on a
    lock of its own, so on a scope-consistent DSM it makes the total's
    last update visible to no one)."""
    rows = N // nprocs
    mine = (slice(pid * rows, (pid + 1) * rows), slice(None))
    yield from A.set_g(mine, float(pid + 1))
    yield from barrier()
    yield from lock()
    acc = yield from total.get_g(0)
    part = yield from A.get_g(mine)
    yield from total.set_g(0, float(acc) + float(part.sum()))
    yield from unlock()
    yield from barrier()
    if not locked:
        return float((yield from total.get_g(0)))
    yield from lock()
    value = yield from total.get_g(0)
    yield from unlock()
    return float(value)


def _each(m, *calls):
    """Make each call of ``m`` in turn: a name, or ``(name, *args)``."""
    for call in calls:
        name, *args = (call,) if isinstance(call, str) else call
        yield from getattr(m, name)(*args)


def spmd(m):
    pid = yield from m.spmd_init()
    n = yield from m.spmd_num_procs()
    A = yield from m.spmd_alloc_array((N, N), name="A")
    t = yield from m.spmd_alloc_array((1,), name="t")
    value = yield from _block_sum(pid, n, A, t, m.spmd_barrier,
                                  partial(m.spmd_lock, 0),
                                  partial(m.spmd_unlock, 0))
    yield from _each(m, "spmd_proc_id", "spmd_node_id", "spmd_num_nodes")
    region = yield from m.spmd_alloc(4096, name="r")
    if pid == 0:
        yield from m.spmd_free(region)
    lock = yield from m.spmd_newlock()
    if (yield from m.spmd_trylock(lock)):
        yield from m.spmd_unlock(lock)
    yield from _each(m, ("spmd_acquire", 1), ("spmd_release", 1), "spmd_fence",
                     ("spmd_send", (pid + 1) % n, pid), "spmd_recv",
                     "spmd_wtime", "spmd_stats", "spmd_capabilities",
                     "spmd_exit")
    return value


def smp_spmd(m):
    value = yield from spmd(m)
    yield from _each(m, "spmd_local_peers", ("spmd_is_local", 0),
                     "spmd_local_master", "spmd_local_barrier",
                     "spmd_cpus_on_node")
    return value


def treadmarks(m):
    yield from m.Tmk_startup()
    pid = yield from m.Tmk_proc_id()
    n = yield from m.Tmk_nprocs()
    A = t = None                 # rank 0 allocates, then distributes
    if pid == 0:
        A = yield from m.Tmk_malloc_array((N, N), name="A")
        t = yield from m.Tmk_malloc_array((1,), name="t")
    A = yield from m.Tmk_distribute("A", A)
    t = yield from m.Tmk_distribute("t", t)
    value = yield from _block_sum(pid, n, A, t, m.Tmk_barrier,
                                  partial(m.Tmk_lock_acquire, 0),
                                  partial(m.Tmk_lock_release, 0))
    region = yield from m.Tmk_malloc(4096, name=f"r{pid}")
    yield from m.Tmk_free(region)
    if (yield from m.Tmk_trylock(1)):
        yield from m.Tmk_lock_release(1)
    yield from _each(m, "Tmk_wtime", "Tmk_exit")
    return value


def hlrc(m):
    pid = yield from m.hlrc_init()
    n = yield from m.hlrc_num_procs()
    A = yield from m.hlrc_malloc_array((N, N), name="A")
    t = yield from m.hlrc_malloc_array((1,), name="t")
    value = yield from _block_sum(pid, n, A, t, m.hlrc_barrier,
                                  partial(m.hlrc_lock, 0),
                                  partial(m.hlrc_unlock, 0))
    yield from _each(m, "hlrc_my_pid", "hlrc_my_node", "hlrc_num_nodes")
    region = yield from m.hlrc_malloc(4096)
    if pid == 0:
        yield from m.hlrc_free(region)
    B = yield from m.hlrc_malloc_block((n, 512))
    yield from _each(m, ("hlrc_malloc_cyclic", (n, 512)),
                     ("hlrc_malloc_onhome", (n, 512), n - 1))
    # a first-touch page: on JiaJia its home is asked of its directory
    C = yield from m.hlrc_malloc_array((n, 512), name="C",
                                       distribution=first_touch())
    yield from _each(m, ("hlrc_home_of", B, pid),
                     ("hlrc_home_of", C, (pid + 1) % n), ("hlrc_acquire", 1),
                     ("hlrc_release", 1), "hlrc_flush")
    lock = yield from m.hlrc_newlock()
    if (yield from m.hlrc_trylock(lock)):
        yield from m.hlrc_unlock(lock)
    yield from _each(m, "hlrc_wtime", "hlrc_stats", "hlrc_capabilities",
                     "hlrc_exit")
    return value


def _threads(m, sync, create, join):
    """The main thread's part: allocate, create one thread per rank that
    runs the block sum, join them; returns the threads' values."""
    n = m.hamster.n_ranks
    memory = m.hamster.memory
    A = yield from memory.alloc_array_g((N, N), name="A")
    t = yield from memory.alloc_array_g((1,), name="t")
    barrier, lock, unlock = yield from sync(n)

    def worker(pid):
        return (yield from _block_sum(pid, n, A, t, barrier, lock, unlock,
                                      locked=True))

    handles = []
    for pid in range(n):
        handles.append((yield from create(worker, pid)))
    values = []
    for handle in handles:
        values.append((yield from join(handle)))
    return values


def pthreads(m):
    def sync(n):
        bar = yield from m.pthread_barrier_init(n)
        mutex = yield from m.pthread_mutex_init()
        return (partial(m.pthread_barrier_wait, bar),
                partial(m.pthread_mutex_lock, mutex),
                partial(m.pthread_mutex_unlock, mutex))

    def create(worker, pid):
        attr = yield from m.pthread_attr_init()
        yield from m.pthread_attr_setnode(attr, pid)
        return (yield from m.pthread_create(worker, pid, attr))

    def join(tid):
        _, value = yield from m.pthread_join(tid)
        return value

    values = yield from _threads(m, sync, create, join)
    n = m.hamster.n_ranks

    def leaver(code):
        yield from m.sched_yield()
        yield from m.pthread_exit(code)

    # an exit on the last rank, forwarded there and joined from here
    attr = yield from m.pthread_attr_init()
    yield from m.pthread_attr_setnode(attr, n - 1)
    tid = yield from m.pthread_create(leaver, 7, attr)
    yield from m.pthread_join(tid)

    def init():
        yield from m.sched_yield()

    yield from m.pthread_once("once", init)
    mutex = yield from m.pthread_mutex_init()
    yield from m.pthread_mutex_trylock(mutex)
    cond = yield from m.pthread_cond_init(mutex)
    yield from _each(m, ("pthread_cond_timedwait", cond, mutex, 1e-4),
                     ("pthread_cond_signal", cond),
                     ("pthread_cond_broadcast", cond),
                     ("pthread_mutex_unlock", mutex))
    rw = yield from m.pthread_rwlock_init()
    yield from _each(m, ("pthread_rwlock_rdlock", rw),
                     ("pthread_rwlock_tryrdlock", rw),
                     ("pthread_rwlock_unlock", rw),
                     ("pthread_rwlock_unlock", rw),
                     ("pthread_rwlock_trywrlock", rw),
                     ("pthread_rwlock_unlock", rw),
                     ("pthread_rwlock_wrlock", rw),
                     ("pthread_rwlock_unlock", rw))
    return values


def win32(m):
    def sync(n):
        # Win32 has no barrier: one interlocked arrival count, and the
        # n-th arrival of each phase sets that phase's manual-reset event.
        count = yield from m.hamster.memory.alloc_array_g(
            (1,), dtype=np.int64, name="count")
        events = []
        for _ in range(2):
            events.append((yield from m.CreateEvent(True)))
        cs = yield from m.InitializeCriticalSection()

        def barrier():
            arrived = yield from m.InterlockedIncrement(count)
            event = events[(arrived - 1) // n]
            if arrived % n == 0:
                yield from m.SetEvent(event)
            yield from m.WaitForSingleObject(event)

        return (barrier, partial(m.EnterCriticalSection, cs),
                partial(m.LeaveCriticalSection, cs))

    def create(worker, pid):
        return (yield from m.CreateRemoteThread(pid, worker, pid))

    def join(handle):
        yield from m.WaitForSingleObject(handle)
        return (yield from m.GetExitCodeThread(handle))

    values = yield from _threads(m, sync, create, join)

    def sleeper(ms):
        yield from m.Sleep(ms)
        yield from m.SwitchToThread()
        yield from m.ExitThread(ms)

    def apc(ms):
        yield from m.Sleep(ms)

    # round-robin placement: forwarded whenever it lands on another node
    quick = yield from m.CreateThread(sleeper, 1)
    slow = yield from m.CreateThread(sleeper, 3)
    yield from _each(m, ("QueueUserAPC", apc, slow, 1),
                     ("WaitForSingleObject", slow, 0.5),
                     ("WaitForMultipleObjects", [quick, slow], False),
                     ("WaitForMultipleObjects", [quick, slow], True))
    mutex = yield from m.CreateMutex(True)
    yield from _each(m, ("ReleaseMutex", mutex),
                     ("WaitForSingleObject", mutex, 0),
                     ("ReleaseMutex", mutex))
    sem = yield from m.CreateSemaphore(1, 2)
    yield from _each(m, ("WaitForSingleObject", sem),
                     ("WaitForSingleObject", sem, 0.2),
                     ("ReleaseSemaphore", sem, 1))
    event = yield from m.CreateEvent(False, True)
    yield from _each(m, ("WaitForSingleObject", event, 0),
                     ("SetEvent", event), ("PulseEvent", event),
                     ("ResetEvent", event),
                     ("WaitForSingleObject", event, 0.2))
    cs = yield from m.InitializeCriticalSection()
    if (yield from m.TryEnterCriticalSection(cs)):
        yield from m.LeaveCriticalSection(cs)
    count = yield from m.hamster.memory.alloc_array_g(
        (1,), dtype=np.int64, name="c")
    yield from _each(m, ("InterlockedExchange", count, 5),
                     ("InterlockedDecrement", count),
                     ("InterlockedCompareExchange", count, 9, 4),
                     ("InterlockedExchangeAdd", count, 2),
                     "GetCurrentProcessorNumber", "GetSystemInfo")
    return values


#: model key -> (Table 2 row name, kernel)
KERNELS = {
    "spmd": ("SPMD model", spmd),
    "smp_spmd": ("SMP/SPMD model", smp_spmd),
    "treadmarks": ("TreadMarks API", treadmarks),
    "hlrc": ("HLRC API", hlrc),
    "pthreads": ("POSIX threads", pthreads),
    "win32": ("WIN32 threads", win32),
}
