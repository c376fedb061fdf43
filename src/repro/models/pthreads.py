"""POSIX threads API (Table 2, row 7).

A *distributed* pthreads: threads are created across the cluster's nodes
but share the global memory abstraction, so unmodified pthread programs run
on any HAMSTER platform. The characteristic complexity of the thread APIs
(§5.2) is the **forwarding mechanism**: a threading routine executes either
on the node where the target thread runs, or — for creation — on the node
where the new thread *should* run. Forwarding rides the active-message
facility of :mod:`repro.models.forwarding`; HAMSTER itself deliberately
offers no forwarding service.

Every call is a generator function (``tid = yield from
p.pthread_create(start, arg)``), and so are the main function, start
routines and ``pthread_once`` initialisers: the whole model runs stackless.
Error returns follow the POSIX convention (0 on success / errno values),
except where Python exceptions are clearly better (invalid handles).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import ModelError
from repro.models.base import ProgrammingModel
from repro.models.forwarding import ForwardingService

__all__ = ["PosixThreadsApi", "PthreadAttr"]

# errno values used by the API
EBUSY = 16
EINVAL = 22
ETIMEDOUT = 110
PTHREAD_CANCELED = object()

PTHREAD_CREATE_JOINABLE = 0
PTHREAD_CREATE_DETACHED = 1
PTHREAD_CANCEL_ENABLE = 0
PTHREAD_CANCEL_DISABLE = 1

PTHREAD_MUTEX_NORMAL = 0
PTHREAD_MUTEX_RECURSIVE = 1


class _PthreadExit(Exception):
    def __init__(self, retval: Any) -> None:
        super().__init__("pthread_exit")
        self.retval = retval


@dataclass
class PthreadAttr:
    """Thread creation attributes (+ the distributed extension: placement)."""

    detachstate: int = PTHREAD_CREATE_JOINABLE
    node: Optional[int] = None  # target rank; None -> round-robin


@dataclass
class _Thread:
    tid: int
    rank: int
    handle: Any = None
    retval: Any = None
    detached: bool = False
    finished: bool = False
    cancel_requested: bool = False
    cancel_state: int = PTHREAD_CANCEL_ENABLE
    specific: Dict[int, Any] = field(default_factory=dict)


@dataclass
class _Mutex:
    lock_id: int
    kind: int
    owner: Optional[int] = None
    depth: int = 0


class PosixThreadsApi(ProgrammingModel):
    """pthread_* calls over HAMSTER services + command forwarding."""

    MODEL_NAME = "POSIX threads"
    CONSISTENCY = "release"
    API_CALLS = (
        "pthread_create", "pthread_exit", "pthread_join", "pthread_detach",
        "pthread_self", "pthread_equal", "pthread_once", "pthread_cancel",
        "pthread_testcancel", "pthread_setcancelstate", "sched_yield",
        "pthread_attr_init", "pthread_attr_destroy",
        "pthread_attr_setdetachstate", "pthread_attr_getdetachstate",
        "pthread_attr_setnode", "pthread_attr_getnode",
        "pthread_mutex_init", "pthread_mutex_destroy", "pthread_mutex_lock",
        "pthread_mutex_trylock", "pthread_mutex_unlock",
        "pthread_mutexattr_init", "pthread_mutexattr_destroy",
        "pthread_mutexattr_settype", "pthread_mutexattr_gettype",
        "pthread_cond_init", "pthread_cond_destroy", "pthread_cond_wait",
        "pthread_cond_timedwait", "pthread_cond_signal",
        "pthread_cond_broadcast", "pthread_condattr_init",
        "pthread_condattr_destroy",
        "pthread_key_create", "pthread_key_delete",
        "pthread_setspecific", "pthread_getspecific",
        "pthread_rwlock_init", "pthread_rwlock_destroy",
        "pthread_rwlock_rdlock", "pthread_rwlock_tryrdlock",
        "pthread_rwlock_wrlock", "pthread_rwlock_trywrlock",
        "pthread_rwlock_unlock",
        "pthread_barrier_init", "pthread_barrier_destroy",
        "pthread_barrier_wait", "pthread_barrierattr_init",
        "pthread_barrierattr_destroy",
        "pthread_getconcurrency", "pthread_setconcurrency",
    )

    def __init__(self, hamster) -> None:
        super().__init__(hamster)
        self.fwd = ForwardingService(hamster, channel_name="pthread.fwd")
        self.fwd.register("create", self._do_create)
        self.fwd.register("join", self._do_join)
        self._tids = itertools.count(2)  # tid 1 is the main thread
        self._threads: Dict[int, _Thread] = {}
        self._proc_tid: Dict[int, int] = {}
        self._next_rank = itertools.count(1)  # round-robin after main's rank 0
        self._keys = itertools.count(1)
        self._live_keys: set = set()
        self._once_done: set = set()
        # Eager creation: lazy lock creation from inside a task can be
        # raced by another rank mid-charge.
        self._once_lock: int = hamster.sync.new_lock()
        self._concurrency = 0

    # -------------------------------------------------------------- startup
    def run(self, main: Callable, args: tuple = ()) -> Any:
        """Thread task structure: generator function ``main(model, *args)``
        is the *main thread*, on rank 0; all other parallelism comes from
        pthread_create."""
        def entry(env):
            if env.rank != 0:
                return None  # other ranks host created threads only
            self._threads[1] = _Thread(tid=1, rank=0)
            self._proc_tid[env.proc.pid] = 1
            try:
                return (yield from main(self, *args))
            except _PthreadExit as stop:
                return stop.retval
        return self.hamster.run_spmd(entry)[0]

    # ------------------------------------------------------ thread lifecycle
    def pthread_create(self, start_routine: Callable, arg: Any = None,
                       attr: Optional[PthreadAttr] = None):
        """Create a thread running generator function
        ``start_routine(arg)``; executes the creation on the node where the
        thread will run (forwarded when remote). Returns the new tid."""
        attr = attr or PthreadAttr()
        if attr.node is not None:
            rank = attr.node
        else:
            rank = next(self._next_rank) % self._nranks()
        tid = next(self._tids)
        yield from self.fwd.invoke(rank, "create", tid, rank, start_routine,
                                   arg, attr.detachstate == PTHREAD_CREATE_DETACHED)
        return tid

    def _do_create(self, tid: int, rank: int, start_routine: Callable,
                   arg: Any, detached: bool):
        thread = _Thread(tid=tid, rank=rank, detached=detached)
        self._threads[tid] = thread

        def body():
            proc = self.hamster.engine.require_process()
            self._proc_tid[proc.pid] = tid
            try:
                thread.retval = yield from start_routine(arg)
            except _PthreadExit as stop:
                thread.retval = stop.retval
            finally:
                thread.finished = True
                self._proc_tid.pop(proc.pid, None)
            return thread.retval

        thread.handle = yield from self.hamster.task.spawn_local_g(
            rank, body, name=f"pthread{tid}")
        return tid

    def pthread_exit(self, retval: Any = None):
        raise _PthreadExit(retval)
        yield  # unreachable; every call is a generator

    def pthread_join(self, tid: int):
        """Join; forwarded to the node hosting the target thread. Returns
        (0, retval) POSIX-style."""
        thread = self._thread(tid)
        if thread.detached:
            return EINVAL, None
        retval = yield from self.fwd.invoke(thread.rank, "join", tid)
        self._threads.pop(tid, None)
        return 0, retval

    def _do_join(self, tid: int):
        thread = self._thread(tid)
        if thread.handle is not None:
            yield from self.hamster.task.join_g(thread.handle)
        return PTHREAD_CANCELED if thread.cancel_requested and thread.finished \
            and thread.retval is None and thread.cancel_state == PTHREAD_CANCEL_ENABLE \
            else thread.retval

    def pthread_detach(self, tid: int):
        self._thread(tid).detached = True
        return 0
        yield  # unreachable

    def pthread_self(self):
        return self._self()
        yield  # unreachable

    def pthread_equal(self, a: int, b: int):
        return a == b
        yield  # unreachable

    def pthread_once(self, once_control: str, init_routine: Callable):
        """Run generator function ``init_routine()`` once per
        ``once_control``."""
        yield from self.hamster.sync.lock_g(self._once_lock)
        try:
            if once_control not in self._once_done:
                self._once_done.add(once_control)
                yield from init_routine()
        finally:
            yield from self.hamster.sync.unlock_g(self._once_lock)
        return 0

    def pthread_cancel(self, tid: int):
        """Deferred cancellation: marks the thread; it terminates at its
        next cancellation point (pthread_testcancel)."""
        self._thread(tid).cancel_requested = True
        return 0
        yield  # unreachable

    def pthread_testcancel(self):
        thread = self._threads.get(self._self())
        if (thread is not None and thread.cancel_requested
                and thread.cancel_state == PTHREAD_CANCEL_ENABLE):
            raise _PthreadExit(PTHREAD_CANCELED)
        return
        yield  # unreachable

    def pthread_setcancelstate(self, state: int):
        thread = self._threads.get(self._self())
        if thread is None or state not in (PTHREAD_CANCEL_ENABLE, PTHREAD_CANCEL_DISABLE):
            return EINVAL
        thread.cancel_state = state
        return 0
        yield  # unreachable

    def sched_yield(self):
        yield 1e-6
        return 0

    # ----------------------------------------------------------------- attrs
    def pthread_attr_init(self):
        return PthreadAttr()
        yield  # unreachable

    def pthread_attr_destroy(self, attr: PthreadAttr):
        return 0
        yield  # unreachable

    def pthread_attr_setdetachstate(self, attr: PthreadAttr, state: int):
        if state not in (PTHREAD_CREATE_JOINABLE, PTHREAD_CREATE_DETACHED):
            return EINVAL
        attr.detachstate = state
        return 0
        yield  # unreachable

    def pthread_attr_getdetachstate(self, attr: PthreadAttr):
        return attr.detachstate
        yield  # unreachable

    def pthread_attr_setnode(self, attr: PthreadAttr, rank: int):
        """Distributed extension: pin the new thread to a rank."""
        if not (0 <= rank < self._nranks()):
            return EINVAL
        attr.node = rank
        return 0
        yield  # unreachable

    def pthread_attr_getnode(self, attr: PthreadAttr):
        return attr.node
        yield  # unreachable

    # --------------------------------------------------------------- mutexes
    def pthread_mutex_init(self, kind: int = PTHREAD_MUTEX_NORMAL):
        return _Mutex((yield from self.hamster.sync.new_lock_g()), kind)

    def pthread_mutex_destroy(self, mutex: _Mutex):
        return EBUSY if mutex.owner is not None else 0
        yield  # unreachable

    def pthread_mutex_lock(self, mutex: _Mutex):
        tid = self._self()
        if mutex.kind == PTHREAD_MUTEX_RECURSIVE and mutex.owner == tid:
            mutex.depth += 1
            return 0
        yield from self.hamster.sync.lock_g(mutex.lock_id)
        mutex.owner, mutex.depth = tid, 1
        return 0

    def pthread_mutex_trylock(self, mutex: _Mutex):
        tid = self._self()
        if mutex.kind == PTHREAD_MUTEX_RECURSIVE and mutex.owner == tid:
            mutex.depth += 1
            return 0
        if (yield from self.hamster.sync.try_lock_g(mutex.lock_id)):
            mutex.owner, mutex.depth = tid, 1
            return 0
        return EBUSY

    def pthread_mutex_unlock(self, mutex: _Mutex):
        if mutex.owner != self._self():
            return EINVAL
        mutex.depth -= 1
        if mutex.depth == 0:
            mutex.owner = None
            yield from self.hamster.sync.unlock_g(mutex.lock_id)
        return 0

    def pthread_mutexattr_init(self):
        return {"type": PTHREAD_MUTEX_NORMAL}
        yield  # unreachable

    def pthread_mutexattr_destroy(self, attr: dict):
        return 0
        yield  # unreachable

    def pthread_mutexattr_settype(self, attr: dict, kind: int):
        if kind not in (PTHREAD_MUTEX_NORMAL, PTHREAD_MUTEX_RECURSIVE):
            return EINVAL
        attr["type"] = kind
        return 0
        yield  # unreachable

    def pthread_mutexattr_gettype(self, attr: dict):
        return attr["type"]
        yield  # unreachable

    # ------------------------------------------------------------ conditions
    def pthread_cond_init(self, mutex: _Mutex):
        return (yield from self.hamster.sync.new_condition_g(mutex.lock_id))

    def pthread_cond_destroy(self, cond):
        return EBUSY if cond._waiters else 0
        yield  # unreachable

    def pthread_cond_wait(self, cond, mutex: _Mutex):
        tid = self._self()
        mutex.owner = None
        yield from cond.wait_g()
        mutex.owner, mutex.depth = tid, 1
        return 0

    def pthread_cond_timedwait(self, cond, mutex: _Mutex, timeout: float):
        tid = self._self()
        mutex.owner = None
        signaled = yield from cond.wait_g(timeout)
        mutex.owner, mutex.depth = tid, 1
        return 0 if signaled else ETIMEDOUT

    def pthread_cond_signal(self, cond):
        yield from cond.signal_g()
        return 0

    def pthread_cond_broadcast(self, cond):
        yield from cond.broadcast_g()
        return 0

    def pthread_condattr_init(self):
        return {}
        yield  # unreachable

    def pthread_condattr_destroy(self, attr: dict):
        return 0
        yield  # unreachable

    # -------------------------------------------------------- thread-specific
    def pthread_key_create(self):
        key = next(self._keys)
        self._live_keys.add(key)
        return key
        yield  # unreachable

    def pthread_key_delete(self, key: int):
        if key not in self._live_keys:
            return EINVAL
        self._live_keys.discard(key)
        for thread in self._threads.values():
            thread.specific.pop(key, None)
        return 0
        yield  # unreachable

    def pthread_setspecific(self, key: int, value: Any):
        if key not in self._live_keys:
            return EINVAL
        self._thread(self._self()).specific[key] = value
        return 0
        yield  # unreachable

    def pthread_getspecific(self, key: int):
        thread = self._threads.get(self._self())
        return None if thread is None else thread.specific.get(key)
        yield  # unreachable

    # ----------------------------------------------------------------- rwlock
    def pthread_rwlock_init(self):
        mutex = yield from self.pthread_mutex_init()
        return {"mutex": mutex, "cond": (yield from self.pthread_cond_init(mutex)),
                "readers": 0, "writer": False}

    def pthread_rwlock_destroy(self, rw: dict):
        return EBUSY if rw["readers"] or rw["writer"] else 0
        yield  # unreachable

    def pthread_rwlock_rdlock(self, rw: dict):
        yield from self.pthread_mutex_lock(rw["mutex"])
        while rw["writer"]:
            yield from self.pthread_cond_wait(rw["cond"], rw["mutex"])
        rw["readers"] += 1
        yield from self.pthread_mutex_unlock(rw["mutex"])
        return 0

    def pthread_rwlock_tryrdlock(self, rw: dict):
        if (yield from self.pthread_mutex_trylock(rw["mutex"])) != 0:
            return EBUSY
        busy = rw["writer"]
        if not busy:
            rw["readers"] += 1
        yield from self.pthread_mutex_unlock(rw["mutex"])
        return EBUSY if busy else 0

    def pthread_rwlock_wrlock(self, rw: dict):
        yield from self.pthread_mutex_lock(rw["mutex"])
        while rw["writer"] or rw["readers"]:
            yield from self.pthread_cond_wait(rw["cond"], rw["mutex"])
        rw["writer"] = True
        yield from self.pthread_mutex_unlock(rw["mutex"])
        return 0

    def pthread_rwlock_trywrlock(self, rw: dict):
        if (yield from self.pthread_mutex_trylock(rw["mutex"])) != 0:
            return EBUSY
        busy = rw["writer"] or rw["readers"]
        if not busy:
            rw["writer"] = True
        yield from self.pthread_mutex_unlock(rw["mutex"])
        return EBUSY if busy else 0

    def pthread_rwlock_unlock(self, rw: dict):
        yield from self.pthread_mutex_lock(rw["mutex"])
        if rw["writer"]:
            rw["writer"] = False
        elif rw["readers"]:
            rw["readers"] -= 1
        else:
            yield from self.pthread_mutex_unlock(rw["mutex"])
            return EINVAL
        yield from self.pthread_cond_broadcast(rw["cond"])
        yield from self.pthread_mutex_unlock(rw["mutex"])
        return 0

    # ---------------------------------------------------------------- barrier
    def pthread_barrier_init(self, count: int):
        if count < 1:
            raise ModelError("pthread_barrier_init: count must be >= 1")
        mutex = yield from self.pthread_mutex_init()
        return {"mutex": mutex, "cond": (yield from self.pthread_cond_init(mutex)),
                "count": count, "arrived": 0, "generation": 0}

    def pthread_barrier_destroy(self, bar: dict):
        return EBUSY if bar["arrived"] else 0
        yield  # unreachable

    def pthread_barrier_wait(self, bar: dict):
        """Returns PTHREAD_BARRIER_SERIAL_THREAD (-1) for one waiter."""
        yield from self.pthread_mutex_lock(bar["mutex"])
        gen = bar["generation"]
        bar["arrived"] += 1
        if bar["arrived"] == bar["count"]:
            bar["arrived"] = 0
            bar["generation"] += 1
            yield from self.pthread_cond_broadcast(bar["cond"])
            yield from self.pthread_mutex_unlock(bar["mutex"])
            return -1
        while bar["generation"] == gen:
            yield from self.pthread_cond_wait(bar["cond"], bar["mutex"])
        yield from self.pthread_mutex_unlock(bar["mutex"])
        return 0

    def pthread_barrierattr_init(self):
        return {}
        yield  # unreachable

    def pthread_barrierattr_destroy(self, attr: dict):
        return 0
        yield  # unreachable

    # ----------------------------------------------------------- concurrency
    def pthread_getconcurrency(self):
        return self._concurrency
        yield  # unreachable

    def pthread_setconcurrency(self, level: int):
        if level < 0:
            return EINVAL
        self._concurrency = level
        return 0
        yield  # unreachable

    # ------------------------------------------------------------- internals
    def _self(self) -> int:
        """The calling thread's tid (0 outside any thread)."""
        return self._proc_tid.get(self.hamster.engine.require_process().pid, 0)

    def _thread(self, tid: int) -> _Thread:
        try:
            return self._threads[tid]
        except KeyError:
            raise ModelError(f"unknown thread id {tid}") from None
