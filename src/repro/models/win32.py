"""Win32 threads API (Table 2, row 8).

The heaviest model of the paper's set (23.5 lines/call): Win32's handle-
centric object model means almost every routine manipulates a polymorphic
HANDLE (threads, mutexes, semaphores, events all flow through
WaitForSingleObject/CloseHandle), and the distributed setting again needs
the command-forwarding mechanism for cross-node thread control.

Semantics follow the Win32 originals: manual- vs auto-reset events,
WaitForMultipleObjects with wait-all/wait-any, INFINITE timeouts, DWORD
return codes (WAIT_OBJECT_0, WAIT_TIMEOUT, WAIT_FAILED). Every call is a
generator function (``h = yield from w.CreateThread(start, arg)``), and so
are the main function, start routines and APC bodies: the whole model
runs stackless.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ModelError
from repro.models.base import ProgrammingModel
from repro.models.forwarding import ForwardingService

__all__ = ["Win32ThreadsApi"]

INFINITE = float("inf")
WAIT_OBJECT_0 = 0
WAIT_TIMEOUT = 0x102
WAIT_FAILED = 0xFFFFFFFF
STILL_ACTIVE = 259


@dataclass
class _Handle:
    """A Win32 HANDLE: typed kernel object reference."""

    hid: int
    kind: str                       # thread | mutex | semaphore | event | critsec
    state: Dict[str, Any] = field(default_factory=dict)
    closed: bool = False


class Win32ThreadsApi(ProgrammingModel):
    """Win32 thread/synchronization API over HAMSTER services."""

    MODEL_NAME = "WIN32 threads"
    CONSISTENCY = "release"
    API_CALLS = (
        "CreateThread", "ExitThread", "TerminateThread",
        "GetCurrentThread", "GetCurrentThreadId", "GetExitCodeThread",
        "SuspendThread", "ResumeThread", "SwitchToThread", "Sleep",
        "GetThreadPriority", "SetThreadPriority",
        "WaitForSingleObject", "WaitForMultipleObjects", "CloseHandle",
        "CreateMutex", "ReleaseMutex",
        "CreateSemaphore", "ReleaseSemaphore",
        "CreateEvent", "SetEvent", "ResetEvent", "PulseEvent",
        "InitializeCriticalSection", "DeleteCriticalSection",
        "EnterCriticalSection", "LeaveCriticalSection",
        "TryEnterCriticalSection",
        "InterlockedIncrement", "InterlockedDecrement",
        "InterlockedExchange", "InterlockedCompareExchange",
        "InterlockedExchangeAdd",
        "TlsAlloc", "TlsFree", "TlsSetValue", "TlsGetValue",
        "GetCurrentProcessorNumber", "GetSystemInfo",
        "CreateRemoteThread", "QueueUserAPC", "GetLastError",
    )

    def __init__(self, hamster) -> None:
        super().__init__(hamster)
        self.fwd = ForwardingService(hamster, channel_name="win32.fwd")
        self.fwd.register("create", self._do_create)
        self.fwd.register("wait_thread", self._do_wait_thread)
        self._hids = itertools.count(0x100)
        self._handles: Dict[int, _Handle] = {}
        self._proc_tid: Dict[int, int] = {}
        self._next_rank = itertools.count(1)
        self._tls_keys = itertools.count(1)
        self._tls: Dict[int, Dict[int, Any]] = {}
        # Eager creation: see pthreads._once_lock.
        self._interlock: int = hamster.sync.new_lock()
        self._last_error = 0

    # -------------------------------------------------------------- startup
    def run(self, main: Callable, args: tuple = ()) -> Any:
        """Generator function ``main(model, *args)`` is the main thread, on
        rank 0; all other parallelism comes from CreateThread."""
        def entry(env):
            if env.rank != 0:
                return None
            h = self._new_handle("thread", rank=0, finished=False, code=STILL_ACTIVE)
            self._proc_tid[env.proc.pid] = h.hid
            result = yield from main(self, *args)
            h.state["finished"] = True
            h.state["code"] = 0
            return result
        return self.hamster.run_spmd(entry)[0]

    def _new_handle(self, kind: str, **state: Any) -> _Handle:
        h = _Handle(next(self._hids), kind, state)
        self._handles[h.hid] = h
        return h

    def _get(self, handle, kind: Optional[str] = None) -> _Handle:
        h = handle if isinstance(handle, _Handle) else self._handles.get(handle)
        if h is None or h.closed:
            raise ModelError(f"invalid or closed HANDLE {handle!r}")
        if kind is not None and h.kind != kind:
            raise ModelError(f"HANDLE {h.hid:#x} is a {h.kind}, expected {kind}")
        return h

    def _tid(self) -> int:
        """The calling thread's id (0 outside any thread)."""
        return self._proc_tid.get(self.hamster.engine.require_process().pid, 0)

    # --------------------------------------------------------------- threads
    def CreateThread(self, start_routine: Callable, parameter: Any = None,
                     rank: Optional[int] = None):
        """Create a thread running generator function
        ``start_routine(parameter)`` (optionally pinned to a rank); returns
        its HANDLE."""
        target = rank if rank is not None else next(self._next_rank) % self._nranks()
        h = self._new_handle("thread", rank=target, finished=False,
                             code=STILL_ACTIVE, suspended=False, priority=0)
        yield from self.fwd.invoke(target, "create", h.hid, target,
                                   start_routine, parameter)
        return h

    def CreateRemoteThread(self, rank: int, start_routine: Callable,
                           parameter: Any = None):
        """Explicitly-placed creation (the Win32 cross-process analogue)."""
        return (yield from self.CreateThread(start_routine, parameter,
                                             rank=rank))

    def _do_create(self, hid: int, rank: int, start_routine: Callable,
                   parameter: Any):
        h = self._handles[hid]

        def body():
            proc = self.hamster.engine.require_process()
            self._proc_tid[proc.pid] = hid
            try:
                code = yield from start_routine(parameter)
            except _Win32Exit as stop:
                code = stop.code
            finally:
                self._proc_tid.pop(proc.pid, None)
            h.state["finished"] = True
            h.state["code"] = code if code is not None else 0
            return code

        h.state["task"] = yield from self.hamster.task.spawn_local_g(
            rank, body, name=f"win32.{hid:#x}")
        return hid

    def ExitThread(self, exit_code: int = 0):
        raise _Win32Exit(exit_code)
        yield  # unreachable; every call is a generator

    def TerminateThread(self, handle, exit_code: int = 1):
        """Cooperative approximation: marks the thread terminated; the
        paper-era caveat (dangerous, avoid) applies here too."""
        h = self._get(handle, "thread")
        h.state["finished"] = True
        h.state["code"] = exit_code
        return True
        yield  # unreachable

    def GetCurrentThread(self):
        return self._handles.get(self._tid())  # no HANDLE has id 0
        yield  # unreachable

    def GetCurrentThreadId(self):
        return self._tid()
        yield  # unreachable

    def GetExitCodeThread(self, handle):
        h = self._get(handle, "thread")
        return h.state["code"] if h.state["finished"] else STILL_ACTIVE
        yield  # unreachable

    def SuspendThread(self, handle):
        h = self._get(handle, "thread")
        h.state["suspended"] = True
        return 0
        yield  # unreachable

    def ResumeThread(self, handle):
        h = self._get(handle, "thread")
        was = h.state.get("suspended", False)
        h.state["suspended"] = False
        return 1 if was else 0
        yield  # unreachable

    def SwitchToThread(self):
        yield 1e-6
        return True

    def Sleep(self, milliseconds: float):
        yield milliseconds / 1e3

    def GetThreadPriority(self, handle):
        return self._get(handle, "thread").state.get("priority", 0)
        yield  # unreachable

    def SetThreadPriority(self, handle, priority: int):
        self._get(handle, "thread").state["priority"] = priority
        return True
        yield  # unreachable

    # ----------------------------------------------------------------- waits
    def WaitForSingleObject(self, handle, timeout: float = INFINITE):
        """Wait on any waitable HANDLE (thread/mutex/semaphore/event)."""
        h = self._get(handle)
        sync = self.hamster.sync
        if h.kind == "thread":
            if h.state["finished"]:
                return WAIT_OBJECT_0
            if timeout != INFINITE:
                finished = yield from self._poll(
                    lambda: h.state["finished"], timeout)
                return WAIT_OBJECT_0 if finished else WAIT_TIMEOUT
            yield from self.fwd.invoke(h.state["rank"], "wait_thread", h.hid)
            return WAIT_OBJECT_0
        if h.kind == "mutex":
            if timeout == INFINITE:
                yield from sync.lock_g(h.state["lock"])
                return WAIT_OBJECT_0
            return (WAIT_OBJECT_0 if (yield from sync.try_lock_g(h.state["lock"]))
                    else WAIT_TIMEOUT)
        if h.kind == "semaphore":
            return (yield from self._sem_wait(h, timeout))
        if h.kind == "event":
            return (yield from self._event_wait(h, timeout))
        return WAIT_FAILED

    def _poll(self, ready: Callable[[], bool], timeout: float):
        """Check ``ready()`` every 50 µs until it holds (True) or
        ``timeout`` ms have passed (False)."""
        deadline = self.hamster.engine.now + timeout / 1e3
        while not ready():
            if self.hamster.engine.now >= deadline:
                return False
            yield 50e-6
        return True

    def _do_wait_thread(self, hid: int):
        h = self._handles[hid]
        task = h.state.get("task")
        if task is not None:
            yield from self.hamster.task.join_g(task)
        return 0

    def WaitForMultipleObjects(self, handles: List[Any], wait_all: bool = True,
                               timeout: float = INFINITE):
        """Wait-all joins every handle; wait-any polls for the first
        signaled one and returns WAIT_OBJECT_0 + its index."""
        if wait_all:
            for h in handles:
                code = yield from self.WaitForSingleObject(h, timeout)
                if code != WAIT_OBJECT_0:
                    return code
            return WAIT_OBJECT_0
        deadline = (None if timeout == INFINITE
                    else self.hamster.engine.now + timeout / 1e3)
        while True:
            for i, h in enumerate(handles):
                if (yield from self.WaitForSingleObject(h, 0)) == WAIT_OBJECT_0:
                    return WAIT_OBJECT_0 + i
            if deadline is not None and self.hamster.engine.now >= deadline:
                return WAIT_TIMEOUT
            yield 50e-6

    def CloseHandle(self, handle):
        h = self._get(handle)
        h.closed = True
        return True
        yield  # unreachable

    # ---------------------------------------------------------------- mutexes
    def CreateMutex(self, initial_owner: bool = False):
        sync = self.hamster.sync
        h = self._new_handle("mutex", lock=(yield from sync.new_lock_g()))
        if initial_owner:
            yield from sync.lock_g(h.state["lock"])
        return h

    def ReleaseMutex(self, handle):
        h = self._get(handle, "mutex")
        yield from self.hamster.sync.unlock_g(h.state["lock"])
        return True

    # -------------------------------------------------------------- semaphores
    def CreateSemaphore(self, initial: int, maximum: int):
        if initial < 0 or maximum < 1 or initial > maximum:
            raise ModelError("CreateSemaphore: invalid counts")
        sem = yield from self.hamster.sync.new_semaphore_g(initial)
        return self._new_handle("semaphore", sem=sem, maximum=maximum)

    def ReleaseSemaphore(self, handle, count: int = 1):
        h = self._get(handle, "semaphore")
        sem = h.state["sem"]
        if sem.value + count > h.state["maximum"]:
            self._last_error = 0x12A  # ERROR_TOO_MANY_POSTS
            return False
        yield from sem.release_g(count)
        return True

    def _sem_wait(self, h: _Handle, timeout: float):
        sem = h.state["sem"]
        if timeout != INFINITE and not (
                yield from self._poll(lambda: sem.value > 0, timeout)):
            return WAIT_TIMEOUT
        yield from sem.acquire_g()
        return WAIT_OBJECT_0

    # ------------------------------------------------------------------ events
    def CreateEvent(self, manual_reset: bool = False,
                    initial_state: bool = False):
        sync = self.hamster.sync
        lock = yield from sync.new_lock_g()
        cond = yield from sync.new_condition_g(lock)
        return self._new_handle("event", manual=manual_reset,
                                signaled=initial_state, lock=lock, cond=cond)

    def SetEvent(self, handle):
        h = self._get(handle, "event")
        sync = self.hamster.sync
        yield from sync.lock_g(h.state["lock"])
        h.state["signaled"] = True
        yield from self._wake(h)
        yield from sync.unlock_g(h.state["lock"])
        return True

    def ResetEvent(self, handle):
        h = self._get(handle, "event")
        h.state["signaled"] = False
        return True
        yield  # unreachable

    def PulseEvent(self, handle):
        h = self._get(handle, "event")
        sync = self.hamster.sync
        yield from sync.lock_g(h.state["lock"])
        yield from self._wake(h)
        h.state["signaled"] = False
        yield from sync.unlock_g(h.state["lock"])
        return True

    def _wake(self, h: _Handle):
        """Wake every waiter of a manual-reset event, one of an auto-reset
        one."""
        cond = h.state["cond"]
        yield from (cond.broadcast_g() if h.state["manual"] else cond.signal_g())

    def _event_wait(self, h: _Handle, timeout: float):
        sync = self.hamster.sync
        yield from sync.lock_g(h.state["lock"])
        try:
            if h.state["signaled"]:
                if not h.state["manual"]:
                    h.state["signaled"] = False
                return WAIT_OBJECT_0
            if timeout == 0:
                return WAIT_TIMEOUT
            ok = yield from h.state["cond"].wait_g(
                None if timeout == INFINITE else timeout / 1e3)
            if not ok:
                return WAIT_TIMEOUT
            if not h.state["manual"]:
                h.state["signaled"] = False
            return WAIT_OBJECT_0
        finally:
            yield from sync.unlock_g(h.state["lock"])

    # -------------------------------------------------------- critical sections
    def InitializeCriticalSection(self):
        return self._new_handle(
            "critsec", lock=(yield from self.hamster.sync.new_lock_g()))

    def DeleteCriticalSection(self, handle):
        self._get(handle, "critsec").closed = True
        return
        yield  # unreachable

    def EnterCriticalSection(self, handle):
        yield from self.hamster.sync.lock_g(
            self._get(handle, "critsec").state["lock"])

    def LeaveCriticalSection(self, handle):
        yield from self.hamster.sync.unlock_g(
            self._get(handle, "critsec").state["lock"])

    def TryEnterCriticalSection(self, handle):
        return (yield from self.hamster.sync.try_lock_g(
            self._get(handle, "critsec").state["lock"]))

    # ---------------------------------------------------------------- atomics
    def _interlocked(self, arr, index: Any, update: Callable):
        """Under the interlock, ``update(old) -> (new, result)``; a new
        value (not ``None``) is written and fenced. Returns the result."""
        sync = self.hamster.sync
        yield from sync.lock_g(self._interlock)
        try:
            old = int((yield from arr.get_g(index)))
            new, result = update(old)
            if new is not None:
                yield from arr.set_g(index, new)
                yield from self.hamster.consistency.fence_g()
            return result
        finally:
            yield from sync.unlock_g(self._interlock)

    def InterlockedIncrement(self, arr, index: Any = 0):
        return (yield from self._interlocked(
            arr, index, lambda old: (old + 1, old + 1)))

    def InterlockedDecrement(self, arr, index: Any = 0):
        return (yield from self._interlocked(
            arr, index, lambda old: (old - 1, old - 1)))

    def InterlockedExchange(self, arr, value: int, index: Any = 0):
        return (yield from self._interlocked(
            arr, index, lambda old: (value, old)))

    def InterlockedCompareExchange(self, arr, value: int, comparand: int,
                                   index: Any = 0):
        return (yield from self._interlocked(
            arr, index, lambda old: (value if old == comparand else None, old)))

    def InterlockedExchangeAdd(self, arr, delta: int, index: Any = 0):
        return (yield from self._interlocked(
            arr, index, lambda old: (old + delta, old)))

    # -------------------------------------------------------------------- TLS
    def TlsAlloc(self):
        key = next(self._tls_keys)
        self._tls[key] = {}
        return key
        yield  # unreachable

    def TlsFree(self, key: int):
        return self._tls.pop(key, None) is not None
        yield  # unreachable

    def TlsSetValue(self, key: int, value: Any):
        if key not in self._tls:
            return False
        self._tls[key][self._tid()] = value
        return True
        yield  # unreachable

    def TlsGetValue(self, key: int):
        return self._tls.get(key, {}).get(self._tid())
        yield  # unreachable

    # ------------------------------------------------------------------- misc
    def GetCurrentProcessorNumber(self):
        return (yield from self.hamster.cluster_ctl.my_node_g())

    def GetSystemInfo(self):
        return {"dwNumberOfProcessors": self._nranks(),
                "dwPageSize": self.hamster.params.page_size,
                "dwNumberOfNodes": (
                    yield from self.hamster.cluster_ctl.n_nodes_g())}

    def QueueUserAPC(self, fn: Callable, handle, arg: Any = None):
        """Asynchronous procedure call: runs generator function ``fn(arg)``
        on the target thread's rank (forwarded fire-and-forget via a
        transient task)."""
        h = self._get(handle, "thread")
        yield from self.hamster.task.spawn_local_g(h.state["rank"], fn,
                                                   args=(arg,), name="win32.apc")
        return True

    def GetLastError(self):
        return self._last_error
        yield  # unreachable


class _Win32Exit(Exception):
    def __init__(self, code: int) -> None:
        super().__init__("ExitThread")
        self.code = code
