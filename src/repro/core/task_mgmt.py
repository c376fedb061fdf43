"""Task Management module (§4.2).

HAMSTER's inherent task model is SPMD: one task per rank, started together.
This module deliberately does *not* define a new thread API (that would
impose semantics); instead it provides the mechanisms programming models use
to integrate native thread services: local task spawning on a rank, join,
task identity queries, and task-exit hooks. Thread-API layers (POSIX/Win32
models) add command *forwarding* on top via the messaging primitives — see
:mod:`repro.models.forwarding`.

Task bodies may be plain callables (thread-backed under every engine
backend) or generator functions (stackless under the generator backend,
thread-trampolined under the thread backend) — both receive identical
bind/unbind and exit-hook treatment. Blocking services follow the
twin-kernel convention of :mod:`repro.sim.process`.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Any, Callable, Dict, List, Optional

from repro.core.monitoring import ModuleStats
from repro.errors import TaskError
from repro.sim.process import SimProcess

__all__ = ["TaskMgmt", "TaskHandle"]


class TaskHandle:
    """Identity of one task managed by the Task Management module."""

    def __init__(self, tid: int, rank: int, proc: SimProcess) -> None:
        self.tid = tid
        self.rank = rank
        self.proc = proc

    @property
    def alive(self) -> bool:
        return self.proc.alive

    @property
    def result(self) -> Any:
        return self.proc.result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<TaskHandle {self.tid} rank={self.rank}>"


class TaskMgmt:
    """SPMD task model + thread-service integration mechanisms."""

    def __init__(self, hamster) -> None:
        self._h = hamster
        self.dsm = hamster.dsm
        self.stats = ModuleStats("task")
        self._tids = itertools.count(1)
        self._tasks: Dict[int, TaskHandle] = {}
        self._exit_hooks: List[Callable[[TaskHandle], None]] = []

    # -------------------------------------------------------------- identity
    def my_rank(self) -> int:
        """SPMD rank of the calling task."""
        return self._h.engine.kernel(self.my_rank_g())

    def my_rank_g(self):
        """Generator kernel of :meth:`my_rank` (``yield from`` it)."""
        yield self._h.call_cost()
        return self.dsm.current_rank()

    def n_tasks(self) -> int:
        """Width of the SPMD job."""
        return self._h.engine.kernel(self.n_tasks_g())

    def n_tasks_g(self):
        """Generator kernel of :meth:`n_tasks` (``yield from`` it)."""
        yield self._h.call_cost()
        return self.dsm.n_procs

    def my_task(self) -> Optional[TaskHandle]:
        proc = self._h.engine.require_process()
        for handle in self._tasks.values():
            if handle.proc is proc:
                return handle
        return None

    # ------------------------------------------------------------- spawning
    def spawn_local(self, rank: int, fn: Callable, args: tuple = (),
                    name: str = "") -> TaskHandle:
        """Start a new task bound to ``rank`` (on that rank's node).

        This is the integration point for thread creation: the POSIX/Win32
        model layers forward create-requests to the target rank and call
        this there. The spawn cost of the native OS thread service is
        charged on the target node. A generator-function ``fn`` runs
        stackless under the generator backend.
        """
        return self._h.engine.kernel(self.spawn_local_g(rank, fn, args, name))

    def spawn_local_g(self, rank: int, fn: Callable, args: tuple = (),
                      name: str = ""):
        """Generator kernel of :meth:`spawn_local` (``yield from`` it)."""
        yield self._h.call_cost()
        tid = next(self._tids)
        node = self._h.cluster.node(self.dsm.node_of(rank))
        handle = self._make_task(tid, rank, fn, args, name)
        self.stats.incr("tasks_spawned")
        # OS thread-creation cost on the hosting node, charged to the
        # spawning task when one is running (startup spawns are free —
        # they model the job launcher, not application work).
        if self._h.engine.current_process is not None:
            yield node.cpu_cost(self._h.params.task_spawn_cost)
        handle.proc.start()
        return handle

    def _make_task(self, tid: int, rank: int, fn: Callable, args: tuple,
                   name: str) -> TaskHandle:
        # Both body shapes perform the same bind/unbind + exit-hook
        # bookkeeping; only the execution style differs (see module docs).
        if inspect.isgeneratorfunction(fn):
            def body(proc: SimProcess):
                self.dsm.bind_task(proc, rank)
                try:
                    return (yield from fn(*args))
                finally:
                    self._task_exited(proc, tid)
        else:
            def body(proc: SimProcess) -> Any:
                self.dsm.bind_task(proc, rank)
                try:
                    return fn(*args)
                finally:
                    self._task_exited(proc, tid)

        proc = SimProcess(self._h.engine, body,
                          name=name or f"task{tid}@r{rank}")
        handle = TaskHandle(tid, rank, proc)
        self._tasks[tid] = handle
        return handle

    def _task_exited(self, proc: SimProcess, tid: int) -> None:
        self.dsm.unbind_task(proc)
        handle = self._tasks.get(tid)
        if handle is not None:
            for hook in self._exit_hooks:
                hook(handle)

    def join(self, handle_or_tid) -> Any:
        """Wait for a task to finish; returns its result."""
        return self._h.engine.kernel(self.join_g(handle_or_tid))

    def join_g(self, handle_or_tid):
        """Generator kernel of :meth:`join` (``yield from`` it)."""
        yield self._h.call_cost()
        handle = self._resolve(handle_or_tid)
        self.stats.incr("joins")
        me = self._h.engine.require_process()
        return (yield from me.join_g(handle.proc))

    def task(self, tid: int) -> TaskHandle:
        return self._resolve(tid)

    def _resolve(self, handle_or_tid) -> TaskHandle:
        if isinstance(handle_or_tid, TaskHandle):
            return handle_or_tid
        try:
            return self._tasks[handle_or_tid]
        except KeyError:
            raise TaskError(f"unknown task id {handle_or_tid}") from None

    def live_tasks(self) -> List[TaskHandle]:
        return [h for h in self._tasks.values() if h.alive]

    # ----------------------------------------------------------------- hooks
    def on_exit(self, hook: Callable[[TaskHandle], None]) -> None:
        """Register a task-exit hook (model layers use this for cleanup)."""
        self._exit_hooks.append(hook)
