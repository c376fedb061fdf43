"""Simulated processes: stackless generator bodies, threads for the rest.

A :class:`SimProcess` is a simulated thread of control scheduled in virtual
time. How it executes depends only on its body:

* a *generator function* runs **stackless**: the body yields at every
  blocking point and the engine's one dispatch loop
  (:meth:`Engine._advance`) resumes its frame in place. No OS thread, no
  baton lock, ~KBs of state per process — this is what makes 1024-node
  topologies practical.
* a *plain callable* — now only the ANL and SHMEM layers and plain user
  bodies — gets a backing Python thread with strict baton hand-off, so it can block (:meth:`hold`,
  :meth:`suspend`, the middleware's blocking wrappers) anywhere in its
  call stack. Those wrappers drive the same ``*_g`` kernels
  (:meth:`Engine.kernel`), so a blocking body and a stackless one execute
  one implementation of every protocol. A plain
  callable that *returns* a generator (``lambda a: app(a, n=64)``) has
  that generator trampolined on its thread (:meth:`SimProcess.drive`), so
  the body may mix ``yield`` with blocking calls. A ``functools.partial``
  of a generator function is recognised as one and needs no thread.

The yield-point contract for generator bodies (and the ``*_g`` middleware
kernels they call via ``yield from``):

* ``yield <seconds>`` — advance this process's virtual time (the stackless
  form of :meth:`hold`); durations ``<= 0`` are no-ops in every context —
  the dispatch loop, :meth:`drive` and :meth:`Engine.kernel` alike. Costs
  are values: ``yield node.cpu_cost(s)`` books the charge and holds it, and
  a zero charge yields ``0``.
* ``yield PARK`` — park until some other event schedules this process
  (the stackless form of :meth:`suspend`/:meth:`wake`). Resumes can be
  spurious, so code parks in a re-checking loop when it waits for a
  condition — the same discipline the blocking primitives already follow.

Blocking methods (``hold``/``suspend``/…) raise from a stackless process:
middleware reachable from generator bodies must route through its ``*_g``
kernel (see docs/architecture.md).

The design mirrors the paper's setting, where each cluster node runs one
application process; here a "node process" is a ``SimProcess`` whose virtual
time advances as it computes, touches memory, and exchanges messages.
"""

from __future__ import annotations

import _thread
import inspect
import threading
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["SimProcess", "PARK"]


class _Park:
    """Sentinel yielded by generator bodies to park until the next dispatch."""

    __slots__ = ()


#: Yield this from a generator-style process body to block indefinitely
#: until another process/event schedules the process (see module docs).
PARK = _Park()


def run_unblocked(gen, error: str) -> Any:
    """Run kernel ``gen`` to its return value where nothing may block.

    Non-positive holds are passed over (no-ops by the yield contract); a
    real hold or a ``PARK`` closes the kernel and raises
    ``SimulationError(error)``.
    """
    send = gen.send
    try:
        effect = send(None)
        while isinstance(effect, (float, int)) and effect <= 0:
            effect = send(None)
    except StopIteration as stop:
        return stop.value
    gen.close()
    raise SimulationError(error)


class SimProcess:
    """A simulated thread of control scheduled in virtual time.

    Parameters
    ----------
    engine:
        The :class:`~repro.sim.engine.Engine` that schedules this process.
    fn:
        The Python callable executed by the process. It receives this
        process as its first argument followed by ``args``/``kwargs``.
        A *generator function* body runs stackless; any other callable
        runs on a backing thread (a generator it returns is driven there).
    name:
        Debug name; appears in traces and deadlock reports.
    """

    def __init__(self, engine, fn: Callable, args: tuple = (), kwargs: Optional[dict] = None,
                 name: str = "proc", daemon: bool = False) -> None:
        # Pids are allocated per engine (a fresh engine starts at pid 1),
        # so ids never leak across engines or test cases.
        self.pid = engine._alloc_pid()
        self.engine = engine
        self.name = name
        self._fn = fn
        self._args = args
        self._kwargs = kwargs or {}
        #: daemon processes (message servers) never count as deadlocked and
        #: do not keep the simulation alive.
        self.daemon = daemon
        #: True once started with a generator-function body: no thread,
        #: no baton; the dispatch loop steps the frame.
        self.stackless = False
        self._gen = None
        # The hand-off baton (plain-callable bodies only): held (locked)
        # whenever the process is not running; a dispatcher releases it to
        # transfer control. Created at start() so stackless processes carry
        # no lock at all.
        self._baton = None
        self.alive = False
        self.started = False
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: list = []            # processes blocked in join()
        engine.register(self)

    def __str__(self) -> str:
        return f"{self.name}#{self.pid}"

    # ----------------------------------------------------------------- start
    def start(self, delay: float = 0.0) -> "SimProcess":
        """Arrange for the process body to begin ``delay`` seconds from now."""
        if self.started:
            raise SimulationError(f"{self} already started")
        self.started = True
        self.alive = True
        if inspect.isgeneratorfunction(self._fn):
            # Stackless: instantiating the generator runs no body code; the
            # first dispatch steps it to its first yield point.
            self.stackless = True
            self._gen = self._fn(self, *self._args, **self._kwargs)
        else:
            baton = _thread.allocate_lock()
            baton.acquire()  # created locked: thread parks until first dispatch
            self._baton = baton
            threading.Thread(target=self._bootstrap, name=str(self),
                             daemon=True).start()
        self.engine.schedule(delay, self)
        return self

    def _bootstrap(self) -> None:
        # Park until the engine first dispatches us (the dispatcher sets
        # engine._current before releasing the baton).
        self._baton.acquire()
        try:
            result = self._fn(self, *self._args, **self._kwargs)
            if inspect.isgenerator(result):
                # A plain callable that returned a generator body (a lambda
                # around a generator function): trampoline it on this thread.
                result = self.drive(result)
            self.result = result
        except BaseException as exc:  # noqa: BLE001 - propagated to engine.run()
            self.exception = exc
            self.engine._report_exception(exc)
        finally:
            self._finish()
            # Terminal hand-off: keep dispatching on this thread until
            # control moves elsewhere (our own resume can no longer be
            # dispatched — alive is False), then let the thread exit.
            self.engine._advance(self)

    def _finish(self) -> None:
        """Terminal bookkeeping: the body has returned or raised (the
        dispatch loop calls this for stackless bodies)."""
        self.alive = False
        self._gen = None
        trace = self.engine.trace
        if trace.enabled:
            trace.emit("proc.exit", proc=str(self))
        # Wake joiners at the instant of death.
        for waiter in self._waiters:
            self.engine.schedule(0.0, waiter)
        self._waiters.clear()

    def drive(self, gen) -> Any:
        """Run a generator-style kernel to completion from blocking context.

        The trampoline of a thread-backed body: ``yield <seconds>`` becomes
        :meth:`hold`, ``yield PARK`` becomes :meth:`suspend`. Blocking
        wrappers around ``*_g`` middleware kernels use this (via
        :meth:`Engine.kernel`), so blocking and stackless bodies share one
        implementation of every protocol.
        """
        if self.stackless:
            # Fine if it never blocks (zero charges, pure queries).
            return run_unblocked(gen, (
                f"{self}: blocking call inside a stackless process; "
                "a generator body must 'yield from' the *_g variant "
                "of this operation instead"))
        send = gen.send
        while True:
            try:
                effect = send(None)
            except StopIteration as stop:
                return stop.value
            if effect is PARK:
                self.suspend()
            elif isinstance(effect, (float, int)):
                self.hold(effect)
            else:
                gen.close()
                raise SimulationError(
                    f"{self}: generator kernel yielded {effect!r}; expected "
                    "PARK or a hold duration in seconds")

    # ------------------------------------------------------------- blocking
    def hold(self, duration: float) -> None:
        """Advance this process's virtual time by ``duration`` seconds.

        This is the fundamental cost-charging primitive: CPU cycles, memory
        latencies, and protocol overheads all reduce to ``hold`` calls.
        A zero or negative duration is a no-op (costs can legitimately
        round to zero). Stackless bodies ``yield duration`` instead.
        """
        if duration <= 0:
            return
        if self.stackless:
            raise SimulationError(
                f"{self}: hold() inside a stackless process; the generator "
                "body must 'yield duration' instead")
        engine = self.engine
        engine.schedule(duration, self)
        if engine._advance(self) == "handed":
            self._baton.acquire()

    def suspend(self) -> None:
        """Block indefinitely until another process/event calls :meth:`wake`."""
        if self.stackless:
            raise SimulationError(
                f"{self}: suspend() inside a stackless process; the "
                "generator body must 'yield PARK' instead")
        if self.engine._advance(self) == "handed":
            self._baton.acquire()

    def wake(self, delay: float = 0.0) -> None:
        """Schedule a suspended process to resume ``delay`` seconds from now.
        A hot path may call ``engine.schedule(delay, proc)`` itself: it is
        the same event."""
        self.engine.schedule(delay, self)

    def join_g(self, other: "SimProcess"):
        """Block until ``other`` terminates; returns its result.

        Re-raises nothing here — exceptions in ``other`` already abort the
        whole simulation via the engine.
        """
        if other is self:
            raise SimulationError("a process cannot join itself")
        if other.alive:
            other._waiters.append(self)
            yield PARK
        return other.result

    # --------------------------------------------------------------- context
    @property
    def now(self) -> float:
        return self.engine.now
