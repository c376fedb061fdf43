"""Virtual-time event engine.

The engine owns an event queue of ``(time, seq, action)`` entries and a
virtual clock. Time is a float in **seconds** of simulated wall-clock time.
Ties are broken by a monotonically increasing sequence number, which makes
every run deterministic regardless of Python hash seeds or OS scheduling.

Simulated processes (see :mod:`repro.sim.process`) are driven by the engine:
when a process blocks (``hold``, lock wait, message wait) it gives control
back to the dispatcher; exactly one of {the ``run()`` caller, some process
thread} executes at any instant, so no user-visible locking is needed
anywhere in the framework.

One dispatch loop, :meth:`Engine._advance`, pops every event (``heapq``
on the list :mod:`repro.sim.eventq` builds), runs callbacks inline and
resumes generator bodies in place (stackless). A hold ending *strictly*
before the heap's head is the process's own next event, dispatched
without a push or a pop. A plain-callable body (not yet ported to a
generator) keeps a backing thread; the loop then runs on whichever thread
is giving up control, and waking one costs a raw-lock release (the waker)
plus an acquire (the sleeper).
"""

from __future__ import annotations

import _thread
import sys
import time as _time
from heapq import heappop, heappush
from typing import Callable, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.eventq import make_queue
from repro.sim.process import PARK, SimProcess, run_unblocked
from repro.sim.trace import NULL_OBS, NULL_SHARING, Tracer

_INF = float("inf")
#: The largest limit of a run: a non-finite ``when`` (NaN, inf) fails
#: every ``when <= limit`` test, so it never takes the own-resume fast
#: path and meets the finiteness check on the push path instead.
_UNBOUNDED = sys.float_info.max

#: Process-wide default host hook, applied to every Engine built after
#: :func:`set_host_hook`. Sweep worker processes use it to attach progress
#: heartbeats to engines constructed deep inside ``config.build()``.
_DEFAULT_HOST_HOOK: Optional[Tuple[Callable[["Engine"], None], int]] = None


def set_host_hook(callback: Optional[Callable[["Engine"], None]],
                  every_events: int = 4096) -> None:
    """Install (or, with ``None``, clear) the process-wide host hook.

    Every engine constructed afterwards invokes ``callback(engine)`` from
    the dispatch loop once per ``every_events`` dispatched events. The hook
    runs on the host side only: it may read counters (``events_executed``,
    ``now``) and talk to host-side channels, but it must not schedule
    events or charge virtual time — virtual results stay bit-identical
    whether or not a hook is armed.
    """
    global _DEFAULT_HOST_HOOK
    if callback is None:
        _DEFAULT_HOST_HOOK = None
        return
    if every_events < 1:
        raise ValueError(f"every_events must be >= 1, got {every_events}")
    _DEFAULT_HOST_HOOK = (callback, every_events)


def clear_host_hook() -> None:
    """Remove the process-wide host hook (idempotent)."""
    set_host_hook(None)


def _not_finite(action, duration) -> str:
    return (f"{action}: a hold or delay of {duration!r} s does not end at "
            "a finite virtual time")


class Engine:
    """Discrete-event engine with a virtual clock.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.sim.trace.Tracer` capturing structured events
        for debugging and for the monitoring tests.
    """

    def __init__(self, trace: Optional[Tracer] = None) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._queue = make_queue()
        self._heap = self._queue._heap  # heapq'd directly: no method call
        # Per-engine pid allocation: a fresh engine hands out pid 1 first,
        # so process identities never leak across engines or test cases.
        self._next_pid: int = 0
        self._processes: list = []  # all SimProcess instances ever started
        self._current = None  # the SimProcess whose thread is running, if any
        self._running = False
        self._finished = False
        self._until: Optional[float] = None
        # The run() caller's wake-up baton: released by whichever thread
        # detects a stop condition (queue drained, bound exceeded, pending
        # exception) while run() blocks.
        self._main_baton = _thread.allocate_lock()
        self._main_baton.acquire()
        # Note: Tracer has __len__, so an empty tracer is falsy — test
        # identity, not truthiness.
        self.trace = trace if trace is not None else Tracer(enabled=False)
        self.trace.bind_clock(lambda: self._now)
        # Observability hook (repro.obs). The shared null observer makes
        # every instrumentation site a no-op: zero state, zero virtual-time
        # cost, bit-identical runs. ClusterConfig.build swaps in a real
        # ObsRecorder when observability is requested.
        self.obs = NULL_OBS
        # Sharing-pattern analytics (repro.obs.sharing), same discipline as
        # obs: the shared null recorder is a no-op at every protocol
        # instrumentation site; ClusterConfig.build swaps in a real
        # SharingRecorder when sharing diagnosis is requested.
        self.sharing = NULL_SHARING
        # Host-side telemetry (repro.bench): how many events this engine has
        # dispatched and how much real wall-clock time run() has consumed.
        # Plain counters — they never influence virtual time.
        self.events_executed: int = 0
        self.host_seconds: float = 0.0
        # Host-side progress hook (fleet heartbeats): called every
        # _hook_every dispatched events when armed; 0 = disarmed (the
        # common case — one falsy check per event in _advance).
        self._host_hook: Optional[Callable[["Engine"], None]] = None
        self._hook_every: int = 0
        self._hook_next: int = 0
        if _DEFAULT_HOST_HOOK is not None:
            self.set_host_hook(*_DEFAULT_HOST_HOOK)
        # Exception raised inside a process thread, re-raised from run().
        self._pending_exc: Optional[BaseException] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def events_per_second(self) -> float:
        """Host-side dispatch rate (events / wall-clock second) across all
        run() calls so far; 0.0 before the first run."""
        if self.host_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.host_seconds

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative and end at a finite time; zero-delay
        events run after all events already scheduled for the current
        instant (FIFO within a timestamp).
        """
        when = self._now + delay
        if not (delay >= 0 and when < _INF):
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule event in the past (delay={delay})")
            raise SimulationError(_not_finite(action, delay))
        self._seq += 1
        heappush(self._heap, (when, self._seq, action))

    # -------------------------------------------------------------- processes
    def register(self, process) -> None:
        self._processes.append(process)

    def _alloc_pid(self) -> int:
        self._next_pid += 1
        return self._next_pid

    @property
    def current_process(self):
        """The simulated process currently executing, or ``None`` when the
        engine itself (an event callback) is running."""
        return self._current

    def require_process(self):
        """Return the current process; raise if called from engine context.

        Framework code that charges time or blocks must run inside a
        simulated process — this guard turns silent misuse into a clear
        error.
        """
        if self._current is None:
            raise SimulationError("operation requires a simulated process context")
        return self._current

    def kernel(self, gen):
        """Run a generator-style middleware kernel from blocking context.

        Blocking service wrappers are one-liners over their ``*_g`` twins::

            def lock(self, lock_id):
                return self.engine.kernel(self.lock_g(lock_id))

        so every body executes the *same* kernel code: a plain-callable
        (thread-backed) body trampolines it here (``yield``s become
        ``hold``/``suspend`` on the calling process), a generator body
        reaches the twin directly via ``yield from`` and never enters this
        method.

        From engine context (no current process) a kernel may still run as
        long as it completes without blocking — this keeps non-blocking
        default implementations (e.g. a hardware-coherent substrate's
        ``sync_consistency``) and zero charges callable from host-side
        code, while any attempt to actually block surfaces the usual
        context error.
        """
        proc = self._current
        if proc is not None:
            return proc.drive(gen)
        return run_unblocked(
            gen, "operation requires a simulated process context")

    # -------------------------------------------------------------- dispatch
    def _advance(self, origin):
        """Dispatch events on the calling thread until control moves away.

        ``origin`` is the :class:`SimProcess` giving up control, or ``None``
        when called from :meth:`run`. Returns

        * ``"self"`` — origin's own resume was dispatched; it continues
          immediately (no lock traffic),
        * ``"handed"`` — control was transferred to another thread (a woken
          process, or the run() caller on a stop condition); the caller must
          park on its baton (process) or re-check stop state (run),
        * a stop reason (``"drained"`` / ``"until"`` / ``"exc"``) — only
          when ``origin`` is ``None``; run() acts on it directly.

        A stackless body is resumed in place until it parks, exits or holds
        past the heap's head. A hold ending strictly before the head (within
        ``run(until=)``, no exception pending) is its own next event: the
        loop does what a pop would (consume a ``seq``, set the clock, count
        the event, fire the host hook) and resumes it again.
        """
        heap = self._heap
        until = self._until
        limit = _UNBOUNDED if until is None else min(until, _UNBOUNDED)
        # Locals, not globals: the loop body runs once per event.
        proc_type = SimProcess
        park = PARK
        pop, push = heappop, heappush
        inf = _INF
        while True:
            if self._pending_exc is not None:
                return self._stop(origin, "exc")
            try:
                when, seq, action = pop(heap)
            except IndexError:
                return self._stop(origin, "drained")
            if when > limit:
                # Push back (same seq — ordering is unaffected by the round
                # trip) and stop: the caller asked for a bounded run.
                push(heap, (when, seq, action))
                self._now = until
                return self._stop(origin, "until")
            self._now = when
            self.events_executed += 1
            if self._hook_every and self.events_executed >= self._hook_next:
                self._fire_host_hook()
            if not isinstance(action, proc_type):
                # Plain event callback: runs in engine context, inline on
                # this thread.
                self._current = None
                try:
                    action()
                except BaseException as exc:  # noqa: BLE001 - re-raised from run()
                    self._pending_exc = exc
                continue
            if not action.alive:
                continue  # stale resume for a finished process
            self._current = action
            if not action.stackless:
                if action is origin:
                    return "self"
                action._baton.release()
                return "handed"
            # A stackless body never re-enters _advance: no reentrancy.
            send = action._gen.send
            while True:
                try:
                    effect = send(None)
                except StopIteration as stop:
                    action.result = stop.value
                    action._finish()
                    break
                except BaseException as exc:  # noqa: BLE001 - re-raised from run()
                    action.exception = self._pending_exc = exc
                    action._finish()
                    break
                if effect is park:
                    break
                if not isinstance(effect, (float, int)):
                    self._fail(action, SimulationError(
                        f"{action}: generator body yielded {effect!r}; "
                        "expected PARK or a hold duration in seconds"))
                    break
                if effect <= 0:
                    continue  # non-positive holds are no-ops, like hold()
                when = self._now + effect
                self._seq += 1
                if ((not heap or when < heap[0][0]) and when <= limit
                        and self._pending_exc is None):
                    self._now = when
                    self.events_executed += 1
                    if (self._hook_every
                            and self.events_executed >= self._hook_next):
                        self._fire_host_hook()
                    continue
                if not when < inf:  # NaN or inf: the fast path refused it
                    self._fail(action, SimulationError(
                        _not_finite(action, effect)))
                    break
                push(heap, (when, self._seq, action))
                break
            self._current = None

    def _fail(self, action, err: SimulationError) -> None:
        """End stackless ``action`` with ``err``, re-raised from run()."""
        action.exception = self._pending_exc = err
        action._gen.close()
        action._finish()

    def _stop(self, origin, reason: str):
        """A stop condition was hit while dispatching: report it to run()."""
        self._current = None
        if origin is None:
            return reason
        self._main_baton.release()
        return "handed"

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains (or virtual ``until`` passes).

        Returns the final virtual time. Raises :class:`DeadlockError` if the
        queue drains while started processes are still alive and blocked —
        the simulated analogue of a hung cluster.
        """
        if self._running:
            raise SimulationError("engine is already running (no nested run())")
        self._running = True
        self._until = until
        host_t0 = _time.perf_counter()
        try:
            while True:
                outcome = self._advance(None)
                if outcome == "handed":
                    # A process thread runs the simulation now; it (or a
                    # successor) releases the baton on the next stop
                    # condition, after which stop state is re-derived here.
                    self._main_baton.acquire()
                    continue
                if outcome == "exc":
                    exc, self._pending_exc = self._pending_exc, None
                    raise exc
                if outcome == "until":
                    return self._now  # _advance already set _now = until
                blocked = [p for p in self._processes if p.alive and not p.daemon]
                if blocked:
                    raise DeadlockError(blocked)
                self._finished = True
                return self._now
        finally:
            self._running = False
            self._until = None
            self.host_seconds += _time.perf_counter() - host_t0

    # ----------------------------------------------------------------- hooks
    def set_host_hook(self, callback: Optional[Callable[["Engine"], None]],
                      every_events: int = 4096) -> None:
        """Arm (or, with ``None``, disarm) this engine's host hook.

        ``callback(self)`` fires from the dispatch loop once per
        ``every_events`` dispatched events, on whichever host thread is
        dispatching. It must stay host-side: reading ``events_executed`` /
        ``now`` and writing to host channels is fine; scheduling events or
        charging virtual time is not.
        """
        if callback is None:
            self._host_hook, self._hook_every = None, 0
            return
        if every_events < 1:
            raise ValueError(f"every_events must be >= 1, got {every_events}")
        self._host_hook = callback
        self._hook_every = every_events
        self._hook_next = self.events_executed + every_events

    def _fire_host_hook(self) -> None:
        self._hook_next = self.events_executed + self._hook_every
        try:
            self._host_hook(self)
        except Exception:  # noqa: BLE001 — observability must never kill a run
            self._host_hook, self._hook_every = None, 0

    def _report_exception(self, exc: BaseException) -> None:
        """Called from a process thread context when user code raised."""
        self._pending_exc = exc
