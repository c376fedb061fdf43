"""Synchronization Management module (§4.2).

Locks and barriers optimized for the base architecture (they delegate to the
substrate, which uses native OS primitives on SMP, remote atomics on SCI,
and manager messages on SW-DSM), plus the *mechanisms* programming models
need to build their own constructs: dynamic lock-id allocation, condition
variables, and counting semaphores.

Conditions and semaphores are built from HAMSTER primitives (locks + the
cluster-control messaging), exactly the "implementable on top" layering the
paper prescribes for model-specific constructs.

Every service is a ``*_g`` generator kernel following the yield contract
of :mod:`repro.sim.process`. The blocking forms that thread-backed model
layers still call (``new_lock``, ``lock``, ``unlock``, ``barrier``)
trampoline their kernel, so blocking and generator bodies execute
identical synchronization sequences.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.core.monitoring import ModuleStats
from repro.errors import SynchronizationError
from repro.sim.process import PARK
from repro.sim.trace import NULL_SPAN

__all__ = ["SyncMgmt", "ConditionVar", "Semaphore"]

#: Lock ids below this are reserved for applications that index locks
#: directly (the JiaJia convention of a fixed lock array).
DYNAMIC_LOCK_BASE = 1 << 16


class ConditionVar:
    """Cross-rank condition variable bound to a HAMSTER lock.

    Waiters park in FIFO order; signal/broadcast wake them directly (the
    waker holds the bound lock). Follows POSIX semantics: ``wait``
    atomically releases the bound lock and re-acquires it before
    returning.
    """

    def __init__(self, sync: "SyncMgmt", lock_id: int) -> None:
        self.sync = sync
        self.lock_id = lock_id
        #: waiting simulated processes, FIFO
        self._waiters: List[object] = []

    def wait_g(self, timeout: Optional[float] = None):
        """Wait for a signal (``yield from`` it); returns False on timeout,
        True otherwise."""
        sync = self.sync
        yield sync._h.call_cost()
        sync.stats.incr("cond_waits")
        proc = sync._h.engine.require_process()
        self._waiters.append(proc)
        timed_out = [False]
        if timeout is not None:
            entry = proc

            def fire() -> None:
                if entry in self._waiters:
                    self._waiters.remove(entry)
                    timed_out[0] = True
                    entry.wake()

            sync._h.engine.schedule(timeout, fire)
        yield from sync.unlock_g(self.lock_id)
        yield PARK
        yield from sync.lock_g(self.lock_id)
        return not timed_out[0]

    def signal_g(self):
        """Wake the longest waiter, if any (``yield from`` it). The waker
        holds the bound lock, so the waiter list is race-free, and a wake-up
        is scheduled, so the waiter resumes after the waker unlocks."""
        yield self.sync._h.call_cost()
        self.sync.stats.incr("cond_signals")
        if self._waiters:
            self._waiters.pop(0).wake()

    def broadcast_g(self):
        """Wake every waiter, as :meth:`signal_g` wakes one."""
        yield self.sync._h.call_cost()
        self.sync.stats.incr("cond_signals")
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            proc.wake()


class Semaphore:
    """Cross-rank counting semaphore built on a lock + condition (made by
    :meth:`SyncMgmt.new_semaphore_g`)."""

    def __init__(self, sync: "SyncMgmt", value: int, lock_id: int,
                 cond: ConditionVar) -> None:
        self.sync = sync
        self.value = value
        self._lock_id = lock_id
        self._cond = cond

    def acquire_g(self):
        """Take one unit, waiting while there is none (``yield from``
        it)."""
        yield from self.sync.lock_g(self._lock_id)
        try:
            while self.value == 0:
                yield from self._cond.wait_g()
            self.value -= 1
        finally:
            yield from self.sync.unlock_g(self._lock_id)

    def release_g(self, n: int = 1):
        """Return ``n`` units, waking a waiter for each (``yield from``
        it)."""
        yield from self.sync.lock_g(self._lock_id)
        try:
            self.value += n
            for _ in range(n):
                yield from self._cond.signal_g()
        finally:
            yield from self.sync.unlock_g(self._lock_id)


class SyncMgmt:
    """Lock/barrier services + construction mechanisms."""

    def __init__(self, hamster) -> None:
        self._h = hamster
        self.dsm = hamster.dsm
        self.stats = ModuleStats("sync")
        self._lock_ids = itertools.count(DYNAMIC_LOCK_BASE)
        self._held: Dict[int, List[int]] = {}  # rank -> stack of held lock ids

    # ----------------------------------------------------------------- locks
    def new_lock(self) -> int:
        """Allocate a fresh global lock id."""
        return self._h.engine.kernel(self.new_lock_g())

    def new_lock_g(self):
        """Generator kernel of :meth:`new_lock` (``yield from`` it)."""
        yield self._h.call_cost()
        self.stats.incr("locks_created")
        return next(self._lock_ids)

    def lock(self, lock_id: int) -> None:
        """Acquire a global lock (with the substrate's acquire semantics)."""
        return self._h.engine.kernel(self.lock_g(lock_id))

    def lock_g(self, lock_id: int):
        """Generator kernel of :meth:`lock` (``yield from`` it)."""
        engine = self._h.engine
        obs = engine.obs
        with obs.span("svc.lock", lock=lock_id) if obs.enabled else NULL_SPAN:
            yield self._h.call_cost()
            self.stats.incr("lock_acquires")
            sharing = engine.sharing
            if sharing.enabled:
                t0 = engine.now
                yield from self.dsm.lock_g(lock_id)
                rank = self.dsm.current_rank()
                sharing.lock_acquired(lock_id, rank, t0, engine.now)
                self._held.setdefault(rank, []).append(lock_id)
            else:
                yield from self.dsm.lock_g(lock_id)
                self._held.setdefault(self.dsm.current_rank(), []).append(lock_id)

    def try_lock_g(self, lock_id: int):
        """Non-blocking lock attempt (``yield from`` it); True on
        success."""
        yield self._h.call_cost()
        self.stats.incr("lock_tries")
        if (yield from self.dsm.try_lock_g(lock_id)):
            self._held.setdefault(self.dsm.current_rank(), []).append(lock_id)
            return True
        return False

    def unlock(self, lock_id: int) -> None:
        """Release a global lock (with release consistency semantics)."""
        return self._h.engine.kernel(self.unlock_g(lock_id))

    def unlock_g(self, lock_id: int):
        """Generator kernel of :meth:`unlock` (``yield from`` it)."""
        engine = self._h.engine
        obs = engine.obs
        with (obs.span("svc.unlock", lock=lock_id)
              if obs.enabled else NULL_SPAN):
            yield self._h.call_cost()
            self.stats.incr("lock_releases")
            rank = self.dsm.current_rank()
            held = self._held.get(rank, [])
            if lock_id not in held:
                raise SynchronizationError(
                    f"rank {rank} releasing lock {lock_id} it does not hold")
            held.remove(lock_id)
            yield from self.dsm.unlock_g(lock_id)
            if engine.sharing.enabled:
                # Hold time ends after the release's consistency actions
                # (flush + manager handoff) — that is what the next waiter
                # actually experiences.
                engine.sharing.lock_released(lock_id, rank, engine.now)

    # --------------------------------------------------------------- barrier
    def barrier(self) -> None:
        """Global barrier with barrier consistency."""
        return self._h.engine.kernel(self.barrier_g())

    def barrier_g(self):
        """Generator kernel of :meth:`barrier` (``yield from`` it)."""
        engine = self._h.engine
        obs = engine.obs
        with obs.span("svc.barrier") if obs.enabled else NULL_SPAN:
            yield self._h.call_cost()
            self.stats.incr("barriers")
            sharing = engine.sharing
            if sharing.enabled:
                rank = self.dsm.current_rank()
                t0 = engine.now
                yield from self.dsm.barrier_g()
                sharing.barrier(rank, t0, engine.now)
            else:
                yield from self.dsm.barrier_g()

    # ------------------------------------------------------------ conditions
    def new_condition_g(self, lock_id: int):
        """Create a condition variable bound to ``lock_id`` (``yield
        from`` it)."""
        yield self._h.call_cost()
        self.stats.incr("conds_created")
        return ConditionVar(self, lock_id)

    # ------------------------------------------------------------ semaphores
    def new_semaphore_g(self, value: int = 0):
        """Create a counting semaphore holding ``value`` units, with a lock
        and a condition of its own (``yield from`` it)."""
        yield self._h.call_cost()
        self.stats.incr("semaphores_created")
        if value < 0:
            raise SynchronizationError("semaphore value must be >= 0")
        lock_id = yield from self.new_lock_g()
        cond = yield from self.new_condition_g(lock_id)
        return Semaphore(self, value, lock_id, cond)
