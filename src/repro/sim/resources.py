"""Synchronization resources that block in virtual time.

These are the simulation-kernel primitives the framework's *simulated*
synchronization (HAMSTER locks, barriers, DSM protocol waits) is built on.
They are strictly FIFO, which keeps runs deterministic and makes fairness
properties testable.

Every blocking operation is a generator kernel (``acquire_g``, ``wait_g``,
``get_g``, …) following the yield-point contract of
:mod:`repro.sim.process`: a body reaches it with ``yield from``. A
thread-backed body that must block runs it through
:meth:`repro.sim.engine.Engine.kernel`, so both kinds of body execute
identical wait/wake sequences by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from repro.errors import SimulationError, SynchronizationError
from repro.sim.process import PARK, SimProcess

__all__ = ["SimLock", "SimSemaphore", "SimCondition", "SimQueue", "SimBarrier"]


class SimLock:
    """FIFO mutex in virtual time."""

    def __init__(self, engine, name: str = "lock") -> None:
        self.engine = engine
        self.name = name
        self.owner: Optional[SimProcess] = None
        self._waiters: Deque[SimProcess] = deque()

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def acquire_g(self):
        proc = self.engine.require_process()
        if self.owner is None:
            self.owner = proc
            return
        if self.owner is proc:
            raise SynchronizationError(f"{proc} re-acquired non-recursive {self.name}")
        self._waiters.append(proc)
        yield PARK
        # We are resumed by release() after it made us the owner.

    def release(self) -> None:
        proc = self.engine.require_process()
        if self.owner is not proc:
            raise SynchronizationError(
                f"{proc} released {self.name} owned by {self.owner}")
        if self._waiters:
            nxt = self._waiters.popleft()
            self.owner = nxt
            nxt.wake()
        else:
            self.owner = None


class SimSemaphore:
    """Counting semaphore; FIFO wakeups."""

    def __init__(self, engine, value: int = 0, name: str = "sem") -> None:
        if value < 0:
            raise SimulationError("semaphore value must be >= 0")
        self.engine = engine
        self.name = name
        self._value = value
        self._waiters: Deque[SimProcess] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire_g(self):
        proc = self.engine.require_process()
        if self._value > 0:
            self._value -= 1
            return
        self._waiters.append(proc)
        yield PARK

    def release(self, n: int = 1) -> None:
        for _ in range(n):
            if self._waiters:
                self._waiters.popleft().wake()
            else:
                self._value += 1


class SimCondition:
    """Condition variable associated with a :class:`SimLock`.

    Semantics follow POSIX: :meth:`wait_g` atomically releases the lock and
    blocks; :meth:`signal`/:meth:`broadcast` move waiters to the lock queue.
    """

    def __init__(self, engine, lock: Optional[SimLock] = None, name: str = "cond") -> None:
        self.engine = engine
        self.name = name
        self.lock = lock if lock is not None else SimLock(engine, name + ".lock")
        self._waiters: Deque[SimProcess] = deque()

    def wait_g(self):
        proc = self.engine.require_process()
        if self.lock.owner is not proc:
            raise SynchronizationError(f"wait on {self.name} without holding its lock")
        self._waiters.append(proc)
        self.lock.release()
        yield PARK
        yield from self.lock.acquire_g()

    def signal(self) -> None:
        if self._waiters:
            self._waiters.popleft().wake()

    def broadcast(self) -> None:
        while self._waiters:
            self._waiters.popleft().wake()


class SimQueue:
    """Unbounded FIFO message queue; ``get`` blocks in virtual time.

    HAMSTER's user-level messages (:mod:`repro.core.cluster_ctrl`) queue
    per rank through this class, so they are taken in delivery order.
    """

    def __init__(self, engine, name: str = "queue") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimProcess] = deque()

    def put(self, item: Any) -> None:
        self._items.append(item)
        if self._getters:
            self._getters.popleft().wake()

    def get_g(self):
        proc = self.engine.require_process()
        while not self._items:
            self._getters.append(proc)
            yield PARK
        return self._items.popleft()


class SimBarrier:
    """N-party barrier in virtual time (kernel primitive, not the HAMSTER
    barrier — the HAMSTER one layers consistency actions and network costs
    on top of semantics like these)."""

    def __init__(self, engine, parties: int, name: str = "barrier") -> None:
        if parties < 1:
            raise SimulationError("barrier needs >= 1 party")
        self.engine = engine
        self.parties = parties
        self.name = name
        self._waiting: List[SimProcess] = []
        self.generation = 0

    def wait_g(self):
        """Block until ``parties`` processes arrive; returns the generation
        index that completed."""
        proc = self.engine.require_process()
        gen = self.generation
        self._waiting.append(proc)
        if len(self._waiting) == self.parties:
            self.generation += 1
            waiters, self._waiting = self._waiting, []
            for p in waiters:
                if p is not proc:
                    p.wake()
            return gen
        yield PARK
        return gen
