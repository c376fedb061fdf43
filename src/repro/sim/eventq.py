"""The engine's event queue: a binary heap ordered by ``(when, seq)``.

``when`` is the virtual timestamp and ``seq`` the engine's monotonic
sequence number, so events at one timestamp pop FIFO. The engine owns
``seq``; pushing a popped event back under its original ``seq`` (the
bounded-run path) restores its place exactly. ``pop`` on an empty queue
raises :class:`IndexError`, which the engine reads as "drained".
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

__all__ = ["HeapEventQueue", "make_queue"]

Event = Tuple[float, int, Callable[[], None]]


class HeapEventQueue:
    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Event] = []

    def push(self, when: float, seq: int, action: Any) -> None:
        heapq.heappush(self._heap, (when, seq, action))

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


def make_queue(kind: str = "heap") -> HeapEventQueue:
    """Build the engine's event queue, whatever name it is asked for."""
    # kind stays: the frozen benchmarks/perf probe calls make_queue("calendar")
    return HeapEventQueue()
