"""Structured event tracing for the simulation kernel.

A :class:`Tracer` collects :class:`TraceEvent` records (kind + timestamp +
free-form fields). Tracing is off by default — the benchmark harness keeps it
disabled; protocol tests switch it on to assert on message/fault sequences.

A ``capacity`` turns the tracer into a bounded ring buffer: the newest
``capacity`` events are retained, older ones are evicted in O(1), and the
:attr:`Tracer.dropped` counter records exactly how many were lost — long
chaos runs can keep a window of recent history without unbounded growth or
silent truncation.

Every engine starts with the do-nothing observers here, :data:`NULL_OBS`
and :data:`NULL_SHARING`, so the simulator loads without :mod:`repro.obs`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

__all__ = ["TraceEvent", "Tracer", "NullObserver", "NULL_OBS", "NULL_SPAN",
           "NullSharing", "NULL_SHARING"]


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    time: float
    kind: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class Tracer:
    """Collects trace events; supports filtering."""

    def __init__(self, enabled: bool = True, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        #: ring buffer of the newest ``capacity`` events (unbounded if None)
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)
        #: events evicted because the ring was full
        self.dropped = 0
        self._clock: Callable[[], float] = lambda: 0.0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the engine's clock so events carry virtual timestamps."""
        self._clock = clock

    def emit(self, kind: str, **fields: Any) -> None:
        if not self.enabled:
            return
        ev = TraceEvent(time=self._clock(), kind=kind, fields=fields)
        if self.capacity is not None and len(self.events) == self.capacity:
            self.dropped += 1  # the deque evicts the oldest on append
        self.events.append(ev)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for e in self.events if e.kind == kind)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class _NullCtx:
    """Reusable no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The reusable no-op span a site enters when its observer is off
#: (``with obs.span(...) if obs.enabled else NULL_SPAN:``): no fields built.
NULL_SPAN = _NullCtx()


class NullObserver:
    """Observer that records nothing and allocates nothing.

    Installed as every engine's default ``obs``. All methods are no-ops;
    ``enabled`` is False, and per-event instrumentation sites test it
    before building any span fields (``tests/test_rules.py`` checks this).
    """

    enabled = False
    spans: List[Any] = []

    def span(self, kind: str, **fields: Any) -> _NullCtx:
        return NULL_SPAN

    def record(self, kind: str, begin: float, end: float, **fields: Any) -> None:
        return None

    def current_id(self) -> Optional[int]:
        return None


#: Shared do-nothing observer; safe to share because it holds no state.
NULL_OBS = NullObserver()


class NullSharing:
    """Sharing recorder that records nothing and allocates nothing.

    Installed as every engine's default ``sharing`` attribute so
    instrumentation sites can exist unconditionally; hot paths check
    ``enabled`` and skip everything when it is False.
    """

    enabled = False

    def access(self, rank: int, page: int, lo: int, hi: int,
               write: bool) -> None:
        return None

    def fault(self, rank: int, page: int, write: bool, t: float) -> None:
        return None

    def fetch(self, rank: int, page: int, home: int, nbytes: int,
              t: float) -> None:
        return None

    def notice(self, page: int, writer: int, t: float) -> None:
        return None

    def transition(self, rank: int, page: int, old: int, new: int,
                   t: float) -> None:
        return None

    def remote(self, rank: int, page: int, home: int, write: bool,
               nbytes: int, t: float) -> None:
        return None

    def lock_acquired(self, lock_id: int, rank: int, t_request: float,
                      t_acquired: float) -> None:
        return None

    def lock_released(self, lock_id: int, rank: int, t_released: float) -> None:
        return None

    def barrier(self, rank: int, t_arrive: float, t_depart: float) -> None:
        return None


#: Shared do-nothing recorder; safe to share because it holds no state.
NULL_SHARING = NullSharing()
