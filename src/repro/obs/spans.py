"""Causal span tracing.

A :class:`Span` is a named virtual-time interval with an explicit parent
link. The :class:`ObsRecorder` keeps one current-span *stack per simulated
process* (the engine's strict hand-off guarantees only one runs at a time),
so ``with obs.span(...)`` nests naturally inside blocking middleware code,
and a message can carry its sender's span id to another rank where the
handler's span links back to it — one causal tree across the cluster.

Design constraints honoured here:

* **Zero cost when disabled.** The engine's default observer is the shared
  :data:`NULL_OBS` singleton. Per-event sites test ``obs.enabled`` and
  enter the reusable no-op :data:`NULL_SPAN` without building any fields,
  nothing allocates, and — crucially — no instrumentation anywhere
  charges virtual time, so disabled runs are bit-identical.
* **Tracer is the span sink.** Every span close is also emitted as an
  ``obs.span`` event into the engine's :class:`~repro.sim.trace.Tracer`, so
  the existing trace tooling (and the protocol tests built on it) see spans
  through the surface they already consume.
* **Determinism.** Span ids are a per-recorder counter consumed in event
  order; a seeded run produces an identical span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "ObsRecorder", "NullObserver", "NULL_OBS", "NULL_SPAN"]


@dataclass
class Span:
    """One named virtual-time interval in the causal tree."""

    span_id: int
    kind: str
    begin: float
    #: None while the span is still open; closed by the recorder.
    end: Optional[float] = None
    #: span id of the causal parent (same rank, or a remote sender)
    parent: Optional[int] = None
    #: SPMD rank this span's work is attributed to (None = unattributed)
    rank: Optional[int] = None
    #: cluster node, where known (message handlers, wire transfers)
    node: Optional[int] = None
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end - self.begin) if self.end is not None else 0.0

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class _SpanCtx:
    """Context manager closing one span on exit (exceptions included)."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "ObsRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        self._recorder.end(self.span)


class _NullCtx:
    """Reusable no-op context manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
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
    spans: List[Span] = []

    def span(self, kind: str, **fields: Any) -> _NullCtx:
        return NULL_SPAN

    def begin(self, kind: str, **fields: Any) -> None:
        return None

    def end(self, span: Any) -> None:
        return None

    def record(self, kind: str, begin: float, end: float, **fields: Any) -> None:
        return None

    def current_id(self) -> Optional[int]:
        return None


#: Shared do-nothing observer; safe to share because it holds no state.
NULL_OBS = NullObserver()


class ObsRecorder:
    """Collects the causal span tree of one simulation."""

    enabled = True

    def __init__(self, engine, sink_to_trace: bool = True) -> None:
        self.engine = engine
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 0
        #: current-span stacks, keyed by SimProcess.pid (None = engine ctx)
        self._stacks: Dict[Optional[int], List[Span]] = {}
        self._sink_to_trace = sink_to_trace

    # -------------------------------------------------------------- plumbing
    def _stack(self) -> List[Span]:
        proc = self.engine.current_process
        key = proc.pid if proc is not None else None
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        return stack

    def current_id(self) -> Optional[int]:
        """Span id at the top of the calling context's stack, or None."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def get(self, span_id: Optional[int]) -> Optional[Span]:
        return self._by_id.get(span_id) if span_id is not None else None

    def _make(self, kind: str, begin: float, parent: Optional[int],
              rank: Optional[int], node: Optional[int],
              fields: Dict[str, Any]) -> Span:
        self._next_id += 1
        if rank is None:
            # Inherit attribution from the causal parent (possibly remote).
            src = self.get(parent)
            if src is not None:
                rank = src.rank
        span = Span(span_id=self._next_id, kind=kind, begin=begin,
                    parent=parent, rank=rank, node=node, fields=fields)
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    # ------------------------------------------------------------- recording
    def span(self, kind: str, parent: Optional[int] = None,
             rank: Optional[int] = None, node: Optional[int] = None,
             **fields: Any) -> _SpanCtx:
        """Open a span as a context manager; nests on the caller's stack.

        Without an explicit ``parent`` the enclosing span (same process)
        becomes the parent; pass a remote sender's span id to link across
        ranks (message causality).
        """
        return _SpanCtx(self, self.begin(kind, parent=parent, rank=rank,
                                         node=node, **fields))

    def begin(self, kind: str, parent: Optional[int] = None,
              rank: Optional[int] = None, node: Optional[int] = None,
              **fields: Any) -> Span:
        """Open a span explicitly (pair with :meth:`end`)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].span_id
        span = self._make(kind, self.engine.now, parent, rank, node, fields)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` at the current virtual time."""
        if span.end is not None:
            return
        span.end = self.engine.now
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:          # closed out of order (defensive)
            stack.remove(span)
        if self._sink_to_trace and self.engine.trace.enabled:
            self.engine.trace.emit("obs.span", span_id=span.span_id,
                                   span_kind=span.kind, begin=span.begin,
                                   dur=span.end - span.begin,
                                   parent=span.parent, rank=span.rank)

    def record(self, kind: str, begin: float, end: float,
               parent: Optional[int] = None, rank: Optional[int] = None,
               node: Optional[int] = None, **fields: Any) -> Span:
        """Record an already-completed interval (e.g. a wire transfer whose
        start/arrival times the network model computed). Does not touch any
        stack; ``parent`` defaults to the calling context's current span."""
        if parent is None:
            parent = self.current_id()
        span = self._make(kind, begin, parent, rank, node, fields)
        span.end = end
        if self._sink_to_trace and self.engine.trace.enabled:
            self.engine.trace.emit("obs.span", span_id=span.span_id,
                                   span_kind=span.kind, begin=span.begin,
                                   dur=span.end - span.begin,
                                   parent=span.parent, rank=span.rank)
        return span

    # --------------------------------------------------------------- queries
    def closed(self) -> List[Span]:
        """All spans with both endpoints (open spans are still running —
        reports clamp or skip them explicitly)."""
        return [s for s in self.spans if s.end is not None]

    def of_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def children(self, span_id: int) -> List[Span]:
        return [s for s in self.spans if s.parent == span_id]

    def roots(self) -> List[Span]:
        return [s for s in self.spans
                if s.parent is None or s.parent not in self._by_id]

    def __len__(self) -> int:
        return len(self.spans)
