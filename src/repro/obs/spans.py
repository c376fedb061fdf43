"""Causal span tracing.

A :class:`Span` is a named virtual-time interval with an explicit parent
link. The :class:`ObsRecorder` keeps one current-span *stack per simulated
process* (the engine's strict hand-off guarantees only one runs at a time),
so ``with obs.span(...)`` nests naturally inside blocking middleware code,
and a message can carry its sender's span id to another rank where the
handler's span links back to it — one causal tree across the cluster.

Design constraints honoured here:

* **Zero cost when disabled.** The engine's default observer is the shared
  :data:`~repro.sim.trace.NULL_OBS` singleton. Per-event sites test
  ``obs.enabled`` and enter the reusable no-op
  :data:`~repro.sim.trace.NULL_SPAN` without building any fields,
  nothing allocates, and — crucially — no instrumentation anywhere
  charges virtual time, so disabled runs are bit-identical.
* **Tracer is the span sink.** Every span close is also emitted as an
  ``obs.span`` event into the engine's :class:`~repro.sim.trace.Tracer`, so
  the existing trace tooling (and the protocol tests built on it) see spans
  through the surface they already consume.
* **Determinism.** Span ids count from 1 in event order, so span ``i``
  is ``spans[i - 1]``; a seeded run produces an identical span tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.trace import NULL_OBS, NULL_SPAN, NullObserver

__all__ = ["Span", "ObsRecorder", "NullObserver", "NULL_OBS", "NULL_SPAN"]


@dataclass(slots=True)
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
    """Context manager closing one span on exit (exceptions included), on
    the stack it was opened on."""

    __slots__ = ("_recorder", "span", "_stack")

    def __init__(self, recorder: "ObsRecorder", span: Span,
                 stack: List[Span]) -> None:
        self._recorder = recorder
        self.span = span
        self._stack = stack

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> None:
        span, stack, recorder = self.span, self._stack, self._recorder
        engine = recorder.engine
        span.end = engine._now
        if stack[-1] is span:
            stack.pop()
        else:                        # closed out of order (defensive)
            stack.remove(span)
        if recorder._sink_to_trace and engine.trace.enabled:
            recorder._sink(span)


class ObsRecorder:
    """Collects the causal span tree of one simulation."""

    enabled = True

    def __init__(self, engine, sink_to_trace: bool = True) -> None:
        self.engine = engine
        #: every span, in id order
        self.spans: List[Span] = []
        #: current-span stacks, keyed by SimProcess (None = engine ctx)
        self._stacks: Dict[Any, List[Span]] = {}
        self._sink_to_trace = sink_to_trace

    # -------------------------------------------------------------- plumbing
    def current_id(self) -> Optional[int]:
        """Span id at the top of the calling context's stack, or None."""
        stack = self._stacks.get(self.engine._current)
        return stack[-1].span_id if stack else None

    def get(self, span_id: Optional[int]) -> Optional[Span]:
        spans = self.spans
        if span_id is not None and 0 < span_id <= len(spans):
            return spans[span_id - 1]
        return None

    def _sink(self, span: Span) -> None:
        self.engine.trace.emit(
            "obs.span", span_id=span.span_id, span_kind=span.kind,
            begin=span.begin, dur=span.end - span.begin, parent=span.parent,
            rank=span.rank)

    # ------------------------------------------------------------- recording
    # span() and record() run once per span of every observed run, so each
    # resolves its parent and builds its Span inline. Without an explicit
    # rank a span takes its causal parent's (possibly remote) rank.
    def span(self, kind: str, parent: Optional[int] = None,
             rank: Optional[int] = None, node: Optional[int] = None,
             **fields: Any) -> _SpanCtx:
        """Open a span as a context manager; nests on the caller's stack.

        Without an explicit ``parent`` the enclosing span (same process)
        becomes the parent; pass a remote sender's span id to link across
        ranks (message causality). The span stays open until the context
        exits.
        """
        engine, spans = self.engine, self.spans
        proc = engine._current
        stack = self._stacks.get(proc)
        if stack is None:
            stack = self._stacks[proc] = []
        if parent is None:
            if stack:
                top = stack[-1]
                parent = top.span_id
                if rank is None:
                    rank = top.rank
        elif rank is None and 0 < parent <= len(spans):
            rank = spans[parent - 1].rank
        span = Span(len(spans) + 1, kind, engine._now, None, parent, rank,
                    node, fields)
        spans.append(span)
        stack.append(span)
        return _SpanCtx(self, span, stack)

    def record(self, kind: str, begin: float, end: float,
               parent: Optional[int] = None, rank: Optional[int] = None,
               node: Optional[int] = None, **fields: Any) -> Span:
        """Record an already-completed interval (e.g. a wire transfer whose
        start/arrival times the network model computed). Does not touch any
        stack; ``parent`` defaults to the calling context's current span."""
        engine, spans = self.engine, self.spans
        if parent is None:
            stack = self._stacks.get(engine._current)
            if stack:
                top = stack[-1]
                parent = top.span_id
                if rank is None:
                    rank = top.rank
        elif rank is None and 0 < parent <= len(spans):
            rank = spans[parent - 1].rank
        span = Span(len(spans) + 1, kind, begin, end, parent, rank, node,
                    fields)
        spans.append(span)
        if self._sink_to_trace and engine.trace.enabled:
            self._sink(span)
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

    def __len__(self) -> int:
        return len(self.spans)
