"""Generalized performance monitoring (§4.3).

Each HAMSTER module owns a :class:`ModuleStats` instance: an independent set
of named counters with query and reset services. Statistics are maintained
by the framework itself, independent of what the underlying architecture
provides, so the same counters exist on every platform — the property that
enables architecture- and programming-model-independent tool support.

Consumers (the paper's three scenarios): applications may query directly,
run-time systems may drive dynamic optimization, and external monitors may
attach via :meth:`ModuleStats.subscribe`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

__all__ = ["ModuleStats", "MonitoringRegistry"]


class ModuleStats:
    """Named counters for one module, with query/reset services."""

    def __init__(self, module: str) -> None:
        self.module = module
        self._counters: Dict[str, float] = {}
        #: per-counter observation aggregates: [count, sum, min, max]
        self._observed: Dict[str, List[float]] = {}
        self._subscribers: List[Callable[[str, str, float], None]] = []

    # ------------------------------------------------------------- updates
    def incr(self, counter: str, amount: float = 1) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + amount
        for cb in self._subscribers:
            cb(self.module, counter, self._counters[counter])

    def observe(self, counter: str, value: float) -> None:
        """Record one observation of a distribution-style metric.

        The full count/sum/min/max aggregate is kept (see
        :meth:`query_stats`); :meth:`query` keeps returning the high-water
        mark, the historical behaviour every existing consumer relies on.
        """
        agg = self._observed.get(counter)
        if agg is None:
            self._observed[counter] = [1, value, value, value]
        else:
            agg[0] += 1
            agg[1] += value
            if value < agg[2]:
                agg[2] = value
            if value > agg[3]:
                agg[3] = value
        # Exactly the historical high-water-mark semantics for query().
        self._counters[counter] = max(self._counters.get(counter, value), value)

    # ------------------------------------------------------------- queries
    def query(self, counter: Optional[str] = None):
        """One counter's value, or a snapshot dict of all of them.

        For observed counters the value is the maximum seen (backward
        compatible); use :meth:`query_stats` for the full aggregate.
        """
        if counter is not None:
            return self._counters.get(counter, 0)
        return dict(self._counters)

    def query_stats(self, counter: Optional[str] = None):
        """Full aggregate of an observed counter: a dict with ``count``,
        ``sum``, ``min``, ``max``, and ``mean`` keys — or, with no argument,
        that dict for every observed counter."""
        if counter is None:
            return {name: self.query_stats(name) for name in self._observed}
        agg = self._observed.get(counter)
        if agg is None:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        count, total, low, high = agg
        return {"count": int(count), "sum": total, "min": low, "max": high,
                "mean": total / count if count else 0.0}

    def reset(self, counter: Optional[str] = None) -> None:
        if counter is not None:
            self._counters.pop(counter, None)
            self._observed.pop(counter, None)
        else:
            self._counters.clear()
            self._observed.clear()

    # ---------------------------------------------------------- attachment
    def subscribe(self, callback: Callable[[str, str, float], None]) -> None:
        """Attach an external monitoring system; called on every update."""
        self._subscribers.append(callback)


class MonitoringRegistry:
    """All modules' statistics, queryable as one tree (tool support)."""

    def __init__(self) -> None:
        self._modules: Dict[str, ModuleStats] = {}

    def query_all(self) -> Dict[str, Dict[str, float]]:
        return {name: stats.query() for name, stats in self._modules.items()}

    def reset_all(self) -> None:
        for stats in self._modules.values():
            stats.reset()
