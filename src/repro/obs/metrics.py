"""Time-series metrics and the attached §4.3 monitor.

The paper's counters answer "how much, in total"; Regional Consistency
(arXiv:1301.4490) argues tuning needs *per-interval* measurement. The
:class:`MetricsSampler` is the one sampler. At a configurable virtual-time
period it snapshots, into one :class:`MetricPoint`:

* every :class:`~repro.core.monitoring.ModuleStats` registry
  (``module.counter``),
* each rank's DSM statistics (``dsm.rank<r>.<counter>``; nested entries such
  as the composite DSM's per-child breakdown keep their path),
* network totals (``net.messages``, ``net.bytes``),
* per-node active-message queue depths (``am.qdepth.n<N>``, ``.total`` —
  the live contention signal no end-of-run total can show) and
  ``am.retries``.

The sampler is a self-rescheduling engine *event*, not a process: it
charges no virtual time, never keeps the simulation alive, and stops once
no non-daemon process remains. Samples hold cumulative values;
:meth:`MetricsSampler.rates` turns any key into a per-interval rate curve.

:class:`AttachedMonitor` is the paper's external monitoring system: it
attaches from outside, logs every module's live counter updates through
:meth:`~repro.core.monitoring.ModuleStats.subscribe`, and samples through a
:class:`MetricsSampler`. The application needs no changes and the
programming model stays transparent — the point of the paper's design.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = ["MetricPoint", "MetricsSampler", "flatten", "CounterEvent",
           "AttachedMonitor"]


def flatten(tree: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """A statistics tree as dotted keys, each level in key order:
    ``{"dsm": {"rank0": {"reads": 3}}}`` -> ``{"dsm.rank0.reads": 3}``."""
    out: Dict[str, Any] = {}
    for key in sorted(tree, key=str):
        value = tree[key]
        if isinstance(value, Mapping):
            out.update(flatten(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


@dataclass
class MetricPoint:
    """One snapshot of all sampled metrics at a virtual instant."""

    time: float
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, key: str, default: float = 0.0) -> float:
        return self.values.get(key, default)


class MetricsSampler:
    """Periodic snapshots of a built platform's monitoring surfaces.

    ``interval`` may be None for a sampler that only samples on demand.
    """

    def __init__(self, platform, interval: Optional[float]) -> None:
        if interval is not None and interval <= 0:
            raise ValueError(f"metrics interval must be > 0, got {interval}")
        self.platform = platform
        self.engine = platform.engine
        self.interval = interval
        self.samples: List[MetricPoint] = []
        self._started = False

    # --------------------------------------------------------------- control
    def start(self) -> "MetricsSampler":
        """Arm the sampler (idempotent). Call before the SPMD run; the first
        sample lands one interval in. One final sample may land up to one
        interval after the last task exits."""
        if self._started:
            return self
        self._started = True
        engine = self.engine

        def tick() -> None:
            self.sample()
            if any(p.alive and not p.daemon for p in engine._processes):
                engine.schedule(self.interval, tick)

        engine.schedule(self.interval, tick)
        return self

    def sample(self) -> MetricPoint:
        """Take one on-demand snapshot (also usable without :meth:`start`)."""
        tree = self.platform.hamster.query_statistics()
        values = {key: float(value) for key, value in flatten(tree).items()}
        network = self.platform.cluster.network
        if network is not None:
            values["net.messages"] = float(network.messages_sent)
            values["net.bytes"] = float(network.bytes_sent)
        fabric = getattr(self.platform, "fabric", None)
        if fabric is not None:
            layer = fabric.layer
            total = 0
            for node_id, inbox in layer._inboxes.items():
                depth = len(inbox)
                total += depth
                values[f"am.qdepth.n{node_id}"] = float(depth)
            values["am.qdepth.total"] = float(total)
            values["am.retries"] = float(layer.retries)
        point = MetricPoint(time=self.engine.now, values=values)
        self.samples.append(point)
        return point

    # --------------------------------------------------------------- queries
    def keys(self) -> List[str]:
        return sorted({key for point in self.samples for key in point.values})

    def series(self, key: str) -> List[Tuple[float, float]]:
        """(time, value) pairs of one metric across all samples."""
        return [(p.time, p.get(key)) for p in self.samples]

    def rates(self, key: str) -> List[Tuple[float, float]]:
        """Per-interval rate curve of a cumulative metric: (time, d/dt).

        ``net.bytes`` becomes instantaneous bandwidth; ``memory.allocations``
        becomes an allocation-rate curve; and so on.
        """
        out: List[Tuple[float, float]] = []
        prev_t, prev_v = 0.0, 0.0
        for time, value in self.series(key):
            dt = time - prev_t
            out.append((time, (value - prev_v) / dt if dt > 0 else 0.0))
            prev_t, prev_v = time, value
        return out

    # --------------------------------------------------------------- exports
    def to_csv(self) -> str:
        """One row per sample, one column per metric (stable key order)."""
        keys = self.keys()
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["time"] + keys)
        for point in self.samples:
            writer.writerow([f"{point.time:.9f}"]
                            + [f"{point.get(k):g}" for k in keys])
        return out.getvalue()

    def to_json(self, indent: int = 2) -> str:
        doc: List[Dict[str, Any]] = [
            {"time": p.time, "values": {k: p.values[k] for k in sorted(p.values)}}
            for p in self.samples]
        return json.dumps(doc, indent=indent)

    def __len__(self) -> int:
        return len(self.samples)


# -------------------------------------------------------- the §4.3 monitor
@dataclass(frozen=True)
class CounterEvent:
    """One live counter update seen through a subscription."""

    time: float
    module: str
    counter: str
    value: float


class AttachedMonitor:
    """Attach to a platform; collect live events and periodic samples."""

    def __init__(self, platform, period: Optional[float] = None) -> None:
        self.platform = platform
        self.hamster = platform.hamster
        self.period = period
        self.sampler = MetricsSampler(platform, period)
        self.events: List[CounterEvent] = []
        self._attached = False

    @property
    def samples(self) -> List[MetricPoint]:
        return self.sampler.samples

    def attach(self) -> "AttachedMonitor":
        """Subscribe to all module counters and, given a period, start the
        sampler (idempotent). Call before ``run_spmd``."""
        if not self._attached:
            self._attached = True
            for stats in self.hamster.monitoring._modules.values():
                stats.subscribe(self._on_update)
            if self.period is not None:
                self.sampler.start()
        return self

    def _on_update(self, module: str, counter: str, value: float) -> None:
        self.events.append(CounterEvent(time=self.hamster.engine.now,
                                        module=module, counter=counter,
                                        value=value))

    # --------------------------------------------------------------- queries
    def snapshot(self) -> MetricPoint:
        """Take one on-demand sample."""
        return self.sampler.sample()

    def timeline(self, module: str, counter: str) -> List[CounterEvent]:
        """All live updates of one counter, in time order."""
        return [e for e in self.events
                if e.module == module and e.counter == counter]

    def rate(self, module: str, counter: str) -> float:
        """Average updates/second of a counter over the monitored window."""
        events = self.timeline(module, counter)
        if len(events) < 2:
            return 0.0
        span = events[-1].time - events[0].time
        return (len(events) - 1) / span if span > 0 else float("inf")

    def peak(self, module: str, counter: str) -> float:
        events = self.timeline(module, counter)
        return max((e.value for e in events), default=0.0)

    def report(self) -> str:
        """Human-readable summary of everything observed."""
        lines = [f"monitor report: {len(self.events)} live events, "
                 f"{len(self.samples)} samples"]
        by_counter = Counter((e.module, e.counter) for e in self.events)
        for (module, counter), count in sorted(by_counter.items()):
            lines.append(f"  {module}.{counter}: {count} updates, "
                         f"final={self.peak(module, counter):g}")
        return "\n".join(lines)
