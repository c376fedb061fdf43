"""Per-node memory-bus model.

Each node owns one :class:`MemoryBus`. Bulk memory traffic is serialized on
the bus: a transfer that arrives while the bus is busy queues behind the
in-flight traffic. This is what makes the dual-CPU SMP configuration lose to
the two-node cluster on the memory-bound MatMult benchmark (Figure 4): on
the SMP, both CPUs contend for one bus, while each cluster node brings its
own.

The model is intentionally simple — a single busy-until timestamp — which is
deterministic, O(1), and captures the first-order contention effect.
"""

from __future__ import annotations

from repro.machine.params import MachineParams

__all__ = ["MemoryBus"]


class MemoryBus:
    """Serialized bandwidth resource for one node's memory system."""

    def __init__(self, engine, params: MachineParams, name: str = "bus") -> None:
        self.engine = engine
        self.params = params
        self.name = name
        self._free_at: float = 0.0
        #: total bytes ever transferred (monitoring)
        self.bytes_transferred: int = 0
        #: accumulated virtual seconds processes spent waiting for the bus
        self.contention_time: float = 0.0

    def touch_cost(self, nbytes: int) -> float:
        """Book a transfer of ``nbytes`` on the bus; returns the hold that
        completes it (``yield bus.touch_cost(n)``): queueing delay (if the
        bus is busy) + fixed latency + ``nbytes``/bandwidth."""
        if nbytes <= 0:
            return 0.0
        now = self.engine.now
        start = max(now, self._free_at)
        xfer = self.params.mem_latency + nbytes / self.params.mem_bandwidth
        self._free_at = start + xfer
        self.contention_time += start - now
        self.bytes_transferred += nbytes
        return self._free_at - now

    def reset_stats(self) -> None:
        self.bytes_transferred = 0
        self.contention_time = 0.0
