"""Fault injection at the network boundary.

:class:`FaultyNetwork` decorates the ``send`` method of an already-built
:class:`~repro.machine.interconnect.Network` *in place*: the Ethernet and
SCI models (and any other subclass) inherit injection without modification,
`isinstance` checks and the transaction APIs keep working, and detaching
restores the original method. The wrapper sits *below* the active-message
layer, so retransmissions pass through it again and can be re-dropped —
exactly like a real lossy wire.

Every probabilistic decision comes from PRNG streams derived from the
plan's seed and is consumed in deterministic event order, so a seeded run
is exactly repeatable. Two independent streams are used — one for message
classification, one for heartbeat loss — so attaching a failure detector
does not perturb which *messages* are dropped.
"""

from __future__ import annotations

import dataclasses
import random

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.machine.interconnect import Message, Network

__all__ = ["FaultyNetwork"]


class FaultyNetwork:
    """Decorator around ``network.send`` executing a :class:`FaultPlan`."""

    def __init__(self, network: Network, plan: FaultPlan) -> None:
        if getattr(network, "faults", None) is not None:
            raise ConfigurationError("network already has a fault injector")
        self.network = network
        self.engine = network.engine
        self.plan = plan
        self._rng_msg = random.Random(f"{plan.seed}/msg")
        self._rng_hb = random.Random(f"{plan.seed}/hb")
        self._inner_send = network.send
        self._down_traced: set = set()  # crash/restart events already traced
        # ---------------------------------------------------- statistics
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.dropped_node_down = 0
        self.dropped_partition = 0
        self.heartbeats_lost = 0
        network.send = self._send  # type: ignore[method-assign]
        network.faults = self  # type: ignore[attr-defined]

    # ------------------------------------------------------------ injection
    def _trace_down(self, node: int, now: float) -> None:
        """Emit the crash (and restart bound) once per crash window."""
        for c in self.plan.crashes:
            if c.node == node and c.down(now) and (node, c.at) not in self._down_traced:
                self._down_traced.add((node, c.at))
                self.engine.trace.emit("fault.crash", node=node, at=c.at,
                                       restart=c.restart)

    def _send(self, msg: Message) -> None:
        self.network.assign_id(msg)
        now = self.engine.now
        plan = self.plan
        trace = self.engine.trace
        for endpoint in (msg.src, msg.dst):
            if plan.node_down(endpoint, now):
                self.dropped_node_down += 1
                self._trace_down(endpoint, now)
                trace.emit("fault.drop", reason="node-down", node=endpoint,
                           src=msg.src, dst=msg.dst, msg_kind=msg.kind,
                           msg_id=msg.msg_id)
                return
        if plan.partitioned(msg.src, msg.dst, now):
            self.dropped_partition += 1
            trace.emit("fault.drop", reason="partition", src=msg.src,
                       dst=msg.dst, msg_kind=msg.kind, msg_id=msg.msg_id)
            return
        link = plan.link
        rng = self._rng_msg
        if link.drop_rate > 0 and rng.random() < link.drop_rate:
            self.dropped += 1
            trace.emit("fault.drop", reason="loss", src=msg.src, dst=msg.dst,
                       msg_kind=msg.kind, msg_id=msg.msg_id)
            return
        delay = 0.0
        if link.delay_rate > 0 and rng.random() < link.delay_rate:
            delay = rng.uniform(link.delay_min, link.delay_max)
            if delay > 0:
                self.delayed += 1
                trace.emit("fault.delay", extra=delay, src=msg.src,
                           dst=msg.dst, msg_kind=msg.kind, msg_id=msg.msg_id)
        duplicate = link.dup_rate > 0 and rng.random() < link.dup_rate
        if delay > 0:
            self.engine.schedule(delay, lambda m=msg: self._inner_send(m))
        else:
            self._inner_send(msg)
        if duplicate:
            self.duplicated += 1
            trace.emit("fault.dup", src=msg.src, dst=msg.dst,
                       msg_kind=msg.kind, msg_id=msg.msg_id)
            # The copy shares the original's msg_id (it is the same packet
            # on the wire twice); receiver-side dedup suppresses it.
            copy = dataclasses.replace(msg)
            self.engine.schedule(delay + max(self.network.latency, 1e-6),
                                 lambda m=copy: self._inner_send(m))

    # ----------------------------------------------------------- heartbeats
    def heartbeat_lost(self, node: int, monitor: int, now: float) -> bool:
        """Whether a heartbeat from ``node`` to ``monitor`` is lost now.

        Uses a dedicated PRNG stream so detector traffic never perturbs the
        message-fault schedule.
        """
        plan = self.plan
        if plan.node_down(node, now) or plan.node_down(monitor, now):
            self._trace_down(node, now)
            self.heartbeats_lost += 1
            return True
        if plan.partitioned(node, monitor, now):
            self.heartbeats_lost += 1
            return True
        rate = plan.link.drop_rate
        if rate > 0 and self._rng_hb.random() < rate:
            self.heartbeats_lost += 1
            return True
        return False

    # ------------------------------------------------------------- queries

    def stats(self) -> dict:
        return {"dropped": self.dropped,
                "duplicated": self.duplicated,
                "delayed": self.delayed,
                "dropped_node_down": self.dropped_node_down,
                "dropped_partition": self.dropped_partition,
                "heartbeats_lost": self.heartbeats_lost}
