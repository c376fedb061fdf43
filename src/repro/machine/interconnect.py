"""Abstract interconnect model and the message record.

A :class:`Network` moves :class:`Message` records between nodes with a
latency/bandwidth cost model and per-NIC serialization. Concrete subclasses
set the cost parameters (:class:`~repro.machine.ethernet.EthernetNetwork`)
or add transaction-style remote memory access
(:class:`~repro.machine.sci.SciInterconnect`).

Delivery is callback-based: the cluster's messaging layer registers one
delivery callback per node; the network invokes it at the virtual instant
the message arrives. Per-message *software* overheads (the TCP stack, the
active-message dispatch) are charged by the messaging layer, not here —
the network models only wire/NIC behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import MessagingError

__all__ = ["Message", "Network"]


@dataclass(slots=True)
class Message:
    """One network message.

    ``payload`` carries arbitrary Python data (the simulation moves real
    protocol data — diffs, pages, write notices — not placeholders);
    ``size`` is the number of bytes this message would occupy on the wire
    and is what the cost model uses.

    ``msg_id`` is assigned by the :class:`Network` that first transmits the
    message (per-network counters, so ids are reproducible per simulation
    and never leak across independently built clusters). A retransmission
    keeps its original id — that is what receiver-side duplicate
    suppression keys on.
    """

    src: int
    dst: int
    kind: str
    size: int
    payload: Any = None
    msg_id: Optional[int] = None
    send_time: float = 0.0
    recv_time: float = 0.0
    #: RPC bookkeeping (used by the active-message layer): token of the
    #: request this message answers / expects an answer for.
    rpc_token: Optional[int] = None
    is_reply: bool = False
    #: observability: span id of the sender-side operation this message
    #: belongs to; receivers link their handler spans back to it, and a
    #: retransmission keeps it — so the whole exchange is one causal tree.
    #: None whenever observability is disabled; carries no wire size.
    span_id: Optional[int] = None


class Network:
    """Base point-to-point network with per-NIC transmit serialization."""

    #: one-way latency in seconds (overridden by subclasses/params)
    latency: float = 0.0
    #: payload bandwidth in bytes/second
    bandwidth: float = float("inf")
    #: fixed per-message wire/NIC framing bytes
    framing_bytes: int = 0

    def __init__(self, engine, n_nodes: int) -> None:
        self.engine = engine
        self.n_nodes = n_nodes
        self._nic_free_at = [0.0] * n_nodes
        self._delivery: Dict[int, Callable[[Message], None]] = {}
        # Per-network id counter: message ids are deterministic within one
        # simulation and independent of any other cluster ever built in the
        # same interpreter (reproducible traces regardless of test order).
        self._msg_ids = itertools.count(1)
        # ------------------------------------------------- statistics
        self.messages_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------- plumbing
    def register_delivery(self, node_id: int, callback: Callable[[Message], None]) -> None:
        """Install the delivery callback for ``node_id`` (messaging layer)."""
        self._check_node(node_id)
        self._delivery[node_id] = callback

    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < self.n_nodes):
            raise MessagingError(f"node id {node_id} out of range [0, {self.n_nodes})")

    def assign_id(self, msg: Message) -> None:
        """Give ``msg`` its wire id on first transmission (idempotent, so a
        retransmission keeps the original id)."""
        if msg.msg_id is None:
            msg.msg_id = next(self._msg_ids)

    # ----------------------------------------------------------------- send
    def send(self, msg: Message) -> None:
        """Transmit ``msg``; non-blocking for the caller.

        The sender's NIC serializes outgoing transfers: a message posted
        while an earlier one is still on the wire starts after it. Delivery
        fires at ``tx_start + tx_time + latency``.
        """
        self._check_node(msg.src)
        self._check_node(msg.dst)
        if msg.dst not in self._delivery:
            raise MessagingError(f"no delivery callback registered for node {msg.dst}")
        self.assign_id(msg)
        now = self.engine.now
        msg.send_time = now
        wire_bytes = msg.size + self.framing_bytes
        start = max(now, self._nic_free_at[msg.src])
        tx_time = wire_bytes / self.bandwidth
        self._nic_free_at[msg.src] = start + tx_time
        arrive = start + tx_time + self.latency
        self.messages_sent += 1
        self.bytes_sent += wire_bytes

        def deliver() -> None:
            msg.recv_time = self.engine.now
            self._delivery[msg.dst](msg)

        self.engine.schedule(arrive - now, deliver)
        obs = self.engine.obs
        if obs.enabled:
            if msg.span_id is None:
                msg.span_id = obs.current_id()
            # The wire occupancy [tx start, arrival] as a completed span.
            # Retransmissions pass here again and parent to the same
            # originating span — the retry chain stays causally linked.
            obs.record("net.xfer", begin=start, end=arrive,
                       parent=msg.span_id, node=msg.src, src=msg.src,
                       dst=msg.dst, msg=msg.kind, size=msg.size,
                       msg_id=msg.msg_id)
        if self.engine.trace.enabled:
            self.engine.trace.emit("net.send", src=msg.src, dst=msg.dst,
                                   msg_kind=msg.kind, size=msg.size,
                                   arrive=arrive, msg_id=msg.msg_id)

    # ------------------------------------------------------------ overheads

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.bytes_sent = 0
