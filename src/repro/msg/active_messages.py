"""Active-message layer over a simulated interconnect.

Each node runs a daemon *message server* process. Incoming messages are
dispatched to handlers registered by kind; handlers execute in the server's
process context, so they can charge CPU time, touch memory, send further
messages, and defer replies — exactly like the communication thread /
SIGIO handler of a real SW-DSM system.

Two interaction styles:

* :meth:`ActiveMessageLayer.post_g` — one-way active message.
* :meth:`ActiveMessageLayer.rpc_g` — request/reply; the caller parks in
  virtual time until the remote handler answers. Handlers answer either by
  returning a :class:`Reply` immediately or by stashing the message and
  calling :meth:`ActiveMessageLayer.reply_g` later (deferred grant — how
  the distributed lock manager queues contended requests).

Per-message *software stack* cost is a constructor parameter: the coalesced
HAMSTER channel is cheaper per message than a stand-alone DSM stack
(§3.3 / :mod:`repro.msg.coalesce`).

Reliable mode
-------------

By default the layer assumes a perfect network (the paper's setting) and
adds **zero** cost or state. When a fault plan is active
(:mod:`repro.faults`), :meth:`ActiveMessageLayer.enable_reliability` arms an
acknowledged-datagram sublayer:

* every request, reply, and one-way post is tracked by the sender and
  retransmitted on a virtual-time timeout with exponential backoff, up to
  :class:`RetryPolicy` limits — then a typed
  :class:`~repro.errors.TimeoutError` surfaces (never a hang into
  ``DeadlockError``);
* receivers acknowledge every message and suppress duplicates by
  ``msg_id`` (retransmissions and wire duplicates alike), so handlers run
  exactly once;
* the failure detector (:mod:`repro.core.cluster_ctrl`) marks confirmed
  dead nodes via :meth:`ActiveMessageLayer.mark_node_failed`: their pending
  RPCs fail with :class:`~repro.errors.NodeFailedError` and new traffic to
  them is refused immediately.

Retransmission timers are engine events, not process activity — a server
handler that defers a reply blocks nothing, and the caller keeps waiting
(correct for contended-lock RPCs) as long as delivery itself is confirmed.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Callable, Deque, Dict, List, Optional, Set

from repro.errors import MessagingError, NodeFailedError, TimeoutError
from repro.machine.interconnect import Message, Network
from repro.sim.process import PARK, SimProcess
from repro.sim.trace import NULL_SPAN

__all__ = ["Reply", "Handler", "RetryPolicy", "ActiveMessageLayer"]

#: Fixed size of the active-message header on the wire.
AM_HEADER_BYTES = 32

#: Reserved kind for delivery acknowledgements (reliable mode only).
ACK_KIND = "__ack__"
#: Wire size of an ack (tiny control frame; header only).
ACK_WIRE_BYTES = 16
#: Per-node bound on the duplicate-suppression window.
SEEN_WINDOW = 8192


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission parameters for reliable mode (virtual seconds)."""

    #: first retransmission timeout — a few Ethernet round trips
    timeout: float = 600e-6
    #: retransmissions before giving up with :class:`TimeoutError`
    max_retries: int = 10
    #: timeout multiplier per attempt
    backoff: float = 2.0

    def span(self) -> float:
        """Total virtual time covered before delivery is declared failed."""
        total, t = 0.0, self.timeout
        for _ in range(self.max_retries + 1):
            total += t
            t *= self.backoff
        return total


@dataclass
class Reply:
    """Immediate reply from a handler: payload + wire size."""

    payload: Any = None
    size: int = 0


#: Handler signature: ``handler(msg) -> Optional[Reply]``. Returning ``None``
#: for an RPC message defers the reply (handler must call ``reply_g`` later).
#: A handler may instead be a generator function following the yield-point
#: contract of :mod:`repro.sim.process`; the server loop drives it inline
#: and its ``return`` value plays the same ``Optional[Reply]`` role.
Handler = Callable[[Message], Optional[Reply]]


class _PendingCall:
    """Sender-side state of one in-flight RPC."""

    __slots__ = ("caller", "result", "done", "dst", "req_id", "failed")

    def __init__(self, caller: SimProcess, dst: int = -1) -> None:
        self.caller = caller
        self.result: Any = None
        self.done = False
        self.dst = dst
        self.req_id: Optional[int] = None
        self.failed: Optional[BaseException] = None


def _observed(obs, body, kind: str, **fields: Any):
    """Drive ``body`` inside one ``kind`` span: the observed form of a
    send whose span covers its whole body. Unobserved, the send returns
    ``body`` bare, so a message pays for no span at all."""
    with (obs.span(kind, **fields) if obs.enabled else NULL_SPAN):
        return (yield from body)


class _Outstanding:
    """Sender-side state of one unacknowledged reliable message."""

    __slots__ = ("msg", "attempts", "timeout")

    def __init__(self, msg: Message, timeout: float) -> None:
        self.msg = msg
        self.attempts = 0
        self.timeout = timeout


class ActiveMessageLayer:
    """One messaging endpoint set spanning all nodes of a cluster."""

    def __init__(self, cluster, network: Optional[Network] = None,
                 stack_overhead: Optional[float] = None,
                 name: str = "am") -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.network = network if network is not None else cluster.network
        if self.network is None:
            raise MessagingError("active messages need a network (SMP has none)")
        self.name = name
        self.stack_overhead = (stack_overhead if stack_overhead is not None
                               else cluster.params.msg_stack_overhead())
        self._nodes = cluster.nodes
        self._handlers: Dict[int, Dict[str, Handler]] = {
            n: {} for n in range(cluster.n_nodes)}
        #: node -> delivered messages its server has not taken yet
        self._inboxes: Dict[int, Deque[Message]] = {}
        self._tokens = itertools.count(1)
        self._pending: Dict[int, _PendingCall] = {}
        # kind-prefix -> per-message stack overhead; lets a "separate stack"
        # channel (native DSM deployment) coexist with the cheaper coalesced
        # HAMSTER channel on the same wire (see repro.msg.coalesce).
        self._channel_overhead: Dict[str, float] = {}
        #: kind -> sender- / receiver-side cost per message (network +
        #: channel stack); set_channel_overhead clears both
        self._send_costs: Dict[str, float] = {}
        self._recv_costs: Dict[str, float] = {}
        # ------------------------------------------------ reliable mode
        # None -> perfect-network fast path: no acks, no timers, no state.
        self._reliable: Optional[RetryPolicy] = None
        self._outstanding: Dict[int, _Outstanding] = {}
        self._on_fail: Dict[int, Callable[[BaseException], None]] = {}
        self._seen: Dict[int, Set[int]] = {}
        self._seen_order: Dict[int, Deque[int]] = {}
        self._dead: Set[int] = set()
        # ---------------------------------------------------- statistics
        self.posts = 0
        self.rpcs = 0
        self.retries = 0
        self.acks_sent = 0
        self.dups_suppressed = 0
        self.delivery_failures = 0
        for node_id in range(cluster.n_nodes):
            self._start_server(node_id)

    # ------------------------------------------------------------- servers
    def _start_server(self, node_id: int) -> None:
        inbox: Deque[Message] = deque()
        # the server, while it waits on an empty inbox
        parked: List[SimProcess] = []
        schedule = self.engine.schedule

        def deliver(msg: Message) -> None:
            inbox.append(msg)
            if parked:
                schedule(0.0, parked.pop())  # the server's wake

        self._inboxes[node_id] = inbox
        self.network.register_delivery(node_id, deliver)
        SimProcess(self.engine, self._server_loop,
                   args=(node_id, inbox, parked),
                   name=f"{self.name}.srv{node_id}", daemon=True).start()

    def _server_loop(self, proc: SimProcess, node_id: int,
                     inbox: Deque[Message], parked: List[SimProcess]):
        # Generator-function body: the server runs stackless.
        # Per-message lookups are hoisted: the observer is installed before
        # the first dispatch, and the handler dict is updated in place.
        node = self._nodes[node_id]
        obs = self.engine.obs
        handlers = self._handlers[node_id]
        recv_cost = self._recv_costs
        while True:
            while not inbox:
                parked.append(proc)
                yield PARK
            msg = inbox.popleft()
            kind = msg.kind
            if kind == ACK_KIND:
                # Pure control frame: cancels the retransmission timer.
                self._outstanding.pop(msg.payload, None)
                self._on_fail.pop(msg.payload, None)
                continue
            # The handler span links back to the *sender's* span carried in
            # the message — the cross-rank edge of the causal tree. Work
            # here runs on this node's server, so it is attributed to this
            # node's resident rank, not the sender's.
            with (obs.span("am.handle", parent=msg.span_id, rank=node_id,
                           node=node_id, msg=kind, src=msg.src)
                  if obs.enabled else NULL_SPAN):
                # Receiver-side software cost: NIC/stack + AM dispatch.
                cost = recv_cost.get(kind)
                if cost is None:
                    cost = recv_cost[kind] = (
                        self.network.receiver_cpu_overhead()
                        + self._overhead_for(kind))
                yield node.cpu_cost(cost)
                if self._reliable is not None and not self._accept(node_id, msg):
                    continue  # duplicate: acked again above, handler skipped
                if msg.is_reply:
                    self._complete_rpc(msg)
                    continue
                handler = handlers.get(kind)
                if handler is None:
                    raise MessagingError(
                        f"node {node_id}: no handler for message kind {kind!r}")
                result = handler(msg)
                if type(result) is GeneratorType:
                    # Generator handler: run it inline on the server's
                    # process context, exactly like a plain call.
                    result = yield from result
                if result is not None and msg.rpc_token is not None:
                    yield from self.reply_g(msg, result.payload, result.size)

    def _complete_rpc(self, msg: Message) -> None:
        call = self._pending.pop(msg.rpc_token, None)
        if call is None:
            if self._reliable is not None:
                return  # duplicate reply that slipped past dedup: harmless
            raise MessagingError(f"reply for unknown rpc token {msg.rpc_token}")
        if call.req_id is not None:
            # A reply is an implicit ack of the request it answers.
            self._outstanding.pop(call.req_id, None)
            self._on_fail.pop(call.req_id, None)
        call.result = msg.payload
        call.done = True
        self.engine.schedule(0.0, call.caller)  # the caller's wake

    # ------------------------------------------------------------ reg / send
    def register(self, node_id: int, kind: str, handler: Handler) -> None:
        """Install ``handler`` for messages of ``kind`` arriving at ``node_id``."""
        self._handlers[node_id][kind] = handler

    def register_all(self, kind: str, handler_factory: Callable[[int], Handler]) -> None:
        """Install ``handler_factory(node_id)`` as the handler on every node."""
        for node_id in range(self.cluster.n_nodes):
            self.register(node_id, kind, handler_factory(node_id))

    def set_channel_overhead(self, kind_prefix: str, overhead: float) -> None:
        """Assign a per-message software overhead to all message kinds that
        start with ``kind_prefix`` (longest prefix wins)."""
        self._channel_overhead[kind_prefix] = overhead
        self._send_costs.clear()
        self._recv_costs.clear()

    def _overhead_for(self, kind: str) -> float:
        best: Optional[str] = None
        for prefix in self._channel_overhead:
            if kind.startswith(prefix) and (best is None or len(prefix) > len(best)):
                best = prefix
        if best is None:
            return self.stack_overhead
        return self._channel_overhead[best]

    def _send_cost(self, src: int, kind: str) -> float:
        """Book the sender's per-message software cost; returns the hold."""
        cost = self._send_costs.get(kind)
        if cost is None:
            cost = self._send_costs[kind] = (
                self.network.sender_cpu_overhead() + self._overhead_for(kind))
        return self._nodes[src].cpu_cost(cost)

    # A send's am.post / am.rpc span covers its whole body, so each send
    # hands its body back bare unless the observer is on.
    def post_g(self, src: int, dst: int, kind: str, payload: Any = None,
               size: int = 0):
        """One-way active message from ``src`` to ``dst``."""
        obs = self.engine.obs
        if obs.enabled:
            return _observed(obs, self._post_g(src, dst, kind, payload, size),
                             "am.post", msg=kind, src=src, dst=dst)
        return self._post_g(src, dst, kind, payload, size)

    def _post_g(self, src: int, dst: int, kind: str, payload: Any, size: int):
        if self._reliable is not None:
            self._check_dead(dst)
        self.posts += 1
        yield self._send_cost(src, kind)
        # Positional fields: keywords would cost more than the cost lookup.
        msg = Message(src, dst, kind, size + AM_HEADER_BYTES, payload)
        obs = self.engine.obs
        if obs.enabled:
            # Stamp the causal origin before any fault injector can
            # defer the transmission into engine context.
            msg.span_id = obs.current_id()
        self.network.send(msg)
        if self._reliable is not None:
            # An undeliverable one-way message means protocol state is
            # lost for good: abort with a typed error, never corrupt.
            self._track(msg, self.engine._report_exception)

    def rpc_g(self, src: int, dst: int, kind: str, payload: Any = None,
              size: int = 0):
        """Request/reply (``yield from`` it): parks the calling process
        until the handler at ``dst`` answers; returns the reply payload."""
        obs = self.engine.obs
        if obs.enabled:
            return _observed(obs, self._rpc_g(src, dst, kind, payload, size),
                             "am.rpc", msg=kind, src=src, dst=dst)
        return self._rpc_g(src, dst, kind, payload, size)

    def _rpc_g(self, src: int, dst: int, kind: str, payload: Any, size: int):
        caller = self.engine.require_process()
        if self._reliable is not None:
            self._check_dead(dst)
        token = next(self._tokens)
        call = _PendingCall(caller, dst)
        self._pending[token] = call
        self.rpcs += 1
        yield self._send_cost(src, kind)
        msg = Message(src, dst, kind, size + AM_HEADER_BYTES, payload)
        msg.rpc_token = token
        obs = self.engine.obs
        if obs.enabled:
            msg.span_id = obs.current_id()
        self.network.send(msg)
        if self._reliable is not None:
            call.req_id = msg.msg_id

            def fail(exc: BaseException) -> None:
                call.failed = exc
                self._pending.pop(token, None)
                call.caller.wake()

            self._track(msg, fail)
        # The reply-wait is the blocked share of the round trip — kept
        # as its own child span so critical-path attribution can split
        # protocol work from time spent parked.
        with (obs.span("am.wait", msg=kind, dst=dst)
              if obs.enabled else NULL_SPAN):
            while not call.done and call.failed is None:
                yield PARK
        if call.failed is not None:
            raise call.failed
        return call.result

    def reply_g(self, request: Message, payload: Any = None, size: int = 0):
        """Answer an RPC ``request`` (``yield from`` it): immediately from
        its handler, or later from any process on the handling node —
        deferred grant."""
        if request.rpc_token is None:
            raise MessagingError("reply to a message that is not an rpc")
        yield self._send_cost(request.dst, request.kind)
        msg = Message(request.dst, request.src, "__reply__",
                      size + AM_HEADER_BYTES, payload)
        msg.rpc_token = request.rpc_token
        msg.is_reply = True
        obs = self.engine.obs
        if obs.enabled:
            msg.span_id = obs.current_id()
        self.network.send(msg)
        if self._reliable is not None and request.src not in self._dead:
            self._track(msg, self.engine._report_exception)

    # ------------------------------------------------------- reliable mode
    @property
    def reliable(self) -> bool:
        return self._reliable is not None

    def enable_reliability(self, policy: Optional[RetryPolicy] = None) -> RetryPolicy:
        """Arm acknowledged delivery, retransmission, and duplicate
        suppression. Idempotent; returns the active policy."""
        if self._reliable is None:
            self._reliable = policy if policy is not None else RetryPolicy()
        return self._reliable

    def _check_dead(self, dst: int) -> None:
        """Reliable mode: refuse traffic to a node declared dead."""
        if dst in self._dead:
            raise NodeFailedError(dst, "refusing to message a failed node")

    def mark_node_failed(self, node: int,
                         exc: Optional[BaseException] = None) -> None:
        """Failure-detector hook: declare ``node`` dead. Pending RPCs to it
        fail with :class:`NodeFailedError`; retransmissions to it stop; new
        traffic to it is refused at the send site."""
        if node in self._dead:
            return
        self._dead.add(node)
        for msg_id, rec in list(self._outstanding.items()):
            if rec.msg.dst == node:
                self._outstanding.pop(msg_id, None)
                self._on_fail.pop(msg_id, None)
        failure = exc if exc is not None else NodeFailedError(node)
        for token, call in list(self._pending.items()):
            if call.dst == node:
                self._pending.pop(token, None)
                call.failed = failure
                call.caller.wake()

    def failed_nodes(self) -> Set[int]:
        return set(self._dead)

    def _track(self, msg: Message, on_fail: Callable[[BaseException], None]) -> None:
        """Register ``msg`` for retransmission until acked (engine-event
        driven — never blocks the sending process)."""
        assert msg.msg_id is not None
        policy = self._reliable
        rec = _Outstanding(msg, policy.timeout)
        self._outstanding[msg.msg_id] = rec
        self._on_fail[msg.msg_id] = on_fail
        self.engine.schedule(rec.timeout,
                             lambda mid=msg.msg_id: self._retransmit(mid))

    def _retransmit(self, msg_id: int) -> None:
        rec = self._outstanding.get(msg_id)
        if rec is None:
            return  # acked (or cancelled) in the meantime
        policy = self._reliable
        if rec.msg.dst in self._dead:
            self._outstanding.pop(msg_id, None)
            self._on_fail.pop(msg_id, None)
            return  # mark_node_failed already surfaced the failure
        if rec.attempts >= policy.max_retries:
            self._outstanding.pop(msg_id, None)
            on_fail = self._on_fail.pop(msg_id)
            self.delivery_failures += 1
            if self.engine.trace.enabled:
                self.engine.trace.emit("am.giveup", msg_kind=rec.msg.kind,
                                       dst=rec.msg.dst, msg_id=msg_id,
                                       attempts=rec.attempts)
            on_fail(TimeoutError(
                f"message {rec.msg.kind!r} to node {rec.msg.dst} undelivered "
                f"after {rec.attempts + 1} attempts"))
            return
        rec.attempts += 1
        rec.timeout *= policy.backoff
        self.retries += 1
        if self.engine.trace.enabled:
            self.engine.trace.emit("am.retry", msg_kind=rec.msg.kind,
                                   dst=rec.msg.dst, msg_id=msg_id,
                                   attempt=rec.attempts)
        self.network.send(rec.msg)
        self.engine.schedule(rec.timeout,
                             lambda mid=msg_id: self._retransmit(mid))

    def _accept(self, node_id: int, msg: Message) -> bool:
        """Ack ``msg`` and decide whether its handler should run (False for
        duplicates — retransmissions and wire dups alike)."""
        self.acks_sent += 1
        self.network.send(Message(src=node_id, dst=msg.src, kind=ACK_KIND,
                                  size=ACK_WIRE_BYTES, payload=msg.msg_id))
        seen = self._seen.setdefault(node_id, set())
        if msg.msg_id in seen:
            self.dups_suppressed += 1
            if self.engine.trace.enabled:
                self.engine.trace.emit("am.dup", node=node_id,
                                       msg_kind=msg.kind, msg_id=msg.msg_id)
            return False
        seen.add(msg.msg_id)
        order = self._seen_order.setdefault(node_id, deque())
        order.append(msg.msg_id)
        if len(order) > SEEN_WINDOW:
            seen.discard(order.popleft())
        return True
