"""Cluster Control module (§4.2).

Manages cluster configuration: node identification, node-parameter queries,
and the simple messaging layer used for initialization — which HAMSTER also
exposes to the user for external messaging (the coalesced channel of §3.3).
Unlike the other modules, Cluster Control also serves the *other modules*:
the messaging fabric it owns carries DSM, lock, and forwarding traffic.

Cluster Control additionally owns **failure detection** (S17): a
:class:`FailureDetector` runs one heartbeat process per node plus a
suspect/confirm protocol on a monitor node. Liveness is queryable through
:meth:`ClusterControl.node_alive` / :meth:`ClusterControl.suspected_nodes` /
:meth:`ClusterControl.failed_nodes`, and every detector transition feeds the
``cluster`` :class:`~repro.core.monitoring.ModuleStats` — so external
monitors observe suspects and failures through the ordinary §4.3 hooks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.monitoring import ModuleStats
from repro.errors import ConfigurationError, MessagingError, NodeFailedError
from repro.msg.active_messages import Reply
from repro.msg.coalesce import MessagingFabric
from repro.sim.process import SimProcess
from repro.sim.resources import SimQueue

__all__ = ["ClusterControl", "FailureDetector"]


class FailureDetector:
    """Heartbeat-based liveness tracking with suspect/confirm semantics.

    Every node runs a daemon heartbeat process that beats once per
    ``interval`` toward a monitor node. Heartbeats are tiny out-of-band
    control frames: they pay wire latency (and are subject to the active
    fault plan's losses, partitions, and crashes) but charge no CPU and do
    not contend with application traffic — so attaching a detector never
    perturbs application timing.

    The monitor marks a node **suspected** after ``suspect_after`` silent
    intervals and **confirmed failed** after ``confirm_after``; a suspect
    that beats again is cleared (transient loss or a quick restart), a
    confirmation is final. On confirmation the detector tells the messaging
    layer (pending RPCs to the node fail typed) and, with
    ``abort_on_confirm``, aborts the whole run with
    :class:`~repro.errors.NodeFailedError` — a crash is *reported*, never a
    hang.

    The detector shuts itself down when the application finishes, and also
    when the simulation goes quiet (no non-detector events at all for
    ``quiet_ticks`` checks) — so a run that deadlocks for application
    reasons still drains to the ordinary ``DeadlockError`` instead of being
    kept alive forever by heartbeat traffic.
    """

    def __init__(self, hamster, interval: float = 2e-3,
                 suspect_after: int = 3, confirm_after: int = 8,
                 abort_on_confirm: bool = True, monitor_node: int = 0,
                 quiet_ticks: int = 5) -> None:
        if interval <= 0:
            raise ConfigurationError("heartbeat interval must be positive")
        if not (0 < suspect_after < confirm_after):
            raise ConfigurationError(
                "need 0 < suspect_after < confirm_after heartbeat intervals")
        self.hamster = hamster
        self.engine = hamster.engine
        self.cluster = hamster.cluster
        self.network = hamster.cluster.network
        if self.network is None:
            raise ConfigurationError(
                "failure detection needs a networked platform (SMP nodes "
                "cannot lose heartbeats)")
        self.stats: ModuleStats = hamster.cluster_ctl.stats
        self.interval = interval
        self.suspect_after = suspect_after
        self.confirm_after = confirm_after
        self.abort_on_confirm = abort_on_confirm
        self.monitor_node = monitor_node
        self.quiet_ticks = quiet_ticks
        n = self.cluster.n_nodes
        self._last_seen: List[float] = [0.0] * n
        self._suspected: set = set()
        self._confirmed: set = set()
        self._senders: List[SimProcess] = []
        self._in_flight = 0
        self._quiet = 0
        self._stopped = False
        self.started = False

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "FailureDetector":
        """Launch the per-node heartbeat processes and the monitor tick.
        Call from launcher context, before the SPMD run."""
        if self.started:
            return self
        self.started = True
        for node_id in range(self.cluster.n_nodes):
            if node_id == self.monitor_node:
                continue
            proc = SimProcess(self.engine, self._sender, args=(node_id,),
                              name=f"hb.n{node_id}", daemon=True)
            proc.start()
            self._senders.append(proc)
        self.engine.schedule(self.interval, self._tick)
        return self

    def stop(self) -> None:
        """Stop beating and checking; parked senders exit at their next
        wakeup, letting the event queue drain naturally."""
        self._stopped = True

    # ------------------------------------------------------------ heartbeat
    def _sender(self, proc: SimProcess, node_id: int):
        # Generator body: stackless, so a 1024-node detector costs 1023
        # frames, not 1023 OS threads.
        while not self._stopped:
            yield self.interval
            if self._stopped:
                return
            self._beat(node_id)

    def _beat(self, node_id: int) -> None:
        self.stats.incr("heartbeats_sent")
        faults = getattr(self.network, "faults", None)
        now = self.engine.now
        if faults is not None and faults.heartbeat_lost(
                node_id, self.monitor_node, now):
            self.stats.incr("heartbeats_lost")
            return
        self._in_flight += 1
        self.engine.schedule(self.network.latency,
                             lambda n=node_id: self._deliver(n))

    def _deliver(self, node_id: int) -> None:
        self._in_flight -= 1
        self._last_seen[node_id] = self.engine.now
        if node_id in self._suspected:
            self._suspected.discard(node_id)
            self.stats.incr("nodes_recovered")
            if self.engine.trace.enabled:
                self.engine.trace.emit("hb.recover", node=node_id)

    # -------------------------------------------------------------- monitor
    def _infra_pending(self) -> int:
        """Events in the engine queue that belong to the detector itself:
        one parked hold per live sender plus in-flight heartbeat frames.
        (The tick's own event has already been popped when this runs.)"""
        return sum(1 for p in self._senders if p.alive) + self._in_flight

    def _tick(self) -> None:
        if self._stopped:
            return
        engine = self.engine
        now = engine.now
        for node_id in range(self.cluster.n_nodes):
            if node_id == self.monitor_node or node_id in self._confirmed:
                continue
            age = now - self._last_seen[node_id]
            if age > self.confirm_after * self.interval:
                self._confirm(node_id, now)
            elif (age > self.suspect_after * self.interval
                  and node_id not in self._suspected):
                self._suspected.add(node_id)
                self.stats.incr("nodes_suspected")
                if engine.trace.enabled:
                    engine.trace.emit("hb.suspect", node=node_id, silent_for=age)
        if self._stopped:
            return  # _confirm aborted the run
        # -------------------------------------------------- self-shutdown
        app_alive = any(p.alive and not p.daemon for p in engine._processes)
        if not app_alive:
            self.stop()
            return
        if len(engine._queue) <= self._infra_pending():
            self._quiet += 1
            if self._quiet >= self.quiet_ticks:
                self.stop()  # app is wedged; let DeadlockError surface
                return
        else:
            self._quiet = 0
        engine.schedule(self.interval, self._tick)

    def _confirm(self, node_id: int, now: float) -> None:
        self._suspected.discard(node_id)
        self._confirmed.add(node_id)
        self.stats.incr("nodes_failed")
        if self.engine.trace.enabled:
            self.engine.trace.emit("hb.confirm", node=node_id)
        exc = NodeFailedError(node_id, "heartbeats stopped", detected_at=now)
        fabric = self.hamster.fabric
        if fabric is not None:
            fabric.layer.mark_node_failed(node_id, exc)
        if self.abort_on_confirm:
            self.stop()
            self.engine._report_exception(exc)

    # -------------------------------------------------------------- queries
    def alive(self, node_id: int) -> bool:
        return node_id not in self._confirmed

    def suspected(self) -> List[int]:
        return sorted(self._suspected)

    def confirmed(self) -> List[int]:
        return sorted(self._confirmed)

    def status(self) -> Dict[str, Any]:
        return {"suspected": self.suspected(), "failed": self.confirmed(),
                "interval": self.interval,
                "heartbeats_sent": self.stats.query("heartbeats_sent"),
                "heartbeats_lost": self.stats.query("heartbeats_lost")}


class ClusterControl:
    """Node identity, configuration queries, and user messaging."""

    def __init__(self, hamster) -> None:
        self._h = hamster
        self.dsm = hamster.dsm
        self.cluster = hamster.cluster
        self.fabric: Optional[MessagingFabric] = hamster.fabric
        self.stats = ModuleStats("cluster")
        self.detector: Optional[FailureDetector] = None
        self._user_queues: Dict[int, SimQueue] = {}
        self._registry: Dict[str, Any] = {}  # rank-0-hosted name service
        if self.fabric is not None:
            chan = self.fabric.channel("cc")
            chan.register_all("usermsg", lambda nid: self._h_usermsg)
            chan.register_all("reg.put", lambda nid: self._h_reg_put)
            chan.register_all("reg.get", lambda nid: self._h_reg_get)
            self._chan = chan
        else:
            self._chan = None

    # -------------------------------------------------------------- identity
    def my_node(self) -> int:
        """Cluster node hosting the calling task."""
        return self._h.engine.kernel(self.my_node_g())

    def my_node_g(self):
        """Generator kernel of :meth:`my_node` (``yield from`` it)."""
        yield self._h.call_cost()
        return self.dsm.node_of(self.dsm.current_rank())

    def n_nodes(self) -> int:
        return self._h.engine.kernel(self.n_nodes_g())

    def n_nodes_g(self):
        """Generator kernel of :meth:`n_nodes` (``yield from`` it)."""
        yield self._h.call_cost()
        return self.cluster.n_nodes

    def node_params_g(self, node_id: Optional[int] = None):
        """Query a node's parameters (CPU count, clock, interconnect kind)."""
        yield self._h.call_cost()
        if node_id is None:
            node_id = yield from self.my_node_g()
        node = self.cluster.node(node_id)
        self.stats.incr("param_queries")
        return {
            "node_id": node.node_id,
            "n_cpus": node.n_cpus,
            "cpu_hz": self._h.params.cpu_hz,
            "page_size": self._h.params.page_size,
            "interconnect": self.cluster.kind,
            "dsm": self.dsm.kind,
        }

    # ------------------------------------------------------ failure detection
    def start_failure_detection(self, interval: float = 2e-3,
                                suspect_after: int = 3,
                                confirm_after: int = 8,
                                abort_on_confirm: bool = True,
                                monitor_node: int = 0) -> FailureDetector:
        """Attach and start a :class:`FailureDetector` (idempotent)."""
        if self.detector is None:
            self.detector = FailureDetector(
                self._h, interval=interval, suspect_after=suspect_after,
                confirm_after=confirm_after,
                abort_on_confirm=abort_on_confirm,
                monitor_node=monitor_node)
            self.detector.start()
        return self.detector

    def node_alive(self, node_id: int) -> bool:
        """Liveness query: ``False`` only for confirmed-failed nodes.

        Without a detector every node is presumed alive (the paper's
        healthy-cluster assumption)."""
        if not (0 <= node_id < self.cluster.n_nodes):
            raise ConfigurationError(f"node {node_id} out of range")
        return self.detector is None or self.detector.alive(node_id)

    def suspected_nodes(self) -> List[int]:
        return [] if self.detector is None else self.detector.suspected()

    def failed_nodes(self) -> List[int]:
        return [] if self.detector is None else self.detector.confirmed()

    # --------------------------------------------------------- user messaging
    def _user_queue(self, rank: int) -> SimQueue:
        if rank not in self._user_queues:
            self._user_queues[rank] = SimQueue(self._h.engine, name=f"cc.user{rank}")
        return self._user_queues[rank]

    def send_msg_g(self, dst_rank: int, payload: Any, size: int = 64):
        """External user message to another rank over the unified channel."""
        yield self._h.call_cost()
        self.stats.incr("user_msgs_sent")
        if not (0 <= dst_rank < self.dsm.n_procs):
            raise MessagingError(f"rank {dst_rank} out of range")
        src_rank = self.dsm.current_rank()
        if self._chan is None or self.dsm.node_of(src_rank) == self.dsm.node_of(dst_rank):
            # Same node (or no network at all): in-memory delivery.
            self._user_queue(dst_rank).put((src_rank, payload))
            return
        yield from self._chan.post_g(
            self.dsm.node_of(src_rank), self.dsm.node_of(dst_rank),
            "usermsg", payload={"dst": dst_rank, "src": src_rank,
                                "data": payload}, size=size)

    def recv_msg_g(self):
        """Blocking receive of the next user message: ``(src_rank, payload)``."""
        yield self._h.call_cost()
        self.stats.incr("user_msgs_received")
        return (yield from self._user_queue(self.dsm.current_rank()).get_g())

    def _h_usermsg(self, msg) -> None:
        self._user_queue(msg.payload["dst"]).put(
            (msg.payload["src"], msg.payload["data"]))
        return None

    # ----------------------------------------------------------- name service
    def publish_g(self, key: str, value: Any):
        """Publish a key/value pair visible cluster-wide (initialization
        helper — e.g. TreadMarks allocation-data distribution)."""
        yield self._h.call_cost()
        self.stats.incr("registry_puts")
        rank = self.dsm.current_rank()
        if self._chan is None or self.dsm.node_of(rank) == self.dsm.node_of(0):
            self._registry[key] = value
            return
        yield from self._chan.rpc_g(
            self.dsm.node_of(rank), self.dsm.node_of(0), "reg.put",
            payload={"key": key, "value": value}, size=64)

    def lookup_g(self, key: str):
        """Fetch a published value (raises if missing)."""
        yield self._h.call_cost()
        self.stats.incr("registry_gets")
        rank = self.dsm.current_rank()
        if self._chan is None or self.dsm.node_of(rank) == self.dsm.node_of(0):
            return self._lookup_local(key)
        return (yield from self._chan.rpc_g(
            self.dsm.node_of(rank), self.dsm.node_of(0),
            "reg.get", payload=key, size=32))

    def _lookup_local(self, key: str) -> Any:
        try:
            return self._registry[key]
        except KeyError:
            raise ConfigurationError(f"no published value for key {key!r}") from None

    def _h_reg_put(self, msg) -> Reply:
        self._registry[msg.payload["key"]] = msg.payload["value"]
        return Reply(payload=True, size=8)

    def _h_reg_get(self, msg) -> Reply:
        return Reply(payload=self._lookup_local(msg.payload), size=64)
