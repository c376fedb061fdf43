"""Assembled simulated machine.

A :class:`Cluster` bundles the engine, the nodes, and the interconnect
fabric for one experiment. Three canonical shapes mirror the paper's three
platforms:

* ``Cluster.smp(n_cpus)`` — one hardware-coherent node with ``n_cpus`` CPUs
  sharing one memory bus (no network).
* ``Cluster.beowulf(n_nodes)`` — ``n_nodes`` nodes over switched Fast
  Ethernet (the SW-DSM platform).
* ``Cluster.sci_cluster(n_nodes)`` — ``n_nodes`` nodes over SCI, with remote
  memory transactions available (the hybrid-DSM platform).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.errors import ConfigurationError
from repro.machine.ethernet import EthernetNetwork
from repro.machine.interconnect import Network
from repro.machine.node import Node
from repro.machine.params import MachineParams, PAPER_PLATFORM
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.machine.sci import SciInterconnect

__all__ = ["Cluster"]


class Cluster:
    """The simulated hardware for one experiment."""

    def __init__(self, engine: Engine, nodes: List[Node],
                 network: Optional[Network] = None,
                 params: MachineParams = PAPER_PLATFORM,
                 kind: str = "custom") -> None:
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        self.engine = engine
        self.nodes = nodes
        self.network = network
        self.params = params
        self.kind = kind

    # ------------------------------------------------------------ factories
    @classmethod
    def smp(cls, engine: Engine, n_cpus: int = 2,
            params: MachineParams = PAPER_PLATFORM) -> "Cluster":
        """One UMA node; ``n_cpus`` CPUs contending for one memory bus."""
        if n_cpus < 1:
            raise ConfigurationError("SMP needs >= 1 CPU")
        node = Node(engine, 0, params, n_cpus=n_cpus)
        return cls(engine, [node], network=None, params=params, kind="smp")

    @classmethod
    def beowulf(cls, engine: Engine, n_nodes: int = 4,
                params: MachineParams = PAPER_PLATFORM) -> "Cluster":
        """Ethernet-connected cluster, one process-CPU used per node (§5.1)."""
        if n_nodes < 1:
            raise ConfigurationError("cluster needs >= 1 node")
        nodes = [Node(engine, i, params, n_cpus=1) for i in range(n_nodes)]
        net = EthernetNetwork(engine, n_nodes, params)
        return cls(engine, nodes, network=net, params=params, kind="beowulf")

    @classmethod
    def sci_cluster(cls, engine: Engine, n_nodes: int = 4,
                    params: MachineParams = PAPER_PLATFORM) -> "Cluster":
        """SCI-connected cluster with remote-memory transactions."""
        if n_nodes < 1:
            raise ConfigurationError("cluster needs >= 1 node")
        from repro.machine.sci import SciInterconnect

        nodes = [Node(engine, i, params, n_cpus=1) for i in range(n_nodes)]
        net = SciInterconnect(engine, n_nodes, params)
        return cls(engine, nodes, network=net, params=params, kind="sci")

    # ------------------------------------------------------------- accessors
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except IndexError:
            raise ConfigurationError(
                f"node id {node_id} out of range [0, {self.n_nodes})") from None

    @property
    def sci(self) -> "SciInterconnect":
        """The SCI fabric; raises if this cluster has none."""
        if self.has_sci():
            return self.network
        raise ConfigurationError(f"cluster kind {self.kind!r} has no SCI fabric")

    def has_sci(self) -> bool:
        from repro.machine.sci import SciInterconnect

        return isinstance(self.network, SciInterconnect)
