"""Messaging-stack integration (§3.3).

In a *native* deployment, the SW-DSM system (JiaJia) runs its own socket
messaging stack, and a framework layered above it would run a second one —
both competing for the interconnect and each paying full per-message
software cost. HAMSTER instead *coalesces* the two into a single channel
that serves the DSM protocol, the HAMSTER modules, and user-level external
messaging alike.

:class:`MessagingFabric` models both arrangements on one
:class:`~repro.msg.active_messages.ActiveMessageLayer`:

* ``integrated=True`` (HAMSTER): every channel pays the cheaper
  ``msg_stack_overhead_integrated`` per message.
* ``integrated=False`` (native): each channel pays the stand-alone
  ``msg_stack_overhead_separate`` per message.

This difference is the mechanism behind Figure 2's negative overhead bars:
the HAMSTER per-call cost is partially or fully bought back by cheaper
messaging.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.msg.active_messages import ActiveMessageLayer, Handler

__all__ = ["Channel", "MessagingFabric"]


class Channel:
    """A named logical channel over the shared active-message layer.

    Kinds are namespaced with the channel name, so independent subsystems
    (DSM protocol, lock manager, thread forwarding, user messaging) cannot
    collide.
    """

    def __init__(self, fabric: "MessagingFabric", name: str) -> None:
        self.fabric = fabric
        self.name = name
        self.layer = fabric.layer
        self._prefix = name + "."

    def register(self, node_id: int, kind: str, handler: Handler) -> None:
        self.layer.register(node_id, self._prefix + kind, handler)

    def register_all(self, kind: str, handler_factory) -> None:
        for node_id in range(self.layer.cluster.n_nodes):
            self.layer.register(node_id, self._prefix + kind, handler_factory(node_id))

    def post_g(self, src: int, dst: int, kind: str, payload: Any = None,
               size: int = 0):
        return self.layer.post_g(src, dst, self._prefix + kind, payload, size)

    def rpc_g(self, src: int, dst: int, kind: str, payload: Any = None,
              size: int = 0):
        return self.layer.rpc_g(src, dst, self._prefix + kind, payload, size)

    def reply_g(self, request, payload: Any = None, size: int = 0):
        return self.layer.reply_g(request, payload, size)


class MessagingFabric:
    """All messaging channels of one deployment, integrated or separate."""

    def __init__(self, cluster, integrated: bool = True,
                 network: Optional[object] = None) -> None:
        params = cluster.params
        self.integrated = integrated
        default = (params.msg_stack_overhead_integrated if integrated
                   else params.msg_stack_overhead_separate)
        self.layer = ActiveMessageLayer(cluster, network=network,
                                        stack_overhead=default)
        self._channels: dict = {}

    def channel(self, name: str, overhead: Optional[float] = None) -> Channel:
        """Open (or fetch) the logical channel ``name``.

        ``overhead`` pins a specific per-message stack cost for this channel
        (used by tests and ablations); by default the channel inherits the
        fabric-wide integrated/separate cost.
        """
        if name not in self._channels:
            ch = Channel(self, name)
            if overhead is not None:
                self.layer.set_channel_overhead(name + ".", overhead)
            self._channels[name] = ch
        return self._channels[name]

    @property
    def messages_sent(self) -> int:
        return self.layer.network.messages_sent

    @property
    def bytes_sent(self) -> int:
        return self.layer.network.bytes_sent
