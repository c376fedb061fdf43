"""Command forwarding for distributed thread APIs (§5.2).

POSIX and Win32 thread routines must sometimes execute on the node where
the *target thread* lives (or, for creation, where the new thread should
run). HAMSTER deliberately omits a forwarding framework from its services;
instead it is built here — once — on top of the messaging primitives, and
shared by both thread models ("all communication uses some form of active
message present within the HAMSTER modules").

A command is a generator function (it may block: join, wait), and so is
:meth:`ForwardingService.invoke`. A command must not stall the target
node's message server, so every forwarded one runs in a transient
stackless worker task that answers with a deferred reply.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import ModelError
from repro.sim.process import SimProcess

__all__ = ["ForwardingService"]


class ForwardingService:
    """Execute named commands on a chosen rank, transparently local or
    remote."""

    def __init__(self, hamster, channel_name: str = "fwd") -> None:
        self.hamster = hamster
        self.dsm = hamster.dsm
        self._commands: Dict[str, Callable] = {}
        fabric = hamster.fabric
        self._chan = None
        if fabric is not None:
            self._chan = fabric.channel(channel_name)
            self._chan.register_all("cmd", lambda nid: self._h_cmd)

    def register(self, name: str, fn: Callable) -> None:
        """Register generator function ``fn(*args)`` as a forwardable
        command."""
        if name in self._commands:
            raise ModelError(f"forwarding command {name!r} already registered")
        self._commands[name] = fn

    def invoke(self, rank: int, name: str, *args: Any, bind: bool = False):
        """Run command ``name`` on ``rank``'s node and return its result
        (``yield from`` it).

        With ``bind=True`` the remote worker executes bound to ``rank``, so
        the command may itself use rank-contextual services (locks, shared
        memory) on the target's behalf.
        """
        fn = self._lookup(name)
        src_node = self.dsm.node_of(self.dsm.current_rank())
        dst_node = self.dsm.node_of(rank)
        if self._chan is None or src_node == dst_node:
            return (yield from fn(*args))
        return (yield from self._chan.rpc_g(
            src_node, dst_node, "cmd", payload={
                "name": name, "args": args, "bind": rank if bind else None},
            size=96))

    def _lookup(self, name: str) -> Callable:
        try:
            return self._commands[name]
        except KeyError:
            raise ModelError(f"unknown forwarding command {name!r}") from None

    def _h_cmd(self, msg) -> None:
        # Run the (possibly blocking) command in a transient worker so the
        # message server stays responsive; reply when it finishes.
        fn = self._lookup(msg.payload["name"])
        args = msg.payload["args"]
        bind_rank = msg.payload.get("bind")

        def worker(proc: SimProcess):
            if bind_rank is not None:
                self.dsm.bind_task(proc, bind_rank)
            try:
                result = yield from fn(*args)
            finally:
                if bind_rank is not None:
                    self.dsm.unbind_task(proc)
            yield from self._chan.reply_g(msg, payload=result, size=64)

        SimProcess(self.hamster.engine, worker, name=f"fwd.{msg.payload['name']}",
                   daemon=True).start()
        return None  # deferred reply
