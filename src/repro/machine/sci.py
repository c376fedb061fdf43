"""Dolphin SCI system-area network.

SCI is the "shared memory cluster" interconnect of the paper (§3.2): it
exposes *remote memory read/write transactions* — a CPU load/store to a
mapped remote page becomes a hardware transaction, with no software protocol
on the data path. The hybrid DSM (:mod:`repro.dsm.scivm`) builds on this.

Two faces:

* :class:`SciInterconnect` is also a regular :class:`Network` (SCI carries
  message traffic too — HAMSTER's unified messaging uses it when present),
  with much lower latency and per-message software cost than TCP/Ethernet.
* The transaction costs (:meth:`read_cost`, :meth:`write_cost`,
  :meth:`atomic_cost`, :meth:`map_cost`) charge the *calling process*
  synchronously, exactly like a CPU stalling on a remote load: each books
  its counters and returns the hold (``yield sci.read_cost(n, src, dst)``).
  A write-buffer flush holds ``params.sci_flush_cost``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.machine.interconnect import Network
from repro.machine.params import MachineParams

__all__ = ["SciInterconnect"]


class SciInterconnect(Network):
    """SCI SAN: messaging + remote memory transactions."""

    def __init__(self, engine, n_nodes: int, params: MachineParams) -> None:
        super().__init__(engine, n_nodes)
        self.params = params
        self.latency = params.sci_write_latency  # messages ride posted writes
        self.bandwidth = params.sci_write_bandwidth
        self.framing_bytes = 16
        # Ring-hop latency table: hop_delay() reduces to one indexed load.
        # Each entry is the product the old code computed per call, so the
        # memoized cost is bit-identical; zero hops, or hops not modelled
        # (``sci_hop_latency == 0``), cost 0.0. Torus routing indexes the
        # same table (its worst-case hop count never exceeds N-1).
        lat = params.sci_hop_latency
        self._hop_cost: List[float] = [
            h * lat if h and lat > 0 else 0.0 for h in range(n_nodes)]
        self._torus_width = params.sci_torus_width
        self._torus_height = ((n_nodes + self._torus_width - 1)
                              // self._torus_width
                              if self._torus_width > 0 else 0)
        # ------------------------------------------------- statistics
        self.remote_reads = 0
        self.remote_writes = 0
        self.remote_read_bytes = 0
        self.remote_write_bytes = 0
        self.atomics = 0

    # SCI message-passing rides on remote writes into receive rings; the
    # software cost is tiny compared to a TCP stack traversal.
    def sender_cpu_overhead(self) -> float:
        return 1.2e-6

    def receiver_cpu_overhead(self) -> float:
        return 1.2e-6

    # ---------------------------------------------------------- transactions
    def hop_delay(self, src: Optional[int], dst: Optional[int]) -> float:
        """Topology-dependent latency component.

        Ring (default, ``sci_torus_width == 0``): SCI request packets travel
        ``(dst - src) mod N`` link hops forward around the ringlet (the
        response completes the loop, folded into the base latency).

        2D torus (``sci_torus_width == W > 0``, the large-cluster Dolphin
        arrangement): node ``i`` sits at ``(i mod W, i div W)``; requests use
        dimension-order routing on unidirectional ringlets, so the hop count
        is the sum of the per-dimension forward ring distances. This bounds
        the worst-case path by ``(W-1) + (H-1)`` instead of ``N-1`` — the
        property that keeps 1024-node SCI latencies flat.

        Zero when topology modelling is disabled or endpoints unknown."""
        if src is None or dst is None:
            return 0.0
        w = self._torus_width
        if w > 0:
            h = self._torus_height
            hops = ((dst % w - src % w) % w) + ((dst // w - src // w) % h)
            return self._hop_cost[hops]
        return self._hop_cost[(dst - src) % self.n_nodes]

    def read_cost(self, nbytes: int, src: Optional[int] = None,
                  dst: Optional[int] = None) -> float:
        """Book a read of ``nbytes`` from a remote node's memory; returns
        the hold (``yield sci.read_cost(n, src, dst)``). Reads stall the
        CPU for the full round trip."""
        if nbytes <= 0:
            return 0.0
        p = self.params
        self.remote_reads += 1
        self.remote_read_bytes += nbytes
        return (p.sci_read_latency + self.hop_delay(src, dst)
                + nbytes / p.sci_read_bandwidth)

    def remote_read_g(self, nbytes: int, src: Optional[int] = None,
                      dst: Optional[int] = None):
        """Generator form of :meth:`read_cost` (``yield from`` it)."""
        yield self.read_cost(nbytes, src, dst)

    def write_cost(self, nbytes: int, src: Optional[int] = None,
                   dst: Optional[int] = None) -> float:
        """Book a write of ``nbytes`` to remote memory; returns the hold.
        Posted writes are pipelined through the write buffer, so the
        visible latency is low and bulk streams run at the write
        bandwidth."""
        if nbytes <= 0:
            return 0.0
        p = self.params
        self.remote_writes += 1
        self.remote_write_bytes += nbytes
        return (p.sci_write_latency + self.hop_delay(src, dst)
                + nbytes / p.sci_write_bandwidth)

    def remote_write_g(self, nbytes: int, src: Optional[int] = None,
                       dst: Optional[int] = None):
        """Generator form of :meth:`write_cost` (``yield from`` it)."""
        yield self.write_cost(nbytes, src, dst)

    def atomic_cost(self, src: Optional[int] = None,
                    dst: Optional[int] = None) -> float:
        """Book one remote atomic transaction (fetch&inc: the lock and
        barrier substrate on SCI); returns the hold."""
        self.atomics += 1
        return self.params.sci_atomic_latency + self.hop_delay(src, dst)

    def map_cost(self, n_pages: int) -> float:
        """The one-time kernel cost of mapping ``n_pages`` remote pages
        into the local address space (the SCI-VM kernel component)."""
        return n_pages * self.params.sci_map_page_cost

    def reset_stats(self) -> None:
        super().reset_stats()
        self.remote_reads = 0
        self.remote_writes = 0
        self.remote_read_bytes = 0
        self.remote_write_bytes = 0
        self.atomics = 0
