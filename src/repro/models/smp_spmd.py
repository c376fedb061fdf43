"""SMP/SPMD model (Table 2, row 2).

The SPMD API extended for multiprocessor nodes (§3.3's two-way SMP
integration): models oriented towards process parallelism treat the SMP's
CPUs as separate "nodes" using the startup/memory machinery of the SCI-VM,
while still letting tasks discover which peers are *co-located* so they can
exploit physically shared memory (node-local sub-barriers, cheap intra-node
data exchange).

Adds the node-topology calls, generator functions too, on top of the plain
SPMD surface.
"""

from __future__ import annotations

from repro.models.spmd import SpmdModel
from repro.sim.resources import SimBarrier

__all__ = ["SmpSpmdModel"]


class SmpSpmdModel(SpmdModel):
    """SPMD with SMP-node awareness."""

    MODEL_NAME = "SMP/SPMD model"
    CONSISTENCY = "scope"
    API_CALLS = SpmdModel.API_CALLS + (
        "spmd_local_peers", "spmd_is_local", "spmd_local_master",
        "spmd_local_barrier", "spmd_cpus_on_node",
    )

    def __init__(self, hamster) -> None:
        super().__init__(hamster)
        self._local_barriers: dict = {}

    def spmd_local_peers(self):
        """Ranks sharing the calling task's node (including itself)."""
        dsm = self.hamster.dsm
        me = dsm.node_of(dsm.current_rank())
        return [r for r in range(dsm.n_procs) if dsm.node_of(r) == me]
        yield  # unreachable

    def spmd_is_local(self, rank: int):
        """True when ``rank`` runs on the calling task's node — its memory
        is physically shared with ours."""
        dsm = self.hamster.dsm
        return dsm.node_of(rank) == dsm.node_of(dsm.current_rank())
        yield  # unreachable

    def spmd_local_master(self):
        """Lowest co-located rank (convention: performs node-level work)."""
        return (yield from self.spmd_local_peers())[0]

    def spmd_local_barrier(self):
        """Barrier among co-located ranks only — native OS synchronization,
        no network traffic."""
        peers = tuple((yield from self.spmd_local_peers()))
        if len(peers) == 1:
            return
        if peers not in self._local_barriers:
            self._local_barriers[peers] = SimBarrier(
                self.hamster.engine, len(peers), name=f"smp.local{peers[0]}")
        node = self.hamster.cluster.node(
            self.hamster.dsm.node_of(self.hamster.dsm.current_rank()))
        yield node.cpu_cost(self.hamster.params.os_sync_cost)
        yield from self._local_barriers[peers].wait_g()

    def spmd_cpus_on_node(self, node_id: int = -1):
        if node_id < 0:
            node_id = yield from self.hamster.cluster_ctl.my_node_g()
        params = yield from self.hamster.cluster_ctl.node_params_g(node_id)
        return params["n_cpus"]
