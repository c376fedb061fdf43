"""Hardware-coherent shared memory (the tightly coupled platform, §3.2).

All ranks live on one UMA node. There is one physical copy of every region;
accesses charge memory-bus traffic (the bus serializes, so concurrent ranks
contend — the effect that costs the SMP the MatMult comparison in Figure 4).
Coherence is by hardware: no twins, diffs, or invalidations, and consistency
operations are (almost) free — the native model is processor consistency
(stronger than anything the programming models require, §4.5).

Synchronization maps to native OS primitives (futex-class costs).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dsm.base import GlobalMemorySystem, Run
from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.memory.address_space import Region
from repro.memory.layout import Distribution, single_home
from repro.sim.resources import SimBarrier, SimLock

__all__ = ["SmpMemorySystem"]


class SmpMemorySystem(GlobalMemorySystem):
    """UMA shared memory with hardware cache coherence."""

    kind = "smp"

    def __init__(self, cluster: Cluster, n_procs: Optional[int] = None,
                 placement: Optional[Sequence[int]] = None) -> None:
        if cluster.n_nodes != 1:
            raise ConfigurationError(
                "SmpMemorySystem runs on a single UMA node "
                f"(cluster has {cluster.n_nodes})")
        if n_procs is None:
            n_procs = cluster.node(0).n_cpus
        if n_procs > cluster.node(0).n_cpus:
            raise ConfigurationError(
                f"{n_procs} ranks exceed the node's {cluster.node(0).n_cpus} CPUs")
        super().__init__(cluster, n_procs=n_procs, placement=placement)
        self._buffers: Dict[int, np.ndarray] = {}   # region_id -> bytes
        self._locks: Dict[int, SimLock] = {}
        self._barrier = SimBarrier(self.engine, self.n_procs, name="smp.barrier")

    # -------------------------------------------------------------- regions
    def default_distribution(self) -> Distribution:
        return single_home(0)  # placement is moot on UMA; everything is local

    def _setup_region(self, region: Region, distribution: Distribution) -> None:
        # Distribution annotations are accepted (capability: ignored on UMA —
        # there is one memory), matching HAMSTER's "as long as the subsystem
        # can accommodate the parameters" contract.
        self._buffers[region.region_id] = np.zeros(region.size, dtype=np.uint8)

    def _teardown_region(self, region: Region) -> None:
        self._buffers.pop(region.region_id, None)

    # --------------------------------------------------------------- access
    def _access_g(self, rank: int, region: Region, runs: List[Run],
                  write: bool):
        # UMA is the degenerate span case: every access is one local span
        # with no protection states to expand at, so the whole run list
        # collapses to a single bulk bus charge.
        node = self.cluster.node(self.node_of(rank))
        nbytes = sum(ln for _, ln in runs)
        yield node.bus.touch_cost(nbytes)  # serialized on the shared bus
        if self.engine.sharing.enabled:
            # No protocol events on UMA (hardware coherence), but per-page
            # access counts and write ranges still locate bus hot spots.
            self._sharing_record_access(rank, region, runs, write)
        return self._buffers[region.region_id]

    # ------------------------------------------------------------------ sync
    def _lock_for(self, lock_id: int) -> SimLock:
        if lock_id not in self._locks:
            self._locks[lock_id] = SimLock(self.engine, name=f"smp.lock{lock_id}")
        return self._locks[lock_id]

    def lock_g(self, lock_id: int):
        rank = self.current_rank()
        node = self.cluster.node(self.node_of(rank))
        yield node.cpu_cost(self.params.os_sync_cost)
        t0 = self.engine.now
        yield from self._lock_for(lock_id).acquire_g()
        st = self.rank_stats[rank]
        st.lock_acquires += 1
        st.lock_wait_time += self.engine.now - t0

    def try_lock_g(self, lock_id: int):
        rank = self.current_rank()
        node = self.cluster.node(self.node_of(rank))
        yield node.cpu_cost(self.params.os_sync_cost)
        lk = self._lock_for(lock_id)
        if lk.locked:
            return False
        yield from lk.acquire_g()
        self.rank_stats[rank].lock_acquires += 1
        return True

    def unlock_g(self, lock_id: int):
        rank = self.current_rank()
        node = self.cluster.node(self.node_of(rank))
        yield node.cpu_cost(self.params.os_sync_cost)
        self._lock_for(lock_id).release()
        self.rank_stats[rank].lock_releases += 1

    def barrier_g(self):
        rank = self.current_rank()
        node = self.cluster.node(self.node_of(rank))
        yield node.cpu_cost(self.params.os_sync_cost)
        st = self.rank_stats[rank]
        st.barriers += 1
        t0 = self.engine.now
        yield from self._barrier.wait_g()
        st.barrier_wait_time += self.engine.now - t0

    def home_of(self, page: int, rank: Optional[int] = None) -> int:
        """Every page is local on UMA; report rank 0 as the nominal home."""
        return 0

    # ----------------------------------------------------------- properties
    def consistency_model(self) -> str:
        return "processor"  # hardware model of the SMP (§4.5)

    def capabilities(self) -> frozenset:
        return frozenset({
            "hardware_coherence",
            "uniform_access",
            "consistency:processor",
            "consistency:release",   # weaker models map onto stronger (§4.5)
            "consistency:scope",
            "consistency:entry",
            "native_threads",
        })

    # sync_consistency: hardware keeps caches coherent; a memory fence is
    # ~free at this cost-model granularity — the base no-op kernel applies.
