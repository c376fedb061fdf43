"""Hybrid DSM protocol: software management, hardware data path.

Every page physically exists exactly once, in its home rank's node memory;
the union of the homes *is* the global memory (one backing buffer per region
in the simulation). An access from the home rank is a local memory access;
from any other rank it becomes SCI remote transactions — after a one-time
software mapping step (:mod:`repro.dsm.scivm.mapping`).

Consistency is relaxed (release consistency): posted remote writes sit in
the adapter's write buffer until a consistency point (lock release, barrier,
explicit flush) drains it. Since there is no remote caching in this model,
no invalidations are ever needed — the consistency cost is a (cheap) flush.

Locks and barriers ride on SCI remote atomic transactions against node 0 /
the lock's manager node, reproducing the much lower synchronization times
the paper observes for the hybrid system (Fig. 3 "LU bar").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dsm.base import GlobalMemorySystem, Run
from repro.dsm.scivm.mapping import RemoteMapper
from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.memory.address_space import Region
from repro.memory.layout import Distribution
from repro.sim.resources import SimBarrier, SimLock

__all__ = ["SciVmSystem"]


class SciVmSystem(GlobalMemorySystem):
    """SCI-VM-style hybrid DSM."""

    kind = "scivm"

    def __init__(self, cluster: Cluster, fabric=None,
                 n_procs: Optional[int] = None,
                 placement: Optional[Sequence[int]] = None,
                 att_entries: int = 16384) -> None:
        super().__init__(cluster, n_procs=n_procs, placement=placement)
        if not cluster.has_sci():
            raise ConfigurationError("SCI-VM needs an SCI interconnect")
        self.sci = cluster.sci
        # fabric accepted for interface symmetry (config/startup messaging
        # uses sockets in the real SCI-VM; all application data is hardware).
        self.fabric = fabric
        self._buffers: Dict[int, np.ndarray] = {}       # region_id -> memory
        self._home: Dict[int, int] = {}                 # page -> home rank
        self._lazy: Dict[int, Optional[int]] = {}       # first-touch pages
        self._mappers: List[RemoteMapper] = [
            RemoteMapper(r, att_entries) for r in range(self.n_procs)]
        self._locks: Dict[int, SimLock] = {}
        self._barrier = SimBarrier(self.engine, self.n_procs, name="scivm.barrier")

    # --------------------------------------------------------------- regions
    def _setup_region(self, region: Region, distribution: Distribution) -> None:
        self._buffers[region.region_id] = np.zeros(region.size, dtype=np.uint8)
        if distribution.lazy:
            self._lazy.update(dict.fromkeys(region.pages()))
        else:
            self._home.update(zip(region.pages(), distribution.assign(
                region.n_pages, self.n_procs)))

    def _teardown_region(self, region: Region) -> None:
        self._buffers.pop(region.region_id, None)
        for page in region.pages():
            self._home.pop(page, None)
            self._lazy.pop(page, None)
            for mapper in self._mappers:
                mapper.unmap(page)

    def home_of(self, page: int, rank: Optional[int] = None) -> int:
        h = self._home.get(page)
        if h is not None:
            return h
        if page not in self._lazy:
            raise ConfigurationError(f"page {page} is not globally allocated")
        # First touch: the distributed memory manager assigns the page to
        # the toucher (software management — one of the hybrid's "SW-DSM
        # like" aspects; the assignment itself is a metadata update).
        if rank is None:
            rank = self.current_rank()
        self._home[page] = rank
        del self._lazy[page]
        return rank

    # ---------------------------------------------------------------- access
    def _access_g(self, rank: int, region: Region, runs: List[Run],
                  write: bool):
        st = self.rank_stats[rank]
        local_bytes = 0
        # Per-page byte attribution: split each run at page boundaries.
        # Remote transactions stay per page chunk (that is how the hardware
        # issues them, and what the cost model charges); the span treatment
        # here is host-side only — resolved homes come from one dict probe
        # per page, falling back to the first-touch path on a miss (at the
        # page's turn: another task may first-touch it during a hold). Each
        # charge is booked by a bound cost method and yielded from here,
        # so one access is one generator frame.
        psize = self.space.page_size
        home_map = self._home
        placement = self.placement
        src_node = placement[rank]
        ensure_mapped = self._mappers[rank].ensure_mapped
        sci = self.sci
        map_cost = sci.map_cost
        txn_cost = sci.write_cost if write else sci.read_cost
        sharing = self.engine.sharing
        if sharing.enabled:
            self._sharing_record_access(rank, region, runs, write)
        for off, ln in runs:
            gaddr = region.gaddr + off
            end = gaddr + ln
            while gaddr < end:
                page = gaddr // psize
                stop = (page + 1) * psize
                chunk = (end if end < stop else stop) - gaddr
                home = home_map.get(page)
                if home is None:
                    home = self.home_of(page, rank)
                if home == rank:
                    local_bytes += chunk
                else:
                    if ensure_mapped(page):
                        yield map_cost(1)
                        st.pages_mapped += 1
                    if write:
                        st.remote_writes += 1
                    else:
                        st.remote_reads += 1
                    yield txn_cost(chunk, src_node, placement[home])
                    if sharing.enabled:
                        sharing.remote(rank, page, home, write, chunk,
                                       self.engine.now)
                gaddr += chunk
        if local_bytes:
            yield self.cluster.node(src_node).bus.touch_cost(local_bytes)
        return self._buffers[region.region_id]

    # ------------------------------------------------------------------ sync
    def _lock_for(self, lock_id: int) -> SimLock:
        if lock_id not in self._locks:
            self._locks[lock_id] = SimLock(self.engine, name=f"scivm.lock{lock_id}")
        return self._locks[lock_id]

    def lock_g(self, lock_id: int):
        rank = self.current_rank()
        st = self.rank_stats[rank]
        st.lock_acquires += 1
        t0 = self.engine.now
        # Ticket acquisition: one remote atomic against the lock's manager
        # node; contended waiters poll the grant word (one more read when
        # woken).
        manager_node = self.node_of(lock_id % self.n_procs)
        yield self.sci.atomic_cost(self.node_of(rank), manager_node)
        lk = self._lock_for(lock_id)
        contended = lk.locked
        yield from lk.acquire_g()
        if contended:
            yield self.sci.read_cost(8)
        st.lock_wait_time += self.engine.now - t0

    def try_lock_g(self, lock_id: int):
        rank = self.current_rank()
        # One compare&swap transaction either way.
        yield self.sci.atomic_cost()
        lk = self._lock_for(lock_id)
        if lk.locked:
            return False
        yield from lk.acquire_g()
        self.rank_stats[rank].lock_acquires += 1
        return True

    def unlock_g(self, lock_id: int):
        rank = self.current_rank()
        self.rank_stats[rank].lock_releases += 1
        # Release consistency: drain the posted-write buffer, then release.
        yield self.sci.params.sci_flush_cost
        yield self.sci.atomic_cost()
        self._lock_for(lock_id).release()

    def barrier_g(self):
        rank = self.current_rank()
        st = self.rank_stats[rank]
        st.barriers += 1
        t0 = self.engine.now
        sci = self.sci
        yield sci.params.sci_flush_cost
        yield sci.atomic_cost(self.node_of(rank), self.node_of(0))  # arrival
        yield from self._barrier.wait_g()
        yield sci.read_cost(8)   # observe the release word
        st.barrier_wait_time += self.engine.now - t0

    # ------------------------------------------------------------ consistency
    def sync_consistency_g(self):
        yield self.sci.params.sci_flush_cost   # drain the posted writes

    def consistency_model(self) -> str:
        return "release"

    def capabilities(self) -> frozenset:
        return frozenset({
            "hybrid_dsm",
            "hardware_data_path",
            "remote_put_get",
            "distribution:block",
            "distribution:cyclic",
            "distribution:single_home",
            "distribution:explicit",
            "distribution:first_touch",
            "consistency:release",
            "consistency:scope",     # stronger-than-needed mapping is fine
        })

    # ---------------------------------------------------------------- debug
