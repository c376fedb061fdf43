"""Abstract global memory system — the architecture contract of §3.1.

A base architecture must provide, via this interface:

* **global allocation** (:meth:`GlobalMemorySystem.allocate` /
  :meth:`make_array`) with distribution annotations,
* **transparent access** (:meth:`access_runs`) — any task can read/write any
  global region; the substrate services protection faults and charges the
  corresponding costs,
* **synchronization** (:meth:`lock` / :meth:`unlock` / :meth:`barrier`)
  with the substrate's native consistency semantics attached,
* **consistency information and control** (:meth:`consistency_model`,
  :meth:`sync_consistency`),
* **capability probing** (:meth:`capabilities`) so the memory-management
  services can report what the subsystem supports,
* **statistics** (:meth:`stats` / :meth:`reset_stats`) feeding HAMSTER's
  monitoring services.

**Ranks vs nodes.** An SPMD job has ``n_procs`` *ranks*; each rank is placed
on a cluster *node*. On the Beowulf/SCI platforms the paper uses one rank per
node; on the SMP platform every rank shares node 0 (process parallelism on a
multiprocessor, §3.3). Tasks are bound to ranks with :meth:`bind_task`;
every access resolves the calling simulated process to its rank/node, which
is what lets application code use plain ``A[i, j]`` indexing with no
explicit placement plumbing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.machine.cluster import Cluster
from repro.memory.address_space import GlobalAddressSpace, Region
from repro.memory.allocator import GlobalAllocator
from repro.memory.layout import Distribution, cyclic
from repro.memory.shared_array import SharedArray

__all__ = ["GlobalMemorySystem", "AccessStats"]

Run = Tuple[int, int]


@dataclass
class AccessStats:
    """Per-rank access/protocol statistics (HAMSTER monitoring feed)."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    read_faults: int = 0
    write_faults: int = 0
    pages_fetched: int = 0
    twins_created: int = 0
    diffs_created: int = 0
    diff_bytes: int = 0
    write_notices_received: int = 0
    pages_invalidated: int = 0
    remote_reads: int = 0
    remote_writes: int = 0
    pages_mapped: int = 0
    lock_acquires: int = 0
    lock_releases: int = 0
    barriers: int = 0
    lock_wait_time: float = 0.0
    barrier_wait_time: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def reset(self) -> None:
        for k, f in self.__dataclass_fields__.items():
            setattr(self, k, 0.0 if f.type == "float" else 0)


class GlobalMemorySystem(ABC):
    """Base class for the three DSM substrates."""

    #: substrate identifier reported by capability queries
    kind: str = "abstract"

    def __init__(self, cluster: Cluster, n_procs: Optional[int] = None,
                 placement: Optional[Sequence[int]] = None) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.params = cluster.params
        self.n_procs = n_procs if n_procs is not None else cluster.n_nodes
        if self.n_procs < 1:
            raise ConfigurationError("need at least one rank")
        if placement is None:
            if cluster.n_nodes == 1:
                placement = [0] * self.n_procs
            elif self.n_procs <= cluster.n_nodes:
                placement = list(range(self.n_procs))
            else:
                placement = [r % cluster.n_nodes for r in range(self.n_procs)]
        self.placement = list(placement)
        if len(self.placement) != self.n_procs:
            raise ConfigurationError("placement must have one node per rank")
        for n in self.placement:
            cluster.node(n)  # validates
        self.space = GlobalAddressSpace(page_size=cluster.params.page_size)
        self.allocator = GlobalAllocator(self.space)
        self._task_rank: Dict[int, int] = {}  # SimProcess.pid -> rank
        self.rank_stats: List[AccessStats] = [AccessStats() for _ in range(self.n_procs)]
        self._arrays: Dict[int, SharedArray] = {}  # region_id -> array

    # ----------------------------------------------------------- task bind
    def bind_task(self, proc, rank: int) -> None:
        """Associate a simulated process with an SPMD rank."""
        if not (0 <= rank < self.n_procs):
            raise ConfigurationError(f"rank {rank} out of range [0, {self.n_procs})")
        self._task_rank[proc.pid] = rank

    def unbind_task(self, proc) -> None:
        self._task_rank.pop(proc.pid, None)

    def current_rank(self) -> int:
        proc = self.engine.require_process()
        try:
            return self._task_rank[proc.pid]
        except KeyError:
            raise SimulationError(
                f"{proc} is not bound to a rank (TaskMgmt/bind_task first)") from None

    def node_of(self, rank: int) -> int:
        return self.placement[rank]

    # ------------------------------------------------------------ allocate
    def allocate(self, nbytes: int, name: str = "",
                 distribution: Optional[Distribution] = None) -> Region:
        """Globally allocate ``nbytes`` of shared memory.

        Collectivity policy (whether all ranks must call this together)
        belongs to the programming-model layers, not here.
        """
        region = self.allocator.alloc(nbytes, name)
        self._setup_region(region, distribution or self.default_distribution())
        return region

    def make_array(self, shape: Sequence[int], dtype: Any = np.float64,
                   name: str = "",
                   distribution: Optional[Distribution] = None) -> SharedArray:
        """Allocate a region and wrap it in a typed :class:`SharedArray`."""
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize if shape else np.dtype(dtype).itemsize
        region = self.allocate(max(nbytes, 1), name=name, distribution=distribution)
        arr = SharedArray(self, region, shape, dtype, name=name)
        self._arrays[region.region_id] = arr
        return arr

    def free(self, region: Region) -> None:
        """Release a global region."""
        self._teardown_region(region)
        self._arrays.pop(region.region_id, None)
        self.allocator.free(region)

    def default_distribution(self) -> Distribution:
        return cyclic()

    # -------------------------------------------------------------- access
    # Every blocking operation of the contract is implemented ONCE, as a
    # generator kernel (the ``*_g`` method) following the yield-point
    # contract of :mod:`repro.sim.process`. The blocking method is a
    # one-line trampoline over the kernel, so thread-backed and stackless
    # processes execute identical protocol code.
    def access_runs(self, region: Region, runs: List[Run], write: bool) -> np.ndarray:
        """Service an access from the *current task* and return the buffer
        holding this rank's view of ``region``.

        Concrete substrates implement :meth:`_access_g`; this wrapper
        resolves the rank and maintains the common statistics.
        """
        return self.engine.kernel(self.access_runs_g(region, runs, write))

    def access_runs_g(self, region: Region, runs: List[Run], write: bool):
        """Generator kernel of :meth:`access_runs` (``yield from`` it)."""
        rank = self.current_rank()
        nbytes = sum(ln for _, ln in runs)
        st = self.rank_stats[rank]
        if write:
            st.writes += 1
            st.bytes_written += nbytes
        else:
            st.reads += 1
            st.bytes_read += nbytes
        return (yield from self._access_g(rank, region, runs, write))

    def lock(self, lock_id: int) -> None:
        """Acquire global lock ``lock_id`` with the substrate's acquire
        consistency semantics."""
        return self.engine.kernel(self.lock_g(lock_id))

    def unlock(self, lock_id: int) -> None:
        """Release global lock ``lock_id`` with release semantics."""
        return self.engine.kernel(self.unlock_g(lock_id))

    def try_lock(self, lock_id: int) -> bool:
        """Non-blocking acquire attempt; True on success (with acquire
        semantics), False if the lock is held."""
        return self.engine.kernel(self.try_lock_g(lock_id))

    def barrier(self) -> None:
        """Global barrier across all ranks, with barrier consistency."""
        return self.engine.kernel(self.barrier_g())

    def refresh_runs(self, region: Region, runs: List[Run]) -> None:
        """Drop any stale cached copies of the pages under ``runs`` so the
        next read observes the home's current data. One-sided (put/get)
        models need this: a ``get`` must see remote puts without a lock or
        barrier in between. No-op on substrates without remote caching."""
        return self.engine.kernel(self.refresh_runs_g(region, runs))

    # ------------------------------------------------------------ abstract
    @abstractmethod
    def _setup_region(self, region: Region, distribution: Distribution) -> None:
        """Create backing storage / page metadata for a new region."""

    @abstractmethod
    def _teardown_region(self, region: Region) -> None:
        """Drop storage/metadata for a freed region."""

    @abstractmethod
    def _access_g(self, rank: int, region: Region, runs: List[Run],
                  write: bool):
        """Generator kernel servicing the access; returns (via
        ``StopIteration``) the rank's view buffer for the region."""

    @abstractmethod
    def lock_g(self, lock_id: int):
        """Generator kernel of :meth:`lock`."""

    @abstractmethod
    def unlock_g(self, lock_id: int):
        """Generator kernel of :meth:`unlock`."""

    @abstractmethod
    def try_lock_g(self, lock_id: int):
        """Generator kernel of :meth:`try_lock`."""

    @abstractmethod
    def barrier_g(self):
        """Generator kernel of :meth:`barrier`."""

    @abstractmethod
    def consistency_model(self) -> str:
        """Name of the substrate's native consistency model."""

    @abstractmethod
    def capabilities(self) -> frozenset:
        """Feature probe used by the Memory Management module (§4.2)."""

    def refresh_runs_g(self, region: Region, runs: List[Run]):
        """Generator kernel of :meth:`refresh_runs` (default: no-op)."""
        return
        yield  # unreachable; makes this a generator function

    # --------------------------------------------------------- consistency
    def sync_consistency_g(self):
        """Generator kernel of :meth:`sync_consistency` (default: no-op)."""
        return
        yield  # unreachable; makes this a generator function

    # ------------------------------------------------------------ statistics
    def stats(self, rank: Optional[int] = None) -> Dict[str, Any]:
        if rank is None:
            rank = self.current_rank()
        return self.rank_stats[rank].as_dict()

    def reset_stats(self) -> None:
        for st in self.rank_stats:
            st.reset()

    # ------------------------------------------------------------- helpers
    def _page_spans(self, region: Region, runs: List[Run]) -> List[Tuple[int, int]]:
        """Sorted, disjoint inclusive page spans touched by ``runs``.

        One ``(first, last)`` pair per maximal contiguous page extent:
        adjacent and overlapping runs coalesce, so a bulk access costs two
        integers of metadata instead of one entry per page. Substrates walk
        these spans and expand to individual pages only across
        protection-state boundaries (see
        :meth:`~repro.memory.page.PageTable.faulting_in_spans`).
        """
        spans: List[Tuple[int, int]] = []
        for off, ln in runs:  # runs are sorted and merged by SharedArray
            span = region.span_for(off, ln)
            if span is None:
                continue
            first, last = span
            if spans and first <= spans[-1][1] + 1:
                if last > spans[-1][1]:
                    spans[-1] = (spans[-1][0], last)
            else:
                spans.append((first, last))
        return spans

    def _sharing_record_access(self, rank: int, region: Region,
                               runs: List[Run], write: bool) -> None:
        """Feed the engine's sharing recorder the per-page sub-ranges of
        ``runs`` (page-local ``[lo, hi)`` byte extents — the span
        information the false-sharing detector intersects across ranks).
        Host-side only; callers guard on ``engine.sharing.enabled``."""
        sharing = self.engine.sharing
        psize = self.space.page_size
        for off, ln in runs:
            gaddr = region.gaddr + off
            end = gaddr + ln
            while gaddr < end:
                page = gaddr // psize
                page_base = page * psize
                chunk = min(end, page_base + psize) - gaddr
                lo = gaddr - page_base
                sharing.access(rank, page, lo, lo + chunk, write)
                gaddr += chunk

    def _pages_touched(self, region: Region, runs: List[Run]) -> List[int]:
        """Sorted, deduplicated global page numbers touched by ``runs``."""
        pages: List[int] = []
        for first, last in self._page_spans(region, runs):
            pages.extend(range(first, last + 1))
        return pages
