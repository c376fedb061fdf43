"""Multi-DSM composition — the §6 future-work direction, implemented.

    "HAMSTER's ability to concurrently support multiple DSM systems within
    one framework offers the opportunity [...] to combine several different
    DSM mechanisms within the execution of a single application, resulting
    in custom-tailored, shared memory solutions."

A :class:`CompositeMemorySystem` hosts several child substrates over one
cluster and routes each *region* to the substrate chosen at allocation time
(via the ``system=`` annotation, or a policy callback). The children share
the composite's global address space, so page-to-region resolution works
across systems, and the composite's synchronization operations compose the
children's consistency actions:

* ``barrier``/``unlock`` first flush every *secondary* child's pending
  writes (their ``sync_consistency``), then run the primary child's
  synchronization, so release semantics hold across all regions no matter
  which substrate they live on.

Typical use (see ``benchmarks/test_extension_multidsm.py``): read-mostly
data on the *caching* SW-DSM, write-streamed data on the hybrid DSM's
hardware path — faster than either substrate hosting everything.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.dsm.base import GlobalMemorySystem, Run
from repro.errors import ConfigurationError, MemoryError_
from repro.machine.cluster import Cluster
from repro.memory.address_space import Region
from repro.memory.layout import Distribution

__all__ = ["CompositeMemorySystem"]

#: policy: (nbytes, name) -> child key
Policy = Callable[[int, str], str]


class CompositeMemorySystem(GlobalMemorySystem):
    """Route regions across multiple DSM substrates on one cluster."""

    kind = "composite"

    def __init__(self, cluster: Cluster, children: Dict[str, GlobalMemorySystem],
                 primary: str, default_policy: Optional[Policy] = None) -> None:
        if primary not in children:
            raise ConfigurationError(
                f"primary {primary!r} not among children {sorted(children)}")
        first = next(iter(children.values()))
        super().__init__(cluster, n_procs=first.n_procs,
                         placement=first.placement)
        for key, child in children.items():
            if child.n_procs != self.n_procs or child.placement != self.placement:
                raise ConfigurationError(
                    f"child {key!r} disagrees on ranks/placement")
            # Children adopt the composite's address space and allocator so
            # global page numbers resolve identically everywhere (their own
            # were empty — children must be freshly constructed).
            if len(child.space) != 0:
                raise ConfigurationError(
                    f"child {key!r} already holds allocations")
            child.space = self.space
            child.allocator = self.allocator
            # Task bindings are shared: one registry for all systems.
            child._task_rank = self._task_rank
        self.children = dict(children)
        self.primary_key = primary
        self.primary = children[primary]
        self.default_policy: Policy = default_policy or (lambda nbytes, name: primary)
        self._region_child: Dict[int, GlobalMemorySystem] = {}
        #: per-allocation annotation consumed by the next allocate() call
        self._pending_system: Optional[str] = None

    # ------------------------------------------------------------ selection
    def child(self, key: str) -> GlobalMemorySystem:
        try:
            return self.children[key]
        except KeyError:
            raise ConfigurationError(
                f"unknown memory system {key!r}; have {sorted(self.children)}") from None

    def allocate_on(self, system: str, nbytes: int, name: str = "",
                    distribution: Optional[Distribution] = None) -> Region:
        """Allocate a region explicitly placed on child ``system``."""
        self._pending_system = system
        try:
            return self.allocate(nbytes, name=name, distribution=distribution)
        finally:
            self._pending_system = None

    def make_array_on(self, system: str, shape: Sequence[int],
                      dtype=np.float64, name: str = "",
                      distribution: Optional[Distribution] = None):
        """Typed-array variant of :meth:`allocate_on`."""
        self._pending_system = system
        try:
            return self.make_array(shape, dtype=dtype, name=name,
                                   distribution=distribution)
        finally:
            self._pending_system = None

    # --------------------------------------------------------------- routing
    def _owner(self, region: Region) -> GlobalMemorySystem:
        try:
            return self._region_child[region.region_id]
        except KeyError:
            raise MemoryError_(
                f"{region!r} is not owned by any child system") from None

    def _setup_region(self, region: Region, distribution: Distribution) -> None:
        key = (self._pending_system if self._pending_system is not None
               else self.default_policy(region.size, region.name))
        child = self.child(key)
        child._setup_region(region, distribution)
        self._region_child[region.region_id] = child

    def _teardown_region(self, region: Region) -> None:
        child = self._region_child.pop(region.region_id)
        child._teardown_region(region)

    def _access_g(self, rank: int, region: Region, runs: List[Run],
                  write: bool):
        # Plain delegation: returning the child's generator lets the
        # caller's ``yield from`` drive it directly.
        return self._owner(region)._access_g(rank, region, runs, write)

    def refresh_runs_g(self, region: Region, runs: List[Run]):
        return self._owner(region).refresh_runs_g(region, runs)

    # ------------------------------------------------------------------ sync
    def _flush_secondaries_g(self):
        for key, child in self.children.items():
            if child is not self.primary:
                yield from child.sync_consistency_g()

    def lock_g(self, lock_id: int):
        return self.primary.lock_g(lock_id)

    def try_lock_g(self, lock_id: int):
        return self.primary.try_lock_g(lock_id)

    def unlock_g(self, lock_id: int):
        # Release consistency across ALL systems: secondary writes must be
        # visible before the lock can be observed released.
        yield from self._flush_secondaries_g()
        yield from self.primary.unlock_g(lock_id)

    def barrier_g(self):
        yield from self._flush_secondaries_g()
        yield from self.primary.barrier_g()

    def sync_consistency_g(self):
        for child in self.children.values():
            yield from child.sync_consistency_g()

    # ------------------------------------------------------------ reporting
    def consistency_model(self) -> str:
        return self.primary.consistency_model()

    def capabilities(self) -> frozenset:
        caps = {"composite", f"primary:{self.primary_key}"}
        for key, child in self.children.items():
            caps.add(f"system:{key}")
            caps |= set(child.capabilities())
        return frozenset(caps)

    def home_of(self, page: int, rank: Optional[int] = None) -> int:
        region = self.space.region_at(page * self.space.page_size)
        if region is None:
            raise ConfigurationError(f"page {page} is not globally allocated")
        return self._owner(region).home_of(page, rank)

    def stats(self, rank: Optional[int] = None) -> dict:
        """Merged per-rank statistics: common counters summed over children,
        plus a per-child breakdown."""
        if rank is None:
            rank = self.current_rank()
        merged: dict = {}
        for key, child in self.children.items():
            child_stats = child.stats(rank)
            merged[f"child:{key}"] = child_stats
            for counter, value in child_stats.items():
                if isinstance(value, (int, float)):
                    merged[counter] = merged.get(counter, 0) + value
        return merged

    def reset_stats(self) -> None:
        for child in self.children.values():
            child.reset_stats()
