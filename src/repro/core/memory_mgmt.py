"""Memory Management module (§4.2).

Services for global allocation and distribution. Users may attach
distribution annotations and coherence constraints to any allocation; a
capability test routine probes the underlying shared memory system for the
coherence schemes and placement policies it supports.

Every service is a ``*_g`` generator kernel following the yield contract of
:mod:`repro.sim.process` (allocation itself is host-side; only the
service-call overhead and the collective rendezvous barrier cost virtual
time). The blocking forms that thread-backed model layers still call
trampoline a kernel through :meth:`Engine.kernel`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.core.monitoring import ModuleStats
from repro.errors import CapabilityError
from repro.memory.address_space import Region
from repro.memory.layout import Distribution
from repro.memory.shared_array import SharedArray
from repro.sim.trace import NULL_SPAN

__all__ = ["MemoryMgmt"]


class MemoryMgmt:
    """Global memory allocation/distribution services."""

    def __init__(self, hamster) -> None:
        self._h = hamster
        self.dsm = hamster.dsm
        self.stats = ModuleStats("memory")
        # Collective-allocation rendezvous: per-rank call counters + the
        # shared step -> result table (first arriver allocates).
        self._coll_seq: dict = {}
        self._coll_results: dict = {}

    # ---------------------------------------------------------- allocation
    def alloc_g(self, nbytes: int, name: str = "",
                distribution: Optional[Distribution] = None,
                coherence: Optional[str] = None):
        """Globally allocate ``nbytes``.

        ``coherence`` optionally names a required coherence scheme
        (``"scope"``, ``"release"``, ...); the call fails with
        :class:`CapabilityError` if the subsystem cannot accommodate it —
        "as long as the subsystem can accommodate the given parameters".
        """
        obs = self._h.engine.obs
        with (obs.span("svc.alloc", bytes=nbytes, name=name)
              if obs.enabled else NULL_SPAN):
            yield self._h.call_cost()
            if coherence is not None:
                yield from self.require_g(f"consistency:{coherence}")
            region = self.dsm.allocate(nbytes, name=name,
                                       distribution=distribution)
            self.stats.incr("allocations")
            self.stats.incr("allocated_bytes", region.size)
            return region

    def alloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                    name: str = "", distribution: Optional[Distribution] = None,
                    coherence: Optional[str] = None) -> SharedArray:
        """Allocate a typed shared array (the common application path)."""
        return self._h.engine.kernel(
            self.alloc_array_g(shape, dtype=dtype, name=name,
                               distribution=distribution, coherence=coherence))

    def alloc_array_g(self, shape: Sequence[int], dtype: Any = np.float64,
                      name: str = "",
                      distribution: Optional[Distribution] = None,
                      coherence: Optional[str] = None):
        """Generator kernel of :meth:`alloc_array` (``yield from`` it)."""
        obs = self._h.engine.obs
        with obs.span("svc.alloc", name=name) if obs.enabled else NULL_SPAN:
            yield self._h.call_cost()
            if coherence is not None:
                yield from self.require_g(f"consistency:{coherence}")
            arr = self.dsm.make_array(shape, dtype=dtype, name=name,
                                      distribution=distribution)
            self.stats.incr("allocations")
            self.stats.incr("allocated_bytes", arr.region.size)
            return arr

    # ------------------------------------------------- collective allocation
    def _collective_g(self, make_g):
        """Synchronous allocation involving all ranks (§5.2): every rank
        calls, exactly one allocates, all receive the same object, and the
        rendezvous carries an implicit barrier — the "overhead costs for a
        consistency model that is not always required" the paper contrasts
        with TreadMarks' single-node allocation.

        ``make_g`` is a zero-argument callable returning the allocation
        kernel (a generator) for the rank that ends up allocating.
        """
        rank = self.dsm.current_rank()
        seq = self._coll_seq.get(rank, 0)
        self._coll_seq[rank] = seq + 1
        if seq not in self._coll_results:
            self._coll_results[seq] = yield from make_g()
        yield from self._h.sync.barrier_g()
        return self._coll_results[seq]

    def alloc_collective(self, nbytes: int, name: str = "",
                         distribution: Optional[Distribution] = None,
                         coherence: Optional[str] = None) -> Region:
        """Collective form of :meth:`alloc_g` — all ranks call together and
        receive the same region (jia_alloc/HLRC-style global allocation)."""
        return self._h.engine.kernel(
            self.alloc_collective_g(nbytes, name=name,
                                    distribution=distribution,
                                    coherence=coherence))

    def alloc_collective_g(self, nbytes: int, name: str = "",
                           distribution: Optional[Distribution] = None,
                           coherence: Optional[str] = None):
        """Generator kernel of :meth:`alloc_collective` (``yield from`` it)."""
        return self._collective_g(
            lambda: self.alloc_g(nbytes, name=name, distribution=distribution,
                                 coherence=coherence))

    def alloc_array_collective(self, shape: Sequence[int], dtype: Any = np.float64,
                               name: str = "",
                               distribution: Optional[Distribution] = None,
                               coherence: Optional[str] = None) -> SharedArray:
        """Collective form of :meth:`alloc_array`."""
        return self._h.engine.kernel(
            self.alloc_array_collective_g(shape, dtype=dtype, name=name,
                                          distribution=distribution,
                                          coherence=coherence))

    def alloc_array_collective_g(self, shape: Sequence[int],
                                 dtype: Any = np.float64, name: str = "",
                                 distribution: Optional[Distribution] = None,
                                 coherence: Optional[str] = None):
        """Generator kernel of :meth:`alloc_array_collective`."""
        return self._collective_g(
            lambda: self.alloc_array_g(shape, dtype=dtype, name=name,
                                       distribution=distribution,
                                       coherence=coherence))

    def free(self, target) -> None:
        """Release a :class:`Region` or :class:`SharedArray`."""
        return self._h.engine.kernel(self.free_g(target))

    def free_g(self, target):
        """Generator kernel of :meth:`free` (``yield from`` it)."""
        yield self._h.call_cost()
        region = target.region if isinstance(target, SharedArray) else target
        self.dsm.free(region)
        self.stats.incr("frees")

    # ---------------------------------------------------------- capability
    def capabilities_g(self):
        """Probe the underlying memory subsystem (§4.2 capability test)."""
        yield self._h.call_cost()
        self.stats.incr("capability_probes")
        return self.dsm.capabilities()

    def require_g(self, capability: str):
        """Raise :class:`CapabilityError` unless the subsystem supports
        ``capability``."""
        if capability not in (yield from self.capabilities_g()):
            raise CapabilityError(
                f"memory subsystem {self.dsm.kind!r} does not support "
                f"{capability!r}; available: {sorted(self.dsm.capabilities())}")

    # ------------------------------------------------------------- queries

    def access_stats(self, rank: Optional[int] = None) -> dict:
        """Per-rank DSM access statistics (monitoring feed)."""
        return self.dsm.stats(rank)

    def reset_access_stats(self) -> None:
        self.dsm.reset_stats()
