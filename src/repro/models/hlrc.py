"""HLRC API (Table 2, row 5).

Home-based Lazy Release Consistency (Rangarajan/Iftode). The API is a large
set of *very thin* calls — the paper measures 5.5 lines per call, the lowest
of any model — because HLRC's primitives (home-based allocation, acquire/
release pairs, explicit flushes, per-page home control) correspond almost
exactly to individual HAMSTER services. Each call is a generator function
(``yield from h.hlrc_barrier()``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.memory.layout import Distribution, block, cyclic, single_home
from repro.models.base import ProgrammingModel

__all__ = ["HlrcApi"]


class HlrcApi(ProgrammingModel):
    """hlrc_* calls over HAMSTER services."""

    MODEL_NAME = "HLRC API"
    CONSISTENCY = "release"
    API_CALLS = (
        "hlrc_init", "hlrc_exit", "hlrc_my_pid", "hlrc_num_procs",
        "hlrc_my_node", "hlrc_num_nodes",
        "hlrc_malloc", "hlrc_malloc_array", "hlrc_free",
        "hlrc_malloc_block", "hlrc_malloc_cyclic", "hlrc_malloc_onhome",
        "hlrc_acquire", "hlrc_release", "hlrc_flush",
        "hlrc_lock", "hlrc_unlock", "hlrc_trylock", "hlrc_newlock",
        "hlrc_barrier",
        "hlrc_wtime", "hlrc_stats", "hlrc_stats_reset",
        "hlrc_capabilities", "hlrc_home_of",
    )

    # ------------------------------------------------------------ lifecycle
    def hlrc_init(self):
        yield from self.hamster.sync.barrier_g()
        return self._rank()

    def hlrc_exit(self):
        yield from self.hamster.consistency.fence_g(self.consistency_model)
        yield from self.hamster.sync.barrier_g()

    def hlrc_my_pid(self):
        return (yield from self.hamster.task.my_rank_g())

    def hlrc_num_procs(self):
        return (yield from self.hamster.task.n_tasks_g())

    def hlrc_my_node(self):
        return (yield from self.hamster.cluster_ctl.my_node_g())

    def hlrc_num_nodes(self):
        return (yield from self.hamster.cluster_ctl.n_nodes_g())

    # ---------------------------------------------------------------- memory
    def hlrc_malloc(self, nbytes: int, distribution: Optional[Distribution] = None):
        """Global synchronous allocation (all processes, implicit barrier)."""
        return (yield from self.hamster.memory.alloc_collective_g(
            nbytes, distribution=distribution))

    def hlrc_malloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                          name: str = "", distribution: Optional[Distribution] = None):
        return (yield from self.hamster.memory.alloc_array_collective_g(
            shape, dtype=dtype, name=name, distribution=distribution))

    def hlrc_free(self, target):
        yield from self.hamster.memory.free_g(target)

    def hlrc_malloc_block(self, shape: Sequence[int], dtype: Any = np.float64,
                          name: str = ""):
        """Home-control convenience: block page placement."""
        return (yield from self.hlrc_malloc_array(shape, dtype, name,
                                                  distribution=block()))

    def hlrc_malloc_cyclic(self, shape: Sequence[int], dtype: Any = np.float64,
                           name: str = ""):
        return (yield from self.hlrc_malloc_array(shape, dtype, name,
                                                  distribution=cyclic()))

    def hlrc_malloc_onhome(self, shape: Sequence[int], home: int,
                           dtype: Any = np.float64, name: str = ""):
        return (yield from self.hlrc_malloc_array(
            shape, dtype, name, distribution=single_home(home)))

    def hlrc_home_of(self, array, page_index: int):
        """Home rank of the ``page_index``-th page of an allocation (a
        first-touch page's home may have to be asked of its directory)."""
        return (yield from self.hamster.dsm.home_of_g(
            array.region.first_page + page_index))

    # ------------------------------------------------------------ consistency
    def hlrc_acquire(self, scope: int):
        yield from self.hamster.consistency.acquire_g(
            self.consistency_model, scope)

    def hlrc_release(self, scope: int):
        yield from self.hamster.consistency.release_g(
            self.consistency_model, scope)

    def hlrc_flush(self):
        yield from self.hamster.consistency.fence_g(self.consistency_model)

    # ------------------------------------------------------- synchronization
    def hlrc_lock(self, lock_id: int):
        yield from self.hamster.sync.lock_g(lock_id)

    def hlrc_unlock(self, lock_id: int):
        yield from self.hamster.sync.unlock_g(lock_id)

    def hlrc_trylock(self, lock_id: int):
        return (yield from self.hamster.sync.try_lock_g(lock_id))

    def hlrc_newlock(self):
        return (yield from self.hamster.sync.new_lock_g())

    def hlrc_barrier(self):
        yield from self.hamster.sync.barrier_g()

    # ----------------------------------------------------- timing/monitoring
    def hlrc_wtime(self):
        return self.hamster.timing.wtime()
        yield  # unreachable

    def hlrc_stats(self, rank: Optional[int] = None):
        return self.hamster.memory.access_stats(rank)
        yield  # unreachable

    def hlrc_stats_reset(self):
        return self.hamster.memory.reset_access_stats()
        yield  # unreachable

    def hlrc_capabilities(self):
        return (yield from self.hamster.memory.capabilities_g())
