"""TreadMarks API (Table 2, row 4).

Almost every routine maps directly onto a HAMSTER service ("attesting to the
completeness of the HAMSTER design", §5.2). The exception the paper calls
out — the only routine implemented fully by hand — is the allocation-data
distribution: TreadMarks uses *single-node* allocation, so the allocating
process must explicitly deliver the resulting pointer to the other
processes (``Tmk_distribute``), instead of paying a global synchronous
allocation's implicit barrier on every malloc. Each call is a generator
function (``pid = yield from tm.Tmk_proc_id()``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import ModelError
from repro.memory.layout import single_home
from repro.models.base import ProgrammingModel

__all__ = ["TreadMarksApi"]


class TreadMarksApi(ProgrammingModel):
    """Tmk_* calls over HAMSTER services."""

    MODEL_NAME = "TreadMarks API"
    CONSISTENCY = "release"  # TreadMarks is lazy release consistency
    API_CALLS = ("Tmk_startup", "Tmk_exit", "Tmk_proc_id", "Tmk_nprocs",
                 "Tmk_malloc", "Tmk_malloc_array", "Tmk_free",
                 "Tmk_distribute", "Tmk_barrier",
                 "Tmk_lock_acquire", "Tmk_lock_release",
                 "Tmk_trylock", "Tmk_wtime")

    def Tmk_startup(self):
        """Process startup; a no-op beyond the template (already launched)."""
        yield from self.hamster.sync.barrier_g()

    def Tmk_exit(self, status: int = 0):
        yield from self.hamster.consistency.fence_g(self.consistency_model)
        yield from self.hamster.sync.barrier_g()
        return status

    def Tmk_proc_id(self):
        return (yield from self.hamster.task.my_rank_g())

    def Tmk_nprocs(self):
        return (yield from self.hamster.task.n_tasks_g())

    # ---------------------------------------------------------------- memory
    def Tmk_malloc(self, nbytes: int, name: str = ""):
        """Single-node allocation: only the caller allocates (pages homed
        here); no implicit barrier — the pointer must be Tmk_distribute'd."""
        return (yield from self.hamster.memory.alloc_g(
            nbytes, name=name, distribution=single_home(self._rank())))

    def Tmk_malloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                         name: str = ""):
        return (yield from self.hamster.memory.alloc_array_g(
            shape, dtype=dtype, name=name,
            distribution=single_home(self._rank())))

    def Tmk_free(self, target):
        yield from self.hamster.memory.free_g(target)

    def Tmk_distribute(self, key: str, obj: Any = None):
        """The hand-written routine (§5.2): deliver single-node allocation
        data to every process. The allocator passes the object; every other
        process passes ``None``; all receive the allocator's object.

        Built from cluster-control messaging + one barrier — nothing in the
        HAMSTER interface maps to it directly.
        """
        if obj is not None:
            yield from self.hamster.cluster_ctl.publish_g(key, obj)
        yield from self.hamster.sync.barrier_g()
        value = yield from self.hamster.cluster_ctl.lookup_g(key)
        if value is None:
            raise ModelError(f"Tmk_distribute: nothing published under {key!r}")
        return value

    # ------------------------------------------------------- synchronization
    def Tmk_barrier(self, barrier_id: int = 0):
        yield from self.hamster.sync.barrier_g()

    def Tmk_lock_acquire(self, lock_id: int):
        yield from self.hamster.sync.lock_g(lock_id)

    def Tmk_lock_release(self, lock_id: int):
        yield from self.hamster.sync.unlock_g(lock_id)

    def Tmk_trylock(self, lock_id: int):
        return (yield from self.hamster.sync.try_lock_g(lock_id))

    def Tmk_wtime(self):
        return self.hamster.timing.wtime()
        yield  # unreachable
