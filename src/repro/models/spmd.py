"""The SPMD programming model (Table 2, row 1).

The first model implemented within the project (§5.2): a user-friendly
export of most HAMSTER services under a single flat API, intended both for
direct application programming and as the basis for run-time systems. Its
calls have deliberately *broad* functionality (collective allocation with
distribution annotations, combined timing/statistics queries), which is why
it costs more lines per call than the thin DSM APIs. Each call is a
generator function (``pid = yield from m.spmd_init()``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.memory.layout import Distribution
from repro.models.base import ProgrammingModel

__all__ = ["SpmdModel"]


class SpmdModel(ProgrammingModel):
    """Flat SPMD API over the full breadth of HAMSTER services."""

    MODEL_NAME = "SPMD model"
    CONSISTENCY = "scope"
    API_CALLS = (
        "spmd_init", "spmd_exit", "spmd_proc_id", "spmd_num_procs",
        "spmd_node_id", "spmd_num_nodes",
        "spmd_alloc", "spmd_alloc_array", "spmd_free",
        "spmd_barrier", "spmd_lock", "spmd_unlock", "spmd_trylock",
        "spmd_newlock",
        "spmd_acquire", "spmd_release", "spmd_fence",
        "spmd_send", "spmd_recv",
        "spmd_wtime", "spmd_stats", "spmd_reset_stats", "spmd_capabilities",
    )

    # --------------------------------------------------------- init / exit
    def spmd_init(self):
        """Per-task initialization; returns the task's process id."""
        return self._rank()
        yield  # unreachable; a pure query is a generator like every call

    def spmd_exit(self):
        """Terminate the task's participation (final barrier + flush)."""
        yield from self.hamster.consistency.fence_g(self.consistency_model)
        yield from self.hamster.sync.barrier_g()

    # -------------------------------------------------------------- identity
    def spmd_proc_id(self):
        return (yield from self.hamster.task.my_rank_g())

    def spmd_num_procs(self):
        return (yield from self.hamster.task.n_tasks_g())

    def spmd_node_id(self):
        return (yield from self.hamster.cluster_ctl.my_node_g())

    def spmd_num_nodes(self):
        return (yield from self.hamster.cluster_ctl.n_nodes_g())

    # ---------------------------------------------------------------- memory
    def spmd_alloc(self, nbytes: int, name: str = "",
                   distribution: Optional[Distribution] = None):
        """Collective global allocation with optional distribution
        annotation (all tasks call together, implicit barrier)."""
        return (yield from self.hamster.memory.alloc_collective_g(
            nbytes, name=name, distribution=distribution))

    def spmd_alloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                         name: str = "",
                         distribution: Optional[Distribution] = None):
        """Collective typed-array allocation."""
        return (yield from self.hamster.memory.alloc_array_collective_g(
            shape, dtype=dtype, name=name, distribution=distribution))

    def spmd_free(self, target):
        yield from self.hamster.memory.free_g(target)

    # ------------------------------------------------------- synchronization
    def spmd_barrier(self):
        yield from self.hamster.sync.barrier_g()

    def spmd_lock(self, lock_id: int):
        yield from self.hamster.sync.lock_g(lock_id)

    def spmd_unlock(self, lock_id: int):
        yield from self.hamster.sync.unlock_g(lock_id)

    def spmd_trylock(self, lock_id: int):
        return (yield from self.hamster.sync.try_lock_g(lock_id))

    def spmd_newlock(self):
        return (yield from self.hamster.sync.new_lock_g())

    # ------------------------------------------------------------ consistency
    def spmd_acquire(self, scope: int):
        yield from self.hamster.consistency.acquire_g(
            self.consistency_model, scope)

    def spmd_release(self, scope: int):
        yield from self.hamster.consistency.release_g(
            self.consistency_model, scope)

    def spmd_fence(self):
        yield from self.hamster.consistency.fence_g(self.consistency_model)

    # -------------------------------------------------------------- messaging
    def spmd_send(self, dst: int, payload: Any, size: int = 64):
        """External message to another task (the unified channel of §3.3)."""
        yield from self.hamster.cluster_ctl.send_msg_g(dst, payload, size=size)

    def spmd_recv(self):
        return (yield from self.hamster.cluster_ctl.recv_msg_g())

    # ----------------------------------------------------- timing / monitoring
    def spmd_wtime(self):
        return self.hamster.timing.wtime()
        yield  # unreachable

    def spmd_stats(self, rank: Optional[int] = None):
        """Combined module + DSM statistics for one task (§4.3)."""
        stats = dict(self.hamster.memory.access_stats(rank))
        stats["sync"] = self.hamster.sync.stats.query()
        return stats
        yield  # unreachable

    def spmd_reset_stats(self):
        return self.hamster.reset_statistics()
        yield  # unreachable

    def spmd_capabilities(self):
        return (yield from self.hamster.memory.capabilities_g())
