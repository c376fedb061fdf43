"""ANL macros (Table 2, row 3).

The Argonne National Laboratory PARMACS macro set used by the SPLASH codes
(MAIN_ENV, CREATE, G_MALLOC, LOCK, BARRIER, GETSUB, ...). Each macro is a
one-to-few-line mapping onto a HAMSTER service — 7.3 lines/call in the
paper, the classic example of a macro package riding a complete service
layer.

Macro names keep their historic upper-case spelling; DEC/INIT pairs return/
take handle integers exactly like the C macros' declared objects.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.models.base import ProgrammingModel

__all__ = ["AnlMacros"]


class AnlMacros(ProgrammingModel):
    """SPLASH-style ANL macro package."""

    MODEL_NAME = "ANL macros"
    CONSISTENCY = "release"
    API_CALLS = (
        "MAIN_INITENV", "MAIN_END",
        "CREATE", "WAIT_FOR_END",
        "G_MALLOC", "G_MALLOC_ARRAY", "G_FREE",
        "LOCKDEC", "LOCKINIT", "LOCK", "UNLOCK", "ALOCKDEC", "ALOCK", "AULOCK",
        "BARDEC", "BARINIT", "BARRIER",
        "GSDEC", "GSINIT", "GETSUB",
        "CLOCK",
    )

    def __init__(self, hamster) -> None:
        super().__init__(hamster)
        self._children: list = []
        self._counters: Dict[int, Dict[str, int]] = {}
        self._next_handle = 1

    # ------------------------------------------------------------- lifecycle
    def MAIN_INITENV(self) -> None:
        """Environment setup at the top of main()."""
        self.hamster.sync.barrier()

    def MAIN_END(self) -> None:
        self.hamster.consistency.fence(self.consistency_model)
        self.hamster.sync.barrier()

    def CREATE(self, fn: Callable, *args: Any) -> int:
        """Start a worker on the next rank (SPLASH's process-creation macro).

        In the SPMD template all ranks already exist, so CREATE under
        HAMSTER spawns an *additional* task via the Task Management module,
        placed round-robin.
        """
        rank = len(self._children) % self._nranks()
        handle = self.hamster.task.spawn_local(rank, fn, args=args,
                                               name=f"anl.worker{len(self._children)}")
        self._children.append(handle)
        return handle.tid

    def WAIT_FOR_END(self, n: Optional[int] = None) -> None:
        """Join the last ``n`` created workers (all by default)."""
        children = self._children if n is None else self._children[-n:]
        for handle in children:
            self.hamster.task.join(handle)
        del self._children[:]

    # ---------------------------------------------------------------- memory
    def G_MALLOC(self, nbytes: int, name: str = ""):
        return self.hamster.memory.alloc_collective(nbytes, name=name)

    def G_MALLOC_ARRAY(self, shape: Sequence[int], dtype: Any = np.float64,
                       name: str = ""):
        return self.hamster.memory.alloc_array_collective(shape, dtype=dtype,
                                                          name=name)

    def G_FREE(self, target) -> None:
        self.hamster.memory.free(target)

    # ----------------------------------------------------------------- locks
    def LOCKDEC(self) -> int:
        return self.hamster.sync.new_lock()

    def LOCKINIT(self, lock_handle: int) -> None:
        """Lock initialization is implicit in HAMSTER; kept for API parity."""

    def LOCK(self, lock_handle: int) -> None:
        self.hamster.sync.lock(lock_handle)

    def UNLOCK(self, lock_handle: int) -> None:
        self.hamster.sync.unlock(lock_handle)

    def ALOCKDEC(self, n: int) -> list:
        """Array-of-locks declaration."""
        return [self.hamster.sync.new_lock() for _ in range(n)]

    def ALOCK(self, locks: list, index: int) -> None:
        self.hamster.sync.lock(locks[index])

    def AULOCK(self, locks: list, index: int) -> None:
        self.hamster.sync.unlock(locks[index])

    # --------------------------------------------------------------- barriers
    def BARDEC(self) -> int:
        handle = self._next_handle
        self._next_handle += 1
        return handle

    def BARINIT(self, bar_handle: int) -> None:
        """Barrier initialization is implicit; kept for API parity."""

    def BARRIER(self, bar_handle: int = 0, n: Optional[int] = None) -> None:
        self.hamster.sync.barrier()

    # -------------------------------------------- self-scheduling (GETSUB)
    def GSDEC(self) -> int:
        handle = self._next_handle
        self._next_handle += 1
        self._counters[handle] = {"lock": self.hamster.sync.new_lock(),
                                  "next": 0, "limit": 0}
        return handle

    def GSINIT(self, gs_handle: int, limit: int = 0) -> None:
        counter = self._gs(gs_handle)
        counter["next"] = 0
        counter["limit"] = limit

    def GETSUB(self, gs_handle: int, limit: Optional[int] = None) -> int:
        """Fetch the next loop index from a shared self-scheduling counter;
        returns -1 when the iteration space is exhausted."""
        counter = self._gs(gs_handle)
        if limit is not None:
            counter["limit"] = limit
        self.hamster.sync.lock(counter["lock"])
        try:
            if counter["next"] >= counter["limit"]:
                return -1
            index = counter["next"]
            counter["next"] += 1
            return index
        finally:
            self.hamster.sync.unlock(counter["lock"])

    def _gs(self, handle: int) -> dict:
        try:
            return self._counters[handle]
        except KeyError:
            raise ModelError(f"unknown GETSUB counter handle {handle}") from None

    # ---------------------------------------------------------------- timing
    def CLOCK(self) -> float:
        return self.hamster.timing.wtime()
