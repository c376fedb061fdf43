"""JiaJia API subset (Table 2, row 6).

The thinnest model layer: JiaJia's application interface maps almost one-to-
one onto HAMSTER services (6.1 lines/call in the paper). Applications from
the JiaJia benchmark suite run against this API on *any* platform; only the
cluster configuration changes (§5.4).

This module is the HAMSTER-bound implementation measured in Table 2. Its
native-binding twin (direct DSM calls, no HAMSTER core — the Figure 2
baseline) lives in :mod:`repro.models.native_jiajia` and exposes the byte-
identical method surface.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.memory.layout import Distribution
from repro.models.base import ProgrammingModel

__all__ = ["JiaJiaApi"]


class JiaJiaApi(ProgrammingModel):
    """jia_* calls over HAMSTER services."""

    MODEL_NAME = "JiaJia API (subset)"
    CONSISTENCY = "scope"
    API_CALLS = ("jia_init", "jia_exit", "jia_alloc", "jia_alloc_array",
                 "jia_lock", "jia_unlock", "jia_barrier", "jia_wtime")

    def jia_init(self) -> tuple:
        """Returns (jiapid, jiahosts) like the C globals."""
        with self._obs_span("jia_init"):
            return self._rank(), self._nranks()

    def jia_init_g(self):
        """Generator kernel of :meth:`jia_init` — non-blocking here, but
        part of the ``*_g`` surface both bindings share (the native twin
        charges per call, so its kernel does yield)."""
        return self.jia_init()
        yield  # unreachable; makes this a generator function

    def jia_exit(self) -> None:
        with self._obs_span("jia_exit"):
            self.hamster.sync.barrier()

    def jia_exit_g(self):
        """Generator kernel of :meth:`jia_exit` (``yield from`` it)."""
        with self._obs_span("jia_exit"):
            yield from self.hamster.sync.barrier_g()

    def jia_alloc(self, nbytes: int, distribution: Optional[Distribution] = None):
        """Global synchronous allocation across all hosts."""
        with self._obs_span("jia_alloc"):
            return self.hamster.memory.alloc_collective(
                nbytes, distribution=distribution)

    def jia_alloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                        name: str = "", distribution: Optional[Distribution] = None):
        with self._obs_span("jia_alloc_array"):
            return self.hamster.memory.alloc_array_collective(
                shape, dtype=dtype, name=name, distribution=distribution)

    def jia_alloc_array_g(self, shape: Sequence[int], dtype: Any = np.float64,
                          name: str = "",
                          distribution: Optional[Distribution] = None):
        """Generator kernel of :meth:`jia_alloc_array` (``yield from`` it)."""
        with self._obs_span("jia_alloc_array"):
            return (yield from self.hamster.memory.alloc_array_collective_g(
                shape, dtype=dtype, name=name, distribution=distribution))

    def jia_lock(self, lock_id: int) -> None:
        with self._obs_span("jia_lock"):
            self.hamster.sync.lock(lock_id)

    def jia_lock_g(self, lock_id: int):
        """Generator kernel of :meth:`jia_lock` (``yield from`` it)."""
        with self._obs_span("jia_lock"):
            yield from self.hamster.sync.lock_g(lock_id)

    def jia_unlock(self, lock_id: int) -> None:
        with self._obs_span("jia_unlock"):
            self.hamster.sync.unlock(lock_id)

    def jia_unlock_g(self, lock_id: int):
        """Generator kernel of :meth:`jia_unlock` (``yield from`` it)."""
        with self._obs_span("jia_unlock"):
            yield from self.hamster.sync.unlock_g(lock_id)

    def jia_barrier(self) -> None:
        with self._obs_span("jia_barrier"):
            self.hamster.sync.barrier()

    def jia_barrier_g(self):
        """Generator kernel of :meth:`jia_barrier` (``yield from`` it)."""
        with self._obs_span("jia_barrier"):
            yield from self.hamster.sync.barrier_g()

    def jia_wtime(self) -> float:
        return self.hamster.timing.wtime()

    def jia_wtime_g(self):
        """Generator kernel of :meth:`jia_wtime` (``yield from`` it)."""
        return self.jia_wtime()
        yield  # unreachable; makes this a generator function
