"""Native JiaJia binding — the Figure 2 baseline.

Byte-identical API surface to :class:`repro.models.jiajia_api.JiaJiaApi`,
but bound *directly* to the JiaJia DSM: no HAMSTER service dispatch (only
the thin native wrapper cost per call), and the DSM runs its own stand-alone
messaging stack (build it from the ``native-jiajia-*`` presets, which set
``integrated_messaging=False``).

This class is deliberately outside Table 2's measurement set: it represents
the *unmodified standard distribution of JiaJia*, not a HAMSTER programming
model.

Each call is a generator function that charges the native wrapper cost
and then drives the DSM's own kernel (``yield from api.jia_barrier()``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.memory.layout import Distribution
from repro.models.base import ProgrammingModel

__all__ = ["NativeJiaJiaApi"]


class NativeJiaJiaApi:
    """jia_* calls straight onto the DSM substrate."""

    MODEL_NAME = "JiaJia (native)"

    def __init__(self, hamster) -> None:
        # The native build still receives the assembled platform object for
        # startup/teardown convenience, but the data path below never enters
        # the HAMSTER modules.
        self.hamster = hamster
        self.dsm = hamster.dsm
        if self.dsm.kind != "jiajia":
            raise ModelError("the native JiaJia binding needs the jiajia DSM")
        self._params = hamster.params
        # Collective-allocation rendezvous (JiaJia's own global alloc).
        self._alloc_seq: dict = {}
        self._alloc_results: dict = {}

    # ------------------------------------------------------------- plumbing
    def _cost(self) -> float:
        """Book the thin native-wrapper cost of one API call; returns the
        hold (``yield self._cost()``)."""
        rank = self.dsm.current_rank()
        return self.hamster.cluster.node(self.dsm.node_of(rank)).cpu_cost(
            self._params.native_call_overhead)

    run = ProgrammingModel.run

    # ------------------------------------------------------------------ api
    def jia_init(self):
        yield self._cost()
        return self.dsm.current_rank(), self.dsm.n_procs

    def jia_exit(self):
        yield self._cost()
        yield from self.dsm.barrier_g()

    def jia_alloc(self, nbytes: int, distribution: Optional[Distribution] = None):
        return (yield from self._collective_g(lambda: self.dsm.allocate(
            nbytes, distribution=distribution)))

    def jia_alloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                        name: str = "", distribution: Optional[Distribution] = None):
        return (yield from self._collective_g(lambda: self.dsm.make_array(
            shape, dtype=dtype, name=name, distribution=distribution)))

    def _collective_g(self, make):
        """JiaJia's own global allocation: every rank calls, the first
        allocates, all meet at a barrier and receive the same object.
        ``make`` is host-side (pure allocation, no virtual-time cost)."""
        yield self._cost()
        rank = self.dsm.current_rank()
        seq = self._alloc_seq.get(rank, 0)
        self._alloc_seq[rank] = seq + 1
        if seq not in self._alloc_results:
            self._alloc_results[seq] = make()
        yield from self.dsm.barrier_g()
        return self._alloc_results[seq]

    def jia_lock(self, lock_id: int):
        yield self._cost()
        yield from self.dsm.lock_g(lock_id)

    def jia_unlock(self, lock_id: int):
        yield self._cost()
        yield from self.dsm.unlock_g(lock_id)

    def jia_barrier(self):
        yield self._cost()
        yield from self.dsm.barrier_g()

    def jia_wtime(self):
        yield self._cost()
        return self.hamster.engine.now
