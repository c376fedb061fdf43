"""Native JiaJia binding — the Figure 2 baseline.

Byte-identical API surface to :class:`repro.models.jiajia_api.JiaJiaApi`,
but bound *directly* to the JiaJia DSM: no HAMSTER service dispatch (only
the thin native wrapper cost per call), and the DSM runs its own stand-alone
messaging stack (build it from the ``native-jiajia-*`` presets, which set
``integrated_messaging=False``).

This class is deliberately outside Table 2's measurement set: it represents
the *unmodified standard distribution of JiaJia*, not a HAMSTER programming
model.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.memory.layout import Distribution

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

    def _charge(self) -> None:
        """Blocking form of :meth:`_cost`."""
        self.hamster.engine.require_process().hold(self._cost())

    def run(self, main: Callable, args: tuple = ()) -> List[Any]:
        if inspect.isgeneratorfunction(main):
            api = self

            def shim(env, *a):
                return (yield from main(api, *a))

            return self.hamster.run_spmd(shim, args=args)
        return self.hamster.run_spmd(lambda env, *a: main(self, *a), args=args)

    # ------------------------------------------------------------------ api
    def jia_init(self) -> tuple:
        self._charge()
        return self.dsm.current_rank(), self.dsm.n_procs

    def jia_init_g(self):
        yield self._cost()
        return self.dsm.current_rank(), self.dsm.n_procs

    def jia_exit(self) -> None:
        self._charge()
        self.dsm.barrier()

    def jia_exit_g(self):
        yield self._cost()
        yield from self.dsm.barrier_g()

    def jia_alloc(self, nbytes: int, distribution: Optional[Distribution] = None):
        self._charge()
        return self._collective(lambda: self.dsm.allocate(nbytes, distribution=distribution))

    def jia_alloc_array(self, shape: Sequence[int], dtype: Any = np.float64,
                        name: str = "", distribution: Optional[Distribution] = None):
        self._charge()
        return self._collective(lambda: self.dsm.make_array(
            shape, dtype=dtype, name=name, distribution=distribution))

    def jia_alloc_array_g(self, shape: Sequence[int], dtype: Any = np.float64,
                          name: str = "",
                          distribution: Optional[Distribution] = None):
        yield self._cost()
        return (yield from self._collective_g(lambda: self.dsm.make_array(
            shape, dtype=dtype, name=name, distribution=distribution)))

    def _collective(self, make):
        rank = self.dsm.current_rank()
        seq = self._alloc_seq.get(rank, 0)
        self._alloc_seq[rank] = seq + 1
        if seq not in self._alloc_results:
            self._alloc_results[seq] = make()
        self.dsm.barrier()
        return self._alloc_results[seq]

    def _collective_g(self, make):
        # ``make`` is host-side (pure allocation, no virtual-time cost);
        # only the rendezvous barrier blocks.
        rank = self.dsm.current_rank()
        seq = self._alloc_seq.get(rank, 0)
        self._alloc_seq[rank] = seq + 1
        if seq not in self._alloc_results:
            self._alloc_results[seq] = make()
        yield from self.dsm.barrier_g()
        return self._alloc_results[seq]

    def jia_lock(self, lock_id: int) -> None:
        self._charge()
        self.dsm.lock(lock_id)

    def jia_lock_g(self, lock_id: int):
        yield self._cost()
        yield from self.dsm.lock_g(lock_id)

    def jia_unlock(self, lock_id: int) -> None:
        self._charge()
        self.dsm.unlock(lock_id)

    def jia_unlock_g(self, lock_id: int):
        yield self._cost()
        yield from self.dsm.unlock_g(lock_id)

    def jia_barrier(self) -> None:
        self._charge()
        self.dsm.barrier()

    def jia_barrier_g(self):
        yield self._cost()
        yield from self.dsm.barrier_g()

    def jia_wtime(self) -> float:
        self._charge()
        return self.hamster.engine.now

    def jia_wtime_g(self):
        yield self._cost()
        return self.hamster.engine.now
