"""Cray shmem put/get API (Table 2, row 9).

One-sided communication over the shared memory abstraction. The shmem model
is *symmetric*: every PE owns an instance of each symmetric allocation, and
``shmem_put``/``shmem_get`` address the instance of a chosen remote PE
directly. We realize the symmetric heap as a shared array with one slab per
PE, homed block-wise so that PE *p*'s slab lives on *p*'s node — a put then
becomes a remote write to the target's home pages (hardware transactions on
the hybrid DSM; fetch/diff traffic on the SW-DSM, flushed eagerly because
one-sided semantics require remote completion).

Includes the classic collectives (sum/max reductions, broadcast, collect),
atomics, and point-to-point synchronization (wait/fence/quiet).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.memory.layout import explicit
from repro.models.base import ProgrammingModel

__all__ = ["ShmemApi", "SymmetricArray"]


class SymmetricArray:
    """One symmetric allocation: per-PE slabs of identical shape."""

    def __init__(self, backing, n_pes: int, shape: Tuple[int, ...]) -> None:
        self._backing = backing  # SharedArray of shape (n_pes, *shape)
        self.n_pes = n_pes
        self.shape = shape

    def _slab_index(self, pe: int, index: Any) -> tuple:
        if not isinstance(index, tuple):
            index = (index,)
        return (pe,) + index

    def read(self, pe: int, index: Any = slice(None)):
        return self._backing[self._slab_index(pe, index)]

    def write(self, pe: int, index: Any, value: Any) -> None:
        self._backing[self._slab_index(pe, index)] = value

    def refresh(self, pe: int, index: Any = slice(None)) -> None:
        self._backing.refresh(self._slab_index(pe, index))


class ShmemApi(ProgrammingModel):
    """shmem_* calls over HAMSTER services."""

    MODEL_NAME = "Cray put/get (shmem) API"
    CONSISTENCY = "release"
    API_CALLS = (
        "start_pes", "shmem_my_pe", "shmem_n_pes", "shmem_finalize",
        "shmem_malloc", "shmem_free",
        "shmem_put", "shmem_get", "shmem_put64", "shmem_get64",
        "shmem_put32", "shmem_get32", "shmem_putmem", "shmem_getmem",
        "shmem_p", "shmem_g",
        "shmem_barrier_all", "shmem_fence", "shmem_quiet",
        "shmem_wait", "shmem_wait_until",
        "shmem_swap", "shmem_int_finc", "shmem_int_fadd",
        "shmem_int_sum_to_all", "shmem_double_sum_to_all",
        "shmem_double_max_to_all", "shmem_broadcast", "shmem_collect",
    )

    def __init__(self, hamster) -> None:
        super().__init__(hamster)
        # Created eagerly in launcher context: lazy creation from inside a
        # task could be raced by another rank mid-charge.
        self._atomic_lock: int = hamster.sync.new_lock()

    # -------------------------------------------------------------- lifecycle
    def start_pes(self, npes: int = 0) -> None:
        """PE startup; ``npes`` is advisory as in the Cray API."""
        if npes and npes != self._nranks():
            raise ModelError(
                f"start_pes({npes}) does not match the job width {self._nranks()}")
        self.hamster.sync.barrier()

    def shmem_my_pe(self) -> int:
        return self.hamster.task.my_rank()

    def shmem_n_pes(self) -> int:
        return self.hamster.task.n_tasks()

    def shmem_finalize(self) -> None:
        self.shmem_quiet()
        self.hamster.sync.barrier()

    # --------------------------------------------------------- symmetric heap
    def shmem_malloc(self, shape: Sequence[int], dtype: Any = np.float64,
                     name: str = "sym") -> SymmetricArray:
        """Symmetric allocation: every PE gets a same-shaped slab homed on
        its own node (collective, like the C symmetric heap discipline)."""
        n = self._nranks()
        shape = tuple(int(s) for s in shape)
        slab_bytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        page = self.hamster.params.page_size
        pages_per_slab = max(1, (slab_bytes + page - 1) // page)
        # Pad each slab to whole pages so slab p starts on a page boundary
        # and can be homed on PE p exactly.
        padded = pages_per_slab * page
        per_row = padded // np.dtype(dtype).itemsize
        homes = [p for p in range(n) for _ in range(pages_per_slab)]
        backing = self.hamster.memory.alloc_array_collective(
            (n, per_row), dtype=dtype, name=name, distribution=explicit(homes))
        flat = int(np.prod(shape))
        sym = SymmetricArray(_Reshaper(backing, shape, flat), n, shape)
        return sym

    def shmem_free(self, sym: SymmetricArray) -> None:
        self.hamster.memory.free(sym._backing.backing)

    # ----------------------------------------------------------------- rma
    def shmem_put(self, sym: SymmetricArray, index: Any, value: Any, pe: int) -> None:
        """Write ``value`` into PE ``pe``'s slab at ``index``; remotely
        complete before returning (one-sided semantics)."""
        sym.write(pe, index, value)
        self.hamster.consistency.fence(self.consistency_model)

    def shmem_get(self, sym: SymmetricArray, index: Any, pe: int):
        """Read from PE ``pe``'s slab, observing its latest completed puts."""
        sym.refresh(pe, index)
        return sym.read(pe, index)

    def shmem_put64(self, sym: SymmetricArray, index: Any, value: Any, pe: int) -> None:
        self.shmem_put(sym, index, value, pe)

    def shmem_get64(self, sym: SymmetricArray, index: Any, pe: int):
        return self.shmem_get(sym, index, pe)

    def shmem_put32(self, sym: SymmetricArray, index: Any, value: Any, pe: int) -> None:
        self.shmem_put(sym, index, value, pe)

    def shmem_get32(self, sym: SymmetricArray, index: Any, pe: int):
        return self.shmem_get(sym, index, pe)

    def shmem_putmem(self, sym: SymmetricArray, index: Any, value: Any, pe: int) -> None:
        self.shmem_put(sym, index, value, pe)

    def shmem_getmem(self, sym: SymmetricArray, index: Any, pe: int):
        return self.shmem_get(sym, index, pe)

    def shmem_p(self, sym: SymmetricArray, index: int, value: Any, pe: int) -> None:
        """Single-element put."""
        self.shmem_put(sym, index, value, pe)

    def shmem_g(self, sym: SymmetricArray, index: int, pe: int):
        """Single-element get."""
        arr = self.shmem_get(sym, index, pe)
        return arr if np.isscalar(arr) else np.asarray(arr).reshape(-1)[0]

    # ------------------------------------------------------- synchronization
    def shmem_barrier_all(self) -> None:
        self.hamster.sync.barrier()

    def shmem_fence(self) -> None:
        """Order puts to each PE (completion not required)."""
        self.hamster.consistency.fence(self.consistency_model)

    def shmem_quiet(self) -> None:
        """Complete all outstanding puts."""
        self.hamster.consistency.fence(self.consistency_model)

    def shmem_wait(self, sym: SymmetricArray, index: int, not_value: Any) -> Any:
        """Spin until own slab's ``index`` differs from ``not_value``."""
        return self.shmem_wait_until(sym, index, lambda v: v != not_value)

    def shmem_wait_until(self, sym: SymmetricArray, index: int, predicate) -> Any:
        me = self.shmem_my_pe()
        proc = self.hamster.engine.require_process()
        while True:
            sym.refresh(me, index)
            value = self.shmem_g(sym, index, me)
            if predicate(value):
                return value
            proc.hold(5e-6)  # poll interval

    # ---------------------------------------------------------------- atomics
    def _atomic(self) -> int:
        return self._atomic_lock

    def shmem_swap(self, sym: SymmetricArray, index: int, value: Any, pe: int):
        self.hamster.sync.lock(self._atomic())
        try:
            old = self.shmem_g(sym, index, pe)
            sym.write(pe, index, value)
            self.hamster.consistency.fence(self.consistency_model)
            return old
        finally:
            self.hamster.sync.unlock(self._atomic())

    def shmem_int_finc(self, sym: SymmetricArray, index: int, pe: int) -> int:
        return self.shmem_int_fadd(sym, index, 1, pe)

    def shmem_int_fadd(self, sym: SymmetricArray, index: int, delta: int, pe: int) -> int:
        self.hamster.sync.lock(self._atomic())
        try:
            old = int(self.shmem_g(sym, index, pe))
            sym.write(pe, index, old + delta)
            self.hamster.consistency.fence(self.consistency_model)
            return old
        finally:
            self.hamster.sync.unlock(self._atomic())

    # ------------------------------------------------------------ collectives
    def _reduce(self, sym: SymmetricArray, index: Any, op: str):
        """All-reduce over all PEs' slabs at ``index`` (barrier-bracketed)."""
        self.hamster.sync.barrier()
        values = [np.asarray(self.shmem_get(sym, index, pe))
                  for pe in range(self.shmem_n_pes())]
        # Everyone must finish reading the inputs before anyone overwrites
        # its slab with the result.
        self.hamster.sync.barrier()
        stacked = np.stack(values)
        if op == "sum":
            result = stacked.sum(axis=0)
        elif op == "max":
            result = stacked.max(axis=0)
        else:
            raise ModelError(f"unknown reduction op {op!r}")
        sym.write(self.shmem_my_pe(), index, result)
        self.hamster.consistency.fence(self.consistency_model)
        self.hamster.sync.barrier()
        return result

    def shmem_int_sum_to_all(self, sym: SymmetricArray, index: Any = slice(None)):
        return self._reduce(sym, index, "sum")

    def shmem_double_sum_to_all(self, sym: SymmetricArray, index: Any = slice(None)):
        return self._reduce(sym, index, "sum")

    def shmem_double_max_to_all(self, sym: SymmetricArray, index: Any = slice(None)):
        return self._reduce(sym, index, "max")

    def shmem_broadcast(self, sym: SymmetricArray, index: Any, root: int):
        """Copy root's slab section into every PE's slab."""
        self.hamster.sync.barrier()
        data = self.shmem_get(sym, index, root)
        sym.write(self.shmem_my_pe(), index, data)
        self.hamster.consistency.fence(self.consistency_model)
        self.hamster.sync.barrier()
        return data

    def shmem_collect(self, sym: SymmetricArray, index: Any = slice(None)):
        """Gather all PEs' slab sections; returns the stacked array."""
        self.hamster.sync.barrier()
        out = np.stack([np.asarray(self.shmem_get(sym, index, pe))
                        for pe in range(self.shmem_n_pes())])
        self.hamster.sync.barrier()
        return out


class _Reshaper:
    """Adapter presenting the padded (n_pes, per_row) backing array as
    (n_pes, *shape) slabs."""

    def __init__(self, backing, shape: Tuple[int, ...], flat: int) -> None:
        self.backing = backing
        self.shape = shape
        self.flat = flat

    def _lower(self, index: tuple):
        pe = index[0]
        rest = index[1:]
        if len(self.shape) <= 1:
            # 1-D slabs live directly in the row.
            inner = rest if rest else (slice(0, self.flat),)
            if isinstance(inner[0], slice):
                start, stop, _ = inner[0].indices(self.shape[0] if self.shape else self.flat)
                return (pe, slice(start, stop)), None
            return (pe, inner[0]), None
        # Multi-dim slabs: fall back to whole-row transfers + local reshape.
        return (pe, slice(0, self.flat)), rest

    def __getitem__(self, index: tuple):
        low, rest = self._lower(index)
        data = self.backing[low]
        if rest is None:
            return data
        data = data.reshape(self.shape)
        return data[rest] if rest else data

    def __setitem__(self, index: tuple, value) -> None:
        low, rest = self._lower(index)
        if rest is None:
            self.backing[low] = value
            return
        row = self.backing[low].reshape(self.shape)
        row[rest] = value
        self.backing[low] = row.reshape(-1)

    def refresh(self, index: tuple) -> None:
        low, _ = self._lower(index)
        self.backing.refresh(low)
