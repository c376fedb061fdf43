"""Typed shared arrays over global memory.

A :class:`SharedArray` gives application code natural numpy-style indexing
(``A[2:4, :] = x``) over a global :class:`~repro.memory.address_space.Region`
while routing every access through the DSM substrate with page-accurate
accounting — the simulation's stand-in for the MMU mapping a shared segment
into the application's address space.

Access flow (both directions):

1. the index expression is normalized and lowered to a list of contiguous
   byte *runs* within the region,
2. the DSM's ``access(node, region, runs, write)`` services any protection
   faults on the touched pages (fetch/twin/transaction costs in virtual
   time) and returns the buffer holding this node's view of the region,
3. data moves with real numpy reads/writes on that buffer, so protocol
   correctness is observable: tests compare DSM-computed results against
   plain sequential numpy.

Only unit-step basic indexing is supported (ints, ``:`` slices, and
contiguous ranges) — that covers the paper's benchmark suite; fancy/strided
indexing raises ``TypeError`` rather than silently miscounting pages.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.errors import MemoryError_
from repro.memory.address_space import Region

__all__ = ["SharedArray", "index_runs"]

#: A contiguous byte run within a region: (byte_offset, n_bytes).
Run = Tuple[int, int]


def _normalize_index(index: Any, shape: Tuple[int, ...]) -> List[Tuple[int, int]]:
    """Lower ``index`` to per-dimension (start, stop) unit-step bounds."""
    if not isinstance(index, tuple):
        index = (index,)
    if len(index) > len(shape):
        raise IndexError(f"too many indices for shape {shape}")
    bounds: List[Tuple[int, int]] = []
    for dim, idx in enumerate(index):
        n = shape[dim]
        if isinstance(idx, (int, np.integer)):
            i = int(idx)
            if i < 0:
                i += n
            if not (0 <= i < n):
                raise IndexError(f"index {idx} out of range for axis {dim} (size {n})")
            bounds.append((i, i + 1))
        elif isinstance(idx, slice):
            if idx.step not in (None, 1):
                raise TypeError("SharedArray supports only unit-step slices")
            start, stop, _ = idx.indices(n)
            if stop < start:
                stop = start
            bounds.append((start, stop))
        else:
            raise TypeError(f"unsupported index component {idx!r} "
                            "(SharedArray supports ints and unit-step slices)")
    for dim in range(len(index), len(shape)):
        bounds.append((0, shape[dim]))
    return bounds


def index_runs(bounds: Sequence[Tuple[int, int]], shape: Tuple[int, ...],
               itemsize: int, base_offset: int = 0) -> List[Run]:
    """Contiguous byte runs touched by unit-step ``bounds`` on a C-contiguous
    array. Exposed for direct testing (property tests compare against a
    brute-force byte enumeration)."""
    ndim = len(shape)
    # Row strides in bytes.
    strides = [itemsize] * ndim
    for d in range(ndim - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    # Find the largest fully-covered suffix of dimensions: inside it the
    # selection is contiguous.
    suffix = ndim
    while suffix > 0 and bounds[suffix - 1] == (0, shape[suffix - 1]):
        suffix -= 1
    # ``suffix`` is now the first dim index NOT part of the full suffix...
    # i.e. dims [suffix, ndim) are fully covered. The innermost partial dim
    # is suffix-1 (if any).
    if suffix == 0:
        total = strides[0] * shape[0] if ndim else itemsize
        return [(base_offset, total)]
    inner = suffix - 1
    run_len = (bounds[inner][1] - bounds[inner][0]) * strides[inner]
    if run_len == 0:
        return []
    # One run per index of the outer dims [0, inner), walked outermost
    # first (no recursive closure: it would be a reference cycle per call).
    offsets = [base_offset + bounds[inner][0] * strides[inner]]
    for dim in range(inner):
        start, stop = bounds[dim]
        stride = strides[dim]
        offsets = [off + i * stride for off in offsets
                   for i in range(start, stop)]
    offsets.sort()
    # Merge adjacent runs (common when an outer loop walks consecutive rows).
    merged: List[Run] = []
    for off in offsets:
        if merged and merged[-1][0] + merged[-1][1] == off:
            merged[-1] = (merged[-1][0], merged[-1][1] + run_len)
        else:
            merged.append((off, run_len))
    return merged


class SharedArray:
    """A numpy-typed window onto a global memory region.

    Created through the memory-management services (or a programming-model
    allocation call); not constructed directly by applications.
    """

    def __init__(self, dsm, region: Region, shape: Tuple[int, ...],
                 dtype: Any = np.float64, name: str = "") -> None:
        self.dsm = dsm
        self.region = region
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        self.name = name or region.name
        self.itemsize = self.dtype.itemsize
        self.nbytes = self.itemsize * int(np.prod(self.shape)) if self.shape else self.itemsize
        if self.nbytes > region.size:
            raise MemoryError_(
                f"array {self.name!r} needs {self.nbytes} bytes but region "
                f"has {region.size}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SharedArray {self.name} {self.shape} {self.dtype}>"

    # ------------------------------------------------------------ accessors
    def _runs(self, index: Any) -> List[Run]:
        bounds = _normalize_index(index, self.shape)
        return index_runs(bounds, self.shape, self.itemsize)

    def _view(self, buf: np.ndarray) -> np.ndarray:
        """Typed full-array view of a region byte buffer."""
        flat = buf[: self.nbytes].view(self.dtype)
        return flat.reshape(self.shape)

    def __getitem__(self, index: Any) -> np.ndarray:
        """Read through the DSM; returns a private copy of the data."""
        runs = self._runs(index)
        buf = self.dsm.access_runs(self.region, runs, write=False)
        return np.array(self._view(buf)[index], copy=True)

    def __setitem__(self, index: Any, value: Any) -> None:
        """Write through the DSM (protocol actions happen before mutation)."""
        runs = self._runs(index)
        buf = self.dsm.access_runs(self.region, runs, write=True)
        self._view(buf)[index] = value

    def get_g(self, index: Any):
        """Generator kernel of ``self[index]`` (``yield from`` it) —
        stackless bodies cannot block inside ``[]`` operators, so they read
        through this twin instead."""
        runs = self._runs(index)
        buf = yield from self.dsm.access_runs_g(self.region, runs, write=False)
        return np.array(self._view(buf)[index], copy=True)

    def set_g(self, index: Any, value: Any):
        """Generator kernel of ``self[index] = value`` (``yield from`` it)."""
        runs = self._runs(index)
        buf = yield from self.dsm.access_runs_g(self.region, runs, write=True)
        self._view(buf)[index] = value

    def read(self, index: Any = ()) -> np.ndarray:
        """Alias for ``self[index]`` (whole array by default)."""
        if index == ():
            index = tuple(slice(None) for _ in self.shape)
        return self[index]

    def write(self, index: Any, value: Any) -> None:
        """Alias for ``self[index] = value``."""
        self[index] = value

    def refresh(self, index: Any = ()) -> None:
        """Drop stale cached copies of the pages under ``index`` (whole
        array by default); used by one-sided get operations."""
        if index == ():
            index = tuple(slice(None) for _ in self.shape)
        self.dsm.refresh_runs(self.region, self._runs(index))

    # --------------------------------------------------------------- sugar
    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of 0-d shared array")
        return self.shape[0]

    def spans_for_index(self, index: Any) -> List[Tuple[int, int]]:
        """Sorted, disjoint inclusive global page spans an access to
        ``index`` would touch — the coalesced form of
        :meth:`pages_for_index` (two integers per contiguous extent)."""
        spans: List[Tuple[int, int]] = []
        for off, ln in self._runs(index):
            span = self.region.span_for(off, ln)
            if span is None:
                continue
            first, last = span
            if spans and first <= spans[-1][1] + 1:
                if last > spans[-1][1]:
                    spans[-1] = (spans[-1][0], last)
            else:
                spans.append((first, last))
        return spans

    def pages_for_index(self, index: Any) -> List[int]:
        """Global page numbers an access to ``index`` would touch (used by
        tests and by locality-aware home placement)."""
        pages: List[int] = []
        for first, last in self.spans_for_index(index):
            pages.extend(range(first, last + 1))
        return pages
