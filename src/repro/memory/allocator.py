"""Global allocator: first-fit with free-list coalescing.

Backs HAMSTER's global allocation services. Allocations are page-aligned and
page-granular (the coherence unit), matching how the SCI-VM and JiaJia carve
their shared segments. Freed blocks are coalesced with adjacent free
neighbours so long-running applications don't fragment the space.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import AllocationError
from repro.memory.address_space import GlobalAddressSpace, Region

__all__ = ["GlobalAllocator"]


class GlobalAllocator:
    """First-fit allocator over a :class:`GlobalAddressSpace`."""

    def __init__(self, space: GlobalAddressSpace, capacity: int = 1 << 31) -> None:
        self.space = space
        self.capacity = capacity
        page = space.page_size
        if capacity % page != 0:
            capacity -= capacity % page
            self.capacity = capacity
        # Free list of (start, size), sorted by start, page-aligned.
        self._free: List[Tuple[int, int]] = [(GlobalAddressSpace.BASE, capacity)]
        # ---------------------------------------------------- statistics
        self.allocated_bytes = 0
        self.peak_bytes = 0
        self.n_allocs = 0
        self.n_frees = 0

    # ------------------------------------------------------------ allocate
    def alloc(self, nbytes: int, name: str = "") -> Region:
        """Allocate ``nbytes`` (rounded up to whole pages)."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        page = self.space.page_size
        size = ((nbytes + page - 1) // page) * page
        for idx, (start, free_size) in enumerate(self._free):
            if free_size >= size:
                if free_size == size:
                    del self._free[idx]
                else:
                    self._free[idx] = (start + size, free_size - size)
                region = self.space.add_region(start, size, name)
                self.n_allocs += 1
                self.allocated_bytes += size
                self.peak_bytes = max(self.peak_bytes, self.allocated_bytes)
                return region
        raise AllocationError(
            f"out of global memory: need {size} bytes, "
            f"largest free block is {max((s for _, s in self._free), default=0)}")

    # ---------------------------------------------------------------- free
    def free(self, region: Region) -> None:
        """Return a region to the free list, coalescing with neighbours."""
        if region.freed:
            raise AllocationError(f"double free of {region!r}")
        self.space.drop_region(region)
        self.n_frees += 1
        self.allocated_bytes -= region.size
        start, size = region.gaddr, region.size
        # Insert sorted, then coalesce left and right.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (start, size))
        self._coalesce(lo)

    def _coalesce(self, idx: int) -> None:
        # Merge with right neighbour.
        if idx + 1 < len(self._free):
            s, z = self._free[idx]
            s2, z2 = self._free[idx + 1]
            if s + z == s2:
                self._free[idx] = (s, z + z2)
                del self._free[idx + 1]
        # Merge with left neighbour.
        if idx > 0:
            s0, z0 = self._free[idx - 1]
            s, z = self._free[idx]
            if s0 + z0 == s:
                self._free[idx - 1] = (s0, z0 + z)
                del self._free[idx]

    # ------------------------------------------------------------- queries
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    def largest_free_block(self) -> int:
        return max((size for _, size in self._free), default=0)

