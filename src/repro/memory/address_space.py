"""Global address space and regions.

Addresses are plain integers in one flat, cluster-wide space (like the
SCI-VM's global virtual address space). A :class:`Region` is a page-aligned,
contiguous allocation; pages are numbered globally (``gaddr // page_size``),
so a global page number identifies one coherence unit everywhere in the
framework.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.errors import MemoryError_

__all__ = ["Region", "GlobalAddressSpace"]


class Region:
    """One contiguous, page-aligned global allocation."""

    __slots__ = ("region_id", "gaddr", "size", "page_size", "name", "freed")

    def __init__(self, region_id: int, gaddr: int, size: int, page_size: int,
                 name: str = "") -> None:
        if gaddr % page_size != 0:
            raise MemoryError_(f"region base {gaddr:#x} not page aligned")
        self.region_id = region_id
        self.gaddr = gaddr
        self.size = size
        self.page_size = page_size
        self.name = name or f"region{region_id}"
        self.freed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Region {self.name} id={self.region_id} "
                f"gaddr={self.gaddr:#x} size={self.size}>")

    # ------------------------------------------------------------ geometry
    @property
    def end(self) -> int:
        return self.gaddr + self.size

    @property
    def n_pages(self) -> int:
        return (self.size + self.page_size - 1) // self.page_size

    @property
    def first_page(self) -> int:
        """Global page number of this region's first page."""
        return self.gaddr // self.page_size

    def pages(self) -> range:
        """All global page numbers of this region."""
        return range(self.first_page, self.first_page + self.n_pages)

    def contains(self, gaddr: int) -> bool:
        return self.gaddr <= gaddr < self.end

    def pages_for(self, offset: int, nbytes: int) -> range:
        """Global page numbers touched by ``nbytes`` at region ``offset``."""
        if nbytes == 0:
            return range(0)
        self._check_range(offset, nbytes)
        first = (self.gaddr + offset) // self.page_size
        last = (self.gaddr + offset + nbytes - 1) // self.page_size
        return range(first, last + 1)

    def span_for(self, offset: int, nbytes: int) -> Optional[Tuple[int, int]]:
        """Inclusive global page span ``(first, last)`` touched by ``nbytes``
        at region ``offset``, or ``None`` for a zero-length access.

        A span is the coalesced form of :meth:`pages_for`: two integers no
        matter how many pages a contiguous access covers, so bulk accesses
        carry page *extents* through the DSM layers instead of per-page
        lists. Expansion back to individual pages happens only where
        protection states force it.
        """
        if nbytes == 0:
            return None
        self._check_range(offset, nbytes)
        first = (self.gaddr + offset) // self.page_size
        last = (self.gaddr + offset + nbytes - 1) // self.page_size
        return first, last

    def page_offset(self, page: int) -> int:
        """Byte offset within the region of global page ``page``'s start
        (clamped to 0 for the first page of an unaligned view)."""
        off = page * self.page_size - self.gaddr
        if not (0 <= off < self.size):
            raise MemoryError_(f"page {page} not in {self!r}")
        return off

    def page_extent(self, page: int) -> Tuple[int, int]:
        """(offset, length) of global page ``page`` clipped to the region."""
        off = self.page_offset(page)
        return off, min(self.page_size, self.size - off)

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise MemoryError_(
                f"access [{offset}, {offset + nbytes}) outside {self!r}")


class GlobalAddressSpace:
    """Flat cluster-wide address space handing out page-aligned regions.

    The base address is deliberately non-zero so that global addresses are
    visibly distinct from offsets in traces and tests.
    """

    BASE = 0x4000_0000

    def __init__(self, page_size: int = 4096) -> None:
        if page_size <= 0 or page_size & (page_size - 1):
            raise MemoryError_(f"page size must be a power of two, got {page_size}")
        self.page_size = page_size
        self._regions: List[Region] = []     # sorted by gaddr
        self._starts: List[int] = []
        self._next_id = 0

    # ---------------------------------------------------------- bookkeeping
    def add_region(self, gaddr: int, size: int, name: str = "") -> Region:
        """Register a region at ``gaddr`` (allocator calls this)."""
        region = Region(self._next_id, gaddr, size, self.page_size, name)
        self._next_id += 1
        idx = bisect.bisect_left(self._starts, gaddr)
        # Overlap check against neighbours.
        if idx > 0 and self._regions[idx - 1].end > gaddr:
            raise MemoryError_(f"region at {gaddr:#x} overlaps {self._regions[idx-1]!r}")
        if idx < len(self._regions) and self._regions[idx].gaddr < gaddr + size:
            raise MemoryError_(f"region at {gaddr:#x} overlaps {self._regions[idx]!r}")
        self._regions.insert(idx, region)
        self._starts.insert(idx, gaddr)
        return region

    def drop_region(self, region: Region) -> None:
        idx = bisect.bisect_left(self._starts, region.gaddr)
        if idx >= len(self._regions) or self._regions[idx] is not region:
            raise MemoryError_(f"{region!r} is not registered")
        del self._regions[idx]
        del self._starts[idx]
        region.freed = True

    # -------------------------------------------------------------- lookup
    def region_at(self, gaddr: int) -> Optional[Region]:
        """The region containing ``gaddr``, or ``None``."""
        idx = bisect.bisect_right(self._starts, gaddr) - 1
        if idx >= 0 and self._regions[idx].contains(gaddr):
            return self._regions[idx]
        return None

    def resolve(self, gaddr: int) -> Tuple[Region, int]:
        """(region, offset) for ``gaddr``; raises on unmapped addresses."""
        region = self.region_at(gaddr)
        if region is None:
            raise MemoryError_(f"address {gaddr:#x} is not globally mapped")
        return region, gaddr - region.gaddr

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)
