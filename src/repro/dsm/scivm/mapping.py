"""Kernel mapping component of the hybrid DSM.

The SCI-VM extends the OS's local memory management to remote pages: before
a node can issue hardware transactions against a remote page, a privileged
kernel module must program the SCI adapter's address translation table and
install the mapping in the local page tables (§2: "the only exception is a
kernel-level component..."). The mapping also implements protection: a page
can be mapped read-only or read-write, and unmapped pages are inaccessible.

:class:`RemoteMapper` models this: a per-rank table of mapped pages, a
one-time per-page mapping cost, and an ATT capacity with FIFO eviction
(real SCI adapters had a limited number of translation entries).
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["RemoteMapper"]


class RemoteMapper:
    """Per-rank remote page mapping table with bounded ATT capacity."""

    def __init__(self, sci, rank: int, att_entries: int = 16384) -> None:
        self.sci = sci
        self.rank = rank
        self.att_entries = att_entries
        #: mapped page -> True; ordered for FIFO eviction
        self._mapped: "OrderedDict[int, bool]" = OrderedDict()
        # ---------------------------------------------------- statistics
        self.maps = 0
        self.evictions = 0

    def ensure_mapped(self, page: int) -> bool:
        """Map ``page`` if needed; returns True when a new mapping was
        created (and its kernel cost charged)."""
        return self.sci.engine.kernel(self.ensure_mapped_g(page))

    def ensure_mapped_g(self, page: int):
        """Generator kernel of :meth:`ensure_mapped` (``yield from`` it)."""
        if page in self._mapped:
            return False
        if len(self._mapped) >= self.att_entries:
            self._mapped.popitem(last=False)
            self.evictions += 1
        self._mapped[page] = True
        self.maps += 1
        yield from self.sci.map_pages_g(1)
        return True

    def unmap(self, page: int) -> None:
        self._mapped.pop(page, None)

