"""Pages, protection states, and per-node page tables.

On the paper's platform, page protection lives in the MMU and the DSM reacts
to SIGSEGV. Here protection is an explicit :class:`PageTable` consulted by
the DSM on every (bulk) access; a protection miss plays the role of the page
fault and triggers the same protocol transitions.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import ProtectionError

__all__ = ["PageState", "PageTable"]


class PageState(enum.IntEnum):
    """Classic three-state page protection."""

    INVALID = 0      #: no valid local copy; any access faults
    READ_ONLY = 1    #: valid copy; writes fault (twin/diff protocols hook here)
    READ_WRITE = 2   #: valid, writable copy

    def allows(self, write: bool) -> bool:
        if write:
            return self is PageState.READ_WRITE
        return self is not PageState.INVALID


class PageTable:
    """Protection states for one node (sparse: absent page = INVALID)."""

    def __init__(self, name: str = "pt") -> None:
        self.name = name
        self._states: Dict[int, PageState] = {}
        #: optional transition observer ``fn(page, old, new)`` fed by every
        #: protection change (repro.obs.sharing attaches here when sharing
        #: diagnosis is on; None — the default — costs one falsy check)
        self.on_transition = None
        # ---------------------------------------------------- statistics
        self.read_faults = 0
        self.write_faults = 0

    @property
    def states(self) -> Mapping[int, PageState]:
        """The live page -> state map (an absent page is INVALID), for loops
        that probe many pages; states change only through the methods."""
        return self._states

    def state(self, page: int) -> PageState:
        return self._states.get(page, PageState.INVALID)

    def set_state(self, page: int, state: PageState) -> None:
        if self.on_transition is not None:
            old = self._states.get(page, PageState.INVALID)
            if old is not state:
                self.on_transition(page, int(old), int(state))
        if state is PageState.INVALID:
            self._states.pop(page, None)
        else:
            self._states[page] = state

    def invalidate(self, page: int) -> None:
        old = self._states.pop(page, None)
        if old is not None and self.on_transition is not None:
            self.on_transition(page, int(old), 0)

    def invalidate_many(self, pages: Iterable[int]) -> int:
        """Invalidate the given pages; returns how many were actually valid."""
        n = 0
        hook = self.on_transition
        for p in pages:
            old = self._states.pop(p, None)
            if old is not None:
                n += 1
                if hook is not None:
                    hook(p, int(old), 0)
        return n

    def faulting_pages(self, pages: Iterable[int], write: bool) -> List[int]:
        """Pages of ``pages`` whose current state does not allow the access.

        This is the simulation's MMU walk: the returned pages are exactly the
        ones that would have raised protection faults on real hardware.
        """
        out = []
        for p in pages:
            if not self.state(p).allows(write):
                out.append(p)
        if write:
            self.write_faults += len(out)
        else:
            self.read_faults += len(out)
        return out

    def faulting_in_spans(self, spans: Sequence[Tuple[int, int]],
                          write: bool) -> List[int]:
        """Span form of :meth:`faulting_pages`: identical fault list and
        counter updates for the pages covered by inclusive ``(first, last)``
        spans, without materializing the page list first.

        The inner loop compares raw table values against the required
        protection level (READ_ONLY for reads, READ_WRITE for writes), so a
        span whose pages are all sufficiently mapped is skipped with one
        dict probe per page and no enum dispatch.
        """
        states = self._states
        need = int(PageState.READ_WRITE) if write else int(PageState.READ_ONLY)
        out: List[int] = []
        for first, last in spans:
            for p in range(first, last + 1):
                if states.get(p, 0) < need:
                    out.append(p)
        if write:
            self.write_faults += len(out)
        else:
            self.read_faults += len(out)
        return out

    def valid_pages(self) -> List[int]:
        return sorted(self._states)

    def check(self, page: int, write: bool) -> None:
        """Raise :class:`ProtectionError` if the access is not allowed —
        used by DSMs that have no way to service a fault (e.g. an access
        to a page that was never globally allocated)."""
        if not self.state(page).allows(write):
            kind = "write" if write else "read"
            raise ProtectionError(f"{self.name}: {kind} to page {page} "
                                  f"in state {self.state(page).name}")

    def __len__(self) -> int:
        return len(self._states)
