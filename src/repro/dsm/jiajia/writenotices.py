"""Write notices and scope bookkeeping.

A write notice records "page P was modified by rank R in interval seq". In
scope consistency (JiaJia's model), notices are *bound to the lock* whose
critical section produced them: acquiring lock L delivers only L's notices;
the barrier is the global scope that delivers everyone's notices to
everybody.

:class:`NoticeLog` is the manager-side, monotonically growing log with
sequence numbers; clients remember the last sequence they have seen per
scope and receive only the tail — JiaJia's incremental write-notice
propagation.

What a receiver gets — a lock grant's tail, a barrier's merged notices —
is a :class:`NoticeBatch`: the same list of notices, which can also say,
page by page, whether a rank other than the receiver wrote it. A receiver
walks its own (few) valid pages and asks, instead of rescanning every
notice of a batch that all P receivers share.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["WriteNotice", "NoticeBatch", "NoticeLog", "NOTICE_WIRE_BYTES"]

#: wire size of one notice (page number + writer rank)
NOTICE_WIRE_BYTES = 10


@dataclass(frozen=True)
class WriteNotice:
    """One page-modification record."""

    page: int
    writer: int


class NoticeBatch(list):
    """A list of write notices, indexed by page on first question.

    The index maps each page to its one writer, or to -1 once two ranks
    wrote it; it is built once and shared by every receiver of the batch,
    so the batch must not grow after the first question.
    """

    __slots__ = ("_writers",)

    def __init__(self, notices: Iterable[WriteNotice] = ()) -> None:
        super().__init__(notices)
        self._writers: Optional[Dict[int, int]] = None

    def written_by_others(self, rank: int, pages: Iterable[int]) -> List[int]:
        """The pages of ``pages``, in order, that a rank other than
        ``rank`` wrote in this batch."""
        writers = self._writers
        if writers is None:
            writers = self._writers = {}
            for n in self:
                if writers.setdefault(n.page, n.writer) != n.writer:
                    writers[n.page] = -1
        return [p for p in pages if writers.get(p, rank) != rank]


class _LogSlice(NoticeBatch):
    """``NoticeLog.since``'s batch: answers from the log's per-page index,
    within its own ``[lo, hi)`` — the log may grow before it is applied."""

    __slots__ = ("_by_page", "_lo", "_hi")

    def __init__(self, log: "NoticeLog", lo: int) -> None:
        super().__init__(log._log[lo:])
        self._by_page = log._by_page
        self._lo, self._hi = lo, len(log._log)

    def written_by_others(self, rank: int, pages: Iterable[int]) -> List[int]:
        by_page, lo, hi = self._by_page, self._lo, self._hi
        out = []
        for p in pages:
            entries = by_page.get(p)
            if entries is None:
                continue
            k = bisect_left(entries, (lo,))
            while k < len(entries) and entries[k][0] < hi:
                if entries[k][1] != rank:
                    out.append(p)
                    break
                k += 1
        return out


class NoticeLog:
    """Append-only write-notice log with sequence-number cursors."""

    def __init__(self) -> None:
        self._log: List[WriteNotice] = []
        #: page -> ascending ``(log index, writer)`` of its notices
        self._by_page: Dict[int, List[Tuple[int, int]]] = {}

    @property
    def seq(self) -> int:
        """Current end-of-log sequence number."""
        return len(self._log)

    def append(self, notices: List[WriteNotice]) -> int:
        """Append notices; returns the new sequence number."""
        by_page = self._by_page
        for i, n in enumerate(notices, len(self._log)):
            by_page.setdefault(n.page, []).append((i, n.writer))
        self._log.extend(notices)
        return self.seq

    def since(self, cursor: int) -> Tuple[NoticeBatch, int]:
        """Notices after ``cursor`` plus the new cursor."""
        return _LogSlice(self, max(cursor, 0)), self.seq

