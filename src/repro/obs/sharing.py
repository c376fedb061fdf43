"""Sharing-pattern recording: the protocol-level analytics stream.

Where :mod:`repro.obs.spans` answers *"where did the time go?"*,
:mod:`repro.obs.sharing` answers *"why is the memory system busy?"* — it
records, per page × per rank over virtual time, the protocol stream the DSM
substrates already generate (faults, fetches, write notices, invalidations,
protection-state transitions, remote SCI transactions) plus the sync layer's
per-lock wait/hold times and barrier arrival skew. The detectors and
exporters that turn the stream into a diagnosis live in
:mod:`repro.obs.diagnose`.

The module follows the :data:`~repro.sim.trace.NULL_OBS` discipline exactly:

* **Zero cost when disabled.** Every engine carries the shared
  :data:`~repro.sim.trace.NULL_SHARING` sentinel; instrumentation sites
  guard on ``engine.sharing.enabled`` and skip all field computation when
  it is False. Nothing here ever charges virtual time, so disabled runs are
  bit-identical (enforced by ``repro.bench.diffcheck``).
* **Host-side only when enabled.** The recorder appends to plain Python
  structures; it never schedules events, touches node clocks, or perturbs
  the protocol — an instrumented run's virtual timeline equals the
  uninstrumented one.
* **Determinism.** The engine's strict hand-off means events arrive in a
  seeded run's canonical order; two runs of the same scenario produce an
  identical stream.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.trace import NULL_SHARING, NullSharing

__all__ = ["NullSharing", "NULL_SHARING", "SharingRecorder",
           "PageSharing", "LockSharing", "merge_interval"]

#: event-kind codes used in the flat stream (heatmap/export feed)
KIND_READ_FAULT = "fault.r"
KIND_WRITE_FAULT = "fault.w"
KIND_FETCH = "fetch"
KIND_INVALIDATE = "inval"
KIND_DOWNGRADE = "downgrade"
KIND_NOTICE = "notice"
KIND_REMOTE_READ = "remote.r"
KIND_REMOTE_WRITE = "remote.w"


def merge_interval(intervals: List[List[int]], lo: int, hi: int) -> None:
    """Merge half-open ``[lo, hi)`` into a sorted disjoint interval list,
    in place. Interval lists stay tiny (sub-page write extents), so the
    linear scan is cheaper than an interval tree."""
    if hi <= lo:
        return
    out: List[List[int]] = []
    placed = False
    for iv in intervals:
        if iv[1] < lo or iv[0] > hi:     # disjoint, not even adjacent
            if not placed and iv[0] > hi:
                out.append([lo, hi])
                placed = True
            out.append(iv)
        else:                            # overlapping or adjacent: absorb
            lo = min(lo, iv[0])
            hi = max(hi, iv[1])
    if not placed:
        out.append([lo, hi])
        out.sort()
    intervals[:] = out


class PageSharing:
    """Accumulated sharing state of one global page."""

    __slots__ = ("page", "read_faults", "write_faults", "fetches",
                 "fetch_bytes", "invalidations", "downgrades", "notices",
                 "remote_reads", "remote_writes", "reads", "writes",
                 "by_rank", "write_ranges", "writer_log", "writer_events",
                 "first_write_t", "last_write_t")

    def __init__(self, page: int) -> None:
        self.page = page
        self.read_faults = 0
        self.write_faults = 0
        self.fetches = 0
        self.fetch_bytes = 0
        self.invalidations = 0
        self.downgrades = 0
        self.notices = 0
        self.remote_reads = 0
        self.remote_writes = 0
        self.reads = 0
        self.writes = 0
        #: rank -> per-rank protocol event counts
        self.by_rank: Dict[int, Dict[str, int]] = {}
        #: rank -> sorted disjoint [lo, hi) byte intervals written, page-local
        self.write_ranges: Dict[int, List[List[int]]] = {}
        #: compressed writer-alternation log: (t, rank), appended only when
        #: the writing rank changes — ping-pong evidence in O(alternations)
        self.writer_log: List[Tuple[float, int]] = []
        self.writer_events = 0
        self.first_write_t: Optional[float] = None
        self.last_write_t: Optional[float] = None

    def protocol_events(self) -> int:
        return (self.read_faults + self.write_faults + self.fetches
                + self.invalidations + self.downgrades + self.notices
                + self.remote_reads + self.remote_writes)

    def rank_count(self, rank: int, key: str, n: int = 1) -> None:
        counts = self.by_rank.get(rank)
        if counts is None:
            counts = self.by_rank[rank] = {}
        counts[key] = counts.get(key, 0) + n

    def page_write(self, rank: int, t: float) -> None:
        """Feed the writer-alternation log (protocol-level write events:
        JiaJia write notices, SCI-VM remote writes)."""
        self.writer_events += 1
        if self.first_write_t is None:
            self.first_write_t = t
        self.last_write_t = t
        log = self.writer_log
        if not log or log[-1][1] != rank:
            log.append((t, rank))

    @property
    def alternations(self) -> int:
        """Number of times the writing rank changed hands."""
        return max(0, len(self.writer_log) - 1)


class LockSharing:
    """Accumulated wait/hold profile of one global lock."""

    __slots__ = ("lock_id", "acquires", "contended", "wait_total",
                 "wait_max", "hold_total", "hold_max", "by_rank",
                 "wait_hist", "hold_hist", "_held_at")

    def __init__(self, lock_id: int) -> None:
        self.lock_id = lock_id
        self.acquires = 0
        self.contended = 0
        self.wait_total = 0.0
        self.wait_max = 0.0
        self.hold_total = 0.0
        self.hold_max = 0.0
        self.by_rank: Dict[int, int] = {}
        #: log-scale histograms: bucket exponent -> count (see _bucket)
        self.wait_hist: Dict[int, int] = {}
        self.hold_hist: Dict[int, int] = {}
        self._held_at: Dict[int, float] = {}  # rank -> acquire time

    @staticmethod
    def _bucket(seconds: float) -> int:
        """Power-of-ten bucket exponent: 3e-6 s -> -6, 0.2 s -> -1.
        Sub-100ns times collapse into the -8 bucket; zero stays at -9."""
        if seconds <= 0:
            return -9
        exp = -8
        edge = 1e-8
        while seconds >= edge * 10 and exp < 2:
            edge *= 10
            exp += 1
        return exp


class SharingRecorder:
    """Collects the per-page / per-lock sharing stream of one simulation.

    All methods are host-side appends; see the module docstring for the
    invariants. ``max_events`` caps the flat event stream (the heatmap
    feed); aggregates keep counting after the cap, and ``dropped`` records
    how many stream entries were discarded.
    """

    enabled = True

    def __init__(self, engine, max_events: int = 1_000_000) -> None:
        self.engine = engine
        self.pages: Dict[int, PageSharing] = {}
        self.locks: Dict[int, LockSharing] = {}
        #: flat (t, kind, page, rank) stream for heatmaps/traces
        self.events: List[Tuple[float, str, int, int]] = []
        self.max_events = max_events
        self.dropped = 0
        #: barrier episodes: index -> {"arrive": {rank: t}, "depart": {rank: t}}
        self.barrier_episodes: List[Dict[str, Dict[int, float]]] = []
        self._barrier_index: Dict[int, int] = {}

    # ------------------------------------------------------------- plumbing
    def _page(self, page: int) -> PageSharing:
        ps = self.pages.get(page)
        if ps is None:
            ps = self.pages[page] = PageSharing(page)
        return ps

    def _lock(self, lock_id: int) -> LockSharing:
        ls = self.locks.get(lock_id)
        if ls is None:
            ls = self.locks[lock_id] = LockSharing(lock_id)
        return ls

    def _emit(self, t: float, kind: str, page: int, rank: int) -> None:
        if len(self.events) < self.max_events:
            self.events.append((t, kind, page, rank))
        else:
            self.dropped += 1

    # ------------------------------------------------------ page-level feed
    def access(self, rank: int, page: int, lo: int, hi: int,
               write: bool) -> None:
        """Sub-page access extent ``[lo, hi)`` (page-local byte offsets),
        from the span/run information the access path already computes.
        Writes feed the per-rank written-range map the false-sharing
        detector intersects."""
        ps = self._page(page)
        if write:
            ps.writes += 1
            ranges = ps.write_ranges.get(rank)
            if ranges is None:
                ranges = ps.write_ranges[rank] = []
            merge_interval(ranges, lo, hi)
        else:
            ps.reads += 1

    def fault(self, rank: int, page: int, write: bool, t: float) -> None:
        ps = self._page(page)
        if write:
            ps.write_faults += 1
            ps.rank_count(rank, "write_faults")
            self._emit(t, KIND_WRITE_FAULT, page, rank)
        else:
            ps.read_faults += 1
            ps.rank_count(rank, "read_faults")
            self._emit(t, KIND_READ_FAULT, page, rank)

    def fetch(self, rank: int, page: int, home: int, nbytes: int,
              t: float) -> None:
        ps = self._page(page)
        ps.fetches += 1
        ps.fetch_bytes += nbytes
        ps.rank_count(rank, "fetches")
        self._emit(t, KIND_FETCH, page, rank)

    def notice(self, page: int, writer: int, t: float) -> None:
        """A write notice announced ``writer`` modified ``page`` this
        interval — the protocol's own ownership/owner-migration stream."""
        ps = self._page(page)
        ps.notices += 1
        ps.rank_count(writer, "notices")
        ps.page_write(writer, t)
        self._emit(t, KIND_NOTICE, page, writer)

    def transition(self, rank: int, page: int, old: int, new: int,
                   t: float) -> None:
        """PageTable protection-state transition (states are
        :class:`~repro.memory.page.PageState` ints). Invalidation and
        downgrade counts come from here, so every protocol path that drops
        protection is covered without per-call-site hooks."""
        if new == 0 and old != 0:                 # -> INVALID
            ps = self._page(page)
            ps.invalidations += 1
            ps.rank_count(rank, "invalidations")
            self._emit(t, KIND_INVALIDATE, page, rank)
        elif new == 1 and old == 2:               # READ_WRITE -> READ_ONLY
            ps = self._page(page)
            ps.downgrades += 1
            ps.rank_count(rank, "downgrades")
            self._emit(t, KIND_DOWNGRADE, page, rank)

    def remote(self, rank: int, page: int, home: int, write: bool,
               nbytes: int, t: float) -> None:
        """SCI-VM hardware transaction against a remote home page."""
        ps = self._page(page)
        if write:
            ps.remote_writes += 1
            ps.rank_count(rank, "remote_writes")
            ps.page_write(rank, t)
            self._emit(t, KIND_REMOTE_WRITE, page, rank)
        else:
            ps.remote_reads += 1
            ps.rank_count(rank, "remote_reads")
            self._emit(t, KIND_REMOTE_READ, page, rank)

    # ------------------------------------------------------ sync-level feed
    def lock_acquired(self, lock_id: int, rank: int, t_request: float,
                      t_acquired: float) -> None:
        ls = self._lock(lock_id)
        wait = max(0.0, t_acquired - t_request)
        ls.acquires += 1
        ls.by_rank[rank] = ls.by_rank.get(rank, 0) + 1
        ls.wait_total += wait
        if wait > ls.wait_max:
            ls.wait_max = wait
        if wait > 0:
            ls.contended += 1
        b = LockSharing._bucket(wait)
        ls.wait_hist[b] = ls.wait_hist.get(b, 0) + 1
        ls._held_at[rank] = t_acquired

    def lock_released(self, lock_id: int, rank: int, t_released: float) -> None:
        ls = self._lock(lock_id)
        t_acq = ls._held_at.pop(rank, None)
        if t_acq is None:
            return
        hold = max(0.0, t_released - t_acq)
        ls.hold_total += hold
        if hold > ls.hold_max:
            ls.hold_max = hold
        b = LockSharing._bucket(hold)
        ls.hold_hist[b] = ls.hold_hist.get(b, 0) + 1

    def barrier(self, rank: int, t_arrive: float, t_depart: float) -> None:
        """One rank's passage through a global barrier. Barriers are
        global and in program order per rank, so the rank's episode index
        is simply how many barriers it has completed."""
        episode = self._barrier_index.get(rank, 0)
        self._barrier_index[rank] = episode + 1
        while len(self.barrier_episodes) <= episode:
            self.barrier_episodes.append({"arrive": {}, "depart": {}})
        ep = self.barrier_episodes[episode]
        ep["arrive"][rank] = t_arrive
        ep["depart"][rank] = t_depart

    # --------------------------------------------------------------- queries
    def write_events(self) -> List[Tuple[float, int, int]]:
        """The flat protocol-write stream as ``(t, page, rank)`` tuples —
        the exact input shape :func:`repro.obs.diagnose.ping_pong_pages`
        consumes (compressed reconstruction; alternation-preserving)."""
        out: List[Tuple[float, int, int]] = []
        for page, ps in sorted(self.pages.items()):
            out.extend((t, page, rank) for t, rank in ps.writer_log)
        return out

    def ranks_seen(self) -> List[int]:
        ranks = set()
        for ps in self.pages.values():
            ranks.update(ps.by_rank)
            ranks.update(ps.write_ranges)
        for ls in self.locks.values():
            ranks.update(ls.by_rank)
        for ep in self.barrier_episodes:
            ranks.update(ep["arrive"])
        return sorted(ranks)

    def __len__(self) -> int:
        return len(self.events)
