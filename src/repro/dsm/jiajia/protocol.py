"""Home-based scope-consistency protocol (the JiaJia reimplementation).

Data layout
-----------
Every rank lazily owns a full-size local buffer per region. The *home* rank's
buffer holds the authoritative copy of each of its pages; other ranks hold
cached copies guarded by a per-rank :class:`~repro.memory.page.PageTable`.

Access path (the simulated MMU + SIGSEGV handler)
-------------------------------------------------
``_access`` computes the faulting pages for the touched page set.

* read fault on a remote-home page → ``getpage`` RPC to the home (one round
  trip *per page*, as on real hardware where the CPU faults page by page);
  the reply bytes are copied into the local buffer, state → READ_ONLY.
* write fault → fetch if invalid, then **twin** the page, mark it dirty,
  state → READ_WRITE. Write faults on own-home pages skip twin/fetch (home
  copies are authoritative) but are still recorded as dirty for notices.

Synchronization path
--------------------
``unlock`` and ``barrier`` *flush*: for every dirty remote-home page a diff
(twin vs current) is computed and shipped to its home (batched per home,
acknowledged before the release proceeds — home-based eager release).
Write notices for all flushed pages are then bound to the lock's scope
(unlock) or globalized (barrier). ``lock`` delivers the scope's unseen
notices and invalidates exactly those cached pages — scope consistency.

Lock managers are distributed (lock id mod n_procs); the barrier manager is
rank 0. Manager traffic uses the messaging fabric, so the native-vs-HAMSTER
messaging-stack cost difference (§3.3) applies to protocol traffic exactly
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dsm.base import GlobalMemorySystem, Run
from repro.dsm.jiajia.diffs import Diff, apply_diff, diff_wire_size, make_diff
from repro.dsm.jiajia.writenotices import (NOTICE_WIRE_BYTES, NoticeBatch,
                                           NoticeLog, WriteNotice)
from repro.errors import ConfigurationError, SynchronizationError
from repro.machine.cluster import Cluster
from repro.memory.address_space import Region
from repro.memory.layout import Distribution
from repro.memory.page import PageState, PageTable
from repro.msg.active_messages import Reply
from repro.msg.coalesce import MessagingFabric
from repro.sim.process import PARK
from repro.sim.trace import NULL_SPAN

__all__ = ["JiaJiaSystem"]

PAGE_WIRE_HEADER = 16


class _LocalWaiter:
    """A same-node lock request parked without a network round trip."""

    __slots__ = ("proc", "rank", "cursor", "granted", "notices", "seq")

    def __init__(self, proc, rank: int, cursor: int) -> None:
        self.proc = proc
        self.rank = rank
        self.cursor = cursor
        self.granted = False
        self.notices: Optional[NoticeBatch] = None
        self.seq = 0


@dataclass
class _LockState:
    """Manager-side state of one global lock."""

    holder: Optional[int] = None
    queue: List[object] = field(default_factory=list)  # Message | _LocalWaiter
    log: NoticeLog = field(default_factory=NoticeLog)


class JiaJiaSystem(GlobalMemorySystem):
    """JiaJia-style SW-DSM over the message fabric."""

    kind = "jiajia"

    #: consecutive dirty intervals before a home page enters the adaptive
    #: single-writer assumption (write detection disabled)
    ASSUME_STREAK = 3
    #: intervals an assumed page stays undetected before one revalidation
    ASSUME_REVALIDATE = 8

    def __init__(self, cluster: Cluster, fabric: Optional[MessagingFabric] = None,
                 n_procs: Optional[int] = None,
                 placement: Optional[Sequence[int]] = None,
                 scope_consistency: bool = True) -> None:
        super().__init__(cluster, n_procs=n_procs, placement=placement)
        if cluster.network is None:
            raise ConfigurationError("JiaJia needs a network (Beowulf/SCI cluster)")
        self.fabric = fabric if fabric is not None else MessagingFabric(
            cluster, integrated=cluster.params.coalesce_messaging)
        self.chan = self.fabric.channel("jiajia")
        self._nodes = [cluster.node(n) for n in self.placement]  # per rank
        #: scope consistency (JiaJia) vs lazy-release-style global notice
        #: delivery on every acquire (the consistency ablation)
        self.scope_consistency = scope_consistency

        # ----------------------------------------------------- per-rank state
        self._buffers: Dict[Tuple[int, int], np.ndarray] = {}
        self._ptables: List[PageTable] = [PageTable(f"jj.pt{r}")
                                          for r in range(self.n_procs)]
        self._twins: List[Dict[int, np.ndarray]] = [dict() for _ in range(self.n_procs)]
        self._dirty: List[Dict[int, Region]] = [dict() for _ in range(self.n_procs)]
        #: notices generated since this rank's last barrier (merged there)
        self._history: List[List[WriteNotice]] = [[] for _ in range(self.n_procs)]
        #: notices generated since this rank's last *release* — an explicit
        #: fence inside a critical section must still bind its notices to
        #: the lock's scope at the next unlock
        self._pending: List[List[WriteNotice]] = [[] for _ in range(self.n_procs)]
        #: per-rank, per-lock notice cursors
        self._cursors: List[Dict[int, int]] = [dict() for _ in range(self.n_procs)]
        #: adaptive write detection: consecutive-dirty streaks and the set
        #: of home pages currently assumed dirty (page -> intervals held)
        self._dirty_streak: List[Dict[int, int]] = [dict() for _ in range(self.n_procs)]
        self._assumed: List[Dict[int, int]] = [dict() for _ in range(self.n_procs)]

        # ------------------------------------------------------ manager state
        self._locks: Dict[int, _LockState] = {}
        self._barrier_round: List[object] = []      # Message | _LocalWaiter
        self._barrier_notices = NoticeBatch()
        self._barrier_generation = 0
        self._global_log = NoticeLog()  # what acquires deliver in RC mode

        # ------------------------------------------------------- home mapping
        self._home: Dict[int, int] = {}             # page -> home rank
        self._lazy_pages: Set[int] = set()          # pages with first-touch homes
        self._home_cache: List[Dict[int, int]] = [dict() for _ in range(self.n_procs)]
        self._regions: Dict[int, Region] = {}       # region id -> region

        self._install_handlers()

        if self.engine.sharing.enabled:
            # Sharing diagnosis: observe every protection transition (the
            # invalidation/downgrade stream) per rank. Attached only when
            # enabled, so the default path keeps the None fast check.
            sharing = self.engine.sharing
            engine = self.engine
            for r, pt in enumerate(self._ptables):
                pt.on_transition = (
                    lambda page, old, new, _r=r:
                    sharing.transition(_r, page, old, new, engine.now))

    # ------------------------------------------------------------- handlers
    def _install_handlers(self) -> None:
        self.chan.register_all("getpage", lambda nid: self._h_getpage)
        self.chan.register_all("putdiffs", lambda nid: self._h_putdiffs)
        self.chan.register_all("gethome", lambda nid: self._h_gethome)
        self.chan.register_all("lock.acq", lambda nid: self._h_lock_acq)
        self.chan.register_all("lock.tryacq", lambda nid: self._h_lock_tryacq)
        self.chan.register_all("lock.rel", lambda nid: self._h_lock_rel)
        self.chan.register_all("barrier.arrive", lambda nid: self._h_barrier_arrive)

    # --------------------------------------------------------------- regions
    def _setup_region(self, region: Region, distribution: Distribution) -> None:
        homes = distribution.assign(region.n_pages, self.n_procs)
        self._regions[region.region_id] = region
        for i, page in enumerate(region.pages()):
            if homes[i] is None:
                self._lazy_pages.add(page)
            else:
                self._home[page] = homes[i]

    def _teardown_region(self, region: Region) -> None:
        pages = set(region.pages())
        self._regions.pop(region.region_id, None)
        for rank in range(self.n_procs):
            self._buffers.pop((rank, region.region_id), None)
            for page in region.pages():
                self._ptables[rank].invalidate(page)
                self._twins[rank].pop(page, None)
                self._dirty[rank].pop(page, None)
                self._home_cache[rank].pop(page, None)
                self._dirty_streak[rank].pop(page, None)
                self._assumed[rank].pop(page, None)
            self._pending[rank] = [n for n in self._pending[rank]
                                   if n.page not in pages]
        for page in region.pages():
            self._home.pop(page, None)
            self._lazy_pages.discard(page)

    def _buffer(self, rank: int, region: Region) -> np.ndarray:
        key = (rank, region.region_id)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.zeros(region.size, dtype=np.uint8)
            self._buffers[key] = buf
        return buf

    # ---------------------------------------------------------------- homes
    def home_of_g(self, page: int, rank: Optional[int] = None):
        """Home rank of ``page``; resolves first-touch homes through the
        page's directory rank (page mod n_procs) on first use."""
        h = self._home.get(page)
        if h is not None:
            return h
        if page not in self._lazy_pages:
            raise ConfigurationError(f"page {page} is not globally allocated")
        if rank is None:
            rank = self.current_rank()
        cached = self._home_cache[rank].get(page)
        if cached is not None:
            return cached
        directory = page % self.n_procs
        if directory == rank:
            # We are the directory: claim it locally.
            self._home[page] = rank
            self._lazy_pages.discard(page)
            return rank
        h = yield from self.chan.rpc_g(
            self.node_of(rank), self.node_of(directory), "gethome",
            payload={"page": page, "requester": rank}, size=16)
        self._home_cache[rank][page] = h
        return h

    def _h_gethome(self, msg) -> Reply:
        page = msg.payload["page"]
        h = self._home.get(page)
        if h is None:
            h = msg.payload["requester"]
            self._home[page] = h
            self._lazy_pages.discard(page)
        return Reply(payload=h, size=8)

    # ---------------------------------------------------------------- access
    def _access_g(self, rank: int, region: Region, runs: List[Run],
                  write: bool):
        node = self._nodes[rank]
        pt = self._ptables[rank]
        buf = self._buffer(rank, region)
        # Contiguous accesses travel as page spans; the table walk expands
        # them only where a page's protection state forces a fault, so a
        # bulk access to resident pages costs O(spans) metadata instead of
        # O(pages). Faults themselves stay per page (the simulated CPU
        # faults page by page), so protocol traffic is unchanged.
        spans = self._page_spans(region, runs)
        faulting = pt.faulting_in_spans(spans, write)
        st = self.rank_stats[rank]
        if write:
            st.write_faults += len(faulting)
        else:
            st.read_faults += len(faulting)
        sharing = self.engine.sharing
        if sharing.enabled:
            now = self.engine.now
            for page in faulting:
                sharing.fault(rank, page, write, now)
            self._sharing_record_access(rank, region, runs, write)
        # The whole fault path, fetch and twin included, runs in this one
        # frame, with its lookups and charge methods bound once per access.
        engine, obs, params = self.engine, self.engine.obs, self.params
        cpu_cost, touch_cost = node.cpu_cost, node.bus.touch_cost
        fault_cost = params.fault_handling_cost + params.hamster_fault_hook
        states, homes = pt.states, self._home
        dirty, twins = self._dirty[rank], self._twins[rank]
        page_size, base, size = region.page_size, region.gaddr, region.size
        src = self.node_of(rank)
        for page in faulting:
            # One span per page fault (the simulated SIGSEGV); its getpage
            # fetch, the fetch's wire transfers and any fault-injected
            # retransmissions all hang below it in the causal tree.
            with (obs.span("dsm.fault", rank=rank, page=page, write=write)
                  if obs.enabled else NULL_SPAN):
                home = homes.get(page)
                if home is None:  # a first-touch page not yet resolved
                    home = yield from self.home_of_g(page, rank)
                state = states.get(page, PageState.INVALID)
                yield cpu_cost(fault_cost)
                if home == rank:
                    # Home pages are served locally; first touch enables them.
                    pt.set_state(page, PageState.READ_WRITE)
                else:
                    off = page * page_size - base
                    length = min(page_size, size - off)
                    if state is PageState.INVALID:
                        # getpage: the home's bytes land in the local copy
                        with (obs.span("dsm.fetch", rank=rank, page=page,
                                       home=home)
                              if obs.enabled else NULL_SPAN):
                            data = yield from self.chan.rpc_g(
                                src, self.node_of(home), "getpage",
                                payload={"page": page,
                                         "region": region.region_id},
                                size=PAGE_WIRE_HEADER)
                            buf[off:off + length] = data
                            yield touch_cost(length)
                        st.pages_fetched += 1
                        if engine.sharing.enabled:
                            engine.sharing.fetch(rank, page, home, length,
                                                 engine.now)
                        if engine.trace.enabled:
                            engine.trace.emit("jj.fetch", rank=rank,
                                              page=page, home=home)
                    if write:
                        if page not in twins:
                            twins[page] = buf[off:off + length].copy()
                            yield cpu_cost(params.twin_fixed_cost)
                            yield touch_cost(2 * length)
                            st.twins_created += 1
                        pt.set_state(page, PageState.READ_WRITE)
                    else:
                        pt.set_state(page, PageState.READ_ONLY)
                if write:
                    dirty[page] = region
        if write:
            # Non-faulting writes to pages already RW in this interval are
            # already in the dirty set; home pages reached RW earlier may be
            # written again in a *later* interval without a fault only if
            # they were not re-protected — the flush re-protects, so every
            # interval's first write lands here. Pages under the adaptive
            # single-writer assumption stay out of the dirty set (they are
            # auto-announced at flush without detection).
            assumed = self._assumed[rank]
            for first, last in spans:
                for page in range(first, last + 1):
                    if (page not in dirty and page not in assumed
                            and states.get(page) is PageState.READ_WRITE):
                        dirty[page] = region
        nbytes = sum(ln for _, ln in runs)
        yield touch_cost(nbytes)
        return buf

    def _h_getpage(self, msg):
        page = msg.payload["page"]
        home = self._home[page]
        region = self._regions[msg.payload["region"]]
        off = page * region.page_size - region.gaddr
        length = min(region.page_size, region.size - off)
        buf = self._buffer(home, region)
        node = self._nodes[home]
        yield node.cpu_cost(self.params.page_serve_cost)
        yield node.bus.touch_cost(length)
        return Reply(payload=buf[off:off + length].copy(), size=length + PAGE_WIRE_HEADER)

    # ----------------------------------------------------------------- flush
    def _flush_g(self, rank: int):
        """Ship all dirty pages' diffs home (awaited); returns the notices.

        This is the eager home-based release of JiaJia: after it returns,
        every home copy reflects this rank's interval writes.

        Adaptive single-writer detection: a home page found dirty for
        ``ASSUME_STREAK`` consecutive intervals stops being re-protected —
        the protocol *assumes* it dirty and announces it every interval
        without paying the fault. Every ``ASSUME_REVALIDATE``-th interval
        the page is re-protected once to revalidate the assumption (so a
        page that goes read-only, like an LU pivot panel, stops spamming
        notices). Correctness is unaffected: assumptions only ever add
        notices, never drop them.
        """
        dirty = self._dirty[rank]
        assumed = self._assumed[rank]
        # Streaks only count *consecutive* dirty intervals: prune entries
        # for pages quiet this interval (must happen even on fully quiet
        # flushes, before the early return).
        if self._dirty_streak[rank]:
            self._dirty_streak[rank] = {
                p: c for p, c in self._dirty_streak[rank].items() if p in dirty}
        if not dirty and not assumed:
            return []
        obs = self.engine.obs
        with (obs.span("dsm.flush", rank=rank, pages=len(dirty) + len(assumed))
              if obs.enabled else NULL_SPAN):
            return (yield from self._flush_dirty_g(rank, dirty, assumed))

    def _flush_dirty_g(self, rank: int, dirty: Dict[int, Region],
                       assumed: Dict[int, int]):
        node = self._nodes[rank]
        pt = self._ptables[rank]
        notices: List[WriteNotice] = []
        by_home: Dict[int, List[Diff]] = {}
        st = self.rank_stats[rank]
        streak = self._dirty_streak[rank]
        # Auto-announced pages: notice without detection; periodic
        # revalidation drops them back to the detected path.
        for page in list(assumed):
            notices.append(WriteNotice(page, rank))
            assumed[page] += 1
            if assumed[page] >= self.ASSUME_REVALIDATE:
                del assumed[page]
                streak[page] = self.ASSUME_STREAK - 1  # one fault re-enters
                pt.set_state(page, PageState.READ_ONLY)
        twins = self._twins[rank]
        homes = self._home
        cpu_cost, touch_cost = node.cpu_cost, node.bus.touch_cost
        diff_cost = self.params.diff_fixed_cost
        page_size = self.space.page_size
        buf_region = buf = None  # dirty pages cluster by region
        for page, region in dirty.items():
            notices.append(WriteNotice(page, rank))
            home = homes.get(page)
            if home is None:
                home = yield from self.home_of_g(page, rank)
            if home == rank:
                streak[page] = streak.get(page, 0) + 1
                if streak[page] >= self.ASSUME_STREAK:
                    # Enter the single-writer assumption: stay writable.
                    assumed[page] = 0
                    del streak[page]
                else:
                    # Re-protect so the next interval's write is detected.
                    pt.set_state(page, PageState.READ_ONLY)
                continue
            twin = twins.pop(page)
            if region is not buf_region:
                buf_region, buf = region, self._buffer(rank, region)
            off = page * page_size - region.gaddr
            length = min(page_size, region.size - off)
            yield cpu_cost(diff_cost)
            yield touch_cost(2 * length)
            diff = make_diff(page, twin, buf[off:off + length])
            st.diffs_created += 1
            st.diff_bytes += diff.changed_bytes
            if not diff.empty:
                by_home.setdefault(home, []).append(diff)
            pt.set_state(page, PageState.READ_ONLY)
        for home, diffs in sorted(by_home.items()):
            size = sum(diff_wire_size(d) for d in diffs)
            yield from self.chan.rpc_g(
                self.node_of(rank), self.node_of(home), "putdiffs",
                payload={"diffs": diffs}, size=size)
        dirty.clear()
        if self.engine.sharing.enabled:
            # Write notices are the protocol's ownership stream: one per
            # page per interval, naming the writer — exactly what the
            # ping-pong detector alternates over.
            now = self.engine.now
            for n in notices:
                self.engine.sharing.notice(n.page, n.writer, now)
        self._history[rank].extend(notices)
        self._pending[rank].extend(notices)
        return notices

    def _h_putdiffs(self, msg):
        diffs: List[Diff] = msg.payload["diffs"]
        # One message carries one home's diffs (_flush_dirty_g groups by
        # home, and homes never migrate), clustered by region.
        home = self._home[diffs[0].page]
        node = self._nodes[home]
        cpu_cost, touch_cost = node.cpu_cost, node.bus.touch_cost
        apply_cost = self.params.diff_apply_fixed_cost
        page_size = self.space.page_size
        region = buf = None
        for diff in diffs:
            gaddr = diff.page * page_size
            if region is None or not region.contains(gaddr):
                region = self.space.region_at(gaddr)
                buf = self._buffer(home, region)
            off = gaddr - region.gaddr
            length = min(page_size, region.size - off)
            yield cpu_cost(apply_cost)
            written = apply_diff(buf[off:off + length], diff)
            yield touch_cost(2 * written)
        return Reply(payload=True, size=8)

    # ----------------------------------------------------------- invalidation
    def _apply_notices_g(self, rank: int, notices: NoticeBatch):
        pt = self._ptables[rank]
        st = self.rank_stats[rank]
        st.write_notices_received += len(notices)
        # Never invalidate a page this rank is mid-interval dirty on: its
        # local writes are still pending a flush (concurrent writers to one
        # page merge at the home via diffs — the multiple-writer protocol).
        dirty = self._dirty[rank]
        # Decided before the scan charge, which lets other tasks bound to
        # this rank run and dirty more pages.
        keep = None
        if any(n.writer != rank and n.page not in dirty for n in notices):
            keep = set(dirty)
        node = self._nodes[rank]
        # Scanning the notice list is a cheap vectorized pass; the real
        # per-page cost (mprotect) applies only to pages actually present.
        yield node.cpu_cost(len(notices) * self.params.notice_scan_cost)
        if keep is None:
            return
        # This rank's valid pages are few next to the batch, which every
        # receiver shares: ask the batch about each instead of rescanning it.
        invalidated = pt.invalidate_many(notices.written_by_others(
            rank, [p for p in pt.valid_pages() if p not in keep]))
        yield node.cpu_cost(invalidated * self.params.write_notice_cost)
        st.pages_invalidated += invalidated
        if self.engine.trace.enabled:
            self.engine.trace.emit("jj.invalidate", rank=rank, pages=invalidated)

    # ------------------------------------------------------------------ locks
    def _manager_of(self, lock_id: int) -> int:
        return lock_id % self.n_procs

    def _lock_state(self, lock_id: int) -> _LockState:
        if lock_id not in self._locks:
            self._locks[lock_id] = _LockState()
        return self._locks[lock_id]

    def lock_g(self, lock_id: int):
        rank = self.current_rank()
        obs = self.engine.obs
        with (obs.span("dsm.lock", rank=rank, lock=lock_id)
              if obs.enabled else NULL_SPAN):
            yield self._nodes[rank].cpu_cost(self.params.hamster_sync_hook)
            st = self.rank_stats[rank]
            st.lock_acquires += 1
            t0 = self.engine.now
            manager = self._manager_of(lock_id)
            cursor_key = lock_id if self.scope_consistency else -1
            cursor = self._cursors[rank].get(cursor_key, 0)
            if manager == rank:
                notices, seq = yield from self._local_lock_acquire_g(
                    lock_id, rank, cursor)
            else:
                result = yield from self.chan.rpc_g(
                    self.node_of(rank), self.node_of(manager), "lock.acq",
                    payload={"lock": lock_id, "rank": rank,
                             "cursor": cursor}, size=24)
                notices, seq = result["notices"], result["seq"]
            self._cursors[rank][cursor_key] = seq
            yield from self._apply_notices_g(rank, notices)
            st.lock_wait_time += self.engine.now - t0

    def _local_lock_acquire_g(self, lock_id: int, rank: int, cursor: int):
        node = self._nodes[rank]
        yield node.cpu_cost(self.params.os_sync_cost)
        ls = self._lock_state(lock_id)
        if ls.holder is None:
            ls.holder = rank
            return self._notices_for(ls, cursor)
        waiter = _LocalWaiter(self.engine.require_process(), rank, cursor)
        ls.queue.append(waiter)
        obs = self.engine.obs
        with (obs.span("dsm.wait", rank=rank, lock=lock_id)
              if obs.enabled else NULL_SPAN):
            while not waiter.granted:
                yield PARK
        return waiter.notices, waiter.seq

    def _notices_for(self, ls: _LockState, cursor: int) -> Tuple[NoticeBatch, int]:
        if self.scope_consistency:
            return ls.log.since(cursor)
        # Ablation mode: acquire delivers the *global* notice tail (lazy
        # release consistency approximation) — see _global_log.
        return self._global_log.since(cursor)

    def try_lock_g(self, lock_id: int):
        """Non-blocking acquire: one round trip to the manager either way."""
        rank = self.current_rank()
        manager = self._manager_of(lock_id)
        cursor_key = lock_id if self.scope_consistency else -1
        cursor = self._cursors[rank].get(cursor_key, 0)
        if manager == rank:
            node = self._nodes[rank]
            yield node.cpu_cost(self.params.os_sync_cost)
            ls = self._lock_state(lock_id)
            if ls.holder is not None:
                return False
            ls.holder = rank
            notices, seq = self._notices_for(ls, cursor)
        else:
            result = yield from self.chan.rpc_g(
                self.node_of(rank), self.node_of(manager), "lock.tryacq",
                payload={"lock": lock_id, "rank": rank,
                         "cursor": cursor}, size=24)
            if not result["granted"]:
                return False
            notices, seq = result["notices"], result["seq"]
        self._cursors[rank][cursor_key] = seq
        yield from self._apply_notices_g(rank, notices)
        self.rank_stats[rank].lock_acquires += 1
        return True

    def _h_lock_tryacq(self, msg) -> Reply:
        ls = self._lock_state(msg.payload["lock"])
        if ls.holder is not None:
            return Reply(payload={"granted": False}, size=16)
        ls.holder = msg.payload["rank"]
        notices, seq = self._notices_for(ls, msg.payload["cursor"])
        return Reply(payload={"granted": True, "notices": notices, "seq": seq},
                     size=16 + len(notices) * NOTICE_WIRE_BYTES)

    def _h_lock_acq(self, msg) -> Optional[Reply]:
        lock_id = msg.payload["lock"]
        rank = msg.payload["rank"]
        cursor = msg.payload["cursor"]
        ls = self._lock_state(lock_id)
        if ls.holder is None:
            ls.holder = rank
            notices, seq = self._notices_for(ls, cursor)
            return Reply(payload={"notices": notices, "seq": seq},
                         size=16 + len(notices) * NOTICE_WIRE_BYTES)
        ls.queue.append(msg)
        return None  # deferred grant

    def unlock_g(self, lock_id: int):
        rank = self.current_rank()
        obs = self.engine.obs
        with (obs.span("dsm.unlock", rank=rank, lock=lock_id)
              if obs.enabled else NULL_SPAN):
            yield self._nodes[rank].cpu_cost(self.params.hamster_sync_hook)
            self.rank_stats[rank].lock_releases += 1
            yield from self._flush_g(rank)
            # Bind every notice since the last release to this lock's scope
            # (covers writes flushed early by explicit fences).
            notices, self._pending[rank] = self._pending[rank], []
            manager = self._manager_of(lock_id)
            if manager == rank:
                yield from self._local_lock_release_g(lock_id, rank, notices)
            else:
                yield from self.chan.post_g(
                    self.node_of(rank), self.node_of(manager), "lock.rel",
                    payload={"lock": lock_id, "rank": rank,
                             "notices": notices},
                    size=16 + len(notices) * NOTICE_WIRE_BYTES)

    def _local_lock_release_g(self, lock_id: int, rank: int,
                              notices: List[WriteNotice]):
        node = self._nodes[rank]
        yield node.cpu_cost(self.params.os_sync_cost)
        yield from self._do_release_g(lock_id, rank, notices)

    def _h_lock_rel(self, msg):
        yield from self._do_release_g(msg.payload["lock"], msg.payload["rank"],
                                      msg.payload["notices"])
        return None

    def _do_release_g(self, lock_id: int, rank: int,
                      notices: List[WriteNotice]):
        ls = self._lock_state(lock_id)
        if ls.holder != rank:
            raise SynchronizationError(
                f"rank {rank} released lock {lock_id} held by {ls.holder}")
        ls.log.append(notices)
        if not self.scope_consistency:
            self._global_log.append(notices)
        if ls.queue:
            nxt = ls.queue.pop(0)
            if isinstance(nxt, _LocalWaiter):
                ls.holder = nxt.rank
                nxt.notices, nxt.seq = self._notices_for(ls, nxt.cursor)
                nxt.granted = True
                nxt.proc.wake()
            else:  # deferred remote request Message
                ls.holder = nxt.payload["rank"]
                notices2, seq = self._notices_for(ls, nxt.payload["cursor"])
                yield from self.chan.reply_g(
                    nxt, payload={"notices": notices2, "seq": seq},
                    size=16 + len(notices2) * NOTICE_WIRE_BYTES)
        else:
            ls.holder = None

    # --------------------------------------------------------------- barrier
    def barrier_g(self):
        rank = self.current_rank()
        obs = self.engine.obs
        with obs.span("dsm.barrier", rank=rank) if obs.enabled else NULL_SPAN:
            yield self._nodes[rank].cpu_cost(self.params.hamster_sync_hook)
            st = self.rank_stats[rank]
            st.barriers += 1
            t0 = self.engine.now
            yield from self._flush_g(rank)
            self._pending[rank] = []  # the barrier globalizes all below
            history, self._history[rank] = self._history[rank], []
            if rank == 0:
                yield from self._local_barrier_arrive_g(rank, history)
            else:
                merged = yield from self.chan.rpc_g(
                    self.node_of(rank), self.node_of(0), "barrier.arrive",
                    payload={"rank": rank, "notices": history},
                    size=16 + len(history) * NOTICE_WIRE_BYTES)
                yield from self._apply_notices_g(rank, merged)
            st.barrier_wait_time += self.engine.now - t0

    def _local_barrier_arrive_g(self, rank: int, history: List[WriteNotice]):
        proc = self.engine.require_process()
        waiter = _LocalWaiter(proc, rank, 0)
        self._barrier_notices.extend(history)
        self._barrier_round.append(waiter)
        if len(self._barrier_round) == self.n_procs:
            yield from self._barrier_complete_g()
        else:
            obs = self.engine.obs
            with (obs.span("dsm.wait", rank=rank, barrier=True)
                  if obs.enabled else NULL_SPAN):
                while not waiter.granted:
                    yield PARK
        yield from self._apply_notices_g(rank, waiter.notices)

    def _h_barrier_arrive(self, msg):
        self._barrier_notices.extend(msg.payload["notices"])
        self._barrier_round.append(msg)
        if len(self._barrier_round) == self.n_procs:
            yield from self._barrier_complete_g()
        return None  # replies sent by _barrier_complete_g

    def _barrier_complete_g(self):
        merged = self._barrier_notices
        arrivals = self._barrier_round
        self._barrier_notices = NoticeBatch()
        self._barrier_round = []
        self._barrier_generation += 1
        node0 = self._nodes[0]
        yield node0.cpu_cost(len(merged) * self.params.notice_scan_cost)
        size = 16 + len(merged) * NOTICE_WIRE_BYTES
        for arrival in arrivals:
            if isinstance(arrival, _LocalWaiter):
                arrival.notices = merged
                arrival.granted = True
                if arrival.proc is not self.engine.current_process:
                    arrival.proc.wake()
            else:
                yield from self.chan.reply_g(arrival, payload=merged, size=size)

    def refresh_runs_g(self, region: Region, runs: List[Run]):
        """Invalidate the calling rank's cached (non-home, non-dirty) copies
        of the touched pages so the next read refetches from the homes."""
        rank = self.current_rank()
        pt = self._ptables[rank]
        dirty = self._dirty[rank]
        node = self._nodes[rank]
        pages = []
        for p in self._pages_touched(region, runs):
            home = yield from self.home_of_g(p, rank)
            if home != rank and p not in dirty:
                pages.append(p)
        if pages:
            yield node.cpu_cost(len(pages) * self.params.write_notice_cost)
            self.rank_stats[rank].pages_invalidated += pt.invalidate_many(pages)

    # ------------------------------------------------------------ consistency
    def sync_consistency_g(self):
        """Flush this rank's writes home (used by the consistency API and by
        one-sided models); notices stay in the history for the next barrier."""
        yield from self._flush_g(self.current_rank())

    def consistency_model(self) -> str:
        return "scope" if self.scope_consistency else "release"

    def capabilities(self) -> frozenset:
        caps = {
            "software_dsm",
            "home_based",
            "multiple_writer",
            "distribution:block",
            "distribution:cyclic",
            "distribution:single_home",
            "distribution:explicit",
            "distribution:first_touch",
            "consistency:scope",
            "consistency:release",
        }
        return frozenset(caps)

    # ---------------------------------------------------------------- debug
