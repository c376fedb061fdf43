"""Post-run digests: the per-rank profile and the trace summary.

* :func:`profile_platform` digests a *finished* platform into the questions
  a tuner asks first: where did the time go (compute vs bus vs waiting),
  what did the protocol do per rank (faults, fetches, diffs, notices), and
  how much hit the wire. The report ends with the engine's own one-line
  host summary (events executed, wall seconds inside ``Engine.run``,
  events/second); where that wall time *went* is ``benchmarks/perf``'s
  question, not this module's.
* :func:`summarize_trace` digests the event stream of a traced run
  (``cfg.trace = True``): message histograms by kind, the traffic matrix,
  fetch timelines, and per-kind counts that include fault, retry and
  detector events, so chaos runs digest to something a human can read.

Both read only public statistics and trace surfaces, so they work on every
platform/model combination. ``render`` imports :mod:`repro.bench.report`
when called: ``repro.obs`` loads with every engine and must not pull the
bench harness in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["RankProfile", "ProfileReport", "profile_platform",
           "TraceSummary", "summarize_trace"]


@dataclass
class RankProfile:
    """Digest of one rank's protocol activity."""

    rank: int
    node: int
    reads: int = 0
    writes: int = 0
    bytes_moved: int = 0
    faults: int = 0
    fetches: int = 0
    diffs: int = 0
    diff_bytes: int = 0
    invalidations: int = 0
    remote_ops: int = 0
    lock_ops: int = 0
    barriers: int = 0
    lock_wait: float = 0.0
    barrier_wait: float = 0.0


@dataclass
class ProfileReport:
    """Whole-platform profile."""

    platform: str
    total_time: float
    ranks: List[RankProfile] = field(default_factory=list)
    messages: int = 0
    wire_bytes: int = 0
    bus_bytes: Dict[int, int] = field(default_factory=dict)
    bus_contention: Dict[int, float] = field(default_factory=dict)
    compute_time: Dict[int, float] = field(default_factory=dict)
    #: the engine's own counters: dispatched events, real wall seconds
    #: spent inside Engine.run, and their ratio
    events_executed: int = 0
    host_seconds: float = 0.0
    events_per_sec: float = 0.0

    # -------------------------------------------------------------- queries
    def rank(self, rank: int) -> RankProfile:
        return self.ranks[rank]

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.ranks)

    def sync_share(self) -> float:
        """Fraction of total virtual time the *average rank* spent waiting
        at locks and barriers."""
        if self.total_time <= 0 or not self.ranks:
            return 0.0
        waits = self.total("lock_wait") + self.total("barrier_wait")
        return waits / (self.total_time * len(self.ranks))

    def communication_per_rank(self) -> float:
        return self.wire_bytes / len(self.ranks) if self.ranks else 0.0

    def hotspots(self, top: int = 3) -> List[RankProfile]:
        """Ranks ranked by protocol work (faults+fetches+diffs)."""
        return sorted(self.ranks, key=lambda r: -(r.faults + r.fetches + r.diffs))[:top]

    def render(self) -> str:
        from repro.bench.report import render_table

        rows = [[r.rank, r.node, r.faults, r.fetches, r.diffs,
                 r.invalidations, r.remote_ops, r.lock_ops, r.barriers,
                 round(r.lock_wait * 1e3, 3), round(r.barrier_wait * 1e3, 3)]
                for r in self.ranks]
        table = render_table(
            ["rank", "node", "faults", "fetches", "diffs", "invals",
             "rmt ops", "locks", "barriers", "lock wait ms", "bar wait ms"],
            rows, title=f"profile: {self.platform} "
                        f"({self.total_time * 1e3:.3f} ms virtual)")
        extra = (f"\nmessages: {self.messages}, wire bytes: {self.wire_bytes}, "
                 f"sync share: {self.sync_share() * 100:.1f}%"
                 f"\nhost     : {self.events_executed} engine events in "
                 f"{self.host_seconds * 1e3:.1f} ms wall "
                 f"({self.events_per_sec:,.0f} events/s)")
        return table + extra


def profile_platform(platform) -> ProfileReport:
    """Digest a finished :class:`~repro.config.BuiltPlatform`."""
    hamster = platform.hamster
    dsm = platform.dsm
    engine = platform.engine
    report = ProfileReport(platform=hamster.platform_description(),
                           total_time=engine.now,
                           events_executed=engine.events_executed,
                           host_seconds=engine.host_seconds,
                           events_per_sec=engine.events_per_second())
    for rank in range(dsm.n_procs):
        stats = dsm.stats(rank)
        node_id = dsm.node_of(rank)
        report.ranks.append(RankProfile(
            rank=rank,
            node=node_id,
            reads=int(stats.get("reads", 0)),
            writes=int(stats.get("writes", 0)),
            bytes_moved=int(stats.get("bytes_read", 0)) + int(stats.get("bytes_written", 0)),
            faults=int(stats.get("read_faults", 0)) + int(stats.get("write_faults", 0)),
            fetches=int(stats.get("pages_fetched", 0)),
            diffs=int(stats.get("diffs_created", 0)),
            diff_bytes=int(stats.get("diff_bytes", 0)),
            invalidations=int(stats.get("pages_invalidated", 0)),
            remote_ops=int(stats.get("remote_reads", 0)) + int(stats.get("remote_writes", 0)),
            lock_ops=int(stats.get("lock_acquires", 0)),
            barriers=int(stats.get("barriers", 0)),
            lock_wait=float(stats.get("lock_wait_time", 0.0)),
            barrier_wait=float(stats.get("barrier_wait_time", 0.0)),
        ))
    network = platform.cluster.network
    if network is not None:
        report.messages = network.messages_sent
        report.wire_bytes = network.bytes_sent
    for node in platform.cluster.nodes:
        report.bus_bytes[node.node_id] = node.bus.bytes_transferred
        report.bus_contention[node.node_id] = node.bus.contention_time
        report.compute_time[node.node_id] = node.compute_time
    return report


# ------------------------------------------------------------ trace summary
@dataclass
class TraceSummary:
    """Digest of one simulation's trace."""

    n_events: int = 0
    duration: float = 0.0
    #: message kind -> (count, total bytes)
    messages_by_kind: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: (src, dst) -> message count
    traffic_matrix: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: page fetch events: (time, rank, page, home)
    fetches: List[Tuple[float, int, int, int]] = field(default_factory=list)
    #: invalidation events: (time, rank, pages)
    invalidations: List[Tuple[float, int, int]] = field(default_factory=list)
    #: every trace kind -> occurrence count
    events_by_kind: Dict[str, int] = field(default_factory=dict)

    # -------------------------------------------------------------- queries
    def message_count(self, kind_prefix: str = "") -> int:
        return sum(count for kind, (count, _) in self.messages_by_kind.items()
                   if kind.startswith(kind_prefix))

    def busiest_pair(self) -> Tuple[Tuple[int, int], int]:
        if not self.traffic_matrix:
            return (0, 0), 0
        pair = max(self.traffic_matrix, key=self.traffic_matrix.get)
        return pair, self.traffic_matrix[pair]

    def hottest_pages(self, top: int = 5) -> List[Tuple[int, int]]:
        """Pages by fetch count (page, count) — the false-sharing/ping-pong
        detector."""
        counts: Dict[int, int] = {}
        for _, _, page, _ in self.fetches:
            counts[page] = counts.get(page, 0) + 1
        return sorted(counts.items(), key=lambda kv: -kv[1])[:top]

    def fetch_rate_timeline(self, buckets: int = 10) -> List[int]:
        """Fetch counts over ``buckets`` equal slices of the run."""
        out = [0] * buckets
        if not self.fetches or self.duration <= 0:
            return out
        for time, *_ in self.fetches:
            index = min(buckets - 1, int(time / self.duration * buckets))
            out[index] += 1
        return out

    def render(self) -> str:
        from repro.bench.report import render_table

        rows = [[kind, count, nbytes]
                for kind, (count, nbytes) in sorted(self.messages_by_kind.items())]
        table = render_table(["message kind", "count", "bytes"], rows,
                             title=f"trace: {self.n_events} events over "
                                   f"{self.duration * 1e3:.3f} ms")
        hot = ", ".join(f"page {p} x{c}" for p, c in self.hottest_pages(3))
        out = table + (f"\nfetches: {len(self.fetches)} (hottest: {hot})"
                       if self.fetches else "")
        notable = {k: c for k, c in sorted(self.events_by_kind.items())
                   if k.startswith(("fault.", "hb.", "am."))}
        if notable:
            out += "\nevents : " + ", ".join(
                f"{k}={c}" for k, c in notable.items())
        return out


def summarize_trace(trace) -> TraceSummary:
    """Digest a :class:`~repro.sim.trace.Tracer`'s event stream."""
    summary = TraceSummary(n_events=len(trace))
    last_time = 0.0
    for event in trace:
        last_time = max(last_time, event.time)
        summary.events_by_kind[event.kind] = (
            summary.events_by_kind.get(event.kind, 0) + 1)
        if event.kind == "net.send":
            kind = event.get("msg_kind", "?")
            count, nbytes = summary.messages_by_kind.get(kind, (0, 0))
            summary.messages_by_kind[kind] = (count + 1,
                                              nbytes + event.get("size", 0))
            pair = (event.get("src", -1), event.get("dst", -1))
            summary.traffic_matrix[pair] = summary.traffic_matrix.get(pair, 0) + 1
        elif event.kind == "jj.fetch":
            summary.fetches.append((event.time, event.get("rank", -1),
                                    event.get("page", -1), event.get("home", -1)))
        elif event.kind == "jj.invalidate":
            summary.invalidations.append((event.time, event.get("rank", -1),
                                          event.get("pages", 0)))
    summary.duration = last_time
    return summary
