"""Critical-path analysis over the causal span tree.

Two complementary answers to "where did the time go":

* :func:`critical_path` — the chain of spans that determined end-to-end
  time: starting from the last span to finish, walk backwards through
  causal parents (falling back to the latest span finishing before the
  current one began) until virtual time zero. The chain crosses ranks
  wherever a message link does.
* :func:`critical_path_report` — per-rank attribution of the **entire**
  run to four categories:

  - ``wire``     — covered by a ``net.*`` transfer span,
  - ``blocked``  — covered by a ``*.wait`` span (and not wire),
  - ``protocol`` — covered by any other span (service, DSM, messaging),
  - ``compute``  — covered by no span at all (application work, by
    construction of the instrumentation).

  Priority resolves overlaps (wire > blocked > protocol), so the four
  categories partition ``[0, total]`` exactly: **per rank they sum to the
  rank's total virtual runtime** — the invariant the acceptance test and
  the overhead guarantee both lean on.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import List, Optional, Tuple

from repro.obs.spans import ObsRecorder, Span

__all__ = ["category_of", "RankBreakdown", "CriticalPathReport",
           "critical_path", "critical_path_report"]

#: attribution categories, in overlap-priority order
CATEGORIES = ("wire", "blocked", "protocol", "compute")


@lru_cache(maxsize=None)
def category_of(kind: str) -> str:
    """Map a span kind to its attribution category (once per kind)."""
    if kind.startswith("net."):
        return "wire"
    if kind.endswith(".wait"):
        return "blocked"
    return "protocol"


# ---------------------------------------------------------------- intervals
#: a category's position in the priority order: an interval of priority
#: ``i`` counts towards the ``i``-th union and every later one (wire,
#: wire + blocked, all spans)
_PRIORITY = {cat: i for i, cat in enumerate(CATEGORIES)}


def _measure(intervals: List[Tuple[float, float]]) -> float:
    return sum(end - begin for begin, end in intervals)


# --------------------------------------------------------------- breakdowns
@dataclass
class RankBreakdown:
    """One rank's runtime partitioned into the four categories."""

    rank: int
    total: float
    compute: float = 0.0
    protocol: float = 0.0
    wire: float = 0.0
    blocked: float = 0.0

    def category_sum(self) -> float:
        return self.compute + self.protocol + self.wire + self.blocked

    def share(self, category: str) -> float:
        return getattr(self, category) / self.total if self.total > 0 else 0.0


def _breakdown(spans: List[Span], rank: int, total: float) -> RankBreakdown:
    """Partition ``[0, total]`` for one rank by category priority, over
    ``spans``, the rank's spans in order.

    Each span is clipped to ``[0, total]`` (an open span runs to
    ``total``) and the clipped intervals are sorted once. One pass merges
    that sorted list into three disjoint unions at once: the wire spans,
    wire + blocked, and every span.
    """
    intervals = []
    for span in spans:
        begin = span.begin if span.begin > 0.0 else 0.0
        end = span.end
        if end is None or total < end:
            end = total
        if end > begin:
            intervals.append((begin, end, _PRIORITY[category_of(span.kind)]))
    intervals.sort()
    unions: Tuple[list, list, list] = ([], [], [])
    for begin, end, priority in intervals:
        for out in unions[priority:]:
            if out and begin <= out[-1][1]:
                if end > out[-1][1]:
                    out[-1] = (out[-1][0], end)
            else:
                out.append((begin, end))
    wire, wire_blocked, covered = map(_measure, unions)
    out = RankBreakdown(rank=rank, total=total)
    out.wire = wire
    out.blocked = wire_blocked - wire
    out.protocol = covered - wire_blocked
    out.compute = total - covered
    return out


# ------------------------------------------------------------ critical path
def critical_path(recorder: ObsRecorder) -> List[Span]:
    """The span chain that determined end-to-end time, earliest first.

    Backward walk from the globally last-finishing span: prefer the causal
    parent when it began strictly earlier; otherwise jump to the latest
    span finishing at or before the current span began. Heuristic (the
    span tree is not a full dependence graph) but deterministic.
    """
    closed = sorted(recorder.closed(), key=lambda s: (s.end, s.span_id))
    if not closed:
        return []
    ends = [s.end for s in closed]
    cur = closed[-1]
    chain = [cur]
    seen = {cur.span_id}
    for _ in range(len(closed)):
        parent = recorder.get(cur.parent)
        if (parent is not None and parent.end is not None
                and parent.begin < cur.begin and parent.span_id not in seen):
            nxt = parent
        else:
            # The latest unseen span ending by cur.begin: the last entry
            # of the sorted prefix that the chain has not visited.
            i = bisect.bisect_right(ends, cur.begin) - 1
            while i >= 0 and closed[i].span_id in seen:
                i -= 1
            if i < 0:
                break
            nxt = closed[i]
        chain.append(nxt)
        seen.add(nxt.span_id)
        cur = nxt
    chain.reverse()
    return chain


@dataclass
class CriticalPathReport:
    """Whole-run attribution + the determining span chain."""

    platform: str
    total_time: float
    ranks: List[RankBreakdown] = field(default_factory=list)
    recorder: Optional[ObsRecorder] = field(default=None, repr=False,
                                            compare=False)

    @cached_property
    def path(self) -> List[Span]:
        """The :func:`critical_path` chain, walked when first read."""
        return [] if self.recorder is None else critical_path(self.recorder)

    def totals(self) -> dict:
        """Cluster-wide seconds per category (summed over ranks)."""
        return {cat: sum(getattr(r, cat) for r in self.ranks)
                for cat in CATEGORIES}

    def render(self, path_top: int = 8) -> str:
        from repro.bench.report import render_table

        ms = 1e3
        rows = [[b.rank, f"{b.compute * ms:.3f}", f"{b.protocol * ms:.3f}",
                 f"{b.wire * ms:.3f}", f"{b.blocked * ms:.3f}",
                 f"{b.category_sum() * ms:.3f}",
                 f"{b.share('compute') * 100:.1f}%"]
                for b in self.ranks]
        table = render_table(
            ["rank", "compute ms", "protocol ms", "wire ms", "blocked ms",
             "sum ms", "compute %"],
            rows, title=f"critical path: {self.platform} "
                        f"({self.total_time * ms:.3f} ms virtual)")
        lines = [table]
        if self.path:
            lines.append(f"\ncritical chain ({len(self.path)} spans, "
                         f"longest {path_top} shown):")
            longest = sorted(self.path, key=lambda s: -s.duration)[:path_top]
            shown = {s.span_id for s in longest}
            for span in self.path:
                if span.span_id not in shown:
                    continue
                where = f"rank {span.rank}" if span.rank is not None else "-"
                lines.append(f"  {span.begin * ms:10.3f} ms  {span.kind:<12s} "
                             f"{where:<8s} {span.duration * ms:8.3f} ms  "
                             f"{span.fields}")
        return "\n".join(lines)


def critical_path_report(platform) -> CriticalPathReport:
    """Digest a finished, observability-enabled
    :class:`~repro.config.BuiltPlatform`."""
    recorder = platform.engine.obs
    if not getattr(recorder, "enabled", False):
        raise ValueError("platform was built without observability "
                         "(set ClusterConfig.observe = True)")
    total = platform.engine.now
    report = CriticalPathReport(
        platform=platform.hamster.platform_description(), total_time=total,
        recorder=recorder)
    by_rank: dict = {}
    for span in recorder.spans:
        by_rank.setdefault(span.rank, []).append(span)
    for rank in range(platform.hamster.n_ranks):
        report.ranks.append(_breakdown(by_rank.get(rank, []), rank, total))
    return report
