"""Sharing diagnosis: detectors and exporters over the sharing stream.

Input is a :class:`~repro.obs.sharing.SharingRecorder` (or, for the pure
detector functions, plain event tuples — the property tests feed those
directly). Output is:

* :func:`ping_pong_pages` — pages whose *writing rank* alternates above a
  threshold (ownership bouncing between ranks: each handoff is a fetch +
  invalidate round on SW-DSM, a remote-write stream on the hybrid),
* :func:`classify_sharing` — false vs true sharing for one page: ranks
  writing **disjoint** sub-page byte ranges ping-pong a page they never
  actually share (false sharing — fixable by padding/alignment); ranks
  whose written ranges overlap genuinely communicate (true sharing —
  fixable only by restructuring the algorithm),
* :func:`sharing_report` — the schema-versioned JSON document
  (``repro.obs.sharing/1``) with ping-pong/false-sharing findings, top-N
  hot pages and locks, and barrier-skew rollups,
* :func:`sharing_heatmap_csv` / :func:`sharing_chrome_trace` — per-page
  virtual-time activity (tidy CSV; Chrome counter tracks that pass
  :func:`repro.obs.export.validate_chrome_trace`),
* :func:`sharing_summary` — the compact form embedded in bench telemetry
  records (and rolled up over a sweep by
  :meth:`repro.obs.fleet.FleetReport.sharing_totals`).

Detectors are **deterministic and order-independent**: they sort their
input by ``(t, page, rank)`` before compressing, so any permutation of the
same event multiset yields the same verdicts (property-tested).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.export import counter, process_name, trace_document
from repro.obs.sharing import SharingRecorder

__all__ = ["SHARING_SCHEMA", "compress_writers", "ping_pong_pages",
           "classify_sharing", "group_pages", "sharing_report",
           "render_sharing_report", "validate_sharing_report",
           "sharing_heatmap_csv", "sharing_chrome_trace", "sharing_summary"]

SHARING_SCHEMA = "repro.obs.sharing/1"

#: Chrome-trace pid for the sharing counter tracks (the span exporter uses
#: ranks and CLUSTER_PID=99; 98 keeps the tracks separate).
SHARING_PID = 98


# --------------------------------------------------------------- detectors
def compress_writers(events: Iterable[Tuple[float, int]]) -> List[Tuple[float, int]]:
    """Compress a ``(t, rank)`` write stream into its alternation log:
    one entry per change of writing rank. Input is sorted first, so the
    result is independent of arrival order."""
    log: List[Tuple[float, int]] = []
    for t, rank in sorted(events):
        if not log or log[-1][1] != rank:
            log.append((t, rank))
    return log


def ping_pong_pages(write_events: Iterable[Tuple[float, int, int]],
                    min_alternations: int = 4,
                    min_rate: float = 0.0) -> Dict[int, Dict[str, Any]]:
    """Detect pages whose writing rank bounces between ranks.

    ``write_events`` is an iterable of ``(t, page, rank)`` protocol-level
    write events (JiaJia write notices, SCI-VM remote writes). A page flags
    when its writer changed hands at least ``min_alternations`` times and,
    if ``min_rate`` > 0, at least that many alternations per virtual
    second over the page's active window. A page with a single writer can
    never flag (its alternation count is zero by construction).
    """
    by_page: Dict[int, List[Tuple[float, int]]] = {}
    counts: Dict[int, int] = {}
    for t, page, rank in sorted(write_events):
        by_page.setdefault(page, []).append((t, rank))
        counts[page] = counts.get(page, 0) + 1
    out: Dict[int, Dict[str, Any]] = {}
    for page in sorted(by_page):
        log = compress_writers(by_page[page])
        alternations = len(log) - 1
        if alternations < min_alternations:
            continue
        t0, t1 = by_page[page][0][0], by_page[page][-1][0]
        duration = t1 - t0
        rate = alternations / duration if duration > 0 else float("inf")
        if rate < min_rate:
            continue
        out[page] = {
            "page": page,
            "ranks": sorted({rank for _, rank in log}),
            "alternations": alternations,
            "writes": counts[page],
            "rate_hz": rate,
            "window": [t0, t1],
        }
    return out


def classify_sharing(ranges_by_rank: Dict[int, Sequence[Sequence[int]]]) -> str:
    """Classify one page's cross-rank write pattern.

    ``ranges_by_rank`` maps rank -> half-open ``[lo, hi)`` byte intervals
    (page-local) that rank wrote. Returns:

    * ``"false"`` — two or more ranks wrote, and no two ranks' intervals
      overlap: they share the page, not the data (false sharing),
    * ``"true"`` — at least one byte was written by two different ranks,
    * ``"unknown"`` — fewer than two ranks have recorded write ranges.
    """
    flat: List[Tuple[int, int, int]] = []
    writers = 0
    for rank in sorted(ranges_by_rank):
        ivs = [iv for iv in ranges_by_rank[rank] if iv[1] > iv[0]]
        if not ivs:
            continue
        writers += 1
        flat.extend((int(lo), int(hi), rank) for lo, hi in ivs)
    if writers < 2:
        return "unknown"
    flat.sort()
    # Sweep by ``lo`` keeping each rank's furthest ``hi`` so far: comparing
    # only neighbours misses an interval nested inside an earlier, longer
    # one of the same rank ({0: [[0, 3], [1, 2]], 1: [[2, 3]]}).
    reach: Dict[int, int] = {}
    for lo, hi, rank in flat:
        if any(end > lo for other, end in reach.items() if other != rank):
            return "true"
        reach[rank] = max(hi, reach.get(rank, hi))
    return "false"


def group_pages(pages: Iterable[int]) -> List[List[int]]:
    """Group page numbers into inclusive contiguous ``[first, last]``
    ranges (the human-readable "pages 16-19" form)."""
    out: List[List[int]] = []
    for p in sorted(set(pages)):
        if out and p == out[-1][1] + 1:
            out[-1][1] = p
        else:
            out.append([p, p])
    return out


# ------------------------------------------------------------------ report
def _barrier_rollup(recorder: SharingRecorder) -> Dict[str, Any]:
    skews: List[float] = []
    for ep in recorder.barrier_episodes:
        arrivals = list(ep["arrive"].values())
        skews.append(max(arrivals) - min(arrivals) if len(arrivals) > 1 else 0.0)
    if not skews:
        return {"episodes": 0, "max_skew_s": 0.0, "mean_skew_s": 0.0,
                "worst_episode": None, "skews_s": []}
    worst = max(range(len(skews)), key=lambda i: skews[i])
    return {"episodes": len(skews),
            "max_skew_s": skews[worst],
            "mean_skew_s": sum(skews) / len(skews),
            "worst_episode": worst,
            "skews_s": skews[:1000]}


def _lock_entries(recorder: SharingRecorder) -> List[Dict[str, Any]]:
    entries = []
    for lock_id, ls in recorder.locks.items():
        entries.append({
            "lock": lock_id,
            "acquires": ls.acquires,
            "contended": ls.contended,
            "wait_total_s": ls.wait_total,
            "wait_max_s": ls.wait_max,
            "wait_mean_s": ls.wait_total / ls.acquires if ls.acquires else 0.0,
            "hold_total_s": ls.hold_total,
            "hold_max_s": ls.hold_max,
            "wait_hist": {str(k): v for k, v in sorted(ls.wait_hist.items())},
            "hold_hist": {str(k): v for k, v in sorted(ls.hold_hist.items())},
            "ranks": sorted(ls.by_rank),
        })
    entries.sort(key=lambda e: (-e["wait_total_s"], -e["acquires"], e["lock"]))
    return entries


def _ping_pong_entries(recorder: SharingRecorder, min_alternations: int,
                       min_rate: float) -> List[Dict[str, Any]]:
    entries = []
    found = ping_pong_pages(recorder.write_events(),
                            min_alternations=min_alternations,
                            min_rate=min_rate)
    for page, info in found.items():
        ps = recorder.pages[page]
        ranges = {str(r): [list(iv) for iv in ivs]
                  for r, ivs in sorted(ps.write_ranges.items())}
        entry = dict(info)
        entry["classification"] = classify_sharing(ps.write_ranges)
        entry["write_ranges"] = ranges
        entry["fetches"] = ps.fetches
        entry["invalidations"] = ps.invalidations
        entries.append(entry)
    entries.sort(key=lambda e: (-e["alternations"], e["page"]))
    return entries


def _hot_page_entries(recorder: SharingRecorder, top: int) -> List[Dict[str, Any]]:
    ranked = sorted(recorder.pages.values(),
                    key=lambda ps: (-ps.protocol_events(),
                                    -(ps.reads + ps.writes), ps.page))
    entries = []
    for ps in ranked[:top]:
        if ps.protocol_events() == 0 and ps.reads + ps.writes == 0:
            continue
        entries.append({
            "page": ps.page,
            "events": ps.protocol_events(),
            "read_faults": ps.read_faults,
            "write_faults": ps.write_faults,
            "fetches": ps.fetches,
            "fetch_bytes": ps.fetch_bytes,
            "invalidations": ps.invalidations,
            "notices": ps.notices,
            "remote_reads": ps.remote_reads,
            "remote_writes": ps.remote_writes,
            "accesses": ps.reads + ps.writes,
            "ranks": sorted(set(ps.by_rank) | set(ps.write_ranges)),
        })
    return entries


def sharing_report(recorder: SharingRecorder, platform_name: str = "",
                   n_ranks: Optional[int] = None,
                   page_size: Optional[int] = None, top: int = 10,
                   min_alternations: int = 4,
                   min_rate: float = 0.0) -> Dict[str, Any]:
    """Build the full ``repro.obs.sharing/1`` diagnosis document."""
    ping_pong = _ping_pong_entries(recorder, min_alternations, min_rate)
    false_pages = sorted(e["page"] for e in ping_pong
                         if e["classification"] == "false")
    false_ranks = sorted({r for e in ping_pong
                          if e["classification"] == "false"
                          for r in e["ranks"]})
    totals = {
        "pages_tracked": len(recorder.pages),
        "read_faults": sum(p.read_faults for p in recorder.pages.values()),
        "write_faults": sum(p.write_faults for p in recorder.pages.values()),
        "fetches": sum(p.fetches for p in recorder.pages.values()),
        "fetch_bytes": sum(p.fetch_bytes for p in recorder.pages.values()),
        "invalidations": sum(p.invalidations for p in recorder.pages.values()),
        "notices": sum(p.notices for p in recorder.pages.values()),
        "remote_reads": sum(p.remote_reads for p in recorder.pages.values()),
        "remote_writes": sum(p.remote_writes for p in recorder.pages.values()),
        "lock_acquires": sum(l.acquires for l in recorder.locks.values()),
        "events_dropped": recorder.dropped,
    }
    return {
        "schema": SHARING_SCHEMA,
        "platform": platform_name,
        "n_ranks": n_ranks,
        "page_size": page_size,
        "virtual_seconds": recorder.engine.now,
        "thresholds": {"min_alternations": min_alternations,
                       "min_rate_hz": min_rate},
        "totals": totals,
        "ping_pong": ping_pong,
        "false_sharing": {"pages": false_pages,
                          "ranges": group_pages(false_pages),
                          "ranks": false_ranks},
        "hot_pages": _hot_page_entries(recorder, top),
        "hot_locks": _lock_entries(recorder)[:top],
        "barriers": _barrier_rollup(recorder),
    }


# ---------------------------------------------------------------- validate
def validate_sharing_report(doc: Any) -> List[str]:
    """Structurally validate a sharing report (CI schema gate; mirrors
    ``validate_telemetry`` / ``validate_journal``). Accepts the JSON text or
    the parsed dict; returns human-readable errors (empty = valid)."""
    errors: List[str] = []
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SHARING_SCHEMA:
        errors.append(f"schema must be {SHARING_SCHEMA!r}, "
                      f"got {doc.get('schema')!r}")
    for key, typ in (("totals", dict), ("false_sharing", dict),
                     ("barriers", dict), ("ping_pong", list),
                     ("hot_pages", list), ("hot_locks", list)):
        if not isinstance(doc.get(key), typ):
            errors.append(f"missing or mistyped {key!r} "
                          f"(expected {typ.__name__})")
    vs = doc.get("virtual_seconds")
    if not isinstance(vs, (int, float)) or vs < 0:
        errors.append("'virtual_seconds' must be a non-negative number")
    for i, entry in enumerate(doc.get("ping_pong") or []):
        where = f"ping_pong[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
            continue
        for key in ("page", "ranks", "alternations", "classification"):
            if key not in entry:
                errors.append(f"{where}: missing {key!r}")
        if entry.get("classification") not in ("false", "true", "unknown"):
            errors.append(f"{where}: bad classification "
                          f"{entry.get('classification')!r}")
        alts = entry.get("alternations")
        if not isinstance(alts, int) or alts < 0:
            errors.append(f"{where}: 'alternations' must be a "
                          "non-negative integer")
        ranks = entry.get("ranks")
        if isinstance(ranks, list) and len(ranks) < 2 and alts:
            errors.append(f"{where}: alternations require >= 2 ranks")
    fs = doc.get("false_sharing")
    if isinstance(fs, dict):
        for key in ("pages", "ranges", "ranks"):
            if not isinstance(fs.get(key), list):
                errors.append(f"false_sharing.{key} must be a list")
    for i, entry in enumerate(doc.get("hot_locks") or []):
        if not isinstance(entry, dict) or "lock" not in entry:
            errors.append(f"hot_locks[{i}]: missing 'lock'")
    barriers = doc.get("barriers")
    if isinstance(barriers, dict):
        eps = barriers.get("episodes")
        if not isinstance(eps, int) or eps < 0:
            errors.append("barriers.episodes must be a non-negative integer")
    return errors


# ------------------------------------------------------------------ render
def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _fmt_ranges(ranges: List[List[int]]) -> str:
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in ranges)


def render_sharing_report(doc: Dict[str, Any]) -> str:
    """Human-readable console rendering of a sharing report."""
    lines: List[str] = []
    title = doc.get("platform") or "run"
    lines.append(f"sharing diagnosis — {title} "
                 f"({doc.get('n_ranks') or '?'} ranks, "
                 f"{doc.get('page_size') or '?'} B pages, "
                 f"{doc.get('virtual_seconds', 0.0):.6f} virtual s)")
    t = doc["totals"]
    lines.append(f"  protocol: {t['read_faults']} read faults, "
                 f"{t['write_faults']} write faults, "
                 f"{t['fetches']} fetches ({t['fetch_bytes']} B), "
                 f"{t['invalidations']} invalidations, "
                 f"{t['notices']} notices, "
                 f"{t['remote_reads'] + t['remote_writes']} remote ops")
    pp = doc["ping_pong"]
    n_false = sum(1 for e in pp if e["classification"] == "false")
    n_true = sum(1 for e in pp if e["classification"] == "true")
    lines.append(f"  ping-pong pages: {len(pp)} "
                 f"({n_false} false sharing, {n_true} true sharing)")
    fs = doc["false_sharing"]
    if fs["pages"]:
        lines.append(f"  FALSE SHARING: page(s) {_fmt_ranges(fs['ranges'])} "
                     f"between ranks {','.join(map(str, fs['ranks']))} — "
                     "disjoint sub-page writes bouncing whole pages")
    for e in pp[:8]:
        ranks = ",".join(map(str, e["ranks"]))
        rate = e["rate_hz"]
        rate_s = f"{rate:.1f}/s" if rate != float("inf") else "inf/s"
        detail = ""
        if e["classification"] == "false":
            parts = []
            for rank, ivs in sorted(e["write_ranges"].items(),
                                    key=lambda kv: int(kv[0])):
                spans = ",".join(f"[{lo},{hi})" for lo, hi in ivs)
                parts.append(f"rank {rank} wrote {spans}")
            detail = " — " + "; ".join(parts)
        elif e["classification"] == "true":
            detail = " — overlapping writes (genuine communication)"
        lines.append(f"    page {e['page']}: {e['classification']} sharing, "
                     f"ranks {ranks}, {e['alternations']} handoffs @ {rate_s}"
                     f"{detail}")
    hot = doc["hot_pages"]
    if hot:
        head = ", ".join(
            f"page {e['page']} ({e['events']} ev)" if e["events"]
            else f"page {e['page']} ({e['accesses']} acc)"
            for e in hot[:5])
        lines.append(f"  hot pages: {head}")
    for e in doc["hot_locks"][:5]:
        lines.append(f"  hot lock {e['lock']}: {e['acquires']} acquires, "
                     f"{e['contended']} contended, "
                     f"total wait {_fmt_s(e['wait_total_s'])} "
                     f"(max {_fmt_s(e['wait_max_s'])}, "
                     f"mean hold {_fmt_s(e['hold_total_s'] / e['acquires'] if e['acquires'] else 0.0)})")
    b = doc["barriers"]
    if b["episodes"]:
        lines.append(f"  barriers: {b['episodes']} episodes, "
                     f"max arrival skew {_fmt_s(b['max_skew_s'])} "
                     f"(episode {b['worst_episode']}), "
                     f"mean {_fmt_s(b['mean_skew_s'])}")
    if t["events_dropped"]:
        lines.append(f"  note: {t['events_dropped']} stream events dropped "
                     "(aggregates are complete; heatmap is truncated)")
    return "\n".join(lines)


# ----------------------------------------------------------------- exports
def _bin_events(recorder: SharingRecorder, bins: int):
    """Bucket the flat stream into per-page virtual-time bins. Returns
    (horizon, width, {page: {bin: {kind-group: count}}})."""
    horizon = recorder.engine.now
    if horizon <= 0 and recorder.events:
        horizon = max(t for t, *_ in recorder.events)
    if horizon <= 0:
        horizon = 1.0
    width = horizon / bins
    grid: Dict[int, Dict[int, Dict[str, int]]] = {}
    for t, kind, page, _rank in recorder.events:
        b = min(int(t / width), bins - 1)
        if kind in ("fault.r", "fault.w"):
            group = "faults"
        elif kind == "fetch":
            group = "fetches"
        elif kind in ("inval", "downgrade"):
            group = "invalidations"
        else:                      # notice / remote.r / remote.w
            group = "writes"
        cell = grid.setdefault(page, {}).setdefault(b, {})
        cell[group] = cell.get(group, 0) + 1
    return horizon, width, grid


def sharing_heatmap_csv(recorder: SharingRecorder, bins: int = 50) -> str:
    """Per-page virtual-time heatmap as tidy CSV (one row per non-empty
    page × time-bin cell)."""
    _, width, grid = _bin_events(recorder, bins)
    lines = ["page,bin,t_start,t_end,faults,fetches,invalidations,writes"]
    for page in sorted(grid):
        for b in sorted(grid[page]):
            cell = grid[page][b]
            lines.append(f"{page},{b},{b * width:.9f},{(b + 1) * width:.9f},"
                         f"{cell.get('faults', 0)},{cell.get('fetches', 0)},"
                         f"{cell.get('invalidations', 0)},"
                         f"{cell.get('writes', 0)}")
    return "\n".join(lines) + "\n"


def sharing_chrome_trace(recorder: SharingRecorder, platform_name: str = "",
                         top: int = 8, bins: int = 60) -> Dict[str, Any]:
    """Counter-track trace for the hottest pages: one multi-series counter
    per page (faults/fetches/invalidations/writes per time bin), loadable
    next to the span trace in Perfetto. Passes
    :func:`repro.obs.export.validate_chrome_trace`."""
    _, width, grid = _bin_events(recorder, bins)
    hottest = sorted(grid,
                     key=lambda p: (-sum(sum(c.values())
                                         for c in grid[p].values()), p))[:top]
    events = [process_name(SHARING_PID, "page sharing")]
    groups = ("faults", "fetches", "invalidations", "writes")
    for page in hottest:
        cells = grid[page]
        for b in sorted(cells):
            events.append(counter(f"page {page}", "sharing", b * width,
                                  SHARING_PID,
                                  {g: cells[b].get(g, 0) for g in groups}))
        # Zero the counter at the horizon so Perfetto closes the series.
        events.append(counter(f"page {page}", "sharing", bins * width,
                              SHARING_PID, dict.fromkeys(groups, 0)))
    return trace_document(events, platform=platform_name,
                          total_virtual_seconds=recorder.engine.now,
                          pages_tracked=len(recorder.pages),
                          stream_events=len(recorder.events),
                          stream_dropped=recorder.dropped)


# ----------------------------------------------------------------- summary
def sharing_summary(recorder: SharingRecorder, min_alternations: int = 4,
                    min_rate: float = 0.0) -> Dict[str, Any]:
    """Compact sharing summary for bench telemetry records. Built from
    virtual-time quantities only, so it is as deterministic as the run."""
    found = ping_pong_pages(recorder.write_events(),
                            min_alternations=min_alternations,
                            min_rate=min_rate)
    false_pages = [p for p, info in found.items()
                   if classify_sharing(recorder.pages[p].write_ranges)
                   == "false"]
    horizon = recorder.engine.now
    hot = _hot_page_entries(recorder, top=1)
    top_hot = None
    fault_rate = 0.0
    if hot:
        entry = hot[0]
        faults = entry["read_faults"] + entry["write_faults"]
        fault_rate = faults / horizon if horizon > 0 else 0.0
        top_hot = {"page": entry["page"], "events": entry["events"],
                   "faults": faults, "fault_rate_hz": fault_rate}
    locks = _lock_entries(recorder)
    hot_lock = None
    if locks and locks[0]["acquires"]:
        hot_lock = {"lock": locks[0]["lock"],
                    "acquires": locks[0]["acquires"],
                    "wait_total_s": locks[0]["wait_total_s"]}
    return {
        "schema": SHARING_SCHEMA,
        "ping_pong_pages": len(found),
        "false_sharing_pages": len(false_pages),
        "false_sharing_ranges": group_pages(false_pages),
        "top_hot_page": top_hot,
        "top_hot_page_fault_rate_hz": fault_rate,
        "hot_lock": hot_lock,
        "barrier_max_skew_s": _barrier_rollup(recorder)["max_skew_s"],
    }
