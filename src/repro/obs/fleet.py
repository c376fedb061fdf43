"""Fleet observability: the per-worker view of one sweep's journal.

The simulator made single runs observable (spans, metrics, critical
path); this module does the same for the *fleet* — the worker pool a
sweep (:mod:`repro.fabric.scheduler`) runs over. A :class:`FleetReport`
is built from a replayed sweep journal
(:func:`repro.fabric.journal.replay_journal`), optionally joined with
per-cell telemetry records, and answers the questions the orchestrator
alone cannot:

* per-worker: cells completed/failed, busy vs. idle host seconds
  (**utilization**), engine events executed and events/sec, current
  state (idle / running cell N / killed / dead / exited);
* fleet-wide: cache hit ratio, aggregate events/sec, retry and kill
  counts, ETA from per-cell duration history, critical-path category
  totals summed over the joined telemetry records;
* exports: JSON (:meth:`FleetReport.to_dict`), a sweep-level Chrome
  trace with **one track per worker**
  (:meth:`FleetReport.chrome_trace` — validated by
  :func:`repro.obs.export.validate_chrome_trace`), and the per-worker
  console table of ``python -m repro sweep status``
  (:meth:`FleetReport.render`).

Per-cell counts come from the journal's commit records, so a cell is
counted once however many sessions (crash, ``sweep resume``) touched it;
worker activity comes from the lifecycle lines. The report is a pure
function of the journal state: it works identically on a finished
sweep's log and on a half-written one read live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.export import complete, counter, process_name, trace_document

if TYPE_CHECKING:  # repro.obs must not pull the fabric in at import
    from repro.fabric.journal import JournalState

__all__ = ["WorkerStats", "FleetReport"]


@dataclass
class WorkerStats:
    """One worker's share of the sweep, derived from its lifecycle lines."""

    worker: int
    pid: Optional[int] = None
    #: cells this worker finished / failed (typed in-cell errors)
    done: int = 0
    failed: int = 0
    #: host seconds spent inside cells (started -> done/failed/kill/exit)
    busy_seconds: float = 0.0
    #: engine events executed across this worker's finished cells, plus
    #: the last heartbeat of a cell that died on it
    events_executed: int = 0
    #: "idle" | "running <cell id>" | "killed" | "dead" | "exited"
    state: str = "idle"
    #: grid index of the cell currently running (live sweeps), else None
    running_cell: Optional[int] = None
    #: last heartbeat payload seen for the running cell
    last_beat: Optional[Dict[str, Any]] = None
    #: host timestamp the current cell started at (for live busy time)
    _started_at: Optional[float] = None
    _cell_id: str = "?"
    #: completed (start, end, cell, id, ok) slices for the Chrome trace
    slices: List[Tuple[float, float, int, str, bool]] = field(
        default_factory=list)

    def events_per_sec(self) -> float:
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.busy_seconds

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / elapsed)


class FleetReport:
    """Aggregated view of one sweep's fleet, live or finished."""

    def __init__(self, state: "JournalState",
                 records: Optional[List[Dict[str, Any]]] = None) -> None:
        self.events = state.events
        self.records = records or []
        self.suite = state.header.get("suite", "sweep")
        self.total_cells = int(state.header.get("cells", 0))
        #: cells by committed outcome — each cell once, whatever the
        #: number of sessions or attempts that narrated it
        outcomes = state.counts()
        self.cache_hits = outcomes.get("hit", 0)
        self.executed = outcomes.get("miss", 0)
        self.failed = outcomes.get("failed", 0)
        #: ResultCache.stats() as of the last finished session, or None
        self.cache: Optional[Dict[str, Any]] = state.sweep_end().get("cache")
        self.workers: Dict[int, WorkerStats] = {}
        self.retried = 0
        self.kills = 0
        self.deaths = 0
        self.respawns = 0
        self.finished = False
        self.elapsed = state.elapsed
        #: host-second durations of completed cells (ETA history)
        self.cell_durations: List[float] = []
        self._replay()

    # ----------------------------------------------------------- replay
    def _worker(self, wid: Optional[int]) -> Optional[WorkerStats]:
        if wid is None:
            return None
        if wid not in self.workers:
            self.workers[wid] = WorkerStats(worker=wid)
        return self.workers[wid]

    def _leave(self, ws: WorkerStats, t: float, state: str,
               ok: bool = False) -> Optional[float]:
        """Put ``ws`` in ``state`` at ``t``, closing the cell slice it
        had open (``ok`` only when the cell finished); returns that
        slice's duration, None when no cell was open."""
        duration = None
        if ws._started_at is not None:
            duration = max(0.0, t - ws._started_at)
            ws.busy_seconds += duration
            cell = -1 if ws.running_cell is None else int(ws.running_cell)
            ws.slices.append((ws._started_at, t, cell, ws._cell_id, ok))
            ws._started_at = None
        ws.state = state
        ws.running_cell = None
        ws.last_beat = None
        return duration

    def _replay(self) -> None:
        for ev in self.events:
            kind = ev.get("kind")
            t = float(ev.get("t") or 0.0)
            data = ev.get("data") or {}
            if kind == "sweep-begin":
                # A new session (first run, or a resume after a crash):
                # whatever the last one's workers were doing ended with it.
                self.finished = False
                for ws in self.workers.values():
                    self._leave(ws, t, "exited")
            elif kind == "sweep-end":
                self.finished = True
            elif kind == "retried":
                self.retried += 1
            elif kind == "worker-respawn":
                self.respawns += 1
            elif kind == "worker-kill":
                self.kills += 1
            elif kind == "worker-death":
                self.deaths += 1
            # A line missing its worker id (hand-edited log) must not
            # take the whole report down.
            ws = self._worker(ev.get("worker"))
            if ws is None:
                continue
            if kind in ("worker-spawn", "worker-respawn"):
                ws.pid = data.get("pid")
                ws.state = "idle"
            elif kind == "started":
                ws._cell_id = str(ev.get("id", ev.get("cell")))
                ws.state = f"running {ws._cell_id}"
                ws.running_cell = ev.get("cell")
                ws._started_at = t
                ws.last_beat = None
            elif kind == "heartbeat":
                ws.last_beat = data
            elif kind == "done":
                duration = self._leave(ws, t, "idle", ok=True)
                if duration is not None:
                    self.cell_durations.append(duration)
                ws.done += 1
                ws.events_executed += int(data.get("events_executed", 0))
            elif kind == "failed":
                self._leave(ws, t, "idle")
                ws.failed += 1
            elif kind == "worker-kill":
                prog = data.get("progress") or {}
                ws.events_executed += int(prog.get("events_executed", 0))
                self._leave(ws, t, "killed")
            elif kind == "worker-death":
                self._leave(ws, t, "dead")
            elif kind == "worker-exit":
                # Torn down with a cell open (abandoned drain, aborted
                # sweep): the cell ends here, failed, not at end of log.
                self._leave(ws, t, "exited")
        # Live sweeps: a cell still running contributes its elapsed time
        # and last heartbeat to the worker's busy/event totals.
        for ws in self.workers.values():
            if ws._started_at is not None:
                ws.busy_seconds += max(0.0, self.elapsed - ws._started_at)
                if ws.last_beat:
                    ws.events_executed += int(
                        ws.last_beat.get("events_executed", 0))

    # ---------------------------------------------------------- queries
    def resolved_cells(self) -> int:
        """Cells with a final outcome so far (hit, executed, or failed)."""
        return self.cache_hits + self.executed + self.failed

    def remaining_cells(self) -> int:
        return max(0, self.total_cells - self.resolved_cells())

    def cache_hit_ratio(self) -> float:
        resolved = self.resolved_cells()
        if resolved == 0:
            return 0.0
        return self.cache_hits / resolved

    def total_events(self) -> int:
        return sum(ws.events_executed for ws in self.workers.values())

    def aggregate_events_per_sec(self) -> float:
        """Fleet throughput: engine events summed over workers per wall
        second of the sweep so far."""
        if self.elapsed <= 0.0:
            return 0.0
        return self.total_events() / self.elapsed

    def eta_seconds(self) -> Optional[float]:
        """Estimated host seconds to finish, from per-cell history.

        ``None`` when nothing has completed yet (no history to project
        from); ``0.0`` once the sweep is finished or nothing remains.
        """
        remaining = self.remaining_cells()
        if self.finished or remaining == 0:
            return 0.0
        if not self.cell_durations:
            return None
        mean = sum(self.cell_durations) / len(self.cell_durations)
        active = sum(1 for ws in self.workers.values()
                     if ws.state not in ("dead", "exited")) or 1
        return mean * remaining / active

    def critical_path_totals(self) -> Dict[str, float]:
        """Category totals summed over the joined telemetry records."""
        from repro.bench.telemetry import CP_CATEGORIES

        totals = {cat: 0.0 for cat in CP_CATEGORIES}
        for rec in self.records:
            for cat, val in rec.get("critical_path", {}).items():
                totals[cat] = totals.get(cat, 0.0) + float(val)
        return totals

    def sharing_totals(self) -> Optional[Dict[str, float]]:
        """Fleet rollup of the records' ``sharing`` fields (see
        ``repro bench run --sharing``): worst hot-page fault rate and
        total ping-pong / false-sharing page counts across the sweep.
        ``None`` when no joined record carries sharing analytics.
        """
        shared = [rec["sharing"] for rec in self.records
                  if isinstance(rec.get("sharing"), dict)]
        if not shared:
            return None
        return {
            "hot_page_fault_rate_hz": max(
                (float(sh.get("top_hot_page_fault_rate_hz", 0.0))
                 for sh in shared), default=0.0),
            "ping_pong_pages": float(sum(
                int(sh.get("ping_pong_pages", 0)) for sh in shared)),
            "false_sharing_pages": float(sum(
                int(sh.get("false_sharing_pages", 0)) for sh in shared)),
        }

    # ---------------------------------------------------------- exports
    def to_dict(self) -> Dict[str, Any]:
        per_worker = {}
        for wid in sorted(self.workers):
            ws = self.workers[wid]
            per_worker[str(wid)] = {
                "pid": ws.pid, "done": ws.done, "failed": ws.failed,
                "busy_seconds": round(ws.busy_seconds, 6),
                "utilization": round(ws.utilization(self.elapsed), 4),
                "events_executed": ws.events_executed,
                "events_per_sec": round(ws.events_per_sec(), 1),
                "state": ws.state,
            }
        d: Dict[str, Any] = {
            "schema": "repro.obs.fleet/1",
            "suite": self.suite,
            "finished": self.finished,
            "elapsed_seconds": round(self.elapsed, 6),
            "cells": {
                "total": self.total_cells,
                "resolved": self.resolved_cells(),
                "remaining": self.remaining_cells(),
                "cache_hits": self.cache_hits,
                "executed": self.executed,
                "failed": self.failed,
                "retried": self.retried,
            },
            "cache_hit_ratio": round(self.cache_hit_ratio(), 4),
            "workers": per_worker,
            "worker_kills": self.kills,
            "worker_deaths": self.deaths,
            "worker_respawns": self.respawns,
            "total_engine_events": self.total_events(),
            "aggregate_events_per_sec":
                round(self.aggregate_events_per_sec(), 1),
            "eta_seconds": self.eta_seconds(),
        }
        if self.records:
            d["critical_path_totals"] = {
                cat: round(val, 9)
                for cat, val in self.critical_path_totals().items()}
        sharing = self.sharing_totals()
        if sharing is not None:
            d["sharing_totals"] = {k: round(v, 9)
                                   for k, v in sharing.items()}
        if self.cache:
            d["cache"] = self.cache
        return d

    def to_json(self, indent: int = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    def chrome_trace(self) -> Dict[str, Any]:
        """Sweep-level Chrome trace: one track (pid) per worker.

        Each cell execution is a complete slice on its worker's track;
        heartbeats become counter events of in-cell engine events. The
        document passes :func:`repro.obs.export.validate_chrome_trace`
        and loads in Perfetto next to the per-run traces.
        """
        events: List[Dict[str, Any]] = []
        for wid in sorted(self.workers):
            ws = self.workers[wid]
            for begin, end, cell, cell_id, ok in ws.slices:
                events.append(complete(cell_id, "cell" if ok else "cell-failed",
                                       begin, end, wid, 0,
                                       {"cell": cell, "ok": ok}))
            if ws._started_at is not None:  # live: still-running slice
                events.append(complete(ws.state, "cell", ws._started_at,
                                       self.elapsed, wid, 0, {"live": True}))
            events.append(process_name(wid, f"worker {wid}"))
        for ev in self.events:
            if ev.get("kind") == "heartbeat" and ev.get("worker") is not None:
                data = ev.get("data") or {}
                events.append(counter(
                    "cell.events_executed", "metric", float(ev.get("t", 0.0)),
                    int(ev["worker"]),
                    {"value": data.get("events_executed", 0)}))
        if not events:
            # A sweep that produced no worker events (empty log, header
            # only) still exports a loadable, validator-clean trace.
            events.append(process_name(0, "sweep (no workers)"))
        return trace_document(events, suite=self.suite,
                              elapsed_host_seconds=self.elapsed,
                              workers=len(self.workers))

    # ----------------------------------------------------------- render
    def render(self) -> str:
        """Per-worker status + fleet totals, as ``sweep status`` prints
        them under the per-cell table."""
        from repro.bench.report import render_table

        state = "finished" if self.finished else "running"
        title = (f"sweep {self.suite!r} [{state}] — "
                 f"{self.resolved_cells()}/{self.total_cells or '?'} cells "
                 f"({self.cache_hits} hit / {self.executed} executed / "
                 f"{self.failed} failed), {self.retried} retried — "
                 f"{self.elapsed:.1f}s elapsed")
        rows = []
        for wid in sorted(self.workers):
            ws = self.workers[wid]
            beat = ""
            if ws.last_beat:
                beat = (f"{ws.last_beat.get('events_executed', 0)} ev / "
                        f"{ws.last_beat.get('virtual_seconds', 0.0):.3f}s")
            rows.append([
                f"w{wid}", ws.state, ws.done, ws.failed,
                f"{100.0 * ws.utilization(self.elapsed):.0f}%",
                f"{ws.events_per_sec():,.0f}", beat])
        table = render_table(
            ["worker", "state", "done", "failed", "util", "events/s",
             "last beat"],
            rows, title=title)
        eta = self.eta_seconds()
        eta_text = ("done" if eta == 0.0
                    else "n/a" if eta is None else f"{eta:.1f}s")
        footer = (f"cache hit ratio: {100.0 * self.cache_hit_ratio():.0f}%  "
                  f"aggregate: {self.aggregate_events_per_sec():,.0f} "
                  f"events/s  kills: {self.kills}  deaths: {self.deaths}  "
                  f"ETA: {eta_text}")
        return table + "\n" + footer
