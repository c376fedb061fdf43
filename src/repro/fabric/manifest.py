"""Sweep manifests: what happened to every cell of a grid.

A :class:`SweepManifest` is the per-cell view of one sweep: per cell,
its id, content address, outcome (``hit`` / ``miss`` / ``failed`` /
``pending``), attempt count, and — for executed cells — the host seconds
and engine events it cost. It is never stored: ``run_sweep`` returns one
in memory (``SweepResult.manifest``), and ``python -m repro sweep
status`` builds the same thing from the sweep's journal
(:meth:`repro.fabric.journal.JournalState.manifest`), whose commit
records hold the :class:`CellOutcome` of every resolved cell.

A ``pending`` cell never ran to a final outcome: the sweep was
interrupted (graceful SIGINT/SIGTERM drain), aborted (the
``--max-failures`` budget tripped) or killed first. The manifest-level
``status`` (``complete`` / ``interrupted`` / ``aborted``, or ``in
flight`` for a journal with no terminal status yet) records which, and
``sweep resume`` picks the pending cells back up from the journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["CellOutcome", "SweepManifest"]

#: The closed set of per-cell outcomes.
OUTCOMES = ("hit", "miss", "failed", "pending")


@dataclass
class CellOutcome:
    """One grid cell's fate."""

    index: int
    id: str
    key: str
    #: "hit" (served from cache), "miss" (executed), "failed" (error,
    #: crash after retries, or timeout), "pending"
    #: (sweep interrupted/aborted before the cell resolved)
    outcome: str
    attempts: int = 1
    host_seconds: float = 0.0
    events: int = 0
    #: "<kind>: <detail>" for failed cells
    error: Optional[str] = None
    #: last reported in-cell progress for cells that died mid-execution
    #: (timeout kill / crash): {"events_executed": int,
    #: "virtual_seconds": float}. None when the cell finished normally
    #: or no heartbeat ever arrived.
    progress: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        d = {"index": self.index, "id": self.id, "key": self.key,
             "outcome": self.outcome, "attempts": self.attempts,
             "host_seconds": self.host_seconds, "events": self.events,
             "error": self.error}
        if self.progress is not None:
            d["progress"] = self.progress
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CellOutcome":
        return cls(index=int(d["index"]), id=d["id"], key=d["key"],
                   outcome=d["outcome"], attempts=int(d.get("attempts", 1)),
                   host_seconds=float(d.get("host_seconds", 0.0)),
                   events=int(d.get("events", 0)), error=d.get("error"),
                   progress=d.get("progress"))


@dataclass
class SweepManifest:
    """The full receipt of one sweep run."""

    suite: str
    workers: int
    cells: List[CellOutcome] = field(default_factory=list)
    #: total wall seconds of the sweep (queue wait + execution)
    elapsed: float = 0.0
    #: snapshot of ResultCache.stats() at the end of the sweep (None
    #: while a journal holds no ``sweep-end`` line)
    cache: Optional[Dict[str, Any]] = None
    #: how the sweep ended: "complete" (every cell resolved), "interrupted"
    #: (graceful SIGINT/SIGTERM drain), "aborted" (--max-failures tripped);
    #: "in flight" when built from a journal with no terminal status
    status: str = "complete"

    # ------------------------------------------------------------- queries
    def counts(self) -> Dict[str, int]:
        out = {outcome: 0 for outcome in OUTCOMES}
        for cell in self.cells:
            out[cell.outcome] = out.get(cell.outcome, 0) + 1
        return out

    def hit_ratio(self) -> float:
        """Fraction of cells served from the cache (0.0 on an empty grid)."""
        if not self.cells:
            return 0.0
        return self.counts()["hit"] / len(self.cells)

    def simulated_events(self) -> int:
        """Engine events actually executed (hits contribute zero)."""
        return sum(c.events for c in self.cells if c.outcome == "miss")

    def failed_cells(self) -> List[CellOutcome]:
        return [c for c in self.cells if c.outcome == "failed"]

    def pending_cells(self) -> List[CellOutcome]:
        """Cells an interrupted/aborted sweep never resolved."""
        return [c for c in self.cells if c.outcome == "pending"]

    def all_cached(self) -> bool:
        counts = self.counts()
        return (counts["miss"] == 0 and counts["failed"] == 0
                and self.simulated_events() == 0)

    # -------------------------------------------------------------- render
    def render(self) -> str:
        from repro.bench.report import render_table

        rows = []
        for cell in self.cells:
            error = cell.error or ""
            if cell.progress is not None:
                error += (f" [at kill: {cell.progress['events_executed']} "
                          f"events, "
                          f"{cell.progress['virtual_seconds']:.6f}s virtual]")
            rows.append([cell.id, cell.key[:12], cell.outcome, cell.attempts,
                         f"{cell.host_seconds * 1e3:.1f}", cell.events,
                         error])
        counts = self.counts()
        pending = (f" / {counts['pending']} pending"
                   if counts.get("pending") else "")
        status = f" [{self.status}]" if self.status != "complete" else ""
        title = (f"sweep {self.suite!r}{status}: {len(self.cells)} cells — "
                 f"{counts['hit']} hit / {counts['miss']} miss / "
                 f"{counts['failed']} failed{pending} "
                 f"({100.0 * self.hit_ratio():.0f}% cache hits) — "
                 f"{self.simulated_events()} simulated events, "
                 f"{self.elapsed:.1f}s wall, {self.workers} worker(s)")
        table = render_table(
            ["cell", "key", "outcome", "tries", "host ms", "events", "error"],
            rows, title=title)
        if self.cache is not None:
            table += (f"\ncache: {self.cache.get('hits', 0)} hit(s), "
                      f"{self.cache.get('misses', 0)} miss(es), "
                      f"{self.cache.get('stores', 0)} store(s); "
                      f"{self.cache.get('entries', 0)} entries / "
                      f"{self.cache.get('bytes', 0)} evictable bytes "
                      f"in {self.cache.get('root', '?')}")
            if self.cache.get("quarantined"):
                table += (f"\ncache: {self.cache['quarantined']} corrupt "
                          f"entr(ies) quarantined — run 'sweep fsck'")
        return table
