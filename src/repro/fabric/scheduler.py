"""Sweep orchestration: expand, consult the cache, dispatch, recover.

:func:`run_sweep` is the fabric's one entry point:

1. expand the :class:`~repro.fabric.gridspec.GridSpec` into (content
   address, scenario) cells;
2. serve every cell already in the :class:`~repro.fabric.cache.ResultCache`
   (a fully-unchanged grid costs zero simulation time; with no cache,
   nothing is served or persisted);
3. dispatch the misses — inline when ``workers <= 1`` (the reference
   serial path), otherwise to N worker processes, each sent one job at a
   time over its own pipe;
4. recover: a job that exceeds the per-cell wall-clock timeout gets its
   worker killed; a dead worker's job is retried (``max_retries`` times,
   with exponential backoff between attempts); exhausted retries (or any
   in-cell exception) become a typed ``failed`` outcome in the manifest
   — the sweep never aborts wholesale unless the ``max_failures`` budget
   trips, in which case it stops dispatching, drains, and reports the
   rest of the grid as ``pending``;
5. store fresh records back into the cache and assemble the telemetry
   document (records in grid order, independent of completion order, so
   parallel and serial sweeps produce identical documents).

The log: with ``journal`` set, every cell and worker lifecycle
transition is appended to the sweep's one journal
(:mod:`repro.fabric.journal`) as it happens, and each cell that reaches
a final outcome gets an **fsync'd commit record** the moment its result
is safely in the cache — committed per cell *as results arrive*, not at
sweep end, so killing the orchestrator at any instant loses at most the
in-flight cells. ``run_sweep(resume_from=...)`` restores the committed
outcomes (verifying each against the live cache — a quarantined entry
demotes its cell back to the worklist) and re-executes only the rest;
the canonical records of an interrupted-then-resumed sweep are
byte-identical to an uninterrupted run. Workers report in-cell progress
heartbeats (engine events executed, virtual seconds) over their pipes
into the same journal — so a live sweep can be watched (``sweep
status``), a slow cell can be told from a stuck one, and a timed-out
cell's outcome records its progress-at-kill. Host-side timestamps stay
in the journal; they never enter ``canonical_record``, so the telemetry
document is byte-identical with the journal on or off.

Graceful shutdown: with ``handle_signals`` set, the first SIGINT/SIGTERM
stops dispatching and drains in-flight cells (the journal stays
consistent, workers exit via their sentinel); a second signal abandons
the drain. Unresolved cells are reported ``pending`` and the result
carries ``status="interrupted"`` so callers can exit distinctly and a
follow-up resume picks up exactly where the sweep stopped.

The telemetry document uses the unchanged ``repro.bench.telemetry``
schema: ``bench report``, ``sweep report`` and the experiment generator
consume fabric output directly.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import repro.fabric.faultpoints as faultpoints
from repro.fabric.cache import ResultCache, scenario_key
from repro.fabric.gridspec import GridSpec
from repro.fabric.journal import (JournalError, JournalState, SweepJournal,
                                  replay_journal)
from repro.fabric.manifest import CellOutcome, SweepManifest
from repro.fabric.worker import (Job, execute_cell, import_cell_path,
                                 install_heartbeat, worker_main)

__all__ = ["SweepResult", "run_sweep", "DEFAULT_HEARTBEAT",
           "DEFAULT_MAX_RETRIES"]

#: Default number of times a job is re-queued after its worker dies or
#: times out before its cell is recorded as failed ("retried once").
DEFAULT_MAX_RETRIES = 1

#: Default in-cell progress heartbeat period in host seconds.
DEFAULT_HEARTBEAT = 1.0

#: Progress callback: (cell id, outcome) per resolved attempt, where
#: outcome is "hit" | "miss" | "failed" | "retry" | "restored". Cached
#: cells, duplicate (shared-result) cells, restored (resumed) cells, and
#: retried attempts all report — a fully-cached sweep narrates every
#: cell, same as an executed one.
Progress = Callable[[str, str], None]

#: The two sinks the runners report every final outcome through:
#: ``commit_done(job, worker, record)`` and ``commit_failed(job, worker,
#: kind, detail, progress_at_kill)`` (``worker`` is None for a job whose
#: worker is already gone). run_sweep's implementations journal the
#: outcome, commit it durably (cache + journal fsync), report progress
#: and count the ``max_failures`` budget.
_CommitDone = Callable[[Job, int, Dict[str, Any]], None]
_CommitFailed = Callable[[Job, Optional[int], str, str,
                          Optional[Dict[str, Any]]], None]

def _null_emit(kind: str, **fields: Any) -> None:
    """Lifecycle sink when the sweep keeps no journal."""


class _StopControl:
    """Cooperative shutdown state shared with the signal handlers.

    ``level`` counts signals: 0 = run, 1 = drain (no new dispatch,
    in-flight cells finish), 2+ = abandon the drain too. A spent
    ``max_failures`` budget calls :meth:`abort`, which drains like one
    signal without raising ``level``, so one SIGINT after it still
    drains.
    """

    def __init__(self) -> None:
        self.level = 0
        self.aborted = False

    def request(self) -> None:
        self.level += 1

    def abort(self) -> None:
        self.aborted = True

    @property
    def stopping(self) -> bool:
        return self.aborted or self.level >= 1


def _install_signal_handlers(stop: _StopControl) -> Dict[int, Any]:
    """Route SIGINT/SIGTERM into ``stop``; returns the handlers to
    restore (empty off the main thread, where signals cannot be set)."""
    import signal

    if threading.current_thread() is not threading.main_thread():
        return {}
    previous: Dict[int, Any] = {}

    def handler(signum: int, frame: Any) -> None:
        stop.request()

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover — exotic hosts
            pass
    return previous


def _restore_signal_handlers(previous: Dict[int, Any]) -> None:
    import signal

    for sig, handler in previous.items():
        try:
            signal.signal(sig, handler)
        except (ValueError, OSError):  # pragma: no cover
            pass


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    spec: GridSpec
    manifest: SweepManifest
    #: successful records, in grid order (hits and misses alike)
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: telemetry document (None when every cell failed)
    doc: Optional[Dict[str, Any]] = None
    #: how the sweep ended: "complete" | "interrupted" | "aborted"
    status: str = "complete"
    #: cells restored from a resume journal without re-execution
    restored: int = 0


# ------------------------------------------------------------ serial path
def _run_jobs_serial(jobs: List[Job], suite: str, stop: _StopControl,
                     commit_done: _CommitDone, commit_failed: _CommitFailed,
                     emit: Callable[..., Any] = _null_emit,
                     heartbeat: Optional[float] = None) -> None:
    """Reference execution: same cell path as the workers, inline.

    Per-cell timeouts are not enforced inline (there is no worker to
    kill); in-cell exceptions still become typed failures. With a
    journal attached, the inline path reports as worker 0 — including
    heartbeats, via the same engine hook the worker processes use. A
    stop (checked between cells — an executing cell always finishes)
    leaves the remaining jobs unresolved.
    """
    current: Dict[str, Any] = {"index": -1}
    hooked = False
    if heartbeat is not None and emit is not _null_emit:
        def beat(events: int, virtual: float) -> None:
            if current["index"] >= 0:
                emit("heartbeat", cell=current["index"], worker=0,
                     data={"events_executed": int(events),
                           "virtual_seconds": float(virtual)})

        install_heartbeat(beat, heartbeat)
        hooked = True
    emit("worker-spawn", worker=0, data={"inline": True})
    try:
        for job in jobs:
            if stop.stopping:
                break
            emit("dispatched", cell=job.index, id=job.scenario.cell_id(),
                 key=job.key, data={"attempt": job.attempt})
            emit("started", cell=job.index, id=job.scenario.cell_id(),
                 worker=0)
            current["index"] = job.index
            try:
                record = execute_cell(job.scenario, suite=suite)
            except Exception as exc:  # noqa: BLE001 — typed CellFailed outcome
                current["index"] = -1
                commit_failed(job, 0, "error",
                              f"{type(exc).__name__}: {exc}", None)
            else:
                current["index"] = -1
                commit_done(job, 0, record)
    finally:
        if hooked:
            from repro.sim.engine import clear_host_hook

            clear_host_hook()
        emit("worker-exit", worker=0, data={"inline": True})


# ---------------------------------------------------------- parallel path
def _kill(proc: multiprocessing.Process) -> None:
    proc.terminate()
    proc.join(timeout=1.0)
    if proc.is_alive():  # pragma: no cover — terminate nearly always lands
        proc.kill()
        proc.join(timeout=1.0)


def _run_jobs_parallel(jobs: List[Job], workers: int, suite: str,
                       timeout: Optional[float], stop: _StopControl,
                       commit_done: _CommitDone,
                       commit_failed: _CommitFailed,
                       progress: Optional[Progress] = None,
                       emit: Callable[..., Any] = _null_emit,
                       heartbeat: Optional[float] = DEFAULT_HEARTBEAT,
                       max_retries: int = DEFAULT_MAX_RETRIES,
                       retry_backoff: float = 0.0) -> None:
    """Dispatch jobs over N worker processes; see run_sweep's contract.

    Each worker has one duplex pipe of its own, and the scheduler sends
    it one job at a time, so the scheduler always knows which job each
    worker holds: a worker that dies or is killed gives its job back at
    once, and no job can be lost. A per-worker pipe needs no lock (one
    writer each way, synchronous sends) and dies with its worker,
    whereas a shared queue's lock held by a killed worker would mute
    every other worker. A freed worker gets its next job only after its
    last result is committed, so in the journal each worker's
    ``started`` follows the outcome of the cell before.

    A stop drains: nothing new is sent, cells already running finish (a
    second signal abandons even those), and unresolved jobs are left for
    the caller to mark pending.
    """
    max_attempts = 1 + max(0, max_retries)
    ctx = multiprocessing.get_context()
    n_workers = min(workers, len(jobs))
    procs: Dict[int, Any] = {}     # worker id -> process
    conns: Dict[int, Any] = {}     # worker id -> scheduler end of its pipe
    running: Dict[int, Tuple[Job, float]] = {}   # worker id -> (job, sent at)
    beats: Dict[int, Dict[str, Any]] = {}        # worker id -> last progress
    pending = deque(jobs)
    delayed: List[Tuple[float, Job]] = []         # (ready_at, job) backoff
    wids = itertools.count()       # worker ids; the first n_workers spawn

    def spawn() -> None:
        wid = next(wids)
        ours, theirs = ctx.Pipe()
        proc = ctx.Process(target=worker_main,
                           args=(theirs, suite, heartbeat), daemon=True)
        proc.start()
        theirs.close()             # the worker holds the only other end
        procs[wid], conns[wid] = proc, ours
        emit("worker-respawn" if wid >= n_workers else "worker-spawn",
             worker=wid, data={"pid": proc.pid})

    def retire(wid: int) -> Tuple[Any, Optional[Job], Optional[Dict]]:
        """Forget a dead or killed worker: its process, the job it held
        (None when idle) and that job's last progress. What it had sent
        but the scheduler had not read is dropped with its pipe."""
        conns.pop(wid).close()
        job = running.pop(wid, (None, 0.0))[0]
        return procs.pop(wid), job, beats.pop(wid, None)

    def lose(job: Job, kind: str, detail: str,
             prog: Optional[Dict[str, Any]]) -> None:
        """A worker died or was killed holding ``job``: retry it after a
        backoff, or commit the typed failure once attempts run out.
        While stopping it stays unresolved — resume re-runs it."""
        if stop.stopping:
            return
        if job.attempt >= max_attempts:
            commit_failed(job, None, kind, detail, prog)
            return
        delay = retry_backoff * (2 ** (job.attempt - 1))
        delayed.append((time.monotonic() + delay,
                        replace(job, attempt=job.attempt + 1)))
        emit("retried", cell=job.index, id=job.scenario.cell_id(),
             data={"attempt": job.attempt + 1, "kind": kind,
                   "detail": detail, "backoff": round(delay, 3)})
        if progress is not None:
            progress(job.scenario.cell_id(), "retry")

    import_cell_path(job.scenario for job in jobs)
    try:
        while True:
            if stop.stopping:
                pending.clear()
                delayed.clear()
                if stop.level >= 2 or not running:
                    break              # abandoned, or drained clean
            else:
                now = time.monotonic()
                pending.extend(job for at, job in delayed if at <= now)
                delayed[:] = [(at, job) for at, job in delayed if at > now]
                unresolved = len(pending) + len(delayed) + len(running)
                if not unresolved:
                    break
                while len(procs) < min(n_workers, unresolved):
                    spawn()
                for wid, conn in conns.items():
                    if not pending or wid in running:
                        continue
                    job = pending.popleft()
                    try:
                        conn.send(job)
                    except OSError:    # already dead: its EOF retires it
                        pending.appendleft(job)
                        continue
                    running[wid] = (job, time.monotonic())
                    emit("dispatched", cell=job.index,
                         id=job.scenario.cell_id(), key=job.key,
                         data={"attempt": job.attempt})
                    emit("started", cell=job.index,
                         id=job.scenario.cell_id(), worker=wid)
            ready = multiprocessing.connection.wait(list(conns.values()),
                                                    0.05)
            for wid in [w for w, conn in conns.items() if conn in ready]:
                try:
                    tag, payload = conns[wid].recv()
                except (EOFError, OSError):
                    # Its end of the pipe closed, possibly mid-message:
                    # the worker is dead, and so is any job it held.
                    proc, job, prog = retire(wid)
                    _kill(proc)   # reaps it; an exiting process keeps its code
                    emit("worker-death", worker=wid,
                         data={"pid": proc.pid, "exitcode": proc.exitcode})
                    if job is not None:
                        lose(job, "crash",
                             f"worker exited with code {proc.exitcode}",
                             prog)
                    continue
                job = running[wid][0]
                if tag == "beat":
                    beats[wid] = payload
                    emit("heartbeat", cell=job.index, worker=wid,
                         data=payload)
                    continue
                del running[wid]
                beats.pop(wid, None)
                if tag == "done":
                    commit_done(job, wid, payload)
                else:
                    commit_failed(job, wid, "error", payload, None)
            # Per-job wall-clock timeout: kill the worker, recover the job.
            if timeout is not None:
                now = time.monotonic()
                for wid in [w for w, (_, t0) in running.items()
                            if now - t0 > timeout]:
                    proc, job, prog = retire(wid)
                    emit("worker-kill", worker=wid, cell=job.index,
                         data={"pid": proc.pid, "timeout": timeout,
                               "progress": prog})
                    _kill(proc)
                    detail = f"exceeded {timeout:g}s wall clock"
                    if prog is not None:
                        detail += (f" at {prog['events_executed']} events / "
                                   f"{prog['virtual_seconds']:.6f}s virtual")
                    lose(job, "timeout", detail, prog)
    finally:
        for conn in conns.values():
            try:
                conn.send(None)        # the shutdown sentinel
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for wid, proc in procs.items():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                _kill(proc)
            emit("worker-exit", worker=wid, data={"pid": proc.pid})
            conns[wid].close()


# --------------------------------------------------------------- run_sweep
def run_sweep(spec: GridSpec, workers: int = 1,
              cache: Optional[ResultCache] = None,
              timeout: Optional[float] = None,
              progress: Optional[Progress] = None,
              heartbeat: Optional[float] = DEFAULT_HEARTBEAT,
              journal: Optional[Union[str, SweepJournal]] = None,
              resume_from: Optional[Union[str, JournalState]] = None,
              retry_failed: bool = False,
              max_retries: int = DEFAULT_MAX_RETRIES,
              max_failures: Optional[int] = None,
              retry_backoff: float = 0.0,
              handle_signals: bool = False) -> SweepResult:
    """Run one sweep; see the module docstring for the full contract.

    ``cache`` serves and stores cell records; None persists nothing.
    ``journal`` enables the sweep's durable log (a path or a pre-built
    :class:`~repro.fabric.journal.SweepJournal`); ``heartbeat`` is the
    in-cell progress period in host seconds (None disables heartbeats);
    ``resume_from`` (a journal path or a replayed
    :class:`~repro.fabric.journal.JournalState`) restores the committed
    cells of an interrupted sweep instead of re-executing them —
    ``retry_failed`` additionally re-runs cells that committed as
    failed. ``max_retries`` / ``max_failures`` / ``retry_backoff`` are
    the failure policy; ``handle_signals`` arms the graceful
    SIGINT/SIGTERM drain (main thread only).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if heartbeat is not None and heartbeat <= 0:
        raise ValueError(f"heartbeat must be > 0 seconds, got {heartbeat}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if max_failures is not None and max_failures < 1:
        raise ValueError(f"max_failures must be >= 1, got {max_failures}")
    if retry_backoff < 0:
        raise ValueError(f"retry_backoff must be >= 0, got {retry_backoff}")
    lookup = cache.get if cache is not None else (lambda key: None)
    if timeout is None:
        timeout = spec.timeout
    t0 = time.monotonic()
    cells = spec.expand()
    keys = [scenario_key(sc) for sc in cells]

    resume_state: Optional[JournalState] = None
    if resume_from is not None:
        resume_state = (replay_journal(resume_from)
                        if isinstance(resume_from, str) else resume_from)
        declared = resume_state.header.get("cells")
        if declared is not None and int(declared) != len(cells):
            raise JournalError(
                f"journal describes {declared} cells but this grid expands "
                f"to {len(cells)} — refusing to resume a different sweep")

    owns_journal = isinstance(journal, str)
    jnl: Optional[SweepJournal] = None
    if owns_journal:
        if resume_state is not None and os.path.exists(journal):
            jnl = SweepJournal.resume(journal)
        else:
            jnl = SweepJournal(journal, header={
                "suite": spec.suite, "cells": len(cells),
                "workers": int(workers),
                "cache_dir": str(cache.root) if cache is not None else None,
                "grid": spec.to_dict()})
    elif journal is not None:
        jnl = journal

    emit = jnl.emit if jnl is not None else _null_emit

    stop = _StopControl()
    prev_handlers: Dict[int, Any] = {}
    if handle_signals:
        prev_handlers = _install_signal_handlers(stop)

    emit("sweep-begin", data={"suite": spec.suite, "cells": len(cells),
                              "workers": workers,
                              "resumed": resume_state is not None})

    outcomes: Dict[int, CellOutcome] = {}
    records: Dict[int, Dict[str, Any]] = {}
    primary: Dict[str, int] = {}     # key -> executing cell index
    dependents: Dict[str, List[int]] = {}
    jobs: List[Job] = []
    restored = 0
    failures = 0

    def commit_done(job: Job, worker: int, record: Dict[str, Any]) -> None:
        """A cell executed: store, then durably commit its outcome."""
        i = job.index
        sc = cells[i]
        emit("done", cell=i, id=sc.cell_id(), worker=worker,
             data={"events_executed": record["events_executed"],
                   "virtual_seconds": record["virtual_seconds"],
                   "host_seconds": record["host_seconds"]})
        if cache is not None:
            cache.put(job.key, record)
        faultpoints.maybe_crash(faultpoints.ORCH_PRE_COMMIT)
        records[i] = record
        outcomes[i] = CellOutcome(
            index=i, id=sc.cell_id(), key=job.key, outcome="miss",
            attempts=job.attempt, host_seconds=record["host_seconds"],
            events=record["events_executed"])
        if jnl is not None:
            jnl.commit(outcomes[i])
            faultpoints.maybe_crash(faultpoints.ORCH_POST_COMMIT)
        if progress is not None:
            progress(sc.cell_id(), "miss")

    def commit_failed(job: Job, worker: Optional[int], kind: str,
                      detail: str, prog: Optional[Dict[str, Any]]) -> None:
        """A cell failed for good: commit it, and spend the budget."""
        nonlocal failures
        i = job.index
        sc = cells[i]
        emit("failed", cell=i, id=sc.cell_id(), worker=worker,
             data={"kind": kind, "detail": detail})
        outcomes[i] = CellOutcome(
            index=i, id=sc.cell_id(), key=job.key, outcome="failed",
            attempts=job.attempt, error=f"{kind}: {detail}", progress=prog)
        if jnl is not None:
            jnl.commit(outcomes[i])
        if progress is not None:
            progress(sc.cell_id(), "failed")
        failures += 1
        if max_failures is not None and failures >= max_failures:
            stop.abort()

    try:
        for i, (sc, key) in enumerate(zip(cells, keys)):
            committed = (resume_state.committed.get(i)
                         if resume_state is not None else None)
            if committed is not None:
                if committed.key != key:
                    raise JournalError(
                        f"journal cell {i} was committed under a different "
                        f"content address — the journal does not match "
                        f"this grid")
                if committed.outcome == "failed" and not retry_failed:
                    outcomes[i] = committed
                    restored += 1
                    emit("failed", cell=i, id=sc.cell_id(), key=key,
                         data={"kind": "restored",
                               "detail": committed.error or ""})
                    if progress is not None:
                        progress(sc.cell_id(), "restored")
                    continue
                if committed.outcome in ("hit", "miss"):
                    record = lookup(key)
                    if record is not None:
                        record.update(id=sc.cell_id(), suite=spec.suite)
                        records[i] = record
                        outcomes[i] = committed
                        restored += 1
                        emit("cache-hit", cell=i, id=sc.cell_id(), key=key,
                             data={"restored": True})
                        if progress is not None:
                            progress(sc.cell_id(), "restored")
                        continue
                    # committed but the cache entry is gone or was
                    # quarantined: the commit record alone is not a
                    # result — demote the cell back to the worklist
            record = lookup(key)
            if record is not None:
                record.update(id=sc.cell_id(), suite=spec.suite)
                records[i] = record
                outcomes[i] = CellOutcome(index=i, id=sc.cell_id(), key=key,
                                          outcome="hit")
                if jnl is not None:
                    jnl.commit(outcomes[i], sync=False)
                emit("cache-hit", cell=i, id=sc.cell_id(), key=key)
                if progress is not None:
                    progress(sc.cell_id(), "hit")
            elif key in primary:
                # Duplicate axis values collapse onto one execution.
                dependents.setdefault(key, []).append(i)
            else:
                primary[key] = i
                jobs.append(Job(index=i, key=key, scenario=sc))
                emit("enqueued", cell=i, id=sc.cell_id(), key=key)
        if jnl is not None:
            jnl.sync()       # one fsync covers the whole hit scan

        if not jobs:
            pass
        elif workers <= 1:
            _run_jobs_serial(jobs, spec.suite, stop, commit_done,
                             commit_failed, emit=emit, heartbeat=heartbeat)
        else:
            _run_jobs_parallel(
                jobs, workers, spec.suite, timeout, stop, commit_done,
                commit_failed, progress=progress, emit=emit,
                heartbeat=heartbeat, max_retries=max_retries,
                retry_backoff=retry_backoff)

        # Unresolved jobs (interrupted / aborted) are pending, not failed:
        # they carry no commit record, so resume re-executes exactly them.
        for job in jobs:
            if job.index not in outcomes:
                sc = cells[job.index]
                outcomes[job.index] = CellOutcome(
                    index=job.index, id=sc.cell_id(), key=job.key,
                    outcome="pending", attempts=0)

        for job in jobs:
            i, key = job.index, job.key
            for dep in dependents.get(key, ()):  # same key -> share the result
                dep_sc = cells[dep]
                if i in records:
                    outcomes[dep] = CellOutcome(index=dep,
                                                id=dep_sc.cell_id(),
                                                key=key, outcome="hit")
                    if jnl is not None:
                        jnl.commit(outcomes[dep], sync=False)
                    emit("cache-hit", cell=dep, id=dep_sc.cell_id(), key=key,
                         data={"shared_with": i})
                    if progress is not None:
                        progress(dep_sc.cell_id(), "hit")
                elif outcomes[i].outcome == "failed":
                    outcomes[dep] = CellOutcome(
                        index=dep, id=dep_sc.cell_id(), key=key,
                        outcome="failed", error=outcomes[i].error)
                    if jnl is not None:
                        jnl.commit(outcomes[dep], sync=False)
                    kind, _, detail = (outcomes[i].error or ": ").partition(": ")
                    emit("failed", cell=dep, id=dep_sc.cell_id(), key=key,
                         data={"kind": kind, "detail": detail,
                               "shared_with": i})
                    if progress is not None:
                        progress(dep_sc.cell_id(), "failed")
                else:   # primary never resolved — dependents pend with it
                    outcomes[dep] = CellOutcome(
                        index=dep, id=dep_sc.cell_id(), key=key,
                        outcome="pending", attempts=0)
        if jnl is not None:
            jnl.sync()

        pending_cells = sum(1 for oc in outcomes.values()
                            if oc.outcome == "pending")
        if stop.aborted:
            status = "aborted"
        elif stop.stopping and pending_cells:
            status = "interrupted"
        else:
            status = "complete"

        manifest = SweepManifest(
            suite=spec.suite, workers=workers,
            cells=[outcomes[i] for i in range(len(cells))],
            elapsed=time.monotonic() - t0,
            cache=cache.stats() if cache is not None else None,
            status=status)
        emit("sweep-end", data={"counts": manifest.counts(),
                                "elapsed": manifest.elapsed,
                                "status": status,
                                "simulated_events":
                                    manifest.simulated_events(),
                                "cache": manifest.cache})
        if jnl is not None:
            jnl.status(status)
    finally:
        if handle_signals:
            _restore_signal_handlers(prev_handlers)
        if owns_journal and jnl is not None:
            jnl.close()

    ordered = [records[i] for i in sorted(records)]
    doc: Optional[Dict[str, Any]] = None
    if ordered:
        from repro.bench.telemetry import telemetry_document

        doc = telemetry_document(spec.suite, spec.scales[0], ordered)
    return SweepResult(spec=spec, manifest=manifest, records=ordered,
                       doc=doc, status=status, restored=restored)
