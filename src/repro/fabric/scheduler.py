"""Sweep orchestration: expand, consult the cache, dispatch, recover.

:func:`run_sweep` is the fabric's one entry point:

1. expand the :class:`~repro.fabric.gridspec.GridSpec` into (content
   address, scenario) cells;
2. serve every cell already in the :class:`~repro.fabric.cache.ResultCache`
   (a fully-unchanged grid costs zero simulation time);
3. dispatch the misses — inline when ``workers <= 1`` (the reference
   serial path), otherwise to N worker processes over bounded queues;
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
heartbeats (engine events executed, virtual seconds) over their result
pipes into the same journal — so a live sweep can be watched (``sweep
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

import multiprocessing
import multiprocessing.connection
import os
import queue as _queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

import repro.fabric.faultpoints as faultpoints
from repro.fabric.cache import DEFAULT_CACHE_DIR, ResultCache, scenario_key
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

#: Result sinks the runners feed as cells resolve: ``on_done(job,
#: record)`` and ``on_fail(job, kind, detail, progress_at_kill)``.
#: run_sweep's implementations commit each result durably (cache +
#: journal fsync) the moment it lands.
_OnDone = Callable[[Job, Dict[str, Any]], None]
_OnFail = Callable[[Job, str, str, Optional[Dict[str, Any]]], None]

def _null_emit(kind: str, **fields: Any) -> None:
    """Lifecycle sink when the sweep keeps no journal."""


class _StopControl:
    """Cooperative shutdown state shared with the signal handlers.

    ``level`` escalates: 0 = run, 1 = drain (no new dispatch, in-flight
    cells finish), 2+ = abandon the drain too.
    """

    def __init__(self) -> None:
        self.level = 0

    def request(self) -> None:
        self.level += 1

    @property
    def stopping(self) -> bool:
        return self.level >= 1


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
def _run_jobs_serial(jobs: List[Job], suite: str, progress: Optional[Progress],
                     emit: Callable[..., Any] = _null_emit,
                     heartbeat: Optional[float] = None,
                     on_done: Optional[_OnDone] = None,
                     on_fail: Optional[_OnFail] = None,
                     stop: Optional[_StopControl] = None,
                     max_failures: Optional[int] = None) -> bool:
    """Reference execution: same cell path as the workers, inline.

    Per-cell timeouts are not enforced inline (there is no worker to
    kill); in-cell exceptions still become typed failures. With a
    journal attached, the inline path reports as worker 0 — including
    heartbeats, via the same engine hook the worker processes use.
    Returns True when the ``max_failures`` budget aborted the run;
    a stop request (checked between cells — an executing cell always
    finishes) simply leaves the remaining jobs unresolved.
    """
    current: Dict[str, Any] = {"index": -1}
    failures = 0
    aborted = False
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
            if aborted or (stop is not None and stop.stopping):
                break
            cell_id = job.scenario.cell_id()
            emit("dispatched", cell=job.index, id=cell_id, key=job.key,
                 data={"attempt": job.attempt})
            emit("started", cell=job.index, id=cell_id, worker=0)
            current["index"] = job.index
            try:
                record = execute_cell(job.scenario, suite=suite)
                emit("done", cell=job.index, id=cell_id, worker=0,
                     data={"events_executed": record["events_executed"],
                           "virtual_seconds": record["virtual_seconds"],
                           "host_seconds": record["host_seconds"]})
                if on_done is not None:
                    on_done(job, record)
                if progress is not None:
                    progress(cell_id, "miss")
            except Exception as exc:  # noqa: BLE001 — typed CellFailed outcome
                detail = f"{type(exc).__name__}: {exc}"
                emit("failed", cell=job.index, id=cell_id, worker=0,
                     data={"kind": "error", "detail": detail})
                if on_fail is not None:
                    on_fail(job, "error", detail, None)
                if progress is not None:
                    progress(cell_id, "failed")
                failures += 1
                if max_failures is not None and failures >= max_failures:
                    aborted = True
            finally:
                current["index"] = -1
    finally:
        if hooked:
            from repro.sim.engine import clear_host_hook

            clear_host_hook()
        emit("worker-exit", worker=0, data={"inline": True})
    return aborted


# ---------------------------------------------------------- parallel path
def _kill(proc: multiprocessing.Process) -> None:
    proc.terminate()
    proc.join(timeout=1.0)
    if proc.is_alive():  # pragma: no cover — terminate nearly always lands
        proc.kill()
        proc.join(timeout=1.0)


def _run_jobs_parallel(jobs: List[Job], workers: int, suite: str,
                       timeout: Optional[float],
                       progress: Optional[Progress],
                       stall_grace: float = 5.0,
                       emit: Callable[..., Any] = _null_emit,
                       heartbeat: Optional[float] = DEFAULT_HEARTBEAT,
                       on_done: Optional[_OnDone] = None,
                       on_fail: Optional[_OnFail] = None,
                       stop: Optional[_StopControl] = None,
                       max_retries: int = DEFAULT_MAX_RETRIES,
                       max_failures: Optional[int] = None,
                       retry_backoff: float = 0.0) -> bool:
    """Dispatch jobs over N worker processes; see run_sweep's contract.

    Returns True when the ``max_failures`` budget aborted the run. A
    stop request drains: nothing new is dispatched, cells already handed
    to the pool finish (a second request abandons even those), and
    unresolved jobs are left for the caller to mark pending.
    """
    stop = stop or _StopControl()
    max_attempts = 1 + max(0, max_retries)
    ctx = multiprocessing.get_context()
    n_workers = min(workers, len(jobs))
    job_q = ctx.Queue(maxsize=max(2, 2 * n_workers))  # bounded by design
    procs: Dict[int, Any] = {}
    # Results come back over one pipe per worker, not a shared queue: a
    # queue's writers serialise on a cross-process lock, and a worker
    # killed (timeout) or crashed while its feeder thread holds it
    # silences every other worker for good. A private pipe needs no lock
    # (one writer, synchronous sends) and dies with its worker.
    results: Dict[int, Any] = {}   # worker pid -> read end of its pipe
    inbox: deque = deque()         # messages received, not yet handled
    wids: Dict[int, int] = {}      # worker pid -> stable worker id
    next_wid = [0]

    def spawn(respawn: bool = False) -> None:
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=worker_main,
                           args=(job_q, writer, suite, heartbeat),
                           daemon=True)
        proc.start()
        writer.close()             # the worker holds the only write end
        procs[proc.pid] = proc
        results[proc.pid] = reader
        wids[proc.pid] = next_wid[0]
        emit("worker-respawn" if respawn else "worker-spawn",
             worker=next_wid[0], data={"pid": proc.pid})
        next_wid[0] += 1

    def retire(wpid: int) -> Any:
        """Forget a dead or killed worker; what it had sent but the
        scheduler had not yet read is dropped with its pipe (its job is
        recovered as a crash or a lost job, never half-reported)."""
        reader = results.pop(wpid, None)
        if reader is not None:
            reader.close()
        return procs.pop(wpid, None)

    def receive(wait: float) -> None:
        """Move what the workers have sent (waiting up to ``wait`` host
        seconds for something) into the inbox."""
        ready = multiprocessing.connection.wait(list(results.values()), wait)
        for wpid, reader in list(results.items()):
            if reader in ready:
                try:
                    inbox.append(reader.recv())
                except (EOFError, OSError):
                    # Write end gone (possibly mid-message): the worker
                    # is dead; the liveness check below recovers its job.
                    results.pop(wpid).close()

    import_cell_path(job.scenario for job in jobs)
    for _ in range(n_workers):
        spawn()

    jobs_by_index: Dict[int, Job] = {job.index: job for job in jobs}
    pending = deque(jobs)
    delayed: List[Tuple[float, Job]] = []         # (ready_at, job) backoff
    handed: Set[int] = set()       # on the job queue, no "start" seen yet
    inflight: Dict[int, Tuple[Job, float]] = {}   # worker pid -> (job, t0)
    last_beat: Dict[int, Dict[str, Any]] = {}     # job index -> progress
    outstanding = set(jobs_by_index)
    failures = [0]
    aborted = [False]

    def resolve_fail(job: Job, kind: str, detail: str,
                     prog: Optional[Dict[str, Any]] = None) -> None:
        """Retry a lost job (with backoff), then record the typed failure.

        While stopping/aborting, a lost job is simply left unresolved —
        the caller reports it pending and resume re-runs it."""
        cell_id = job.scenario.cell_id()
        handed.discard(job.index)
        if stop.stopping or aborted[0]:
            last_beat.pop(job.index, None)
            return
        if job.attempt < max_attempts:
            retry = Job(index=job.index, key=job.key,
                        scenario=job.scenario, attempt=job.attempt + 1)
            jobs_by_index[job.index] = retry
            delay = retry_backoff * (2 ** (job.attempt - 1))
            if delay > 0.0:
                delayed.append((time.monotonic() + delay, retry))
            else:
                pending.append(retry)
            last_beat.pop(job.index, None)  # stale: belongs to the dead try
            emit("retried", cell=job.index, id=cell_id,
                 data={"attempt": retry.attempt, "kind": kind,
                       "detail": detail, "backoff": round(delay, 3)})
            if progress is not None:
                progress(cell_id, "retry")
        else:
            outstanding.discard(job.index)
            last_beat.pop(job.index, None)
            emit("failed", cell=job.index, id=cell_id,
                 data={"kind": kind, "detail": detail})
            if on_fail is not None:
                on_fail(job, kind, detail, prog)
            if progress is not None:
                progress(cell_id, "failed")
            failures[0] += 1
            if max_failures is not None and failures[0] >= max_failures:
                aborted[0] = True

    try:
        last_activity = time.monotonic()
        while outstanding:
            now = time.monotonic()
            draining = stop.stopping or aborted[0]
            if draining:
                pending.clear()
                delayed.clear()
                if stop.level >= 2:
                    break               # abandon the drain: hard stop
                if not inflight and not handed:
                    break               # drained clean
                if not procs:
                    break               # nobody left to finish anything
            else:
                # Matured backoff retries re-enter the dispatch queue.
                if delayed:
                    ready = [j for at, j in delayed if at <= now]
                    if ready:
                        delayed[:] = [(at, j) for at, j in delayed
                                      if at > now]
                        pending.extend(ready)
                while pending:
                    try:
                        job_q.put_nowait(pending[0])
                    except _queue.Full:
                        break
                    job = pending.popleft()
                    handed.add(job.index)
                    emit("dispatched", cell=job.index,
                         id=job.scenario.cell_id(), key=job.key,
                         data={"attempt": job.attempt})
            if not inbox:
                receive(0.05)
            tag, idx, payload, pid = (inbox.popleft() if inbox
                                      else (None, None, None, None))
            now = time.monotonic()
            if tag is not None:
                last_activity = now
            if tag == "start" and pid in procs:
                handed.discard(idx)
                inflight[pid] = (jobs_by_index[idx], now)
                emit("started", cell=idx,
                     id=jobs_by_index[idx].scenario.cell_id(),
                     worker=wids.get(pid))
            elif tag == "beat":
                # Progress from a live cell; stale beats (job already
                # resolved, worker already reaped) are dropped.
                if idx in outstanding and pid in procs:
                    last_beat[idx] = payload
                    emit("heartbeat", cell=idx, worker=wids.get(pid),
                         data=payload)
            elif tag == "done":
                job = jobs_by_index[idx]
                outstanding.discard(idx)
                handed.discard(idx)
                inflight.pop(pid, None)
                last_beat.pop(idx, None)
                emit("done", cell=idx, id=job.scenario.cell_id(),
                     worker=wids.get(pid),
                     data={"events_executed": payload["events_executed"],
                           "virtual_seconds": payload["virtual_seconds"],
                           "host_seconds": payload["host_seconds"]})
                if on_done is not None:
                    on_done(job, payload)
                if progress is not None:
                    progress(job.scenario.cell_id(), "miss")
            elif tag == "fail":
                job = jobs_by_index[idx]
                inflight.pop(pid, None)
                outstanding.discard(idx)
                handed.discard(idx)
                last_beat.pop(idx, None)
                emit("failed", cell=idx, id=job.scenario.cell_id(),
                     worker=wids.get(pid),
                     data={"kind": "error", "detail": payload})
                if on_fail is not None:
                    on_fail(job, "error", payload, None)
                if progress is not None:
                    progress(job.scenario.cell_id(), "failed")
                failures[0] += 1
                if max_failures is not None and failures[0] >= max_failures:
                    aborted[0] = True
            # Per-job wall-clock timeout: kill the worker, recover the job.
            if timeout is not None:
                for wpid in list(inflight):
                    job, t0 = inflight[wpid]
                    if now - t0 > timeout:
                        inflight.pop(wpid)
                        proc = retire(wpid)
                        prog = last_beat.get(job.index)
                        emit("worker-kill", worker=wids.get(wpid, -1),
                             cell=job.index, data={
                                 "pid": wpid, "timeout": timeout,
                                 "progress": prog})
                        if proc is not None:
                            _kill(proc)
                        detail = f"exceeded {timeout:g}s wall clock"
                        if prog is not None:
                            detail += (f" at {prog['events_executed']} "
                                       f"events / "
                                       f"{prog['virtual_seconds']:.6f}s "
                                       f"virtual")
                        resolve_fail(job, "timeout", detail, prog)
            # Dead workers: recover their in-flight job, keep the pool full.
            for wpid in list(procs):
                proc = procs[wpid]
                if proc.is_alive():
                    continue
                retire(wpid)
                emit("worker-death", worker=wids.get(wpid, -1),
                     data={"pid": wpid, "exitcode": proc.exitcode})
                entry = inflight.pop(wpid, None)
                if entry is not None:
                    job = entry[0]
                    prog = last_beat.get(job.index)
                    detail = f"worker exited with code {proc.exitcode}"
                    resolve_fail(job, "crash", detail, prog)
            if (outstanding and not stop.stopping and not aborted[0]
                    and len(procs) < min(n_workers, len(outstanding))):
                spawn(respawn=True)
            # Lost-job recovery. A worker that dies between taking a job
            # off the queue and its "start" message flushing leaves the
            # job unaccounted: not pending, not in flight, never resolved.
            # After a quiet grace period with nothing running and nothing
            # queued, re-queue the unaccounted jobs (re-execution is
            # harmless: cells are deterministic and content-addressed).
            # A job still on the job queue is not lost, only waiting for a
            # worker slow to come up; charging it an attempt (and queueing
            # it a second time) would fail a cell nothing happened to.
            if (outstanding and not inflight and not pending and not delayed
                    and now - last_activity > stall_grace and job_q.empty()):
                for idx in sorted(outstanding):
                    resolve_fail(jobs_by_index[idx], "crash",
                                 "worker died before reporting the job")
                last_activity = now
    finally:
        for _ in range(len(procs)):
            try:
                job_q.put_nowait(None)
            except _queue.Full:  # pragma: no cover
                break
        deadline = time.monotonic() + 2.0
        for pid, proc in procs.items():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                _kill(proc)
            emit("worker-exit", worker=wids.get(pid, -1), data={"pid": pid})
        for reader in results.values():
            reader.close()
        job_q.cancel_join_thread()

    return aborted[0]


# --------------------------------------------------------------- run_sweep
def run_sweep(spec: GridSpec, workers: int = 1,
              cache: Optional[ResultCache] = None,
              cache_dir: str = DEFAULT_CACHE_DIR,
              timeout: Optional[float] = None,
              progress: Optional[Progress] = None,
              stall_grace: float = 5.0,
              heartbeat: Optional[float] = DEFAULT_HEARTBEAT,
              journal: Optional[Union[str, SweepJournal]] = None,
              resume_from: Optional[Union[str, JournalState]] = None,
              retry_failed: bool = False,
              max_retries: int = DEFAULT_MAX_RETRIES,
              max_failures: Optional[int] = None,
              retry_backoff: float = 0.0,
              handle_signals: bool = False) -> SweepResult:
    """Run one sweep; see the module docstring for the full contract.

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
    if cache is None:
        cache = ResultCache(cache_dir)
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
                "workers": int(workers), "cache_dir": str(cache.root),
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
    aborted = False

    def commit_done(job: Job, record: Dict[str, Any]) -> None:
        """A cell executed: store, then durably commit its outcome."""
        i = job.index
        sc = cells[i]
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

    def commit_failed(job: Job, kind: str, detail: str,
                      prog: Optional[Dict[str, Any]]) -> None:
        i = job.index
        sc = cells[i]
        outcomes[i] = CellOutcome(
            index=i, id=sc.cell_id(), key=job.key, outcome="failed",
            attempts=job.attempt, error=f"{kind}: {detail}", progress=prog)
        if jnl is not None:
            jnl.commit(outcomes[i])

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
                    record = cache.get(key)
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
            record = cache.get(key)
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
            aborted = _run_jobs_serial(
                jobs, spec.suite, progress, emit=emit, heartbeat=heartbeat,
                on_done=commit_done, on_fail=commit_failed, stop=stop,
                max_failures=max_failures)
        else:
            aborted = _run_jobs_parallel(
                jobs, workers, spec.suite, timeout, progress,
                stall_grace=stall_grace, emit=emit, heartbeat=heartbeat,
                on_done=commit_done, on_fail=commit_failed, stop=stop,
                max_retries=max_retries, max_failures=max_failures,
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
        if aborted:
            status = "aborted"
        elif stop.stopping and pending_cells:
            status = "interrupted"
        else:
            status = "complete"

        manifest = SweepManifest(
            suite=spec.suite, workers=workers,
            cells=[outcomes[i] for i in range(len(cells))],
            elapsed=time.monotonic() - t0,
            cache=cache.stats(), status=status)
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
