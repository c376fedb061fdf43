"""Worker protocol for the experiment fabric.

A worker process runs :func:`worker_main` over two channels: it takes
:class:`Job` objects off the (bounded, shared) job queue and answers on
the write end of its own result pipe with tagged tuples::

    ("start", index, None,   pid)   # picked the job up (arms the timeout)
    ("beat",  index, prog,   pid)   # in-cell progress heartbeat
    ("done",  index, record, pid)   # cell executed, record attached
    ("fail",  index, detail, pid)   # cell raised a typed error
    ("bye",   index, None,   pid)   # saw the shutdown sentinel (None job)

``prog`` is ``{"events_executed": int, "virtual_seconds": float}`` —
the engine counters of the cell being executed, sampled from a periodic
host-side hook in the sim engine (:func:`repro.sim.engine.set_host_hook`)
and throttled to at most one message per ``heartbeat`` host seconds.
Heartbeats let the scheduler distinguish a *slow* cell from a *stuck*
one and record progress-at-kill when a timeout fires; they read counters
only and never touch virtual time, so results stay bit-identical with
heartbeats on or off.

The scheduler (:mod:`repro.fabric.scheduler`) owns retries, timeouts,
and crash recovery; the worker itself is deliberately dumb. Anything a
cell raises is reported as a ``fail`` message — only a *dying worker
process* (signal, hard crash, timeout kill) is recovered by the
scheduler respawning the worker and re-queueing its job.

:func:`execute_cell` is the single execution path for a cell: the serial
sweep mode, the parallel workers, and the parity tests all call it, so
a cell's virtual-time result cannot depend on where it ran.
"""

from __future__ import annotations

import os
import queue as _queue_mod
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

import repro.fabric.faultpoints as faultpoints
from repro.fabric.gridspec import Scenario

__all__ = ["Job", "CellFailed", "execute_cell", "import_cell_path",
           "install_heartbeat", "worker_main", "HOOK_EVERY_EVENTS"]

#: The engine host hook fires every this-many dispatched events; the
#: heartbeat interval (host seconds) then throttles actual messages.
#: Small enough to bound heartbeat latency on slow cells, large enough
#: to keep the per-event cost of an armed hook unmeasurable.
HOOK_EVERY_EVENTS = 2048


@dataclass(frozen=True)
class Job:
    """One unit of sweep work: a cell plus its content address."""

    index: int
    key: str
    scenario: Scenario
    attempt: int = 1


class CellFailed(Exception):
    """Typed per-cell failure recorded in the cell's outcome.

    A failed cell never aborts the sweep: the scheduler converts crashes
    (after one retry), timeouts, and cell-level exceptions into this
    outcome and carries on with the rest of the grid.
    """

    def __init__(self, cell_id: str, kind: str, detail: str) -> None:
        super().__init__(f"{cell_id}: {kind}: {detail}")
        self.cell_id = cell_id
        #: "error" | "crash" | "timeout"
        self.kind = kind
        self.detail = detail


def execute_cell(scenario: Scenario, suite: str = "sweep") -> Dict[str, Any]:
    """Run one cell and return its telemetry record.

    The record is exactly what :func:`repro.bench.telemetry.run_unit`
    produces — schema-valid, the golden store's row form — with the ``id``
    rewritten to the cell id so swept variants of one preset/label pair
    stay distinguishable inside one document.
    """
    from repro.bench.telemetry import run_unit

    faults: Optional[Any] = None
    if scenario.faults is not None:
        from repro.faults import FaultPlan

        faults = FaultPlan.loads(scenario.faults)
    record = run_unit(scenario.preset, scenario.label, scenario.scale,
                      native=scenario.native, suite=suite,
                      overrides=dict(scenario.overrides),
                      faults=faults, nodes=scenario.nodes,
                      sharing=scenario.sharing)
    record["id"] = scenario.cell_id()
    return record


def import_cell_path(scenarios: Iterable[Scenario]) -> None:
    """Import what :func:`execute_cell` runs for ``scenarios``, so that
    workers forked afterwards share it rather than each compiling it."""
    from repro.apps import get_app
    from repro.bench.runners import WORKLOADS

    for name in ("repro.core.templates", "repro.dsm.jiajia",
                 "repro.dsm.scivm", "repro.dsm.smp", "repro.faults",
                 "repro.machine.sci", "repro.obs.critical_path"):
        __import__(name)
    for app in {WORKLOADS[scenario.label].app for scenario in scenarios}:
        get_app(app)


def install_heartbeat(emit: Callable[[int, float], None],
                      interval: float) -> None:
    """Arm the process-wide engine hook behind worker/serial heartbeats.

    ``emit(events_executed, virtual_seconds)`` is called from the engine
    dispatch loop, at most once per ``interval`` host seconds, for every
    engine built in this process afterwards. Pair with
    :func:`repro.sim.engine.clear_host_hook` in a ``finally``.
    """
    from repro.sim.engine import set_host_hook

    if interval <= 0:
        raise ValueError(f"heartbeat interval must be > 0, got {interval}")
    last = [0.0]

    def hook(engine: Any) -> None:
        now = time.monotonic()
        if now - last[0] >= interval:
            last[0] = now
            emit(engine.events_executed, engine.now)

    set_host_hook(hook, every_events=HOOK_EVERY_EVENTS)


def worker_main(job_q: Any, results: Any, suite: str = "sweep",
                heartbeat: Optional[float] = None) -> None:
    """Worker process entry point: drain jobs until the None sentinel.

    ``results`` is the write end of this worker's own result pipe (a
    ``multiprocessing`` connection; anything with ``send``). With
    ``heartbeat`` set, a periodic engine hook reports the running cell's
    progress as ``("beat", index, prog, pid)`` messages at most every
    ``heartbeat`` host seconds.

    Workers ignore SIGINT: a terminal Ctrl-C lands on the whole process
    group, and graceful shutdown means the *orchestrator* decides —
    in-flight cells drain to completion unless it escalates (SIGTERM
    from the scheduler's kill path still works).

    An idle worker polls the queue and checks that its parent is still
    alive between polls: if the orchestrator is SIGKILL'd (so neither
    the sentinel nor multiprocessing's daemon cleanup ever arrives),
    the orphaned worker exits on its own instead of blocking on the job
    queue forever and pinning the inherited pipes open.
    """
    import signal as _signal

    try:
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — non-main thread
        pass
    pid = os.getpid()
    parent = os.getppid()
    current: Dict[str, int] = {"index": -1}
    if heartbeat is not None:
        def emit(events: int, virtual: float) -> None:
            if current["index"] >= 0:
                results.send(("beat", current["index"],
                              {"events_executed": int(events),
                               "virtual_seconds": float(virtual)}, pid))
                faultpoints.maybe_stall(faultpoints.WORKER_CELL_STALL)

        install_heartbeat(emit, heartbeat)
    try:
        while True:
            try:
                job = job_q.get(timeout=1.0)
            except _queue_mod.Empty:
                if os.getppid() != parent:   # orphaned: orchestrator is gone
                    return
                continue
            if job is None:
                results.send(("bye", -1, None, pid))
                return
            results.send(("start", job.index, None, pid))
            current["index"] = job.index
            faultpoints.maybe_crash(faultpoints.WORKER_CELL_START)
            try:
                record = execute_cell(job.scenario, suite=suite)
                current["index"] = -1
                results.send(("done", job.index, record, pid))
            except Exception as exc:  # noqa: BLE001 — typed failure, not death
                current["index"] = -1
                results.send(("fail", job.index,
                              f"{type(exc).__name__}: {exc}", pid))
    except BrokenPipeError:
        return      # the orchestrator is gone: nobody is left to report to
