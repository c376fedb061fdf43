"""Worker protocol for the experiment fabric.

A worker process runs :func:`worker_main` over one duplex pipe of its
own. The scheduler sends it one :class:`Job` at a time (``None`` is the
shutdown sentinel), and the worker answers about that job with tagged
tuples::

    ("beat", prog)     # in-cell progress heartbeat
    ("done", record)   # cell executed, record attached
    ("fail", detail)   # cell raised a typed error

The scheduler knows which job it sent to which pipe, so the messages
name neither the job nor the worker.

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
scheduler respawning the worker and sending its job out again.

:func:`execute_cell` is the single execution path for a cell: the serial
sweep mode, the parallel workers, and the parity tests all call it, so
a cell's virtual-time result cannot depend on where it ran.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

import repro.fabric.faultpoints as faultpoints
from repro.fabric.gridspec import Scenario

__all__ = ["Job", "execute_cell", "import_cell_path",
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
                 "repro.machine.sci", "repro.models.jiajia_api",
                 "repro.models.native_jiajia", "repro.obs.critical_path"):
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


def worker_main(conn: Any, suite: str = "sweep",
                heartbeat: Optional[float] = None) -> None:
    """Worker process entry point: run jobs until the None sentinel.

    ``conn`` is the worker's end of its own duplex pipe (a
    ``multiprocessing`` connection): jobs come in, tagged results go
    out. With ``heartbeat`` set, a periodic engine hook reports the
    running cell's progress as ``("beat", prog)`` messages at most every
    ``heartbeat`` host seconds.

    Workers ignore SIGINT: a terminal Ctrl-C lands on the whole process
    group, and graceful shutdown means the *orchestrator* decides —
    in-flight cells drain to completion unless it escalates. SIGTERM is
    reset to its default, so the scheduler's kill path ends a worker at
    once even when the worker was forked with the orchestrator's own
    drain handler installed.

    An idle worker polls its pipe and checks that its parent is still
    alive between polls: if the orchestrator is SIGKILL'd (so neither
    the sentinel nor multiprocessing's daemon cleanup ever arrives),
    the orphaned worker exits on its own. It cannot wait for EOF
    instead: under fork, a worker spawned later inherits the
    orchestrator's end of this pipe and keeps it open.
    """
    import signal as _signal

    try:
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover — non-main thread
        pass
    parent = os.getppid()
    if heartbeat is not None:
        def emit(events: int, virtual: float) -> None:
            conn.send(("beat", {"events_executed": int(events),
                                "virtual_seconds": float(virtual)}))
            faultpoints.maybe_stall(faultpoints.WORKER_CELL_STALL)

        install_heartbeat(emit, heartbeat)
    try:
        while True:
            if not conn.poll(1.0):
                if os.getppid() != parent:   # orphaned: orchestrator is gone
                    return
                continue
            job = conn.recv()
            if job is None:
                return
            faultpoints.maybe_crash(faultpoints.WORKER_CELL_START)
            try:
                record = execute_cell(job.scenario, suite=suite)
            except Exception as exc:  # noqa: BLE001 — typed failure, not death
                conn.send(("fail", f"{type(exc).__name__}: {exc}"))
            else:
                conn.send(("done", record))
    except (EOFError, OSError):
        return      # the orchestrator is gone: nobody is left to report to
