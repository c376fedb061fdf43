#!/usr/bin/env python
"""Fleet tour: watching a sweep's worker fleet work.

``sweep_tour.py`` shows *what* the fabric computes; this tour shows
*how the fleet behaved while computing it*. Four acts over one grid:

1. **Flight recorder** — a parallel sweep given a journal writes one
   JSONL line per cell/worker lifecycle transition beside its fsync'd
   commit records; ``validate_journal`` is the schema gate.
2. **Heartbeats** — workers report in-cell progress (engine events,
   virtual seconds) on a host-side cadence; the beats are in the log,
   and a timed-out cell records how far it got before the kill.
3. **Fleet report** — the same log rolls up into per-worker utilization
   and events/sec, cache hit ratio, aggregate throughput, and an ETA;
   the rollup exports as JSON and a Chrome trace with one track per
   worker.
4. **Determinism stays intact** — the journal is host-side only:
   canonical records with it enabled are byte-identical to a silent
   run's.

Run from the repository root::

    PYTHONPATH=src python examples/fleet_tour.py
"""

import os
import shutil
import tempfile

from repro.fabric import (GridSpec, ResultCache, canonical_records_json,
                          replay_journal, run_sweep, validate_journal)
from repro.obs.export import validate_chrome_trace
from repro.obs.fleet import FleetReport

GRID = GridSpec(presets=("smp-2", "sw-dsm-2", "hybrid-2"),
                labels=("PI", "SOR"), scales=(0.05,), suite="fleet-tour")


def banner(text):
    print("=" * 64)
    print(text)
    print("=" * 64)


def main():
    work = tempfile.mkdtemp(prefix="fleet-tour-")
    journal = os.path.join(work, "journal.jsonl")
    try:
        banner("Act 1: the flight recorder — a sweep with a journal")
        result = run_sweep(GRID, workers=2,
                           cache=ResultCache(os.path.join(work, "cache")),
                           journal=journal, heartbeat=0.02)
        errors = validate_journal(journal)
        state = replay_journal(journal)
        print(f"cells    : {len(result.manifest.cells)}")
        print(f"lines    : {len(state.events)} lifecycle + "
              f"{len(state.committed)} commit, "
              f"schema errors: {errors or 'none'}")
        assert errors == [], errors
        for ev in state.events[:6]:
            print(f"  t={ev['t']:<9.6f} {ev['kind']:<13} "
                  f"{ev.get('id', ev.get('worker', ''))}")
        print("  ...\n")

        banner("Act 2: heartbeats — in-cell progress in the stream")
        # The engine hook fires every few thousand dispatched events, so
        # beats need a cell big enough to cross that granularity.
        big = GridSpec(presets=("sw-dsm-4",), labels=("MatMult",),
                       scales=(0.5,), suite="fleet-tour-big")
        big_journal = os.path.join(work, "big-journal.jsonl")
        run_sweep(big, workers=2,
                  cache=ResultCache(os.path.join(work, "cache-big")),
                  journal=big_journal, heartbeat=0.01)
        beats = [e for e in replay_journal(big_journal).events
                 if e["kind"] == "heartbeat"]
        print(f"heartbeats seen: {len(beats)}")
        for beat in beats[:3]:
            data = beat["data"]
            print(f"  worker {beat['worker']} cell {beat['cell']}: "
                  f"{data['events_executed']} engine events, "
                  f"{data['virtual_seconds']:.6f}s virtual")
        assert beats, "a big cell must produce heartbeats"
        print("(a timed-out cell would record exactly these numbers "
              "at the kill)\n")

        banner("Act 3: the fleet report — utilization, throughput, ETA")
        report = FleetReport(state, records=result.records)
        print(report.render())
        trace = report.chrome_trace()
        trace_errors = validate_chrome_trace(trace)
        print(f"\nchrome trace: {len(trace['traceEvents'])} events on "
              f"{len(report.workers)} worker track(s), "
              f"validator: {trace_errors or 'ok'}")
        assert trace_errors == []
        print()

        banner("Act 4: observability never touches the simulation")
        silent = run_sweep(GRID, cache=ResultCache(
            os.path.join(work, "cache-silent")))
        same = canonical_records_json(silent.records) == \
            canonical_records_json(result.records)
        print(f"canonical records identical with/without the log: {same}")
        assert same, "the journal must stay host-side only"
        print("\nfleet tour complete.")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
