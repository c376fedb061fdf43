"""repro.fabric — parallel experiment fabric with a content-addressed cache.

The paper's evaluation is a grid (models × interconnects × apps × node
counts); this package makes sweeping that grid cheap:

* :mod:`repro.fabric.gridspec` — declarative grid specs and cells,
* :mod:`repro.fabric.cache` — content-addressed result store with
  checksummed, quarantine-on-corruption entries (payloads are unchanged
  :mod:`repro.bench.telemetry` records),
* :mod:`repro.fabric.worker` — the worker-process protocol,
* :mod:`repro.fabric.scheduler` — the orchestrator (dispatch, timeouts,
  crash recovery, retry budgets, graceful shutdown, typed per-cell
  failures),
* :mod:`repro.fabric.journal` — the sweep log: the one durable record
  of a sweep (writer, reader, validator) behind ``sweep resume``,
  ``sweep status`` and ``sweep report``,
* :mod:`repro.fabric.faultpoints` — deterministic crash injection for
  testing the recovery paths,
* :mod:`repro.fabric.manifest` — the per-cell view of a sweep (in
  memory; built by ``run_sweep`` or from a replayed journal).

Surfaced as ``python -m repro sweep`` and behind
``python -m repro experiments --workers N``.
"""

from repro.fabric.cache import (CACHE_SCHEMA, DEFAULT_CACHE_DIR, ResultCache,
                                TelemetryCache, canonical_record,
                                canonical_records_json, scenario_key)
from repro.fabric.gridspec import GridSpec, Scenario
from repro.fabric.journal import (EVENT_KINDS, JOURNAL_SCHEMA, JournalError,
                                  JournalState, SweepJournal, replay_journal,
                                  validate_journal)
from repro.fabric.manifest import CellOutcome, SweepManifest
from repro.fabric.scheduler import (DEFAULT_HEARTBEAT, DEFAULT_MAX_RETRIES,
                                    SweepResult, run_sweep)
from repro.fabric.worker import CellFailed, Job, execute_cell

__all__ = ["GridSpec", "Scenario", "ResultCache", "TelemetryCache",
           "scenario_key", "canonical_record", "canonical_records_json",
           "CACHE_SCHEMA", "DEFAULT_CACHE_DIR",
           "CellOutcome", "SweepManifest", "SweepResult", "run_sweep",
           "CellFailed", "Job", "execute_cell", "DEFAULT_HEARTBEAT",
           "DEFAULT_MAX_RETRIES", "EVENT_KINDS", "JOURNAL_SCHEMA",
           "JournalError", "JournalState", "SweepJournal", "replay_journal",
           "validate_journal"]
