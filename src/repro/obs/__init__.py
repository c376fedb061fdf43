"""repro.obs — observability and tool support for the whole stack.

The paper's §4.3 monitoring gives every module architecture-independent
*counters* so that tools attach once and work on every platform; this
package is those tools:

* :mod:`repro.obs.spans` — causal **span** tracing. A span is a named
  virtual-time interval with an explicit parent link; the chain *model API
  call → HAMSTER service → DSM protocol action → active message → network
  transfer* becomes one linked tree, across ranks, including
  retransmissions injected by :mod:`repro.faults`.
* :mod:`repro.obs.metrics` — **time-series metrics**: the one interval
  sampler, snapshotting every :class:`~repro.core.monitoring.ModuleStats`
  registry, each rank's DSM statistics, network bytes and active-message
  queue depths at a configurable virtual-time period; and the §4.3
  :class:`~repro.obs.metrics.AttachedMonitor`, the external monitor that
  subscribes to live counter updates and samples through it.
* :mod:`repro.obs.critical_path` — a critical-path walker over the span
  tree plus a per-rank attribution of total runtime to
  compute/protocol/wire/blocked categories.
* :mod:`repro.obs.profile` — post-run digests: the per-rank protocol
  profile behind ``repro run --profile`` and the trace summary. Import
  them from the module: the package loads with every engine, this
  module only when a report is asked for.
* :mod:`repro.obs.export` — the one Chrome ``trace_event`` builder (loads
  in Perfetto or ``chrome://tracing``), its schema validator for CI, and
  the JSON/CSV run exports.
* :mod:`repro.obs.sharing` / :mod:`repro.obs.diagnose` — **sharing-pattern
  analytics**: the per-page × per-rank protocol stream (faults, fetches,
  write notices, invalidations, remote transactions) plus per-lock
  wait/hold histograms and barrier skew, with ping-pong and false-sharing
  detectors, top-N hot pages/locks, and JSON/CSV/Chrome exporters —
  ``python -m repro diagnose``.
* :mod:`repro.obs.fleet` — the same discipline one level up: a
  :class:`~repro.obs.fleet.FleetReport` rolls a sweep's journal
  (:mod:`repro.fabric.journal`) into per-worker utilization, fleet
  throughput, ETA, and a one-track-per-worker Chrome trace, behind
  ``python -m repro sweep status`` and ``sweep report``.

Everything is **off by default and costs zero when disabled**: the engine
carries a shared :data:`~repro.obs.spans.NULL_OBS` sentinel whose every
operation is a no-op, no virtual time is ever charged by instrumentation,
and benchmark outputs stay bit-identical — preserving the paper's
"monitoring independent of the architecture, negligible overhead" property.
The package loads with every engine, so it imports :mod:`repro.bench` and
:mod:`repro.fabric` only inside the functions that render with them.
"""

from repro.obs.critical_path import (CriticalPathReport, RankBreakdown,
                                     category_of, critical_path,
                                     critical_path_report)
from repro.obs.export import (chrome_trace, chrome_trace_json, figure_to_csv,
                              run_to_json, stats_to_csv, validate_chrome_trace)
from repro.obs.fleet import FleetReport, WorkerStats
from repro.obs.diagnose import (SHARING_SCHEMA, classify_sharing,
                                ping_pong_pages, render_sharing_report,
                                sharing_chrome_trace, sharing_heatmap_csv,
                                sharing_report, sharing_summary,
                                validate_sharing_report)
from repro.obs.metrics import (AttachedMonitor, CounterEvent, MetricPoint,
                               MetricsSampler)
from repro.obs.sharing import NULL_SHARING, NullSharing, SharingRecorder
from repro.obs.spans import NULL_OBS, NullObserver, ObsRecorder, Span

__all__ = [
    "Span", "ObsRecorder", "NullObserver", "NULL_OBS",
    "MetricsSampler", "MetricPoint", "AttachedMonitor", "CounterEvent",
    "CriticalPathReport", "RankBreakdown", "category_of", "critical_path",
    "critical_path_report",
    "chrome_trace", "chrome_trace_json", "validate_chrome_trace",
    "run_to_json", "figure_to_csv", "stats_to_csv",
    "FleetReport", "WorkerStats",
    "SharingRecorder", "NullSharing", "NULL_SHARING", "SHARING_SCHEMA",
    "ping_pong_pages", "classify_sharing", "sharing_report",
    "render_sharing_report", "validate_sharing_report",
    "sharing_heatmap_csv", "sharing_chrome_trace", "sharing_summary",
]
