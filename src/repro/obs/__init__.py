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
  them from the module, which loads only when a report is asked for.
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
carries a shared :data:`~repro.sim.trace.NULL_OBS` sentinel whose every
operation is a no-op, no virtual time is ever charged by instrumentation,
and benchmark outputs stay bit-identical — preserving the paper's
"monitoring independent of the architecture, negligible overhead" property.
An unobserved run never imports this package. A name it exports loads
its submodule when first read, and :mod:`repro.bench` and
:mod:`repro.fabric` load only inside the functions that render with them.
"""

from repro.lazy import lazy_exports
# ``critical_path`` names a submodule and the function it exports; binding
# the function here keeps a later ``import repro.obs.critical_path`` from
# leaving the module in its place.
from repro.obs.critical_path import critical_path

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.obs.spans": ("Span", "ObsRecorder", "NullObserver", "NULL_OBS"),
    "repro.obs.metrics": ("MetricsSampler", "MetricPoint", "AttachedMonitor",
                          "CounterEvent"),
    "repro.obs.critical_path": ("CriticalPathReport", "RankBreakdown",
                                "category_of", "critical_path",
                                "critical_path_report"),
    "repro.obs.export": ("chrome_trace", "chrome_trace_json",
                         "validate_chrome_trace", "run_to_json",
                         "figure_to_csv", "stats_to_csv"),
    "repro.obs.fleet": ("FleetReport", "WorkerStats"),
    "repro.obs.sharing": ("SharingRecorder", "NullSharing", "NULL_SHARING"),
    "repro.obs.diagnose": ("SHARING_SCHEMA", "ping_pong_pages",
                           "classify_sharing", "sharing_report",
                           "render_sharing_report", "validate_sharing_report",
                           "sharing_heatmap_csv", "sharing_chrome_trace",
                           "sharing_summary"),
})
