"""Evaluation harness (§5) and benchmark telemetry.

* :mod:`repro.bench.runners` — one entry point per table/figure: they run
  the actual experiments and return structured rows.
* :mod:`repro.bench.loc_metrics` — the Table 2 line-counting methodology
  (comment/docstring stripping + logical-line normalization).
* :mod:`repro.bench.report` — fixed-width text rendering of the rows, used
  by the pytest benches and by EXPERIMENTS.md generation, plus the
  markdown/HTML telemetry report generator.
* :mod:`repro.bench.telemetry` — structured, schema-validated result
  records per benchmark run (``BENCH_<suite>.json``): virtual times,
  engine events, config fingerprints, critical-path breakdowns.
* :mod:`repro.bench.baseline` — the committed-baseline store: per-metric
  verdicts (improve/ok/regress) over the deterministic metrics and the
  paper-shape gate re-asserting the Figure 2-4 orderings from recorded
  numbers.

Host time is judged by ``benchmarks/perf`` alone; a record still carries
the wall seconds of the run that produced it, as a fact to display.
"""

from repro.bench.baseline import (CompareResult, MetricVerdict, compare_docs,
                                  shape_gate)
from repro.bench.loc_metrics import count_logical_lines, model_complexity_table
from repro.bench.report import render_table, telemetry_html, telemetry_markdown
from repro.bench.runners import (
    BENCH_LABELS,
    advantage_pct,
    figure2_overhead,
    figure3_hybrid_vs_sw,
    figure4_two_nodes,
    normalized_pct,
    overhead_pct,
    run_app_detailed,
    run_app_on,
    table1_rows,
)
from repro.bench.telemetry import (SUITES, load_telemetry,
                                   run_suite_telemetry, telemetry_to_json,
                                   validate_telemetry)

__all__ = [
    "BENCH_LABELS",
    "run_app_on",
    "run_app_detailed",
    "table1_rows",
    "figure2_overhead",
    "figure3_hybrid_vs_sw",
    "figure4_two_nodes",
    "overhead_pct",
    "advantage_pct",
    "normalized_pct",
    "count_logical_lines",
    "model_complexity_table",
    "render_table",
    "telemetry_markdown",
    "telemetry_html",
    "SUITES",
    "run_suite_telemetry",
    "validate_telemetry",
    "telemetry_to_json",
    "load_telemetry",
    "compare_docs",
    "shape_gate",
    "CompareResult",
    "MetricVerdict",
]
