"""Evaluation harness (§5) and benchmark telemetry.

* :mod:`repro.bench.runners` — the runners (a label on a platform, a
  platform's suite), the figures' pure derivations, and the one table of
  the paper's claims.
* :mod:`repro.bench.loc_metrics` — the Table 2 line-counting methodology
  (comment/docstring stripping + logical-line normalization).
* :mod:`repro.bench.report` — fixed-width text rendering of the rows, used
  by the pytest benches and by EXPERIMENTS.md generation, plus the
  markdown/HTML telemetry report generator.
* :mod:`repro.bench.telemetry` — structured, schema-validated result
  records per benchmark run (``BENCH_<suite>.json``): virtual times,
  engine events, config fingerprints, critical-path breakdowns — and
  :data:`~repro.bench.telemetry.FIELDS`, the one declaration of every
  record field as semantic (bit-exact) or host (stripped).
* :mod:`repro.bench.diffcheck` — the golden store, the one record of what
  was simulated, with its one bit-exact checker and one re-record
  command, and the paper-shape gate evaluating the paper's claims table
  (:data:`repro.bench.runners.CLAIMS`) over recorded numbers.

Host time is judged by ``benchmarks/perf`` alone; a record still carries
the wall seconds of the run that produced it, as a fact to display.
"""

from repro.bench.loc_metrics import count_logical_lines, model_complexity_table
from repro.bench.report import render_table, telemetry_html, telemetry_markdown
from repro.bench.runners import (
    BENCH_LABELS,
    advantage_pct,
    normalized_pct,
    overhead_pct,
    run_app_detailed,
    run_app_on,
    table1_rows,
)
from repro.bench.telemetry import (load_telemetry, telemetry_to_json,
                                   validate_telemetry)

__all__ = [
    "BENCH_LABELS",
    "run_app_on",
    "run_app_detailed",
    "table1_rows",
    "overhead_pct",
    "advantage_pct",
    "normalized_pct",
    "count_logical_lines",
    "model_complexity_table",
    "render_table",
    "telemetry_markdown",
    "telemetry_html",
    "validate_telemetry",
    "telemetry_to_json",
    "load_telemetry",
]
