"""Regenerate every table and figure of the paper's evaluation.

Run as a module::

    python -m repro.bench.experiments [scale] [--json-out FILE]

Produces the markdown blocks recorded in EXPERIMENTS.md — and, with
``--json-out``, a machine-readable document holding the raw per-platform
virtual seconds plus every derived figure, so the recorded numbers
regenerate from the artifact instead of stdout scraping. Scale 1.0 runs
the paper's full Table 1 working sets (1024×1024 matrices, 288/343
molecules); the pytest benches use the same runners at reduced scale.

Each platform's suite runs **once**: the figures are derived from one
shared ``preset -> label -> seconds`` map through the same pure helpers
(:func:`repro.bench.runners.overhead_pct` and friends) that the golden
checker's paper-shape gate applies to recorded rows.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.loc_metrics import model_complexity_table
from repro.bench.runners import (advantage_pct, normalized_pct, overhead_pct,
                                 run_suite, table1_rows)
from repro.config import preset

#: schema identifier for the --json-out artifact
EXPERIMENTS_SCHEMA = "repro.bench.experiments/1"

PAPER_TABLE2 = {
    "SPMD model": (502, 23, 21.8),
    "SMP/SPMD model": (581, 25, 23.2),
    "ANL macros": (146, 20, 7.3),
    "TreadMarks API": (326, 13, 25.1),
    "HLRC API": (137, 25, 5.5),
    "JiaJia API (subset)": (43, 7, 6.1),
    "POSIX threads": (725, 51, 14.2),
    "WIN32 threads": (988, 42, 23.5),
    "Cray put/get (shmem) API": (505, 29, 17.4),
}

def md_table(headers: List[str], rows: List[List]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        cells = [f"{c:.2f}" if isinstance(c, float) else str(c) for c in row]
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def collect_times(scale: float, workers: int = 1,
                  cache_dir: Optional[str] = None
                  ) -> Dict[str, Dict[str, float]]:
    """Run every figure platform once: preset -> label -> virtual seconds.

    The platforms are those of :data:`repro.fabric.FIGURE_GRID`. With
    ``workers > 1`` or a ``cache_dir``, the grid runs through the
    experiment fabric (:mod:`repro.fabric`): the preset × workload cells
    execute in parallel worker processes and land in the content-addressed
    result cache (``cache_dir``, else the default one), so regenerating
    unchanged figures costs zero simulation time. The virtual-time
    numbers are identical to the serial path — the simulator is
    deterministic and both paths run the same cells.
    """
    from repro.fabric import (DEFAULT_CACHE_DIR, FIGURE_GRID, ResultCache,
                              run_sweep)

    if workers <= 1 and cache_dir is None:
        return {name: run_suite(preset(name), scale=scale, native=native)
                for name, native in FIGURE_GRID.bindings()}
    spec = replace(FIGURE_GRID, scales=(scale,), suite="experiments")
    result = run_sweep(spec, workers=workers,
                       cache=ResultCache(cache_dir or DEFAULT_CACHE_DIR))
    bad = result.manifest.failed_cells()
    if bad:
        raise RuntimeError(
            "experiment fabric could not complete the figure grid: "
            + "; ".join(f"{c.id} ({c.error})" for c in bad))
    times: Dict[str, Dict[str, float]] = {name: {} for name in spec.presets}
    for record in result.records:
        # label_seconds carries the derived LU splits of each execution,
        # so this reconstructs exactly what run_suite returns.
        times[record["preset"]].update(record["label_seconds"])
    return times


def gen_table1() -> str:
    rows = table1_rows()
    return "### Table 1 — Benchmarks and their working sets\n\n" + md_table(
        ["Benchmark", "Working set"], [list(r) for r in rows])


def gen_table2() -> str:
    rows = model_complexity_table()
    printable = []
    for r in rows:
        p_lines, p_calls, p_ratio = PAPER_TABLE2[r.model]
        printable.append([r.model, r.lines, r.api_calls,
                          round(r.lines_per_call, 1),
                          p_lines, p_calls, p_ratio])
    avg = sum(r.lines for r in rows) / sum(r.api_calls for r in rows)
    return ("### Table 2 — Implementation complexity of programming models\n\n"
            + md_table(["Model", "lines", "#API calls", "lines/call",
                        "paper lines", "paper #calls", "paper lines/call"],
                       printable)
            + f"\n\nAverage: **{avg:.1f} lines/call** "
              f"(paper: < 25 lines/call).")


def gen_figure2(scale: float, times: Dict[str, Dict[str, float]]) -> str:
    data = overhead_pct(times["sw-dsm-4"], times["native-jiajia-4"])
    rows = [[label, round(v, 2)] for label, v in data.items()]
    return (f"### Figure 2 — Overhead of HAMSTER vs native JiaJia "
            f"(4 nodes, scale={scale})\n\n"
            + md_table(["Benchmark", "overhead % (+ = slower)"], rows)
            + f"\n\nRange: {min(data.values()):+.2f}% … "
              f"{max(data.values()):+.2f}% "
              "(paper: −4.5% … +6.5%).")


def gen_figure3(scale: float, times: Dict[str, Dict[str, float]]) -> str:
    data = advantage_pct(times["sw-dsm-4"], times["hybrid-4"])
    rows = [[label, round(v, 2)] for label, v in data.items()]
    return (f"### Figure 3 — Hybrid-DSM advantage over SW-DSM "
            f"(4 nodes, scale={scale})\n\n"
            + md_table(["Benchmark", "advantage % (+ = hybrid faster)"], rows))


def gen_figure4(scale: float, times: Dict[str, Dict[str, float]]) -> str:
    data = normalized_pct(times["smp-2"], times["hybrid-2"], times["sw-dsm-2"])
    rows = [[label, 100.0, round(v["hybrid"], 1), round(v["software"], 1)]
            for label, v in data.items()]
    return (f"### Figure 4 — 2-node platforms, time normalized to the SMP "
            f"(scale={scale}; >100 = slower than SMP)\n\n"
            + md_table(["Benchmark", "hardware %", "hybrid %", "software %"],
                       rows))


def experiments_doc(scale: float,
                    times: Dict[str, Dict[str, float]]) -> Dict:
    """The machine-readable artifact: raw times plus derived figures."""
    complexity = [{"model": r.model, "lines": r.lines,
                   "api_calls": r.api_calls,
                   "lines_per_call": round(r.lines_per_call, 2)}
                  for r in model_complexity_table()]
    return {
        "schema": EXPERIMENTS_SCHEMA,
        "scale": scale,
        "virtual_seconds": times,
        "table2_complexity": complexity,
        "figure2_overhead_pct":
            overhead_pct(times["sw-dsm-4"], times["native-jiajia-4"]),
        "figure3_advantage_pct":
            advantage_pct(times["sw-dsm-4"], times["hybrid-4"]),
        "figure4_normalized_pct":
            normalized_pct(times["smp-2"], times["hybrid-2"],
                           times["sw-dsm-2"]),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog=argv[0] if argv else "experiments",
        description="regenerate the paper's tables and figures")
    parser.add_argument("scale", nargs="?", type=float, default=1.0,
                        help="working-set scale (1.0 = paper sizes)")
    parser.add_argument("--json-out", metavar="FILE",
                        help="also write the raw+derived numbers as JSON")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run the figure grid through the experiment "
                             "fabric with N worker processes")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="content-addressed result cache directory "
                             "(implies the fabric path; unchanged cells "
                             "cost zero simulation time)")
    args = parser.parse_args(argv[1:])
    scale = args.scale

    t0 = time.time()
    times = collect_times(scale, workers=args.workers,
                          cache_dir=args.cache_dir)
    collect_elapsed = time.time() - t0

    print(gen_table1())
    print()
    print(gen_table2())
    print()
    for block in (gen_figure2(scale, times), gen_figure3(scale, times),
                  gen_figure4(scale, times)):
        print(block)
        print()
    print(f"*(platform suites regenerated in {collect_elapsed:.1f}s "
          "wall-clock)*")

    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(experiments_doc(scale, times), indent=2,
                       sort_keys=True) + "\n", encoding="utf-8")
        print(f"\njson telemetry: written to {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
