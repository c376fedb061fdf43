#!/usr/bin/env python3
"""Compare two sets of result files of run.py, A (the parent) against B.

    python3 benchmarks/perf/compare.py A B

``A`` and ``B`` are each a result file or a directory of them (one file
per run). One row per workload x end-to-end metric: each side's median
with its quartiles, the change, the bound BENCHMARK.json fixes, and a
verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better by more than A's own spread (the
                  distance between A's quartiles);
* ``same``        neither;
* ``unresolved``  A's spread is wider than the bound, so a change of the
                  size the bound guards against could hide in it — unless
                  every run of B is better than every run of A.

With several files on a side the samples are the runs' values; with one,
they are the samples inside that run (passes, set-ups), which spread
wider than runs do. Simulated results must not move at all: files of
equal seed are paired, and any count or virtual-time metric that differs
is listed. Exit status 1 if a row is ``worse`` or ``unresolved``, a
simulated result differs, or a file recorded failures.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: units of simulated results; the traced pass's call counts are not among
#: them (the shell's in-process session is not deterministic to the call)
EXACT_UNITS = ("count", "virtual_s", "virtual_us", "%")

Metric = Dict[str, Any]      # {"value", "unit", "samples"}


def load(path: str) -> List[Dict[str, Any]]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    if not files:
        raise SystemExit(f"{path}: no result files")
    return [json.loads(f.read_text()) for f in files]


def pooled(docs: List[Dict[str, Any]], workload: str, metric: str) -> Metric:
    """One side's metric: over runs if there are several, else within one."""
    found = [d["workloads"][workload]["end_to_end"][metric] for d in docs]
    if len(found) == 1:
        return found[0]
    values = [m["value"] for m in found]
    return {"value": statistics.median(values), "unit": found[0]["unit"],
            "samples": values}


def quartiles(samples: List[float]) -> Tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def verdict(a: Metric, b: Metric, better: str, bound: float) -> Tuple[str, float]:
    """(verdict, relative change of the median; positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["value"] - a["value"]) / a["value"]
    q1, q3 = quartiles(a["samples"])
    spread = (q3 - q1) / a["value"]
    if spread > bound:
        b_all_better = (max(b["samples"]) < min(a["samples"]) if sign > 0
                        else min(b["samples"]) > max(a["samples"]))
        return ("better" if b_all_better else "unresolved"), change
    if change > bound:
        return "worse", change
    if -change > spread and change < 0:
        return "better", change
    return "same", change


def simulated_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Exact metrics that differ between two runs of one seed."""
    out = []
    for workload, da in a["workloads"].items():
        layers_b = b["workloads"][workload].get("per_layer", {})
        for name, m in da.get("per_layer", {}).items():
            other = layers_b.get(name, {}).get("value")
            if (m["unit"] in EXACT_UNITS and not name.startswith("trace.")
                    and m["value"] != other):
                out.append(f"{workload:8s} {name} (seed {a['seed']}): simulated "
                           f"result differs: {m['value']} != {other}")
    return out


def compare(a: List[Dict[str, Any]], b: List[Dict[str, Any]],
            spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    lines = [f"{'workload':8s} {'metric':12s} {'A median [q1, q3]':>32s} "
             f"{'B median [q1, q3]':>32s} {'change':>8s} {'bound':>6s} verdict"]
    ok = True

    def cell(m: Metric) -> str:
        q1, q3 = quartiles(m["samples"])
        return f"{m['value']:.4g} [{q1:.4g}, {q3:.4g}] {m['unit']}"

    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            ma = pooled(a, workload, metric["name"])
            mb = pooled(b, workload, metric["name"])
            word, change = verdict(ma, mb, metric["better"], metric["bound"])
            ok &= word in ("same", "better")
            lines.append(f"{workload:8s} {metric['name']:12s} {cell(ma):>32s} "
                         f"{cell(mb):>32s} {change:+8.1%} "
                         f"{metric['bound']:6.0%} {word}")
    by_seed = {d["seed"]: d for d in b}
    for doc in a:
        if doc["seed"] in by_seed:
            differences = simulated_differences(doc, by_seed[doc["seed"]])
            ok &= not differences
            lines += differences
    for side, docs in (("A", a), ("B", b)):
        for doc in docs:
            for workload, w in doc["workloads"].items():
                if w["failed"]:
                    ok = False
                    lines.append(f"{workload:8s} {side} (seed {doc['seed']}) "
                                 f"recorded {w['failed']} failure(s) of "
                                 f"{w['attempted']} attempted")
    return lines, ok


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = load(argv[0]), load(argv[1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, ok = compare(a, b, spec)
    print(f"A: {len(a)} run(s), seeds {sorted(d['seed'] for d in a)}; "
          f"B: {len(b)} run(s), seeds {sorted(d['seed'] for d in b)}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
