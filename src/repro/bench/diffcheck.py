"""Differential golden-run harness for the simulator hot path.

Host-side optimizations of the engine and cost models (direct-handoff
dispatcher, span coalescing, the continuation scheduler) must leave every
virtual-time observable bit-identical. This module pins that
contract down with golden snapshots:

* **record** — run every Fig 2-4 configuration (the six figure presets x
  the seven primary workload labels, at smoke scale) plus a set of seeded
  chaos scenarios, and store ``{virtual_seconds, events_executed, trace
  digest, ...}`` per scenario in ``tests/golden/golden_runs.json``. The
  committed goldens were recorded from the **pre-overhaul** engine (heapq
  queue, Event-pair handoff), so every later engine change is compared
  against the original semantics, not against itself.
* **check** — re-run every scenario and compare the full record against
  the golden **exactly** (floats and digests included; this is a hard
  gate, not a tolerance gate).
* **dual-procs** — run every scenario twice, once per *process* backend
  (``REPRO_ENGINE_PROCS``): thread-backed reference processes vs the
  generator (continuation) scheduler, and assert the two produce identical
  records — the differential check that needs no stored state. Any
  divergence is a missed or misordered yield point in a ``*_g`` kernel.

The trace digest hashes the engine's structured trace stream (kind,
timestamp, sorted fields). Process ids embedded in ``name#pid`` strings
come from a global interpreter-wide counter, so digests normalize every
``#N`` token to its first-appearance index — two runs hash equal iff
their event streams are identical modulo that consistent renumbering.

Run as a module::

    PYTHONPATH=src python -m repro.bench.diffcheck --check
    PYTHONPATH=src python -m repro.bench.diffcheck --dual-procs --only PI
    PYTHONPATH=src python -m repro.bench.diffcheck --record   # re-baseline

Re-record only when a change *intends* to alter virtual-time behaviour
(a cost-model change, a protocol fix); see docs/performance.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.bench.runners import WORKLOADS, run_app_detailed
from repro.config import preset
from repro.faults import FaultPlan, NodeCrash
from repro.faults.chaos import run_chaos

__all__ = ["SCHEMA", "DIFF_SCALE", "GOLDEN_PATH", "FigureScenario",
           "ChaosScenario", "scenarios", "scenario_ids", "stream_digest",
           "capture", "record_goldens", "load_goldens", "check_scenario",
           "check_goldens", "dual_procs_run"]

SCHEMA = "repro.bench.diffcheck/1"

#: Working-set scale for every golden scenario (same as the smoke suite).
DIFF_SCALE = 0.05

#: Default golden store, resolved from the repo layout
#: (src/repro/bench/diffcheck.py -> repo root); override with --golden or
#: ``REPRO_GOLDEN_PATH``.
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "tests" / "golden" / "golden_runs.json"

#: The six figure platforms of §5 (native binding for the Figure 2
#: baseline) — identical to bench.experiments._FIGURE_PRESETS.
_FIGURE_PRESETS: Tuple[Tuple[str, bool], ...] = (
    ("sw-dsm-4", False), ("native-jiajia-4", True), ("hybrid-4", False),
    ("smp-2", False), ("hybrid-2", False), ("sw-dsm-2", False))

#: One label per distinct execution (the LU splits share "LU all").
_FIGURE_LABELS: Tuple[str, ...] = ("MatMult", "PI", "SOR opt", "SOR",
                                   "LU all", "WATER 288", "WATER 343")


@dataclass(frozen=True)
class FigureScenario:
    """One Fig 2-4 cell: a preset running one workload label."""

    preset: str
    native: bool
    label: str

    @property
    def id(self) -> str:
        return f"fig/{self.preset}/{self.label}"


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded fault-plan run (PR 1 determinism, re-asserted here)."""

    name: str
    preset: str
    app: str
    params: Tuple[Tuple[str, Any], ...]
    plan: FaultPlan

    @property
    def id(self) -> str:
        return f"chaos/{self.preset}/{self.name}"


#: Chaos scenarios: two masked-fault runs (losses/dups/jitter absorbed by
#: the reliable layer, run completes verified) and the PR 1 crash plan
#: (deterministic typed node-failed outcome). Timing of every
#: retransmission lands in the trace digest.
_CHAOS_SCENARIOS: Tuple[ChaosScenario, ...] = (
    ChaosScenario("sor-seed42", "sw-dsm-2", "sor",
                  (("n", 64), ("iterations", 3)), FaultPlan.seeded(42)),
    ChaosScenario("pi-seed77", "sw-dsm-2", "pi",
                  (("intervals", 4096),), FaultPlan.seeded(77)),
    ChaosScenario("sor-crash", "sw-dsm-2", "sor",
                  (("n", 96), ("iterations", 4)),
                  FaultPlan(seed=5, crashes=(NodeCrash(node=1, at=4e-3),))),
)


def scenarios() -> List[Any]:
    """Every golden scenario, figures first, chaos last."""
    figs: List[Any] = [FigureScenario(p, native, label)
                       for p, native in _FIGURE_PRESETS
                       for label in _FIGURE_LABELS]
    return figs + list(_CHAOS_SCENARIOS)


def scenario_ids(only: Optional[str] = None) -> List[str]:
    return [s.id for s in scenarios() if only is None or only in s.id]


# ------------------------------------------------------------------ digest
_PID_RE = re.compile(r"#\d+")


def _event_line(ev: Any) -> str:
    fields = ";".join(f"{k}={ev.fields[k]!r}" for k in sorted(ev.fields))
    return f"{ev.kind}|{ev.time!r}|{fields}"


def stream_digest(events: Iterable[Any]) -> Tuple[str, int]:
    """sha256 over the trace stream, with ``#pid`` tokens renumbered to
    first-appearance order. Returns ``(hexdigest, event_count)``."""
    mapping: Dict[str, str] = {}
    h = hashlib.sha256()
    count = 0
    for ev in events:
        line = _PID_RE.sub(
            lambda m: mapping.setdefault(m.group(0), f"#{len(mapping)}"),
            _event_line(ev))
        h.update(line.encode("utf-8"))
        h.update(b"\n")
        count += 1
    return h.hexdigest(), count


# ----------------------------------------------------------------- capture
@contextlib.contextmanager
def _with_procs(procs: Optional[str]):
    """Context manager pinning ``REPRO_ENGINE_PROCS`` for one run."""
    if procs is None:
        yield
        return
    prev = os.environ.get("REPRO_ENGINE_PROCS")
    os.environ["REPRO_ENGINE_PROCS"] = procs
    try:
        yield
    finally:
        if prev is None:
            os.environ.pop("REPRO_ENGINE_PROCS", None)
        else:
            os.environ["REPRO_ENGINE_PROCS"] = prev


def _capture_figure(sc: FigureScenario, scale: float) -> Dict[str, Any]:
    cfg = preset(sc.preset)
    cfg.trace = True
    wl = WORKLOADS[sc.label]
    merged, plat = run_app_detailed(cfg, wl.app, native=sc.native,
                                    **wl.params(scale))
    digest, n_events = stream_digest(plat.engine.trace.events)
    return {
        "kind": "figure",
        "preset": sc.preset,
        "label": sc.label,
        "native": sc.native,
        "verified": bool(merged.verified),
        "checksum": merged.checksum,
        "virtual_seconds": plat.engine.now,
        "phase_seconds": merged.phases[wl.phase],
        "events_executed": int(plat.engine.events_executed),
        "trace_events": n_events,
        "digest": digest,
    }


def _capture_chaos(sc: ChaosScenario, scale: float) -> Dict[str, Any]:
    del scale  # chaos params are absolute, not scaled
    cfg = preset(sc.preset)
    cfg.trace = True
    res = run_chaos(cfg, app=sc.app, app_params=dict(sc.params), plan=sc.plan)
    digest, n_events = stream_digest(res.built.engine.trace.events)
    return {
        "kind": "chaos",
        "preset": sc.preset,
        "app": sc.app,
        "plan": sc.plan.to_dict(),
        "outcome": res.outcome,
        "verified": bool(res.verified),
        "checksum": res.checksum,
        "virtual_seconds": res.virtual_time,
        "events_executed": int(res.built.engine.events_executed),
        "trace_events": n_events,
        "digest": digest,
        "faults": dict(res.faults),
        "messaging": dict(res.messaging),
    }


def capture(sc: Any, scale: float = DIFF_SCALE,
            procs: Optional[str] = None) -> Dict[str, Any]:
    """Run one scenario and return its golden record. ``procs`` pins the
    process backend (``"thread"`` / ``"generator"``)."""
    with _with_procs(procs):
        if isinstance(sc, FigureScenario):
            return _capture_figure(sc, scale)
        return _capture_chaos(sc, scale)


# ------------------------------------------------------------ record/check
def record_goldens(path: Path = GOLDEN_PATH,
                   only: Optional[str] = None,
                   progress: Optional[Any] = None) -> Dict[str, Any]:
    """Run every scenario and (re)write the golden store."""
    doc: Dict[str, Any] = {"schema": SCHEMA, "scale": DIFF_SCALE,
                           "scenarios": {}}
    if only is not None and path.exists():
        doc = load_goldens(path)  # partial re-record keeps the rest
    for sc in scenarios():
        if only is not None and only not in sc.id:
            continue
        if progress is not None:
            progress(sc.id)
        doc["scenarios"][sc.id] = capture(sc, scale=doc["scale"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return doc


def load_goldens(path: Path = GOLDEN_PATH) -> Dict[str, Any]:
    path = Path(os.environ.get("REPRO_GOLDEN_PATH", str(path)))
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"golden store {path} has schema "
                         f"{doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def diff_records(got: Dict[str, Any],
                 want: Dict[str, Any]) -> List[str]:
    """Field-by-field **exact** comparison; returns human-readable diffs."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            problems.append(f"{key}: got {got.get(key)!r}, "
                            f"golden {want.get(key)!r}")
    return problems


def check_scenario(sc: Any, doc: Dict[str, Any],
                   procs: Optional[str] = None) -> List[str]:
    """Re-run one scenario against the loaded golden store; returns a list
    of mismatch descriptions (empty = bit-identical)."""
    want = doc["scenarios"].get(sc.id)
    if want is None:
        return [f"{sc.id}: no golden recorded (run --record)"]
    got = capture(sc, scale=doc["scale"], procs=procs)
    return [f"{sc.id}: {p}" for p in diff_records(got, want)]


def check_goldens(path: Path = GOLDEN_PATH, only: Optional[str] = None,
                  procs: Optional[str] = None,
                  progress: Optional[Any] = None) -> List[str]:
    """Re-run every scenario against the stored goldens. Hard gate: any
    difference — a digest bit, an event count, the last float ulp of a
    virtual timestamp — is reported."""
    doc = load_goldens(path)
    problems: List[str] = []
    for sc in scenarios():
        if only is not None and only not in sc.id:
            continue
        if progress is not None:
            progress(sc.id)
        problems.extend(check_scenario(sc, doc, procs=procs))
    return problems


def dual_procs_run(only: Optional[str] = None,
                   progress: Optional[Any] = None) -> List[str]:
    """Run each scenario under the thread-backed reference processes and
    the generator (continuation) backend; any divergence — one trace-digest
    bit, one event count — is a yield-point bug in a ``*_g`` kernel."""
    problems: List[str] = []
    for sc in scenarios():
        if only is not None and only not in sc.id:
            continue
        if progress is not None:
            progress(sc.id)
        ref = capture(sc, procs="thread")
        new = capture(sc, procs="generator")
        problems.extend(f"{sc.id} (thread vs generator): {p}"
                        for p in diff_records(new, ref))
    return problems


# -------------------------------------------------------------------- main
def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.diffcheck",
        description="golden-run differential harness for the engine hot path")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="(re)record golden snapshots from the current engine")
    mode.add_argument("--check", action="store_true",
                      help="hard-compare current runs against the goldens")
    mode.add_argument("--dual-procs", action="store_true",
                      help="thread vs generator process-backend "
                           "differential run")
    parser.add_argument("--only", metavar="SUBSTR",
                        help="filter scenario ids by substring")
    parser.add_argument("--golden", metavar="FILE", default=str(GOLDEN_PATH),
                        help="golden store path (default: tests/golden/)")
    parser.add_argument("--procs", choices=("thread", "generator"),
                        default=None,
                        help="pin the process backend for --check")
    args = parser.parse_args(argv[1:])
    golden = Path(args.golden)

    def progress(sid: str) -> None:
        print(f"  .. {sid}", flush=True)

    if args.record:
        doc = record_goldens(golden, only=args.only, progress=progress)
        print(f"recorded {len(doc['scenarios'])} golden scenarios "
              f"-> {golden}")
        return 0
    if args.dual_procs:
        problems = dual_procs_run(only=args.only, progress=progress)
    else:
        problems = check_goldens(golden, only=args.only, procs=args.procs,
                                 progress=progress)
    if problems:
        print(f"\n{len(problems)} mismatch(es):")
        for p in problems:
            print(f"  FAIL {p}")
        return 1
    print("\nall scenarios bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
