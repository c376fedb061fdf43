"""The one record of what was simulated, and its one checker.

``tests/golden/golden_runs.json`` holds one row per scenario:

* ``fig/<preset>/<label>`` — every Fig 2-4 cell (the six presets x the
  seven workload labels of :data:`repro.fabric.FIGURE_GRID`, at its scale
  0.05): the record :func:`repro.bench.telemetry.run_unit` builds;
* ``scaling/<preset>/PI`` — the scaling-curve points beyond the figure
  presets (``eth-`` and ``sci-torus-`` 64/256/1024), as ``bench
  scaling`` records them;
* ``chaos/<preset>/<name>`` — seeded fault plans: two masked-fault app
  runs, one crash with its typed ``node-failed`` outcome, and one
  masked-fault run of each thread API's model kernel;
* ``model/<model>/<preset>`` — the cross-model kernel of each model
  (:mod:`repro.bench.model_kernels`) on the platforms it runs on.

Every row also carries ``digest`` / ``trace_events``: the checker runs
each scenario **once**, with tracing and observability both on, and
hashes the trace stream (:func:`repro.bench.telemetry.trace_digest`:
``obs.span`` events excluded, so the digest is that of an unobserved
run). Rows are stored without host fields; every other field is
declared *semantic* in :data:`repro.bench.telemetry.FIELDS` and compared
**exactly** — floats to the last ulp, digests to the bit.

* **check** — re-run every scenario; report every semantic field that
  differs, every scenario without a row, every row without a scenario,
  and every claim of the paper's claims table
  (:data:`repro.bench.runners.CLAIMS`, via
  :func:`~repro.bench.runners.shape_gate`) the fresh figure rows break
  or hold against a stated exception. Any problem fails the run, naming
  the row and the field; a clean run says how many claims the rows
  decided.
* **record** — the one re-record command: rewrite the rows.

Run as a module::

    PYTHONPATH=src python -m repro.bench.diffcheck --check
    PYTHONPATH=src python -m repro.bench.diffcheck --check --only PI
    PYTHONPATH=src python -m repro.bench.diffcheck --record

Re-record only when a change *intends* to alter simulated behaviour (a
cost-model change, a protocol fix); see docs/performance.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.model_kernels import KERNELS, expected
from repro.bench.runners import UNDECIDED, shape_gate
from repro.bench.scaling import CURVES, DEFAULT_LABEL, scaling_point
from repro.bench.telemetry import (FIELDS, HOST_FIELDS, canonical_record,
                                   run_unit, trace_digest)
from repro.config import preset
from repro.fabric import FIGURE_GRID
from repro.faults import FaultPlan, NodeCrash
from repro.faults.chaos import run_chaos
from repro.models import load_model

__all__ = ["SCHEMA", "DIFF_SCALE", "GOLDEN_PATH", "FigureScenario",
           "ScalingScenario", "ChaosScenario", "ModelScenario", "scenarios",
           "capture", "record_goldens", "load_goldens", "diff_records",
           "check_scenario", "check_goldens"]

#: /2: run_unit's rows plus the scaling points; one meaning of
#: ``virtual_seconds``.
SCHEMA = "repro.bench.diffcheck/2"

#: The figure grid, at its scale.
_GRID = FIGURE_GRID
DIFF_SCALE = _GRID.scales[0]

#: The store, resolved from the repo layout
#: (src/repro/bench/diffcheck.py -> repo root).
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "tests" / "golden" / "golden_runs.json"


@dataclass(frozen=True)
class FigureScenario:
    """One Fig 2-4 cell: a preset running one workload label."""

    preset: str
    native: bool
    label: str

    @property
    def id(self) -> str:
        return f"fig/{self.preset}/{self.label}"

    def run(self, scale: float):
        return run_unit(self.preset, self.label, scale, native=self.native,
                        suite=_GRID.suite, trace=True)


@dataclass(frozen=True)
class ScalingScenario:
    """One scaling-curve point beyond the figure presets."""

    fabric: str
    nodes: int
    preset: str

    @property
    def id(self) -> str:
        return f"scaling/{self.preset}/{DEFAULT_LABEL}"

    def run(self, scale: float):
        return scaling_point(self.preset, scale=scale, trace=True)


def run_kernel(model: str, plat) -> Tuple[bool, float]:
    """Run ``model``'s cross-model kernel on a built platform; returns
    (every value is the expected total, their sum)."""
    name, kernel = KERNELS[model]
    values = load_model(name)(plat.hamster).run(kernel)
    n = plat.hamster.n_ranks
    return values == [expected(n)] * n, sum(values)


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded fault-plan run of an app, or of a model's kernel when
    ``app`` names one (a key of :data:`repro.bench.model_kernels.KERNELS`)."""

    name: str
    preset: str
    app: str
    params: Tuple[Tuple[str, Any], ...]
    plan: FaultPlan

    @property
    def id(self) -> str:
        return f"chaos/{self.preset}/{self.name}"

    def run(self, scale: float):
        del scale  # chaos params are absolute, not scaled
        cfg = preset(self.preset)
        cfg.trace = True
        run = (functools.partial(run_kernel, self.app)
               if self.app in KERNELS else None)
        res = run_chaos(cfg, app=self.app, app_params=dict(self.params),
                        plan=self.plan, run=run)
        return {
            "preset": self.preset,
            "app": self.app,
            "plan": self.plan.to_dict(),
            "outcome": res.outcome,
            "verified": bool(res.verified),
            "checksum": res.checksum,
            "faults": dict(res.faults),
            "messaging": dict(res.messaging),
            **_run_facts(res.built),
        }


#: Chaos scenarios: two masked-fault runs (losses/dups/jitter absorbed by
#: the reliable layer, run completes verified), a crash plan
#: (deterministic typed node-failed outcome), and a masked-fault run of
#: each thread API, whose forwarded commands ride the same reliable layer.
#: Timing of every retransmission lands in the trace digest.
_CHAOS_SCENARIOS: Tuple[ChaosScenario, ...] = (
    ChaosScenario("sor-seed42", "sw-dsm-2", "sor",
                  (("n", 64), ("iterations", 3)), FaultPlan.seeded(42)),
    ChaosScenario("pi-seed77", "sw-dsm-2", "pi",
                  (("intervals", 4096),), FaultPlan.seeded(77)),
    ChaosScenario("sor-crash", "sw-dsm-2", "sor",
                  (("n", 96), ("iterations", 4)),
                  FaultPlan(seed=5, crashes=(NodeCrash(node=1, at=4e-3),))),
    ChaosScenario("pthreads-seed42", "sw-dsm-2", "pthreads", (),
                  FaultPlan.seeded(42)),
    ChaosScenario("win32-seed77", "sw-dsm-2", "win32", (),
                  FaultPlan.seeded(77)),
)


@dataclass(frozen=True)
class ModelScenario:
    """One model's cross-model kernel on one preset."""

    model: str
    preset: str

    @property
    def id(self) -> str:
        return f"model/{self.model}/{self.preset}"

    def run(self, scale: float):
        del scale  # the kernel's size is fixed
        cfg = preset(self.preset)
        cfg.observe = cfg.trace = True
        plat = cfg.build()
        verified, checksum = run_kernel(self.model, plat)
        return {"model": KERNELS[self.model][0], "preset": self.preset,
                "verified": verified, "checksum": checksum,
                **_run_facts(plat)}


def _run_facts(plat) -> Dict[str, Any]:
    """The clock, event count and trace digest a finished run ends with."""
    digest, trace_events = trace_digest(plat)
    return {"end_seconds": plat.engine.now,
            "events_executed": int(plat.engine.events_executed),
            "digest": digest, "trace_events": trace_events}


#: Model scenarios: every model on the SW-DSM and the hybrid; SMP/SPMD
#: also on the SMP, where its node-local barrier has peers, and the thread
#: APIs too, where no create or join is forwarded.
_MODEL_SCENARIOS = tuple(
    ModelScenario(model, p) for model in KERNELS
    for p in ("sw-dsm-4", "hybrid-4") + (
        ("smp-2",) if model in ("smp_spmd", "pthreads", "win32") else ()))


def scenarios() -> List[Any]:
    """Every scenario: figures, then scaling points, chaos, models."""
    return ([FigureScenario(p, native, label)
             for p, native in _GRID.bindings() for label in _GRID.labels]
            + [ScalingScenario(fabric, nodes, p)
               for fabric, ladder in CURVES.items()
               for nodes, p in ladder if p not in _GRID.presets]
            + list(_CHAOS_SCENARIOS) + list(_MODEL_SCENARIOS))


def _selected(only: Optional[str]) -> List[Any]:
    return [sc for sc in scenarios() if only is None or only in sc.id]


# ----------------------------------------------------------------- capture
def capture(sc: Any, scale: float = DIFF_SCALE) -> Dict[str, Any]:
    """Run one scenario once and return its row, digest included."""
    return sc.run(scale)


# ------------------------------------------------------------ record/check
def _store(path: Optional[Path]) -> Path:
    return Path(path) if path is not None else GOLDEN_PATH


def record_goldens(path: Optional[Path] = None, only: Optional[str] = None,
                   progress: Optional[Any] = None) -> Dict[str, Any]:
    """Run every scenario and (re)write the store; with ``only``, rewrite
    the matching rows and keep the rest."""
    path = _store(path)
    doc: Dict[str, Any] = {"schema": SCHEMA, "scale": DIFF_SCALE, "rows": {}}
    if only is not None and path.exists():
        doc = load_goldens(path)
    for sc in _selected(only):
        if progress is not None:
            progress(sc.id)
        doc["rows"][sc.id] = canonical_record(capture(sc, scale=doc["scale"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return doc


def load_goldens(path: Optional[Path] = None) -> Dict[str, Any]:
    path = _store(path)
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"golden store {path} has schema "
                         f"{doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def diff_records(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    """Field-by-field **exact** comparison of everything but the host
    fields; returns ``field: got X, stored Y`` lines."""
    return [f"{key}: got {got.get(key)!r}, stored {want.get(key)!r}"
            for key in sorted(set(got) | set(want))
            if key not in HOST_FIELDS and got.get(key) != want.get(key)]


def _check_row(row_id: str, got: Dict[str, Any],
               want: Optional[Dict[str, Any]]) -> List[str]:
    if want is None:
        return [f"{row_id}: no row in the store (run --record)"]
    problems = [f"{row_id}: {key}: not declared in repro.bench.telemetry"
                f".FIELDS" for key in sorted(set(got) | set(want))
                if key not in FIELDS]
    return problems + [f"{row_id}: {p}" for p in diff_records(got, want)]


def check_scenario(sc: Any, doc: Dict[str, Any]) -> List[str]:
    """Re-run one scenario against the loaded store; returns a list of
    mismatch descriptions (empty = bit-identical)."""
    return _check_row(sc.id, capture(sc, scale=doc["scale"]),
                      doc["rows"].get(sc.id))


def check_goldens(path: Optional[Path] = None, only: Optional[str] = None,
                  progress: Optional[Any] = None) -> List[str]:
    """The one checker. Re-runs every (matching) scenario once and
    returns every problem: a semantic field that differs by one bit, a
    missing row, a stale row, a broken or stale paper claim, a missing
    store."""
    path = _store(path)
    if not path.exists():
        return [f"{path}: no golden store (run --record)"]
    doc = load_goldens(path)
    problems: List[str] = []
    figure_rows = []
    for sc in _selected(only):
        if progress is not None:
            progress(sc.id)
        row = capture(sc, scale=doc["scale"])
        if isinstance(sc, FigureScenario):
            figure_rows.append(row)
        problems.extend(_check_row(sc.id, row, doc["rows"].get(sc.id)))
    known = {sc.id for sc in scenarios()}
    problems.extend(f"{row_id}: stale row: no scenario produces it "
                    f"(run --record)" for row_id in sorted(doc["rows"])
                    if row_id not in known and (only is None or only in row_id))
    problems.extend(f"paper shape: {check.describe()}"
                    for check in shape_gate(figure_rows) if check.failed)
    return problems


# -------------------------------------------------------------------- main
def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.diffcheck",
        description="the golden store of every simulated result, and its "
                    "bit-exact checker")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="(re)record the store from the current simulator")
    mode.add_argument("--check", action="store_true",
                      help="re-run every scenario against the store "
                           "(bit-exact) and gate the paper's claims")
    parser.add_argument("--only", metavar="SUBSTR",
                        help="filter scenario ids by substring")
    args = parser.parse_args(argv[1:])

    def progress(sid: str) -> None:
        print(f"  .. {sid}", flush=True)

    if args.record:
        doc = record_goldens(only=args.only, progress=progress)
        print(f"recorded {len(doc['rows'])} rows -> {GOLDEN_PATH}")
        return 0
    problems = check_goldens(only=args.only, progress=progress)
    if problems:
        print(f"\n{len(problems)} mismatch(es):")
        for p in problems:
            print(f"  FAIL {p}")
        return 1
    # Bit-identical fresh rows decide exactly what the stored ones do.
    rows = load_goldens()["rows"]
    checks = shape_gate(row for sid, row in rows.items() if sid.startswith(
        "fig/") and (args.only is None or args.only in sid))
    decided = sum(check.status != UNDECIDED for check in checks)
    print(f"\nall scenarios bit-identical; {decided} of {len(checks)} "
          f"paper claims decided by these rows, none broken")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
