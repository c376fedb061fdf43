"""Scaling-curve benchmark suite (the continuation-engine payoff).

The paper's testbeds stop at 4 nodes (§5); the continuation-based process
scheduler removes the one-OS-thread-per-simulated-process ceiling, so the
simulator can extrapolate both fabrics to commodity-cluster sizes. This
module declares one ladder of node counts per fabric (:data:`CURVES`) and
runs one workload across it as a sweep (:func:`repro.fabric.run_sweep`),
emitting **standard telemetry records** (:mod:`repro.bench.telemetry`);
the points above the figure presets are rows of the golden store, checked
bit-exactly by :mod:`repro.bench.diffcheck` like the figure cells.

Curve points reuse the evaluation presets at the small end (``sw-dsm-4``,
``hybrid-4``) and the large-cluster presets of :mod:`repro.config` above
that (``eth-*`` Ethernet; ``sci-torus-*``, the 2D-torus SCI layout Dolphin
used for large installations). Every record carries ``nodes`` and
``fabric`` fields on top of the canonical schema so the curve can be
re-plotted straight from the document.

CLI: ``python -m repro bench scaling`` (optionally ``--max-nodes 1024``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.telemetry import run_unit
from repro.errors import ConfigurationError
from repro.fabric import GridSpec, SweepResult, run_sweep

__all__ = ["CURVES", "DEFAULT_LABEL", "DEFAULT_SCALE", "scaling_point",
           "run_scaling_curves", "curve_points", "render_scaling"]

#: fabric -> ladder of (node count, preset name), small to large.
CURVES: Dict[str, Tuple[Tuple[int, str], ...]] = {
    "eth": ((4, "sw-dsm-4"), (64, "eth-64"), (256, "eth-256"),
            (1024, "eth-1024")),
    "sci": ((4, "hybrid-4"), (64, "sci-torus-64"), (256, "sci-torus-256"),
            (1024, "sci-torus-1024")),
}

#: preset -> (fabric, node count): a ladder point's curve identity
_POINTS = {name: (fabric, nodes) for fabric, ladder in CURVES.items()
           for nodes, name in ladder}

#: PI is the scaling workload: its work partitions evenly at any rank
#: count and its lock+barrier epilogue exercises the synchronization
#: fan-in that actually limits large clusters.
DEFAULT_LABEL = "PI"
DEFAULT_SCALE = 0.05


def _with_curve_identity(record: Dict[str, Any]) -> Dict[str, Any]:
    record["fabric"], record["nodes"] = _POINTS[record["preset"]]
    return record


def scaling_point(preset_name: str, label: str = DEFAULT_LABEL,
                  scale: float = DEFAULT_SCALE,
                  trace: bool = False) -> Dict[str, Any]:
    """One curve point run on its own (the golden checker's capture): its
    record (suite ``"scaling"``, plus the curve identity ``fabric`` /
    ``nodes``)."""
    return _with_curve_identity(run_unit(preset_name, label, scale,
                                         suite="scaling", trace=trace))


def run_scaling_curves(fabrics: Sequence[str] = ("eth", "sci"),
                       max_nodes: int = 256,
                       label: str = DEFAULT_LABEL,
                       scale: float = DEFAULT_SCALE,
                       progress: Optional[Callable[[str, str], None]] = None,
                       ) -> SweepResult:
    """Sweep ``label`` across each fabric's node-count ladder up to
    ``max_nodes`` (suite ``"scaling"``); every record gains its curve
    identity. ``progress`` is :func:`~repro.fabric.run_sweep`'s."""
    unknown = [f for f in fabrics if f not in CURVES]
    if unknown:
        raise ConfigurationError(
            f"unknown fabric(s) {unknown}; known: {sorted(CURVES)}")
    spec = GridSpec(presets=tuple(name for fabric in fabrics
                                  for nodes, name in CURVES[fabric]
                                  if nodes <= max_nodes),
                    labels=(label,), scales=(scale,), suite="scaling")
    result = run_sweep(spec, progress=progress)
    for record in result.records:
        _with_curve_identity(record)
    return result


def curve_points(doc: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    """fabric -> records sorted by node count, from a scaling document."""
    out: Dict[str, List[Dict[str, Any]]] = {}
    for rec in doc.get("records", []):
        out.setdefault(rec.get("fabric", "?"), []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r.get("nodes", 0))
    return out


def render_scaling(doc: Dict[str, Any]) -> str:
    """Text table of the curves: one row per (fabric, node count)."""
    from repro.bench.report import host_cells, render_table

    rows = []
    for fabric, recs in sorted(curve_points(doc).items()):
        base = recs[0]["virtual_seconds"] if recs else 0.0
        for rec in recs:
            speedup = (base / rec["virtual_seconds"]
                       if rec["virtual_seconds"] > 0 else float("inf"))
            rows.append([fabric, rec["nodes"], rec["preset"],
                         f"{rec['virtual_seconds'] * 1e3:.3f}",
                         f"x{speedup:.2f}",
                         rec["events_executed"], *host_cells(rec)])
    return render_table(
        ["fabric", "nodes", "preset", "virtual ms", "vs smallest",
         "events", "events/s", "host ms"],
        rows, title=f"scaling curves ({doc.get('records') and doc['records'][0]['benchmark']}"
                    f" at scale {doc.get('scale')})")
