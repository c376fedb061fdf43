"""Declarative sweep grids.

The paper's evaluation is a grid — models × interconnects × apps × node
counts — and every scaling item on the ROADMAP multiplies it further. A
:class:`GridSpec` names the swept axes declaratively:

* ``presets`` — platform presets (:data:`repro.config.PRESETS` names),
* ``labels`` — figure workloads (:data:`repro.bench.runners.WORKLOADS`),
* ``scales`` — working-set scales (1.0 = the paper's Table 1 sizes),
* ``nodes`` — node-count overrides (``None`` keeps the preset's count),
* ``overrides`` — :class:`repro.machine.params.MachineParams` overrides,
* ``faults`` — fault plans (``None`` = perfect network, a seed, or a
  :meth:`repro.faults.FaultPlan.to_dict` mapping).

:meth:`GridSpec.expand` crosses the axes into a deterministic list of
:class:`Scenario` cells. A scenario is pure, picklable data: the worker
protocol ships it to a worker process, and the content-addressed cache
(:mod:`repro.fabric.cache`) derives the cell's identity from it alone.

:data:`FIGURE_GRID` is the paper's figure grid, declared once; the
``bench run`` suites (:data:`SUITES`), the golden store's figure rows and
``repro experiments`` all read it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.config import PRESETS, ClusterConfig, preset
from repro.errors import ConfigurationError

__all__ = ["Scenario", "GridSpec", "FIGURE_GRID", "SUITES"]


def _canonical_faults(value: Any) -> Optional[str]:
    """Normalize a fault-plan spelling to canonical JSON (or None)."""
    if value is None:
        return None
    from repro.faults import FaultPlan

    plan = FaultPlan.coerce(value)
    return json.dumps(plan.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Scenario:
    """One grid cell: everything that determines a run's virtual result.

    Frozen and built from primitives only, so it pickles cleanly across
    the worker boundary and hashes deterministically across processes.
    """

    #: platform preset name (repro.config.PRESETS)
    preset: str
    #: figure workload label (repro.bench.runners.WORKLOADS)
    label: str
    #: working-set scale (1.0 = paper sizes)
    scale: float
    #: bind the JiaJia API natively (no HAMSTER call overhead)
    native: bool = False
    #: node-count override; None keeps the preset's count
    nodes: Optional[int] = None
    #: MachineParams overrides as sorted (name, value) pairs
    overrides: Tuple[Tuple[str, Any], ...] = ()
    #: canonical fault-plan JSON, or None for the perfect network
    faults: Optional[str] = None
    #: attach the sharing-pattern rollup to the record
    #: (:func:`repro.bench.telemetry.run_unit`); part of the cell's
    #: content address, not of its id
    sharing: bool = False

    # --------------------------------------------------------------- identity
    def cell_id(self) -> str:
        """Human-readable unique id within a grid expansion."""
        parts = [self.preset]
        if self.nodes is not None:
            parts.append(f"x{self.nodes}")
        parts.append(f"/{self.label}@{self.scale:g}")
        if self.overrides:
            parts.append("+" + ",".join(f"{k}={v}" for k, v in self.overrides))
        if self.faults is not None:
            from repro.machine.params import stable_digest

            parts.append("~faults:" + stable_digest(self.faults)[:8])
        return "".join(parts)

    # ------------------------------------------------------------ materialize
    def build_config(self) -> ClusterConfig:
        """The cluster configuration this cell runs on (fresh instance)."""
        config = preset(self.preset)
        if self.nodes is not None:
            if self.nodes < 1:
                raise ConfigurationError(
                    f"cell {self.cell_id()}: need at least one node")
            config.nodes = self.nodes
        if self.overrides:
            config.param_overrides.update(dict(self.overrides))
        if self.faults is not None:
            from repro.faults import FaultPlan

            config.faults = FaultPlan.loads(self.faults)
        return config

    def workload(self) -> Tuple[str, Dict[str, Any]]:
        """The (app, params) pair behind this cell's figure label."""
        from repro.bench.runners import WORKLOADS

        wl = WORKLOADS[self.label]
        return wl.app, wl.params(self.scale)

    # ---------------------------------------------------------------------- io
    def to_dict(self) -> Dict[str, Any]:
        return {"preset": self.preset, "label": self.label,
                "scale": self.scale, "native": self.native,
                "nodes": self.nodes, "overrides": dict(self.overrides),
                "faults": self.faults, "sharing": self.sharing}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Scenario":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario keys {sorted(unknown)}")
        return cls(preset=d["preset"], label=d["label"],
                   scale=float(d["scale"]), native=bool(d.get("native", False)),
                   nodes=d.get("nodes"),
                   overrides=tuple(sorted(d.get("overrides", {}).items())),
                   faults=d.get("faults"),
                   sharing=bool(d.get("sharing", False)))


_GRID_KEYS = {"suite", "presets", "labels", "scales", "native", "nodes",
              "overrides", "faults", "timeout"}


@dataclass
class GridSpec:
    """A declarative sweep: axes whose cross product is the cell list."""

    presets: Tuple[str, ...]
    labels: Tuple[str, ...]
    scales: Tuple[float, ...] = (0.05,)
    #: per-preset native binding; None auto-binds ``native-*`` presets
    native: Optional[Tuple[bool, ...]] = None
    nodes: Tuple[Optional[int], ...] = (None,)
    overrides: Tuple[Dict[str, Any], ...] = field(default_factory=lambda: ({},))
    faults: Tuple[Any, ...] = (None,)
    #: suite name stamped on the telemetry document
    suite: str = "sweep"
    #: per-cell wall-clock timeout in host seconds (None = no limit)
    timeout: Optional[float] = None
    # In-process selectors of ``bench run``, never written to grid JSON:
    #: keep only cells whose ``<preset>/<label>`` contains this substring
    only: Optional[str] = None
    #: attach the sharing rollup to every record (see Scenario.sharing)
    sharing: bool = False

    def __post_init__(self) -> None:
        if not self.presets:
            raise ConfigurationError("grid needs at least one preset")
        if not self.labels:
            raise ConfigurationError("grid needs at least one label")
        from repro.bench.runners import WORKLOADS

        for name in self.presets:
            if name not in PRESETS:
                raise ConfigurationError(
                    f"unknown preset {name!r}; known: {sorted(PRESETS)}")
        for label in self.labels:
            if label not in WORKLOADS:
                raise ConfigurationError(
                    f"unknown workload label {label!r}; "
                    f"known: {sorted(WORKLOADS)}")
        for scale in self.scales:
            if scale <= 0:
                raise ConfigurationError(f"scale must be > 0, got {scale}")
        if self.native is not None and len(self.native) != len(self.presets):
            raise ConfigurationError(
                "native axis must pair one flag per preset")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be > 0 seconds, got {self.timeout}")

    # ---------------------------------------------------------------- expand
    def bindings(self) -> List[Tuple[str, bool]]:
        """Each preset with its native-binding flag."""
        if self.native is not None:
            return list(zip(self.presets, self.native))
        return [(name, name.startswith("native-")) for name in self.presets]

    def expand(self) -> List[Scenario]:
        """Cross the axes into cells, in deterministic grid order."""
        cells: List[Scenario] = []
        for preset_name, native in self.bindings():
            for nodes in self.nodes:
                for label in self.labels:
                    if self.only is not None \
                            and self.only not in f"{preset_name}/{label}":
                        continue
                    for scale in self.scales:
                        for ovr in self.overrides:
                            for faults in self.faults:
                                cells.append(Scenario(
                                    preset=preset_name, label=label,
                                    scale=float(scale), native=native,
                                    nodes=nodes,
                                    overrides=tuple(sorted(ovr.items())),
                                    faults=_canonical_faults(faults),
                                    sharing=self.sharing))
        return cells

    # -------------------------------------------------------------------- io
    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "GridSpec":
        unknown = set(d) - _GRID_KEYS
        if unknown:
            raise ConfigurationError(f"unknown grid keys {sorted(unknown)}")
        if "presets" not in d or "labels" not in d:
            raise ConfigurationError("grid needs 'presets' and 'labels' axes")
        native = d.get("native")
        return cls(
            presets=tuple(d["presets"]), labels=tuple(d["labels"]),
            scales=tuple(float(s) for s in d.get("scales", (0.05,))),
            native=tuple(bool(n) for n in native) if native is not None else None,
            nodes=tuple(d.get("nodes", (None,))),
            overrides=tuple(d.get("overrides", ({},))),
            faults=tuple(d.get("faults", (None,))),
            suite=str(d.get("suite", "sweep")),
            timeout=float(d["timeout"]) if d.get("timeout") is not None else None)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "suite": self.suite, "presets": list(self.presets),
            "labels": list(self.labels), "scales": list(self.scales),
            "nodes": list(self.nodes),
            "overrides": list(self.overrides), "faults": list(self.faults)}
        if self.native is not None:
            d["native"] = list(self.native)
        if self.timeout is not None:
            d["timeout"] = self.timeout
        return d

    @classmethod
    def loads(cls, text: str) -> "GridSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid grid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("grid spec must be a JSON object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str) -> "GridSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.loads(fh.read())
        except OSError as exc:
            raise ConfigurationError(f"cannot read grid spec: {exc}") from None

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


#: The paper's figure grid (§5, Figures 2-4): the six platforms the
#: figures compare x the seven workload labels that are one execution
#: each (the LU splits ride on "LU all"). ``native-jiajia-4`` binds the
#: JiaJia API natively: the Figure 2 baseline.
FIGURE_GRID = GridSpec(
    presets=("smp-2", "sw-dsm-2", "sw-dsm-4", "hybrid-2", "hybrid-4",
             "native-jiajia-4"),
    labels=("MatMult", "PI", "SOR opt", "SOR", "LU all", "WATER 288",
            "WATER 343"),
    scales=(0.05,), suite="smoke")

#: ``bench run --suite``: the figure grid at CI speed (the golden store's
#: scale) and at the paper's Table 1 sizes (minutes of host time).
SUITES: Dict[str, GridSpec] = {
    "smoke": FIGURE_GRID,
    "paper": replace(FIGURE_GRID, scales=(1.0,), suite="paper"),
}
