"""Cluster configuration (§3.3, §5.4).

The paper's experiments switch platforms by changing *only a configuration
file* — identical application binaries run on SW-DSM, hybrid DSM, or the
SMP. :class:`ClusterConfig` is that file: it names the platform, the DSM,
the rank count, and the messaging arrangement, and :meth:`ClusterConfig.build`
assembles the full stack (engine → cluster → fabric → DSM → HAMSTER).

Configs come from three sources:

* :func:`preset` — the named configurations used throughout the evaluation
  (``"sw-dsm-4"``, ``"hybrid-4"``, ``"smp-2"``, ...),
* :func:`loads` / :func:`load` — INI-style text (the unified node
  configuration file of §3.3),
* direct construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.machine.params import MachineParams, PAPER_PLATFORM
from repro.sim.engine import Engine
from repro.sim.trace import Tracer

__all__ = ["ClusterConfig", "BuiltPlatform", "preset", "loads", "load", "PRESETS"]

_PLATFORMS = {"smp", "beowulf", "sci"}
_DSMS = {"smp", "jiajia", "scivm", "composite"}
_MACHINE_FIELDS = frozenset(f.name for f in dataclasses.fields(MachineParams))
_MACHINES: Dict[Tuple[Tuple[str, str], ...], MachineParams] = {}


@dataclass
class ClusterConfig:
    """One experiment's platform description."""

    #: hardware: "smp" | "beowulf" (Ethernet) | "sci"
    platform: str = "beowulf"
    #: memory system: "smp" | "jiajia" | "scivm"
    dsm: str = "jiajia"
    #: cluster nodes (or CPUs for the SMP platform)
    nodes: int = 4
    #: SPMD width; defaults to nodes
    ranks: Optional[int] = None
    #: coalesced HAMSTER messaging (True) vs stand-alone DSM stack (False)
    integrated_messaging: bool = True
    #: per-service-call overhead; None -> platform default, 0.0 for native
    #: (non-HAMSTER) bindings
    call_overhead: Optional[float] = None
    #: machine cost-parameter overrides
    param_overrides: Dict[str, Any] = field(default_factory=dict)
    #: enable simulation tracing
    trace: bool = False
    #: fault plan (S17): a :class:`repro.faults.FaultPlan`, a bare seed, or
    #: a plan dict; None (the default) leaves the network perfect and adds
    #: zero state or cost
    faults: Optional[Any] = None
    #: causal span recording (repro.obs). Off by default: the engine keeps
    #: the shared null observer and runs are bit-identical to an
    #: uninstrumented build; on, spans never charge virtual time either.
    observe: bool = False
    #: sharing-pattern analytics (repro.obs.sharing). Off by default: the
    #: engine keeps the shared null recorder and runs are bit-identical;
    #: on, recording is host-side only and never charges virtual time.
    sharing: bool = False
    #: time-series metrics sampling period in virtual seconds (None = off)
    metrics_interval: Optional[float] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.platform not in _PLATFORMS:
            raise ConfigurationError(
                f"unknown platform {self.platform!r}; expected {sorted(_PLATFORMS)}")
        if self.dsm not in _DSMS:
            raise ConfigurationError(
                f"unknown dsm {self.dsm!r}; expected {sorted(_DSMS)}")
        if self.dsm == "smp" and self.platform != "smp":
            raise ConfigurationError("the smp memory system needs the smp platform")
        if self.dsm == "jiajia" and self.platform == "smp":
            raise ConfigurationError("JiaJia needs a networked platform")
        if self.dsm == "scivm" and self.platform != "sci":
            raise ConfigurationError("SCI-VM needs the sci platform")
        if self.dsm == "composite" and self.platform != "sci":
            raise ConfigurationError(
                "the composite DSM needs the sci platform (it hosts both the "
                "SW-DSM and the hybrid DSM on the SAN)")
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.faults is not None and self.platform == "smp":
            raise ConfigurationError(
                "fault injection needs a networked platform (the SMP bus "
                "does not lose messages)")
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ConfigurationError(
                f"metrics_interval must be > 0, got {self.metrics_interval}")

    # ----------------------------------------------------------------- build
    def params(self) -> MachineParams:
        """This config's machine: one frozen object per distinct value (by
        ``repr``, as the fingerprint), so a grid hashes each machine once."""
        fields = {"coalesce_messaging": self.integrated_messaging,
                  **self.param_overrides}
        key = tuple(sorted((k, repr(v)) for k, v in fields.items()))
        machine = _MACHINES.get(key)
        if machine is None:
            unknown = sorted(fields.keys() - _MACHINE_FIELDS)
            if unknown:
                raise ConfigurationError(f"unknown machine parameter(s) {unknown}")
            if len(_MACHINES) >= 1024:      # a bound, not an eviction policy
                _MACHINES.clear()
            machine = _MACHINES[key] = PAPER_PLATFORM.with_overrides(**fields)
        return machine

    def build(self) -> "BuiltPlatform":
        """Assemble engine, cluster, fabric, DSM, and HAMSTER runtime."""
        from repro.core.hamster import Hamster
        from repro.dsm import make_dsm
        from repro.msg.coalesce import MessagingFabric

        params = self.params()
        engine = Engine(trace=Tracer(enabled=True) if self.trace else None)
        sharing = None
        if self.sharing:
            # Installed before the DSM is constructed so substrates can
            # attach their PageTable transition hooks at init time.
            from repro.obs.sharing import SharingRecorder

            sharing = SharingRecorder(engine)
            engine.sharing = sharing
        n_ranks = self.ranks if self.ranks is not None else self.nodes
        if self.platform == "smp":
            cluster = Cluster.smp(engine, n_cpus=max(self.nodes, n_ranks), params=params)
        elif self.platform == "beowulf":
            cluster = Cluster.beowulf(engine, self.nodes, params=params)
        else:
            cluster = Cluster.sci_cluster(engine, self.nodes, params=params)
        plan = injector = None
        if self.faults is not None:
            from repro.faults import FaultPlan, FaultyNetwork

            # Re-check here: `faults` may have been assigned after
            # construction, bypassing __post_init__.
            if cluster.network is None:
                raise ConfigurationError(
                    "fault injection needs a networked platform (the SMP "
                    "bus does not lose messages)")
            plan = FaultPlan.coerce(self.faults)
            injector = FaultyNetwork(cluster.network, plan)
        fabric = None
        if cluster.network is not None:
            fabric = MessagingFabric(cluster, integrated=self.integrated_messaging)
            if plan is not None and plan.active:
                fabric.layer.enable_reliability()
        if self.dsm == "composite":
            from repro.dsm.composite import CompositeMemorySystem
            from repro.dsm.jiajia import JiaJiaSystem
            from repro.dsm.scivm import SciVmSystem

            children = {
                "jiajia": JiaJiaSystem(cluster, fabric=fabric, n_procs=n_ranks),
                "scivm": SciVmSystem(cluster, fabric=fabric, n_procs=n_ranks),
            }
            dsm = CompositeMemorySystem(cluster, children, primary="jiajia")
        else:
            dsm = make_dsm(self.dsm, cluster, fabric=fabric, n_procs=n_ranks)
        hamster = Hamster(cluster, dsm, fabric=fabric,
                          call_overhead=self.call_overhead)
        if plan is not None and plan.heartbeat:
            hamster.cluster_ctl.start_failure_detection(
                interval=plan.heartbeat_interval)
        obs = metrics = None
        built = BuiltPlatform(config=self, engine=engine, cluster=cluster,
                              fabric=fabric, dsm=dsm, hamster=hamster,
                              faults=injector, sharing=sharing)
        if self.observe:
            from repro.obs import ObsRecorder

            obs = ObsRecorder(engine)
            engine.obs = obs
        if self.metrics_interval is not None:
            from repro.obs import MetricsSampler

            metrics = MetricsSampler(built, self.metrics_interval).start()
        built.obs = obs
        built.metrics = metrics
        return built

    # ------------------------------------------------------------------- io
    def to_text(self) -> str:
        """Serialize as the INI-style configuration file."""
        lines = ["[cluster]",
                 f"platform = {self.platform}",
                 f"nodes = {self.nodes}",
                 f"ranks = {self.ranks if self.ranks is not None else self.nodes}",
                 "",
                 "[hamster]",
                 f"dsm = {self.dsm}",
                 f"messaging = {'integrated' if self.integrated_messaging else 'separate'}"]
        if self.param_overrides:
            lines += ["", "[params]"]
            lines += [f"{k} = {v}" for k, v in sorted(self.param_overrides.items())]
        if self.faults is not None:
            import json as _json

            from repro.faults import FaultPlan

            plan = FaultPlan.coerce(self.faults)
            lines += ["", "[faults]",
                      f"plan = {_json.dumps(plan.to_dict(), sort_keys=True)}"]
        if self.observe or self.sharing or self.metrics_interval is not None:
            lines += ["", "[obs]", f"observe = {str(self.observe).lower()}"]
            if self.sharing:
                lines += ["sharing = true"]
            if self.metrics_interval is not None:
                lines += [f"metrics_interval = {self.metrics_interval}"]
        return "\n".join(lines) + "\n"


@dataclass
class BuiltPlatform:
    """Everything :meth:`ClusterConfig.build` assembled."""

    config: ClusterConfig
    engine: Engine
    cluster: Cluster
    fabric: Any
    dsm: Any
    hamster: Any
    #: the installed :class:`repro.faults.FaultyNetwork`, or None
    faults: Any = None
    #: the :class:`repro.obs.ObsRecorder` when built with ``observe=True``
    obs: Any = None
    #: the armed :class:`repro.obs.MetricsSampler` when built with a
    #: ``metrics_interval``
    metrics: Any = None
    #: the :class:`repro.obs.sharing.SharingRecorder` when built with
    #: ``sharing=True``
    sharing: Any = None


def loads(text: str) -> ClusterConfig:
    """Parse an INI-style configuration file (§3.3's unified node config)."""
    section = ""
    values: Dict[Tuple[str, str], str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        values[(section, key.strip().lower())] = val.strip()

    def get(section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        return values.get((section, key), default)

    platform = get("cluster", "platform", "beowulf")
    nodes = int(get("cluster", "nodes", "4"))
    ranks_s = get("cluster", "ranks")
    dsm = get("hamster", "dsm", "jiajia")
    messaging = get("hamster", "messaging", "integrated")
    if messaging not in ("integrated", "separate"):
        raise ConfigurationError(
            f"messaging must be 'integrated' or 'separate', got {messaging!r}")
    overrides: Dict[str, Any] = {}
    for (sec, key), val in values.items():
        if sec != "params":
            continue
        if key not in _MACHINE_FIELDS:
            raise ConfigurationError(f"unknown machine parameter {key!r}")
        current = getattr(PAPER_PLATFORM, key)
        if isinstance(current, bool):
            overrides[key] = val.lower() in ("1", "true", "yes", "on")
        elif isinstance(current, int):
            overrides[key] = int(val)
        else:
            overrides[key] = float(val)
    faults = _parse_faults(values)
    obs_keys = {key for (sec, key) in values if sec == "obs"}
    unknown_obs = obs_keys - {"observe", "sharing", "metrics_interval"}
    if unknown_obs:
        raise ConfigurationError(f"unknown [obs] keys {sorted(unknown_obs)}")
    observe = (get("obs", "observe", "false") or "false").lower() in (
        "1", "true", "yes", "on")
    sharing = (get("obs", "sharing", "false") or "false").lower() in (
        "1", "true", "yes", "on")
    interval_s = get("obs", "metrics_interval")
    return ClusterConfig(platform=platform, dsm=dsm, nodes=nodes,
                         ranks=int(ranks_s) if ranks_s else None,
                         integrated_messaging=(messaging == "integrated"),
                         param_overrides=overrides, faults=faults,
                         observe=observe, sharing=sharing,
                         metrics_interval=float(interval_s) if interval_s else None)


def _parse_faults(values: Dict[Tuple[str, str], str]) -> Optional[Any]:
    """Build a fault plan from a ``[faults]`` section: either one ``plan``
    key holding the JSON form, or flat seed/rate/heartbeat keys."""
    items = {key: val for (sec, key), val in values.items() if sec == "faults"}
    if not items:
        return None
    from repro.faults import FaultPlan, LinkFaults

    if "plan" in items:
        if len(items) > 1:
            raise ConfigurationError(
                "[faults] 'plan' cannot be combined with other keys")
        return FaultPlan.loads(items["plan"])
    link_keys = {"drop_rate", "dup_rate", "delay_rate", "delay_min", "delay_max"}
    plan_keys = {"seed", "heartbeat", "heartbeat_interval"}
    unknown = set(items) - link_keys - plan_keys
    if unknown:
        raise ConfigurationError(f"unknown [faults] keys {sorted(unknown)}")
    link = LinkFaults(**{k: float(v) for k, v in items.items() if k in link_keys})
    return FaultPlan(
        seed=int(items.get("seed", "0")), link=link,
        heartbeat=items.get("heartbeat", "true").lower() in ("1", "true", "yes", "on"),
        heartbeat_interval=float(items.get("heartbeat_interval", "2e-3")))


def load(path: str) -> ClusterConfig:
    """Load a configuration file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


#: The named platforms of the evaluation (§5). "native-jiajia-N" is the
#: unmodified-JiaJia baseline of Figure 2: direct DSM binding (no HAMSTER
#: per-call overhead) with its own separate messaging stack.
PRESETS: Dict[str, ClusterConfig] = {
    "smp-2": ClusterConfig(platform="smp", dsm="smp", nodes=2, name="smp-2"),
    "smp-4": ClusterConfig(platform="smp", dsm="smp", nodes=4, name="smp-4"),
    "sw-dsm-2": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=2, name="sw-dsm-2"),
    "sw-dsm-4": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=4, name="sw-dsm-4"),
    "hybrid-2": ClusterConfig(platform="sci", dsm="scivm", nodes=2, name="hybrid-2"),
    "hybrid-4": ClusterConfig(platform="sci", dsm="scivm", nodes=4, name="hybrid-4"),
    "native-jiajia-2": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=2,
                                     integrated_messaging=False, call_overhead=0.0,
                                     param_overrides={"hamster_fault_hook": 0.0,
                                                      "hamster_sync_hook": 0.0},
                                     name="native-jiajia-2"),
    "native-jiajia-4": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=4,
                                     integrated_messaging=False, call_overhead=0.0,
                                     param_overrides={"hamster_fault_hook": 0.0,
                                                      "hamster_sync_hook": 0.0},
                                     name="native-jiajia-4"),
    # ---------------------------------------------------------- scale axis
    # Large-cluster presets for the scaling-curve suite (`bench scaling`).
    # The paper's testbeds stop at 4 nodes; these extrapolate both fabrics
    # to commodity-cluster sizes. The SCI presets switch the ringlet into
    # the 2D-torus layout Dolphin used for large installations (width W on
    # a W*W torus), keeping per-hop latency identical to the small rings.
    "eth-64": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=64,
                            name="eth-64"),
    "eth-256": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=256,
                             name="eth-256"),
    "eth-1024": ClusterConfig(platform="beowulf", dsm="jiajia", nodes=1024,
                              name="eth-1024"),
    "sci-torus-64": ClusterConfig(platform="sci", dsm="scivm", nodes=64,
                                  param_overrides={"sci_torus_width": 8},
                                  name="sci-torus-64"),
    "sci-torus-256": ClusterConfig(platform="sci", dsm="scivm", nodes=256,
                                   param_overrides={"sci_torus_width": 16},
                                   name="sci-torus-256"),
    "sci-torus-1024": ClusterConfig(platform="sci", dsm="scivm", nodes=1024,
                                    param_overrides={"sci_torus_width": 32},
                                    name="sci-torus-1024"),
}


def preset(name: str) -> ClusterConfig:
    """Fetch a named evaluation configuration (returns a private copy)."""
    try:
        cfg = PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}") from None
    return dataclasses.replace(cfg, param_overrides=dict(cfg.param_overrides))
