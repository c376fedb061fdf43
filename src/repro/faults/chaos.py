"""Chaos harness: Table 1 benchmarks under seeded fault plans.

:func:`run_chaos` builds a platform with a :class:`~repro.faults.plan.FaultPlan`
installed, runs one benchmark SPMD-style, and reports a **typed** outcome:

* ``"completed"`` — the run finished; with transient faults the reliable
  messaging layer masked them and verification still holds;
* ``"node-failed"`` — a :class:`~repro.errors.NodeFailedError` surfaced
  (heartbeat-confirmed crash, or a send to a known-dead node);
* ``"timeout"`` — a :class:`~repro.errors.TimeoutError` surfaced (a message
  exhausted its retransmission budget, e.g. under a long partition).

The invariant the chaos tests assert: a faulty run either completes with a
*verified* result or fails with one of these typed errors — never a silent
wrong answer, never a hang. Same plan + same workload → identical outcome,
statistics, and event trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.config import ClusterConfig, preset
from repro.errors import NodeFailedError, TimeoutError
from repro.faults.plan import FaultPlan

__all__ = ["ChaosResult", "run_chaos", "fault_free_fingerprint"]


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    app: str
    platform: str
    #: "completed" | "node-failed" | "timeout"
    outcome: str
    verified: bool = False
    checksum: float = 0.0
    phases: Dict[str, float] = field(default_factory=dict)
    #: final virtual time of the simulation
    virtual_time: float = 0.0
    #: stringified error for the failure outcomes
    error: Optional[str] = None
    #: injection statistics (FaultyNetwork.stats()), {} when fault-free
    faults: Dict[str, int] = field(default_factory=dict)
    #: reliable-messaging statistics
    messaging: Dict[str, int] = field(default_factory=dict)
    #: failure-detector status, {} when no detector ran
    detector: Dict[str, Any] = field(default_factory=dict)
    #: the :class:`~repro.config.BuiltPlatform` the run executed on — the
    #: handle observability exports (trace/metrics) read from
    built: Any = None

    def summary(self) -> str:
        lines = [f"chaos: {self.app} on {self.platform}",
                 f"outcome  : {self.outcome}"
                 + (f" ({self.error})" if self.error else ""),
                 f"verified : {self.verified}",
                 f"virtual  : {self.virtual_time * 1e3:.3f} ms"]
        if self.faults:
            inj = ", ".join(f"{k}={v}" for k, v in sorted(self.faults.items()))
            lines.append(f"injected : {inj}")
        if self.messaging:
            msg = ", ".join(f"{k}={v}" for k, v in sorted(self.messaging.items()))
            lines.append(f"messaging: {msg}")
        if self.detector:
            lines.append(f"detector : suspected={self.detector.get('suspected')} "
                         f"failed={self.detector.get('failed')}")
        return "\n".join(lines)


def _resolve_config(config: Union[str, ClusterConfig]) -> ClusterConfig:
    if isinstance(config, str):
        return preset(config)
    if isinstance(config, ClusterConfig):
        import dataclasses

        return dataclasses.replace(
            config, param_overrides=dict(config.param_overrides))
    raise TypeError(f"config must be a preset name or ClusterConfig, "
                    f"got {type(config).__name__}")


def run_chaos(config: Union[str, ClusterConfig], app: str = "sor",
              app_params: Optional[Dict[str, Any]] = None,
              plan: Optional[Union[FaultPlan, int, Dict[str, Any]]] = None,
              native: bool = False,
              run: Optional[Callable[[Any], Tuple[bool, float]]] = None
              ) -> ChaosResult:
    """Run one benchmark under ``plan`` and classify the outcome.

    ``plan`` overrides whatever ``config.faults`` carries; pass ``None`` to
    keep the config's own plan (or run fault-free). A given ``run``
    replaces the benchmark: ``run(platform)`` returns ``(verified,
    checksum)``, and ``app`` only names the result.
    """
    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    from repro.models.jiajia_api import JiaJiaApi
    from repro.models.native_jiajia import NativeJiaJiaApi

    cfg = _resolve_config(config)
    if plan is not None:
        cfg.faults = FaultPlan.coerce(plan)
    plat = cfg.build()
    result = ChaosResult(app=app, platform=cfg.name or cfg.platform,
                         outcome="completed", built=plat)
    try:
        if run is not None:
            result.verified, result.checksum = run(plat)
        else:
            api = (NativeJiaJiaApi if native else JiaJiaApi)(plat.hamster)
            fn = functools.partial(get_app(app), **dict(app_params or {}))
            merged = merge_rank_results(api.run(fn))
            result.verified, result.checksum = merged.verified, merged.checksum
            result.phases = dict(merged.phases)
    except NodeFailedError as exc:
        result.outcome = "node-failed"
        result.error = str(exc)
    except TimeoutError as exc:
        result.outcome = "timeout"
        result.error = str(exc)
    result.virtual_time = plat.engine.now
    if plat.faults is not None:
        result.faults = plat.faults.stats()
    layer = plat.fabric.layer if plat.fabric is not None else None
    if layer is not None and layer.reliable:
        result.messaging = {"posts": layer.posts, "rpcs": layer.rpcs,
                            "retries": layer.retries,
                            "acks_sent": layer.acks_sent,
                            "dups_suppressed": layer.dups_suppressed,
                            "delivery_failures": layer.delivery_failures}
    detector = plat.hamster.cluster_ctl.detector
    if detector is not None:
        detector.stop()
        result.detector = detector.status()
    return result


def fault_free_fingerprint(config: Union[str, ClusterConfig],
                           app: str = "sor",
                           app_params: Optional[Dict[str, Any]] = None,
                           native: bool = False) -> Dict[str, Any]:
    """Reference run with no faults: the (checksum, virtual-time, verified)
    triple a masked chaos run's *correctness* is compared against."""
    cfg = _resolve_config(config)
    cfg.faults = None
    res = run_chaos(cfg, app=app, app_params=app_params, native=native)
    return {"checksum": res.checksum, "virtual_time": res.virtual_time,
            "verified": res.verified}
