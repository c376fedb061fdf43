"""Experiment runners — one per table/figure of §5.

Every figure uses the same benchmark label set as the paper's bar charts:
MatMult, PI, SOR opt, SOR, LU all, LU, LU core, LU bar, WATER 288,
WATER 343 (one LU execution yields its four split measurements).

``scale`` scales the working sets: 1.0 is the paper's Table 1 size
(1024×1024 matrices, 288/343 molecules); the benches default to a reduced
scale that preserves every qualitative relationship while keeping the
(real-world) run time of the full suite manageable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.apps import get_app
from repro.apps.common import AppResult, merge_rank_results
from repro.config import ClusterConfig, preset
from repro.models.jiajia_api import JiaJiaApi
from repro.models.native_jiajia import NativeJiaJiaApi

__all__ = ["BENCH_LABELS", "run_app_on", "run_app_detailed", "run_suite",
           "table1_rows", "figure2_overhead", "figure3_hybrid_vs_sw",
           "figure4_two_nodes", "overhead_pct", "advantage_pct",
           "normalized_pct", "ShapeCheck", "shape_gate", "WORKLOADS"]

#: Figure bar labels in the paper's order.
BENCH_LABELS = ["MatMult", "PI", "SOR opt", "SOR", "LU all", "LU",
                "LU core", "LU bar", "WATER 288", "WATER 343"]


@dataclass
class Workload:
    """An (app, params, phase) triple behind one figure label."""

    app: str
    params: Callable[[float], dict]   # scale -> app kwargs
    phase: str = "total"
    #: labels sharing one execution (the LU splits)
    shares: Optional[str] = None


def _dim(scale: float, full: int, minimum: int = 32, multiple: int = 16) -> int:
    """Scale a matrix dimension, keeping page/block alignment friendly."""
    n = max(minimum, int(full * scale))
    return max(minimum, (n // multiple) * multiple)


WORKLOADS: Dict[str, Workload] = {
    "MatMult": Workload("matmult", lambda s: {"n": _dim(s, 1024)}),
    "PI": Workload("pi", lambda s: {"intervals": max(1 << 12, int((1 << 23) * s))}),
    "SOR opt": Workload("sor", lambda s: {"n": _dim(s, 1024),
                                          "iterations": 10, "locality": True}),
    "SOR": Workload("sor", lambda s: {"n": _dim(s, 1024),
                                      "iterations": 10, "locality": False}),
    "LU all": Workload("lu", lambda s: {"n": _dim(s, 1024, 64),
                                        "block": max(16, _dim(s, 1024, 64) // 16)},
                       phase="all", shares="lu"),
    "LU": Workload("lu", lambda s: {"n": _dim(s, 1024, 64),
                                    "block": max(16, _dim(s, 1024, 64) // 16)},
                   phase="no_init", shares="lu"),
    "LU core": Workload("lu", lambda s: {"n": _dim(s, 1024, 64),
                                         "block": max(16, _dim(s, 1024, 64) // 16)},
                        phase="core", shares="lu"),
    "LU bar": Workload("lu", lambda s: {"n": _dim(s, 1024, 64),
                                        "block": max(16, _dim(s, 1024, 64) // 16)},
                       phase="barrier", shares="lu"),
    "WATER 288": Workload("water", lambda s: {"molecules": max(32, int(288 * s)),
                                              "steps": 2}),
    "WATER 343": Workload("water", lambda s: {"molecules": max(40, int(343 * s)),
                                              "steps": 2}),
}


def run_app_detailed(config: ClusterConfig, app: str, native: bool = False,
                     **params):
    """Like :func:`run_app_on`, but also return the built platform so the
    caller can harvest telemetry (engine counters, spans, stats) from it.

    Returns ``(merged AppResult, BuiltPlatform)``.
    """
    plat = config.build()
    api = NativeJiaJiaApi(plat.hamster) if native else JiaJiaApi(plat.hamster)
    fn = get_app(app)
    # functools.partial (not a lambda) so generator-function app bodies are
    # detected by the API's isgeneratorfunction dispatch and run stackless.
    per_rank = api.run(functools.partial(fn, **params))
    merged = merge_rank_results(per_rank)
    if not merged.verified:
        raise AssertionError(
            f"benchmark {app!r} failed verification on {config.name or config.platform}")
    return merged, plat


def run_app_on(config: ClusterConfig, app: str, native: bool = False,
               **params) -> AppResult:
    """Build the platform from ``config``, run ``app`` on it under the
    JiaJia API (HAMSTER or native binding), return the merged result."""
    merged, _plat = run_app_detailed(config, app, native=native, **params)
    return merged


def run_suite(config: ClusterConfig, scale: float = 1.0,
              native: bool = False,
              labels: Optional[List[str]] = None) -> Dict[str, float]:
    """Run all figure labels on one platform; returns label -> seconds.

    Labels sharing an execution (the LU splits) run once.
    """
    labels = labels or BENCH_LABELS
    times: Dict[str, float] = {}
    shared: Dict[str, AppResult] = {}
    for label in labels:
        wl = WORKLOADS[label]
        if wl.shares is not None and wl.shares in shared:
            result = shared[wl.shares]
        else:
            result = run_app_on(config, wl.app, native=native, **wl.params(scale))
            if wl.shares is not None:
                shared[wl.shares] = result
        times[label] = result.phases[wl.phase]
    return times


# ----------------------------------------------------------------- Table 1
def table1_rows() -> List[Tuple[str, str]]:
    """Benchmarks and their working sets, as reported in Table 1."""
    from repro.apps.common import APP_TABLE

    return [(entry["description"], entry["working_set"])
            for entry in APP_TABLE.values()]


# ------------------------------------------------- figure math (pure)
# The figure entry points below *run* platforms and then derive the paper's
# percentages. The derivations are split out as pure functions over
# label -> seconds mappings so that recorded telemetry (repro.bench.telemetry)
# can re-derive the same figures from stored numbers without re-running —
# the golden checker's paper-shape gate leans on this.

def overhead_pct(t_hamster: Dict[str, float],
                 t_native: Dict[str, float]) -> Dict[str, float]:
    """Figure 2 sign convention: positive = HAMSTER slower than native."""
    return {label: 100.0 * (t_hamster[label] - t_native[label]) / t_native[label]
            for label in t_hamster if label in t_native}


def advantage_pct(t_sw: Dict[str, float],
                  t_hybrid: Dict[str, float]) -> Dict[str, float]:
    """Figure 3 sign convention: positive = hybrid faster than SW-DSM."""
    return {label: 100.0 * (t_sw[label] - t_hybrid[label]) / t_sw[label]
            for label in t_sw if label in t_hybrid}


def normalized_pct(t_hw: Dict[str, float], t_hy: Dict[str, float],
                   t_sw: Dict[str, float]) -> Dict[str, Dict[str, float]]:
    """Figure 4 normalization: SMP = 100%, larger = slower."""
    out: Dict[str, Dict[str, float]] = {}
    for label in t_hw:
        if label not in t_hy or label not in t_sw:
            continue
        base = t_hw[label]
        out[label] = {
            "hardware": 100.0,
            "hybrid": 100.0 * t_hy[label] / base if base else float("nan"),
            "software": 100.0 * t_sw[label] / base if base else float("nan"),
        }
    return out


@dataclass
class ShapeCheck:
    """One figure-shape assertion evaluated over recorded numbers."""

    figure: str
    claim: str
    passed: bool
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        text = f"[{self.figure}] {self.claim}: {status}"
        return f"{text} ({self.detail})" if self.detail else text


def _label_seconds(rows: List[Dict[str, Any]],
                   preset_name: str) -> Dict[str, float]:
    """label -> virtual seconds for one preset, from recorded rows."""
    out: Dict[str, float] = {}
    for rec in rows:
        if rec.get("preset") == preset_name:
            for label, seconds in rec.get("label_seconds", {}).items():
                out[label] = float(seconds)
    return out


def shape_gate(rows: Iterable[Dict[str, Any]],
               fig2_band_pct: float = 10.0) -> List[ShapeCheck]:
    """Re-assert the Figure 2-4 qualitative orderings from recorded rows
    (the golden store's figure rows, or any telemetry document's records)
    through the derivations above. The gate reads two fields, ``preset``
    and ``label_seconds``, both declared semantic in
    :data:`repro.bench.telemetry.FIELDS`: a host field never moves it.

    Checks are per-figure and skip silently when the rows do not contain
    the platforms a figure needs (a filtered ``--only`` run should not
    fail the gate on absence). Bounds are loose enough for smoke scale
    yet tight enough to catch an inverted ordering:

    * Fig. 2 — HAMSTER-vs-native overhead within ``±fig2_band_pct`` for
      every benchmark (the paper's full-scale band is −4.5%…+6.5%);
    * Fig. 3 — the hybrid DSM beats the SW-DSM on every benchmark;
    * Fig. 4 — the SW-DSM is never faster than the hybrid DSM, and
      memory-bound MatMult beats the SMP on the hybrid (the paper's
      crossover), while the SMP wins most other benchmarks on SW-DSM.
    """
    rows = list(rows)
    checks: List[ShapeCheck] = []

    # Figure 2: sw-dsm-4 vs native-jiajia-4.
    t_ham = _label_seconds(rows, "sw-dsm-4")
    t_nat = _label_seconds(rows, "native-jiajia-4")
    if t_ham and t_nat:
        overhead = overhead_pct(t_ham, t_nat)
        offenders = {k: round(v, 2) for k, v in overhead.items()
                     if abs(v) > fig2_band_pct}
        checks.append(ShapeCheck(
            "fig2", f"|HAMSTER overhead| <= {fig2_band_pct:g}%",
            passed=not offenders,
            detail=f"outside band: {offenders}" if offenders else
                   f"range {min(overhead.values()):+.2f}%"
                   f"..{max(overhead.values()):+.2f}%"))

    # Figure 3: hybrid-4 vs sw-dsm-4.
    t_hy4 = _label_seconds(rows, "hybrid-4")
    if t_ham and t_hy4:
        adv = advantage_pct(t_ham, t_hy4)
        losers = {k: round(v, 2) for k, v in adv.items() if v <= 0}
        checks.append(ShapeCheck(
            "fig3", "hybrid DSM faster than SW-DSM on every benchmark",
            passed=not losers,
            detail=f"hybrid loses: {losers}" if losers else
                   f"advantage {min(adv.values()):.1f}%"
                   f"..{max(adv.values()):.1f}%"))

    # Figure 4: smp-2 vs hybrid-2 vs sw-dsm-2.
    t_hw = _label_seconds(rows, "smp-2")
    t_hy2 = _label_seconds(rows, "hybrid-2")
    t_sw2 = _label_seconds(rows, "sw-dsm-2")
    if t_hw and t_hy2 and t_sw2:
        norm = normalized_pct(t_hw, t_hy2, t_sw2)
        inversions = {k: (round(v["hybrid"], 1), round(v["software"], 1))
                      for k, v in norm.items()
                      if v["software"] < v["hybrid"]}
        checks.append(ShapeCheck(
            "fig4", "SW-DSM never faster than the hybrid DSM",
            passed=not inversions,
            detail=f"inversions: {inversions}" if inversions else
                   f"{len(norm)} benchmarks ordered"))
        if "MatMult" in norm:
            checks.append(ShapeCheck(
                "fig4", "memory-bound MatMult beats the SMP on the hybrid",
                passed=norm["MatMult"]["hybrid"] < 100.0,
                detail=f"hybrid at {norm['MatMult']['hybrid']:.1f}% of SMP"))
        others = [v for k, v in norm.items() if k != "MatMult"]
        if len(others) >= 3:
            smp_wins = sum(1 for v in others if v["software"] > 100.0)
            checks.append(ShapeCheck(
                "fig4", "SMP wins most benchmarks against the SW-DSM",
                passed=smp_wins * 2 > len(others),
                detail=f"SMP wins {smp_wins}/{len(others)}"))
    return checks


# ---------------------------------------------------------------- Figure 2
def figure2_overhead(scale: float = 1.0, nodes: int = 4,
                     labels: Optional[List[str]] = None) -> Dict[str, float]:
    """Overhead (%) of HAMSTER-bound vs native JiaJia on ``nodes`` nodes.

    Positive = HAMSTER slower (degradation), negative = HAMSTER faster —
    the sign convention of Figure 2.
    """
    hamster_cfg = preset(f"sw-dsm-{nodes}")
    native_cfg = preset(f"native-jiajia-{nodes}")
    t_hamster = run_suite(hamster_cfg, scale=scale, labels=labels)
    t_native = run_suite(native_cfg, scale=scale, native=True, labels=labels)
    return overhead_pct(t_hamster, t_native)


# ---------------------------------------------------------------- Figure 3
def figure3_hybrid_vs_sw(scale: float = 1.0, nodes: int = 4,
                         labels: Optional[List[str]] = None) -> Dict[str, float]:
    """Performance advantage (%) of the hybrid DSM over the SW-DSM.

    Positive = hybrid faster (the paper plots hybrid's advantage with
    SW-DSM as the baseline): ``100 * (t_sw - t_hybrid) / t_sw``.
    """
    t_sw = run_suite(preset(f"sw-dsm-{nodes}"), scale=scale, labels=labels)
    t_hy = run_suite(preset(f"hybrid-{nodes}"), scale=scale, labels=labels)
    return advantage_pct(t_sw, t_hy)


# ---------------------------------------------------------------- Figure 4
def figure4_two_nodes(scale: float = 1.0,
                      labels: Optional[List[str]] = None) -> Dict[str, Dict[str, float]]:
    """Hardware- vs hybrid- vs software-DSM on two nodes (two CPUs for the
    hardware case), normalized to the hardware-DSM (SMP) time = 100%.

    Returns label -> {"hardware": 100.0, "hybrid": pct, "software": pct}
    where pct > 100 means slower than the SMP.
    """
    t_hw = run_suite(preset("smp-2"), scale=scale, labels=labels)
    t_hy = run_suite(preset("hybrid-2"), scale=scale, labels=labels)
    t_sw = run_suite(preset("sw-dsm-2"), scale=scale, labels=labels)
    return normalized_pct(t_hw, t_hy, t_sw)
