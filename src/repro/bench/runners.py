"""Experiment runners for §5, and the one table of the paper's claims.

Every figure uses the same benchmark label set as the paper's bar charts:
MatMult, PI, SOR opt, SOR, LU all, LU, LU core, LU bar, WATER 288,
WATER 343 (one LU execution yields its four split measurements).

``scale`` scales the working sets: 1.0 is the paper's Table 1 size
(1024×1024 matrices, 288/343 molecules). The paper's claims are stated
at 0.05, 0.25 and 1.0 (:data:`SCALES`); the few that fail at a smaller
scale are named in :data:`CLAIMS` as exceptions, with their reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.apps.common import AppError, AppResult, prepare_app
from repro.config import ClusterConfig

__all__ = ["BENCH_LABELS", "run_app_on", "run_app_detailed", "run_suite",
           "table1_rows", "overhead_pct", "advantage_pct",
           "normalized_pct", "SCALES", "ShapeCheck", "Excepted", "Claim",
           "CLAIMS", "shape_gate", "WORKLOADS"]

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

    Returns ``(merged AppResult, BuiltPlatform)``; a failed verification
    raises :class:`~repro.apps.common.AppError`.
    """
    plat, run = prepare_app(config, app, params, native=native)
    merged = run()
    if not merged.verified:
        raise AppError(
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
# The paper's percentages, as pure functions over label -> seconds
# mappings, so that live runs (:func:`run_suite`) and recorded telemetry
# (repro.bench.telemetry) derive the same figures — the claims table
# below and repro.bench.experiments lean on this.

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


# ------------------------------------------------------- the claims table
# The paper's evaluation (§5) is a set of qualitative orderings. Each is
# stated once, below, as a predicate over named inputs, and two
# evaluators read the table: :func:`shape_gate` over recorded rows (the
# golden store, a telemetry document) and benchmarks/test_paper_claims.py,
# which measures every input at ``REPRO_SCALE``. An input named after a
# preset is its label -> seconds; ``"<preset> eth xf"`` / ``"<preset> sci xf"``
# is the same on the sensitivity labels with the Ethernet (SCI) latency
# scaled by ``f``; ``"<preset> homes"`` is SOR's placement -> {"seconds",
# "diffs"} under three home placements (the locality ablation).

#: The scales every claim is stated at: the golden store's, the benchmark
#: suite's default and the paper's.
SCALES = (0.05, 0.25, 1.0)

#: Claim outcomes; only ``failed`` and ``stale`` break a gate.
HELD, EXCEPTED, FAILED, STALE, UNDECIDED = (
    "held", "excepted", "failed", "stale", "undecided")

#: (held, detail); ``held`` is None when the inputs cannot decide it.
Verdict = Tuple[Optional[bool], str]


@dataclass(frozen=True)
class ShapeCheck:
    """One claim of the table, evaluated."""

    figure: str
    claim: str
    status: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        """Decided as the table says: held, or failed where excepted."""
        return self.status in (HELD, EXCEPTED)

    @property
    def failed(self) -> bool:
        """Decided against the table: broken, or excepted yet holding."""
        return self.status in (FAILED, STALE)

    def describe(self) -> str:
        text = f"[{self.figure}] {self.claim}: {self.status}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass(frozen=True)
class Excepted:
    """A known red: the claim fails at ``scale`` for ``reason``. Strict:
    an excepted claim that holds fails as stale."""

    scale: float
    reason: str


@dataclass(frozen=True)
class Claim:
    """One row of the table: ``holds(*inputs)`` must be true at every
    scale in ``scales`` except those ``exceptions`` name."""

    key: str
    figure: str
    text: str
    inputs: Tuple[str, ...]
    holds: Callable[..., Verdict]
    scales: Tuple[float, ...] = SCALES
    exceptions: Tuple[Excepted, ...] = ()

    def evaluate(self, inputs: Dict[str, Any],
                 scale: Optional[float]) -> ShapeCheck:
        """Judge the claim on ``inputs`` (name -> value) measured at
        ``scale``; a missing input, or a label a predicate looks up and
        the inputs lack, leaves it undecided."""
        missing = [name for name in self.inputs if not inputs.get(name)]
        if missing:
            held, detail = None, f"no {', '.join(missing)}"
        elif scale not in self.scales:
            held, detail = None, f"not stated at scale {scale}"
        else:
            try:
                held, detail = self.holds(*(inputs[n] for n in self.inputs))
            except KeyError as exc:
                held, detail = None, f"no {exc}"
        known = next((e for e in self.exceptions if e.scale == scale), None)
        if held is None:
            status = UNDECIDED
        elif known is None:
            status = HELD if held else FAILED
        else:
            status = STALE if held else EXCEPTED
            detail += f"; excepted at {scale:g}: {known.reason}"
        return ShapeCheck(self.figure, self.text, status, detail)


def _every(values: Dict[str, float], ok: Callable[[float], bool]) -> Verdict:
    """Held when ``ok`` holds for every label."""
    if not values:
        return None, "no shared label"
    bad = {label: round(v, 2) for label, v in values.items() if not ok(v)}
    if bad:
        return False, f"offenders {bad}"
    lo, hi = min(values.values()), max(values.values())
    return True, f"range {lo:+.2f}..{hi:+.2f}"


def _lacks_a_label(*inputs: Dict[str, float]) -> bool:
    """A count over the benchmarks is decided on all ten labels only."""
    return any(label not in t for t in inputs for label in BENCH_LABELS)


def _both_signs(ham: Dict[str, float], nat: Dict[str, float]) -> Verdict:
    if _lacks_a_label(ham, nat):
        return None, "needs all ten benchmarks"
    overhead = overhead_pct(ham, nat).values()
    slower = sum(v > 0 for v in overhead)
    faster = sum(v < 0 for v in overhead)
    return slower > 0 and faster > 0, f"{slower} slower, {faster} faster"


def _hybrid_wins(sw: Dict[str, float], hy: Dict[str, float]) -> Verdict:
    return _every(advantage_pct(sw, hy), lambda v: v > 0)


def _sor_locality(sw: Dict[str, float], hy: Dict[str, float]) -> Verdict:
    adv = advantage_pct(sw, hy)
    return (adv["SOR"] > adv["SOR opt"],
            f"SOR {adv['SOR']:.2f}% vs SOR opt {adv['SOR opt']:.2f}%")


def _lu_init(sw: Dict[str, float], hy: Dict[str, float]) -> Verdict:
    adv = advantage_pct(sw, hy)
    return (adv["LU all"] >= adv["LU core"] - 1.0,
            f"LU all {adv['LU all']:.1f}% vs LU core {adv['LU core']:.1f}%")


def _matmult_beats_smp(hw: Dict[str, float], hy: Dict[str, float]) -> Verdict:
    pct = 100.0 * hy["MatMult"] / hw["MatMult"]
    return pct < 100.0, f"hybrid at {pct:.1f}% of SMP"


def _smp_wins_pi(hw: Dict[str, float], hy: Dict[str, float]) -> Verdict:
    return (hw["PI"] <= hy["PI"] * 1.05,
            f"SMP at {100.0 * hw['PI'] / hy['PI']:.1f}% of hybrid")


def _smp_wins(hw: Dict[str, float], sw: Dict[str, float]) -> Verdict:
    if _lacks_a_label(hw, sw):
        return None, "needs all ten benchmarks"
    wins = sum(sw[label] > hw[label] for label in hw if label != "MatMult")
    return wins >= 6, f"SMP wins {wins}/9"


def _ratio(homes: Dict[str, Dict[str, float]]) -> float:
    """Worst over best SOR time across the home placements."""
    times = [run["seconds"] for run in homes.values()]
    return max(times) / min(times)


def _placement_sensitivity(sw: Dict[str, Dict[str, float]],
                           hy: Dict[str, Dict[str, float]]) -> Verdict:
    return (_ratio(hy) < _ratio(sw),
            f"hybrid x{_ratio(hy):.2f}, SW-DSM x{_ratio(sw):.2f}")


_FIG3 = ("sw-dsm-4", "hybrid-4")
CLAIMS: List[Claim] = [
    # Figure 2 (§5.3): HAMSTER costs native JiaJia little, either way.
    Claim("fig2-band", "fig2",
          "every HAMSTER-vs-native overhead lies within -6.5%..+6.5%",
          ("sw-dsm-4", "native-jiajia-4"),
          lambda ham, nat: _every(overhead_pct(ham, nat),
                                  lambda v: -6.5 < v < 6.5),
          exceptions=(Excepted(0.25, "SOR opt spikes to +12.40%; its "
                               "mechanism is open (ROADMAP 8(b))"),)),
    Claim("fig2-signs", "fig2",
          "HAMSTER is slower on some benchmarks and faster on others",
          ("sw-dsm-4", "native-jiajia-4"), _both_signs),
    # Figure 3 (§5.4): the hybrid DSM beats the SW-DSM.
    Claim("fig3-hybrid-wins", "fig3",
          "the hybrid DSM is faster than the SW-DSM on every benchmark",
          _FIG3, _hybrid_wins),
    Claim("fig3-sor-locality", "fig3",
          "unoptimized SOR gains more from the hybrid than SOR opt",
          _FIG3, _sor_locality,
          exceptions=(Excepted(0.05, "at n=48 SOR opt is the slower SOR "
                               "on the SW-DSM (64.96 vs 35.35 ms)"),)),
    Claim("fig3-lu-init", "fig3",
          "LU gains at least as much overall as in its core (1 point slack)",
          _FIG3, _lu_init),
    Claim("fig3-barrier", "fig3",
          "LU's barrier time on the hybrid is under half the SW-DSM's",
          _FIG3, lambda sw, hy: (
              hy["LU bar"] < sw["LU bar"] / 2,
              f"{hy['LU bar'] * 1e3:.3f} vs {sw['LU bar'] * 1e3:.3f} ms")),
    # Figure 4 (§5.4): two nodes against the dual-CPU SMP.
    Claim("fig4-matmult-hybrid", "fig4",
          "memory-bound MatMult beats the SMP on the hybrid DSM",
          ("smp-2", "hybrid-2"), _matmult_beats_smp),
    Claim("fig4-matmult-best", "fig4",
          "MatMult costs the SW-DSM relatively less than SOR",
          ("smp-2", "sw-dsm-2"), lambda hw, sw: (
              sw["MatMult"] / hw["MatMult"] < sw["SOR"] / hw["SOR"],
              f"MatMult x{sw['MatMult'] / hw['MatMult']:.2f}, "
              f"SOR x{sw['SOR'] / hw['SOR']:.2f} of SMP")),
    Claim("fig4-smp-wins", "fig4",
          "the SMP beats the SW-DSM on at least 6 of the 9 other benchmarks",
          ("smp-2", "sw-dsm-2"), _smp_wins),
    Claim("fig4-sw-near-smp", "fig4",
          "the SW-DSM is never 5% faster than the SMP, MatMult aside",
          ("smp-2", "sw-dsm-2"), lambda hw, sw: _every(
              {label: 100.0 * sw[label] / hw[label] for label in hw
               if label in sw and label != "MatMult"}, lambda v: v > 95.0)),
    Claim("fig4-sw-vs-hybrid", "fig4",
          "the SW-DSM is never faster than the hybrid DSM",
          ("hybrid-2", "sw-dsm-2"), lambda hy, sw: _every(
              {label: 100.0 * sw[label] / hy[label] for label in hy
               if label in sw}, lambda v: v >= 100.0)),
    # The locality ablation: "the Software-DSM relies more heavily on
    # locality optimizations" (§5.4).
    Claim("homes-block-fastest", "locality",
          "owner-computes (block) homes run SOR fastest on the SW-DSM",
          ("sw-dsm-4 homes",), lambda sw: (
              sw["block"]["seconds"] < min(sw["cyclic"]["seconds"],
                                           sw["single-home"]["seconds"]),
              ", ".join(f"{name} {run['seconds'] * 1e3:.2f} ms"
                        for name, run in sw.items()))),
    Claim("homes-block-diffs", "locality",
          "block homes create no more diffs than cyclic on the SW-DSM",
          ("sw-dsm-4 homes",), lambda sw: (
              sw["block"]["diffs"] <= sw["cyclic"]["diffs"],
              f"{sw['block']['diffs']} vs {sw['cyclic']['diffs']}")),
    Claim("homes-sensitivity", "locality",
          "the hybrid DSM is less placement-sensitive than the SW-DSM "
          "(worst/best time)",
          ("sw-dsm-4 homes", "hybrid-4 homes"), _placement_sensitivity,
          exceptions=(Excepted(0.05, "the hybrid's worst/best is x2.78 "
                               "against the SW-DSM's x2.10 at n=64"),)),
]
# Sensitivity: the orderings survive each latency at half and at double.
_SOR_SENSITIVITY = {0.5: "(0.937 vs 0.942)", 2.0: "(0.955 vs 0.956)"}
for _f in (0.5, 2.0):
    CLAIMS += [
        Claim(f"eth{_f}-hybrid-wins", "sensitivity",
              f"the hybrid DSM beats the SW-DSM everywhere at Ethernet "
              f"latency x{_f}", (f"sw-dsm-4 eth x{_f}", "hybrid-4"),
              _hybrid_wins),
        Claim(f"eth{_f}-sor-locality", "sensitivity",
              f"unoptimized SOR gains more than SOR opt at Ethernet "
              f"latency x{_f}", (f"sw-dsm-4 eth x{_f}", "hybrid-4"),
              _sor_locality, exceptions=(Excepted(
                  0.05, "the fig3-sor-locality inversion "
                  + _SOR_SENSITIVITY[_f]),)),
        Claim(f"sci{_f}-matmult-hybrid", "sensitivity",
              f"MatMult beats the SMP on the hybrid at SCI latency x{_f}",
              ("smp-2", f"hybrid-2 sci x{_f}"), _matmult_beats_smp),
        Claim(f"sci{_f}-smp-wins-pi", "sensitivity",
              f"the SMP wins the synchronization-bound PI (5% slack) at "
              f"SCI latency x{_f}", ("smp-2", f"hybrid-2 sci x{_f}"),
              _smp_wins_pi),
    ]


def shape_gate(rows: Iterable[Dict[str, Any]]) -> List[ShapeCheck]:
    """Evaluate every claim of :data:`CLAIMS` over recorded rows (the
    golden store's figure rows, or any telemetry document's records),
    at the rows' common ``scale``. The gate reads ``preset``,
    ``label_seconds`` and ``scale``, all declared semantic in
    :data:`repro.bench.telemetry.FIELDS`: a host field never moves it.

    Returns one check per claim. Rows hold no sensitivity or placement
    run, so those claims, and any a filtered subset lacks the labels
    for, come back undecided, never passed.
    """
    rows = list(rows)
    scales = {rec.get("scale") for rec in rows}
    scale = scales.pop() if len(scales) == 1 else None
    inputs: Dict[str, Dict[str, float]] = {}
    for rec in rows:
        inputs.setdefault(rec.get("preset"), {}).update(
            (label, float(seconds))
            for label, seconds in rec.get("label_seconds", {}).items())
    return [claim.evaluate(inputs, scale) for claim in CLAIMS]
