"""Baseline store and regression gates over benchmark telemetry.

A *baseline* is simply a committed telemetry document
(``benchmarks/baselines/<suite>.json``, the schema of
:mod:`repro.bench.telemetry`). :func:`compare_docs` matches a fresh run
against it record by record and hands down one verdict per (record,
metric):

``improve`` / ``ok`` / ``regress``
    the metric moved past / stayed within / crossed the threshold in the
    wrong direction. Only the **deterministic** metrics are judged —
    virtual seconds and engine events — so the threshold is float
    formatting wide and a regress fails the build. Host time is judged by
    ``benchmarks/perf``, never here: a record's ``host_seconds`` and
    ``events_per_sec`` are facts about the run that produced it, and a
    committed baseline (written in canonical form) does not hold them.

``new-benchmark`` / ``missing-baseline``
    a record the baseline has never seen, and a baseline record the
    current run did not produce. Both are informational — the cure is
    ``bench update-baseline``.

``fingerprint-mismatch``
    the config fingerprints differ: the two records did not run the same
    experiment, so metric deltas would be meaningless. Fails the build,
    because the committed baseline is stale with respect to the code.

The **paper-shape gate** (:func:`shape_gate`) re-asserts the qualitative
structure of the paper's Figures 2-4 from *recorded* numbers — the same
derivations the live benchmarks use (:func:`repro.bench.runners
.overhead_pct` and friends), applied to the telemetry's per-label virtual
seconds. A telemetry document that passes the gate reproduces the paper's
claims by construction, whatever machine recorded it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.runners import advantage_pct, normalized_pct, overhead_pct
from repro.bench.telemetry import telemetry_to_json

__all__ = ["MetricVerdict", "CompareResult", "METRICS", "THRESHOLD_PCT",
           "compare_docs", "baseline_json", "shape_gate", "ShapeCheck"]

#: The judged metrics: deterministic, lower is better.
METRICS: Tuple[str, ...] = ("virtual_seconds", "events_executed")

#: Relative threshold (percent). The metrics are deterministic — any drift
#: beyond float formatting is a real change.
THRESHOLD_PCT = 0.1


# ---------------------------------------------------------------- verdicts
@dataclass
class MetricVerdict:
    """One (record, metric) comparison outcome."""

    record_id: str
    metric: str
    verdict: str                 # improve | ok | regress | new-benchmark |
    #                            # missing-baseline | fingerprint-mismatch
    current: Optional[float] = None
    baseline: Optional[float] = None
    delta_pct: Optional[float] = None

    @property
    def hard(self) -> bool:
        """Does this verdict fail the build?"""
        return self.verdict in ("regress", "fingerprint-mismatch")

    def as_row(self) -> List[Any]:
        fmt = (lambda v: "-" if v is None else f"{v:.6g}")
        return [self.record_id, self.metric, self.verdict,
                fmt(self.current), fmt(self.baseline),
                "-" if self.delta_pct is None else f"{self.delta_pct:+.2f}%"]


@dataclass
class CompareResult:
    """All verdicts of one current-vs-baseline comparison."""

    suite: str
    verdicts: List[MetricVerdict] = field(default_factory=list)
    shape_violations: List[str] = field(default_factory=list)

    def by_verdict(self, verdict: str) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.verdict == verdict]

    def hard_regressions(self) -> List[MetricVerdict]:
        return [v for v in self.verdicts if v.hard]

    def exit_code(self) -> int:
        """0 = clean, 1 = regression, stale fingerprint or shape violation."""
        return 1 if (self.hard_regressions() or self.shape_violations) else 0

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.verdicts:
            out[v.verdict] = out.get(v.verdict, 0) + 1
        return out

    def render(self, show_ok: bool = False) -> str:
        from repro.bench.report import render_table

        rows = [v.as_row() for v in self.verdicts
                if show_ok or v.verdict != "ok"]
        lines = []
        if rows:
            lines.append(render_table(
                ["benchmark", "metric", "verdict", "current", "baseline",
                 "delta"],
                rows, title=f"bench compare: suite {self.suite!r}"))
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        lines.append(f"verdicts: {counts or 'none'}")
        for violation in self.shape_violations:
            lines.append(f"paper-shape VIOLATION: {violation}")
        if not self.shape_violations:
            lines.append("paper-shape gate: ok")
        lines.append("result: " + ("HARD REGRESSION"
                                   if self.exit_code() else "ok"))
        return "\n".join(lines)


# ----------------------------------------------------------------- compare
def _judge(current: float, baseline: float) -> Tuple[str, float]:
    """Verdict + signed delta percent for one lower-is-better metric pair."""
    if baseline == 0:
        return ("ok" if current == 0 else "regress"), 0.0
    delta_pct = 100.0 * (current - baseline) / baseline
    if delta_pct > THRESHOLD_PCT:
        return "regress", delta_pct
    if delta_pct < -THRESHOLD_PCT:
        return "improve", delta_pct
    return "ok", delta_pct


def compare_docs(current: Dict[str, Any], baseline: Dict[str, Any],
                 shape: bool = True) -> CompareResult:
    """Compare a fresh telemetry document against a baseline document.

    When ``shape`` is true the paper-shape gate runs over the *current*
    document and its violations fail the comparison.
    """
    result = CompareResult(suite=str(current.get("suite", "?")))

    base_by_id = {rec["id"]: rec for rec in baseline.get("records", [])}
    cur_by_id = {rec["id"]: rec for rec in current.get("records", [])}

    for rec_id, rec in cur_by_id.items():
        base = base_by_id.get(rec_id)
        if base is None:
            result.verdicts.append(MetricVerdict(
                record_id=rec_id, metric="-", verdict="new-benchmark"))
            continue
        if rec.get("fingerprint") != base.get("fingerprint"):
            result.verdicts.append(MetricVerdict(
                record_id=rec_id, metric="fingerprint",
                verdict="fingerprint-mismatch"))
            continue
        for metric in METRICS:
            if metric not in rec or metric not in base:
                continue
            verdict, delta = _judge(float(rec[metric]), float(base[metric]))
            result.verdicts.append(MetricVerdict(
                record_id=rec_id, metric=metric, verdict=verdict,
                current=float(rec[metric]), baseline=float(base[metric]),
                delta_pct=delta))

    for rec_id in base_by_id:
        if rec_id not in cur_by_id:
            result.verdicts.append(MetricVerdict(
                record_id=rec_id, metric="-", verdict="missing-baseline"))

    if shape:
        result.shape_violations = [c.describe() for c in shape_gate(current)
                                   if not c.passed]
    return result


def baseline_json(doc: Dict[str, Any]) -> str:
    """``doc`` as ``bench update-baseline`` commits it: records in canonical
    form (no host-varying field) and no ``host`` header, so re-recording an
    unchanged simulator writes the same bytes on every machine."""
    from repro.fabric.cache import canonical_record

    stamped = {k: v for k, v in doc.items() if k != "host"}
    stamped["records"] = [canonical_record(r) for r in doc["records"]]
    return telemetry_to_json(stamped)


# ------------------------------------------------------------- shape gate
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


def _label_seconds(doc: Dict[str, Any], preset: str) -> Dict[str, float]:
    """label -> virtual seconds for one preset, from recorded telemetry."""
    out: Dict[str, float] = {}
    for rec in doc.get("records", []):
        if rec.get("preset") == preset:
            for label, seconds in rec.get("label_seconds", {}).items():
                out[label] = float(seconds)
    return out


def shape_gate(doc: Dict[str, Any],
               fig2_band_pct: float = 10.0) -> List[ShapeCheck]:
    """Re-assert the Figure 2-4 qualitative orderings from recorded data.

    Checks are per-figure and skip silently when the document does not
    contain the platforms a figure needs (a filtered ``--only`` run
    should not fail the gate on absence). Bounds are loose enough for
    smoke scale yet tight enough to catch an inverted ordering:

    * Fig. 2 — HAMSTER-vs-native overhead within ``±fig2_band_pct`` for
      every benchmark (the paper's full-scale band is −4.5%…+6.5%);
    * Fig. 3 — the hybrid DSM beats the SW-DSM on every benchmark;
    * Fig. 4 — the SW-DSM is never faster than the hybrid DSM, and
      memory-bound MatMult beats the SMP on the hybrid (the paper's
      crossover), while the SMP wins most other benchmarks on SW-DSM.
    """
    checks: List[ShapeCheck] = []

    # Figure 2: sw-dsm-4 vs native-jiajia-4.
    t_ham = _label_seconds(doc, "sw-dsm-4")
    t_nat = _label_seconds(doc, "native-jiajia-4")
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
    t_sw4 = _label_seconds(doc, "sw-dsm-4")
    t_hy4 = _label_seconds(doc, "hybrid-4")
    if t_sw4 and t_hy4:
        adv = advantage_pct(t_sw4, t_hy4)
        losers = {k: round(v, 2) for k, v in adv.items() if v <= 0}
        checks.append(ShapeCheck(
            "fig3", "hybrid DSM faster than SW-DSM on every benchmark",
            passed=not losers,
            detail=f"hybrid loses: {losers}" if losers else
                   f"advantage {min(adv.values()):.1f}%"
                   f"..{max(adv.values()):.1f}%"))

    # Figure 4: smp-2 vs hybrid-2 vs sw-dsm-2.
    t_hw = _label_seconds(doc, "smp-2")
    t_hy2 = _label_seconds(doc, "hybrid-2")
    t_sw2 = _label_seconds(doc, "sw-dsm-2")
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
