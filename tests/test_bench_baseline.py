"""Tests for the baseline store: compare verdicts and the paper-shape gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.baseline import (METRICS, baseline_json, compare_docs,
                                  shape_gate)
from repro.bench.telemetry import (SCHEMA, run_suite_telemetry,
                                   telemetry_to_json)

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


def make_record(rec_id="sw-dsm-2/PI", virtual=1.0, events=1000,
                host=0.5, fingerprint="a" * 64, **extra):
    rec = {
        "id": rec_id, "suite": "test", "benchmark": rec_id.split("/", 1)[1],
        "app": "pi", "preset": rec_id.split("/", 1)[0],
        "platform": "test platform", "native": False, "verified": True,
        "scale": 0.05, "virtual_seconds": virtual,
        "phases": {"total": virtual},
        "label_seconds": {rec_id.split("/", 1)[1]: virtual},
        "events_executed": events, "host_seconds": host,
        "events_per_sec": events / host if host else 0.0,
        "critical_path": {"compute": virtual, "protocol": 0.0,
                          "wire": 0.0, "blocked": 0.0},
        "fingerprint": fingerprint,
    }
    rec.update(extra)
    return rec


def make_doc(records):
    return {"schema": SCHEMA, "suite": "test", "scale": 0.05,
            "host": {}, "records": records}


class TestCompareVerdicts:
    def test_identical_docs_all_ok(self):
        doc = make_doc([make_record()])
        result = compare_docs(doc, copy.deepcopy(doc), shape=False)
        assert {v.verdict for v in result.verdicts} == {"ok"}
        assert result.exit_code() == 0

    def test_virtual_regression_is_hard(self):
        base = make_doc([make_record(virtual=1.0)])
        cur = make_doc([make_record(virtual=1.05)])
        result = compare_docs(cur, base, shape=False)
        regress = result.by_verdict("regress")
        assert [v.metric for v in regress] == ["virtual_seconds"]
        assert regress[0].hard
        assert regress[0].delta_pct == pytest.approx(5.0)
        assert result.exit_code() == 1

    def test_virtual_improvement_detected(self):
        base = make_doc([make_record(virtual=1.0)])
        cur = make_doc([make_record(virtual=0.9)])
        result = compare_docs(cur, base, shape=False)
        improved = result.by_verdict("improve")
        assert "virtual_seconds" in {v.metric for v in improved}
        assert result.exit_code() == 0

    def test_host_regression_is_soft(self):
        # Softer than soft: host time is benchmarks/perf's to judge, so a
        # host twice as slow draws no verdict here at all.
        base = make_doc([make_record(host=0.5)])
        cur = make_doc([make_record(host=1.0)])
        result = compare_docs(cur, base, shape=False)
        assert {v.metric for v in result.verdicts} == set(METRICS)
        assert {v.verdict for v in result.verdicts} == {"ok"}
        assert result.exit_code() == 0

    def test_host_noise_within_threshold_ok(self):
        # A document carrying host fields compares equal to its committed
        # form, which carries none.
        cur = make_doc([make_record(host=0.55)])
        committed = json.loads(baseline_json(cur))
        assert "host" not in committed
        assert not {"host_seconds", "events_per_sec"} & set(
            committed["records"][0])
        assert compare_docs(cur, committed, shape=False).verdicts \
            == compare_docs(committed, committed, shape=False).verdicts

    def test_new_benchmark(self):
        base = make_doc([make_record()])
        cur = make_doc([make_record(),
                        make_record(rec_id="sw-dsm-2/SOR", app="sor")])
        result = compare_docs(cur, base, shape=False)
        new = result.by_verdict("new-benchmark")
        assert [v.record_id for v in new] == ["sw-dsm-2/SOR"]
        assert result.exit_code() == 0

    def test_missing_baseline_record(self):
        base = make_doc([make_record(),
                         make_record(rec_id="sw-dsm-2/SOR", app="sor")])
        cur = make_doc([make_record()])
        result = compare_docs(cur, base, shape=False)
        missing = result.by_verdict("missing-baseline")
        assert [v.record_id for v in missing] == ["sw-dsm-2/SOR"]
        assert result.exit_code() == 0

    def test_fingerprint_mismatch_is_hard(self):
        base = make_doc([make_record(fingerprint="a" * 64)])
        cur = make_doc([make_record(fingerprint="b" * 64, virtual=1.0)])
        result = compare_docs(cur, base, shape=False)
        assert result.by_verdict("fingerprint-mismatch")
        assert result.exit_code() == 1
        # no metric verdicts for a mismatched record
        assert not result.by_verdict("ok")

    def test_render_mentions_outcome(self):
        base = make_doc([make_record(virtual=1.0)])
        cur = make_doc([make_record(virtual=2.0)])
        text = compare_docs(cur, base, shape=False).render()
        assert "regress" in text and "HARD REGRESSION" in text


def shape_doc(per_preset):
    """Build a doc from preset -> {label: seconds}."""
    records = []
    for preset_name, labels in per_preset.items():
        for label, seconds in labels.items():
            records.append(make_record(
                rec_id=f"{preset_name}/{label}", virtual=seconds,
                label_seconds={label: seconds}))
    return make_doc(records)


GOOD_SHAPE = {
    # hamster ~ native (fig2), hybrid < sw (fig3)
    "sw-dsm-4": {"MatMult": 1.00, "PI": 0.50, "SOR": 2.00},
    "native-jiajia-4": {"MatMult": 0.98, "PI": 0.51, "SOR": 1.95},
    "hybrid-4": {"MatMult": 0.40, "PI": 0.30, "SOR": 0.70},
    # fig4: sw slower than hybrid; MatMult beats the SMP on the hybrid;
    # SMP wins the rest on sw
    "smp-2": {"MatMult": 1.00, "PI": 0.40, "SOR": 0.80, "WATER 288": 0.5},
    "hybrid-2": {"MatMult": 0.90, "PI": 0.42, "SOR": 1.00, "WATER 288": 0.6},
    "sw-dsm-2": {"MatMult": 1.50, "PI": 0.50, "SOR": 4.00, "WATER 288": 2.0},
}


class TestShapeGate:
    def test_good_shape_passes(self):
        checks = shape_gate(shape_doc(GOOD_SHAPE))
        assert len(checks) == 5
        assert all(c.passed for c in checks)

    def test_fig2_band_violation(self):
        bad = copy.deepcopy(GOOD_SHAPE)
        bad["sw-dsm-4"]["MatMult"] = 2.0  # 100% overhead vs native
        failed = [c for c in shape_gate(shape_doc(bad)) if not c.passed]
        assert any(c.figure == "fig2" for c in failed)

    def test_fig3_inversion_detected(self):
        bad = copy.deepcopy(GOOD_SHAPE)
        bad["hybrid-4"]["SOR"] = 3.0  # hybrid slower than SW-DSM
        failed = [c for c in shape_gate(shape_doc(bad)) if not c.passed]
        assert any(c.figure == "fig3" for c in failed)

    def test_fig4_sw_faster_than_hybrid_detected(self):
        bad = copy.deepcopy(GOOD_SHAPE)
        bad["sw-dsm-2"]["SOR"] = 0.5  # SW-DSM suddenly beats the hybrid
        failed = [c for c in shape_gate(shape_doc(bad)) if not c.passed]
        assert any("never faster" in c.claim for c in failed)

    def test_fig4_matmult_crossover_detected(self):
        bad = copy.deepcopy(GOOD_SHAPE)
        bad["hybrid-2"]["MatMult"] = 1.2  # hybrid loses to the SMP
        failed = [c for c in shape_gate(shape_doc(bad)) if not c.passed]
        assert any("MatMult" in c.claim for c in failed)

    def test_missing_platforms_skip_checks(self):
        doc = shape_doc({"sw-dsm-4": {"PI": 1.0}})  # no counterpart data
        assert shape_gate(doc) == []

    def test_shape_violation_fails_compare(self):
        bad = copy.deepcopy(GOOD_SHAPE)
        bad["hybrid-4"]["SOR"] = 3.0
        doc = shape_doc(bad)
        result = compare_docs(doc, copy.deepcopy(doc))
        assert result.shape_violations
        assert result.exit_code() == 1


class TestShapeGateOnRealTelemetry:
    def test_smoke_subset_passes(self):
        """A real (tiny) two-platform run must clear the fig3 check."""
        doc = run_suite_telemetry("smoke", scale=0.04, only="4/PI")
        ids = {r["id"] for r in doc["records"]}
        assert ids == {"sw-dsm-4/PI", "hybrid-4/PI", "native-jiajia-4/PI"}
        checks = shape_gate(doc)
        assert checks, "fig2+fig3 checks expected"
        assert all(c.passed for c in checks), [c.describe() for c in checks]


class TestCommittedBaselines:
    """Re-recording a baseline at an unchanged simulator is an empty diff —
    the real gate behind ``compare``'s 0.1 % thresholds, and the one that
    sees a unit dropped from a suite."""

    def test_smoke_suite_reproduces_its_baseline_byte_for_byte(self):
        assert baseline_json(run_suite_telemetry("smoke")) \
            == (BASELINES / "smoke.json").read_text()

    def test_scaling_curves_reproduce_their_baseline_up_to_64_nodes(self):
        from repro.bench.scaling import run_scaling_curves

        committed = json.loads((BASELINES / "scaling.json").read_text())
        committed["records"] = [r for r in committed["records"]
                                if r["nodes"] <= 64]
        assert baseline_json(run_scaling_curves(max_nodes=64)) \
            == telemetry_to_json(committed)
