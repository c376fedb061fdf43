"""Tests for the golden store's checker (``repro.bench.diffcheck``): its
verdicts, the paper-shape gate it runs, and the committed store.

The store is the one record of what was simulated; ``--check`` judges
every semantic field bit-exactly and names the row and the field of each
problem, host fields never draw a verdict, and ``--record`` is the one
re-record command.
"""

import copy
import json

import pytest

from repro.bench import diffcheck
from repro.bench.diffcheck import (GOLDEN_PATH, check_goldens, diff_records,
                                   record_goldens)
from repro.bench.runners import shape_gate
from repro.bench.telemetry import (HOST_FIELDS, canonical_record,
                                   run_suite_telemetry)

ROW = "fig/hybrid-2/PI"


@pytest.fixture(scope="module")
def fresh():
    """ROW as the live simulator produces it, host fields included."""
    return diffcheck.capture({sc.id: sc for sc in diffcheck.scenarios()}[ROW])


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """A one-row store recorded from the live simulator."""
    path = tmp_path_factory.mktemp("golden") / "golden_runs.json"
    return record_goldens(path, only=ROW)


def store(tmp_path, doc, **edits):
    """Write ``doc`` with ``edits`` applied to ROW's stored row."""
    doc = copy.deepcopy(doc)
    doc["rows"][ROW].update(edits)
    path = tmp_path / "golden_runs.json"
    path.write_text(json.dumps(doc))
    return path


class TestCompareVerdicts:
    @pytest.fixture(autouse=True)
    def _rerun_is_fresh(self, fresh, monkeypatch):
        """Each check re-runs ROW; the simulator is deterministic, so
        hand the checker the one run ``fresh`` made."""
        monkeypatch.setattr(diffcheck, "capture",
                            lambda sc, scale=None, procs=None:
                            copy.deepcopy(fresh))

    def test_identical_docs_all_ok(self, recorded, tmp_path):
        assert check_goldens(store(tmp_path, recorded), only=ROW) == []

    def test_virtual_regression_is_hard(self, recorded, tmp_path):
        # a stored time 5% faster than the simulator now runs
        want = recorded["rows"][ROW]["virtual_seconds"] / 1.05
        problems = check_goldens(store(tmp_path, recorded,
                                       virtual_seconds=want), only=ROW)
        assert len(problems) == 1
        assert problems[0].startswith(f"{ROW}: virtual_seconds: got ")
        assert f"stored {want!r}" in problems[0]

    def test_virtual_improvement_detected(self, recorded, tmp_path):
        # bit-exact both ways: a faster simulated run is a change too
        row = recorded["rows"][ROW]
        problems = check_goldens(store(
            tmp_path, recorded, virtual_seconds=row["virtual_seconds"] * 1.05,
            end_seconds=row["end_seconds"] + 1e-12), only=ROW)
        assert [p.split(": got")[0] for p in problems] \
            == [f"{ROW}: end_seconds", f"{ROW}: virtual_seconds"]

    def test_host_regression_is_soft(self, recorded, tmp_path):
        # Softer than soft: host time is benchmarks/perf's to judge, so a
        # stored host twice as slow draws no verdict here at all.
        path = store(tmp_path, recorded, host_seconds=99.0,
                     events_per_sec=1.0)
        assert check_goldens(path, only=ROW) == []

    def test_host_noise_within_threshold_ok(self, recorded, fresh):
        # A fresh row carries host fields; its stored form carries none,
        # and the two compare equal.
        assert set(HOST_FIELDS) <= set(fresh)
        assert not set(HOST_FIELDS) & set(recorded["rows"][ROW])
        assert canonical_record(fresh) == recorded["rows"][ROW]
        assert diff_records(fresh, recorded["rows"][ROW]) == []

    def test_new_benchmark(self, recorded, tmp_path):
        doc = copy.deepcopy(recorded)
        del doc["rows"][ROW]
        path = tmp_path / "golden_runs.json"
        path.write_text(json.dumps(doc))
        assert check_goldens(path, only=ROW) \
            == [f"{ROW}: no row in the store (run --record)"]

    def test_missing_baseline_record(self, recorded, tmp_path):
        doc = copy.deepcopy(recorded)
        doc["rows"][f"{ROW}-old"] = doc["rows"][ROW]
        path = tmp_path / "golden_runs.json"
        path.write_text(json.dumps(doc))
        assert check_goldens(path, only=ROW) \
            == [f"{ROW}-old: stale row: no scenario produces it "
                f"(run --record)"]

    def test_fingerprint_mismatch_is_hard(self, recorded, tmp_path):
        problems = check_goldens(store(tmp_path, recorded,
                                       fingerprint="b" * 64), only=ROW)
        assert len(problems) == 1
        assert problems[0].startswith(f"{ROW}: fingerprint: got ")

    def test_digest_change_is_hard(self, recorded, tmp_path):
        problems = check_goldens(store(tmp_path, recorded, digest="0" * 64),
                                 only=ROW)
        assert len(problems) == 1
        assert problems[0].startswith(f"{ROW}: digest: got ")

    def test_undeclared_field_is_named(self, recorded, tmp_path):
        problems = check_goldens(store(tmp_path, recorded, colour="red"),
                                 only=ROW)
        assert problems[0] == (f"{ROW}: colour: not declared in "
                               f"repro.bench.telemetry.FIELDS")

    def test_render_mentions_outcome(self, recorded, tmp_path, monkeypatch,
                                     capsys):
        row = recorded["rows"][ROW]
        monkeypatch.setattr(diffcheck, "GOLDEN_PATH", store(
            tmp_path, recorded, events_executed=row["events_executed"] + 1))
        assert diffcheck.main(["diffcheck", "--check", "--only", ROW]) == 1
        out = capsys.readouterr().out
        assert "1 mismatch(es)" in out
        assert f"FAIL {ROW}: events_executed: got " in out


def make_record(rec_id, seconds):
    """A figure row reduced to what the shape gate reads, plus a host
    field it must ignore."""
    preset_name, label = rec_id.split("/", 1)
    return {"id": rec_id, "preset": preset_name, "benchmark": label,
            "label_seconds": {label: seconds}, "host_seconds": 0.5}


def shape_doc(per_preset):
    """Rows from preset -> {label: seconds}."""
    return [make_record(f"{preset_name}/{label}", seconds)
            for preset_name, labels in per_preset.items()
            for label, seconds in labels.items()]


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
        # no counterpart data
        assert shape_gate(shape_doc({"sw-dsm-4": {"PI": 1.0}})) == []

    def test_shape_violation_fails_compare(self, tmp_path, monkeypatch):
        """The checker gates the shape of the *fresh* figure rows: a
        simulator whose hybrid loses SOR fails the check even when the
        store was recorded from that same simulator."""
        bad = copy.deepcopy(GOOD_SHAPE)
        bad["hybrid-4"]["SOR"] = 3.0
        rows = {f"fig/{r['id']}": r for r in shape_doc(bad)}
        monkeypatch.setattr(
            diffcheck, "capture",
            lambda sc, scale=None, procs=None: copy.deepcopy(
                rows.get(sc.id, {"preset": sc.preset, "label_seconds": {}})))
        path = tmp_path / "golden_runs.json"
        record_goldens(path, only="-4/")
        problems = check_goldens(path, only="-4/")
        assert problems == [
            "paper shape: [fig3] hybrid DSM faster than SW-DSM on every "
            "benchmark: FAIL (hybrid loses: {'SOR': -50.0})"]


class TestShapeGateOnRealTelemetry:
    def test_smoke_subset_passes(self):
        """A real (tiny) two-platform run must clear the fig3 check."""
        doc = run_suite_telemetry("smoke", scale=0.04, only="4/PI")
        ids = {r["id"] for r in doc["records"]}
        assert ids == {"sw-dsm-4/PI", "hybrid-4/PI", "native-jiajia-4/PI"}
        checks = shape_gate(doc["records"])
        assert checks, "fig2+fig3 checks expected"
        assert all(c.passed for c in checks), [c.describe() for c in checks]


def semantic(record, drop=()):
    """What a telemetry record and a stored row share: everything but the
    host fields and the checker's trace digest."""
    return {k: v for k, v in canonical_record(record).items()
            if k not in ("digest", "trace_events", *drop)}


class TestCommittedBaselines:
    """Re-recording at an unchanged simulator is an empty diff, and
    ``bench run`` / ``bench scaling`` records are the store's rows: one
    record function builds both."""

    def test_smoke_suite_reproduces_its_baseline_byte_for_byte(self,
                                                                tmp_path):
        committed = GOLDEN_PATH.read_text()
        copy_path = tmp_path / "golden_runs.json"
        copy_path.write_text(committed)
        record_goldens(copy_path, only="fig/sw-dsm-2/PI")
        assert copy_path.read_text() == committed
        stored = json.loads(committed)["rows"]
        for rec in run_suite_telemetry("smoke", only="sw-dsm-2/PI")["records"]:
            assert semantic(rec) == semantic(stored[f"fig/{rec['id']}"])

    def test_scaling_curves_reproduce_their_baseline_up_to_64_nodes(self):
        from repro.bench.scaling import run_scaling_curves

        stored = json.loads(GOLDEN_PATH.read_text())["rows"]
        records = run_scaling_curves(max_nodes=64)["records"]
        assert len(records) == 4
        for rec in records:
            if f"scaling/{rec['id']}" in stored:
                assert semantic(rec) == semantic(stored[f"scaling/{rec['id']}"])
            else:  # the 4-node points are figure rows of another suite
                identity = ("suite", "fabric", "nodes")
                assert semantic(rec, identity) \
                    == semantic(stored[f"fig/{rec['id']}"], identity)
