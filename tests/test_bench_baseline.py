"""Tests for the golden store's checker (``repro.bench.diffcheck``): its
verdicts, the paper-shape gate it runs, and the committed store.

The store is the one record of what was simulated; ``--check`` judges
every semantic field bit-exactly and names the row and the field of each
problem, host fields never draw a verdict, and ``--record`` is the one
re-record command.
"""

import copy
import json
from dataclasses import replace

import pytest

from repro.bench import diffcheck
from repro.bench.diffcheck import (GOLDEN_PATH, check_goldens, diff_records,
                                   record_goldens)
from repro.bench.runners import (BENCH_LABELS, CLAIMS, EXCEPTED, FAILED,
                                  HELD, SCALES, STALE, UNDECIDED, shape_gate)
from repro.bench.telemetry import HOST_FIELDS, canonical_record
from repro.fabric import SUITES, run_sweep

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
                            lambda sc, scale=None: copy.deepcopy(fresh))

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


def make_record(rec_id, seconds, scale=1.0):
    """A figure row reduced to what the shape gate reads, plus a host
    field it must ignore."""
    preset_name, label = rec_id.split("/", 1)
    return {"id": rec_id, "preset": preset_name, "benchmark": label,
            "scale": scale, "label_seconds": {label: seconds},
            "host_seconds": 0.5}


def shape_doc(per_preset, scale=1.0):
    """Rows from preset -> {label: seconds}; measured inputs (a perturbed
    preset, a placement run) have no row."""
    return [make_record(f"{preset_name}/{label}", seconds, scale)
            for preset_name, labels in per_preset.items()
            if " " not in preset_name
            for label, seconds in labels.items()]


def good_inputs():
    """Every input of the claims table, shaped so that every claim holds:
    HAMSTER within 1 % of native either way (Fig 2); the hybrid 4x faster
    than the SW-DSM, 10x on SOR (Fig 3); on two nodes the SMP fastest but
    for MatMult, which the hybrid wins (Fig 4); block homes fastest and the
    hybrid least placement-sensitive (the locality ablation)."""
    sw4 = dict.fromkeys(BENCH_LABELS, 2.0)
    hy2 = {**dict.fromkeys(BENCH_LABELS, 1.2), "MatMult": 0.9}
    inputs = {
        "sw-dsm-4": sw4,
        "native-jiajia-4": {label: 2.0 * (1.01 if i % 2 else 0.99)
                            for i, label in enumerate(BENCH_LABELS)},
        "hybrid-4": {**dict.fromkeys(BENCH_LABELS, 0.5), "SOR": 0.2},
        "smp-2": dict.fromkeys(BENCH_LABELS, 1.0),
        "hybrid-2": hy2,
        "sw-dsm-2": {**dict.fromkeys(BENCH_LABELS, 3.0), "MatMult": 1.5},
        "sw-dsm-4 homes": {"block": {"seconds": 1.0, "diffs": 10},
                           "cyclic": {"seconds": 2.0, "diffs": 40},
                           "single-home": {"seconds": 3.0, "diffs": 30}},
        "hybrid-4 homes": {"block": {"seconds": 1.0, "diffs": 0},
                           "cyclic": {"seconds": 1.1, "diffs": 0},
                           "single-home": {"seconds": 1.2, "diffs": 0}},
    }
    for f in (0.5, 2.0):
        inputs[f"sw-dsm-4 eth x{f}"] = dict(sw4)
        inputs[f"hybrid-2 sci x{f}"] = dict(hy2)
    return inputs


#: claim key -> the (input, label, value) edits that invert its ordering
#: and no other claim's.
INVERSIONS = {
    "fig2-band": [("native-jiajia-4", "MatMult", 1.6)],
    "fig2-signs": [("native-jiajia-4", label, 1.98) for label in BENCH_LABELS],
    "fig3-hybrid-wins": [("sw-dsm-4", "PI", 0.4),
                         ("native-jiajia-4", "PI", 0.4)],
    "fig3-sor-locality": [("sw-dsm-4", "SOR opt", 10.0),
                          ("native-jiajia-4", "SOR opt", 10.0)],
    "fig3-lu-init": [("hybrid-4", "LU all", 1.0)],
    "fig3-barrier": [("hybrid-4", "LU bar", 1.5)],
    "fig4-matmult-hybrid": [("hybrid-2", "MatMult", 1.1)],
    "fig4-matmult-best": [("sw-dsm-2", "MatMult", 4.0)],
    "fig4-smp-wins": [(name, label, seconds)
                      for label in ("PI", "LU", "LU core", "LU bar")
                      for name, seconds in (("sw-dsm-2", 0.98),
                                            ("hybrid-2", 0.96))],
    "fig4-sw-near-smp": [("sw-dsm-2", "PI", 0.9), ("hybrid-2", "PI", 0.85)],
    "fig4-sw-vs-hybrid": [("hybrid-2", "WATER 288", 3.5)],
    "homes-block-fastest": [("sw-dsm-4 homes", "block",
                             {"seconds": 2.5, "diffs": 10})],
    "homes-block-diffs": [("sw-dsm-4 homes", "block",
                           {"seconds": 1.0, "diffs": 50})],
    "homes-sensitivity": [("hybrid-4 homes", "single-home",
                           {"seconds": 5.0, "diffs": 0})],
    **{key: edits for f in (0.5, 2.0) for key, edits in (
        (f"eth{f}-hybrid-wins", [(f"sw-dsm-4 eth x{f}", "PI", 0.4)]),
        (f"eth{f}-sor-locality", [(f"sw-dsm-4 eth x{f}", "SOR opt", 10.0)]),
        (f"sci{f}-matmult-hybrid", [(f"hybrid-2 sci x{f}", "MatMult", 1.1)]),
        (f"sci{f}-smp-wins-pi", [(f"hybrid-2 sci x{f}", "PI", 0.5)]))},
}


def inverted(key):
    inputs = good_inputs()
    for name, label, value in INVERSIONS[key]:
        inputs[name][label] = value
    return inputs


def judge(inputs, scale=1.0):
    """claim key -> its check."""
    return {claim.key: claim.evaluate(inputs, scale) for claim in CLAIMS}


class TestClaimsTable:
    def test_good_inputs_hold_every_claim(self):
        checks = judge(good_inputs())
        assert all(c.status == HELD for c in checks.values()), \
            [c.describe() for c in checks.values() if c.status != HELD]

    def test_every_claim_has_an_inversion(self):
        assert sorted(INVERSIONS) == sorted(claim.key for claim in CLAIMS)

    @pytest.mark.parametrize("key", sorted(INVERSIONS))
    def test_inverted_ordering_fails_exactly_its_claim(self, key):
        checks = judge(inverted(key))
        assert [k for k, c in checks.items() if c.failed] == [key]
        assert checks[key].status == FAILED

    @pytest.mark.parametrize("key", sorted(INVERSIONS))
    def test_recorded_rows_judge_as_the_inputs_do(self, key):
        """The gate over rows is the table's evaluator: on every preset
        input it reaches the evaluator's verdict, and a claim on a
        measured input (no row) is undecided."""
        inputs = inverted(key)
        gate = shape_gate(shape_doc(inputs))
        for claim, check in zip(CLAIMS, gate):
            if all(" " not in name for name in claim.inputs):
                assert check == claim.evaluate(inputs, 1.0)
            else:
                assert check.status == UNDECIDED and not check.passed

    def test_no_exception_at_paper_scale(self):
        assert sum(len(claim.exceptions) for claim in CLAIMS) == 5
        assert all(known.scale in SCALES and known.scale != 1.0
                   for claim in CLAIMS for known in claim.exceptions)

    @pytest.mark.parametrize("claim", [c for c in CLAIMS if c.exceptions],
                             ids=lambda claim: claim.key)
    def test_exceptions_are_strict(self, claim):
        """At an excepted scale the inverted ordering is excepted, and an
        ordering that holds is reported stale, a failure."""
        scale = claim.exceptions[0].scale
        check = claim.evaluate(inverted(claim.key), scale)
        assert check.status == EXCEPTED and check.passed
        check = claim.evaluate(good_inputs(), scale)
        assert check.status == STALE and check.failed
        assert "excepted at" in check.detail

    def test_unstated_scale_is_undecided(self):
        checks = shape_gate(shape_doc(good_inputs(), scale=0.04))
        assert {c.status for c in checks} == {UNDECIDED}
        assert not any(c.passed or c.failed for c in checks)

    def test_shape_violation_fails_compare(self, tmp_path, monkeypatch):
        """The checker gates the shape of the *fresh* figure rows: a
        simulator whose hybrid loses PI fails the check even when the
        store was recorded from that same simulator."""
        rows = {f"fig/{r['id']}": r
                for r in shape_doc(inverted("fig3-hybrid-wins"))}
        monkeypatch.setattr(
            diffcheck, "capture",
            lambda sc, scale=None: copy.deepcopy(
                rows.get(sc.id, {"preset": sc.preset, "label_seconds": {}})))
        path = tmp_path / "golden_runs.json"
        record_goldens(path, only="-4/")
        problems = check_goldens(path, only="-4/")
        assert problems == [
            "paper shape: [fig3] the hybrid DSM is faster than the SW-DSM "
            "on every benchmark: failed (offenders {'PI': -25.0})"]


class TestClaimsOverTheStore:
    @pytest.fixture(scope="class")
    def figure_rows(self):
        return [row for sid, row in diffcheck.load_goldens()["rows"].items()
                if sid.startswith("fig/")]

    def test_subset_leaves_claims_undecided_never_passed(self, figure_rows):
        checks = dict(zip((c.key for c in CLAIMS), shape_gate(
            row for row in figure_rows if row["benchmark"] == "PI")))
        for key in ("fig2-signs", "fig3-sor-locality", "fig3-barrier",
                    "fig4-matmult-hybrid", "fig4-smp-wins",
                    "homes-sensitivity", "eth0.5-hybrid-wins"):
            assert checks[key].status == UNDECIDED, checks[key].describe()
        assert not any(c.failed for c in checks.values())
        assert all(c.passed for c in checks.values()
                   if c.status != UNDECIDED)

    def test_smoke_subset_passes(self):
        """A real (tiny) two-platform run must clear the fig3 check."""
        records = run_sweep(replace(SUITES["smoke"], only="4/PI")).records
        ids = {r["id"] for r in records}
        assert ids == {"sw-dsm-4/PI@0.05", "hybrid-4/PI@0.05",
                       "native-jiajia-4/PI@0.05"}
        checks = [c for c in shape_gate(records)
                  if c.status != UNDECIDED]
        assert checks, "fig2+fig3 checks expected"
        assert all(c.passed for c in checks), [c.describe() for c in checks]


#: Fields only a golden row has: the checker's trace digest.
GOLDEN_ONLY = ("digest", "trace_events")


def row_for(record, stored, kind):
    """The golden row a sweep record reproduces, checked field by field.

    A sweep names its record by cell id, ``<preset>/<label>@<scale>``; the
    row holds the same record under ``<preset>/<label>``, without host
    fields, plus the trace digest. Those are the only differences: no
    other field may be missing on either side or differ."""
    name = f"{record['preset']}/{record['benchmark']}"
    assert record["id"] == f"{name}@{record['scale']:g}"
    row = stored[f"{kind}/{name}"]
    assert row["id"] == name
    got = {k: v for k, v in canonical_record(record).items() if k != "id"}
    want = {k: v for k, v in row.items()
            if k != "id" and k not in GOLDEN_ONLY}
    assert got == want
    return row


class TestCommittedBaselines:
    """Re-recording at an unchanged simulator is an empty diff, and
    ``bench run`` / ``bench scaling`` records are the store's rows under
    their cell ids: one record function builds both."""

    def test_smoke_suite_reproduces_its_baseline_byte_for_byte(self,
                                                                tmp_path):
        committed = GOLDEN_PATH.read_text()
        copy_path = tmp_path / "golden_runs.json"
        copy_path.write_text(committed)
        record_goldens(copy_path, only="fig/sw-dsm-2/PI")
        assert copy_path.read_text() == committed
        stored = json.loads(committed)["rows"]
        spec = replace(SUITES["smoke"], only="sw-dsm-2/PI")
        [rec] = run_sweep(spec).records
        row_for(rec, stored, "fig")

    def test_scaling_curves_reproduce_their_baseline_up_to_64_nodes(self):
        from repro.bench.scaling import run_scaling_curves

        stored = json.loads(GOLDEN_PATH.read_text())["rows"]
        records = run_scaling_curves(max_nodes=64).records
        assert len(records) == 4
        for rec in records:
            if rec["nodes"] > 4:
                row_for(rec, stored, "scaling")
            else:  # the 4-node points are figure rows of another suite
                curve = {k: rec.pop(k) for k in ("fabric", "nodes")}
                fabric = "eth" if rec["preset"] == "sw-dsm-4" else "sci"
                assert curve == {"fabric": fabric, "nodes": 4}
                rec["suite"] = "smoke"
                row_for(rec, stored, "fig")