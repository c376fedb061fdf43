"""Tests for the benchmark telemetry records (repro.bench.telemetry)."""

import copy
import json

import pytest

from repro.bench.telemetry import (SCHEMA, SUITES, config_fingerprint,
                                   load_telemetry, run_suite_telemetry,
                                   run_unit, telemetry_to_json,
                                   validate_telemetry)
from repro.config import preset
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def unit_record():
    """One real record, shared across tests (a ~0.05 s run)."""
    return run_unit("sw-dsm-2", "PI", scale=0.02, suite="test")


class TestRunUnit:
    def test_identity_fields(self, unit_record):
        rec = unit_record
        assert rec["id"] == "sw-dsm-2/PI"
        assert rec["app"] == "pi"
        assert rec["preset"] == "sw-dsm-2"
        assert rec["suite"] == "test"
        assert rec["native"] is False
        assert rec["verified"] is True

    def test_virtual_and_host_metrics(self, unit_record):
        rec = unit_record
        assert rec["virtual_seconds"] > 0
        assert rec["phases"]["total"] == rec["virtual_seconds"]
        assert rec["events_executed"] > 0
        assert rec["host_seconds"] > 0
        assert rec["events_per_sec"] == pytest.approx(
            rec["events_executed"] / rec["host_seconds"])

    def test_critical_path_breakdown_attached(self, unit_record):
        cp = unit_record["critical_path"]
        assert set(cp) == {"compute", "protocol", "wire", "blocked"}
        assert all(v >= 0 for v in cp.values())
        assert cp["compute"] > 0
        # The categories partition each rank's full engine lifetime, which
        # covers (at least) the app's timed region on both ranks.
        assert sum(cp.values()) >= 2 * unit_record["virtual_seconds"]

    def test_virtual_time_deterministic_across_repeats(self):
        a = run_unit("sw-dsm-2", "PI", scale=0.02)
        b = run_unit("sw-dsm-2", "PI", scale=0.02)
        assert a["virtual_seconds"] == b["virtual_seconds"]
        assert a["events_executed"] == b["events_executed"]
        assert a["fingerprint"] == b["fingerprint"]

    def test_lu_execution_covers_split_labels(self):
        rec = run_unit("sw-dsm-2", "LU all", scale=0.05)
        assert set(rec["label_seconds"]) == {"LU all", "LU", "LU core",
                                             "LU bar"}
        assert rec["label_seconds"]["LU all"] == rec["virtual_seconds"]
        assert rec["label_seconds"]["LU core"] <= rec["virtual_seconds"]

    def test_bad_repeat_rejected(self):
        # One run per record: min-of-N went with the host verdicts it
        # served, and any ``repeat`` is refused rather than ignored.
        with pytest.raises(TypeError):
            run_unit("sw-dsm-2", "PI", scale=0.02, repeat=2)


class TestFingerprint:
    def test_stable_for_same_inputs(self):
        a = config_fingerprint(preset("sw-dsm-2"), "pi",
                               {"intervals": 4096}, 0.05, False)
        b = config_fingerprint(preset("sw-dsm-2"), "pi",
                               {"intervals": 4096}, 0.05, False)
        assert a == b and len(a) == 64

    @pytest.mark.parametrize("kwargs", [
        {"app": "sor"},
        {"params": {"intervals": 8192}},
        {"scale": 0.1},
        {"native": True},
    ])
    def test_sensitive_to_every_input(self, kwargs):
        base = dict(app="pi", params={"intervals": 4096}, scale=0.05,
                    native=False)
        a = config_fingerprint(preset("sw-dsm-2"), **base)
        b = config_fingerprint(preset("sw-dsm-2"), **dict(base, **kwargs))
        assert a != b

    def test_sensitive_to_platform(self):
        args = ("pi", {"intervals": 4096}, 0.05, False)
        assert config_fingerprint(preset("sw-dsm-2"), *args) \
            != config_fingerprint(preset("hybrid-2"), *args)


class TestSuiteRunner:
    def test_filtered_suite_round_trips(self, tmp_path):
        doc = run_suite_telemetry("smoke", only="sw-dsm-2/PI")
        assert doc["schema"] == SCHEMA
        assert [r["id"] for r in doc["records"]] == ["sw-dsm-2/PI"]
        assert validate_telemetry(doc) == []
        path = tmp_path / "BENCH_smoke.json"
        path.write_text(telemetry_to_json(doc))
        loaded = load_telemetry(str(path))
        assert loaded == json.loads(telemetry_to_json(doc))

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            run_suite_telemetry("nope")

    def test_suite_specs_consistent(self):
        for spec in SUITES.values():
            assert spec.scale > 0
            assert len(spec.unit_ids()) == len(set(spec.unit_ids()))


class TestSchemaValidator:
    @pytest.fixture()
    def valid_doc(self, unit_record):
        return {"schema": SCHEMA, "suite": "test", "scale": 0.02,
                "host": {},
                "records": [copy.deepcopy(unit_record)]}

    def test_accepts_valid(self, valid_doc):
        assert validate_telemetry(valid_doc) == []

    def test_rejects_non_object(self):
        assert validate_telemetry([1, 2]) != []

    def test_rejects_wrong_schema(self, valid_doc):
        valid_doc["schema"] = "something/9"
        assert any("schema" in e for e in validate_telemetry(valid_doc))

    def test_rejects_empty_records(self, valid_doc):
        valid_doc["records"] = []
        assert any("records" in e for e in validate_telemetry(valid_doc))

    def test_rejects_missing_field(self, valid_doc):
        del valid_doc["records"][0]["virtual_seconds"]
        assert any("virtual_seconds" in e
                   for e in validate_telemetry(valid_doc))

    def test_rejects_wrong_type(self, valid_doc):
        valid_doc["records"][0]["events_executed"] = "many"
        assert any("events_executed" in e
                   for e in validate_telemetry(valid_doc))

    def test_rejects_duplicate_ids(self, valid_doc):
        valid_doc["records"].append(copy.deepcopy(valid_doc["records"][0]))
        assert any("duplicate" in e for e in validate_telemetry(valid_doc))

    def test_rejects_bad_fingerprint(self, valid_doc):
        valid_doc["records"][0]["fingerprint"] = "xyz"
        assert any("fingerprint" in e for e in validate_telemetry(valid_doc))

    def test_rejects_unknown_critical_path_category(self, valid_doc):
        valid_doc["records"][0]["critical_path"]["gpu"] = 1.0
        assert any("critical_path" in e
                   for e in validate_telemetry(valid_doc))

    def test_rejects_negative_virtual_time(self, valid_doc):
        valid_doc["records"][0]["virtual_seconds"] = -1.0
        assert any("negative" in e for e in validate_telemetry(valid_doc))

    def test_load_rejects_invalid_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        with pytest.raises(ValueError):
            load_telemetry(str(bad))


class TestEngineCounters:
    def test_events_and_host_time_exposed(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            env.barrier()
            return env.rank

        from tests.conftest import spmd

        spmd(plat, main)
        assert plat.engine.events_executed > 0
        assert plat.engine.host_seconds > 0
        assert plat.engine.events_per_second() == pytest.approx(
            plat.engine.events_executed / plat.engine.host_seconds)

    def test_counters_zero_before_run(self):
        from repro.sim.engine import Engine

        engine = Engine()
        assert engine.events_executed == 0
        assert engine.host_seconds == 0.0
        assert engine.events_per_second() == 0.0
