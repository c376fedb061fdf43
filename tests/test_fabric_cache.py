"""Content-address properties of the experiment fabric's cache.

The contract under test: the cache key is a pure function of the cell's
*identity* — machine params, workload, fault plan, binding, code schema —
stable across processes, and it changes whenever any swept parameter
changes.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fabric import (ResultCache, Scenario, TelemetryCache,
                          canonical_record, canonical_records_json,
                          scenario_key)
from repro.faults import FaultPlan
from repro.machine.params import (MachineParams, fault_plan_hash,
                                  stable_digest, workload_hash)

BASE = Scenario(preset="sw-dsm-2", label="PI", scale=0.05)


class TestIdentityHashes:
    def test_stable_digest_is_value_based(self):
        assert stable_digest({"b": 1, "a": 2}) == stable_digest({"a": 2, "b": 1})
        assert stable_digest([1, 2]) != stable_digest([2, 1])

    def test_workload_hash_ignores_param_order(self):
        a = workload_hash("sor", {"n": 64, "iterations": 2}, 0.05)
        b = workload_hash("sor", {"iterations": 2, "n": 64}, 0.05)
        assert a == b

    def test_workload_hash_changes_with_every_component(self):
        base = workload_hash("sor", {"n": 64}, 0.05)
        assert workload_hash("lu", {"n": 64}, 0.05) != base
        assert workload_hash("sor", {"n": 128}, 0.05) != base
        assert workload_hash("sor", {"n": 64}, 0.1) != base
        assert workload_hash("sor", {"n": 64}, 0.05, seed=1) != base

    def test_fault_plan_hash_spelling_independent(self):
        plan = FaultPlan.seeded(42)
        assert fault_plan_hash(plan) == fault_plan_hash(42)
        assert fault_plan_hash(plan) == fault_plan_hash(plan.to_dict())

    def test_fault_plan_hash_none_is_distinct(self):
        assert fault_plan_hash(None) != fault_plan_hash(0)
        assert fault_plan_hash(FaultPlan.seeded(1)) != fault_plan_hash(
            FaultPlan.seeded(2))

    def test_machine_fingerprint_covers_override_composition(self):
        base = MachineParams()
        assert base.fingerprint == MachineParams().fingerprint
        assert base.with_overrides(eth_latency=80e-6).fingerprint \
            != base.fingerprint


class TestScenarioKey:
    def test_equal_scenarios_share_a_key(self):
        assert scenario_key(BASE) == scenario_key(
            Scenario(preset="sw-dsm-2", label="PI", scale=0.05))

    @pytest.mark.parametrize("variant", [
        dict(preset="sw-dsm-4"),
        dict(label="SOR"),
        dict(scale=0.06),
        dict(native=True),
        dict(nodes=3),
        dict(overrides=(("eth_latency", 80e-6),)),
        dict(faults=FaultPlan.seeded(42).dumps()),
    ])
    def test_key_changes_when_any_swept_parameter_changes(self, variant):
        changed = Scenario.from_dict({**BASE.to_dict(), **{
            k: (dict(v) if k == "overrides" else v)
            for k, v in variant.items()}})
        assert scenario_key(changed) != scenario_key(BASE)

    def test_repeat_is_not_part_of_the_identity(self):
        # ...nor of a scenario at all: a cell description comes from
        # outside the program, and a ``repeat`` in it is an unknown key
        assert "repeat" not in BASE.to_dict()
        with pytest.raises(ConfigurationError, match="repeat"):
            Scenario.from_dict({**BASE.to_dict(), "repeat": 3})

    @settings(max_examples=20, deadline=None)
    @given(latency=st.floats(min_value=1e-6, max_value=1e-3,
                             allow_nan=False, allow_infinity=False),
           scale=st.floats(min_value=0.01, max_value=0.2,
                           allow_nan=False, allow_infinity=False))
    def test_key_tracks_override_and_scale_values(self, latency, scale):
        sc = Scenario.from_dict({**BASE.to_dict(), "scale": scale,
                                 "overrides": {"eth_latency": latency}})
        # the key is injective over these axes: recomputing gives the same
        # key, nudging either value gives a different one
        assert scenario_key(sc) == scenario_key(sc)
        nudged = Scenario.from_dict({**sc.to_dict(),
                                     "overrides": {"eth_latency": latency * 2}})
        assert scenario_key(nudged) != scenario_key(sc)

    def test_key_stable_across_processes(self):
        # hash randomization must not leak in: a fresh interpreter
        # computes the identical address
        code = ("import json,sys; from repro.fabric import Scenario, "
                "scenario_key; "
                "print(scenario_key(Scenario.from_dict(json.load(sys.stdin))))")
        out = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps(BASE.to_dict()),
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": "12345"})
        assert out.stdout.strip() == scenario_key(BASE)


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        assert cache.get(key) is None and cache.misses == 1
        cache.put(key, {"id": "x", "virtual_seconds": 1.0})
        assert key in cache and len(cache) == 1
        assert cache.get(key) == {"id": "x", "virtual_seconds": 1.0}
        assert cache.hits == 1 and cache.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        cache.put(key, {"id": "x"})
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        cache.put(key, {"id": "x"})
        entry = json.loads(cache.path_for(key).read_text(encoding="utf-8"))
        entry["schema"] = "repro.fabric.cache/0"
        cache.path_for(key).write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put(scenario_key(BASE), {"id": "x"})
        assert cache.clear() == 1
        assert len(cache) == 0


class TestCanonicalForm:
    def test_host_fields_stripped(self):
        record = {"id": "a", "virtual_seconds": 1.0, "host_seconds": 0.5,
                  "events_per_sec": 10.0, "events_executed": 5}
        canon = canonical_record(record)
        assert canon == {"id": "a", "virtual_seconds": 1.0,
                         "events_executed": 5}

    def test_canonical_json_is_order_stable(self):
        a = canonical_records_json([{"b": 1, "a": 2, "host_seconds": 9}])
        b = canonical_records_json([{"a": 2, "host_seconds": 3, "b": 1}])
        assert a == b


class TestTelemetryCacheAdapter:
    def test_lookup_rewrites_identity_to_requesting_context(self, tmp_path):
        store = ResultCache(str(tmp_path / "c"))
        adapter = TelemetryCache(store)
        record = {"id": "sw-dsm-2/PI@0.05", "suite": "sweep",
                  "preset": "sw-dsm-2", "benchmark": "PI", "scale": 0.05,
                  "native": False, "virtual_seconds": 1.0}
        adapter.store_record(record)
        hit = adapter.lookup("sw-dsm-2", "PI", 0.05, False, suite="smoke")
        assert hit["id"] == "sw-dsm-2/PI" and hit["suite"] == "smoke"
        assert hit["virtual_seconds"] == 1.0
        assert adapter.lookup("sw-dsm-2", "PI", 0.06, False, "smoke") is None
