"""Content-address properties of the experiment fabric's cache.

The contract under test: the cache key is a pure function of the cell's
*identity* — machine params, workload, fault plan, binding, code schema —
stable across processes, and it changes whenever any swept parameter
changes.
"""

import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import telemetry
from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError
from repro.fabric import (CACHE_SCHEMA, FIGURE_GRID, GridSpec, ResultCache,
                          Scenario, canonical_record, canonical_records_json,
                          run_sweep, scenario_key)
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
        dict(sharing=True),
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

    def test_grid_builds_one_machine_per_value(self):
        # a cell's address needs its machine's fingerprint; a grid has few
        # distinct machines, so each is built (and hashed) once
        assert preset("sw-dsm-4").params() is preset("sw-dsm-2").params()
        a = ClusterConfig(param_overrides={"eth_latency": 80e-6})
        b = ClusterConfig(platform="sci", dsm="scivm",
                          param_overrides={"eth_latency": 80e-6})
        assert a.params() is b.params()
        assert a.params() is not ClusterConfig().params()
        # the 42-cell figure grid: HAMSTER and native
        cells = FIGURE_GRID.expand()
        assert len(cells) == 42
        assert len({id(sc.build_config().params()) for sc in cells}) == 2

    def test_machine_value_is_spelled_exactly(self):
        # values equal under == but not under the fingerprint's repr are
        # distinct machines; unhashable and unknown overrides never raise
        # a bare TypeError (a list is no machine value: it is refused
        # by name)
        def machine(**overrides):
            return ClusterConfig(param_overrides=overrides).params()

        assert machine(page_size=4096) is not machine(page_size=4096.0)
        assert machine(eth_latency=0.0).fingerprint \
            != machine(eth_latency=-0.0).fingerprint
        assert machine(coalesce_messaging=False) \
            is ClusterConfig(integrated_messaging=False).params()
        with pytest.raises(ConfigurationError, match="page_size"):
            machine(page_size=[4096])
        with pytest.raises(ConfigurationError, match="no_such_field"):
            machine(no_such_field=1)

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
        assert len(cache) == 0 and cache.stats()["entries"] == 0
        assert cache.get(key) is None and cache.misses == 1
        cache.put(key, {"id": "x", "virtual_seconds": 1.0})
        assert key in cache and len(cache) == 1
        assert cache.get(key) == {"id": "x", "virtual_seconds": 1.0}
        assert cache.hits == 1 and cache.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        # every rejection is a miss, and the entry is quarantined
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        path = cache.path_for(key)
        cache.put(key, {"id": "x"})
        sealed = path.read_bytes()

        def entry(body, **header):
            head = {"schema": "repro.fabric.cache/3", "key": key,
                    "sha256": hashlib.sha256(body).hexdigest(), **header}
            return json.dumps(head).encode() + b"\n" + body + b"\n"

        for n, (data, reason) in enumerate([
                (b"{not json", "not valid JSON"),
                (sealed[:-3], "checksum mismatch"),      # truncated record
                (entry(b'{"id":"x"}', sha256=None), "missing sha256"),
                (entry(b'["x"]'), "non-object record"),
                (entry(b"{not json"), "not valid JSON")], 1):
            path.write_bytes(data)
            assert reason in cache.fsck()["corrupt"][0]["reason"]
            assert cache.get(key) is None and cache.quarantined == n

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        # a schema this code never wrote is damage, not age: quarantined
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        path = cache.path_for(key)
        for n, schema in enumerate(["repro.fabric.cache/0", 5], 1):
            cache.put(key, {"id": "x"})
            head, record = path.read_text(encoding="utf-8").splitlines()
            header = json.loads(head)
            header["schema"] = schema
            path.write_text(f"{json.dumps(header)}\n{record}\n",
                            encoding="utf-8")
            assert cache.get(key) is None and cache.quarantined == n

    def test_flipped_schema_byte_is_corrupt(self, tmp_path):
        # only schemas this code once wrote are stale; any other value is
        # damage, and fsck must say so and quarantine it. Older schemas were
        # only ever written in the one-object layout, so a one-line header
        # claiming one (a single flipped bit: '3' -> '2') is damage too.
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        path = cache.path_for(key)
        flips = [(b"fabric.cache/", b"fabric.cachf/"),
                 (b"fabric.cache/3", b"fabric.cache/2")]
        for n, (good, bad) in enumerate(flips, 1):
            cache.put(key, {"id": "x"})
            data = path.read_bytes()
            assert data.count(good) == 1
            path.write_bytes(data.replace(good, bad))
            report = cache.fsck()
            assert (report["ok"], report["stale"], len(report["corrupt"])) \
                == (0, 0, 1)
            assert cache.get(key) is None and cache.quarantined == n
        assert sorted(p.name for p in cache.quarantine_dir().iterdir()) \
            == [path.name, f"{path.name}.1"]

    def test_old_layout_entry_is_stale_not_corrupt(self, tmp_path):
        # what the /2 writer left behind: one indented object over many
        # lines, sealed over the re-serialised record
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        record = {"id": "x", "virtual_seconds": 1.0}
        seal = hashlib.sha256(json.dumps(
            record, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(
            {"schema": "repro.fabric.cache/2", "key": key, "sha256": seal,
             "record": record}, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        report = cache.fsck(repair=True)
        assert (report["ok"], report["stale"], report["corrupt"]) \
            == (0, 1, [])
        assert cache.get(key) is None and cache.misses == 1
        assert cache.quarantined == 0 and path.exists()

    def test_changed_record_value_is_quarantined(self, tmp_path):
        # the record stays valid JSON; only the seal can tell
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        cache.put(key, {"id": "x", "virtual_seconds": 1.0})
        path = cache.path_for(key)
        data = path.read_bytes()
        assert data.count(b"1.0") == 1
        path.write_bytes(data.replace(b"1.0", b"2.0"))
        assert cache.get(key) is None and cache.misses == 1
        assert cache.quarantined == 1 and not path.exists()
        assert (cache.quarantine_dir() / path.name).exists()

    def test_entry_under_wrong_key_is_quarantined(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        key = scenario_key(BASE)
        other = scenario_key(Scenario(preset="sw-dsm-4", label="PI",
                                      scale=0.05))
        cache.put(key, {"id": "x"})
        moved = cache.path_for(other)
        moved.parent.mkdir(parents=True, exist_ok=True)
        moved.write_bytes(cache.path_for(key).read_bytes())
        assert cache.get(other) is None and cache.quarantined == 1
        assert (cache.quarantine_dir() / moved.name).exists()
        assert cache.get(key) == {"id": "x"}

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


class TestHitIdentity:
    def test_hit_takes_the_requesting_grid_identity(self, tmp_path):
        # A record stored by one producer (a sweep's suite and cell id) is
        # renamed to the sweep that finds it, e.g. ``bench run``.
        store = ResultCache(str(tmp_path / "c"))
        store.put(scenario_key(BASE), {
            "id": "sw-dsm-2/PI@0.05", "suite": "sweep", "preset": "sw-dsm-2",
            "benchmark": "PI", "scale": 0.05, "native": False,
            "virtual_seconds": 1.0})
        spec = GridSpec(presets=("sw-dsm-2",), labels=("PI",),
                        scales=(0.05,), suite="smoke")
        [hit] = run_sweep(spec, cache=store).records
        assert hit["id"] == "sw-dsm-2/PI@0.05" and hit["suite"] == "smoke"
        assert hit["virtual_seconds"] == 1.0
        assert store.get(scenario_key(dataclasses.replace(BASE, scale=0.06))) \
            is None

    def test_sharing_is_addressed_apart_and_plain_keys_stand(self):
        # the sharing flag moves the address (TestScenarioKey), not the id
        assert dataclasses.replace(BASE, sharing=True).cell_id() \
            == BASE.cell_id()
        # the plain address never mentions sharing: caches written before
        # the rollup existed stay valid
        assert scenario_key(BASE) == stable_digest({
            "schema": [CACHE_SCHEMA, telemetry.SCHEMA],
            "machine": BASE.build_config().params().fingerprint,
            "config": BASE.build_config().to_text(),
            "workload": workload_hash("pi", BASE.workload()[1], 0.05),
            "faults": fault_plan_hash(None), "native": False})
