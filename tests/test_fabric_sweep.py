"""End-to-end behaviour of the experiment fabric.

Covers the sweep contract: deterministic grid expansion, serial/parallel
byte-parity over canonical records, zero-simulation reruns from the
content-addressed cache, crash-once recovery, per-cell timeouts, typed
chaos failures, and the serial ``bench run`` path sharing the same cache.
"""

import multiprocessing
import os
import struct
import time

import pytest

from repro.bench.telemetry import run_suite_telemetry, validate_telemetry
from repro.errors import ConfigurationError
from repro.fabric import (GridSpec, ResultCache, Scenario, TelemetryCache,
                          canonical_records_json, execute_cell, faultpoints,
                          run_sweep, scenario_key)

SMALL = GridSpec(presets=("smp-2", "sw-dsm-2"), labels=("PI", "MatMult"),
                 scales=(0.04,))


#: for tests that substitute ``scheduler.worker_main`` in this process and
#: rely on forked workers inheriting the substitute
patches_workers_by_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched worker_main reaches workers by fork")


def small_cache(tmp_path, name="cache"):
    return ResultCache(str(tmp_path / name))


class TestGridSpec:
    def test_expand_is_the_deterministic_cross_product(self):
        cells = SMALL.expand()
        assert [c.cell_id() for c in cells] == [
            "smp-2/PI@0.04", "smp-2/MatMult@0.04",
            "sw-dsm-2/PI@0.04", "sw-dsm-2/MatMult@0.04"]
        assert cells == SMALL.expand()

    def test_native_autodetects_native_presets(self):
        spec = GridSpec(presets=("native-jiajia-4", "sw-dsm-4"),
                        labels=("PI",))
        natives = [c.native for c in spec.expand()]
        assert natives == [True, False]

    def test_roundtrip_through_json(self):
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,),
                        overrides=({"eth_latency": 80e-6},), faults=(7,),
                        timeout=2.0)
        again = GridSpec.loads(spec.dumps())
        assert [c.cell_id() for c in again.expand()] == \
            [c.cell_id() for c in spec.expand()]

    @pytest.mark.parametrize("bad", [
        {"labels": ["PI"]},                                   # no presets
        {"presets": ["smp-2"]},                               # no labels
        {"presets": ["nope"], "labels": ["PI"]},              # unknown preset
        {"presets": ["smp-2"], "labels": ["nope"]},           # unknown label
        {"presets": ["smp-2"], "labels": ["PI"], "scales": [0]},
        {"presets": ["smp-2"], "labels": ["PI"], "native": [True, False]},
        {"presets": ["smp-2"], "labels": ["PI"], "timeout": -1},
        {"presets": ["smp-2"], "labels": ["PI"], "bogus": 1},  # unknown key
        {"presets": ["smp-2"], "labels": ["PI"], "repeat": 2},  # gone: PR 23
    ])
    def test_invalid_specs_are_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            GridSpec.from_dict(bad)


class TestSweepSerial:
    def test_cold_run_then_all_hits(self, tmp_path):
        cache = small_cache(tmp_path)
        first = run_sweep(SMALL, cache=cache)
        counts = first.manifest.counts()
        assert counts == {"hit": 0, "miss": 4, "failed": 0, "pending": 0}
        assert validate_telemetry(first.doc) == []

        second = run_sweep(SMALL, cache=cache)
        assert second.manifest.counts() == {"hit": 4, "miss": 0, "failed": 0, "pending": 0}
        assert second.manifest.all_cached()
        assert second.manifest.simulated_events() == 0
        # cached rerun reproduces the document byte-for-byte (canonically)
        assert canonical_records_json(second.records) == \
            canonical_records_json(first.records)

    def test_duplicate_cells_execute_once(self, tmp_path):
        spec = GridSpec(presets=("smp-2", "smp-2"), labels=("PI",),
                        scales=(0.04,), native=(False, False))
        result = run_sweep(spec, cache=small_cache(tmp_path))
        outcomes = [c.outcome for c in result.manifest.cells]
        assert sorted(outcomes) == ["hit", "miss"]
        assert len(result.records) == 1      # one execution, one record

    def test_failed_cell_never_aborts_the_sweep(self, tmp_path):
        # a permanently-crashed node raises inside the cell; the sweep
        # records the typed failure and completes the healthy cells
        spec = GridSpec(presets=("sw-dsm-2",), labels=("PI", "MatMult"),
                        scales=(0.04,),
                        faults=(None,
                                {"seed": 3,
                                 "crashes": [{"node": 1, "at": 0.0}]}))
        result = run_sweep(spec, cache=small_cache(tmp_path))
        counts = result.manifest.counts()
        assert counts["failed"] >= 1
        assert counts["miss"] >= 1
        for cell in result.manifest.failed_cells():
            assert cell.error.startswith("error: ")


class TestSweepParallel:
    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = run_sweep(SMALL, workers=1, cache=small_cache(tmp_path, "a"))
        par = run_sweep(SMALL, workers=2, cache=small_cache(tmp_path, "b"))
        assert par.manifest.counts() == serial.manifest.counts()
        assert canonical_records_json(par.records) == \
            canonical_records_json(serial.records)

    def test_parallel_records_keep_grid_order(self, tmp_path):
        result = run_sweep(SMALL, workers=2, cache=small_cache(tmp_path))
        assert [r["id"] for r in result.records] == \
            [c.cell_id() for c in SMALL.expand()]

    def test_crashed_worker_job_is_retried_once(self, tmp_path, monkeypatch):
        flag = tmp_path / "crash-once"
        for name, spec in faultpoints.crash_env(
                faultpoints.WORKER_CELL_START, str(flag)).items():
            monkeypatch.setenv(name, spec)
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           stall_grace=0.5)
        assert flag.exists()                 # the crash really happened
        cell = result.manifest.cells[0]
        assert cell.outcome == "miss"
        assert cell.attempts == 2            # died once, retried, succeeded
        assert validate_telemetry(result.doc) == []

    @patches_workers_by_fork
    def test_worker_dying_mid_send_mutes_nobody(self, tmp_path, monkeypatch):
        """A worker that dies while reporting loses its own job to a retry
        and nothing else. Results used to share one multiprocessing.Queue:
        a worker that crashed or was timeout-killed while its feeder thread
        held the queue's cross-process write lock left every other worker
        (the respawned one too) unable to report, so the lost-job sweep
        charged a second attempt and a one-crash cell ended ``failed``."""
        import repro.fabric.scheduler as scheduler

        flag = tmp_path / "died-once"
        real_main = scheduler.worker_main

        class DiesOnceMidSend:
            def __init__(self, conn):
                self.conn = conn

            def send(self, message):
                if message[0] == "start":
                    try:
                        flag.touch(exist_ok=False)   # atomic: one death
                    except FileExistsError:
                        return self.conn.send(message)
                    # a header promising 1000 bytes, three of them, death
                    os.write(self.conn.fileno(),
                             struct.pack("!i", 1000) + b"abc")
                    os._exit(1)
                self.conn.send(message)

        monkeypatch.setattr(
            scheduler, "worker_main",
            lambda job_q, results, *rest: real_main(
                job_q, DiesOnceMidSend(results), *rest))
        spec = GridSpec(presets=("smp-2", "sw-dsm-2"), labels=("PI",),
                        scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           stall_grace=0.5)
        assert flag.exists()                 # the death really happened
        cells = result.manifest.cells
        assert [c.outcome for c in cells] == ["miss", "miss"]
        assert sorted(c.attempts for c in cells) == [1, 2]
        assert validate_telemetry(result.doc) == []

    @patches_workers_by_fork
    def test_slow_starting_worker_is_not_a_lost_job(self, tmp_path,
                                                    monkeypatch):
        """A job still on the job queue when the stall grace runs out is
        waiting, not lost: it must not be charged an attempt."""
        import repro.fabric.scheduler as scheduler

        real_main = scheduler.worker_main

        def sluggish(*args):
            time.sleep(0.6)                  # three stall graces
            real_main(*args)

        monkeypatch.setattr(scheduler, "worker_main", sluggish)
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           stall_grace=0.2)
        cell = result.manifest.cells[0]
        assert cell.outcome == "miss"
        assert cell.attempts == 1

    def test_timeout_becomes_a_typed_failed_cell(self, tmp_path):
        # A cell no plausible host finishes inside the timeout (~1M events,
        # 40x the MatMult@0.5 cell this used to race against) and whose
        # events start flowing, heartbeats with them, within milliseconds.
        spec = GridSpec(presets=("sw-dsm-4",), labels=("SOR",),
                        scales=(2.0,), timeout=0.3)
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           stall_grace=0.5)
        cell = result.manifest.cells[0]
        assert cell.outcome == "failed"
        assert cell.error.startswith("timeout: ")
        assert cell.attempts == 2            # retried once before giving up
        assert result.doc is None            # nothing succeeded

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="speedup needs >= 4 host cores")
    def test_parallel_sweep_is_faster(self, tmp_path):  # pragma: no cover
        spec = GridSpec(presets=("smp-2", "sw-dsm-2", "hybrid-2", "sw-dsm-4"),
                        labels=("MatMult",), scales=(0.15,))
        t0 = time.monotonic()
        run_sweep(spec, workers=1, cache=small_cache(tmp_path, "s"))
        serial = time.monotonic() - t0
        t0 = time.monotonic()
        run_sweep(spec, workers=4, cache=small_cache(tmp_path, "p"))
        parallel = time.monotonic() - t0
        assert parallel < serial / 1.5


class TestCacheSharing:
    def test_serial_bench_run_hits_sweep_results(self, tmp_path):
        store = small_cache(tmp_path)
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.05,))
        run_sweep(spec, cache=store)
        assert store.stores == 1

        doc = run_suite_telemetry("smoke", only="smp-2/PI",
                                  cache=TelemetryCache(store))
        assert store.hits >= 1
        [record] = doc["records"]
        assert record["id"] == "smp-2/PI" and record["suite"] == "smoke"

    def test_sweep_hits_serial_bench_results(self, tmp_path):
        store = small_cache(tmp_path)
        run_suite_telemetry("smoke", only="smp-2/PI",
                            cache=TelemetryCache(store))
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.05,))
        result = run_sweep(spec, cache=store)
        assert result.manifest.counts() == {"hit": 1, "miss": 0, "failed": 0, "pending": 0}

    def test_execute_cell_matches_cached_identity(self, tmp_path):
        sc = Scenario(preset="smp-2", label="PI", scale=0.04)
        record = execute_cell(sc)
        assert record["id"] == sc.cell_id()
        store = small_cache(tmp_path)
        store.put(scenario_key(sc), record)
        hit = run_sweep(GridSpec(presets=("smp-2",), labels=("PI",),
                                 scales=(0.04,)), cache=store)
        assert hit.manifest.all_cached()


class TestExperimentsFabric:
    def test_collect_times_parity_serial_vs_fabric(self, tmp_path):
        from repro.bench.experiments import collect_times

        serial = collect_times(0.03)
        fabric = collect_times(0.03, workers=1,
                               cache_dir=str(tmp_path / "cache"))
        assert fabric == serial
        # and the cached rerun still agrees
        assert collect_times(0.03, workers=1,
                             cache_dir=str(tmp_path / "cache")) == serial


def test_fork_start_method_available():
    # the scheduler relies on the platform default context; document it
    assert multiprocessing.get_start_method(allow_none=False) in (
        "fork", "spawn", "forkserver")
