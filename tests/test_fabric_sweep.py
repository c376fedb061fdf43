"""End-to-end behaviour of the experiment fabric.

Covers the sweep contract: deterministic grid expansion, serial/parallel
byte-parity over canonical records, zero-simulation reruns from the
content-addressed cache, crash-once recovery, per-cell timeouts, typed
chaos failures, and the serial ``bench run`` path sharing the same cache.
"""

import json
import multiprocessing
import multiprocessing.connection
import os
import struct
import time
import types

import pytest

from repro.bench.telemetry import validate_telemetry
from repro.cli import main
from repro.errors import ConfigurationError
from repro.fabric import (GridSpec, ResultCache, Scenario,
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

    def test_no_cache_persists_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        for _ in range(2):
            result = run_sweep(spec)
            assert result.manifest.counts()["miss"] == 1
            assert result.manifest.cache is None
        assert list(tmp_path.iterdir()) == []

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
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path))
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
        (the respawned one too) unable to report, so a one-crash cell was
        charged a second attempt and ended ``failed``."""
        import repro.fabric.scheduler as scheduler

        flag = tmp_path / "died-once"
        real_main = scheduler.worker_main

        class DiesOnceMidSend:
            def __init__(self, conn):
                self.conn = conn

            def __getattr__(self, name):
                return getattr(self.conn, name)

            def send(self, message):
                if message[0] == "done":
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
            lambda conn, *rest: real_main(DiesOnceMidSend(conn), *rest))
        spec = GridSpec(presets=("smp-2", "sw-dsm-2"), labels=("PI",),
                        scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path))
        assert flag.exists()                 # the death really happened
        cells = result.manifest.cells
        assert [c.outcome for c in cells] == ["miss", "miss"]
        assert sorted(c.attempts for c in cells) == [1, 2]
        assert validate_telemetry(result.doc) == []

    @patches_workers_by_fork
    def test_slow_starting_worker_is_not_a_lost_job(self, tmp_path,
                                                    monkeypatch):
        """A worker slow to take its first job costs that job nothing: the
        job waits in the worker's pipe, however long the scheduler polls.

        A handshake, not a sleep, orders the two sides: the worker is held
        until the orchestrator has polled its pipes three times, then
        released while the orchestrator blocks on its next poll."""
        import repro.fabric.scheduler as scheduler

        release = multiprocessing.Event()
        real_main = scheduler.worker_main
        real_wait = multiprocessing.connection.wait
        polls = []

        def held(*args):
            release.wait()
            real_main(*args)

        def poll(conns, timeout):
            polls.append(timeout)
            if len(polls) > 3 and not release.is_set():
                release.set()
                timeout = 60.0           # until the worker reports
            return real_wait(conns, timeout)

        monkeypatch.setattr(scheduler, "worker_main", held)
        monkeypatch.setattr(scheduler, "multiprocessing",
                            types.SimpleNamespace(
                                get_context=multiprocessing.get_context,
                                connection=types.SimpleNamespace(wait=poll)))
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path))
        cell = result.manifest.cells[0]
        assert cell.outcome == "miss"
        assert cell.attempts == 1
        assert release.is_set()

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
    def bench_run(self, tmp_path, *extra):
        out = tmp_path / "bench.json"
        assert main(["bench", "run", "--only", "smp-2/PI", "--cache",
                     str(tmp_path / "cache"), "--json-out", str(out),
                     *extra]) == 0
        return json.loads(out.read_text())["records"]

    def test_serial_bench_run_hits_sweep_results(self, tmp_path, capsys):
        store = small_cache(tmp_path)
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.05,))
        run_sweep(spec, cache=store)
        assert store.stores == 1

        [record] = self.bench_run(tmp_path)
        out = capsys.readouterr().out
        assert "[bench] smp-2/PI@0.05: hit" in out
        assert "cache    : 1 hit(s), 0 miss(es)" in out
        assert record["id"] == "smp-2/PI@0.05" and record["suite"] == "smoke"

    def test_sweep_hits_serial_bench_results(self, tmp_path):
        self.bench_run(tmp_path)
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.05,))
        result = run_sweep(spec, cache=small_cache(tmp_path))
        assert result.manifest.counts() == {"hit": 1, "miss": 0, "failed": 0, "pending": 0}

    def test_sharing_records_have_their_own_address(self, tmp_path, capsys):
        [plain] = self.bench_run(tmp_path)
        capsys.readouterr()
        [shared] = self.bench_run(tmp_path, "--sharing")
        assert "sharing" not in plain and "sharing" in shared
        assert "cache    : 0 hit(s), 1 miss(es)" in capsys.readouterr().out
        assert {k: v for k, v in shared.items() if k != "sharing"}.keys() \
            == plain.keys()
        [again] = self.bench_run(tmp_path, "--sharing")
        assert again["sharing"] == shared["sharing"]
        assert "cache    : 1 hit(s), 0 miss(es)" in capsys.readouterr().out

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
