"""Tests for the §4.3 tools in repro.obs (monitor, profile, trace summary)."""

import re

import numpy as np
import pytest

from repro.bench.report import host_cells
from repro.bench.telemetry import run_unit
from repro.cli import main
from repro.config import preset
from repro.fabric import canonical_record
from repro.memory.layout import single_home
from repro.obs import AttachedMonitor
from repro.obs.profile import profile_platform, summarize_trace
from tests.conftest import spmd

SOR = ["--app", "sor", "--param", "n=64", "--param", "iterations=2"]


def run_workload(plat):
    def main(env):
        A = env.hamster.memory.alloc_array_collective(
            (1024,), name="A", distribution=single_home(0))
        env.barrier()
        if env.rank != 0:
            A[0:64] = float(env.rank)
        env.barrier()
        for _ in range(3):
            env.lock(1)
            A[0] = float(A[0]) + 1.0
            env.unlock(1)
        env.barrier()
        return float(A[0])

    return spmd(plat, main)


def tiny_run(plat):
    def main(env):
        x = env.hamster.memory.alloc_array_collective((8,), name="x")
        env.barrier()
        if env.rank == 0:
            x[:] = 1.0
        env.barrier()
        return float(x[0])

    return spmd(plat, main)


class TestAttachedMonitor:
    def test_live_events_captured(self):
        plat = preset("sw-dsm-2").build()
        mon = AttachedMonitor(plat).attach()
        run_workload(plat)
        assert mon.timeline("sync", "barriers")
        assert mon.peak("sync", "barriers") >= 3
        assert mon.timeline("sync", "lock_acquires")

    def test_periodic_sampling(self):
        plat = preset("sw-dsm-2").build()
        mon = AttachedMonitor(plat, period=1e-3).attach()
        run_workload(plat)
        assert len(mon.samples) >= 1
        assert "dsm.rank0.reads" in mon.samples[0].values

    def test_snapshot_on_demand(self):
        plat = preset("smp-2").build()
        mon = AttachedMonitor(plat).attach()
        run_workload(plat)
        sample = mon.snapshot()
        assert sample.get("sync.barriers") >= 3

    def test_rate_computation(self):
        plat = preset("sw-dsm-2").build()
        mon = AttachedMonitor(plat).attach()
        run_workload(plat)
        assert mon.rate("sync", "barriers") > 0

    def test_report_renders(self):
        plat = preset("sw-dsm-2").build()
        mon = AttachedMonitor(plat).attach()
        run_workload(plat)
        text = mon.report()
        assert "sync.barriers" in text
        assert "live events" in text

    def test_attach_idempotent(self):
        plat = preset("smp-2").build()
        mon = AttachedMonitor(plat)
        assert mon.attach() is mon.attach()

    def test_application_untouched(self):
        """Attaching the monitor must not change virtual results/timing."""
        def run(with_monitor):
            plat = preset("sw-dsm-2").build()
            if with_monitor:
                AttachedMonitor(plat).attach()
            results = run_workload(plat)
            return results, plat.engine.now

        (r1, t1), (r2, t2) = run(False), run(True)
        assert r1 == r2
        assert t1 == t2  # counters are free; observation doesn't perturb


class TestProfileReport:
    def test_rank_digests(self):
        plat = preset("sw-dsm-4").build()
        run_workload(plat)
        report = profile_platform(plat)
        assert len(report.ranks) == 4
        assert report.total_time == plat.engine.now
        # Non-home ranks fetched and diffed.
        assert report.rank(1).fetches >= 1
        assert report.rank(1).diffs >= 1
        assert report.rank(0).barriers >= 3

    def test_network_and_bus_accounting(self):
        plat = preset("sw-dsm-2").build()
        run_workload(plat)
        report = profile_platform(plat)
        assert report.messages > 0
        assert report.wire_bytes > 0
        assert all(b >= 0 for b in report.bus_bytes.values())

    def test_sync_share_bounded(self):
        plat = preset("sw-dsm-2").build()
        run_workload(plat)
        report = profile_platform(plat)
        assert 0.0 <= report.sync_share() <= 1.0

    def test_render(self):
        plat = preset("hybrid-2").build()
        run_workload(plat)
        text = profile_platform(plat).render()
        assert "profile:" in text and "sync share" in text

    def test_smp_profile_has_no_network(self):
        plat = preset("smp-2").build()
        run_workload(plat)
        report = profile_platform(plat)
        assert report.messages == 0
        assert report.rank(0).faults == 0  # hardware coherence: no faults

    def test_host_engine_counters_reported(self):
        plat = preset("sw-dsm-2").build()
        run_workload(plat)
        report = profile_platform(plat)
        assert report.events_executed == plat.engine.events_executed > 0
        assert report.host_seconds == plat.engine.host_seconds > 0
        assert report.events_per_sec > 0
        assert "engine events" in report.render()


class TestHostProfiler:
    def test_profiles_a_simulation_run(self, capsys):
        assert main(["run", "--preset", "sw-dsm-2", *SOR, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out and "sync share" in out
        assert re.search(r"host     : \d+ engine events in [\d.]+ ms wall "
                         r"\([\d,]+ events/s\)$", out, re.M)
        assert "host hot functions" not in out
        assert "host phase timers" not in out

    def test_empty_before_run(self):
        report = profile_platform(preset("sw-dsm-2").build())
        assert (report.events_executed, report.host_seconds,
                report.events_per_sec) == (0, 0.0, 0.0)
        assert "0 engine events in 0.0 ms wall" in report.render()

    def test_accumulates_across_runs(self):
        plat = preset("sw-dsm-2").build()
        tiny_run(plat)
        events, host = plat.engine.events_executed, plat.engine.host_seconds
        tiny_run(plat)
        assert plat.engine.events_executed > events
        assert plat.engine.host_seconds > host

    def test_render(self):
        # displayed from the run that produced the record, never compared;
        # a committed baseline record has nothing to display
        rec = run_unit("sw-dsm-2", "PI", scale=0.02)
        assert host_cells(rec) == [f"{rec['events_per_sec']:,.0f}",
                                   f"{rec['host_seconds'] * 1e3:.1f}"]
        assert host_cells(canonical_record(rec)) == ["-", "-"]


class TestTraceSummary:
    def _traced_platform(self):
        cfg = preset("sw-dsm-2")
        cfg.trace = True
        return cfg.build()

    def test_message_histogram(self):
        plat = self._traced_platform()
        run_workload(plat)
        summary = summarize_trace(plat.engine.trace)
        assert summary.n_events > 0

    def test_fetches_and_hot_pages(self):
        plat = self._traced_platform()
        run_workload(plat)
        summary = summarize_trace(plat.engine.trace)
        assert len(summary.fetches) >= 1
        hottest = summary.hottest_pages(1)
        assert hottest and hottest[0][1] >= 1

    def test_render(self):
        plat = self._traced_platform()
        run_workload(plat)
        text = summarize_trace(plat.engine.trace).render()
        assert "trace:" in text

    def test_empty_trace(self):
        from repro.sim.trace import Tracer

        summary = summarize_trace(Tracer())
        assert summary.n_events == 0
