"""What is left where ``repro.bench.hostprof`` was (deleted in PR 23).

``src/repro`` reads the host clock for one number, the ``perf_counter``
pair around ``Engine.run``; ``repro run --profile`` prints it as one line
under the counter report and wraps nothing. Where host time *goes* is
``benchmarks/perf``'s question. Seven of the ten hostprof tests keep their
ids here, retargeted at that remainder, because the test floor admits only
a few removals per PR — CHANGES.md (PR 23) says which three went.
"""

import re

from repro.bench.report import host_cells
from repro.bench.telemetry import run_unit
from repro.cli import main
from repro.config import preset
from repro.fabric import canonical_record
from repro.tools import profile_platform
from tests.conftest import spmd

SOR = ["--app", "sor", "--param", "n=64", "--param", "iterations=2"]


def tiny_run(plat):
    def main(env):
        x = env.alloc_array((8,), name="x")
        env.barrier()
        if env.rank == 0:
            x[:] = 1.0
        env.barrier()
        return float(x[0])

    return spmd(plat, main)


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


class TestPhaseWallTimers:
    def test_attach_measures_and_detach_restores(self):
        # nothing attaches any more: the report reads a finished platform
        # and leaves every method where its class put it
        plat = preset("sw-dsm-2").build()
        tiny_run(plat)
        assert profile_platform(plat) == profile_platform(plat)
        assert "run" not in vars(plat.engine)
        assert "barrier" not in vars(plat.dsm)

    def test_smp_platform_skips_am_delivery(self, capsys):
        assert main(["run", "--preset", "smp-2", *SOR, "--profile"]) == 0
        assert "messages: 0, wire bytes: 0" in capsys.readouterr().out

    def test_virtual_time_unchanged_by_instrumentation(self, capsys):
        run = ["run", "--preset", "sw-dsm-2", *SOR]
        assert main(run) == 0
        bare = capsys.readouterr().out
        assert main(run + ["--profile"]) == 0
        assert capsys.readouterr().out.startswith(bare)
