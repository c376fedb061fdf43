"""What is left where ``repro.bench.hostprof`` was (deleted in PR 23).

``src/repro`` reads the host clock for one number, the ``perf_counter``
pair around ``Engine.run``; ``repro run --profile`` prints it as one line
under the counter report and wraps nothing. Where host time *goes* is
``benchmarks/perf``'s question. The profiler tests live with the other
§4.3 tools in ``tests/test_tools.py``; these three ``repro run --profile``
checks move to ``tests/test_cli.py`` next.
"""

from repro.cli import main
from repro.config import preset
from repro.obs.profile import profile_platform
from tests.test_tools import SOR, tiny_run


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
