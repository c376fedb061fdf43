"""Coverage for the Hamster runtime object itself."""

import pytest

from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError
from tests.conftest import spmd


class TestRuntime:
    def test_platform_description(self):
        assert "jiajia DSM on beowulf" in \
            preset("sw-dsm-4").build().hamster.platform_description()
        assert "(1 nodes, 2 ranks)" in \
            preset("smp-2").build().hamster.platform_description()

    def test_n_ranks(self):
        assert preset("hybrid-4").build().hamster.n_ranks == 4

    def test_check_ready(self):
        plat = preset("smp-2").build()
        plat.hamster.check_ready()  # no raise
        plat.hamster.dsm = None
        with pytest.raises(ConfigurationError):
            plat.hamster.check_ready()

    def test_charge_outside_task_is_free(self):
        plat = preset("smp-2").build()
        # launcher context: no process, no charge
        assert plat.hamster.call_cost() == 0.0
        assert plat.engine.now == 0.0

    def test_charge_from_unbound_process_is_free(self):
        from repro.sim.process import SimProcess

        plat = preset("smp-2").build()

        def rogue(proc):
            # the process exists but has no rank
            assert plat.hamster.call_cost() == 0.0
            return proc.now

        p = SimProcess(plat.engine, rogue).start()
        plat.engine.run()
        assert p.result == 0.0

    def test_module_stats_registered_in_monitoring(self):
        h = preset("smp-2").build().hamster
        assert set(h.monitoring._modules) >= {"memory", "sync", "task",
                                              "cluster", "consistency"}

    def test_query_statistics_covers_every_rank(self):
        plat = preset("sw-dsm-4").build()
        spmd(plat, lambda env: env.barrier())
        tree = plat.hamster.query_statistics()
        assert set(tree["dsm"]) == {f"rank{r}" for r in range(4)}

    def test_custom_call_overhead_wins_over_params(self):
        plat = ClusterConfig(platform="smp", dsm="smp", nodes=2,
                             call_overhead=1e-3).build()

        def main(env):
            t0 = env.wtime()
            env.hamster.task.my_rank()
            return env.wtime() - t0

        assert max(spmd(plat, main)) == pytest.approx(1e-3)

    def test_run_spmd_returns_in_rank_order(self):
        plat = preset("sw-dsm-4").build()

        def main(env):
            # Finish in reverse rank order on purpose.
            env.hamster.engine.current_process.hold((4 - env.rank) * 1e-3)
            return env.rank

        assert plat.hamster.run_spmd(main) == [0, 1, 2, 3]
