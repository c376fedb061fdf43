"""Coverage for surfaces not exercised elsewhere: templates, experiments
generators, refresh semantics, errors module, version metadata."""

import numpy as np
import pytest

import repro
from repro.bench.experiments import gen_table1, gen_table2, md_table
from repro.config import preset
from repro.core.templates import SpmdEnv, model_startup, spmd_startup
from repro.errors import ConfigurationError, HamsterError
from tests.conftest import spmd


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_error_hierarchy_rooted(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) \
                    and obj.__module__ == "repro.errors":
                assert issubclass(obj, HamsterError) or obj is HamsterError


class TestTemplates:
    def test_spmd_startup_from_inside_simulation_rejected(self):
        plat = preset("smp-2").build()

        def main(env):
            with pytest.raises(ConfigurationError, match="launcher"):
                spmd_startup(env.hamster, lambda e: None)
            return True

        assert all(spmd(plat, main))

    def test_model_startup_runs_setup(self):
        plat = preset("smp-2").build()
        ran = []
        model_startup(plat.hamster, setup=lambda h: ran.append(h))
        assert ran == [plat.hamster]

    def test_spmd_env_shortcuts(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            assert isinstance(env, SpmdEnv)
            assert env.n_ranks == 2
            t0 = env.wtime()
            env.compute(1e6)
            assert env.wtime() > t0
            return env.rank

        assert spmd(plat, main) == [0, 1]

    def test_partial_rank_launch(self):
        """run_spmd(ranks=...) launches a subset (useful for masters-only
        phases in tests)."""
        plat = preset("smp-2").build()
        results = plat.hamster.run_spmd(lambda env: env.rank, ranks=[1])
        assert results == [1]


class TestRefreshSemantics:
    def test_refresh_noop_on_smp_and_hybrid(self):
        for name in ("smp-2", "hybrid-2"):
            plat = preset(name).build()

            def main(env):
                A = env.hamster.memory.alloc_array_collective((64,), name="A")
                env.barrier()
                A.refresh()       # must be harmless everywhere
                A.refresh(slice(0, 4))
                return True

            assert all(spmd(plat, main))

    def test_refresh_forces_refetch_on_swdsm(self):
        plat = preset("sw-dsm-2").build()
        dsm = plat.dsm

        def main(env):
            from repro.memory.layout import single_home

            A = env.hamster.memory.alloc_array_collective(
                (64,), name="A", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                _ = A[:]                      # fetch + cache
                before = dsm.stats(1)["pages_fetched"]
                _ = A[:]                      # cached: no fetch
                mid = dsm.stats(1)["pages_fetched"]
                A.refresh()
                _ = A[:]                      # refetch
                after = dsm.stats(1)["pages_fetched"]
                return before, mid, after
            return None

        before, mid, after = spmd(plat, main)[1]
        assert mid == before
        assert after == before + 1

    def test_refresh_skips_dirty_pages(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            from repro.memory.layout import single_home

            A = env.hamster.memory.alloc_array_collective(
                (64,), name="A", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                A[0] = 7.0       # dirty, unflushed
                A.refresh()      # must NOT wipe the pending write
                return float(A[0])
            return None

        assert spmd(plat, main)[1] == 7.0


class TestExperimentGenerators:
    def test_md_table(self):
        text = md_table(["a", "b"], [["x", 1.5]])
        assert "| a | b |" in text
        assert "| x | 1.50 |" in text

    def test_table_generators_render(self):
        t1 = gen_table1()
        assert "Matrix Multiplication" in t1
        t2 = gen_table2()
        assert "JiaJia API (subset)" in t2
        assert "lines/call" in t2


class TestRunUntilWithProcesses:
    def test_bounded_run_resumes_cleanly(self, engine):
        from repro.sim.process import SimProcess

        stamps = []

        def body(proc):
            for _ in range(4):
                proc.hold(1.0)
                stamps.append(proc.now)

        SimProcess(engine, body).start()
        engine.run(until=2.5)
        assert stamps == [1.0, 2.0]
        engine.run()
        assert stamps == [1.0, 2.0, 3.0, 4.0]
