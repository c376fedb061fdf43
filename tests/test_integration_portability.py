"""Integration tests for the paper's central claim (§5.4): the *identical*
application code runs unmodified on every platform — only the configuration
changes — and produces identical numerical results everywhere.
"""

from functools import partial

import numpy as np
import pytest

from repro.apps import get_app
from repro.apps.common import merge_rank_results
from repro.config import ClusterConfig, loads, preset
from repro.models import MODEL_REGISTRY, load_model
from repro.models.jiajia_api import JiaJiaApi
from repro.models.native_jiajia import NativeJiaJiaApi

ALL_PLATFORMS = ["smp-2", "sw-dsm-2", "sw-dsm-4", "hybrid-2", "hybrid-4"]


def run_sor_everywhere(platform_name):
    plat = preset(platform_name).build()
    api = JiaJiaApi(plat.hamster)
    fn = get_app("sor")
    results = api.run(partial(fn, n=64, iterations=3))
    merged = merge_rank_results(results)
    return merged, plat.engine.now


class TestIdenticalBinaries:
    def test_same_code_every_platform_same_answer(self):
        """One app function object, five platforms, identical checksums."""
        outcomes = {name: run_sor_everywhere(name) for name in ALL_PLATFORMS}
        checksums = {merged.checksum for merged, _ in outcomes.values()}
        assert len(checksums) == 1
        assert all(merged.verified for merged, _ in outcomes.values())
        # ... but the *performance* differs by platform, as Figure 4 shows.
        times = {name: t for name, (_, t) in outcomes.items()}
        assert times["sw-dsm-2"] > times["hybrid-2"]

    def test_config_file_is_the_only_difference(self, tmp_path):
        """Build platforms from on-disk config files, paper-style."""
        results = []
        for text in (preset("hybrid-2").to_text(), preset("sw-dsm-2").to_text()):
            path = tmp_path / "cluster.cfg"
            path.write_text(text)
            from repro.config import load

            plat = load(str(path)).build()
            api = JiaJiaApi(plat.hamster)
            fn = get_app("pi")
            merged = merge_rank_results(api.run(partial(fn, intervals=4096)))
            results.append(merged.checksum)
        assert results[0] == results[1]

    def test_hamster_vs_native_identical_results(self):
        def run(native):
            name = "native-jiajia-2" if native else "sw-dsm-2"
            plat = preset(name).build()
            api = (NativeJiaJiaApi(plat.hamster) if native
                   else JiaJiaApi(plat.hamster))
            fn = get_app("lu")
            merged = merge_rank_results(api.run(partial(fn, n=64, block=16)))
            return merged

        assert run(False).checksum == run(True).checksum


class TestEveryModelOnEveryPlatform:
    """Retargetability × portability: each programming model instantiates
    and performs a minimal allocate/sync round trip on each platform."""

    @pytest.mark.parametrize("platform", ["smp-2", "sw-dsm-2", "hybrid-2"])
    @pytest.mark.parametrize("model_name", sorted(MODEL_REGISTRY))
    def test_model_instantiates_and_runs(self, platform, model_name):
        plat = preset(platform).build()
        cls = load_model(model_name)
        api = cls(plat.hamster)

        def echo(arg):
            return arg
            yield  # unreachable

        if model_name == "POSIX threads":
            def main(p):
                tid = yield from p.pthread_create(echo, 5)
                return (yield from p.pthread_join(tid))[1]

            assert api.run(main) == 5
        elif model_name == "WIN32 threads":
            def main(w):
                h = yield from w.CreateThread(echo, 5)
                yield from w.WaitForSingleObject(h)
                return (yield from w.GetExitCodeThread(h))

            assert api.run(main) == 5
        elif model_name == "Cray put/get (shmem) API":
            def main(s):
                s.start_pes(0)
                sym = s.shmem_malloc((2,), name="t")
                me = s.shmem_my_pe()
                s.shmem_put(sym, 0, float(me + 1), (me + 1) % s.shmem_n_pes())
                s.shmem_barrier_all()
                return float(s.shmem_g(sym, 0, me))

            res = api.run(main)
            assert sorted(res) == [1.0, 2.0]
        else:
            # Generic SPMD-style models: find the barrier-ish call.
            if model_name == "ANL macros":
                def main(m):
                    m.MAIN_INITENV()
                    m.BARRIER()
                    return True
            else:  # the generator-call models
                init, barrier = {
                    "JiaJia API (subset)": ("jia_init", "jia_barrier"),
                    "SPMD model": ("spmd_init", "spmd_barrier"),
                    "SMP/SPMD model": ("spmd_init", "spmd_barrier"),
                    "TreadMarks API": ("Tmk_startup", "Tmk_barrier"),
                    "HLRC API": ("hlrc_init", "hlrc_barrier"),
                }[model_name]

                def main(m):
                    yield from getattr(m, init)()
                    yield from getattr(m, barrier)()
                    return True

            assert all(api.run(main))


class TestMixedScenario:
    def test_producer_consumer_pipeline_across_models(self):
        """A composite integration scenario: SPMD tasks coordinate through
        locks, a condition-free flag protocol, messaging, and shared memory
        simultaneously — all services interleaved."""
        plat = preset("sw-dsm-4").build()

        def main(env):
            cc = env.hamster.cluster_ctl
            data = yield from env.alloc_array_g((4, 32), name="pipe")
            flags = yield from env.alloc_array_g((4,), name="flags")
            if env.rank == 0:
                yield from flags.set_g(slice(None), 0.0)
            yield from env.barrier_g()
            # Stage r writes its row, then messages rank r+1.
            row = np.full(32, float(env.rank + 1))
            if env.rank > 0:
                src, _ = yield from cc.recv_msg_g()
                assert src == env.rank - 1
            yield from env.lock_g(env.rank)
            yield from data.set_g((env.rank, slice(None)), row)
            yield from env.unlock_g(env.rank)
            if env.rank < 3:
                yield from cc.send_msg_g(env.rank + 1, "go")
            yield from env.barrier_g()
            return float((yield from data.get_g((slice(None), slice(None)))).sum())

        expect = 32 * (1 + 2 + 3 + 4)
        assert plat.hamster.run_spmd(main) == [expect] * 4
