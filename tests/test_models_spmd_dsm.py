"""Tests for the SPMD, SMP/SPMD, JiaJia, TreadMarks, and HLRC model layers."""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError, ModelError
from repro.models.hlrc import HlrcApi
from repro.models.jiajia_api import JiaJiaApi
from repro.models.native_jiajia import NativeJiaJiaApi
from repro.models.smp_spmd import SmpSpmdModel
from repro.models.spmd import SpmdModel
from repro.models.treadmarks import TreadMarksApi


class TestSpmdModel:
    def test_identity_and_alloc(self, swdsm4):
        model = SpmdModel(swdsm4.hamster)

        def main(m):
            pid = yield from m.spmd_init()
            assert pid == (yield from m.spmd_proc_id())
            assert (yield from m.spmd_num_procs()) == 4
            assert (yield from m.spmd_num_nodes()) == 4
            A = yield from m.spmd_alloc_array((8, 8), name="A")
            yield from A.set_g((slice(pid * 2, (pid + 1) * 2), slice(None)),
                               float(pid))
            yield from m.spmd_barrier()
            total = float((yield from A.get_g((slice(None), slice(None)))).sum())
            yield from m.spmd_exit()
            return total

        expect = sum(r * 16 for r in range(4))
        assert model.run(main) == [expect] * 4

    def test_locks_and_trylock(self, smp2):
        model = SpmdModel(smp2.hamster)

        def main(m):
            lock = yield from m.spmd_newlock()
            yield from m.spmd_barrier()
            yield from m.spmd_lock(lock)
            held = yield from m.spmd_trylock(lock)
            yield from m.spmd_unlock(lock)
            return lock, held

        (lock0, held0), (lock1, held1) = model.run(main)
        assert lock0 != lock1
        assert not held0 and not held1  # a held lock refuses a trylock

    def test_messaging(self, swdsm4):
        model = SpmdModel(swdsm4.hamster)

        def main(m):
            pid = yield from m.spmd_proc_id()
            if pid == 0:
                yield from m.spmd_send(1, "payload")
                return None
            if pid == 1:
                return (yield from m.spmd_recv())
            return None

        assert model.run(main)[1] == (0, "payload")

    def test_stats_and_capabilities(self, swdsm4):
        model = SpmdModel(swdsm4.hamster)

        def main(m):
            yield from m.spmd_barrier()
            stats = yield from m.spmd_stats()
            caps = yield from m.spmd_capabilities()
            return stats["barriers"] > 0, "software_dsm" in caps

        assert all(all(pair) for pair in model.run(main))

    def test_fence_and_scopes(self, swdsm4):
        model = SpmdModel(swdsm4.hamster)

        def main(m):
            yield from m.spmd_acquire(9)
            yield from m.spmd_release(9)
            yield from m.spmd_fence()
            return (yield from m.spmd_wtime())

        assert all(t > 0 for t in model.run(main))


class TestSmpSpmdModel:
    def test_locality_queries_on_smp(self):
        plat = ClusterConfig(platform="smp", dsm="smp", nodes=4, ranks=4).build()
        model = SmpSpmdModel(plat.hamster)

        def main(m):
            return ((yield from m.spmd_local_peers()),
                    (yield from m.spmd_is_local(0)),
                    (yield from m.spmd_local_master()),
                    (yield from m.spmd_cpus_on_node()))

        peers, is_local, master, cpus = model.run(main)[0]
        assert peers == [0, 1, 2, 3]
        assert is_local and master == 0 and cpus == 4

    def test_locality_queries_on_cluster(self, swdsm4):
        model = SmpSpmdModel(swdsm4.hamster)

        def main(m):
            me = yield from m.spmd_proc_id()
            return ((yield from m.spmd_local_peers()),
                    (yield from m.spmd_is_local((me + 1) % 4)))

        peers, other_local = model.run(main)[0]
        assert peers == [0]
        assert not other_local

    def test_local_barrier(self):
        plat = ClusterConfig(platform="smp", dsm="smp", nodes=2, ranks=2).build()
        model = SmpSpmdModel(plat.hamster)

        def main(m):
            if (yield from m.spmd_proc_id()) == 1:
                yield 1e-3                  # rank 0 waits for rank 1
            yield from m.spmd_local_barrier()
            return (yield from m.spmd_wtime())

        t = model.run(main)
        assert t[0] == t[1] > 1e-3


#: (binding, a JiaJia preset it runs on)
BINDINGS = [pytest.param(JiaJiaApi, "sw-dsm-4", id="hamster"),
            pytest.param(NativeJiaJiaApi, "native-jiajia-4", id="native")]


class TestJiaJiaBindings:
    def test_hamster_and_native_agree_numerically(self):
        """The Figure 2 precondition: identical app, identical results on
        both bindings (only timing differs)."""
        def run(native):
            name = "native-jiajia-4" if native else "sw-dsm-4"
            plat = preset(name).build()
            api = (NativeJiaJiaApi(plat.hamster) if native
                   else JiaJiaApi(plat.hamster))

            def main(a):
                pid, hosts = yield from a.jia_init()
                arr = yield from a.jia_alloc_array((16, 16), name="A")
                yield from arr.set_g((slice(pid * 4, (pid + 1) * 4), slice(None)),
                                     pid + 1.0)
                yield from a.jia_barrier()
                yield from a.jia_lock(1)
                corner = yield from arr.get_g((0, 0))
                yield from arr.set_g((0, 0), float(corner) + 1.0)
                yield from a.jia_unlock(1)
                yield from a.jia_barrier()
                total = float((yield from arr.get_g((slice(None), slice(None)))).sum())
                yield from a.jia_exit()
                return total

            return api.run(main), plat.engine.now

        (res_h, t_h), (res_n, t_n) = run(False), run(True)
        assert res_h == res_n
        assert t_h != t_n  # bindings differ in cost, not semantics

    def test_native_requires_jiajia(self, smp2):
        with pytest.raises(ModelError):
            NativeJiaJiaApi(smp2.hamster)

    @pytest.mark.parametrize("binding,preset_name", BINDINGS)
    def test_jia_alloc_bytes(self, binding, preset_name):
        api = binding(preset(preset_name).build().hamster)

        def main(a):
            return (yield from a.jia_alloc(10000))

        regions = api.run(main)
        assert all(region is regions[0] for region in regions)  # same region
        assert [region.size for region in regions] == [12288] * 4  # page rounded

    @pytest.mark.parametrize("binding,preset_name", BINDINGS)
    def test_jia_wtime_monotone(self, binding, preset_name):
        api = binding(preset(preset_name).build().hamster)

        def main(a):
            t0 = yield from a.jia_wtime()
            yield from a.jia_lock(2)
            t1 = yield from a.jia_wtime()
            yield from a.jia_unlock(2)
            yield from a.jia_barrier()
            return t0 <= t1 <= (yield from a.jia_wtime())

        assert all(api.run(main))


class TestTreadMarks:
    def test_single_node_alloc_and_distribute(self, swdsm4):
        api = TreadMarksApi(swdsm4.hamster)

        def main(t):
            yield from t.Tmk_startup()
            pid = yield from t.Tmk_proc_id()
            if pid == 0:
                arr = yield from t.Tmk_malloc_array((8, 8), name="data")
                arr = yield from t.Tmk_distribute("data", arr)
            else:
                arr = yield from t.Tmk_distribute("data")
            yield from arr.set_g((slice(pid * 2, (pid + 1) * 2), slice(None)),
                                 pid)
            yield from t.Tmk_barrier()
            total = float((yield from arr.get_g((slice(None), slice(None)))).sum())
            yield from t.Tmk_exit()
            return total

        expect = sum(r * 16 for r in range(4))
        assert api.run(main) == [expect] * 4

    def test_distribute_without_a_publisher_fails(self, swdsm4):
        api = TreadMarksApi(swdsm4.hamster)

        def main(t):
            if (yield from t.Tmk_proc_id()) == 0:
                yield from t.Tmk_distribute("none", None)
            else:
                yield from t.Tmk_barrier()
            return None

        with pytest.raises(ConfigurationError, match="'none'"):
            api.run(main)

    def test_malloc_homes_pages_on_caller(self, swdsm4):
        api = TreadMarksApi(swdsm4.hamster)
        dsm = swdsm4.dsm

        def main(t):
            pid = yield from t.Tmk_proc_id()
            if pid == 2:
                arr = yield from t.Tmk_malloc_array((512,), name="x")
                return (yield from dsm.home_of_g(arr.region.first_page))
            return None

        assert api.run(main)[2] == 2

    def test_malloc_has_no_implicit_barrier(self, swdsm4):
        """The paper's point: single-node allocation avoids the global
        synchronous allocation's implicit barrier."""
        api = TreadMarksApi(swdsm4.hamster)
        dsm = swdsm4.dsm

        def main(t):
            pid = yield from t.Tmk_proc_id()
            before = dsm.stats(pid)["barriers"]
            if pid == 0:
                region = yield from t.Tmk_malloc(4096)
                yield from t.Tmk_free(region)
            after = dsm.stats(pid)["barriers"]
            yield from t.Tmk_barrier()
            return after - before

        assert api.run(main) == [0, 0, 0, 0]

    def test_locks(self, swdsm4):
        api = TreadMarksApi(swdsm4.hamster)

        def main(t):
            yield from t.Tmk_lock_acquire(4)
            yield from t.Tmk_lock_release(4)
            got = yield from t.Tmk_trylock(99)
            if got:
                yield from t.Tmk_lock_release(99)
            return got

        res = api.run(main)
        assert res.count(True) >= 1  # uncontended trylocks succeed


class TestHlrc:
    def test_full_surface(self, swdsm4):
        api = HlrcApi(swdsm4.hamster)

        def main(h):
            pid = yield from h.hlrc_init()
            assert (yield from h.hlrc_my_pid()) == pid
            assert (yield from h.hlrc_num_procs()) == 4
            assert (yield from h.hlrc_my_node()) == pid
            assert (yield from h.hlrc_num_nodes()) == 4
            arr = yield from h.hlrc_malloc_block((8, 512), name="b")
            assert (yield from h.hlrc_home_of(arr, 0)) == 0
            assert (yield from h.hlrc_home_of(arr, 7)) == 3
            arr2 = yield from h.hlrc_malloc_onhome((512,), home=2, name="oh")
            assert (yield from h.hlrc_home_of(arr2, 0)) == 2
            yield from h.hlrc_acquire(1)
            yield from arr.set_g((pid * 2, 0), float(pid))
            yield from h.hlrc_release(1)
            yield from h.hlrc_flush()
            lock = yield from h.hlrc_newlock()
            assert (yield from h.hlrc_trylock(lock))
            yield from h.hlrc_unlock(lock)
            yield from h.hlrc_barrier()
            stats = yield from h.hlrc_stats()
            caps = yield from h.hlrc_capabilities()
            region = yield from h.hlrc_malloc(4096)
            if pid == 0:
                yield from h.hlrc_free(region)
            yield from h.hlrc_exit()
            return stats["barriers"] > 0 and "home_based" in caps

        assert all(api.run(main))

    def test_cyclic_helper(self, swdsm4):
        api = HlrcApi(swdsm4.hamster)

        def main(h):
            arr = yield from h.hlrc_malloc_cyclic((8, 512), name="c")
            homes = []
            for i in range(4):
                homes.append((yield from h.hlrc_home_of(arr, i)))
            return homes

        assert api.run(main)[0] == [0, 1, 2, 3]

    def test_home_of_asks_the_directory_of_a_first_touch_page(self, swdsm4):
        """A first-touch page has no home until someone asks its directory
        (page mod n_procs), three of the four over the network: rank 1 asks
        first, so the directories make it the home, and every rank that
        asks later hears the same answer."""
        from repro.memory.layout import first_touch

        api = HlrcApi(swdsm4.hamster)

        def main(h):
            arr = yield from h.hlrc_malloc_array((4, 512), name="ft",
                                                 distribution=first_touch())
            pid = yield from h.hlrc_my_pid()
            if pid != 1:
                yield from h.hlrc_barrier()
            homes = []
            for page in range(4):
                homes.append((yield from h.hlrc_home_of(arr, page)))
            if pid == 1:
                yield from h.hlrc_barrier()
            return homes

        assert api.run(main) == [[1, 1, 1, 1]] * 4
