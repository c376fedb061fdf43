"""Tests for the Cray shmem and ANL macro model layers."""

import numpy as np
import pytest

from repro.config import preset
from repro.errors import ModelError
from repro.models.anl import AnlMacros
from repro.models.shmem import ShmemApi


def shmem_on(name="hybrid-4"):
    plat = preset(name).build()
    return plat, ShmemApi(plat.hamster)


class TestShmemRma:
    def test_put_get_ring(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(4)
            me, n = s.shmem_my_pe(), s.shmem_n_pes()
            sym = s.shmem_malloc((4,), name="ring")
            s.shmem_put(sym, slice(0, 4), np.full(4, float(me)), (me + 1) % n)
            s.shmem_barrier_all()
            mine = s.shmem_get(sym, slice(0, 4), me)
            s.shmem_finalize()
            return float(mine[0])

        # PE me holds what PE (me-1) put.
        assert api.run(main) == [3.0, 0.0, 1.0, 2.0]

    def test_symmetric_slabs_homed_per_pe(self):
        plat, api = shmem_on()
        dsm = plat.dsm

        def main(s):
            s.start_pes(0)
            sym = s.shmem_malloc((8,), name="homes")
            backing = sym._backing.backing
            first = backing.region.first_page
            pages_per_slab = backing.region.n_pages // 4
            return [dsm.home_of(first + pe * pages_per_slab) for pe in range(4)]

        assert api.run(main)[0] == [0, 1, 2, 3]

    def test_single_element_p_g(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((4,), name="pg")
            if me == 0:
                s.shmem_p(sym, 2, 7.5, 3)
            s.shmem_barrier_all()
            if me == 3:
                return s.shmem_g(sym, 2, 3)
            return None

        assert api.run(main)[3] == 7.5

    def test_get_sees_remote_puts_on_swdsm(self):
        """One-sided semantics must hold even on the caching SW-DSM:
        shmem_get refreshes stale copies."""
        plat, api = shmem_on("sw-dsm-2")

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((4,), name="x")
            _ = s.shmem_get(sym, slice(0, 4), me)  # prime the local cache
            s.shmem_barrier_all()
            if me == 0:
                s.shmem_put(sym, 0, 3.25, 1)
            s.shmem_barrier_all()
            if me == 1:
                return s.shmem_g(sym, 0, 1)
            return None

        assert api.run(main)[1] == 3.25

    def test_start_pes_mismatch_rejected(self):
        plat, api = shmem_on()

        def main(s):
            with pytest.raises(ModelError):
                s.start_pes(7)
            return True

        assert all(api.run(main))


class TestShmemCollectives:
    def test_sum_to_all(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((2,), name="red")
            sym.write(me, slice(0, 2), np.array([me + 1.0, 1.0]))
            s.shmem_fence()
            result = s.shmem_double_sum_to_all(sym, slice(0, 2))
            return list(np.asarray(result))

        for row in api.run(main):
            assert row == [10.0, 4.0]

    def test_max_to_all(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((1,), name="mx")
            sym.write(me, 0, float(me * me))
            s.shmem_fence()
            return float(np.asarray(s.shmem_double_max_to_all(sym, 0)))

        assert api.run(main) == [9.0] * 4

    def test_broadcast(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((3,), name="bc")
            if me == 2:
                sym.write(2, slice(0, 3), np.array([7.0, 8.0, 9.0]))
                s.shmem_quiet()
            s.shmem_broadcast(sym, slice(0, 3), root=2)
            return list(s.shmem_get(sym, slice(0, 3), me))

        for row in api.run(main):
            assert row == [7.0, 8.0, 9.0]

    def test_collect(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((1,), name="cl")
            sym.write(me, 0, float(me))
            s.shmem_quiet()
            s.shmem_barrier_all()
            gathered = s.shmem_collect(sym, 0)
            return [float(x) for x in np.asarray(gathered).reshape(-1)]

        assert api.run(main)[0] == [0.0, 1.0, 2.0, 3.0]

    def test_atomics(self):
        plat, api = shmem_on()

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((1,), dtype=np.int64, name="at")
            if me == 0:
                sym.write(0, 0, 0)
                s.shmem_quiet()
            s.shmem_barrier_all()
            old = s.shmem_int_finc(sym, 0, 0)  # everyone increments PE 0
            s.shmem_barrier_all()
            final = s.shmem_g(sym, 0, 0) if me == 0 else None
            return old, final

        res = api.run(main)
        olds = sorted(r[0] for r in res)
        assert olds == [0, 1, 2, 3]
        assert res[0][1] == 4

    def test_swap(self):
        plat, api = shmem_on("hybrid-2")

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((1,), name="sw")
            if me == 0:
                sym.write(1, 0, 5.0)
                s.shmem_quiet()
                old = s.shmem_swap(sym, 0, 6.0, 1)
                return old
            return None

        assert api.run(main)[0] == 5.0

    def test_wait_until(self):
        plat, api = shmem_on("hybrid-2")

        def main(s):
            s.start_pes(0)
            me = s.shmem_my_pe()
            sym = s.shmem_malloc((1,), name="flag")
            if me == 1:
                value = s.shmem_wait(sym, 0, not_value=0.0)
                return float(value)
            s.hamster.engine.require_process().hold(0.001)
            s.shmem_put(sym, 0, 42.0, 1)
            s.shmem_barrier_all() if False else None
            return None

        # rank 1 spins until rank 0's put lands
        res = api.run(main)
        assert res[1] == 42.0


class TestAnlMacros:
    def test_lifecycle_and_gmalloc(self, swdsm4):
        api = AnlMacros(swdsm4.hamster)
        regions = []

        def main(a):
            a.MAIN_INITENV()
            regions.append(a.G_MALLOC(10000, name="raw"))
            arr = a.G_MALLOC_ARRAY((8, 8), name="g")
            pid = a.hamster.task.my_rank()
            arr[pid * 2:(pid + 1) * 2, :] = pid
            a.BARRIER()
            total = float(arr[:, :].sum())
            a.MAIN_END()
            return total

        assert api.run(main) == [sum(16 * r for r in range(4))] * 4
        assert all(region is regions[0] for region in regions)  # one region
        assert [region.size for region in regions] == [12288] * 4

    def test_g_free_releases_the_region(self, smp2):
        """G_FREE hands the region back: its backing store is gone."""
        api = AnlMacros(smp2.hamster)

        def main(a):
            a.MAIN_INITENV()
            arr = a.G_MALLOC_ARRAY((64,), name="tmp")
            if a.hamster.task.my_rank() == 0:
                a.G_FREE(arr)
                with pytest.raises(KeyError):
                    arr[0] = 1.0
            a.MAIN_END()
            return True

        assert all(api.run(main))

    def test_locks_and_alock(self, smp2):
        api = AnlMacros(smp2.hamster)

        def main(a):
            lock = a.LOCKDEC()
            a.LOCKINIT(lock)
            a.LOCK(lock)
            a.UNLOCK(lock)
            locks = a.ALOCKDEC(4)
            a.ALOCK(locks, 2)
            a.AULOCK(locks, 2)
            return len(set(locks)) == 4

        assert all(api.run(main))

    def test_create_and_wait_for_end(self, smp2):
        api = AnlMacros(smp2.hamster)
        done = []

        def main(a):
            if a.hamster.task.my_rank() != 0:
                return None
            a.CREATE(lambda: done.append(1))
            a.CREATE(lambda: done.append(2))
            a.WAIT_FOR_END()
            return sorted(done)

        assert api.run(main)[0] == [1, 2]

    def test_getsub_self_scheduling(self, smp2):
        api = AnlMacros(smp2.hamster)

        shared = {}

        def main(a):
            if a.hamster.task.my_rank() == 0:
                shared["gs"] = a.GSDEC()
                a.GSINIT(shared["gs"], limit=10)
            a.BARRIER()
            gs = shared["gs"]   # rank 0's handle, visible past the barrier
            got = []
            while True:
                index = a.GETSUB(gs)
                if index < 0:
                    break
                got.append(index)
            a.BARRIER()
            return got

        chunks = api.run(main)
        indices = sorted(i for chunk in chunks for i in chunk)
        assert indices == list(range(10))  # every index exactly once

    def test_getsub_unknown_handle(self, smp2):
        api = AnlMacros(smp2.hamster)

        def main(a):
            with pytest.raises(ModelError):
                a.GETSUB(999)
            return True

        assert all(api.run(main))

    def test_clock(self, smp2):
        api = AnlMacros(smp2.hamster)

        def main(a):
            t0 = a.CLOCK()
            a.BARRIER()
            return a.CLOCK() >= t0

        assert all(api.run(main))
