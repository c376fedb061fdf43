"""Protocol tests for the SCI-VM-style hybrid DSM."""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.dsm.scivm.mapping import RemoteMapper
from repro.machine.params import PAPER_PLATFORM
from repro.memory.layout import block, cyclic, first_touch, single_home
from repro.sim.engine import Engine
from tests.conftest import spmd


def build(nodes=2):
    return preset(f"hybrid-{nodes}").build()


class TestAccessPath:
    def test_local_access_uses_memory_bus_not_sci(self):
        plat = build()
        sci = plat.cluster.sci

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (512,), name="A", distribution=block())
            env.barrier()
            if env.rank == 0:
                A[0:64] = 1.0  # page 0 is homed on rank 0: local
            env.barrier()
            return True

        spmd(plat, main)
        assert sci.remote_writes == 0

    def test_remote_access_issues_sci_transactions(self):
        plat = build()
        sci = plat.cluster.sci
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (512,), name="A", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                A[0:4] = 1.0         # remote write
                _ = A[0:4]           # remote read
            env.barrier()
            return dsm.stats(env.rank)

        stats = spmd(plat, main)[1]
        assert stats["remote_writes"] == 1
        assert stats["remote_reads"] == 1
        assert sci.remote_writes >= 1 and sci.remote_reads >= 1

    def test_first_remote_access_pays_mapping_once(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (512,), name="A", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                A[0] = 1.0
                A[1] = 2.0
                A[2] = 3.0
            env.barrier()
            return dsm.stats(env.rank)["pages_mapped"]

        assert spmd(plat, main)[1] == 1  # one page, mapped once

    def test_data_immediately_visible(self):
        """Hardware data path: one physical copy, no staleness."""
        plat = build()

        def main(env):
            A = yield from env.alloc_array_g((512,), name="A",
                                             distribution=single_home(0))
            yield from env.barrier_g()
            if env.rank == 0:
                yield from A.set_g(0, 5.0)
                yield from env.hamster.cluster_ctl.send_msg_g(1, "go")
            else:
                yield from env.hamster.cluster_ctl.recv_msg_g()
                return float((yield from A.get_g(0)))  # no lock: single copy
            return None

        assert spmd(plat, main)[1] == 5.0

    def test_run_split_across_page_boundary(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            # 2 pages; page 0 home=0, page 1 home=1 (block over 2 ranks).
            A = env.hamster.memory.alloc_array_collective(
                (1024,), name="A", distribution=block())
            env.barrier()
            if env.rank == 0:
                A[:] = 1.0  # half local, half remote
            env.barrier()
            return dsm.stats(env.rank)

        stats = spmd(plat, main)[0]
        assert stats["remote_writes"] == 1   # only the remote page's chunk


def _charges_case(case, env, dsm, A):
    """The accesses of one :class:`TestAccessCharges` case, on each rank."""
    rank = env.rank
    if case == "read_across_pages" and rank == 1:
        yield from A.get_g(slice(500, 520))      # 96 B of page 0, 64 B of 1
    elif case == "write" and rank == 1:
        yield from A.set_g(slice(0, 4), 1.0)
    elif case == "mapped_twice" and rank == 1:
        yield from A.get_g(0)                    # first map
        yield from A.get_g(1)                    # already mapped
    elif case == "att_eviction" and rank == 1:
        for i in (0, 512, 1024, 0):              # pages 0, 1, 2, then 0
            yield from A.get_g(i)
    elif case == "first_touch":
        if rank == 0:
            yield from A.set_g(0, 1.0)           # page 0 homed on rank 0
        yield from env.barrier_g()
        if rank == 1:                            # page 1 resolves at its turn:
            yield from A.set_g(slice(0, 1024), 2.0)
        elif rank == 2:                          # rank 2 claims it meanwhile
            yield from A.set_g(512, 3.0)
    elif case == "mixed" and rank == 0:
        yield from A.set_g(slice(None), 1.0)     # page 0 local, 1-3 remote
    elif case == "lock_barrier":
        yield from dsm.lock_g(1)                 # contended by all four
        yield from A.set_g(rank, float(rank))
        yield from dsm.unlock_g(1)
        if rank == 3 and (yield from dsm.try_lock_g(2)):
            yield from dsm.unlock_g(2)
    yield from env.barrier_g()


class TestAccessCharges:
    """Each hybrid-DSM charge on ``hybrid-4`` held to the values the data
    path has always given: the run's end time and event count, per-rank
    remote reads / writes / pages mapped, the SCI counters and each
    mapper's maps and evictions. A dropped, doubled or reordered charge,
    or a hop left out, moves at least one of them."""

    @pytest.mark.parametrize("case, end, events, ranks, sci, mappers", [
        # rank 1 reads across a page boundary: two partial chunks, two maps
        ("read_across_pages", "9.088076923076922e-05", 73,
         ((0, 0, 0), (2, 0, 2), (0, 0, 0), (0, 0, 0)),
         (14, 0, 256, 0, 12), ((0, 0), (2, 0), (0, 0), (0, 0))),
        # one remote write: map, then the write with its hop
        ("write", "6.234570135746606e-05", 71,
         ((0, 0, 0), (0, 1, 1), (0, 0, 0), (0, 0, 0)),
         (12, 1, 96, 32, 12), ((0, 0), (1, 0), (0, 0), (0, 0))),
        # the second read of a page pays no map
        ("mapped_twice", "7.066538461538463e-05", 72,
         ((0, 0, 0), (2, 0, 1), (0, 0, 0), (0, 0, 0)),
         (14, 0, 112, 0, 12), ((0, 0), (1, 0), (0, 0), (0, 0))),
        # two ATT entries: page 0 is evicted and mapped again
        ("att_eviction", "0.0001360115384615385", 77,
         ((0, 0, 0), (4, 0, 4), (0, 0, 0), (0, 0, 0)),
         (16, 0, 128, 0, 12), ((0, 0), (4, 2), (0, 0), (0, 0))),
        # page 1 is first-touched by rank 2 during rank 1's page-0 hold
        ("first_touch", "0.000191918778280543", 94,
         ((0, 0, 0), (0, 2, 2), (0, 0, 0), (0, 0, 0)),
         (16, 2, 128, 8192, 16), ((0, 0), (2, 0), (0, 0), (0, 0))),
        # block over four: page 0 local to rank 0, pages 1-3 remote
        ("mixed", "0.0002576167937944409", 76,
         ((0, 3, 3), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
         (12, 3, 96, 12288, 12), ((3, 0), (0, 0), (0, 0), (0, 0))),
        # a lock all four contend for, a try_lock, then the barrier
        ("lock_barrier", "0.00015122367162249522", 97,
         ((0, 0, 0), (0, 1, 1), (0, 1, 1), (0, 1, 1)),
         (15, 3, 120, 24, 22), ((0, 0), (1, 0), (1, 0), (1, 0))),
    ], ids=["read_across_pages", "write", "mapped_twice", "att_eviction",
            "first_touch", "mixed", "lock_barrier"])
    def test_charges(self, case, end, events, ranks, sci, mappers):
        plat = build(4)
        dsm, engine, net = plat.dsm, plat.engine, plat.cluster.sci
        if case == "att_eviction":
            for mapper in dsm._mappers:
                mapper.att_entries = 2

        def main(env):
            dist = first_touch() if case == "first_touch" else (
                block() if case == "mixed" else single_home(0))
            A = yield from env.alloc_array_g((2048,), name="A",
                                             distribution=dist)
            yield from env.barrier_g()
            yield from _charges_case(case, env, dsm, A)

        spmd(plat, main)
        assert (repr(engine.now), engine.events_executed) == (end, events)
        assert tuple((s["remote_reads"], s["remote_writes"], s["pages_mapped"])
                     for s in map(dsm.stats, range(4))) == ranks
        assert (net.remote_reads, net.remote_writes, net.remote_read_bytes,
                net.remote_write_bytes, net.atomics) == sci
        assert tuple((m.maps, m.evictions) for m in dsm._mappers) == mappers


class TestSync:
    def test_lock_and_barrier_use_atomics(self):
        plat = build()
        sci = plat.cluster.sci

        def main(env):
            yield from env.hamster.dsm.lock_g(1)
            yield from env.hamster.dsm.unlock_g(1)
            yield from env.barrier_g()
            return True

        spmd(plat, main)
        assert sci.atomics >= 2 * 2 + 2  # 2 per lock/unlock pair + barrier arrivals

    def test_unlock_flushes_write_buffer(self):
        plat = build()
        sci = plat.cluster.sci

        def main(env):
            if env.rank == 0:
                yield from env.hamster.dsm.lock_g(1)
                yield from env.hamster.dsm.unlock_g(1)
            yield from env.barrier_g()
            return True

        spmd(plat, main)
        # flush cost is charged; visible via the atomics + stats counters
        assert sci.atomics > 0

    def test_counter_under_lock(self):
        plat = build(4)

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (512,), name="c", distribution=single_home(0))
            if env.rank == 0:
                A[0] = 0.0
            env.barrier()
            for _ in range(3):
                env.lock(2)
                A[0] = float(A[0]) + 1.0
                env.unlock(2)
            env.barrier()
            return float(A[0])

        assert spmd(plat, main) == [12.0] * 4

    def test_try_lock(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            yield from env.barrier_g()
            if env.rank == 0:
                ok = yield from dsm.try_lock_g(9)
                yield from env.barrier_g()
                yield from env.barrier_g()
                yield from dsm.unlock_g(9)
                return ok
            yield from env.barrier_g()
            got = yield from dsm.try_lock_g(9)
            yield from env.barrier_g()
            return got

        assert spmd(plat, main) == [True, False]


class TestMapper:
    def test_att_eviction(self):
        mapper = RemoteMapper(0, att_entries=2)
        assert mapper.ensure_mapped(1)
        assert mapper.ensure_mapped(2)
        assert not mapper.ensure_mapped(1)  # already mapped
        assert mapper.ensure_mapped(3)      # evicts page 1 (FIFO)
        assert tuple(page in mapper._mapped for page in (1, 2, 3)) == (
            False, True, True)
        assert (mapper.maps, mapper.evictions) == (3, 1)


class TestProperties:
    def test_consistency_model_and_capabilities(self):
        plat = build()
        assert plat.dsm.consistency_model() == "release"
        caps = plat.dsm.capabilities()
        assert "hybrid_dsm" in caps
        assert "hardware_data_path" in caps
        assert "remote_put_get" in caps

    def test_first_touch_home(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (1024,), name="A", distribution=first_touch())
            env.barrier()
            A[env.rank * 512:(env.rank + 1) * 512] = 1.0
            env.barrier()
            return dsm.home_of(A.region.first_page + env.rank)

        assert spmd(plat, main) == [0, 1]

    def test_needs_sci_network(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="beowulf", dsm="scivm")
