"""Protocol tests for the SCI-VM-style hybrid DSM."""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.dsm.scivm.mapping import RemoteMapper
from repro.machine.cluster import Cluster
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
            A = env.alloc_array((512,), name="A", distribution=block())
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
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
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
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
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
            A = env.alloc_array((1024,), name="A", distribution=block())
            env.barrier()
            if env.rank == 0:
                A[:] = 1.0  # half local, half remote
            env.barrier()
            return dsm.stats(env.rank)

        stats = spmd(plat, main)[0]
        assert stats["remote_writes"] == 1   # only the remote page's chunk


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
            A = env.alloc_array((512,), name="c", distribution=single_home(0))
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
    def test_att_eviction(self, engine):
        cl = Cluster.sci_cluster(engine, 2)
        mapper = RemoteMapper(cl.sci, 0, att_entries=2)

        def body(proc):
            assert (yield from mapper.ensure_mapped_g(1))
            assert (yield from mapper.ensure_mapped_g(2))
            assert not (yield from mapper.ensure_mapped_g(1))  # already mapped
            assert (yield from mapper.ensure_mapped_g(3))  # evicts page 1 (FIFO)
            return tuple(page in mapper._mapped for page in (1, 2, 3))

        from tests.conftest import run_procs
        res = run_procs(engine, body)[0]
        assert res == (False, True, True)
        assert mapper.evictions == 1


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
            A = env.alloc_array((1024,), name="A", distribution=first_touch())
            env.barrier()
            A[env.rank * 512:(env.rank + 1) * 512] = 1.0
            env.barrier()
            return dsm.home_of(A.region.first_page + env.rank)

        assert spmd(plat, main) == [0, 1]

    def test_needs_sci_network(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="beowulf", dsm="scivm")
