"""Tests for the five HAMSTER core modules + monitoring + timing."""

import numpy as np
import pytest

from repro.config import preset
from repro.errors import (CapabilityError, ConfigurationError, HamsterError,
                          SynchronizationError, TaskError)
from repro.memory.layout import block
from tests.conftest import spmd


# ------------------------------------------------------------- MemoryMgmt
class TestMemoryMgmt:
    def test_alloc_and_free(self, smp2):
        def main(env):
            mem = env.hamster.memory
            if env.rank == 0:
                region = yield from mem.alloc_g(10000, name="r")
            yield from env.barrier_g()
            if env.rank == 0:
                yield from mem.free_g(region)
            yield from env.barrier_g()
            return mem.dsm.allocator.n_allocs, mem.dsm.allocator.n_frees

        allocs, frees = spmd(smp2, main)[0]
        assert allocs == 1 and frees == 1

    def test_coherence_constraint_honored(self, smp2):
        def main(env):
            mem = env.hamster.memory
            arr = yield from mem.alloc_array_g((8,), coherence="release",
                                               name="ok")
            with pytest.raises(CapabilityError):
                # SMP is processor
                yield from mem.alloc_g(64, coherence="sequential")
            return arr is not None

        assert all(spmd(smp2, main))

    def test_collective_alloc_returns_same_array(self, swdsm4):
        def main(env):
            a = env.hamster.memory.alloc_array_collective((8,), name="x")
            b = env.hamster.memory.alloc_array_collective((8,), name="y")
            return id(a), id(b)

        res = spmd(swdsm4, main)
        assert len({r[0] for r in res}) == 1
        assert len({r[1] for r in res}) == 1
        assert res[0][0] != res[0][1]

    def test_capability_probe(self, swdsm4):
        def main(env):
            mem = env.hamster.memory
            caps = yield from mem.capabilities_g()
            return "software_dsm" in caps, "nonsense" in caps

        assert spmd(swdsm4, main)[0] == (True, False)

    def test_distribution_annotation_passed_through(self, swdsm4):
        def main(env):
            arr = yield from env.hamster.memory.alloc_array_collective_g(
                (8, 512), name="b", distribution=block())
            yield from env.barrier_g()
            first = arr.region.first_page
            homes = []
            for i in range(8):
                homes.append((yield from env.hamster.dsm.home_of_g(first + i)))
            return homes

        assert spmd(swdsm4, main)[0] == [0, 0, 1, 1, 2, 2, 3, 3]


# --------------------------------------------------------------- SyncMgmt
class TestSyncMgmt:
    def test_new_lock_ids_unique(self, smp2):
        def main(env):
            s = env.hamster.sync
            return s.new_lock(), s.new_lock()

        ids = [i for pair in spmd(smp2, main) for i in pair]
        assert len(set(ids)) == 4

    def test_unlock_unheld_rejected(self, smp2):
        def main(env):
            with pytest.raises(SynchronizationError):
                env.hamster.sync.unlock(77)
            return True

        assert all(spmd(smp2, main))

    def test_condition_cross_rank(self, swdsm4):
        def main(env):
            s = env.hamster.sync
            # All ranks share the structures created by rank order; use a
            # collective region to stash nothing — conditions are runtime
            # objects shared via the model object, so create on all ranks
            # deterministically:
            return env.rank

        # Condition plumbing is exercised through semaphores below and the
        # thread-model tests; here check creation bookkeeping.
        def main2(env):
            s = env.hamster.sync
            lock = yield from s.new_lock_g()
            cond = yield from s.new_condition_g(lock)
            return cond.lock_id == lock

        assert all(spmd(swdsm4, main2))

    def test_semaphore_cross_rank(self, smp2):
        plat = smp2
        sems = {}

        def main(env):
            s = env.hamster.sync
            if env.rank == 0:
                sems["s"] = yield from s.new_semaphore_g(0)
            yield from env.barrier_g()
            sem = sems["s"]
            if env.rank == 0:
                yield 0.001
                yield from sem.release_g(1)
                return "released"
            yield from sem.acquire_g()
            return env.wtime() > 0

        res = spmd(plat, main)
        assert res[0] == "released" and res[1] is True

    def test_barrier_counts(self, smp2):
        def main(env):
            env.barrier()
            env.barrier()
            return env.hamster.sync.stats.query("barriers")

        assert spmd(smp2, main)[-1] == 4


# --------------------------------------------------------------- TaskMgmt
class TestTaskMgmt:
    def test_identity(self, swdsm4):
        def main(env):
            t = env.hamster.task
            return t.my_rank(), t.n_tasks()

        assert spmd(swdsm4, main) == [(r, 4) for r in range(4)]

    def test_spawn_and_join(self, smp2):
        def main(env):
            if env.rank != 0:
                return None
            t = env.hamster.task
            handle = t.spawn_local(1, lambda: 123, name="w")
            return t.join(handle)

        assert spmd(smp2, main)[0] == 123

    def test_spawned_task_bound_to_rank(self, swdsm4):
        def main(env):
            if env.rank != 0:
                return None
            t = env.hamster.task

            def probe():
                return env.hamster.dsm.current_rank()

            return t.join(t.spawn_local(2, probe))

        assert spmd(swdsm4, main)[0] == 2

    def test_unknown_task_rejected(self, smp2):
        def main(env):
            with pytest.raises(TaskError):
                env.hamster.task.join(99999)
            return True

        assert all(spmd(smp2, main))

    def test_spawn_cost_charged(self, smp2):
        def main(env):
            if env.rank != 0:
                return None
            t0 = env.wtime()
            env.hamster.task.join(env.hamster.task.spawn_local(0, lambda: None))
            return env.wtime() - t0

        elapsed = spmd(smp2, main)[0]
        assert elapsed >= smp2.hamster.params.task_spawn_cost


# ----------------------------------------------------------- ClusterControl
class TestClusterControl:
    def test_node_identity(self, swdsm4, smp2):
        def main(env):
            cc = env.hamster.cluster_ctl
            return (yield from cc.my_node_g()), (yield from cc.n_nodes_g())

        assert spmd(swdsm4, main) == [(r, 4) for r in range(4)]
        assert spmd(smp2, main) == [(0, 1), (0, 1)]

    def test_node_params(self, hybrid4):
        def main(env):
            return (yield from env.hamster.cluster_ctl.node_params_g())

        params = spmd(hybrid4, main)[0]
        assert params["interconnect"] == "sci"
        assert params["dsm"] == "scivm"
        assert params["page_size"] == 4096

    def test_user_messaging_remote(self, swdsm4):
        def main(env):
            cc = env.hamster.cluster_ctl
            if env.rank == 0:
                yield from cc.send_msg_g(3, {"hello": "world"})
                return None
            if env.rank == 3:
                src, payload = yield from cc.recv_msg_g()
                return src, payload
            return None

        assert spmd(swdsm4, main)[3] == (0, {"hello": "world"})

    def test_user_messaging_local(self, smp2):
        def main(env):
            cc = env.hamster.cluster_ctl
            if env.rank == 0:
                yield from cc.send_msg_g(1, "ping")
                return None
            return (yield from cc.recv_msg_g())

        assert spmd(smp2, main)[1] == (0, "ping")

    def test_registry_publish_lookup(self, swdsm4):
        def main(env):
            cc = env.hamster.cluster_ctl
            if env.rank == 2:
                yield from cc.publish_g("key", [1, 2, 3])
            yield from env.barrier_g()
            return (yield from cc.lookup_g("key"))

        assert spmd(swdsm4, main) == [[1, 2, 3]] * 4

    def test_lookup_missing_key(self, smp2):
        def main(env):
            with pytest.raises(ConfigurationError):
                yield from env.hamster.cluster_ctl.lookup_g("nope")
            return True

        assert all(spmd(smp2, main))


# ------------------------------------------------------ monitoring / timing
class TestMonitoring:
    def test_module_counters_independent(self, smp2):
        def main(env):
            env.barrier()
            h = env.hamster
            return (h.sync.stats.query("barriers"),
                    h.memory.stats.query("allocations"))

        barriers, allocs = spmd(smp2, main)[-1]
        assert barriers == 2 and allocs == 0

    def test_query_all_tree(self, smp2):
        def main(env):
            env.barrier()
            return None

        spmd(smp2, main)
        tree = smp2.hamster.query_statistics()
        assert "sync" in tree and "memory" in tree and "dsm" in tree
        assert tree["dsm"]["rank0"]["barriers"] == 1

    def test_reset_all(self, smp2):
        def main(env):
            env.barrier()
            return None

        spmd(smp2, main)
        smp2.hamster.reset_statistics()
        assert smp2.hamster.sync.stats.query("barriers") == 0
        assert smp2.hamster.dsm.stats(0)["barriers"] == 0

    def test_subscription(self, smp2):
        seen = []
        smp2.hamster.sync.stats.subscribe(
            lambda mod, counter, value: seen.append((mod, counter, value)))

        def main(env):
            env.barrier()
            return None

        spmd(smp2, main)
        assert ("sync", "barriers", 1) in seen


class TestTiming:
    def test_wtime_is_virtual(self, smp2):
        def main(env):
            t0 = env.wtime()
            env.hamster.engine.current_process.hold(0.5)
            return env.wtime() - t0

        assert spmd(smp2, main) == [0.5, 0.5]

    def test_phase_timer(self, smp2):
        def main(env):
            if env.rank != 0:
                return None
            timer = env.hamster.timing.phase("compute")
            timer.start()
            env.hamster.engine.current_process.hold(0.25)
            timer.stop()
            timer.start()
            env.hamster.engine.current_process.hold(0.25)
            timer.stop()
            return timer.total, timer.count

        total, count = spmd(smp2, main)[0]
        assert total == pytest.approx(0.5) and count == 2

    def test_timer_misuse(self, smp2):
        timer = smp2.hamster.timing.phase("x")
        with pytest.raises(HamsterError):
            timer.stop()
        timer.start()
        with pytest.raises(HamsterError):
            timer.start()


class TestCallOverhead:
    def test_hamster_calls_cost_time(self):
        plat = preset("smp-2").build()

        def main(env):
            t0 = env.wtime()
            for _ in range(100):
                env.hamster.task.my_rank()
            return env.wtime() - t0

        elapsed = max(spmd(plat, main))
        expected = 100 * plat.hamster.params.hamster_call_overhead
        assert elapsed == pytest.approx(expected, rel=0.01)

    def test_zero_overhead_configuration(self):
        from repro.config import ClusterConfig

        plat = ClusterConfig(platform="smp", dsm="smp", nodes=2,
                             call_overhead=0.0).build()

        def main(env):
            t0 = env.wtime()
            for _ in range(100):
                env.hamster.task.my_rank()
            return env.wtime() - t0

        assert max(spmd(plat, main)) == 0.0
