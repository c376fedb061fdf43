"""Contention behaviour of the distributed synchronization services."""

import pytest

from repro.config import ClusterConfig, preset
from tests.conftest import spmd


class TestDistributedLockFairness:
    @pytest.mark.parametrize("platform", ["sw-dsm-4", "hybrid-4", "smp-2"])
    def test_contended_lock_serializes_all_ranks(self, platform):
        plat = preset(platform).build()
        order = []

        def main(env):
            env.barrier()
            env.lock(5)
            order.append(env.rank)
            env.hamster.engine.current_process.hold(1e-3)
            env.unlock(5)
            env.barrier()
            return True

        assert all(spmd(plat, main))
        assert sorted(order) == list(range(plat.hamster.n_ranks))
        assert len(set(order)) == len(order)  # each exactly once

    def test_lock_wait_time_reflects_contention(self):
        plat = preset("sw-dsm-4").build()
        dsm = plat.dsm

        def main(env):
            env.barrier()
            env.lock(2)
            env.hamster.engine.current_process.hold(5e-3)  # long section
            env.unlock(2)
            env.barrier()
            return dsm.stats(env.rank)["lock_wait_time"]

        waits = spmd(plat, main)
        # The last rank to get the lock waited roughly 3 critical sections.
        assert max(waits) > 10e-3
        assert min(waits) < 5e-3

    def test_independent_locks_do_not_serialize(self):
        plat = preset("sw-dsm-4").build()

        def run(shared: bool):
            p = preset("sw-dsm-4").build()

            def main(env):
                env.barrier()
                lock_id = 7 if shared else 10 + env.rank
                env.lock(lock_id)
                env.hamster.engine.current_process.hold(2e-3)
                env.unlock(lock_id)
                env.barrier()
                return None

            p.hamster.run_spmd(main)
            return p.engine.now

        assert run(shared=False) < run(shared=True)

    def test_manager_locality_matters_on_swdsm(self):
        """Acquiring a self-managed lock skips the network round trip."""
        plat = preset("sw-dsm-4").build()

        def main(env):
            dsm = env.hamster.dsm
            yield from env.barrier_g()
            t0 = env.wtime()
            yield from dsm.lock_g(env.rank + 4)       # manager == self (id%4)
            yield from dsm.unlock_g(env.rank + 4)
            local = env.wtime() - t0
            yield from env.barrier_g()
            t0 = env.wtime()
            yield from dsm.lock_g(env.rank + 1 + 4 * 2)  # manager == rank+1
            yield from dsm.unlock_g(env.rank + 1 + 4 * 2)
            remote = env.wtime() - t0
            yield from env.barrier_g()
            return local, remote

        for local, remote in spmd(plat, main):
            assert local < remote


class TestBarrierBehaviour:
    def test_barrier_time_grows_with_ranks_on_ethernet(self):
        def barrier_cost(nodes):
            plat = ClusterConfig(platform="beowulf", dsm="jiajia",
                                 nodes=nodes).build()

            def main(env):
                env.barrier()  # warm up managers
                t0 = env.wtime()
                for _ in range(5):
                    env.barrier()
                return (env.wtime() - t0) / 5

            return max(spmd(plat, main))

        assert barrier_cost(4) > barrier_cost(2)

    def test_repeated_barriers_stay_cheap_when_clean(self):
        """Barriers with no dirty data carry no diffs/notices — cost is
        flat, not accumulating."""
        plat = preset("sw-dsm-4").build()

        def main(env):
            costs = []
            for _ in range(6):
                t0 = env.wtime()
                env.barrier()
                costs.append(env.wtime() - t0)
            return costs

        costs = spmd(plat, main)[0]
        assert max(costs[2:]) < 2 * min(costs[2:]) + 1e-6

    def test_barrier_interleaves_with_locks_safely(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            A = env.hamster.memory.alloc_array_collective((64,), name="A")
            for it in range(3):
                env.lock(1)
                A[0] = float(A[0]) + 1.0
                env.unlock(1)
                env.barrier()
            return float(A[0])

        assert spmd(plat, main) == [6.0, 6.0]
