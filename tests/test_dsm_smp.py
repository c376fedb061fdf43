"""Tests for the hardware-coherent SMP memory system."""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.sim.engine import Engine
from tests.conftest import spmd


class TestSmpSemantics:
    def test_single_copy_immediately_coherent(self, smp2):
        def main(env):
            A = yield from env.alloc_array_g((64,), name="A")
            yield from env.barrier_g()
            if env.rank == 0:
                yield from A.set_g(0, 3.0)
                yield from env.hamster.cluster_ctl.send_msg_g(1, "go")
            else:
                yield from env.hamster.cluster_ctl.recv_msg_g()
                return float((yield from A.get_g(0)))
            return None

        assert spmd(smp2, main)[1] == 3.0

    def test_bus_contention_shows_up(self):
        """Two ranks streaming memory simultaneously take ~2x one rank's
        time — the Figure 4 MatMult mechanism."""
        def run(n_ranks):
            plat = ClusterConfig(platform="smp", dsm="smp", nodes=2,
                                 ranks=n_ranks).build()

            def main(env):
                A = env.hamster.memory.alloc_array_collective(
                    (1 << 20,), np.uint8, name="A")
                env.barrier()
                t0 = env.wtime()
                _ = A[:]
                return env.wtime() - t0

            return max(spmd(plat, main))

        t1, t2 = run(1), run(2)
        assert t2 > 1.8 * t1

    def test_locks_and_barrier(self, smp2):
        def main(env):
            A = env.hamster.memory.alloc_array_collective((8,), name="c")
            if env.rank == 0:
                A[0] = 0.0
            env.barrier()
            for _ in range(10):
                env.lock(0)
                A[0] = float(A[0]) + 1.0
                env.unlock(0)
            env.barrier()
            return float(A[0])

        assert spmd(smp2, main) == [20.0, 20.0]

    def test_try_lock(self, smp2):
        dsm = smp2.dsm

        def main(env):
            yield from env.barrier_g()
            if env.rank == 0:
                ok = yield from dsm.try_lock_g(1)
                yield from env.barrier_g()
                yield from env.barrier_g()
                yield from dsm.unlock_g(1)
                return ok
            yield from env.barrier_g()
            got = yield from dsm.try_lock_g(1)
            yield from env.barrier_g()
            return got

        assert spmd(smp2, main) == [True, False]

    def test_sync_is_cheap(self, smp2):
        def main(env):
            t0 = env.wtime()
            for _ in range(10):
                env.barrier()
            return (env.wtime() - t0) / 10

        per_barrier = max(spmd(smp2, main))
        assert per_barrier < 20e-6  # OS-primitive cost, no network


class TestSmpConfig:
    def test_needs_single_node(self, engine):
        cl = Cluster.beowulf(engine, 2)
        from repro.dsm.smp import SmpMemorySystem

        with pytest.raises(ConfigurationError):
            SmpMemorySystem(cl)

    def test_ranks_bounded_by_cpus(self, engine):
        cl = Cluster.smp(engine, n_cpus=2)
        from repro.dsm.smp import SmpMemorySystem

        with pytest.raises(ConfigurationError):
            SmpMemorySystem(cl, n_procs=4)

    def test_capabilities_and_model(self, smp2):
        caps = smp2.dsm.capabilities()
        assert "hardware_coherence" in caps
        assert "consistency:processor" in caps
        # Weaker models ride free on the stronger hardware (§4.5).
        assert "consistency:release" in caps
        assert "consistency:scope" in caps
        assert smp2.dsm.consistency_model() == "processor"

    def test_home_is_always_local(self, smp2):
        assert smp2.dsm.home_of(12345) == 0
