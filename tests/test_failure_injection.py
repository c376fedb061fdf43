"""Failure-injection and robustness tests.

Production middleware must fail *loudly and precisely*: every misuse below
must surface as the right exception type at the right place, and never as
a hang, a silent corruption, or a wrong-layer error.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.errors import (AllocationError, DeadlockError, MessagingError,
                          SimulationError, SynchronizationError)
from tests.conftest import spmd


class TestDeadlocks:
    def test_lock_cycle_detected(self):
        """Classic ABBA deadlock ends as DeadlockError, not a hang."""
        plat = preset("smp-2").build()

        def main(env):
            first, second = (1, 2) if env.rank == 0 else (2, 1)
            env.lock(first)
            env.barrier()          # both hold their first lock
            env.lock(second)       # ...and block forever on the other
            return "unreachable"

        with pytest.raises(DeadlockError):
            spmd(plat, main)

    def test_missing_barrier_participant_detected(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            if env.rank == 0:
                env.barrier()      # rank 1 never arrives
            return None

        with pytest.raises(DeadlockError):
            spmd(plat, main)

    def test_recv_without_send_detected(self):
        plat = preset("smp-2").build()

        def main(env):
            if env.rank == 0:
                yield from env.hamster.cluster_ctl.recv_msg_g()
            return None

        with pytest.raises(DeadlockError):
            spmd(plat, main)

    def test_deadlock_error_names_the_blocked_processes(self):
        plat = preset("smp-2").build()

        def main(env):
            env.lock(0)  # both ranks: second blocks forever, first exits
            return None  # rank that got the lock exits WITHOUT unlocking

        with pytest.raises(DeadlockError, match="spmd"):
            spmd(plat, main)


class TestResourceExhaustion:
    def test_allocation_failure_mid_application(self):
        plat = preset("smp-2").build()
        plat.dsm.allocator.capacity = 16 * 4096
        plat.dsm.allocator._free = [(0x4000_0000, 16 * 4096)]

        def main(env):
            env.hamster.memory.alloc_array_collective(
                (4096,), name="ok")  # 8 pages of 16
            with pytest.raises(AllocationError):
                env.hamster.memory.alloc_array_collective(
                    (8192,), name="too-big")  # needs 16 more
            return True

        assert all(spmd(plat, main))

    def test_allocation_failure_message_is_actionable(self):
        plat = preset("smp-2").build()
        plat.dsm.allocator.capacity = 4096
        plat.dsm.allocator._free = [(0x4000_0000, 4096)]

        def main(env):
            if env.rank == 0:
                with pytest.raises(AllocationError, match="largest free block"):
                    yield from env.hamster.memory.alloc_g(40960)
            return True

        assert all(spmd(plat, main))


class TestMisuseSurfacesCorrectly:
    def test_app_exception_aborts_whole_run(self):
        plat = preset("sw-dsm-4").build()

        def main(env):
            if env.rank == 2:
                raise RuntimeError("rank 2 exploded")
            env.barrier()
            return None

        with pytest.raises(RuntimeError, match="rank 2 exploded"):
            spmd(plat, main)

    def test_double_unlock_is_sync_error(self):
        plat = preset("smp-2").build()

        def main(env):
            if env.rank == 0:
                env.lock(1)
                env.unlock(1)
                with pytest.raises(SynchronizationError):
                    env.unlock(1)
            return True

        assert all(spmd(plat, main))

    def test_unbound_task_access_is_clear(self):
        plat = preset("smp-2").build()
        from repro.sim.process import SimProcess

        def rogue(proc):
            with pytest.raises(SimulationError, match="not bound"):
                plat.dsm.current_rank()
            return True

        p = SimProcess(plat.engine, rogue).start()
        plat.engine.run()
        assert p.result

    def test_freed_region_access_fails(self):
        plat = preset("smp-2").build()

        def main(env):
            if env.rank == 0:
                memory = env.hamster.memory
                arr = yield from memory.alloc_array_g((64,), name="tmp")
                yield from memory.free_g(arr)
                with pytest.raises(KeyError):
                    yield from arr.set_g(0, 1.0)  # backing store is gone
            return True

        assert all(spmd(plat, main))

    def test_message_to_invalid_rank(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            if env.rank == 0:
                with pytest.raises(MessagingError):
                    yield from env.hamster.cluster_ctl.send_msg_g(7, "x")
            return True

        assert all(spmd(plat, main))


class TestHandlerFaults:
    def test_exception_in_message_handler_propagates(self):
        """A crash inside a protocol handler (server process) must abort
        the simulation with the original exception, not hang the sender."""
        plat = preset("sw-dsm-2").build()
        chan = plat.fabric.channel("faulty")

        def handler(msg):
            raise ValueError("handler crashed")

        chan.register_all("boom", lambda nid: handler)

        def main(env):
            if env.rank == 0:
                yield from chan.rpc_g(0, 1, "boom")
            return None

        with pytest.raises(ValueError, match="handler crashed"):
            spmd(plat, main)


class TestNumericalEdges:
    def test_single_rank_platform(self):
        plat = ClusterConfig(platform="beowulf", dsm="jiajia", nodes=1).build()

        def main(env):
            A = env.hamster.memory.alloc_array_collective((64,), name="A")
            A[:] = 2.0
            env.barrier()
            env.lock(0)
            A[0] = 5.0
            env.unlock(0)
            env.barrier()
            return float(A[:].sum())

        assert spmd(plat, main) == [63 * 2.0 + 5.0]

    def test_tiny_arrays_share_one_page(self):
        """Many sub-page allocations must stay isolated (no cross-region
        bleed through the page machinery)."""
        plat = preset("sw-dsm-2").build()

        def main(env):
            arrays = [env.hamster.memory.alloc_array_collective(
                (4,), name=f"tiny{i}") for i in range(5)]
            env.barrier()
            if env.rank == 0:
                for i, arr in enumerate(arrays):
                    arr[:] = float(i)
            env.barrier()
            return [float(arr[0]) for arr in arrays]

        for values in spmd(plat, main):
            assert values == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_empty_write_is_noop(self):
        plat = preset("sw-dsm-2").build()

        def main(env):
            A = env.hamster.memory.alloc_array_collective((8,), name="A")
            env.barrier()
            A[3:3] = np.zeros(0)
            env.barrier()
            return env.hamster.dsm.stats(env.rank)["write_faults"]

        assert spmd(plat, main) == [0, 0]
