"""Tests for the SCI ringlet topology model (hop-dependent latency)."""

from functools import partial

import pytest

from repro.machine.cluster import Cluster
from repro.machine.params import PAPER_PLATFORM
from repro.machine.sci import SciInterconnect
from repro.sim.engine import Engine
from tests.conftest import run_procs


def make_sci(engine, n=4, hop=0.35e-6):
    params = PAPER_PLATFORM.with_overrides(sci_hop_latency=hop)
    return SciInterconnect(engine, n, params)


class TestHopDelay:
    def test_forward_ring_distance(self, engine):
        sci = make_sci(engine, n=4)
        hop = sci.params.sci_hop_latency
        assert sci.hop_delay(0, 1) == pytest.approx(hop)
        assert sci.hop_delay(0, 3) == pytest.approx(3 * hop)
        assert sci.hop_delay(3, 0) == pytest.approx(hop)  # wraps forward

    def test_asymmetry_is_a_ring_property(self, engine):
        sci = make_sci(engine, n=4)
        # 1 -> 3 is two hops; 3 -> 1 is two hops the other way round: equal
        # here, but 0 -> 3 (3 hops) != 3 -> 0 (1 hop).
        assert sci.hop_delay(0, 3) != sci.hop_delay(3, 0)

    def test_local_and_unknown_are_free(self, engine):
        sci = make_sci(engine, n=4)
        assert sci.hop_delay(2, 2) == 0.0
        assert sci.hop_delay(None, 1) == 0.0
        assert sci.hop_delay(1, None) == 0.0

    def test_disabled_topology(self, engine):
        sci = make_sci(engine, n=4, hop=0.0)
        assert sci.hop_delay(0, 3) == 0.0


class TestTransactionCosts:
    def test_read_cost_increases_with_distance(self, engine):
        sci = make_sci(engine, n=4)
        times = {}

        def reader(proc, dst):
            t0 = proc.now
            yield from sci.remote_read_g(64, src=0, dst=dst)
            times[dst] = proc.now - t0

        run_procs(engine, partial(reader, dst=1), partial(reader, dst=3))
        assert times[3] > times[1]
        assert times[3] - times[1] == pytest.approx(
            2 * sci.params.sci_hop_latency)

    def test_atomic_cost_includes_hops(self, engine):
        sci = make_sci(engine, n=8)

        def body(proc):
            t0 = proc.now
            yield sci.atomic_cost(src=0, dst=7)
            return proc.now - t0

        elapsed = run_procs(engine, body)[0]
        assert elapsed == pytest.approx(
            sci.params.sci_atomic_latency + 7 * sci.params.sci_hop_latency)

    def test_backward_compatible_default(self, engine):
        """Transactions without endpoints behave exactly as before."""
        sci = make_sci(engine, n=4)

        def body(proc):
            t0 = proc.now
            yield from sci.remote_read_g(64)
            return proc.now - t0

        elapsed = run_procs(engine, body)[0]
        assert elapsed == pytest.approx(
            sci.params.sci_read_latency + 64 / sci.params.sci_read_bandwidth)


class TestEndToEnd:
    def test_hybrid_access_pays_ring_distance(self):
        """Through the full stack: a rank reading from a 3-hops-away home
        takes longer than from the adjacent one."""
        from repro.config import ClusterConfig
        from repro.memory.layout import single_home

        def access_time(home_rank):
            plat = ClusterConfig(platform="sci", dsm="scivm", nodes=4).build()

            def main(env):
                A = env.hamster.memory.alloc_array_collective(
                    (8,), name="A", distribution=single_home(home_rank))
                env.barrier()
                if env.rank == 0 and home_rank != 0:
                    t0 = env.wtime()
                    _ = A[0]
                    return env.wtime() - t0
                return None

            return plat.hamster.run_spmd(main)[0]

        near, far = access_time(1), access_time(3)
        assert far > near
