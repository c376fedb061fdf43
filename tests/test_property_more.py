"""Additional property-based suites: messaging delivery, random write/read
equivalence against a numpy model, and composite-DSM equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, preset
from repro.machine.cluster import Cluster
from repro.msg.active_messages import Reply
from repro.msg.coalesce import MessagingFabric
from repro.sim.engine import Engine
from repro.sim.process import SimProcess


class TestMessagingProperties:
    @settings(max_examples=25, deadline=None)
    @given(sends=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4096)),
        min_size=1, max_size=30))
    def test_every_post_delivered_exactly_once_in_pair_order(self, sends):
        engine = Engine()
        cluster = Cluster.beowulf(engine, 4)
        fabric = MessagingFabric(cluster)
        chan = fabric.channel("prop")
        received = []
        chan.register_all("m", lambda nid: (
            lambda msg: received.append((msg.src, msg.dst, msg.payload))))

        def sender(proc):
            for i, (src, dst, size) in enumerate(sends):
                yield from chan.post_g(src, dst, "m", payload=i, size=size)

        # One driver process issues all posts (charges costs on src nodes).
        SimProcess(engine, sender).start()
        engine.run()
        assert len(received) == len(sends)
        assert sorted(p for _, _, p in received) == list(range(len(sends)))
        # Per (src, dst) pair, delivery preserves send order.
        for src in range(4):
            for dst in range(4):
                sent = [i for i, (s, d, _) in enumerate(sends)
                        if (s, d) == (src, dst)]
                got = [p for s, d, p in received if (s, d) == (src, dst)]
                assert got == sent

    @settings(max_examples=15, deadline=None)
    @given(payloads=st.lists(st.integers(0, 1000), min_size=1, max_size=10))
    def test_rpc_responses_match_requests(self, payloads):
        engine = Engine()
        cluster = Cluster.beowulf(engine, 2)
        fabric = MessagingFabric(cluster)
        chan = fabric.channel("rpc")
        chan.register_all("echo", lambda nid: (
            lambda msg: Reply(payload=("echo", msg.payload), size=8)))

        def client(proc):
            replies = []
            for p in payloads:
                replies.append((yield from chan.rpc_g(0, 1, "echo", payload=p,
                                                      size=8)))
            return replies

        proc = SimProcess(engine, client).start()
        engine.run()
        assert proc.result == [("echo", p) for p in payloads]


@st.composite
def write_programs(draw):
    """Random single-array write programs with disjoint-writer rows."""
    n_phases = draw(st.integers(1, 3))
    out = []
    for _ in range(n_phases):
        phase = []
        for rank in range(2):
            writes = []
            for _ in range(draw(st.integers(0, 3))):
                row = draw(st.integers(0, 15))
                c0 = draw(st.integers(0, 15))
                c1 = draw(st.integers(c0 + 1, 16))
                writes.append((row, c0, c1, float(draw(st.integers(1, 9)))))
            phase.append(writes)
        out.append(phase)
    return out


def run_program(platform_name, program):
    plat = preset(platform_name).build()

    def main(env):
        A = env.alloc_array((16, 16), name="A")
        if env.rank == 0:
            A[:, :] = 0.0
        env.barrier()
        for phase in program:
            for row, c0, c1, value in phase[env.rank]:
                if row % 2 == env.rank:  # disjoint writers
                    A[row, c0:c1] = value
            env.barrier()
        return A[:, :]

    results = plat.hamster.run_spmd(main)
    return results[0]


def numpy_model(program):
    A = np.zeros((16, 16))
    for phase in program:
        for rank in range(2):
            for row, c0, c1, value in phase[rank]:
                if row % 2 == rank:
                    A[row, c0:c1] = value
    return A


class TestWriteReadEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(program=write_programs())
    def test_swdsm_matches_numpy_model(self, program):
        np.testing.assert_array_equal(run_program("sw-dsm-2", program),
                                      numpy_model(program))

    @settings(max_examples=15, deadline=None)
    @given(program=write_programs())
    def test_hybrid_matches_numpy_model(self, program):
        np.testing.assert_array_equal(run_program("hybrid-2", program),
                                      numpy_model(program))


class TestCompositeEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(program=write_programs(),
           table_system=st.sampled_from(["jiajia", "scivm"]))
    def test_composite_matches_smp(self, program, table_system):
        """A random program over a region on either child of the composite
        produces exactly the SMP's result."""
        plat = ClusterConfig(platform="sci", dsm="composite", nodes=2).build()
        dsm = plat.dsm
        holders = {}

        def main(env):
            if env.rank == 0:
                holders["A"] = dsm.make_array_on(table_system, (16, 16), name="A")
                holders["A"][:, :] = 0.0
            env.barrier()
            A = holders["A"]
            for phase in program:
                for row, c0, c1, value in phase[env.rank]:
                    if row % 2 == env.rank:
                        A[row, c0:c1] = value
                env.barrier()
            return A[:, :]

        results = plat.hamster.run_spmd(main)
        np.testing.assert_array_equal(results[0], numpy_model(program))
        np.testing.assert_array_equal(results[1], numpy_model(program))
