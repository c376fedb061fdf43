"""Unit tests for the interconnect models (Ethernet, SCI)."""

import pytest

from repro.errors import MessagingError
from repro.machine.cluster import Cluster
from repro.machine.ethernet import EthernetNetwork
from repro.machine.interconnect import Message
from repro.machine.params import PAPER_PLATFORM
from repro.machine.sci import SciInterconnect
from repro.sim.engine import Engine
from tests.conftest import run_procs


def _collect(net, node_id, sink):
    net.register_delivery(node_id, sink.append)


class TestNetworkBase:
    def test_delivery_time_latency_plus_bandwidth(self, engine):
        p = PAPER_PLATFORM
        net = EthernetNetwork(engine, 2, p)
        got = []
        _collect(net, 1, got)
        size = 11000  # ~1ms at 11 MB/s
        net.send(Message(src=0, dst=1, kind="x", size=size))
        engine.run()
        msg = got[0]
        expected = (size + net.framing_bytes) / p.eth_bandwidth + p.eth_latency
        assert msg.recv_time == pytest.approx(expected)

    def test_nic_serializes_sends(self, engine):
        p = PAPER_PLATFORM
        net = EthernetNetwork(engine, 2, p)
        got = []
        _collect(net, 1, got)
        size = int(p.eth_bandwidth)  # 1 second on the wire each
        net.send(Message(src=0, dst=1, kind="a", size=size))
        net.send(Message(src=0, dst=1, kind="b", size=size))
        engine.run()
        assert got[1].recv_time - got[0].recv_time == pytest.approx(
            (size + net.framing_bytes) / p.eth_bandwidth)

    def test_same_pair_ordering_preserved(self, engine):
        net = EthernetNetwork(engine, 2, PAPER_PLATFORM)
        got = []
        _collect(net, 1, got)
        for i in range(5):
            net.send(Message(src=0, dst=1, kind=str(i), size=100))
        engine.run()
        assert [m.kind for m in got] == ["0", "1", "2", "3", "4"]

    def test_unknown_destination_rejected(self, engine):
        net = EthernetNetwork(engine, 2, PAPER_PLATFORM)
        with pytest.raises(MessagingError):
            net.send(Message(src=0, dst=1, kind="x", size=1))  # no callback
        with pytest.raises(MessagingError):
            net.send(Message(src=0, dst=9, kind="x", size=1))

    def test_stats(self, engine):
        net = EthernetNetwork(engine, 2, PAPER_PLATFORM)
        got = []
        _collect(net, 1, got)
        net.send(Message(src=0, dst=1, kind="x", size=100))
        engine.run()
        assert net.messages_sent == 1
        assert net.bytes_sent == 100 + net.framing_bytes
        net.reset_stats()
        assert net.messages_sent == 0


class TestEthernetCosts:
    def test_tcp_overheads_exposed(self, engine):
        p = PAPER_PLATFORM
        net = EthernetNetwork(engine, 2, p)
        assert net.sender_cpu_overhead() == p.tcp_send_overhead
        assert net.receiver_cpu_overhead() == p.tcp_recv_overhead


class TestSciTransactions:
    def test_remote_read_cost(self, engine):
        p = PAPER_PLATFORM
        sci = SciInterconnect(engine, 2, p)

        def body(proc):
            yield from sci.remote_read_g(int(p.sci_read_bandwidth))  # 1s of data
            return proc.now

        t = run_procs(engine, body)[0]
        assert t == pytest.approx(1.0 + p.sci_read_latency)
        assert sci.remote_reads == 1

    def test_write_cheaper_than_read_small(self, engine):
        p = PAPER_PLATFORM
        sci = SciInterconnect(engine, 2, p)
        times = {}

        def remote_reader(proc):
            yield from sci.remote_read_g(64)
            times["r"] = proc.now

        def remote_writer(proc):
            yield from sci.remote_write_g(64)
            times["w"] = proc.now

        run_procs(engine, remote_reader, remote_writer)
        assert times["w"] < times["r"]

    def test_atomic_cost(self, engine):
        p = PAPER_PLATFORM
        sci = SciInterconnect(engine, 2, p)

        def body(proc):
            yield sci.atomic_cost()
            return proc.now

        assert run_procs(engine, body)[0] == p.sci_atomic_latency
        assert sci.atomics == 1

    def test_page_mapping_cost(self, engine):
        p = PAPER_PLATFORM
        sci = SciInterconnect(engine, 2, p)
        assert sci.map_cost(3) == pytest.approx(3 * p.sci_map_page_cost)
        assert sci.map_cost(0) == 0.0

    def test_transactions_require_process_context(self, engine):
        sci = SciInterconnect(engine, 2, PAPER_PLATFORM)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            engine.kernel(sci.remote_read_g(64))

    def test_zero_byte_transactions_free(self, engine):
        sci = SciInterconnect(engine, 2, PAPER_PLATFORM)

        def body(proc):
            yield from sci.remote_read_g(0)
            yield from sci.remote_write_g(0)
            return proc.now

        assert run_procs(engine, body) == [0.0]
        assert (sci.read_cost(0, 0, 1), sci.write_cost(0, 0, 1)) == (0.0, 0.0)
        assert (sci.remote_reads, sci.remote_writes) == (0, 0)
        assert (sci.remote_read_bytes, sci.remote_write_bytes) == (0, 0)

    def test_reset_stats_clears_the_transaction_counters(self, engine):
        sci = SciInterconnect(engine, 2, PAPER_PLATFORM)

        def body(proc):
            yield from sci.remote_read_g(64)
            yield from sci.remote_write_g(32)
            yield sci.atomic_cost()

        run_procs(engine, body)
        counters = ("remote_reads", "remote_writes", "remote_read_bytes",
                    "remote_write_bytes", "atomics")
        assert [getattr(sci, c) for c in counters] == [1, 1, 64, 32, 1]
        sci.reset_stats()
        assert [getattr(sci, c) for c in counters] == [0] * 5
        assert sci.messages_sent == 0

    def test_sci_message_overheads_far_below_tcp(self, engine):
        p = PAPER_PLATFORM
        sci = SciInterconnect(engine, 2, p)
        assert sci.sender_cpu_overhead() < p.tcp_send_overhead / 5
