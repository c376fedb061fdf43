"""Unit tests for the active-message layer and channel coalescing."""

import pytest

from repro.errors import MessagingError
from repro.faults.inject import FaultyNetwork
from repro.faults.plan import FaultPlan, LinkFaults
from repro.machine.cluster import Cluster
from repro.machine.params import PAPER_PLATFORM
from repro.msg.active_messages import ActiveMessageLayer, Reply
from repro.msg.coalesce import MessagingFabric
from repro.sim.engine import Engine
from repro.sim.process import SimProcess


def make_cluster(engine, n=2):
    return Cluster.beowulf(engine, n)


class TestActiveMessages:
    def test_post_invokes_handler(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)
        got = []
        layer.register(1, "evt", lambda msg: got.append(msg.payload))

        def client(proc):
            yield from layer.post_g(0, 1, "evt", payload={"k": 1}, size=16)

        SimProcess(engine, client).start()
        engine.run()
        assert got == [{"k": 1}]

    def test_rpc_roundtrip(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)
        layer.register(1, "double", lambda msg: Reply(payload=msg.payload * 2, size=8))

        def client(proc):
            return (yield from layer.rpc_g(0, 1, "double", payload=21, size=8))

        p = SimProcess(engine, client).start()
        engine.run()
        assert p.result == 42

    def test_deferred_reply(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)
        parked = []

        def handler(msg):
            parked.append(msg)
            return None  # defer

        layer.register(1, "slow", handler)

        def replier(proc):
            yield 2.0
            yield from layer.reply_g(parked[0], payload="late", size=8)

        def client(proc):
            result = yield from layer.rpc_g(0, 1, "slow")
            return result, proc.now

        # Replier must run on node 1 (it charges node-1 send costs).
        p = SimProcess(engine, client).start()
        SimProcess(engine, replier).start()
        engine.run()
        result, t = p.result
        assert result == "late"
        assert t > 2.0

    def test_unknown_handler_raises(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)

        def client(proc):
            yield from layer.post_g(0, 1, "nope")

        SimProcess(engine, client).start()
        with pytest.raises(MessagingError, match="no handler"):
            engine.run()

    def test_reply_to_non_rpc_rejected(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)
        from repro.machine.interconnect import Message

        # refused before any charge, so from launcher context too
        with pytest.raises(MessagingError):
            next(layer.reply_g(Message(src=0, dst=1, kind="x", size=0)))

    def test_register_all(self, engine):
        cl = make_cluster(engine, 3)
        layer = ActiveMessageLayer(cl)
        hits = []
        layer.register_all("tag", lambda nid: (lambda msg: hits.append(nid)))

        def client(proc):
            yield from layer.post_g(0, 1, "tag")
            yield from layer.post_g(0, 2, "tag")

        SimProcess(engine, client).start()
        engine.run()
        assert sorted(hits) == [1, 2]

    def test_rpc_counts(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)
        layer.register(1, "x", lambda msg: Reply())

        def client(proc):
            yield from layer.rpc_g(0, 1, "x")
            yield from layer.post_g(0, 1, "x")

        SimProcess(engine, client).start()
        engine.run()
        assert layer.rpcs == 1 and layer.posts == 1


class TestChannelOverheads:
    def test_prefix_overhead_resolution(self, engine):
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl, stack_overhead=10e-6)
        layer.set_channel_overhead("dsm.", 20e-6)
        layer.set_channel_overhead("dsm.fast.", 5e-6)
        assert layer._overhead_for("dsm.getpage") == 20e-6
        assert layer._overhead_for("dsm.fast.ping") == 5e-6
        assert layer._overhead_for("other.x") == 10e-6

    def test_both_cost_caches_follow_the_channel_overhead(self, engine):
        """Sender and receiver cache each kind's per-message cost; pinning
        a channel's overhead after its messages flowed reprices both."""
        cl = make_cluster(engine)
        net = cl.network
        layer = ActiveMessageLayer(cl, stack_overhead=10e-6)
        layer.register(1, "ch.k", lambda msg: None)
        booked = []

        def client(proc):
            for overhead in (10e-6, 50e-6):
                layer.set_channel_overhead("ch.", overhead)
                before = [node.compute_time for node in cl.nodes]
                yield from layer.post_g(0, 1, "ch.k")
                yield 1.0                    # long after the post is handled
                booked.append([node.compute_time - b
                               for node, b in zip(cl.nodes, before)])

        SimProcess(engine, client).start()
        engine.run()
        for overhead, (sent, received) in zip((10e-6, 50e-6), booked):
            assert sent == pytest.approx(net.sender_cpu_overhead() + overhead)
            assert received == pytest.approx(
                net.receiver_cpu_overhead() + overhead)

    def test_integrated_fabric_is_cheaper(self):
        """The §3.3 claim in miniature: the same RPC completes sooner on the
        coalesced fabric than on separate stacks."""
        def rpc_time(integrated):
            engine = Engine()
            cl = make_cluster(engine)
            fab = MessagingFabric(cl, integrated=integrated)
            ch = fab.channel("t")
            ch.register_all("ping", lambda nid: (lambda msg: Reply()))

            def client(proc):
                yield from ch.rpc_g(0, 1, "ping")
                return proc.now

            p = SimProcess(engine, client).start()
            engine.run()
            return p.result

        assert rpc_time(True) < rpc_time(False)

    def test_channel_namespacing(self, engine):
        cl = make_cluster(engine)
        fab = MessagingFabric(cl)
        a, b = fab.channel("a"), fab.channel("b")
        got = []
        a.register_all("k", lambda nid: (lambda msg: got.append("a")))
        b.register_all("k", lambda nid: (lambda msg: got.append("b")))

        def client(proc):
            yield from a.post_g(0, 1, "k")
            yield from b.post_g(0, 1, "k")

        SimProcess(engine, client).start()
        engine.run()
        assert sorted(got) == ["a", "b"]

    def test_channel_cached(self, engine):
        cl = make_cluster(engine)
        fab = MessagingFabric(cl)
        assert fab.channel("x") is fab.channel("x")

    def test_fabric_stats(self, engine):
        cl = make_cluster(engine)
        fab = MessagingFabric(cl)
        ch = fab.channel("s")
        ch.register_all("e", lambda nid: (lambda msg: None))

        def client(proc):
            yield from ch.post_g(0, 1, "e", size=10)

        SimProcess(engine, client).start()
        engine.run()
        assert fab.messages_sent == 1
        assert fab.bytes_sent > 10


def round_trip(build):
    """One post, one RPC answered at once, one RPC answered later by a
    generator handler, on a three-node cluster from ``build``."""
    engine = Engine()
    cl = build(engine, 3)
    layer = ActiveMessageLayer(cl)
    got, parked = [], []
    layer.register(1, "evt", lambda msg: got.append(msg.payload))
    layer.register(1, "now", lambda msg: Reply(payload=msg.payload * 2, size=8))
    layer.register(2, "slow", parked.append)

    def release(msg):
        yield 3e-6
        yield from layer.reply_g(parked.pop(), payload="late", size=24)

    layer.register(2, "release", release)

    def waiter(proc):
        return (yield from layer.rpc_g(0, 2, "slow", size=100))

    def client(proc):
        yield from layer.post_g(0, 1, "evt", payload="e", size=16)
        doubled = yield from layer.rpc_g(0, 1, "now", payload=21, size=8)
        yield from layer.post_g(1, 2, "release", size=4)
        return doubled

    w = SimProcess(engine, waiter).start()
    c = SimProcess(engine, client).start()
    engine.run()
    assert (got, w.result, c.result) == (["e"], "late", 42)
    return (repr(engine.now), engine.events_executed, cl.network.messages_sent,
            cl.network.bytes_sent, [repr(n.compute_time) for n in cl.nodes])


class TestRoundTripPinned:
    """What a message costs in virtual time, events and per-node charges,
    as recorded before the send path was made lean: a host-side change to
    the layer or the wire must leave every figure here as it is."""

    @pytest.mark.parametrize("build,expected", [
        (Cluster.beowulf, ("0.0006428636363636363", 31, 6, 748,
                           ["0.0001675", "0.000134", "0.0001005"])),
        (Cluster.sci_cluster, ("7.431176470588234e-05", 31, 6, 448,
                               ["3.35e-05", "2.68e-05", "2.01e-05"])),
    ], ids=["ethernet", "sci"])
    def test_round_trip(self, build, expected):
        assert round_trip(build) == expected

    def test_a_fault_injector_attached_later_sees_every_send(self, engine):
        """``FaultyNetwork`` patches ``network.send`` after the layer is
        built, so the layer must look the method up on every send."""
        cl = make_cluster(engine)
        layer = ActiveMessageLayer(cl)
        got = []
        layer.register(1, "evt", got.append)
        faults = FaultyNetwork(cl.network, FaultPlan(
            link=LinkFaults(drop_rate=1.0), heartbeat=False))

        def client(proc):
            yield from layer.post_g(0, 1, "evt")

        SimProcess(engine, client).start()
        engine.run()
        assert got == [] and faults.dropped == 1
        assert cl.network.messages_sent == 0


class TestSmpHasNoMessaging:
    def test_am_layer_requires_network(self, engine):
        cl = Cluster.smp(engine)
        with pytest.raises(MessagingError):
            ActiveMessageLayer(cl)
