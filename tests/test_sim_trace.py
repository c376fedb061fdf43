"""Unit tests for the tracing facility."""

from repro.sim.engine import Engine
from repro.sim.trace import TraceEvent, Tracer


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        t.emit("x", a=1)
        assert len(t) == 0

    def test_emit_and_query(self):
        t = Tracer()
        t.emit("fetch", page=3)
        t.emit("fetch", page=4)
        t.emit("inval", page=3)
        assert t.count("fetch") == 2
        assert [e["page"] for e in t.of_kind("fetch")] == [3, 4]
        assert [e.kind for e in t.events if e.get("page") == 3] \
            == ["fetch", "inval"]

    def test_event_get_default(self):
        t = Tracer()
        t.emit("k")
        assert t.events[0].get("missing", "d") == "d"

    def test_capacity_evicts_oldest(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.emit("e", i=i)
        assert [e["i"] for e in t] == [3, 4]

    def test_dropped_counter_tracks_evictions(self):
        t = Tracer(capacity=3)
        for i in range(3):
            t.emit("e", i=i)
        assert t.dropped == 0
        for i in range(3, 10):
            t.emit("e", i=i)
        assert t.dropped == 7
        assert len(t) == 3
        assert [e["i"] for e in t] == [7, 8, 9]

    def test_unbounded_never_drops(self):
        t = Tracer()
        for i in range(1000):
            t.emit("e", i=i)
        assert t.dropped == 0 and len(t) == 1000

    def test_clear_resets_dropped(self):
        t = Tracer(capacity=1)
        t.emit("a")
        t.emit("b")
        assert t.dropped == 1
        t.clear()
        assert t.dropped == 0 and len(t) == 0

    def test_ring_keeps_queries_working(self):
        t = Tracer(capacity=2)
        t.emit("x", v=1)
        t.emit("y", v=2)
        t.emit("x", v=3)
        assert t.count("x") == 1  # the first x was evicted
        assert [e.kind for e in t.events if e.get("v") == 3] == ["x"]

    def test_clock_binding(self):
        engine = Engine(trace=Tracer(enabled=True))
        engine.schedule(1.5, lambda: engine.trace.emit("tick"))
        engine.run()
        assert engine.trace.events[-1].time == 1.5

    def test_clear(self):
        t = Tracer()
        t.emit("a")
        t.clear()
        assert len(t) == 0


class TestEngineTraceIntegration:
    def test_network_send_traced(self):
        from repro.machine.cluster import Cluster
        from repro.msg.coalesce import MessagingFabric
        from repro.msg.active_messages import Reply
        from repro.sim.process import SimProcess

        engine = Engine(trace=Tracer(enabled=True))
        cl = Cluster.beowulf(engine, 2)
        fab = MessagingFabric(cl)
        ch = fab.channel("t")
        ch.register_all("ping", lambda nid: (lambda msg: Reply(payload="pong")))

        def client(proc):
            return ch.rpc(0, 1, "ping")

        SimProcess(engine, client).start()
        engine.run()
        sends = engine.trace.of_kind("net.send")
        assert len(sends) == 2  # request + reply
        assert sends[0]["src"] == 0 and sends[0]["dst"] == 1
