"""Tests for the observability layer (repro.obs).

Covers the span recorder semantics, zero-cost-when-disabled guarantees,
rank attribution, critical-path category accounting (the categories must
partition each rank's total runtime exactly), the metrics sampler, and the
Chrome trace exporter + validator.
"""

import json

import pytest

from repro.config import ClusterConfig, loads, preset
from repro.errors import ConfigurationError
from repro.obs import (NULL_OBS, CriticalPathReport, MetricsSampler,
                       ObsRecorder, Span, category_of, chrome_trace,
                       chrome_trace_json, critical_path,
                       critical_path_report, validate_chrome_trace)
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.trace import Tracer


def run_jiajia_workload(observe: bool, metrics_interval=None, nodes: int = 2):
    """Small JiaJia workload: alloc, barrier, contended lock loop."""
    from repro.models.jiajia_api import JiaJiaApi

    cfg = preset(f"sw-dsm-{nodes}")
    cfg.observe = observe
    cfg.metrics_interval = metrics_interval
    built = cfg.build()
    api = JiaJiaApi(built.hamster)
    sums = []

    def main(jia):
        pid, hosts = jia.jia_init()
        a = jia.jia_alloc_array((64,), name="x")
        jia.jia_barrier()
        for _ in range(3):
            jia.jia_lock(1)
            a[pid] = a[pid] + pid + 1.0
            jia.jia_unlock(1)
        jia.jia_barrier()
        sums.append(float(a[:hosts].sum()))
        jia.jia_exit()

    api.run(main)
    return built, sums[0]


class TestNullObserver:
    def test_engine_default_is_null(self):
        engine = Engine()
        assert engine.obs is NULL_OBS
        assert not engine.obs.enabled

    def test_null_span_is_noop(self):
        with NULL_OBS.span("anything", x=1) as span:
            assert span is None
        assert NULL_OBS.current_id() is None
        assert NULL_OBS.spans == []
        NULL_OBS.record("k", begin=0.0, end=1.0)
        assert NULL_OBS.spans == []


class TestObsRecorder:
    def test_nesting_sets_parent(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                assert rec.current_id() == inner.span_id
            assert rec.current_id() == outer.span_id
        assert inner.parent == outer.span_id
        assert outer.parent is None
        assert rec.current_id() is None
        # creation order; both closed
        assert [s.kind for s in rec.closed()] == ["outer", "inner"]

    def test_explicit_parent_wins(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        with rec.span("a") as a:
            pass
        with rec.span("b"):
            with rec.span("c", parent=a.span_id) as c:
                pass
        assert c.parent == a.span_id

    def test_rank_inherited_from_parent(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        with rec.span("root", rank=3) as root:
            with rec.span("child") as child:
                pass
        assert root.rank == 3 and child.rank == 3

    def test_per_process_stacks_are_independent(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        engine.obs = rec
        seen = {}

        def task(proc, name):
            with rec.span(name):
                proc.hold(1e-3)
                seen[name] = rec.current_id()

        SimProcess(engine, task, args=("p0",)).start()
        SimProcess(engine, task, args=("p1",)).start()
        engine.run()
        s0 = next(s for s in rec.spans if s.kind == "p0")
        s1 = next(s for s in rec.spans if s.kind == "p1")
        assert seen["p0"] == s0.span_id and seen["p1"] == s1.span_id
        assert s0.parent is None and s1.parent is None

    def test_span_times_use_virtual_clock(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        engine.obs = rec

        def task(proc):
            with rec.span("work"):
                proc.hold(2.5)

        SimProcess(engine, task).start()
        engine.run()
        (span,) = rec.spans
        assert span.begin == 0.0 and span.end == 2.5
        assert span.duration == 2.5

    def test_record_completed_interval(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        span = rec.record("net.xfer", begin=1.0, end=2.0, size=64)
        assert span.end == 2.0 and span.get("size") == 64
        assert rec.of_kind("net.xfer") == [span]

    def test_tracer_is_the_span_sink(self):
        engine = Engine(trace=Tracer(enabled=True))
        rec = ObsRecorder(engine)
        with rec.span("dsm.lock", rank=1):
            pass
        events = engine.trace.of_kind("obs.span")
        assert len(events) == 1
        assert events[0]["span_kind"] == "dsm.lock"
        assert events[0]["rank"] == 1

    def test_exception_still_closes_span(self):
        engine = Engine()
        rec = ObsRecorder(engine, sink_to_trace=False)
        with pytest.raises(RuntimeError):
            with rec.span("doomed"):
                raise RuntimeError("boom")
        assert rec.spans[0].end is not None
        assert rec.current_id() is None


class TestDenseSpanIds:
    """Span ``i`` is ``spans[i - 1]``; the queries built on that give what
    the id-keyed dict they replaced gave."""

    def test_get_finds_every_span(self):
        built, _ = run_jiajia_workload(observe=True)
        spans = built.obs.spans
        assert [s.span_id for s in spans] == list(range(1, len(spans) + 1))
        assert all(built.obs.get(s.span_id) is s for s in spans)

    def test_get_misses_return_none(self):
        built, _ = run_jiajia_workload(observe=True)
        rec = built.obs
        for missing in (None, 0, -1, len(rec.spans) + 1):
            assert rec.get(missing) is None

    def test_queries_match_the_id_dict(self):
        built, _ = run_jiajia_workload(observe=True)
        rec = built.obs
        rec.record("orphan", 0.0, 0.0, parent=len(rec.spans) + 5)
        by_id = {s.span_id: s for s in rec.spans}
        assert rec.closed() == [s for s in rec.spans if s.end is not None]
        for span_id in (None, *by_id):
            assert rec.children(span_id) == [
                s for s in rec.spans if s.parent == span_id]


class TestInstrumentedRun:
    def test_spans_cover_the_whole_stack(self):
        built, _ = run_jiajia_workload(observe=True)
        kinds = {s.kind for s in built.obs.spans}
        # model API -> service -> DSM protocol -> active message -> wire
        for expected in ("api.call", "svc.lock", "dsm.lock", "dsm.fault",
                         "dsm.fetch", "am.rpc", "am.wait", "am.handle",
                         "net.xfer"):
            assert expected in kinds, expected

    def test_all_spans_closed_and_ranked(self):
        built, _ = run_jiajia_workload(observe=True)
        assert all(s.end is not None for s in built.obs.spans)
        assert all(s.rank is not None for s in built.obs.spans)

    def test_fetch_links_to_wire_transfer(self):
        built, _ = run_jiajia_workload(observe=True)
        rec = built.obs
        fetches = rec.of_kind("dsm.fetch")
        assert fetches
        for fetch in fetches:
            # dsm.fetch -> am.rpc -> ... -> net.xfer somewhere below
            descendants = list(rec.children(fetch.span_id))
            kinds = set()
            while descendants:
                cur = descendants.pop()
                kinds.add(cur.kind)
                descendants.extend(rec.children(cur.span_id))
            assert "am.rpc" in kinds
            assert "net.xfer" in kinds

    def test_cross_rank_handler_links_to_sender(self):
        built, _ = run_jiajia_workload(observe=True)
        rec = built.obs
        handlers = rec.of_kind("am.handle")
        assert handlers
        crossed = [h for h in handlers
                   if rec.get(h.parent) is not None
                   and rec.get(h.parent).rank != h.rank]
        assert crossed, "no cross-rank causal link recorded"

    def test_disabled_run_is_bit_identical(self):
        built_off, sum_off = run_jiajia_workload(observe=False)
        built_on, sum_on = run_jiajia_workload(observe=True)
        assert built_off.engine.now == built_on.engine.now
        assert sum_off == sum_on
        assert built_off.obs is None
        assert built_off.engine.obs is NULL_OBS

    def test_observe_flag_roundtrips_through_config_text(self):
        cfg = preset("sw-dsm-2")
        cfg.observe = True
        cfg.metrics_interval = 0.25e-3
        again = loads(cfg.to_text())
        assert again.observe is True
        assert again.metrics_interval == 0.25e-3

    def test_config_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(metrics_interval=0.0)


class TestCriticalPath:
    def test_categories_partition_each_rank_total(self):
        built, _ = run_jiajia_workload(observe=True, nodes=4)
        report = critical_path_report(built)
        assert report.total_time == built.engine.now
        assert len(report.ranks) == 4
        for breakdown in report.ranks:
            assert breakdown.total == built.engine.now
            assert breakdown.category_sum() == pytest.approx(
                breakdown.total, abs=1e-12)
            for cat in ("compute", "protocol", "wire", "blocked"):
                assert getattr(breakdown, cat) >= 0.0

    def test_category_mapping(self):
        assert category_of("net.xfer") == "wire"
        assert category_of("am.wait") == "blocked"
        assert category_of("dsm.wait") == "blocked"
        assert category_of("dsm.lock") == "protocol"
        assert category_of("api.call") == "protocol"

    def test_chain_is_causally_ordered(self):
        built, _ = run_jiajia_workload(observe=True)
        chain = critical_path(built.obs)
        assert chain
        for earlier, later in zip(chain, chain[1:]):
            assert earlier.begin <= later.begin
        last = max(built.obs.closed(), key=lambda s: (s.end, s.span_id))
        assert chain[-1] is last

    def test_report_requires_observability(self):
        built, _ = run_jiajia_workload(observe=False)
        with pytest.raises(ValueError):
            critical_path_report(built)

    def test_render_mentions_every_rank(self):
        built, _ = run_jiajia_workload(observe=True)
        text = critical_path_report(built).render()
        assert "critical path" in text
        assert "compute ms" in text and "wire ms" in text

    def test_empty_recorder(self):
        rec = ObsRecorder(Engine(), sink_to_trace=False)
        assert critical_path(rec) == []
        report = CriticalPathReport(platform="x", total_time=0.0)
        assert report.totals() == {"wire": 0.0, "blocked": 0.0,
                                   "protocol": 0.0, "compute": 0.0}


def _clamped(span, total):
    """Span interval clipped to [0, total]; open spans run to ``total``."""
    begin = max(0.0, span.begin)
    end = total if span.end is None else min(span.end, total)
    return (begin, end) if end > begin else None


def _union(intervals):
    """Merge possibly-overlapping intervals into a disjoint sorted list."""
    out = []
    for begin, end in sorted(intervals):
        if out and begin <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((begin, end))
    return out


def _scan_rank_breakdown(recorder, rank, total):
    """The per-rank scan over every span, with one sort per category
    union, kept as the oracle."""
    from repro.obs.critical_path import RankBreakdown, _measure

    by_cat = {"wire": [], "blocked": [], "protocol": []}
    for span in recorder.spans:
        if span.rank != rank:
            continue
        interval = _clamped(span, total)
        if interval is not None:
            by_cat[category_of(span.kind)].append(interval)
    wire = _union(by_cat["wire"])
    wire_blocked = _union(wire + by_cat["blocked"])
    covered = _union(wire_blocked + by_cat["protocol"])
    out = RankBreakdown(rank=rank, total=total)
    out.wire = _measure(wire)
    out.blocked = _measure(wire_blocked) - out.wire
    out.protocol = _measure(covered) - _measure(wire_blocked)
    out.compute = total - _measure(covered)
    return out


def _scan_critical_path(recorder):
    """The chain walk that rescans every closed span per step (oracle)."""
    closed = recorder.closed()
    if not closed:
        return []
    cur = max(closed, key=lambda s: (s.end, s.span_id))
    chain, seen = [cur], {cur.span_id}
    for _ in range(len(closed)):
        parent = recorder.get(cur.parent)
        if (parent is not None and parent.end is not None
                and parent.begin < cur.begin and parent.span_id not in seen):
            nxt = parent
        else:
            candidates = [s for s in closed
                          if s.end <= cur.begin and s.span_id not in seen]
            if not candidates:
                break
            nxt = max(candidates, key=lambda s: (s.end, s.span_id))
        chain.append(nxt)
        seen.add(nxt.span_id)
        cur = nxt
    chain.reverse()
    return chain


def _random_recorder(seed, n_spans=120, n_ranks=4):
    """Spans on a coarse time grid, so ends and begins tie often."""
    import random

    rng = random.Random(seed)
    rec = ObsRecorder(Engine(), sink_to_trace=False)
    kinds = ("net.xfer", "am.wait", "dsm.lock", "api.call")
    for _ in range(n_spans):
        rank = rng.choice([*range(n_ranks), None])
        parent = rng.choice([None, *(s.span_id for s in rec.spans[-8:])])
        if rng.random() < 0.1:
            rec.span(rng.choice(kinds), parent=parent, rank=rank)  # left open
            continue
        begin = rng.randrange(40) * 0.5
        rec.record(rng.choice(kinds), begin, begin + rng.randrange(8) * 0.5,
                   parent=parent, rank=rank)
    return rec


class TestCriticalPathMatchesTheScans:
    """The sorted walk and the per-rank grouping give exactly what the
    quadratic scans they replaced gave."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_span_sets(self, seed):
        rec = _random_recorder(seed)
        assert [s.span_id for s in critical_path(rec)] \
            == [s.span_id for s in _scan_critical_path(rec)]
        from repro.obs.critical_path import _breakdown

        for rank in range(4):
            spans = [s for s in rec.spans if s.rank == rank]
            assert _breakdown(spans, rank, 18.0) \
                == _scan_rank_breakdown(rec, rank, 18.0)

    @pytest.mark.parametrize("preset_name,label", [
        ("sw-dsm-4", "SOR"), ("hybrid-4", "LU all")])
    def test_real_runs(self, preset_name, label):
        from repro.bench.runners import WORKLOADS, run_app_detailed

        cfg = preset(preset_name)
        cfg.observe = True
        wl = WORKLOADS[label]
        _, built = run_app_detailed(cfg, wl.app, **wl.params(0.05))
        report = critical_path_report(built)
        assert [s.span_id for s in report.path] \
            == [s.span_id for s in _scan_critical_path(built.obs)]
        assert report.ranks == [
            _scan_rank_breakdown(built.obs, r, built.engine.now)
            for r in range(built.hamster.n_ranks)]


#: sha256 of the repr of every span of one observed ``sw-dsm-4`` SOR run
#: at n = 48, each as ``(span_id, kind, begin, end, parent, rank, node,
#: sorted(fields.items()))``
SOR_SPAN_TREE_SHA256 = \
    "9e04cc0611ea434ebb34b62e3464de3905bc1bebf596fef0dede783c94a21d61"


class TestSpanTreePinned:
    """What the recorder records, span by span, does not drift: ids,
    parents, inherited ranks, clock readings and fields."""

    def test_sor_span_tree(self):
        import hashlib

        from repro.bench.runners import WORKLOADS, run_app_detailed

        cfg = preset("sw-dsm-4")
        cfg.observe = True
        _, built = run_app_detailed(cfg, "sor",
                                    **WORKLOADS["SOR"].params(0.05))
        rows = [(s.span_id, s.kind, s.begin, s.end, s.parent, s.rank, s.node,
                 sorted(s.fields.items())) for s in built.obs.spans]
        assert len(rows) == 2000
        assert hashlib.sha256(repr(rows).encode()).hexdigest() \
            == SOR_SPAN_TREE_SHA256


class TestMetricsSampler:
    def test_samples_collected_at_interval(self):
        built, _ = run_jiajia_workload(observe=False,
                                       metrics_interval=0.5e-3)
        sampler = built.metrics
        assert len(sampler) > 2
        times = [p.time for p in sampler.samples]
        assert times == sorted(times)
        assert "net.messages" in sampler.keys()
        assert "sync.barriers" in sampler.keys()
        assert "am.qdepth.total" in sampler.keys()

    def test_cumulative_series_monotone(self):
        built, _ = run_jiajia_workload(observe=False,
                                       metrics_interval=0.5e-3)
        series = built.metrics.series("net.bytes")
        values = [v for _, v in series]
        assert values == sorted(values)
        assert values[-1] > 0

    def test_rates_derivative(self):
        built, _ = run_jiajia_workload(observe=False,
                                       metrics_interval=0.5e-3)
        rates = built.metrics.rates("net.bytes")
        assert len(rates) == len(built.metrics)
        assert any(rate > 0 for _, rate in rates)

    def test_csv_and_json_exports(self):
        built, _ = run_jiajia_workload(observe=False,
                                       metrics_interval=0.5e-3)
        csv_text = built.metrics.to_csv()
        header = csv_text.splitlines()[0].split(",")
        assert header[0] == "time"
        assert len(csv_text.splitlines()) == len(built.metrics) + 1
        doc = json.loads(built.metrics.to_json())
        assert len(doc) == len(built.metrics)
        assert "values" in doc[0]

    def test_bad_interval_rejected(self):
        built, _ = run_jiajia_workload(observe=False)
        with pytest.raises(ValueError):
            MetricsSampler(built, interval=0.0)

    def test_sampler_never_blocks_termination(self):
        # The sampler is an engine event, not a process: the run must end.
        built, _ = run_jiajia_workload(observe=False, metrics_interval=1e-4)
        assert built.engine._finished


class TestModuleStatsObserve:
    def test_query_stats_aggregate(self):
        from repro.core.monitoring import ModuleStats

        stats = ModuleStats("m")
        for value in (3.0, 1.0, 2.0):
            stats.observe("lat", value)
        agg = stats.query_stats("lat")
        assert agg == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0,
                       "mean": 2.0}
        # query() keeps the historical high-water-mark semantics
        assert stats.query("lat") == 3.0

    def test_observe_respects_prior_incr_high_water(self):
        from repro.core.monitoring import ModuleStats

        stats = ModuleStats("m")
        stats.incr("peak", 10)
        stats.observe("peak", 4.0)
        assert stats.query("peak") == 10  # max(old, observed)
        assert stats.query_stats("peak")["max"] == 4.0

    def test_unknown_counter_and_reset(self):
        from repro.core.monitoring import ModuleStats

        stats = ModuleStats("m")
        assert stats.query_stats("nope")["count"] == 0
        stats.observe("a", 1.0)
        stats.reset("a")
        assert stats.query_stats("a")["count"] == 0
        stats.observe("b", 1.0)
        stats.reset()
        assert stats.query_stats() == {}


class TestChromeExport:
    def test_export_validates(self):
        built, _ = run_jiajia_workload(observe=True,
                                       metrics_interval=0.5e-3)
        doc = chrome_trace(built.obs, metrics=built.metrics,
                           platform_name="sw-dsm-2")
        assert validate_chrome_trace(doc) == []
        text = chrome_trace_json(built.obs, metrics=built.metrics)
        assert validate_chrome_trace(text) == []

    def test_slices_carry_span_identity(self):
        built, _ = run_jiajia_workload(observe=True)
        doc = chrome_trace(built.obs)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(built.obs.spans)
        assert all("span_id" in e["args"] for e in slices)
        assert {e["cat"] for e in slices} <= {"wire", "blocked", "protocol"}

    def test_flow_events_pair_up(self):
        built, _ = run_jiajia_workload(observe=True)
        doc = chrome_trace(built.obs)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert starts, "expected cross-rank flow arrows"
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_counter_and_metadata_events(self):
        built, _ = run_jiajia_workload(observe=True,
                                       metrics_interval=0.5e-3)
        doc = chrome_trace(built.obs, metrics=built.metrics)
        assert any(e["ph"] == "C" for e in doc["traceEvents"])
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert "rank 0" in names and "rank 1" in names

    def test_validator_catches_structural_errors(self):
        assert validate_chrome_trace("not json")[0].startswith("not valid")
        assert validate_chrome_trace([1, 2]) \
            == ["top level must be an object, got list"]
        assert validate_chrome_trace({}) == ["missing or non-list 'traceEvents'"]
        errors = validate_chrome_trace({"traceEvents": [
            {"name": "x", "ph": "X", "ts": -1.0, "dur": 1.0,
             "pid": 0, "tid": 0},
            {"name": "y", "ts": 0.0},
            {"ph": "f", "id": 7, "ts": 0.0, "pid": 0, "tid": 0},
        ]})
        assert any("'ts' must be a non-negative number" in e for e in errors)
        assert any("missing 'ph'" in e for e in errors)
        assert any("flow finish without start" in e for e in errors)

    def test_otherdata_totals(self):
        built, _ = run_jiajia_workload(observe=True)
        doc = chrome_trace(built.obs, platform_name="p")
        assert doc["otherData"]["platform"] == "p"
        assert doc["otherData"]["spans"] == len(built.obs.spans)
        assert doc["otherData"]["total_virtual_seconds"] == built.engine.now


class TestSpanDataclass:
    def test_open_span_duration_zero(self):
        span = Span(span_id=1, kind="k", begin=1.0)
        assert span.duration == 0.0
        assert span.get("missing", 7) == 7
