"""FleetReport: rolling a sweep journal up into fleet metrics.

Synthetic journals keep these deterministic — the report is a pure
function of the replayed log, so handcrafted lines exercise exact
numbers (utilization, ETA, throughput) that a real sweep's host timing
would blur. One integration test at the end runs a real sweep through
the whole chain. Also covers the MetricsSampler edge cases the sweep
console leans on (empty series, single sample, zero-interval guard).
"""

import json

import pytest

from repro.bench.telemetry import CP_CATEGORIES
from repro.fabric import JOURNAL_SCHEMA, replay_journal
from repro.obs.export import validate_chrome_trace
from repro.obs.fleet import FleetReport, WorkerStats
from repro.obs.metrics import MetricPoint, MetricsSampler


def report(lines, records=None, **header):
    """FleetReport over a journal given as parsed lines (no file)."""
    head = {"schema": JOURNAL_SCHEMA, "suite": "s", "cells": 2, "workers": 1,
            **header}
    return FleetReport(replay_journal([json.dumps(x) for x in [head, *lines]]),
                       records=records)


def commit(t, cell, outcome):
    return {"t": t, "kind": "commit", "cell": cell, "outcome": {
        "index": cell, "id": "abcd"[cell], "key": f"k{cell}",
        "outcome": outcome}}


def finished_log():
    """One worker, one cache hit, one executed cell; 10s elapsed."""
    return [
        {"t": 0.0, "kind": "sweep-begin"},
        {"t": 0.0, "kind": "worker-spawn", "worker": 0,
         "data": {"pid": 4242}},
        commit(0.1, 0, "hit"),
        {"t": 0.1, "kind": "cache-hit", "cell": 0, "id": "a"},
        {"t": 0.2, "kind": "enqueued", "cell": 1, "id": "b"},
        {"t": 0.3, "kind": "dispatched", "cell": 1, "worker": 0},
        {"t": 1.0, "kind": "started", "cell": 1, "id": "b", "worker": 0},
        {"t": 2.0, "kind": "heartbeat", "cell": 1, "worker": 0,
         "data": {"events_executed": 500, "virtual_seconds": 0.5}},
        {"t": 6.0, "kind": "done", "cell": 1, "id": "b", "worker": 0,
         "data": {"events_executed": 1000}},
        commit(6.0, 1, "miss"),
        {"t": 9.0, "kind": "worker-exit", "worker": 0},
        {"t": 10.0, "kind": "sweep-end"},
    ]


class TestFleetReportFinished:
    def report(self):
        return report(finished_log())

    def test_counts_and_cache_hit_ratio(self):
        rep = self.report()
        assert rep.finished and rep.elapsed == 10.0
        assert rep.resolved_cells() == 2 and rep.remaining_cells() == 0
        assert rep.cache_hit_ratio() == 0.5
        assert rep.eta_seconds() == 0.0

    def test_worker_stats(self):
        rep = self.report()
        ws = rep.workers[0]
        assert ws.pid == 4242
        assert (ws.done, ws.failed) == (1, 0)
        assert ws.busy_seconds == 5.0          # started 1.0 -> done 6.0
        assert ws.utilization(rep.elapsed) == 0.5
        assert ws.events_executed == 1000      # from the done payload
        assert ws.events_per_sec() == 200.0
        assert rep.aggregate_events_per_sec() == 100.0

    def test_to_dict_shape(self):
        d = self.report().to_dict()
        assert d["schema"] == "repro.obs.fleet/1"
        assert d["cells"] == {"total": 2, "resolved": 2, "remaining": 0,
                              "cache_hits": 1, "executed": 1, "failed": 0,
                              "retried": 0}
        assert d["workers"]["0"]["utilization"] == 0.5
        assert d["aggregate_events_per_sec"] == 100.0

    def test_chrome_trace_one_track_per_worker(self):
        trace = self.report().chrome_trace()
        assert validate_chrome_trace(trace) == []
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [s["name"] for s in slices] == ["b"]
        assert slices[0]["pid"] == 0 and slices[0]["ts"] == 1.0e6
        assert slices[0]["dur"] == 5.0e6
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "worker 0"
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 500

    def test_render_names_the_required_signals(self):
        text = self.report().render()
        assert "w0" in text
        assert "cache hit ratio: 50%" in text
        assert "events/s" in text
        assert "ETA: done" in text


class TestFleetReportLive:
    def live_log(self):
        # 4 cells, one done in 2s, one still running at t=5
        return [
            {"t": 0.0, "kind": "sweep-begin"},
            {"t": 0.0, "kind": "worker-spawn", "worker": 0,
             "data": {"pid": 1}},
            {"t": 1.0, "kind": "started", "cell": 0, "id": "a", "worker": 0},
            {"t": 3.0, "kind": "done", "cell": 0, "id": "a", "worker": 0,
             "data": {"events_executed": 100}},
            commit(3.0, 0, "miss"),
            {"t": 3.0, "kind": "started", "cell": 1, "id": "b", "worker": 0},
            {"t": 5.0, "kind": "heartbeat", "cell": 1, "worker": 0,
             "data": {"events_executed": 40, "virtual_seconds": 0.1}},
        ]

    def test_eta_projects_from_completed_cells(self):
        rep = report(self.live_log(), cells=4)
        assert not rep.finished
        assert rep.resolved_cells() == 1 and rep.remaining_cells() == 3
        # one finished cell took 2s; 3 remain on 1 active worker
        assert rep.eta_seconds() == pytest.approx(6.0)

    def test_eta_is_none_without_history(self):
        rep = report(self.live_log()[:3], cells=4)
        assert rep.eta_seconds() is None
        assert "ETA: n/a" in rep.render()

    def test_running_cell_counts_toward_busy_and_events(self):
        rep = report(self.live_log(), cells=4)
        ws = rep.workers[0]
        assert ws.state == "running b"
        assert ws.busy_seconds == 4.0    # 1->3 done + 3->5 still running
        assert ws.events_executed == 140  # 100 done + 40 from the beat
        assert "40 ev / 0.100s" in rep.render()

    def test_live_trace_has_an_open_slice(self):
        trace = report(self.live_log(), cells=4).chrome_trace()
        assert validate_chrome_trace(trace) == []
        live = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["args"].get("live")]
        assert len(live) == 1 and live[0]["dur"] == 2.0e6


class TestFleetReportFailures:
    def test_kill_death_and_retry_accounting(self):
        events = [
            {"t": 0.0, "kind": "sweep-begin"},
            {"t": 0.0, "kind": "worker-spawn", "worker": 0,
             "data": {"pid": 1}},
            {"t": 1.0, "kind": "started", "cell": 0, "id": "a", "worker": 0},
            {"t": 2.0, "kind": "worker-kill", "cell": 0, "worker": 0,
             "data": {"progress": {"events_executed": 64,
                                   "virtual_seconds": 0.1}}},
            {"t": 2.1, "kind": "retried", "cell": 0},
            {"t": 2.2, "kind": "worker-respawn", "worker": 1,
             "data": {"pid": 2}},
            {"t": 3.0, "kind": "started", "cell": 0, "id": "a", "worker": 1},
            {"t": 4.0, "kind": "failed", "cell": 0, "id": "a", "worker": 1,
             "data": {"kind": "timeout"}},
            commit(4.0, 0, "failed"),
            {"t": 5.0, "kind": "worker-death", "worker": 1,
             "data": {"exitcode": -9}},
            {"t": 6.0, "kind": "sweep-end"},
        ]
        rep = report(events, cells=1, workers=2)
        assert (rep.kills, rep.deaths, rep.respawns) == (1, 1, 1)
        assert (rep.retried, rep.failed) == (1, 1)
        assert rep.workers[0].state == "killed"
        assert rep.workers[0].events_executed == 64  # progress-at-kill
        assert rep.workers[1].state == "dead"
        assert rep.workers[1].failed == 1
        d = rep.to_dict()
        assert d["worker_kills"] == 1 and d["worker_deaths"] == 1
        # killed slice still lands on the trace so the gap is visible
        trace = rep.chrome_trace()
        assert validate_chrome_trace(trace) == []


class TestCriticalPathJoin:
    def test_totals_sum_over_records(self):
        records = [
            {"critical_path": {"compute": 1.0, "wire": 0.5}},
            {"critical_path": {"compute": 2.0, "blocked": 0.25}},
        ]
        rep = report(finished_log(), records=records)
        totals = rep.critical_path_totals()
        assert set(totals) == set(CP_CATEGORIES)
        assert totals["compute"] == 3.0 and totals["wire"] == 0.5
        assert "critical_path_totals" in rep.to_dict()


class TestWorkerStatsEdges:
    def test_zero_division_guards(self):
        ws = WorkerStats(worker=0)
        assert ws.events_per_sec() == 0.0
        assert ws.utilization(0.0) == 0.0
        rep = report([{"t": 0.0, "kind": "sweep-begin"}])
        assert rep.cache_hit_ratio() == 0.0
        assert rep.aggregate_events_per_sec() == 0.0


class TestMetricsSamplerEdges:
    """Edge cases of the per-interval surfaces the consoles consume."""

    def sampler(self):
        # samples can be appended directly: rates/to_csv are pure
        return MetricsSampler.__new__(MetricsSampler)

    def make(self, samples):
        s = self.sampler()
        s.samples = samples
        return s

    def test_empty_series(self):
        s = self.make([])
        assert s.rates("net.bytes") == []
        assert s.to_csv() == "time\n"
        assert s.keys() == [] and len(s) == 0

    def test_single_sample_rate_uses_origin(self):
        s = self.make([MetricPoint(time=2.0, values={"net.bytes": 10.0})])
        assert s.rates("net.bytes") == [(2.0, 5.0)]
        assert s.to_csv() == "time,net.bytes\n2.000000000,10\n"

    def test_zero_interval_guard(self):
        # two samples at the same instant: rate is 0.0, not a ZeroDivision
        s = self.make([MetricPoint(time=0.0, values={"k": 1.0}),
                       MetricPoint(time=0.0, values={"k": 5.0})])
        assert s.rates("k") == [(0.0, 0.0), (0.0, 0.0)]

    def test_missing_key_reads_as_zero(self):
        s = self.make([MetricPoint(time=1.0, values={"a": 1.0}),
                       MetricPoint(time=2.0, values={"a": 2.0, "b": 4.0})])
        assert s.series("b") == [(1.0, 0.0), (2.0, 4.0)]
        assert s.rates("b")[-1] == (2.0, 4.0)
        assert "a,b" in s.to_csv().splitlines()[0]

    def test_bad_interval_is_rejected(self):
        class FakePlatform:
            engine = None

        with pytest.raises(ValueError):
            MetricsSampler(FakePlatform(), interval=0.0)


class TestIntegration:
    def test_real_sweep_through_the_whole_chain(self, tmp_path):
        from repro.fabric import GridSpec, ResultCache, run_sweep

        spec = GridSpec(presets=("smp-2",), labels=("PI", "MatMult"),
                        scales=(0.04,), suite="fleet-int")
        journal = str(tmp_path / "journal.jsonl")
        result = run_sweep(spec, workers=2,
                           cache=ResultCache(str(tmp_path / "cache")),
                           journal=journal, heartbeat=0.02)
        rep = FleetReport(replay_journal(journal), records=result.records)
        assert rep.finished
        assert rep.resolved_cells() == 2
        assert validate_chrome_trace(rep.chrome_trace()) == []
        d = rep.to_dict()
        assert d["cache"]["stores"] == 2      # rides on the sweep-end line
        assert sum(d["critical_path_totals"].values()) > 0.0
        text = rep.render()
        assert "cache hit ratio:" in text and "ETA:" in text
