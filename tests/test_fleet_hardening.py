"""FleetReport hardening: degenerate and malformed journals.

``sweep status`` on a live sweep reads a log that may be header-only or
truncated mid-write, and a library caller may hand the report lines the
validator flags — the report must keep answering (with zeros, not
ZeroDivisionError or AttributeError) and every exporter must stay
loadable. Also covers the sharing rollup that rides on joined telemetry
records (``bench run --sharing``).
"""

import math

from repro.obs.export import validate_chrome_trace
from tests.test_obs_fleet import report


def record(rec_id="a", **sharing):
    """Minimal telemetry record, optionally carrying a sharing rollup."""
    rec = {"id": rec_id, "critical_path": {"compute": 1.0}}
    if sharing:
        base = {"schema": "repro.obs.sharing/1", "ping_pong_pages": 0,
                "false_sharing_pages": 0, "false_sharing_ranges": [],
                "top_hot_page": None, "top_hot_page_fault_rate_hz": 0.0,
                "hot_lock": None, "barrier_max_skew_s": 0.0}
        base.update(sharing)
        rec["sharing"] = base
    return rec


class TestEmptyReport:
    """No lines at all — the moment after `sweep run` creates the log."""

    def report(self):
        return report([], cells=0)

    def test_no_division_by_zero_anywhere(self):
        rep = self.report()
        assert rep.elapsed == 0.0
        assert rep.cache_hit_ratio() == 0.0
        assert rep.aggregate_events_per_sec() == 0.0
        assert rep.resolved_cells() == 0
        assert rep.remaining_cells() == 0
        assert rep.eta_seconds() == 0.0      # nothing left, not None
        assert rep.total_events() == 0

    def test_exports_stay_loadable(self):
        rep = self.report()
        d = rep.to_dict()
        assert d["cells"]["total"] == 0
        assert not math.isnan(d["cache_hit_ratio"])
        assert "nan" not in rep.to_json()
        assert rep.render()          # console rendering must not raise
        assert validate_chrome_trace(rep.chrome_trace()) == []

    def test_no_records_means_no_sharing_gauges(self):
        rep = self.report()
        assert rep.sharing_totals() is None
        assert "sharing_totals" not in rep.to_dict()


class TestNoCompletedCells:
    """Workers spawned, cells started, nothing finished yet: ETA must be
    'unknown', never a divide-by-zero over the empty duration history."""

    def report(self):
        events = [
            {"t": 0.0, "kind": "sweep-begin"},
            {"t": 0.0, "kind": "worker-spawn", "worker": 0,
             "data": {"pid": 1}},
            {"t": 1.0, "kind": "started", "cell": 0, "id": "a", "worker": 0},
        ]
        return report(events, cells=4)

    def test_eta_is_unknown_not_crash(self):
        rep = self.report()
        assert rep.cell_durations == []
        assert rep.eta_seconds() is None
        assert rep.remaining_cells() == 4

    def test_live_busy_time_and_render(self):
        rep = self.report()
        ws = rep.workers[0]
        assert ws.state == "running a"
        assert ws.utilization(rep.elapsed) == 0.0   # elapsed == started_at
        assert "running a" in rep.render()
        assert validate_chrome_trace(rep.chrome_trace()) == []


class TestMalformedEvents:
    def test_spawn_without_worker_id_survives(self):
        rep = report([
            {"t": 0.0, "kind": "worker-spawn", "data": {"pid": 7}},
            {"t": 0.5, "kind": "worker-respawn", "data": {"pid": 8}},
        ])
        assert rep.workers == {}
        assert rep.respawns == 1

    def test_null_timestamps_and_cells(self):
        rep = report([
            {"t": None, "kind": "worker-spawn", "worker": 0, "data": {}},
            {"t": 1.0, "kind": "started", "cell": None, "id": "x",
             "worker": 0},
            {"t": 2.0, "kind": "done", "cell": None, "id": "x", "worker": 0,
             "data": {"events_executed": 10}},
        ])
        ws = rep.workers[0]
        assert ws.done == 1
        assert ws.slices[0][2] == -1          # sentinel cell index
        assert validate_chrome_trace(rep.chrome_trace()) == []

    def test_done_without_started_counts_but_adds_no_busy_time(self):
        rep = report([
            {"t": 3.0, "kind": "done", "cell": 0, "id": "a", "worker": 0,
             "data": {"events_executed": 100}},
        ])
        ws = rep.workers[0]
        assert ws.done == 1 and ws.busy_seconds == 0.0
        assert ws.events_per_sec() == 0.0     # zero busy time guarded

    def test_kill_with_empty_progress(self):
        rep = report([
            {"t": 1.0, "kind": "started", "cell": 0, "id": "a", "worker": 0},
            {"t": 2.0, "kind": "worker-kill", "worker": 0, "cell": None,
             "data": {}},
        ])
        assert rep.kills == 1
        assert rep.workers[0].state == "killed"

    def test_worker_exit_closes_the_open_cell(self):
        # torn down with a cell open (abandoned drain, --max-failures
        # abort): the slice ends at the exit, failed, not at end of log
        rep = report([
            {"t": 0.1, "kind": "worker-spawn", "worker": 0, "data": {}},
            {"t": 0.2, "kind": "started", "cell": 0, "id": "c0", "worker": 0},
            {"t": 0.5, "kind": "worker-exit", "worker": 0},
            {"t": 9.0, "kind": "sweep-end"},
        ])
        ws = rep.workers[0]
        assert ws.state == "exited" and ws.running_cell is None
        assert abs(ws.busy_seconds - 0.3) < 1e-9
        assert ws.slices == [(0.2, 0.5, 0, "c0", False)]


class TestSharingGauges:
    def test_rollup_over_records(self):
        rep = report([], records=[
            record("a", ping_pong_pages=3, false_sharing_pages=2,
                   top_hot_page_fault_rate_hz=100.0),
            record("b", ping_pong_pages=1, false_sharing_pages=0,
                   top_hot_page_fault_rate_hz=250.0),
            {"id": "c", "critical_path": {}},   # no sharing: skipped
        ])
        totals = rep.sharing_totals()
        assert totals == {"hot_page_fault_rate_hz": 250.0,
                          "ping_pong_pages": 4.0,
                          "false_sharing_pages": 2.0}

    def test_gauges_absent_without_sharing_records(self):
        rep = report([], records=[{"id": "a", "critical_path": {}}])
        assert rep.sharing_totals() is None
        assert "sharing_totals" not in rep.to_dict()

    def test_to_dict_carries_rollup(self):
        rep = report([], records=[record("a", ping_pong_pages=1)])
        assert rep.to_dict()["sharing_totals"]["ping_pong_pages"] == 1.0
