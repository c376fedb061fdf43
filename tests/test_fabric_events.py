"""The sweep log's lifecycle lines: writer, validator, heartbeats.

Covers the narration half of the journal contract end to end (the
durability half — commits, replay, resume — is test_fabric_journal.py):
the writer's flushed, ``t``-stamped lines and its one clock, the
``validate_journal`` schema gate, the sweep determinism guarantee
(keeping a journal cannot change canonical records), symmetric progress
callbacks, and the per-cell table's cache-stats / progress-at-kill
surfaces. The engine host hook heartbeats ride on is tested with the
engine (test_sim_engine.py).
"""

import json

import pytest

from repro.fabric import (EVENT_KINDS, JOURNAL_SCHEMA, GridSpec, SweepJournal,
                          canonical_records_json, replay_journal, run_sweep,
                          validate_journal)
from repro.fabric import faultpoints
from repro.fabric.manifest import CellOutcome, SweepManifest
from repro.fabric.worker import HOOK_EVERY_EVENTS
from tests.test_fabric_sweep import SMALL, small_cache


class TestEventLog:
    def test_writes_header_then_flushed_event_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        header = {"suite": "s", "cells": 3, "workers": 2}
        with SweepJournal(str(path), header=header) as log:
            log.emit("sweep-begin")
            log.emit("enqueued", cell=0, id="a", key="k0", worker=None)
            # flushed per line: a concurrent reader sees both already
            assert len(path.read_text().splitlines()) == 3
        state = replay_journal(str(path))
        assert state.header["schema"] == JOURNAL_SCHEMA
        assert state.header["suite"] == "s"
        assert [e["kind"] for e in state.events] == ["sweep-begin",
                                                     "enqueued"]
        assert state.events[1]["cell"] == 0 and state.events[1]["key"] == "k0"
        assert "worker" not in state.events[1]     # None fields left out
        assert state.problems == []

    def test_timestamps_never_go_backwards(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as log:
            log.emit("sweep-begin")
            log.emit("worker-spawn", worker=0)
            log.commit(CellOutcome(index=0, id="a", key="k", outcome="miss"))
        first = replay_journal(path).elapsed
        # a resumed journal continues the clock it holds, it does not
        # start a second one at zero
        with SweepJournal.resume(path) as log:
            log.emit("sweep-begin")
            log.status("complete")
        ts = [json.loads(line)["t"]
              for line in open(path).read().splitlines()[1:]]
        assert len(ts) == 5 and ts == sorted(ts) and ts[0] >= 0
        assert ts[3] >= first
        assert not [p for p in validate_journal(path) if "backwards" in p]

    def test_unknown_kind_is_rejected(self, tmp_path):
        with SweepJournal(str(tmp_path / "j.jsonl")) as log:
            with pytest.raises(ValueError):
                log.emit("teleported")


class TestValidateEvents:
    def header(self, **over):
        d = {"schema": JOURNAL_SCHEMA, "suite": "s", "cells": 1, "workers": 1}
        d.update(over)
        return json.dumps(d)

    def test_accepts_a_minimal_valid_log(self):
        lines = [self.header(),
                 '{"t": 0.0, "kind": "sweep-begin"}',
                 '{"t": 0.2, "kind": "commit", "cell": 0, "outcome": '
                 '{"index": 0, "id": "a", "key": "k", "outcome": "hit"}}',
                 '{"t": 0.5, "kind": "sweep-end"}',
                 '{"t": 0.5, "kind": "status", "status": "complete"}']
        assert validate_journal(lines) == []

    @pytest.mark.parametrize("line,needle", [
        ('{"t": 0.1, "kind": "warp"}', "unknown kind"),
        ('{"t": -1, "kind": "sweep-end"}', "non-negative"),
        ('{"kind": "sweep-end"}', "'t' must be"),
        ('{"t": 0.1, "kind": "done"}', "'cell' must be"),
        ('{"t": 0.1, "kind": "worker-spawn"}', "'worker' must be"),
        ('{"t": 0.1, "kind": "heartbeat", "cell": 0, "worker": 0}',
         "missing 'data'"),
        ('{"t": 0.1, "kind": "heartbeat", "cell": 0, "worker": 0, '
         '"data": {"events_executed": "many"}}', "must be a number"),
    ])
    def test_flags_bad_event_lines(self, line, needle):
        lines = [self.header(), '{"t": 0.0, "kind": "sweep-begin"}', line]
        assert any(needle in err for err in validate_journal(lines))

    def test_flags_backwards_time_and_missing_begin(self):
        lines = [self.header(),
                 '{"t": 2.0, "kind": "sweep-end"}',
                 '{"t": 1.0, "kind": "worker-exit", "worker": 0}']
        errors = validate_journal(lines)
        assert any("backwards" in err for err in errors)
        assert any("sweep-begin" in err for err in errors)

    def test_flags_foreign_header_and_empty_log(self):
        for schema in ("nope/9", "repro.fabric.journal/1"):
            assert any("schema" in e for e in
                       validate_journal([self.header(schema=schema)]))
        assert any("header.cells" in e for e in
                   validate_journal([self.header(cells=-1)]))
        assert "empty journal" in validate_journal([])[0]

    def test_unreadable_path_reports_not_raises(self, tmp_path):
        errors = validate_journal(str(tmp_path / "missing.jsonl"))
        assert errors and "cannot read" in errors[0]


class TestSweepEvents:
    def test_serial_sweep_produces_a_valid_log(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, cache=small_cache(tmp_path), journal=path)
        assert validate_journal(path) == []
        kinds = [e["kind"] for e in replay_journal(path).events]
        assert kinds[0] == "sweep-begin" and kinds[-1] == "sweep-end"
        assert kinds.count("enqueued") == 4 == kinds.count("done")
        assert set(kinds) <= set(EVENT_KINDS)

    def test_parallel_sweep_produces_a_valid_log(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, workers=2, cache=small_cache(tmp_path),
                  journal=path, heartbeat=0.02)
        assert validate_journal(path) == []
        events = replay_journal(path).events
        spawns = [e for e in events if e["kind"] == "worker-spawn"]
        assert [e["worker"] for e in spawns] == [0, 1]
        assert all(e["kind"] != "worker-respawn" for e in events)

    def test_event_log_cannot_change_canonical_records(self, tmp_path):
        plain = run_sweep(SMALL, cache=small_cache(tmp_path, "a"))
        logged = run_sweep(SMALL, cache=small_cache(tmp_path, "b"),
                           journal=str(tmp_path / "journal.jsonl"))
        assert canonical_records_json(logged.records) == \
            canonical_records_json(plain.records)
        # a sweep given no journal writes nothing but cache entries
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["a", "b", "journal.jsonl"]

    def test_cached_rerun_emits_hit_events_and_callbacks(self, tmp_path):
        cache = small_cache(tmp_path)
        run_sweep(SMALL, cache=cache)
        seen = []
        path = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, cache=cache, journal=path,
                  progress=lambda cell, outcome: seen.append((cell, outcome)))
        # cached cells fire the same callbacks an executing sweep would
        assert [o for _, o in seen] == ["hit"] * 4
        kinds = [e["kind"] for e in replay_journal(path).events]
        assert kinds.count("cache-hit") == 4
        assert kinds.count("dispatched") == 0

    def test_duplicate_cells_fire_symmetric_callbacks(self, tmp_path):
        spec = GridSpec(presets=("smp-2", "smp-2"), labels=("PI",),
                        scales=(0.04,), native=(False, False))
        seen = []
        run_sweep(spec, cache=small_cache(tmp_path),
                  progress=lambda cell, outcome: seen.append(outcome))
        assert sorted(seen) == ["hit", "miss"]

    def test_timeout_records_progress_at_kill(self, tmp_path, monkeypatch):
        # Every attempt parks right after its first heartbeat, so the cell
        # cannot finish inside the timeout however fast the host is, and
        # the progress at the kill is that heartbeat: the engine hook's
        # first firing, HOOK_EVERY_EVENTS events into a small cell.
        flag = tmp_path / "stalled"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_STALL}@{flag}")
        spec = GridSpec(presets=("sw-dsm-4",), labels=("SOR",),
                        scales=(0.05,), timeout=1.0)
        path = str(tmp_path / "journal.jsonl")
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           stall_grace=0.5, journal=path, heartbeat=0.02)
        assert validate_journal(path) == []
        assert flag.read_text().split() == [faultpoints.WORKER_CELL_STALL] * 2
        cell = result.manifest.cells[0]
        assert cell.outcome == "failed"
        assert cell.progress is not None
        assert cell.progress["events_executed"] == HOOK_EVERY_EVENTS
        assert cell.progress["virtual_seconds"] > 0.0
        # the timeout message carries the same progress numbers
        assert "events" in cell.error and "virtual" in cell.error
        state = replay_journal(path)
        kinds = [e["kind"] for e in state.events]
        assert kinds.count("heartbeat") > 0
        assert kinds.count("worker-kill") >= 1
        assert kinds.count("retried") >= 1
        kill = next(e for e in state.events if e["kind"] == "worker-kill")
        assert kill["data"]["progress"]["events_executed"] > 0
        # the commit record round-trips progress through the log
        assert state.manifest().cells[0].progress == cell.progress

    def test_bad_heartbeat_interval_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            run_sweep(SMALL, cache=small_cache(tmp_path), heartbeat=0.0)


class TestManifestRender:
    def outcome(self, **over):
        d = dict(index=0, id="smp-2/PI@0.04", key="c0ffee" * 8,
                 outcome="miss", host_seconds=0.01, events=42)
        d.update(over)
        return CellOutcome(**d)

    def test_render_empty_manifest(self):
        text = SweepManifest(suite="empty", workers=1).render()
        assert "0 cells" in text and "0% cache hits" in text

    def test_render_includes_hit_ratio_and_cache_stats(self):
        manifest = SweepManifest(
            suite="s", workers=2,
            cells=[self.outcome(), self.outcome(index=1, outcome="hit")],
            cache={"hits": 1, "misses": 1, "stores": 1,
                   "entries": 7, "bytes": 1234, "root": "/tmp/c"})
        text = manifest.render()
        assert "50% cache hits" in text
        assert "7 entries / 1234 evictable bytes in /tmp/c" in text

    def test_render_shows_progress_at_kill(self):
        manifest = SweepManifest(suite="s", workers=2, cells=[self.outcome(
            outcome="failed", error="timeout: exceeded 1s wall clock",
            progress={"events_executed": 16384, "virtual_seconds": 0.25})])
        text = manifest.render()
        assert "[at kill: 16384 events, 0.250000s virtual]" in text

    def test_render_without_cache_stats_has_no_cache_line(self):
        text = SweepManifest(suite="s", workers=1,
                             cells=[self.outcome()]).render()
        assert "evictable" not in text
