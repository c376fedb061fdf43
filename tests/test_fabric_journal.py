"""The fabric's sweep journal: crash safety and lifecycle lines.

Covers the durability contract end to end: the write-ahead journal's
tolerant replay (torn tails, duplicate commits), ``run_sweep``'s
resume path (restore committed cells, re-execute only the rest,
byte-identical canonical records), deterministic crash injection via
fault points, the retry/abort failure policy, and the CLI's
``sweep resume`` / ``sweep status`` / ``sweep report`` / ``sweep fsck``
surface — crashes through real subprocesses, because a fault point kills its
process with ``os._exit`` and must not take pytest down with it.

It also covers the narration half: the writer's flushed, ``t``-stamped
lines and its one clock, the ``validate_journal`` schema gate, the sweep
determinism guarantee (keeping a journal cannot change canonical records),
symmetric progress callbacks, and the per-cell table's cache-stats /
progress-at-kill surfaces. The engine host hook heartbeats ride on is
tested with the engine (test_sim_engine.py).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from repro.fabric import (EVENT_KINDS, JOURNAL_SCHEMA, CellOutcome, GridSpec,
                          JournalError, SweepJournal,
                          canonical_records_json, replay_journal, run_sweep,
                          validate_journal)
from repro.fabric import faultpoints
from repro.fabric.manifest import SweepManifest
from repro.fabric.worker import HOOK_EVERY_EVENTS
from tests.test_fabric_sweep import SMALL, small_cache

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def outcome(i, kind="miss", key=None):
    return CellOutcome(index=i, id=f"cell-{i}", key=key or f"k{i}",
                       outcome=kind)


class TestJournalReplay:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"suite": "t", "cells": 3}) as jnl:
            jnl.transition(0, "enqueued")
            jnl.commit(outcome(0))
            jnl.transition(1, "dispatched")
            jnl.commit(outcome(1, "failed"))
            jnl.status("interrupted")
        state = replay_journal(path)
        assert state.header["suite"] == "t"
        assert sorted(state.committed) == [0, 1]
        assert state.committed[1].outcome == "failed"
        assert state.status == "interrupted"
        assert state.transitions == 2
        assert state.torn_bytes is None
        assert state.pending(3) == [2]
        assert state.counts() == {"miss": 1, "failed": 1}

    def test_duplicate_commits_resolve_last_one_wins(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as jnl:
            jnl.commit(outcome(0, "failed"))
            jnl.commit(outcome(0, "miss"))     # a resumed sweep re-ran it
        state = replay_journal(path)
        assert state.committed[0].outcome == "miss"
        assert state.pending(1) == []

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 2}) as jnl:
            jnl.commit(outcome(0))
        clean = os.path.getsize(path)
        with open(path, "ab") as fh:         # a write cut off mid-line
            fh.write(b'{"kind":"commit","cell":1,"outc')
        state = replay_journal(path)
        assert sorted(state.committed) == [0]
        assert state.torn_bytes == clean

    def test_resume_truncates_the_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 2}) as jnl:
            jnl.commit(outcome(0))
        clean = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b'{"torn')
        with SweepJournal.resume(path) as jnl:
            jnl.commit(outcome(1))
        state = replay_journal(path)
        assert sorted(state.committed) == [0, 1]
        assert state.torn_bytes is None
        assert os.path.getsize(path) > clean

    def test_complete_but_garbled_final_line_counts_as_torn(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as jnl:
            jnl.commit(outcome(0))
        with open(path, "ab") as fh:         # newline landed, payload did not
            fh.write(b"\x00\xffgarbage\n")
        state = replay_journal(path)
        assert sorted(state.committed) == [0]
        assert state.torn_bytes is not None

    def test_interior_corruption_raises(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with SweepJournal(path, header={"cells": 1}) as jnl:
            jnl.commit(outcome(0))
        with open(path, "ab") as fh:
            fh.write(b"garbage line\n")
            fh.write(json.dumps({"kind": "commit", "cell": 1,
                                 "outcome": outcome(1).to_dict()}).encode()
                     + b"\n")
        with pytest.raises(JournalError, match="corrupt"):
            replay_journal(path)

    def test_foreign_header_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"schema": "something/else"}\n')
        with pytest.raises(JournalError, match="schema"):
            replay_journal(str(path))

    def test_missing_file_raises_journal_error(self, tmp_path):
        with pytest.raises(JournalError, match="cannot read"):
            replay_journal(str(tmp_path / "nope.jsonl"))


class TestJournalReplayProperty:
    def test_replay_is_idempotent_over_any_prefix(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        def line(n, kind, who, result):
            entry = {"t": n / 100, "kind": kind}
            if kind == "commit":
                entry.update(cell=who, outcome=outcome(who, result).to_dict())
            elif kind.startswith("worker-"):
                entry["worker"] = who
            else:
                entry.update(cell=who, id=f"cell-{who}", worker=0)
                if kind == "heartbeat":
                    entry["data"] = {"events_executed": n,
                                     "virtual_seconds": 0.1}
            return json.dumps(entry, separators=(",", ":")) + "\n"

        header = json.dumps({"schema": JOURNAL_SCHEMA, "suite": "p",
                             "cells": 6, "workers": 2}) + "\n" \
            + line(0, "sweep-begin", 0, None)
        who = st.integers(min_value=0, max_value=5)
        entry_st = st.one_of(
            st.tuples(st.just("commit"), who,
                      st.sampled_from(["hit", "miss", "failed"])),
            st.tuples(st.sampled_from(sorted(
                set(EVENT_KINDS) - {"sweep-begin", "sweep-end"})), who,
                st.none()))
        path = str(tmp_path / "prop.jsonl")

        def last_wins(entries):
            return {i: result for kind, i, result in entries
                    if kind == "commit"}

        @settings(max_examples=60, deadline=None)
        @given(entries=st.lists(entry_st, max_size=24),
               cut=st.integers(min_value=0, max_value=24),
               torn=st.binary(max_size=12))
        def check(entries, cut, torn):
            lines = [line(n, *entry) for n, entry in enumerate(entries, 1)]
            full = header + "".join(lines)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(full)
            whole = replay_journal(path)
            # last-one-wins over arbitrary duplicated commit records,
            # whatever narration is interleaved with them
            expect = last_wins(entries)
            assert {i: oc.outcome for i, oc in whole.committed.items()} \
                == expect
            assert whole.problems == []
            assert len(whole.events) == 1 + sum(
                kind != "commit" for kind, _, _ in entries)

            # any prefix replays to the last-wins map of that prefix, and
            # its per-cell view marks exactly the uncommitted cells pending
            prefix = entries[:cut]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header + "".join(lines[:len(prefix)]))
            part = replay_journal(path)
            assert {i: oc.outcome for i, oc in part.committed.items()} \
                == last_wins(prefix)
            assert set(part.committed) <= set(whole.committed)
            assert part.problems == []
            assert [c.index for c in part.manifest().pending_cells()] \
                == part.pending(6)

            # a torn final line (no trailing newline) never changes the
            # durable state and reports the clean byte offset
            torn_line = torn.replace(b"\n", b"")
            if torn_line:
                with open(path, "wb") as fh:
                    fh.write(full.encode() + torn_line)
                torn_state = replay_journal(path)
                assert {i: oc.outcome
                        for i, oc in torn_state.committed.items()} == expect
                assert torn_state.torn_bytes == len(full.encode())

        check()


class TestFaultpoints:
    def test_parse_spec_accepts_lists_and_skips_malformed(self):
        spec = faultpoints.parse_spec(
            "worker-cell-start@/tmp/a, orchestrator-pre-commit@/tmp/b,"
            "malformed,@,x@")
        assert spec == {"worker-cell-start": "/tmp/a",
                        "orchestrator-pre-commit": "/tmp/b"}
        assert faultpoints.parse_spec(None) == {}

    def test_crash_env_round_trips_through_parse(self):
        env = faultpoints.crash_env("my-point", "/tmp/f")
        assert faultpoints.parse_spec(env[faultpoints.FAULTPOINT_ENV]) == \
            {"my-point": "/tmp/f"}

    def test_unarmed_point_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv(faultpoints.FAULTPOINT_ENV, raising=False)
        faultpoints.maybe_crash("worker-cell-start")   # must not exit
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV, "other@/tmp/x")
        faultpoints.maybe_crash("worker-cell-start")

    def test_armed_point_exits_once_with_the_distinct_code(self, tmp_path):
        # a real subprocess: maybe_crash hard-exits the calling process
        flag = tmp_path / "flag"
        prog = ("from repro.fabric import faultpoints\n"
                "faultpoints.maybe_crash('p1')\n"
                "print('survived')\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
                   **faultpoints.crash_env("p1", str(flag)))
        first = subprocess.run([sys.executable, "-c", prog], env=env,
                               capture_output=True, text=True)
        assert first.returncode == faultpoints.FAULTPOINT_EXIT
        assert flag.read_text().strip() == "p1"
        second = subprocess.run([sys.executable, "-c", prog], env=env,
                                capture_output=True, text=True)
        assert second.returncode == 0          # flag disarms the point
        assert "survived" in second.stdout


class TestResume:
    def test_resume_reexecutes_only_uncommitted_cells(self, tmp_path):
        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        clean = run_sweep(SMALL, cache=cache, journal=journal)
        assert clean.status == "complete"

        # drop the last two commit records, as a crash would have
        state = replay_journal(journal)
        kept = {i: state.committed[i] for i in sorted(state.committed)[:2]}
        with SweepJournal(journal, header=state.header) as jnl:
            for oc in kept.values():
                jnl.commit(oc)

        seen = []
        resumed = run_sweep(
            SMALL, cache=small_cache(tmp_path, "fresh"), journal=journal,
            resume_from=journal,
            progress=lambda cell, oc: seen.append((cell, oc)))
        # committed cells restore (their records come from the cache);
        # only the dropped cells execute — but the fresh cache here
        # misses, so restored cells whose entries vanished re-execute
        assert resumed.status == "complete"
        assert resumed.manifest.counts()["pending"] == 0

    def test_resumed_records_are_byte_identical(self, tmp_path):
        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        clean = run_sweep(SMALL, cache=cache, journal=journal)

        state = replay_journal(journal)
        kept = {i: state.committed[i] for i in sorted(state.committed)[:1]}
        with SweepJournal(journal, header=state.header) as jnl:
            for oc in kept.values():
                jnl.commit(oc)

        seen = []
        resumed = run_sweep(
            SMALL, cache=cache, journal=journal, resume_from=journal,
            progress=lambda cell, oc: seen.append(oc))
        assert resumed.restored == 1
        assert seen.count("restored") == 1
        assert canonical_records_json(resumed.records) == \
            canonical_records_json(clean.records)
        # and the journal now commits every cell again
        assert sorted(replay_journal(journal).committed) == [0, 1, 2, 3]

    def test_restored_cell_with_lost_cache_entry_reexecutes(self, tmp_path):
        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        clean = run_sweep(SMALL, cache=cache, journal=journal)
        # committed everywhere, but the cache burned down
        resumed = run_sweep(SMALL, cache=small_cache(tmp_path, "empty"),
                            journal=journal, resume_from=journal)
        assert resumed.restored == 0
        assert resumed.manifest.counts()["miss"] == 4
        assert canonical_records_json(resumed.records) == \
            canonical_records_json(clean.records)

    def test_resume_rejects_a_different_grid(self, tmp_path):
        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, cache=cache, journal=journal)
        other = GridSpec(presets=("smp-4", "sw-dsm-4"),
                         labels=("PI", "MatMult"), scales=(0.04,))
        with pytest.raises(JournalError, match="different content address"):
            run_sweep(other, cache=cache, journal=str(tmp_path / "j2.jsonl"),
                      resume_from=journal)

    def test_resume_refuses_a_journal_from_telemetry_schema_1(
            self, tmp_path, monkeypatch, capsys):
        """A journal written before PR 23: its commits carry content
        addresses of the old schema, its header grid a ``repeat`` key."""
        import repro.bench.telemetry as telemetry
        from repro.cli import main

        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        with monkeypatch.context() as old:
            old.setattr(telemetry, "SCHEMA", "repro.bench.telemetry/1")
            run_sweep(SMALL, cache=cache, journal=journal)
        with pytest.raises(JournalError, match="different content address"):
            run_sweep(SMALL, cache=cache, journal=str(tmp_path / "j2.jsonl"),
                      resume_from=journal)
        header, rest = open(journal).read().split("\n", 1)
        header = json.loads(header)
        header["grid"]["repeat"] = 1
        with open(journal, "w") as fh:
            fh.write(json.dumps(header) + "\n" + rest)
        assert main(["sweep", "resume", str(tmp_path)]) == 2
        assert "header grid refused" in capsys.readouterr().out

    def test_resume_rejects_a_different_cell_count(self, tmp_path):
        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        run_sweep(SMALL, cache=cache, journal=journal)
        smaller = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        with pytest.raises(JournalError, match="refusing to resume"):
            run_sweep(smaller, cache=cache,
                      journal=str(tmp_path / "j2.jsonl"), resume_from=journal)

    def test_failed_cells_restore_unless_retry_failed(self, tmp_path):
        spec = GridSpec(presets=("sw-dsm-2",), labels=("PI", "MatMult"),
                        scales=(0.04,),
                        faults=(None,
                                {"seed": 3,
                                 "crashes": [{"node": 1, "at": 0.0}]}))
        cache = small_cache(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        first = run_sweep(spec, cache=cache, journal=journal)
        failed = first.manifest.counts()["failed"]
        assert failed >= 1

        restored = run_sweep(spec, cache=cache, journal=journal,
                             resume_from=journal)
        assert restored.manifest.counts()["failed"] == failed
        assert restored.restored == len(spec.expand())   # nothing re-ran

        retried = run_sweep(spec, cache=cache, journal=journal,
                            resume_from=journal, retry_failed=True)
        # deterministic chaos: they fail again, but they really re-ran
        assert retried.manifest.counts()["failed"] == failed
        assert retried.restored == len(spec.expand()) - failed


class TestFailurePolicy:
    def test_zero_retries_fails_a_crashed_job_immediately(self, tmp_path,
                                                          monkeypatch):
        flag = tmp_path / "crash-once"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_START}@{flag}")
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           max_retries=0)
        cell = result.manifest.cells[0]
        assert cell.outcome == "failed"
        assert cell.attempts == 1
        assert cell.error.startswith("crash: ")

    def test_retry_budget_still_recovers_with_backoff(self, tmp_path,
                                                      monkeypatch):
        flag = tmp_path / "crash-once"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_START}@{flag}")
        spec = GridSpec(presets=("smp-2",), labels=("PI",), scales=(0.04,))
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           max_retries=2, retry_backoff=0.05)
        cell = result.manifest.cells[0]
        assert cell.outcome == "miss"
        assert cell.attempts == 2

    def test_max_failures_aborts_and_reports_pending(self, tmp_path):
        # every cell is poisoned; a budget of 1 stops the sweep after
        # the first failure instead of grinding through the whole grid
        spec = GridSpec(presets=("sw-dsm-2",),
                        labels=("PI", "MatMult", "SOR", "LU"),
                        scales=(0.04,),
                        faults=({"seed": 3,
                                 "crashes": [{"node": 1, "at": 0.0}]},))
        result = run_sweep(spec, cache=small_cache(tmp_path), max_failures=1)
        assert result.status == "aborted"
        counts = result.manifest.counts()
        assert counts["failed"] == 1
        assert counts["pending"] == 3
        assert result.manifest.status == "aborted"
        # pending cells have no commit record -> resume picks them up
        assert [c.outcome for c in result.manifest.pending_cells()] \
            == ["pending"] * 3

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError, match="max_retries"):
            run_sweep(SMALL, cache=small_cache(tmp_path), max_retries=-1)
        with pytest.raises(ValueError, match="max_failures"):
            run_sweep(SMALL, cache=small_cache(tmp_path), max_failures=0)
        with pytest.raises(ValueError, match="retry_backoff"):
            run_sweep(SMALL, cache=small_cache(tmp_path), retry_backoff=-0.1)


class TestCrashResumeCLI:
    """The acceptance scenario, through the real CLI in subprocesses."""

    GRID = {"suite": "crashcli", "presets": ["smp-2"],
            "labels": ["PI", "MatMult"], "scales": [0.04, 0.05]}

    def run_cli(self, *argv, env=None, cwd=None):
        full_env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        if env:
            full_env.update(env)
        return subprocess.run([sys.executable, "-m", "repro", *argv],
                              env=full_env, cwd=cwd, capture_output=True,
                              text=True, timeout=300)

    def test_sigkilled_sweep_resumes_to_byte_parity(self, tmp_path, capsys):
        from repro.cli import main

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(self.GRID))
        sweep_dir = tmp_path / "sweep"
        cache_dir = str(tmp_path / "cache")
        flag = tmp_path / "crash.flag"

        crashed = self.run_cli(
            "sweep", "run", "--grid", str(grid), "--workers", "2",
            "--dir", str(sweep_dir), "--cache-dir", cache_dir,
            env=faultpoints.crash_env(faultpoints.ORCH_POST_COMMIT,
                                      str(flag)))
        assert crashed.returncode == faultpoints.FAULTPOINT_EXIT, \
            crashed.stdout + crashed.stderr
        assert flag.exists()

        status = self.run_cli("sweep", "status", "--dir", str(sweep_dir),
                              "--cache-dir", cache_dir)
        assert status.returncode == 0, status.stdout + status.stderr
        # the per-cell table of a crashed sweep, not only counts
        assert any(line.startswith("smp-2/") and " pending " in line
                   for line in status.stdout.splitlines())

        # the same crashed sweep, resumed in-process on a copy
        shutil.copytree(sweep_dir, tmp_path / "sweep2")
        shutil.copytree(cache_dir, tmp_path / "cache2")
        copy = str(tmp_path / "sweep2" / "journal.jsonl")
        counts = run_sweep(GridSpec.load(str(grid)), workers=2,
                           cache=small_cache(tmp_path, "cache2"), journal=copy,
                           resume_from=copy).manifest.counts()
        assert counts["hit"] + counts["miss"] == 4

        resumed = self.run_cli("sweep", "resume", str(sweep_dir),
                               "--cache-dir", cache_dir)
        assert resumed.returncode == 0, resumed.stdout + resumed.stderr

        ref = self.run_cli(
            "sweep", "run", "--grid", str(grid), "--cache-dir",
            str(tmp_path / "ref-cache"), "--json-out",
            str(tmp_path / "REF.json"))
        assert ref.returncode == 0, ref.stdout + ref.stderr

        resumed_doc = json.loads((sweep_dir / "telemetry.json").read_text())
        ref_doc = json.loads((tmp_path / "REF.json").read_text())
        assert canonical_records_json(resumed_doc["records"]) == \
            canonical_records_json(ref_doc["records"])

        # one record: the journal (and the telemetry asked for) is all a
        # sweep writes, and it holds both sessions on one clock
        assert sorted(p.name for p in sweep_dir.iterdir()) == \
            ["journal.jsonl", "telemetry.json"]
        log = [json.loads(line) for line in
               (sweep_dir / "journal.jsonl").read_text().splitlines()[1:]]
        kinds = [entry["kind"] for entry in log]
        assert kinds.count("sweep-begin") == 2
        assert "started" in kinds[:kinds.index("sweep-begin", 1)]
        assert [e["t"] for e in log] == sorted(e["t"] for e in log)

        # one answer: every view counts each cell once, the same way
        assert main(["sweep", "status", "--dir", str(sweep_dir)]) == 0
        assert (f"4 cells — {counts['hit']} hit / {counts['miss']} miss / "
                f"0 failed (") in capsys.readouterr().out
        assert main(["sweep", "report", "--dir", str(sweep_dir)]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] == {
            "total": 4, "resolved": 4, "remaining": 0, "retried": 0,
            "cache_hits": counts["hit"], "executed": counts["miss"],
            "failed": 0}

    def test_status_and_report_diagnose_missing_and_stub_logs(self, tmp_path,
                                                              capsys):
        from repro.cli import main

        # header-only log: a sweep that died before its first line
        stub = tmp_path / "stub.jsonl"
        stub.write_text(json.dumps(
            {"schema": JOURNAL_SCHEMA, "suite": "s",
             "cells": 1, "workers": 1}) + "\n")
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(stub.read_text() + "garbage\n"
                           '{"t": 0.0, "kind": "sweep-begin"}\n')
        for path, needle in ((tmp_path / "nope.jsonl", "cannot read"),
                             (stub, "sweep-begin"), (corrupt, "corrupt")):
            for command in ("status", "report"):
                # one line, exit 2, and main() returning is no traceback
                assert main(["sweep", command, "--journal", str(path)]) == 2
                out = capsys.readouterr().out
                assert needle in out and len(out.splitlines()) == 1

    def test_fsck_quarantines_a_flipped_byte(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"suite": "fsckcli",
                                    "presets": ["smp-2"], "labels": ["PI"],
                                    "scales": [0.04]}))
        cache_dir = tmp_path / "cache"
        run = self.run_cli("sweep", "run", "--grid", str(grid),
                           "--cache-dir", str(cache_dir))
        assert run.returncode == 0, run.stdout + run.stderr

        entries = [p for p in cache_dir.glob("??/*.json")]
        assert entries
        blob = bytearray(entries[0].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        entries[0].write_bytes(bytes(blob))

        found = self.run_cli("sweep", "fsck", "--cache-dir", str(cache_dir))
        assert found.returncode == 1
        assert "corrupt" in found.stdout

        repaired = self.run_cli("sweep", "fsck", "--cache-dir",
                                str(cache_dir), "--repair")
        assert repaired.returncode == 0, repaired.stdout + repaired.stderr
        assert "quarantined" in repaired.stdout
        assert list((cache_dir / "quarantine").iterdir())

        clean = self.run_cli("sweep", "fsck", "--cache-dir", str(cache_dir))
        assert clean.returncode == 0


# ------------------------------------------------------- lifecycle lines
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

    def test_each_worker_runs_one_cell_at_a_time(self, tmp_path,
                                                 monkeypatch):
        # A worker is sent its next cell only after its last one resolved,
        # so its lines read started -> heartbeat* -> one outcome, repeated;
        # a crashed worker's line is its death, and its retry starts on a
        # fresh worker.
        flag = tmp_path / "crash-once"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_START}@{flag}")
        path = str(tmp_path / "journal.jsonl")
        result = run_sweep(SMALL, workers=2, cache=small_cache(tmp_path),
                           journal=path, heartbeat=0.02)
        assert flag.exists()
        assert validate_journal(path) == []
        assert result.manifest.counts()["miss"] == 4
        letters = {"started": "s", "heartbeat": "h", "done": "o",
                   "failed": "o", "worker-kill": "k", "worker-death": "k"}
        lines: dict = {}
        for e in replay_journal(path).events:
            if e["kind"] in letters and "worker" in e:
                lines[e["worker"]] = (lines.get(e["worker"], "")
                                      + letters[e["kind"]])
        assert "k" in "".join(lines.values())     # the crash was seen
        for worker, seq in lines.items():
            assert re.fullmatch(r"(sh*[ok])*", seq), (worker, seq)

    def test_timeout_kill_is_prompt_under_signal_handling(self, tmp_path,
                                                          monkeypatch):
        # The CLI arms its SIGTERM drain handler before the workers fork;
        # a worker that kept it would swallow the kill path's terminate()
        # and hold the whole sweep for the one-second join before SIGKILL.
        flag = tmp_path / "stalled"
        monkeypatch.setenv(faultpoints.FAULTPOINT_ENV,
                           f"{faultpoints.WORKER_CELL_STALL}@{flag}")
        spec = GridSpec(presets=("sw-dsm-4",), labels=("SOR",),
                        scales=(0.05,))
        path = str(tmp_path / "journal.jsonl")
        result = run_sweep(spec, workers=2, cache=small_cache(tmp_path),
                           timeout=1.0, journal=path, heartbeat=0.02,
                           handle_signals=True)
        assert result.manifest.cells[0].error.startswith("timeout: ")
        events = replay_journal(path).events
        kills = [i for i, e in enumerate(events) if e["kind"] == "worker-kill"]
        assert len(kills) == 2
        for i in kills:
            after = next(e for e in events[i:]
                         if e["kind"] in ("retried", "failed"))
            assert after["t"] - events[i]["t"] < 0.5

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
                           journal=path, heartbeat=0.02)
        assert validate_journal(path) == []
        assert flag.read_text().split() == [faultpoints.WORKER_CELL_STALL] * 2
        cell = result.manifest.cells[0]
        assert cell.outcome == "failed"
        assert cell.error.startswith("timeout: ")
        assert cell.attempts == 2            # retried once before giving up
        assert result.doc is None            # nothing succeeded
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
