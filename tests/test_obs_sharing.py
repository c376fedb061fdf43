"""Sharing-pattern analytics (repro.obs.sharing / repro.obs.diagnose).

Three layers of coverage:

* recorder mechanics on synthetic feeds (interval merging, writer-log
  compression, lock histograms, barrier episodes, the stream cap);
* the zero-cost contract — sharing off is the engine default, sharing on
  never changes virtual time (the bit-identity the diffcheck goldens
  enforce, checked here on a live run pair);
* end-to-end diagnosis — SOR on the 4-node SW-DSM exhibits *false*
  sharing on its boundary pages (disjoint sub-page writes), PI exhibits
  *true* sharing on its accumulator page plus a hot contended lock, and
  the report/exporters (JSON schema, heatmap CSV, Chrome trace,
  telemetry rollup) validate cleanly on both.
"""

import json

import pytest

from repro.config import preset
from repro.obs import (NULL_SHARING, SharingRecorder, classify_sharing,
                       ping_pong_pages, render_sharing_report,
                       sharing_chrome_trace, sharing_heatmap_csv,
                       sharing_report, sharing_summary,
                       validate_chrome_trace, validate_sharing_report)
from repro.obs.sharing import LockSharing, merge_interval
from repro.sim.engine import Engine


def run_app(preset_name, app, sharing=True, **params):
    """Run one app with the sharing recorder on; returns the platform."""
    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    from repro.models.jiajia_api import JiaJiaApi

    cfg = preset(preset_name)
    cfg.sharing = sharing
    plat = cfg.build()
    api = JiaJiaApi(plat.hamster)
    fn = get_app(app)
    merged = merge_rank_results(api.run(lambda a: fn(a, **params)))
    assert merged.verified
    return plat, merged


# ------------------------------------------------------------ unit: recorder
class TestNullSharing:
    def test_engine_default_is_null(self):
        engine = Engine()
        assert engine.sharing is NULL_SHARING
        assert not engine.sharing.enabled

    def test_all_hooks_are_noops(self):
        NULL_SHARING.access(0, 1, 0, 8, True)
        NULL_SHARING.fault(0, 1, True, 0.0)
        NULL_SHARING.fetch(0, 1, 1, 4096, 0.0)
        NULL_SHARING.notice(1, 0, 0.0)
        NULL_SHARING.transition(0, 1, 2, 0, 0.0)
        NULL_SHARING.remote(0, 1, 1, True, 8, 0.0)
        NULL_SHARING.lock_acquired(3, 0, 0.0, 1.0)
        NULL_SHARING.lock_released(3, 0, 2.0)
        NULL_SHARING.barrier(0, 0.0, 1.0)


class TestMergeInterval:
    def test_disjoint_stays_sorted(self):
        ivs = []
        merge_interval(ivs, 8, 16)
        merge_interval(ivs, 0, 4)
        merge_interval(ivs, 32, 40)
        assert ivs == [[0, 4], [8, 16], [32, 40]]

    def test_overlap_and_adjacency_absorb(self):
        ivs = [[0, 4], [8, 16]]
        merge_interval(ivs, 4, 8)   # adjacent on both sides: one interval
        assert ivs == [[0, 16]]
        merge_interval(ivs, 12, 20)
        assert ivs == [[0, 20]]

    def test_empty_interval_ignored(self):
        ivs = [[0, 4]]
        merge_interval(ivs, 5, 5)
        assert ivs == [[0, 4]]


class TestRecorderMechanics:
    def recorder(self, **kw):
        return SharingRecorder(Engine(), **kw)

    def test_writer_log_compresses_same_rank(self):
        rec = self.recorder()
        for t in (0.1, 0.2, 0.3):
            rec.notice(7, 0, t)
        rec.notice(7, 1, 0.4)
        rec.notice(7, 0, 0.5)
        ps = rec.pages[7]
        assert ps.writer_log == [(0.1, 0), (0.4, 1), (0.5, 0)]
        assert ps.alternations == 2
        assert ps.notices == 5

    def test_transition_maps_invalidation_and_downgrade(self):
        rec = self.recorder()
        rec.transition(0, 5, 2, 0, 0.1)   # RW -> INVALID
        rec.transition(0, 5, 2, 1, 0.2)   # RW -> RO
        rec.transition(0, 5, 0, 1, 0.3)   # upgrade: neither
        ps = rec.pages[5]
        assert (ps.invalidations, ps.downgrades) == (1, 1)

    def test_access_tracks_write_ranges_per_rank(self):
        rec = self.recorder()
        rec.access(0, 9, 0, 8, True)
        rec.access(0, 9, 8, 16, True)
        rec.access(1, 9, 512, 1024, True)
        rec.access(2, 9, 0, 4096, False)   # reads never enter the map
        ps = rec.pages[9]
        assert ps.write_ranges == {0: [[0, 16]], 1: [[512, 1024]]}
        assert (ps.reads, ps.writes) == (1, 3)

    def test_event_stream_cap_counts_drops(self):
        rec = self.recorder(max_events=2)
        for t in range(5):
            rec.fault(0, 1, True, float(t))
        assert len(rec.events) == 2
        assert rec.dropped == 3
        assert rec.pages[1].write_faults == 5   # aggregates keep counting

    def test_lock_wait_hold_histograms(self):
        rec = self.recorder()
        rec.lock_acquired(3, 0, 0.0, 0.0)       # uncontended
        rec.lock_released(3, 0, 0.002)          # 2 ms hold
        rec.lock_acquired(3, 1, 0.002, 0.005)   # 3 ms wait
        rec.lock_released(3, 1, 0.005)
        ls = rec.locks[3]
        assert ls.acquires == 2 and ls.contended == 1
        assert ls.wait_total == pytest.approx(0.003)
        assert ls.hold_max == pytest.approx(0.002)
        assert ls.wait_hist[-9] == 1            # zero-wait bucket
        assert ls.wait_hist[-3] == 1            # millisecond bucket

    def test_lock_release_without_acquire_is_ignored(self):
        rec = self.recorder()
        rec.lock_released(3, 0, 1.0)
        assert rec.locks[3].hold_total == 0.0

    def test_bucket_exponents(self):
        assert LockSharing._bucket(0.0) == -9
        assert LockSharing._bucket(3e-6) == -6
        assert LockSharing._bucket(0.2) == -1
        assert LockSharing._bucket(500.0) == 2   # clamped at the top

    def test_barrier_episodes_index_per_rank(self):
        rec = self.recorder()
        for rank in range(3):
            rec.barrier(rank, 0.1 * rank, 0.5)   # episode 0
        rec.barrier(0, 1.0, 1.5)                  # episode 1 (rank 0 only)
        assert len(rec.barrier_episodes) == 2
        assert rec.barrier_episodes[0]["arrive"] == {0: 0.0, 1: 0.1, 2: 0.2}
        assert rec.barrier_episodes[1]["arrive"] == {0: 1.0}

    def test_write_events_round_trips_writer_logs(self):
        rec = self.recorder()
        rec.notice(4, 0, 0.1)
        rec.notice(4, 1, 0.2)
        rec.remote(2, 8, 0, True, 8, 0.3)
        assert rec.write_events() == [(0.1, 4, 0), (0.2, 4, 1), (0.3, 8, 2)]


# ------------------------------------------------------------ unit: detectors
class TestDetectors:
    def test_single_writer_never_ping_pongs(self):
        events = [(0.1 * i, 7, 0) for i in range(100)]
        assert ping_pong_pages(events, min_alternations=1) == {}

    def test_alternation_threshold(self):
        events = [(0.1 * i, 7, i % 2) for i in range(5)]   # 4 alternations
        assert 7 in ping_pong_pages(events, min_alternations=4)
        assert 7 not in ping_pong_pages(events, min_alternations=5)

    def test_rate_threshold(self):
        slow = [(10.0 * i, 7, i % 2) for i in range(6)]    # 0.1 altern/s
        assert 7 not in ping_pong_pages(slow, min_alternations=4, min_rate=1.0)
        assert 7 in ping_pong_pages(slow, min_alternations=4, min_rate=0.05)

    def test_classify_disjoint_is_false(self):
        assert classify_sharing({0: [[0, 8]], 1: [[8, 16]]}) == "false"

    def test_classify_overlap_is_true(self):
        assert classify_sharing({0: [[0, 8]], 1: [[4, 16]]}) == "true"

    def test_classify_needs_two_writers(self):
        assert classify_sharing({0: [[0, 8]]}) == "unknown"
        assert classify_sharing({}) == "unknown"
        assert classify_sharing({0: [[0, 8]], 1: []}) == "unknown"


# --------------------------------------------------------------- zero cost
class TestZeroCost:
    def test_sharing_does_not_change_virtual_time(self):
        plat_off, merged_off = run_app("sw-dsm-2", "sor", sharing=False,
                                       n=64, iterations=2)
        plat_on, merged_on = run_app("sw-dsm-2", "sor", sharing=True,
                                     n=64, iterations=2)
        assert merged_on.phases == merged_off.phases
        assert plat_on.engine.now == plat_off.engine.now
        assert plat_on.engine.events_executed == plat_off.engine.events_executed
        assert plat_off.sharing is None
        assert plat_on.sharing is not None and plat_on.sharing.enabled

    def test_config_round_trip(self):
        cfg = preset("sw-dsm-2")
        cfg.sharing = True
        from repro.config import loads

        again = loads(cfg.to_text())
        assert again.sharing is True
        assert loads(preset("sw-dsm-2").to_text()).sharing is False


# ------------------------------------------------------------- end to end
class TestSorFalseSharing:
    """SOR without locality placement: rank boundaries land mid-page, so
    neighbouring ranks write disjoint halves of the same page — the
    canonical false-sharing pattern the detector must name."""

    @pytest.fixture(scope="class")
    def report(self):
        plat, _ = run_app("sw-dsm-4", "sor", n=128, iterations=4)
        doc = sharing_report(plat.sharing,
                             platform_name="test",
                             n_ranks=plat.dsm.n_procs,
                             page_size=plat.dsm.space.page_size)
        return plat, doc

    def test_detects_false_sharing_pages_and_ranks(self, report):
        _, doc = report
        fs = doc["false_sharing"]
        assert fs["pages"], "SOR boundary pages must flag as false sharing"
        assert len(fs["ranks"]) >= 2
        for entry in doc["ping_pong"]:
            if entry["classification"] != "false":
                continue
            ranges = entry["write_ranges"]
            assert len(ranges) >= 2
            # disjointness is what makes it *false* sharing
            flat = [(lo, hi, r) for r, ivs in ranges.items()
                    for lo, hi in ivs]
            flat.sort()
            for (lo_a, hi_a, ra), (lo_b, hi_b, rb) in zip(flat, flat[1:]):
                if ra != rb:
                    assert lo_b >= hi_a

    def test_report_validates_and_renders(self, report):
        _, doc = report
        assert validate_sharing_report(doc) == []
        assert validate_sharing_report(json.dumps(doc)) == []
        text = render_sharing_report(doc)
        assert "FALSE SHARING" in text
        assert "barriers" in text

    def test_heatmap_and_trace_exports(self, report):
        plat, _ = report
        csv = sharing_heatmap_csv(plat.sharing, bins=20)
        header, *rows = csv.strip().split("\n")
        assert header == ("page,bin,t_start,t_end,faults,fetches,"
                          "invalidations,writes")
        assert rows, "an active run must produce heatmap cells"
        for row in rows:
            parts = row.split(",")
            assert len(parts) == 8
            assert float(parts[3]) > float(parts[2])
        trace = sharing_chrome_trace(plat.sharing, platform_name="test")
        assert validate_chrome_trace(trace) == []
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert counters and all(e["pid"] == 98 for e in counters)

    def test_summary_rollup(self, report):
        plat, doc = report
        summary = sharing_summary(plat.sharing)
        assert summary["schema"] == "repro.obs.sharing/1"
        assert summary["ping_pong_pages"] == len(doc["ping_pong"])
        assert summary["false_sharing_pages"] == len(
            doc["false_sharing"]["pages"])
        assert summary["top_hot_page"]["fault_rate_hz"] > 0
        assert summary["barrier_max_skew_s"] > 0


class TestPiTrueSharingAndLocks:
    """PI sums into one accumulator under a lock: every rank writes the
    same bytes (true sharing, not false), and the lock is hot."""

    @pytest.fixture(scope="class")
    def plat(self):
        plat, _ = run_app("sw-dsm-4", "pi", intervals=1 << 14)
        return plat

    def test_accumulator_is_true_sharing(self, plat):
        # Every handoff writes the same 8 bytes -> never "false".
        found = ping_pong_pages(plat.sharing.write_events(),
                                min_alternations=2)
        assert found, "the shared accumulator page must alternate writers"
        for page in found:
            cls = classify_sharing(plat.sharing.pages[page].write_ranges)
            assert cls == "true"
        # At the default threshold it must not be reported as false sharing.
        doc = sharing_report(plat.sharing)
        assert doc["false_sharing"]["pages"] == []

    def test_hot_lock_profile(self, plat):
        doc = sharing_report(plat.sharing)
        assert doc["hot_locks"], "PI's accumulator lock must be profiled"
        top = doc["hot_locks"][0]
        assert top["acquires"] == 4          # one per rank
        assert top["contended"] >= 1
        assert top["wait_total_s"] > 0
        assert top["hold_total_s"] > 0
        assert sum(top["wait_hist"].values()) == top["acquires"]


class TestOtherSubstrates:
    def test_scivm_records_remote_ops(self):
        plat, _ = run_app("hybrid-4", "sor", n=128, iterations=2)
        doc = sharing_report(plat.sharing)
        assert (doc["totals"]["remote_reads"]
                + doc["totals"]["remote_writes"]) > 0
        # SCI-VM never migrates pages, so no JiaJia-style notices...
        assert doc["totals"]["notices"] == 0
        assert validate_sharing_report(doc) == []

    def test_smp_records_accesses_only(self):
        plat, _ = run_app("smp-2", "sor", n=64, iterations=2)
        doc = sharing_report(plat.sharing)
        # hardware coherence: no protocol events at all...
        for key in ("read_faults", "write_faults", "fetches",
                    "invalidations", "notices"):
            assert doc["totals"][key] == 0
        # ...but access counts still locate the hot pages
        assert doc["hot_pages"]
        assert all(e["accesses"] > 0 for e in doc["hot_pages"])
        assert doc["barriers"]["episodes"] > 0

    def test_jiajia_transitions_recorded(self):
        plat, _ = run_app("sw-dsm-2", "sor", n=64, iterations=2)
        doc = sharing_report(plat.sharing)
        assert doc["totals"]["invalidations"] > 0
        assert doc["totals"]["fetches"] > 0
        assert doc["totals"]["fetch_bytes"] > 0


# ------------------------------------------------------------ schema gates
class TestValidation:
    def test_rejects_wrong_schema(self):
        assert validate_sharing_report({"schema": "nope"}) != []

    def test_rejects_bad_classification(self):
        plat, _ = run_app("sw-dsm-2", "pi", intervals=1 << 12)
        doc = sharing_report(plat.sharing, min_alternations=2)
        if doc["ping_pong"]:
            doc["ping_pong"][0]["classification"] = "maybe"
            assert any("classification" in e
                       for e in validate_sharing_report(doc))

    def test_rejects_non_json(self):
        assert validate_sharing_report("{not json")[0].startswith(
            "not valid JSON")
        assert validate_sharing_report([1, 2]) != []


# ------------------------------------------------------- telemetry riding
class TestTelemetrySharing:
    def test_record_gains_schema_versioned_field(self):
        from repro.bench.telemetry import (SCHEMA, run_unit,
                                           validate_telemetry)

        base = run_unit("sw-dsm-2", "PI", 0.05)
        rec = run_unit("sw-dsm-2", "PI", 0.05, sharing=True)
        assert "sharing" not in base
        assert rec["sharing"]["schema"] == "repro.obs.sharing/1"
        # canonical fields are untouched by the extra analytics
        assert rec["fingerprint"] == base["fingerprint"]
        assert rec["virtual_seconds"] == base["virtual_seconds"]
        assert rec["phases"] == base["phases"]
        doc = {"schema": SCHEMA, "suite": "adhoc",
               "scale": 0.05, "records": [rec]}
        assert validate_telemetry(doc) == []

    def test_bad_sharing_field_is_rejected(self):
        from repro.bench.telemetry import (SCHEMA, run_unit,
                                           validate_telemetry)

        rec = run_unit("sw-dsm-2", "PI", 0.05, sharing=True)
        rec["sharing"]["schema"] = "bogus"
        rec["sharing"]["ping_pong_pages"] = -1
        doc = {"schema": SCHEMA, "suite": "adhoc",
               "scale": 0.05, "records": [rec]}
        errors = validate_telemetry(doc)
        assert any("sharing.schema" in e for e in errors)
        assert any("ping_pong_pages" in e for e in errors)


# ----------------------------------------------------------------- the CLI
class TestDiagnoseCli:
    def test_diagnose_end_to_end(self, tmp_path, capsys):
        from repro.cli import _main

        out = tmp_path / "report.json"
        trace = tmp_path / "sharing.trace.json"
        heat = tmp_path / "heat.csv"
        rc = _main(["diagnose", "--preset", "sw-dsm-4", "--app", "sor",
                    "--param", "n=128", "--param", "iterations=4",
                    "--json-out", str(out), "--trace-out", str(trace),
                    "--heatmap-out", str(heat)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "sharing diagnosis" in text
        assert "FALSE SHARING" in text
        doc = json.loads(out.read_text())
        assert validate_sharing_report(doc) == []
        assert doc["false_sharing"]["pages"]
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        assert heat.read_text().startswith("page,bin,")

    # sha256 of the report and the sharing trace. No golden hashes the
    # protection-transition stream these are built from, so the order in
    # which a protocol invalidates pages is pinned here.
    @pytest.mark.parametrize("app, params, report_sha, trace_sha", [
        ("sor", ["--param", "n=128", "--param", "iterations=4"],
         "3ae410282a1be41dd2087276edb0dce4343691f8b9e7f2382a09e65c60bb166f",
         "390fe9d47d4e720242838b3155ead8373075e486fb82980a49c179318682d0cc"),
        ("pi", [],
         "7291d8f7434498ab1214561500c71b9f16e7a5d15cbcfdd6f7a3f764b370c4f0",
         "a119dbf5feae3cb9265217338f2f5405dc5ab0f3596734fffa26d170c56b79a7"),
    ])
    def test_diagnose_output_is_pinned(self, tmp_path, capsys, app, params,
                                       report_sha, trace_sha):
        import hashlib

        from repro.cli import _main

        out, trace = tmp_path / "report.json", tmp_path / "trace.json"
        assert _main(["diagnose", "--preset", "sw-dsm-4", "--app", app,
                      *params, "--json-out", str(out),
                      "--trace-out", str(trace)]) == 0
        assert [hashlib.sha256(p.read_bytes()).hexdigest()
                for p in (out, trace)] == [report_sha, trace_sha]

    def test_diagnose_validate_mode(self, tmp_path, capsys):
        from repro.cli import _main

        out = tmp_path / "r.json"
        rc = _main(["diagnose", "--preset", "sw-dsm-2", "--app", "pi",
                    "--param", "intervals=4096", "--json-out", str(out)])
        assert rc == 0
        assert _main(["diagnose", "--validate", str(out)]) == 0
        out.write_text(json.dumps({"schema": "bogus"}))
        assert _main(["diagnose", "--validate", str(out)]) == 1
        assert "invalid" in capsys.readouterr().out

    def test_run_sharing_out(self, tmp_path, capsys):
        from repro.cli import _main

        out = tmp_path / "sharing.json"
        rc = _main(["run", "--preset", "sw-dsm-2", "--app", "pi",
                    "--param", "intervals=4096", "--sharing-out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_sharing_report(doc) == []
        assert doc["totals"]["lock_acquires"] > 0
