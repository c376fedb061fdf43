"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import build_parser, main
from repro.config import preset
from repro.obs.profile import profile_platform
from tests.test_tools import SOR, tiny_run


class TestParsing:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--app", "pi"])
        assert args.preset == "sw-dsm-4"
        assert args.app == "pi"
        assert args.param == []

    def test_param_type_inference(self):
        args = build_parser().parse_args(
            ["run", "--app", "sor", "--param", "n=64",
             "--param", "locality=false", "--param", "omega=1.5",
             "--param", "tag=hello"])
        params = dict(args.param)
        assert params == {"n": 64, "locality": False, "omega": 1.5,
                          "tag": "hello"}

    def test_bad_param_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "pi", "--param", "oops"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_platforms_lists_presets(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "sw-dsm-4" in out and "hybrid-2" in out
        assert "native-jiajia-4" in out

    def test_apps_lists_table1(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "Matrix Multiplication" in out
        assert "288 / 343 molecules" in out

    def test_run_pi(self, capsys):
        code = main(["run", "--preset", "hybrid-2", "--app", "pi",
                     "--param", "intervals=4096"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verified : True" in out
        assert "total" in out

    def test_run_with_profile(self, capsys):
        code = main(["run", "--preset", "sw-dsm-2", "--app", "sor",
                     "--param", "n=64", "--param", "iterations=2",
                     "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile:" in out and "sync share" in out

    def test_run_native_binding(self, capsys):
        code = main(["run", "--preset", "native-jiajia-2", "--app", "pi",
                     "--param", "intervals=4096", "--native"])
        assert code == 0
        assert "[native binding]" in capsys.readouterr().out

    def test_run_from_config_file(self, tmp_path, capsys):
        from repro.config import preset

        path = tmp_path / "cluster.cfg"
        path.write_text(preset("hybrid-2").to_text())
        code = main(["run", "--config", str(path), "--app", "pi",
                     "--param", "intervals=4096"])
        assert code == 0
        assert "scivm" in capsys.readouterr().out

    def test_run_unknown_app(self):
        from repro.apps.common import AppError

        with pytest.raises(AppError):
            main(["run", "--preset", "hybrid-2", "--app", "doom"])


class TestObservabilityCommands:
    def test_run_with_trace_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "run.trace.json"
        code = main(["run", "--preset", "sw-dsm-2", "--app", "sor",
                     "--param", "n=64", "--param", "iterations=2",
                     "--trace-out", str(path)])
        assert code == 0
        assert "trace    : written to" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_trace_subcommand_reports_critical_path(self, tmp_path, capsys):
        path = tmp_path / "t.trace.json"
        code = main(["trace", "--preset", "sw-dsm-2", "--app", "sor",
                     "--param", "n=64", "--param", "iterations=2",
                     "--trace-out", str(path),
                     "--metrics-interval", "0.0005",
                     "--metrics-out", str(tmp_path / "m.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "compute ms" in out
        assert "spans    :" in out
        assert (tmp_path / "m.csv").read_text().startswith("time,")

    def test_trace_output_is_pinned(self, capsys):
        # sha256 of the breakdown table and the critical chain, so how the
        # report computes either cannot change what the command prints.
        import hashlib

        assert main(["trace", "--preset", "sw-dsm-4", "--app", "sor"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == "6a4a1838062c08e0629d1ca4b6ca73033d7e115380c6cd97afaf9fb802ee5127"

    def test_trace_validate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "v.trace.json"
        assert main(["trace", "--preset", "sw-dsm-2", "--app", "pi",
                     "--param", "intervals=4096",
                     "--trace-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["trace", "--validate", str(path)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_trace_validate_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"name": "x"}]}')
        assert main(["trace", "--validate", str(bad)]) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_metrics_out_requires_interval(self):
        with pytest.raises(SystemExit):
            main(["run", "--preset", "sw-dsm-2", "--app", "pi",
                  "--metrics-out", "m.csv"])

    def test_chaos_with_trace_out(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "chaos.trace.json"
        code = main(["chaos", "--preset", "sw-dsm-2", "--app", "sor",
                     "--param", "n=64", "--fault-seed", "42",
                     "--trace-out", str(path)])
        assert code == 0
        assert "outcome  : completed" in capsys.readouterr().out
        assert validate_chrome_trace(path.read_text()) == []

    def test_chaos_reads_a_fault_plan_file(self, tmp_path, monkeypatch, capsys):
        import repro.faults
        from repro.errors import ConfigurationError
        from repro.faults import FaultPlan

        plan = FaultPlan.seeded(7)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        plans = []
        real = repro.faults.run_chaos

        def spy(*args, **kwargs):
            plans.append(kwargs["plan"])
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.faults, "run_chaos", spy)
        assert main(["chaos", "--preset", "sw-dsm-2", "--app", "sor",
                     "--param", "n=64", "--fault-plan", str(path)]) == 0
        assert plans == [plan]
        assert "outcome  : completed" in capsys.readouterr().out
        with pytest.raises(ConfigurationError, match="cannot read fault plan"):
            main(["chaos", "--preset", "sw-dsm-2", "--app", "sor",
                  "--fault-plan", str(tmp_path / "missing.json")])

    def test_chaos_crash_flag_ends_in_a_typed_node_failure(self, capsys):
        # A permanent crash is the plan's expected outcome: exit 0.
        assert main(["chaos", "--preset", "sw-dsm-2", "--app", "sor",
                     "--crash", "1@0.004"]) == 0
        out = capsys.readouterr().out
        assert "outcome  : node-failed" in out
        assert "failed=[1]" in out

    def test_chaos_crash_flag_rejects_a_malformed_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chaos", "--preset", "sw-dsm-2", "--app", "sor",
                  "--crash", "1"])
        assert exc.value.code == 2
        assert "--crash expects NODE@AT[@RESTART]" in capsys.readouterr().err

    def test_chaos_drop_rate_replaces_the_plans_drop_rate(self, monkeypatch,
                                                          capsys):
        import dataclasses

        import repro.faults
        from repro.faults import FaultPlan

        seeded = FaultPlan.seeded(42)
        assert seeded.link.drop_rate > 0
        plans = []
        real = repro.faults.run_chaos

        def spy(*args, **kwargs):
            plans.append(kwargs["plan"])
            return real(*args, **kwargs)

        monkeypatch.setattr(repro.faults, "run_chaos", spy)
        assert main(["chaos", "--preset", "sw-dsm-2", "--app", "sor",
                     "--param", "n=64", "--param", "iterations=3",
                     "--fault-seed", "42", "--drop-rate", "0"]) == 0
        assert plans == [seeded.with_overrides(
            link=dataclasses.replace(seeded.link, drop_rate=0.0))]
        out = capsys.readouterr().out
        assert "outcome  : completed" in out and "dropped=0," in out


class TestBenchCommands:
    ONLY = ["--only", "sw-dsm-2/PI"]

    def test_parsing_defaults(self):
        args = build_parser().parse_args(["bench", "run"])
        assert args.suite == "smoke" and args.only is None
        args = build_parser().parse_args(["bench", "report", "--json", "x"])
        assert args.json == "x" and args.out is None
        # the golden store's checker is the one judge of simulated results
        for gone in (["bench", "compare", "--json", "x"],
                     ["bench", "run", "--baseline", "x"],
                     ["bench", "report", "--json", "x", "--baseline", "x"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(gone)

    def test_bench_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    def test_run_writes_valid_telemetry(self, tmp_path, capsys):
        from repro.bench.telemetry import load_telemetry

        out = tmp_path / "telemetry.json"
        code = main(["bench", "run", "--scale", "0.02", *self.ONLY,
                     "--json-out", str(out)])
        assert code == 0
        doc = load_telemetry(str(out))  # raises if schema-invalid
        assert [r["id"] for r in doc["records"]] == ["sw-dsm-2/PI@0.02"]
        stdout = capsys.readouterr().out
        assert "[bench] sw-dsm-2/PI@0.02: miss" in stdout
        assert "events/s" in stdout

    def test_run_only_no_match_fails(self, capsys):
        code = main(["bench", "run", "--only", "no-such-benchmark"])
        assert code == 2
        assert "matched no benchmark" in capsys.readouterr().out

    # The golden store's checker, driven as CI drives it: one store, one
    # checker, one re-record command.
    ROW = "fig/sw-dsm-2/PI"

    def _diffcheck(self, *args):
        from repro.bench import diffcheck

        return diffcheck.main(["diffcheck", *args, "--only", self.ROW])

    def test_compare_against_missing_baseline(self, tmp_path, monkeypatch,
                                              capsys):
        from repro.bench import diffcheck

        monkeypatch.setattr(diffcheck, "GOLDEN_PATH", tmp_path / "nope.json")
        assert self._diffcheck("--check") == 1
        out = capsys.readouterr().out
        assert "no golden store" in out and "--record" in out

    def test_update_baseline_then_compare_clean(self, tmp_path, monkeypatch,
                                                capsys):
        from repro.bench import diffcheck

        store = tmp_path / "golden_runs.json"
        monkeypatch.setattr(diffcheck, "GOLDEN_PATH", store)
        assert self._diffcheck("--record") == 0
        assert list(json.loads(store.read_text())["rows"]) == [self.ROW]
        capsys.readouterr()
        assert self._diffcheck("--check") == 0
        out = capsys.readouterr().out
        assert "all scenarios bit-identical" in out
        # one sw-dsm-2 row decides no claim: each needs a second preset
        assert "0 of 22 paper claims decided by these rows" in out

    def test_compare_flags_synthetic_regression(self, tmp_path, monkeypatch,
                                                capsys):
        from repro.bench import diffcheck

        store = tmp_path / "golden_runs.json"
        monkeypatch.setattr(diffcheck, "GOLDEN_PATH", store)
        assert self._diffcheck("--record") == 0
        doc = json.loads(store.read_text())
        doc["rows"][self.ROW]["virtual_seconds"] *= 1.05  # +5% virtual time
        store.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._diffcheck("--check") == 1
        assert f"FAIL {self.ROW}: virtual_seconds: got " \
            in capsys.readouterr().out

    def test_report_markdown_and_html(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main(["bench", "run", "--scale", "0.02", *self.ONLY,
                     "--json-out", str(out)]) == 0
        capsys.readouterr()
        assert main(["bench", "report", "--json", str(out)]) == 0
        assert "# Benchmark telemetry" in capsys.readouterr().out
        html = tmp_path / "report.html"
        assert main(["bench", "report", "--json", str(out),
                     "--out", str(html)]) == 0
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_experiments_json_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "experiments.json"
        assert main(["experiments", "--scale", "0.02",
                     "--json-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.bench.experiments/1"
        assert doc["figure3_advantage_pct"]


class TestSweepCommands:
    def _grid(self, tmp_path):
        import json

        path = tmp_path / "grid.json"
        path.write_text(json.dumps({
            "presets": ["smp-2", "sw-dsm-2"], "labels": ["PI"],
            "scales": [0.04], "suite": "sweep-cli"}), encoding="utf-8")
        return str(path)

    def test_sweep_run_then_rerun_all_cached(self, tmp_path, capsys):
        import json

        grid = self._grid(tmp_path)
        cache = str(tmp_path / "cache")
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "run", "--grid", grid, "--cache-dir", cache,
                     "--json-out", out]) == 0
        text = capsys.readouterr().out
        assert "miss" in text
        doc = json.loads(open(out, encoding="utf-8").read())
        assert doc["suite"] == "sweep-cli" and len(doc["records"]) == 2

        # second run must be pure cache hits — the CI rerun gate
        assert main(["sweep", "run", "--grid", grid, "--cache-dir", cache,
                     "--expect-cached"]) == 0
        assert "hit" in capsys.readouterr().out

    def test_sweep_expect_cached_fails_cold(self, tmp_path, capsys):
        grid = self._grid(tmp_path)
        assert main(["sweep", "run", "--grid", grid,
                     "--cache-dir", str(tmp_path / "cold"),
                     "--expect-cached"]) == 3
        capsys.readouterr()

    def test_sweep_show_and_status(self, tmp_path, capsys):
        grid = self._grid(tmp_path)
        cache = str(tmp_path / "cache")
        journal = str(tmp_path / "journal.jsonl")
        assert main(["sweep", "run", "--grid", grid, "--cache-dir", cache,
                     "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["sweep", "show", "--grid", grid,
                     "--cache-dir", cache]) == 0
        assert "cached" in capsys.readouterr().out
        assert main(["sweep", "status", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "miss" in out

    def test_sweep_bad_grid_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"presets": ["nope"], "labels": ["PI"]}',
                       encoding="utf-8")
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["sweep", "run", "--grid", str(bad)])

    def test_sweep_expect_cached_names_offending_cells(self, tmp_path,
                                                       capsys):
        grid = self._grid(tmp_path)
        assert main(["sweep", "run", "--grid", grid,
                     "--cache-dir", str(tmp_path / "cold"),
                     "--expect-cached"]) == 3
        out = capsys.readouterr().out
        assert "expect-cached:   miss: smp-2/PI@0.04" in out
        assert "expect-cached:   miss: sw-dsm-2/PI@0.04" in out


    def test_sweep_timeout_reaches_the_scheduler(self, tmp_path, monkeypatch):
        import repro.fabric

        grid = self._grid(tmp_path)
        sweep_dir = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--grid", grid, "--dir", sweep_dir,
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        seen = []

        def stop_here(spec, **kwargs):
            seen.append(kwargs["timeout"])
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.fabric, "run_sweep", stop_here)
        for argv in (["run", "--grid", grid], ["resume", sweep_dir]):
            with pytest.raises(KeyboardInterrupt):
                main(["sweep", *argv, "--timeout", "2.5"])
        assert seen == [2.5, 2.5]


class TestFleetCommands:
    def _swept(self, tmp_path, workers="2"):
        import json

        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "presets": ["smp-2", "sw-dsm-2"], "labels": ["PI"],
            "scales": [0.04], "suite": "fleet-cli"}), encoding="utf-8")
        sweep_dir = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--grid", str(grid),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--workers", workers, "--heartbeat", "0.02",
                     "--dir", sweep_dir]) == 0
        return sweep_dir

    def test_sweep_run_writes_a_valid_event_log(self, tmp_path, capsys):
        from repro.fabric import validate_journal

        sweep_dir = self._swept(tmp_path)
        assert "journal  : written to" in capsys.readouterr().out
        assert validate_journal(sweep_dir + "/journal.jsonl") == []

    def test_sweep_status_renders_cells_and_fleet(self, tmp_path, capsys):
        sweep_dir = self._swept(tmp_path)
        capsys.readouterr()
        assert main(["sweep", "status", "--dir", sweep_dir]) == 0
        out = capsys.readouterr().out
        assert "sw-dsm-2/PI@0.04" in out        # per-cell table rows
        assert "w0" in out                      # per-worker status rows
        assert "cache hit ratio:" in out
        assert "events/s" in out
        assert "ETA:" in out

    def test_sweep_status_rejects_a_broken_log(self, tmp_path, capsys):
        from repro.fabric import JOURNAL_SCHEMA

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "nope/9"}\n', encoding="utf-8")
        assert main(["sweep", "status", "--journal", str(bad)]) == 2
        assert "journal schema must be" in capsys.readouterr().out
        bad.write_text(
            '{"schema": "%s", "suite": "s", "cells": 1, "workers": 1}\n'
            '{"t": 0.0, "kind": "sweep-begin"}\n'
            '{"t": 0.1, "kind": "warp"}\n' % JOURNAL_SCHEMA, encoding="utf-8")
        assert main(["sweep", "status", "--journal", str(bad)]) == 2
        assert "line 3: unknown kind 'warp'" in capsys.readouterr().out

    def test_sweep_report_exports_json_and_trace(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        sweep_dir = self._swept(tmp_path)
        capsys.readouterr()
        fleet = str(tmp_path / "fleet.json")
        trace = str(tmp_path / "fleet.trace")
        assert main(["sweep", "report", "--dir", sweep_dir,
                     "--json-out", fleet, "--trace-out", trace]) == 0
        capsys.readouterr()
        doc = json.loads(open(fleet, encoding="utf-8").read())
        assert doc["schema"] == "repro.obs.fleet/1"
        assert doc["cells"]["total"] == 2
        assert "critical_path_totals" in doc and "cache" in doc
        assert validate_chrome_trace(
            open(trace, encoding="utf-8").read()) == []

    def test_sweep_report_defaults_to_json_on_stdout(self, tmp_path, capsys):
        sweep_dir = self._swept(tmp_path, workers="1")
        capsys.readouterr()
        assert main(["sweep", "report", "--journal",
                     sweep_dir + "/journal.jsonl", "--telemetry",
                     sweep_dir + "/telemetry.json"]) == 0
        assert '"critical_path_totals"' in capsys.readouterr().out


class TestEveryFlagHasAConsumer:
    def test_every_flag_is_named_outside_src(self):
        """A ``--flag`` that no test, doc, example or CI step names has no
        consumer: delete it, or document and test it."""
        import argparse
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent
        files = [root / "README.md", root / ".github/workflows/ci.yml",
                 *root.glob("tests/**/*.py"), *root.glob("docs/*.md"),
                 *root.glob("examples/*.py")]
        corpus = "\n".join(f.read_text(encoding="utf-8") for f in files)

        def flags(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from flags(sub)
                yield from (opt for opt in action.option_strings
                            if opt.startswith("--") and opt != "--help")

        assert sorted(flag for flag in set(flags(build_parser()))
                      if not re.search(re.escape(flag) + r"(?![\w-])",
                                       corpus)) == []


class TestPhaseWallTimers:
    """``repro run --profile``: the host clock is read for one number, the
    ``perf_counter`` pair around ``Engine.run``, printed as one line under
    the counter report; nothing is wrapped. Where host time *goes* is
    ``benchmarks/perf``'s question."""

    def test_attach_measures_and_detach_restores(self):
        # nothing attaches any more: the report reads a finished platform
        # and leaves every method where its class put it
        plat = preset("sw-dsm-2").build()
        tiny_run(plat)
        assert profile_platform(plat) == profile_platform(plat)
        assert "run" not in vars(plat.engine)
        assert "barrier" not in vars(plat.dsm)

    def test_smp_platform_skips_am_delivery(self, capsys):
        assert main(["run", "--preset", "smp-2", *SOR, "--profile"]) == 0
        assert "messages: 0, wire bytes: 0" in capsys.readouterr().out

    def test_virtual_time_unchanged_by_instrumentation(self, capsys):
        run = ["run", "--preset", "sw-dsm-2", *SOR]
        assert main(run) == 0
        bare = capsys.readouterr().out
        assert main(run + ["--profile"]) == 0
        assert capsys.readouterr().out.startswith(bare)
