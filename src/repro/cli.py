"""Command-line driver: ``python -m repro <command>``.

Commands:

* ``run`` — execute a Table 1 benchmark on a platform and print its phase
  times, verification status, and (optionally) a profile report::

      python -m repro run --preset sw-dsm-4 --app sor --param n=256 \\
          --param iterations=5 --profile

* ``chaos`` — run a benchmark under a seeded fault plan (S17) and print the
  typed outcome and fault/retry/detector statistics::

      python -m repro chaos --preset sw-dsm-2 --app sor --param n=128 \\
          --fault-seed 42 --crash 1@0.003

* ``trace`` — run a benchmark with observability on, print the critical-path
  report, and optionally export a Perfetto-loadable Chrome trace; or, with
  ``--validate FILE``, schema-check a previously exported trace::

      python -m repro trace --preset sw-dsm-4 --app sor --param n=128 \\
          --trace-out sor.trace.json

* ``bench`` — benchmark telemetry (:mod:`repro.bench.telemetry`): ``run``
  sweeps a suite of the paper's figure grid, ``scaling`` the node-count
  ladders, both serially through the fabric's one runner; ``--cache DIR``
  shares the result cache of ``sweep run``, so a cell a sweep computed is
  a hit. The golden store and its checker are ``python -m
  repro.bench.diffcheck``::

      python -m repro bench run --suite smoke --json-out BENCH.json
      python -m repro bench run --only sw-dsm-2/PI --cache .fabric-cache
      python -m repro bench scaling --max-nodes 1024
      python -m repro bench report --json BENCH.json --out report.md

* ``sweep`` — the parallel experiment fabric (:mod:`repro.fabric`): run a
  declarative grid over N worker processes with a content-addressed result
  cache and one durable journal per sweep, then read that journal back —
  resume an interrupted sweep, print the per-cell table and per-worker
  rollup of a live, crashed or finished one, export fleet metrics — plus
  verify cache integrity and inspect a grid against the cache::

      python -m repro sweep run --grid grid.json --workers 4 --dir sweepdir
      python -m repro sweep status --dir sweepdir
      python -m repro sweep report --dir sweepdir --trace-out fleet.trace
      python -m repro sweep resume sweepdir
      python -m repro sweep fsck --cache-dir .fabric-cache --repair
      python -m repro sweep show --grid grid.json

  Exit codes: 0 ok, 1 failed cells, 2 schema/log errors, 3 failed
  ``--expect-cached``, 4 aborted (``--max-failures`` tripped), 5
  interrupted (graceful SIGINT/SIGTERM drain; resume picks up the rest).

* ``platforms`` — list the named platform presets.
* ``apps`` — list the benchmark applications and their paper working sets.
* ``experiments`` — regenerate all tables/figures (delegates to
  :mod:`repro.bench.experiments`); ``--json-out`` records the numbers as
  a machine-readable artifact, ``--workers N`` parallelizes the figure
  grid through the fabric.

A ``--config FILE`` may replace ``--preset`` to build the platform from an
INI-style cluster configuration (§3.3), reproducing the paper's
only-the-config-changes workflow from the shell.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.apps.common import APP_TABLE
from repro.config import PRESETS, load, preset

__all__ = ["main", "build_parser"]


def _parse_param(text: str) -> tuple:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"--param expects name=value, got {text!r}")
    key, _, raw = text.partition("=")
    value: Any
    for caster in (int, float):
        try:
            value = caster(raw)
            break
        except ValueError:
            continue
    else:
        value = {"true": True, "false": False}.get(raw.lower(), raw)
    return key.strip(), value


def _parse_crash(text: str):
    """NODE@AT or NODE@AT@RESTART, times in virtual seconds."""
    from repro.faults import NodeCrash

    parts = text.split("@")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"--crash expects NODE@AT[@RESTART], got {text!r}")
    try:
        return NodeCrash(node=int(parts[0]), at=float(parts[1]),
                         restart=float(parts[2]) if len(parts) == 3 else None)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_fault_options(cmd) -> None:
    fault = cmd.add_mutually_exclusive_group()
    fault.add_argument("--fault-seed", type=int, metavar="SEED",
                       help="inject the default seeded fault profile "
                            "(moderate drop/dup/delay) with this seed")
    fault.add_argument("--fault-plan", metavar="FILE",
                       help="load a JSON fault plan (FaultPlan.dumps format)")


def _add_obs_options(cmd) -> None:
    cmd.add_argument("--trace-out", metavar="FILE",
                     help="record causal spans and export them as Chrome "
                          "trace_event JSON (load in Perfetto/about:tracing)")
    cmd.add_argument("--metrics-interval", type=float, metavar="SECONDS",
                     help="sample time-series metrics every SECONDS of "
                          "virtual time")
    cmd.add_argument("--metrics-out", metavar="FILE",
                     help="write sampled metrics (.csv, or JSON otherwise); "
                          "requires --metrics-interval")
    cmd.add_argument("--sharing-out", metavar="FILE",
                     help="record sharing-pattern analytics and write the "
                          "repro.obs.sharing/1 diagnosis report as JSON "
                          "(see 'repro diagnose' for the full pipeline)")


def _apply_obs(config, args) -> None:
    """Fold the observability flags into the cluster config."""
    if getattr(args, "metrics_out", None) and args.metrics_interval is None:
        raise SystemExit("--metrics-out requires --metrics-interval")
    if getattr(args, "trace_out", None):
        config.observe = True
    if getattr(args, "sharing_out", None):
        config.sharing = True
    if getattr(args, "metrics_interval", None) is not None:
        config.metrics_interval = args.metrics_interval


def _export_obs(plat, args) -> None:
    """Write the requested trace/metrics files after a run."""
    if getattr(args, "trace_out", None):
        from repro.obs import chrome_trace_json

        Path(args.trace_out).write_text(chrome_trace_json(
            plat.obs, metrics=plat.metrics,
            platform_name=plat.hamster.platform_description()),
            encoding="utf-8")
        print(f"trace    : written to {args.trace_out}")
    if getattr(args, "metrics_out", None):
        path = args.metrics_out
        text = (plat.metrics.to_csv() if path.endswith(".csv")
                else plat.metrics.to_json())
        Path(path).write_text(text, encoding="utf-8")
        print(f"metrics  : written to {path} ({len(plat.metrics)} samples)")
    if getattr(args, "sharing_out", None):
        import json as _json

        from repro.obs import sharing_report

        doc = sharing_report(plat.sharing,
                             platform_name=plat.hamster.platform_description(),
                             n_ranks=plat.dsm.n_procs,
                             page_size=plat.dsm.space.page_size)
        Path(args.sharing_out).write_text(
            _json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        print(f"sharing  : written to {args.sharing_out} "
              f"({len(doc['ping_pong'])} ping-pong pages, "
              f"{len(doc['false_sharing']['pages'])} false sharing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HAMSTER reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one benchmark on one platform")
    target = run.add_mutually_exclusive_group()
    target.add_argument("--preset", default="sw-dsm-4",
                        help=f"platform preset ({', '.join(sorted(PRESETS))})")
    target.add_argument("--config", help="cluster configuration file")
    run.add_argument("--app", required=True,
                     help=f"benchmark ({', '.join(sorted(APP_TABLE))})")
    run.add_argument("--param", action="append", type=_parse_param,
                     default=[], metavar="NAME=VALUE",
                     help="benchmark parameter override (repeatable)")
    run.add_argument("--native", action="store_true",
                     help="bind the JiaJia API natively (Figure 2 baseline)")
    run.add_argument("--profile", action="store_true",
                     help="print the profile report after the run")
    run.add_argument("--json", metavar="PATH",
                     help="write the run result (+ profile) as JSON")
    _add_fault_options(run)
    _add_obs_options(run)

    chaos = sub.add_parser(
        "chaos", help="run one benchmark under a seeded fault plan")
    ctarget = chaos.add_mutually_exclusive_group()
    ctarget.add_argument("--preset", default="sw-dsm-2",
                         help=f"platform preset ({', '.join(sorted(PRESETS))})")
    ctarget.add_argument("--config", help="cluster configuration file")
    chaos.add_argument("--app", default="sor",
                       help=f"benchmark ({', '.join(sorted(APP_TABLE))})")
    chaos.add_argument("--param", action="append", type=_parse_param,
                       default=[], metavar="NAME=VALUE",
                       help="benchmark parameter override (repeatable)")
    _add_fault_options(chaos)
    chaos.add_argument("--drop-rate", type=float, metavar="P",
                       help="override the plan's per-message drop probability")
    chaos.add_argument("--crash", action="append", type=_parse_crash,
                       default=[], metavar="NODE@AT[@RESTART]",
                       help="crash NODE at virtual time AT seconds, "
                            "optionally restarting at RESTART (repeatable)")
    _add_obs_options(chaos)

    trace = sub.add_parser(
        "trace", help="instrumented run: critical-path report + trace export")
    trace.add_argument("--validate", metavar="FILE",
                       help="validate an exported Chrome trace JSON file "
                            "and exit (no run)")
    ttarget = trace.add_mutually_exclusive_group()
    ttarget.add_argument("--preset", default="sw-dsm-4",
                         help=f"platform preset ({', '.join(sorted(PRESETS))})")
    ttarget.add_argument("--config", help="cluster configuration file")
    trace.add_argument("--app", default="sor",
                       help=f"benchmark ({', '.join(sorted(APP_TABLE))})")
    trace.add_argument("--param", action="append", type=_parse_param,
                       default=[], metavar="NAME=VALUE",
                       help="benchmark parameter override (repeatable)")
    _add_fault_options(trace)
    _add_obs_options(trace)

    diag = sub.add_parser(
        "diagnose", help="sharing diagnosis: ping-pong/false-sharing "
                         "detection, hot pages/locks, barrier skew")
    diag.add_argument("--validate", metavar="FILE",
                      help="validate an exported sharing report JSON file "
                           "and exit (no run)")
    dtarget = diag.add_mutually_exclusive_group()
    dtarget.add_argument("--preset", default="sw-dsm-4",
                         help=f"platform preset ({', '.join(sorted(PRESETS))})")
    dtarget.add_argument("--config", help="cluster configuration file")
    diag.add_argument("--app", default="sor",
                      help=f"benchmark ({', '.join(sorted(APP_TABLE))})")
    diag.add_argument("--param", action="append", type=_parse_param,
                      default=[], metavar="NAME=VALUE",
                      help="benchmark parameter override (repeatable)")
    diag.add_argument("--json-out", metavar="FILE",
                      help="write the repro.obs.sharing/1 report as JSON")
    diag.add_argument("--heatmap-out", metavar="FILE",
                      help="write the per-page virtual-time heatmap CSV")
    diag.add_argument("--trace-out", metavar="FILE",
                      help="write Chrome counter tracks for the hottest "
                           "pages (load next to the span trace)")
    _add_fault_options(diag)

    bench = sub.add_parser(
        "bench", help="benchmark telemetry: run suites, render reports")
    bsub = bench.add_subparsers(dest="bench_command", required=True)

    brun = bsub.add_parser("run", help="run a suite, record telemetry")
    brun.add_argument("--suite", default="smoke", choices=("smoke", "paper"),
                      help="the figure grid at scale 0.05 or 1.0")
    brun.add_argument("--scale", type=float, default=None,
                      help="override the suite's working-set scale")
    brun.add_argument("--only", metavar="SUBSTR",
                      help="run only the cells whose <preset>/<label> "
                           "contains SUBSTR (e.g. 'sw-dsm-2/PI')")
    brun.add_argument("--json-out", metavar="FILE",
                      help="write the telemetry document (BENCH_<suite>.json)")
    brun.add_argument("--cache", metavar="DIR", dest="cache_dir",
                      help="consult (and fill) the fabric's content-"
                           "addressed result cache in DIR; cells already "
                           "computed — by any run or sweep — are not "
                           "re-simulated")
    brun.add_argument("--sharing", action="store_true",
                      help="attach the sharing-pattern rollup (ping-pong/"
                           "false-sharing counts, hot page/lock, barrier "
                           "skew) to every record; cached apart from "
                           "plain records")

    bscale = bsub.add_parser(
        "scaling", help="run the node-count scaling curves, record telemetry")
    bscale.add_argument("--fabric", action="append", choices=("eth", "sci"),
                        default=None, metavar="FABRIC",
                        help="fabric curve to run (repeatable; default both)")
    bscale.add_argument("--max-nodes", type=int, default=256, metavar="N",
                        help="largest ladder point to include (default 256; "
                             "use 1024 for the full curve)")
    bscale.add_argument("--scale", type=float, default=None,
                        help="working-set scale (default 0.05)")
    bscale.add_argument("--json-out", metavar="FILE",
                        help="write the telemetry document")

    brep = bsub.add_parser(
        "report", help="render telemetry as markdown or HTML")
    brep.add_argument("--json", required=True, metavar="FILE",
                      help="telemetry document to render")
    brep.add_argument("--metrics", metavar="FILE",
                      help="metrics-sampler JSON (--metrics-out of 'run') "
                           "to merge in")
    brep.add_argument("--out", metavar="FILE",
                      help="output path (.html renders HTML; default: "
                           "markdown to stdout)")

    sweep = sub.add_parser(
        "sweep", help="parallel experiment fabric: cached grid sweeps")
    ssub = sweep.add_subparsers(dest="sweep_command", required=True)

    def _failure_policy_args(p) -> None:
        p.add_argument("--max-retries", type=int, default=1, metavar="N",
                       help="re-queue a crashed/timed-out job this many "
                            "times before recording it failed (default: 1)")
        p.add_argument("--max-failures", type=int, default=None, metavar="N",
                       help="abort the sweep (drain, exit 4) after N "
                            "terminally failed cells (default: no budget)")
        p.add_argument("--retry-backoff", type=float, default=0.5,
                       metavar="SECONDS",
                       help="base delay before a retry, doubling per "
                            "attempt (default: 0.5; 0 disables)")

    srun = ssub.add_parser("run", help="run a grid over worker processes")
    srun.add_argument("--grid", required=True, metavar="FILE",
                      help="grid spec JSON (axes: presets, labels, scales, "
                           "nodes, overrides, faults)")
    srun.add_argument("--dir", dest="sweep_dir", metavar="DIR",
                      help="sweep directory: the journal (journal.jsonl) "
                           "and the telemetry document (telemetry.json) "
                           "default to files inside it; 'sweep status', "
                           "'sweep report' and 'sweep resume' read it")
    srun.add_argument("--workers", type=int, default=1, metavar="N",
                      help="worker processes (1 = inline serial reference "
                           "path)")
    srun.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="content-addressed result cache "
                           "(default: .fabric-cache)")
    srun.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                      help="per-cell wall-clock timeout (overrides the "
                           "grid's own; needs workers >= 2 to preempt)")
    srun.add_argument("--json-out", metavar="FILE",
                      help="write the sweep's telemetry document "
                           "(bench report consumes it unchanged)")
    srun.add_argument("--journal", metavar="FILE",
                      help="write the sweep's journal: every lifecycle "
                           "line and the fsync'd per-cell commit records "
                           "('sweep resume' restarts from it after a crash)")
    srun.add_argument("--heartbeat", type=float, default=None,
                      metavar="SECONDS",
                      help="worker heartbeat interval (default: 1.0; "
                           "heartbeats surface in-cell progress and "
                           "progress-at-kill for timed-out cells)")
    _failure_policy_args(srun)
    srun.add_argument("--expect-cached", action="store_true",
                      help="exit 3 unless the sweep was 100%% cache hits "
                           "with zero simulated events (CI's rerun gate)")

    sres = ssub.add_parser(
        "resume", help="resume an interrupted sweep from its journal")
    sres.add_argument("sweep_dir", metavar="DIR",
                      help="sweep directory written by 'sweep run --dir' "
                           "(or any directory holding journal.jsonl)")
    sres.add_argument("--journal", metavar="FILE",
                      help="journal path (default: DIR/journal.jsonl)")
    sres.add_argument("--grid", metavar="FILE",
                      help="grid spec (default: the grid embedded in the "
                           "journal header)")
    sres.add_argument("--workers", type=int, default=None, metavar="N",
                      help="worker processes (default: the journal's)")
    sres.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="result cache (default: the journal's)")
    sres.add_argument("--timeout", type=float, default=None,
                      metavar="SECONDS", help="per-cell timeout override")
    sres.add_argument("--heartbeat", type=float, default=None,
                      metavar="SECONDS", help="worker heartbeat interval")
    sres.add_argument("--retry-failed", action="store_true",
                      help="also re-execute cells whose committed outcome "
                           "was 'failed' (default: restore them as-is)")
    _failure_policy_args(sres)

    sfsck = ssub.add_parser(
        "fsck", help="verify cache integrity; quarantine corrupt entries")
    sfsck.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache to scan (default: .fabric-cache)")
    sfsck.add_argument("--repair", action="store_true",
                       help="move corrupt entries to <cache>/quarantine/ "
                            "(default: report only, exit 1 if any found)")

    sshow = ssub.add_parser(
        "show", help="expand a grid and probe the cache without running")
    sshow.add_argument("--grid", required=True, metavar="FILE",
                       help="grid spec JSON")
    sshow.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache to probe (default: .fabric-cache)")

    def _journal_args(p) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--dir", dest="sweep_dir", metavar="DIR",
                            help="sweep directory (reads DIR/journal.jsonl)")
        source.add_argument("--journal", metavar="FILE",
                            help="journal to replay (lock-free: safe on a "
                                 "live sweep)")

    sstat = ssub.add_parser(
        "status", help="per-cell table and per-worker rollup of a live, "
                       "crashed or finished sweep, from its journal")
    _journal_args(sstat)
    sstat.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache to report quarantine counts from "
                            "(default: the journal's cache_dir)")

    srep = ssub.add_parser(
        "report", help="fleet report from a sweep's journal: JSON / "
                       "Chrome trace")
    _journal_args(srep)
    srep.add_argument("--telemetry", metavar="FILE",
                      help="join the telemetry document (critical-path "
                           "category totals; default: DIR/telemetry.json "
                           "when --dir has one)")
    srep.add_argument("--json-out", metavar="FILE",
                      help="write the fleet report as JSON")
    srep.add_argument("--trace-out", metavar="FILE",
                      help="write the sweep Chrome trace "
                           "(one track per worker)")

    sub.add_parser("platforms", help="list platform presets")
    sub.add_parser("apps", help="list benchmarks and working sets")

    exp = sub.add_parser("experiments", help="regenerate all tables/figures")
    exp.add_argument("--scale", type=float, default=1.0,
                     help="working-set scale (1.0 = paper sizes)")
    exp.add_argument("--json-out", metavar="FILE",
                     help="also record raw+derived numbers as JSON")
    exp.add_argument("--workers", type=int, default=1, metavar="N",
                     help="parallelize the figure grid through the fabric")
    exp.add_argument("--cache-dir", metavar="DIR",
                     help="fabric result cache for the figure grid")
    return parser


def _resolve_plan(args):
    """Fault plan from --fault-seed / --fault-plan, or None."""
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultPlan

        return FaultPlan.load(args.fault_plan)
    if getattr(args, "fault_seed", None) is not None:
        from repro.faults import FaultPlan

        return FaultPlan.seeded(args.fault_seed)
    return None


def _cmd_run(args) -> int:
    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    if args.native:
        from repro.models.native_jiajia import NativeJiaJiaApi as Api
    else:
        from repro.models.jiajia_api import JiaJiaApi as Api

    config = load(args.config) if args.config else preset(args.preset)
    plan = _resolve_plan(args)
    if plan is not None:
        config.faults = plan
    _apply_obs(config, args)
    params: Dict[str, Any] = dict(args.param)
    plat = config.build()
    api = Api(plat.hamster)
    fn = get_app(args.app)
    merged = merge_rank_results(api.run(functools.partial(fn, **params)))

    print(f"platform : {plat.hamster.platform_description()}"
          f"{' [native binding]' if args.native else ''}")
    print(f"benchmark: {args.app} {params or ''}")
    print(f"verified : {merged.verified}")
    for phase, seconds in sorted(merged.phases.items()):
        print(f"  {phase:>10s}: {seconds * 1e3:10.3f} ms")
    if args.profile:
        from repro.obs.profile import profile_platform

        print()
        print(profile_platform(plat).render())
    if args.json:
        from repro.obs import run_to_json

        Path(args.json).write_text(run_to_json(merged, platform=plat),
                                   encoding="utf-8")
        print(f"json     : written to {args.json}")
    _export_obs(plat, args)
    return 0 if merged.verified else 1


def _cmd_chaos(args) -> int:
    import dataclasses

    from repro.faults import FaultPlan, run_chaos

    config = load(args.config) if args.config else preset(args.preset)
    plan = _resolve_plan(args)
    if plan is None:
        plan = (FaultPlan.coerce(config.faults)
                if config.faults is not None else FaultPlan.seeded(0))
    if args.drop_rate is not None:
        plan = plan.with_overrides(
            link=dataclasses.replace(plan.link, drop_rate=args.drop_rate))
    if args.crash:
        plan = plan.with_overrides(crashes=plan.crashes + tuple(args.crash))
    _apply_obs(config, args)
    result = run_chaos(config, app=args.app, app_params=dict(args.param),
                       plan=plan)
    print(result.summary())
    if result.built is not None:
        _export_obs(result.built, args)
    if result.outcome == "completed":
        return 0 if result.verified else 1
    # A typed failure is the *expected* outcome when the plan kills a node
    # for good; only unexplained failures are an error exit.
    return 0 if (result.outcome == "node-failed"
                 and plan.has_permanent_crash()) else 2


def _cmd_trace(args) -> int:
    if args.validate:
        import json

        from repro.obs import validate_chrome_trace

        with open(args.validate, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        errors = validate_chrome_trace(doc)
        if errors:
            for err in errors:
                print(f"invalid: {err}")
            return 1
        print(f"valid Chrome trace: {args.validate} "
              f"({len(doc['traceEvents'])} events)")
        return 0

    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    from repro.models.jiajia_api import JiaJiaApi
    from repro.obs import critical_path_report

    config = load(args.config) if args.config else preset(args.preset)
    plan = _resolve_plan(args)
    if plan is not None:
        config.faults = plan
    config.observe = True  # the whole point of this subcommand
    _apply_obs(config, args)
    params: Dict[str, Any] = dict(args.param)
    plat = config.build()
    api = JiaJiaApi(plat.hamster)
    fn = get_app(args.app)
    merged = merge_rank_results(api.run(functools.partial(fn, **params)))
    print(f"platform : {plat.hamster.platform_description()}")
    print(f"benchmark: {args.app} {params or ''}")
    print(f"verified : {merged.verified}")
    print(f"spans    : {len(plat.obs)}")
    print()
    print(critical_path_report(plat).render())
    _export_obs(plat, args)
    return 0 if merged.verified else 1


def _cmd_diagnose(args) -> int:
    import json

    if args.validate:
        from repro.obs import validate_sharing_report

        with open(args.validate, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        errors = validate_sharing_report(doc)
        if errors:
            for err in errors:
                print(f"invalid: {err}")
            return 1
        print(f"valid sharing report: {args.validate} "
              f"({len(doc['ping_pong'])} ping-pong pages, "
              f"{len(doc['false_sharing']['pages'])} false sharing)")
        return 0

    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    from repro.models.jiajia_api import JiaJiaApi
    from repro.obs import (render_sharing_report, sharing_chrome_trace,
                           sharing_heatmap_csv, sharing_report)

    config = load(args.config) if args.config else preset(args.preset)
    plan = _resolve_plan(args)
    if plan is not None:
        config.faults = plan
    config.sharing = True  # the whole point of this subcommand
    params: Dict[str, Any] = dict(args.param)
    plat = config.build()
    api = JiaJiaApi(plat.hamster)
    fn = get_app(args.app)
    merged = merge_rank_results(api.run(functools.partial(fn, **params)))
    pname = plat.hamster.platform_description()
    doc = sharing_report(plat.sharing, platform_name=pname,
                         n_ranks=plat.dsm.n_procs,
                         page_size=plat.dsm.space.page_size)
    print(f"platform : {pname}")
    print(f"benchmark: {args.app} {params or ''}")
    print(f"verified : {merged.verified}")
    print()
    print(render_sharing_report(doc))
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        print(f"report   : written to {args.json_out}")
    if args.heatmap_out:
        Path(args.heatmap_out).write_text(sharing_heatmap_csv(plat.sharing),
                                          encoding="utf-8")
        print(f"heatmap  : written to {args.heatmap_out}")
    if args.trace_out:
        trace = sharing_chrome_trace(plat.sharing, platform_name=pname)
        Path(args.trace_out).write_text(json.dumps(trace), encoding="utf-8")
        print(f"trace    : written to {args.trace_out} "
              f"({len(trace['traceEvents'])} events)")
    return 0 if merged.verified else 1


def _print_bench_summary(doc) -> None:
    from repro.bench.report import host_cells, render_table

    rows = []
    for rec in doc["records"]:
        cp = rec["critical_path"]
        cp_total = sum(cp.values()) or 1.0
        rows.append([rec["id"], f"{rec['virtual_seconds'] * 1e3:.3f}",
                     rec["events_executed"], *host_cells(rec),
                     f"{100.0 * cp.get('compute', 0.0) / cp_total:.0f}%"])
    print(render_table(
        ["benchmark", "virtual ms", "events", "events/s", "host ms",
         "compute"],
        rows, title=f"suite {doc['suite']!r} at scale {doc['scale']} "
                    f"({len(rows)} benchmarks)"))


def _bench_progress(cell: str, outcome: str) -> None:
    print(f"[bench] {cell}: {outcome}")


def _write_telemetry(doc, json_out) -> bool:
    """Schema-check ``doc``, then write it to ``json_out`` if given. False,
    with every problem printed, when it is invalid: a bug in the code that
    built it, not a perf problem."""
    from repro.bench.telemetry import telemetry_to_json, validate_telemetry

    errors = validate_telemetry(doc)
    for err in errors:
        print(f"schema error: {err}")
    if not errors and json_out:
        Path(json_out).write_text(telemetry_to_json(doc), encoding="utf-8")
        print(f"telemetry: written to {json_out}")
    return not errors


def _finish_bench(result, render, json_out) -> int:
    """Shared tail of ``bench run`` / ``bench scaling``: name failed cells
    (exit 1), render, schema-check (exit 2) and write the document."""
    failed = result.manifest.failed_cells()
    for cell in failed:
        print(f"failed   : {cell.id}: {cell.error}")
    if failed:
        return 1
    print()
    render(result.doc)
    return 0 if _write_telemetry(result.doc, json_out) else 2


def _cmd_bench(args) -> int:
    from repro.bench.telemetry import load_telemetry

    if args.bench_command == "run":
        from dataclasses import replace

        from repro.fabric import SUITES, ResultCache, run_sweep

        spec = SUITES[args.suite]
        spec = replace(spec, only=args.only, sharing=args.sharing,
                       scales=spec.scales if args.scale is None
                       else (args.scale,))
        cache = ResultCache(args.cache_dir) if args.cache_dir else None
        result = run_sweep(spec, cache=cache, progress=_bench_progress)
        if not result.manifest.cells:
            print(f"--only {args.only!r} matched no benchmark in suite "
                  f"{args.suite!r}")
            return 2
        if cache is not None:
            print(f"cache    : {cache.hits} hit(s), {cache.misses} miss(es) "
                  f"in {cache.root}")
        return _finish_bench(result, _print_bench_summary, args.json_out)

    if args.bench_command == "scaling":
        from repro.bench.scaling import (DEFAULT_SCALE, render_scaling,
                                         run_scaling_curves)

        result = run_scaling_curves(
            fabrics=tuple(args.fabric) if args.fabric else ("eth", "sci"),
            max_nodes=args.max_nodes,
            scale=args.scale if args.scale is not None else DEFAULT_SCALE,
            progress=_bench_progress)
        return _finish_bench(result, lambda doc: print(render_scaling(doc)),
                             args.json_out)

    if args.bench_command == "report":
        import json as _json

        from repro.bench.report import telemetry_html, telemetry_markdown

        doc = load_telemetry(args.json)
        metrics = None
        if args.metrics:
            with open(args.metrics, "r", encoding="utf-8") as fh:
                metrics = _json.load(fh)
        if args.out and args.out.endswith(".html"):
            text = telemetry_html(doc, metrics=metrics)
        else:
            text = telemetry_markdown(doc, metrics=metrics)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
            print(f"report   : written to {args.out}")
        else:
            print(text)
        return 0

    raise AssertionError(
        f"unhandled bench command {args.bench_command!r}")  # pragma: no cover


def _replay_for(args, command: str):
    """Journal path and replayed state behind ``sweep status`` / ``sweep
    report``, or None after printing why the log cannot be shown. A
    missing, foreign or corrupt log is an operator mistake, not a crash:
    one line per problem, no traceback."""
    from repro.fabric import JournalError, replay_journal

    journal = args.journal or os.path.join(args.sweep_dir, "journal.jsonl")
    try:
        state = replay_journal(journal)
    except JournalError as exc:
        print(f"sweep {command}: {exc}")
        return None
    for problem in state.problems:
        print(f"sweep {command}: {journal}: {problem}")
    return None if state.problems else (journal, state)


def _sweep_status(args) -> int:
    """``sweep status``: the per-cell table and the per-worker rollup of
    one journal. Lock-free, so safe on a live sweep."""
    from repro.fabric import ResultCache
    from repro.obs.fleet import FleetReport

    loaded = _replay_for(args, "status")
    if loaded is None:
        return 2
    journal, state = loaded
    manifest = state.manifest()
    print(manifest.render())
    print()
    print(FleetReport(state).render())
    if state.torn_bytes is not None:
        print("journal  : torn trailing line (crash mid-write; resume "
              "repairs it)")
    cache_dir = args.cache_dir or state.header.get("cache_dir")
    if cache_dir:
        stats = ResultCache(cache_dir).stats()
        quarantined = stats.get("quarantined", 0)
        print(f"cache    : {stats.get('entries', 0)} entries in {cache_dir}"
              + (f"; {quarantined} quarantined — run 'sweep fsck'"
                 if quarantined else ""))
    pending = len(manifest.pending_cells())
    if pending:
        print(f"resume   : 'sweep resume "
              f"{args.sweep_dir or os.path.dirname(journal) or '.'}' "
              f"re-executes the {pending} pending cell(s)")
    return 0 if not manifest.failed_cells() else 1


def _sweep_report(args) -> int:
    """The ``sweep report`` exporter: fleet JSON / Chrome trace."""
    import json as _json

    from repro.obs.export import validate_chrome_trace
    from repro.obs.fleet import FleetReport

    loaded = _replay_for(args, "report")
    if loaded is None:
        return 2
    telemetry = args.telemetry
    if telemetry is None and args.sweep_dir:
        candidate = os.path.join(args.sweep_dir, "telemetry.json")
        telemetry = candidate if os.path.exists(candidate) else None
    records = None
    if telemetry is not None:
        from repro.bench.telemetry import load_telemetry

        records = load_telemetry(telemetry).get("records")
    report = FleetReport(loaded[1], records=records)
    if args.json_out:
        Path(args.json_out).write_text(report.to_json(), encoding="utf-8")
        print(f"fleet json : written to {args.json_out}")
    if args.trace_out:
        trace = report.chrome_trace()
        errors = validate_chrome_trace(trace)
        if errors:  # a fleet bug, not a sweep problem — fail loudly
            for err in errors:
                print(f"trace schema error: {err}")
            return 2
        Path(args.trace_out).write_text(
            _json.dumps(trace, sort_keys=True) + "\n", encoding="utf-8")
        print(f"trace      : written to {args.trace_out}")
    if not (args.json_out or args.trace_out):
        print(report.to_json(), end="")
    return 0


def _sweep_fsck(args) -> int:
    """Cache integrity scan; quarantines corrupt entries with --repair."""
    from repro.fabric import DEFAULT_CACHE_DIR, ResultCache

    cache = ResultCache(args.cache_dir or DEFAULT_CACHE_DIR)
    report = cache.fsck(repair=args.repair)
    print(f"fsck {report['root']}: {report['checked']} entr(ies) checked — "
          f"{report['ok']} ok, {report['stale']} stale (old schema), "
          f"{len(report['corrupt'])} corrupt")
    for item in report["corrupt"]:
        print(f"fsck   corrupt: {item['path']} ({item['reason']})")
    for moved in report["quarantined"]:
        print(f"fsck   quarantined -> {moved}")
    if report["quarantine_entries"]:
        print(f"fsck {report['quarantine_entries']} entr(ies) in "
              f"{cache.quarantine_dir()}")
    if report["corrupt"] and not args.repair:
        print("fsck: corrupt entries found (re-run with --repair to "
              "quarantine them)")
        return 1
    return 0


def _finish_sweep(result, json_out, journal_path,
                  expect_cached: bool = False) -> int:
    """Shared tail of ``sweep run`` / ``sweep resume``: write the
    outputs, name the offenders, map the sweep status to an exit code
    (0 ok, 1 failed cells, 2 schema, 3 expect-cached, 4 aborted,
    5 interrupted)."""
    manifest = result.manifest
    print()
    print(manifest.render())
    if result.doc is not None:
        if not _write_telemetry(result.doc, json_out):
            return 2
    elif json_out:
        print("telemetry: no successful cells, nothing written")
    if journal_path:
        print(f"journal  : written to {journal_path}")
    if expect_cached and not manifest.all_cached():
        counts = manifest.counts()
        print(f"expect-cached: FAILED — {counts['miss']} miss(es), "
              f"{counts['failed']} failure(s), "
              f"{manifest.simulated_events()} simulated events")
        for cell in manifest.cells:
            if cell.outcome != "hit":   # name the offenders
                print(f"expect-cached:   {cell.outcome}: {cell.id} "
                      f"({cell.key[:12]})")
        return 3
    if result.status == "aborted":
        print("sweep: aborted — the --max-failures budget tripped; "
              "'sweep resume' picks up the pending cells")
        return 4
    if result.status == "interrupted":
        print("sweep: interrupted — drained cleanly; 'sweep resume' "
              "picks up the pending cells")
        return 5
    return 0 if not manifest.failed_cells() else 1


def _sweep_resume(args) -> int:
    """``sweep resume DIR``: restore committed cells, run the rest."""
    from repro.errors import ConfigurationError
    from repro.fabric import (GridSpec, JournalError, ResultCache,
                              replay_journal, run_sweep)

    journal = args.journal or os.path.join(args.sweep_dir, "journal.jsonl")
    try:
        state = replay_journal(journal)
    except JournalError as exc:
        print(f"sweep resume: {exc}")
        return 2
    header = state.header
    if args.grid:
        spec = GridSpec.load(args.grid)
    elif isinstance(header.get("grid"), dict):
        try:
            spec = GridSpec.from_dict(header["grid"])
        except ConfigurationError as exc:  # written by another version
            print(f"sweep resume: {journal}: header grid refused: {exc}")
            return 2
    else:
        print(f"sweep resume: {journal} has no embedded grid — "
              f"pass --grid FILE")
        return 2
    workers = args.workers or int(header.get("workers", 1))
    cache_dir = args.cache_dir or header.get("cache_dir")
    if not cache_dir:
        print(f"sweep resume: {journal} names no cache_dir — "
              f"pass --cache-dir DIR")
        return 2
    total = int(header.get("cells", 0))
    pending = state.pending(total)
    print(f"[sweep] resuming {header.get('suite', spec.suite)!r}: "
          f"{len(state.committed)}/{total} cells committed, "
          f"{len(pending)} to run")
    result = run_sweep(
        spec, workers=workers, cache=ResultCache(cache_dir),
        timeout=args.timeout,
        heartbeat=args.heartbeat if args.heartbeat is not None else 1.0,
        journal=journal, resume_from=state,
        retry_failed=args.retry_failed, max_retries=args.max_retries,
        max_failures=args.max_failures, retry_backoff=args.retry_backoff,
        handle_signals=True,
        progress=lambda cell, outcome: print(f"[sweep] {cell}: {outcome}"))
    return _finish_sweep(
        result, json_out=os.path.join(args.sweep_dir, "telemetry.json"),
        journal_path=journal)


def _cmd_sweep(args) -> int:
    from repro.fabric import (DEFAULT_CACHE_DIR, GridSpec, ResultCache,
                              run_sweep, scenario_key)

    if args.sweep_command == "status":
        return _sweep_status(args)

    if args.sweep_command == "fsck":
        return _sweep_fsck(args)

    if args.sweep_command == "resume":
        return _sweep_resume(args)

    if args.sweep_command == "report":
        return _sweep_report(args)

    spec = GridSpec.load(args.grid)
    cache_dir = args.cache_dir or DEFAULT_CACHE_DIR

    if args.sweep_command == "show":
        cache = ResultCache(cache_dir)
        from repro.bench.report import render_table

        rows = []
        hits = 0
        for sc in spec.expand():
            key = scenario_key(sc)
            cached = key in cache
            hits += cached
            rows.append([sc.cell_id(), key[:12],
                         "hit" if cached else "miss"])
        print(render_table(
            ["cell", "key", "cache"], rows,
            title=f"grid {args.grid}: {len(rows)} cells — "
                  f"{hits} cached, {len(rows) - hits} to run "
                  f"(cache: {cache_dir})"))
        return 0

    if args.sweep_command == "run":
        json_out, journal_path = args.json_out, args.journal
        if args.sweep_dir:
            # The sweep directory holds the journal (which embeds the
            # grid) and the telemetry; explicit flags still win.
            os.makedirs(args.sweep_dir, exist_ok=True)
            json_out = json_out or os.path.join(args.sweep_dir,
                                                "telemetry.json")
            journal_path = journal_path or os.path.join(args.sweep_dir,
                                                        "journal.jsonl")
        sweep_kwargs = {}
        if args.heartbeat is not None:
            sweep_kwargs["heartbeat"] = args.heartbeat
        result = run_sweep(
            spec, workers=args.workers, cache=ResultCache(cache_dir),
            timeout=args.timeout, journal=journal_path,
            max_retries=args.max_retries, max_failures=args.max_failures,
            retry_backoff=args.retry_backoff, handle_signals=True,
            progress=lambda cell, outcome: print(f"[sweep] {cell}: {outcome}"),
            **sweep_kwargs)
        return _finish_sweep(result, json_out=json_out,
                             journal_path=journal_path,
                             expect_cached=args.expect_cached)

    raise AssertionError(
        f"unhandled sweep command {args.sweep_command!r}")  # pragma: no cover


def _cmd_platforms() -> int:
    for name in sorted(PRESETS):
        cfg = PRESETS[name]
        print(f"{name:18s} platform={cfg.platform:8s} dsm={cfg.dsm:7s} "
              f"nodes={cfg.nodes} messaging="
              f"{'integrated' if cfg.integrated_messaging else 'separate'}")
    return 0


def _cmd_apps() -> int:
    for name, entry in APP_TABLE.items():
        print(f"{name:8s} {entry['description']:35s} "
              f"[{entry['working_set']}] defaults={entry['params']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (sweep status | head):
        # not an error. Detach stdout so the interpreter's shutdown
        # flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "platforms":
        return _cmd_platforms()
    if args.command == "apps":
        return _cmd_apps()
    if args.command == "experiments":
        from repro.bench.experiments import main as experiments_main

        argv_exp = ["experiments", str(args.scale)]
        if args.json_out:
            argv_exp += ["--json-out", args.json_out]
        if args.workers != 1:
            argv_exp += ["--workers", str(args.workers)]
        if args.cache_dir:
            argv_exp += ["--cache-dir", args.cache_dir]
        return experiments_main(argv_exp)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
