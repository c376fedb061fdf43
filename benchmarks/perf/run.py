#!/usr/bin/env python3
"""Host-cost benchmark of the checkout this file sits in.

    python3 benchmarks/perf/run.py [--seed S] [--seconds T] [--json-out F]
    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --trace 0|1

Without ``--workload`` the four workloads run one after another, each
untraced (end-to-end metrics) and then traced (per-layer metrics), and
the whole document is printed and optionally written to ``--json-out``.
With ``--workload`` one workload runs in one mode and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the form BENCHMARK.json's driver reads.

Every measurement happens in fresh child interpreters started by this
process — three per untraced run, each setting up and then timing a third
of the passes — so ``setup_s`` (interpreter start + imports + one warm-up
pass) and ``peak_rss_mb`` belong to one workload. Simulated (virtual) time and
host time are never mixed: a metric is host time unless its name or unit
says ``virtual``. README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (needs HERE on the path)

SCHEMA = "repro.perf/1"
DEFAULT_SEED = 20030422
#: BENCHMARK.json's run_seconds (test_perf.py keeps the two equal)
DEFAULT_SECONDS = 20
#: Fresh interpreters per untraced run. Each sets up (setup_s is their
#: median) and times passes for a third of --seconds: on this sandbox the
#: same passes cost +-5 % from one process to the next, which pooling the
#: passes of three averages out and more passes in one would not.
CHILDREN = 3
SETUP_MARK = "@@setup-done"

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    import layers
    import probes

    units = {name: "count" for name in wl.COUNTER_NAMES}
    units.update({"sim.events_per_s": "1/s", "sim.host_us_per_event": "us",
                  "sim.virtual_s": "virtual_s"})
    for layer in layers.LAYERS:
        units[f"trace.{layer}.self_frac"] = "ratio"
        units[f"trace.{layer}.calls"] = "count"
    units.update({"trace.overhead_ratio": "ratio",
                  "trace.unattributed_frac": "ratio"})
    units.update(probes.UNITS)
    return units


# ------------------------------------------------------------------ child
def _peak_rss_mb() -> float:
    """ru_maxrss of this process plus that of its largest waited-for
    descendant (kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Tally:
    """What a child attempted and what failed, for ``failed_frac``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failures += failures

    def add_pass(self, cells: int, res: wl.PassResult,
                 reference: Optional[wl.PassResult] = None) -> None:
        """A failed cell raised, failed its app's verification, or differs
        from the warm-up pass in virtual time, event count or checksum."""
        drifted = [] if reference is None else [
            f"{cid}: nondeterministic: {sig} != {reference.signature[cid]}"
            for cid, sig in res.signature.items()
            if reference.signature.get(cid, sig) != sig]
        self.add(cells, res.failures + drifted)

    def doc(self, **fields: Any) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:20], **fields}


def _timed(args: argparse.Namespace, one) -> Dict[str, Any]:
    """Call ``one(index)`` until another pass would overrun ``--seconds``
    (and at least once); the passes' parts, as measured."""
    results: List[Any] = []
    began = time.perf_counter()
    while True:
        results.append(one(100 * args.child_index + len(results)))
        left = args.seconds - (time.perf_counter() - began)
        if results[-1].wall_s > left:
            break
    return {"parts": [r.parts for r in results],
            "wall_s": [r.wall_s for r in results],
            "calib_ns": [c for r in results for c in r.calib_ns],
            "peak_rss_mb": _peak_rss_mb()}


def _setup_done(began_ns: float, warm: Any) -> None:
    """Tell the parent the warm-up pass has ended, and at what speed the
    host ran during set-up (so it can scale what its clock read)."""
    print(SETUP_MARK, statistics.mean([began_ns] + warm.calib_ns), flush=True)


def _counter_metrics(res: wl.PassResult) -> Dict[str, float]:
    events = res.counters["sim.events"]
    return {**res.counters,
            "sim.events_per_s": events / res.wall_s,
            "sim.host_us_per_event": res.wall_s / events * 1e6,
            "sim.virtual_s": sum(res.virtual.values())}


def _trace_metrics(profile: cProfile.Profile, traced_s: float,
                   untraced_s: float) -> Dict[str, float]:
    import layers

    table = layers.layer_table(profile)
    out: Dict[str, float] = {}
    for layer in layers.LAYERS:
        out[f"trace.{layer}.self_frac"] = table[layer]["self_frac"]
        out[f"trace.{layer}.calls"] = table[layer]["calls"]
    out["trace.overhead_ratio"] = traced_s / untraced_s
    out["trace.unattributed_frac"] = table["_total"]["unattributed_frac"]
    return out


def _child_sim(args: argparse.Namespace) -> Dict[str, Any]:
    cells = wl.cells_for(args.workload, args.quick)
    tally = Tally()
    warm = wl.run_pass(cells, args.seed, -1)
    tally.add_pass(len(cells), warm)
    _setup_done(args.began_ns, warm)

    def one(index: int, profile: Optional[cProfile.Profile] = None):
        res = wl.run_pass(cells, args.seed, index, profile=profile)
        tally.add_pass(len(cells), res, warm)
        return res

    if args.child == "trace":
        plain = warm if args.quick else one(0)
        profile = cProfile.Profile()
        traced = one(0, profile)
        return tally.doc(values={
            **_counter_metrics(plain),
            **_trace_metrics(profile, sum(traced.parts.values()),
                             sum(plain.parts.values()))})
    return tally.doc(**_timed(args, one))


def _session_in_process(seed: int, warm_sweeps: int,
                        profile: Optional[cProfile.Profile]) -> float:
    """The shell session with everything in this process — the CLI called
    as a function, the sweeps with one in-line worker — so that a profile
    sees it. Returns host seconds."""
    from repro.cli import main as cli_main
    from repro.fabric import ResultCache, run_sweep

    spec = wl.smoke_grid(seed, 0)
    cache_dir = wl.WORK / f"trace-cache-{time.monotonic_ns()}"
    began = time.perf_counter()
    if profile is not None:
        profile.enable()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli_main(["run", "--preset", "sw-dsm-4", "--app", "sor",
                             "--param", "n=48", "--param", f"seed={seed}"])
        if code != 0 or "verified : True" not in out.getvalue():
            raise AssertionError(f"in-process cli run exited {code}")
        cache = ResultCache(str(cache_dir))
        for _ in range(1 + warm_sweeps):
            run_sweep(spec, workers=1, cache=cache)
    finally:
        if profile is not None:
            profile.disable()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return time.perf_counter() - began


def _child_shell(args: argparse.Namespace) -> Dict[str, Any]:
    with wl.BusyCalibration(wl.sweep_workers()) as busy:
        return _shell_sessions(args, busy)


def _shell_sessions(args: argparse.Namespace,
                    busy: wl.BusyCalibration) -> Dict[str, Any]:
    warm_sweeps = 1 if args.quick else wl.WARM_SWEEPS
    steps = 2 + warm_sweeps    # cold CLI run, cold sweep, the warm sweeps
    tally = Tally()
    warm = wl.run_session(args.seed, -1, busy, warm_sweeps)
    tally.add(steps, warm.failures)
    _setup_done(args.began_ns, warm)
    if args.child == "trace":
        plain_s = _session_in_process(args.seed, warm_sweeps, None)
        profile = cProfile.Profile()
        traced_s = _session_in_process(args.seed, warm_sweeps, profile)
        # Sweep records carry only event counts, so the shell's counters
        # come from running the sweep's cells directly; observation adds
        # no events (obs.disabled_extra_events), so they are the counts
        # the workers saw.
        cells = wl.cells_for("shell")
        replay = wl.run_pass(cells, args.seed, 0)
        tally.add_pass(len(cells), replay)
        return tally.doc(values={
            **_counter_metrics(replay),
            **_trace_metrics(profile, traced_s, plain_s)})

    def one(index: int) -> wl.SessionResult:
        res = wl.run_session(args.seed, index, busy, warm_sweeps)
        if res.signature != warm.signature:
            res.failures.append("cold sweep records differ between sessions")
        tally.add(steps, res.failures)
        return res

    return tally.doc(**_timed(args, one))


def child_main(args: argparse.Namespace) -> int:
    args.began_ns = wl.calibrate()
    sys.path.insert(0, str(wl.ROOT / "src"))
    wl.WORK.mkdir(exist_ok=True)
    doc = (_child_shell if args.workload == "shell" else _child_sim)(args)
    if args.child == "trace":
        import probes

        units = per_layer_units()
        found = {name: {"value": value, "unit": units[name]}
                 for name, value in doc.pop("values").items()}
        if not args.skip_probes:
            found.update(probes.run_probes(quick=args.quick))
        doc["metrics"] = {name: found[name] for name in units if name in found}
    print(json.dumps(doc), flush=True)
    return 0


# ----------------------------------------------------------------- parent
def _spawn_child(mode: str, args: argparse.Namespace, seconds: float = 0.0,
                 index: int = 0) -> Tuple[float, Dict[str, Any]]:
    """Run one child to completion. Returns (setup seconds, its document).

    Setup is timed here, from just before the interpreter is started to
    the line the child prints when its warm-up pass has ended, and scaled
    to reference speed by the calibration readings that line carries.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--child-index", str(index)]
    cmd += [flag for flag, on in (("--quick", args.quick),
                                  ("--skip-probes", args.skip_probes)) if on]
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE, text=True)
    setup_s, last = None, ""
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith(SETUP_MARK):
                setup_s = ((time.perf_counter() - began) * wl.CALIB_REF_NS
                           / float(line.split()[1]))
            elif line.strip():
                last = line
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{args.workload} {mode} child exited {code}")
    return setup_s, json.loads(last)


def _summary(samples: List[float], unit: str,
             value: Optional[float] = None) -> Dict[str, Any]:
    """One metric: its value (the samples' median unless given), the
    sample count and the samples' quartiles."""
    out: Dict[str, Any] = {
        "value": statistics.median(samples) if value is None else value,
        "unit": unit, "n": len(samples), "samples": samples}
    if len(samples) >= 2:
        q1, _q2, q3 = statistics.quantiles(samples, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run_end_to_end(args: argparse.Namespace) -> Dict[str, Any]:
    """One untraced run: CHILDREN fresh interpreters, their passes pooled.

    ``pass_s`` is the sum, over the cells (or session steps) of a pass, of
    each one's median across all timed passes, at reference speed: a slow
    spell of the host then costs the cells it hit one sample each, not
    every pass a different share of its total.
    """
    children = 1 if args.quick else CHILDREN
    runs = [_spawn_child("measure", args, args.seconds / children, i)
            for i in range(children)]
    docs = [doc for _setup_s, doc in runs]
    passes = [parts for doc in docs for parts in doc["parts"]]
    part_s = {key: statistics.median(p[key] for p in passes)
              for key in passes[0]}
    return {
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "failures": [f for d in docs for f in d["failures"]],
        "end_to_end": {
            "setup_s": _summary([setup_s for setup_s, _doc in runs], "s"),
            "pass_s": _summary([sum(p.values()) for p in passes], "s",
                               sum(part_s.values())),
            "peak_rss_mb": _summary([d["peak_rss_mb"] for d in docs], "MB"),
        },
        "part_s": part_s,
        "pass_wall_s": [w for d in docs for w in d["wall_s"]],
        "calib_ns": statistics.median(c for d in docs for c in d["calib_ns"]),
    }


def run_traced(args: argparse.Namespace) -> Dict[str, Any]:
    _setup_s, doc = _spawn_child("trace", args)
    doc["per_layer"] = doc.pop("metrics")
    return doc


def _print_metrics(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(f"\n{title}")
    for name, m in metrics.items():
        value = m["value"]
        text = "null" if value is None else f"{value:.6g}"
        extra = ""
        if "q1" in m:
            extra = f"  (n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})"
        elif "n" in m:
            extra = f"  (n={m['n']})"
        if m.get("note"):
            extra += f"  [{m['note']}]"
        print(f"  {name:46s} {text:>14s} {m['unit']}{extra}")


def _print_run(workload: str, doc: Dict[str, Any]) -> None:
    for key, title in (("end_to_end", "end-to-end, host time, tracing off"),
                       ("per_layer", "per layer (counters, traced pass, probes)")):
        if key in doc:
            _print_metrics(f"[{workload}] {title}", doc[key])
    if "part_s" in doc:
        print(f"\n[{workload}] parts of pass_s (median over passes)")
        for part, seconds in doc["part_s"].items():
            print(f"  {part:46s} {seconds:14.4f} s")
        wall = doc["pass_wall_s"]
        print(f"  wall clock per pass, unscaled: median "
              f"{statistics.median(wall):.4f} s, min {min(wall):.4f}, max "
              f"{max(wall):.4f}; calibration loop {doc['calib_ns']:.1f} "
              f"ns/iteration (reference {wl.CALIB_REF_NS})")
    print(f"\n[{workload}] attempted {doc['attempted']}, failed {doc['failed']}"
          f" (failed_frac {doc['failed'] / doc['attempted']:.4f})")
    for failure in doc["failures"][:10]:
        print(f"  FAILED {failure}")


def run_one(args: argparse.Namespace) -> int:
    """One workload in one mode; the last line printed is the result object."""
    key = "per_layer" if args.trace else "end_to_end"
    doc = run_traced(args) if args.trace else run_end_to_end(args)
    _print_run(args.workload, doc)
    metrics = {name: {k: m[k] for k in ("value", "unit", "note") if k in m}
               for name, m in doc[key].items()}
    print(json.dumps({"correct": doc["failed"] == 0,
                      "attempted": doc["attempted"], "failed": doc["failed"],
                      "metrics": metrics}))
    return 0 if doc["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced; the whole document."""
    import numpy

    import probes

    result: Dict[str, Any] = {
        "schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick,
        "host": {"nproc": wl.nproc(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine(),
                 "system": platform.system()},
        "workloads": {}}
    probed: Dict[str, Any] = {}
    for workload in wl.WORKLOADS:
        args.workload = workload
        doc = run_end_to_end(args)
        # the probes do not depend on the workload: run them once
        args.skip_probes = bool(probed)
        traced = run_traced(args)
        probed = probed or {name: m for name, m in traced["per_layer"].items()
                            if name in probes.UNITS}
        doc["per_layer"] = {**traced["per_layer"], **probed}
        doc["attempted"] += traced["attempted"]
        doc["failed"] += traced["failed"]
        doc["failures"] += traced["failures"]
        _print_run(workload, doc)
        result["workloads"][workload] = doc
    result["host"].update({name: probed[name]["value"] for name in
                           ("host.calib_py_ns", "host.calib_memcpy_gbps")})
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"\nwritten {args.json_out}")
    failed = sum(doc["failed"] for doc in result["workloads"].values())
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--json-out", metavar="FILE")
    parser.add_argument("--quick", action="store_true",
                        help="one pass of the smallest cells (a smoke test, "
                             "not a measurement)")
    parser.add_argument("--child", choices=("measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-index", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--skip-probes", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 0.0
    if args.child:
        return child_main(args)
    if not (wl.ROOT / "src" / "repro").is_dir():
        print(f"{wl.ROOT}/src/repro not found: the benchmark measures the "
              "checkout it sits in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.ROOT / "src"))

    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        shutil.rmtree(wl.WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
