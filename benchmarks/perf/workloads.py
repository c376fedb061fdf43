"""The four workloads: what one pass (or shell session) runs and checks.

Three *simulation* workloads run a fixed list of (preset, figure label,
scale) cells in-process through ``repro.bench.runners.run_app_detailed``
— observation off, generator backend, calendar queue, apps verifying
their own result — and one *shell* workload drives the CLI and the sweep
fabric around tiny simulations. Everything here is host time unless a
name says ``virtual``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: checkout root: benchmarks/perf/workloads.py -> parents[2]
ROOT = Path(__file__).resolve().parents[2]
#: scratch space inside the checkout (gitignored, removed after each run)
WORK = Path(__file__).resolve().parent / ".work"

Cell = Tuple[str, str, float]          # (preset, figure label, scale)

#: Why each cell list looks the way it does is argued in README.md; the
#: one-line versions live in BENCHMARK.json.
CELLS: Dict[str, List[Cell]] = {
    "swdsm": [("sw-dsm-4", "SOR", 0.25), ("sw-dsm-4", "SOR opt", 0.25),
              ("sw-dsm-4", "LU all", 0.5), ("sw-dsm-4", "MatMult", 0.25),
              ("sw-dsm-4", "WATER 343", 1.0),
              ("native-jiajia-4", "SOR", 0.25)],
    "hwpaths": [("hybrid-4", "SOR", 0.5), ("hybrid-4", "LU all", 0.5),
                ("hybrid-4", "MatMult", 0.5), ("hybrid-4", "WATER 343", 1.0),
                ("hybrid-2", "SOR", 0.5),
                ("smp-2", "SOR", 0.5), ("smp-2", "LU all", 0.5),
                ("smp-2", "MatMult", 0.5), ("smp-2", "WATER 343", 1.0)],
    "ladder": [("eth-64", "SOR", 0.125), ("eth-256", "PI", 0.05),
               ("eth-1024", "PI", 0.05), ("sci-torus-1024", "PI", 0.05)],
}
SIM_WORKLOADS = tuple(CELLS)
WORKLOADS = SIM_WORKLOADS + ("shell",)

#: --quick shrinks every cell to the smallest working set the figure
#: labels allow, and the ladder to 256 ranks.
QUICK_SCALE = 0.05
QUICK_LADDER = [("eth-64", "PI", 0.05), ("eth-256", "PI", 0.05),
                ("sci-torus-256", "PI", 0.05)]

#: the shell session's sweep: the 42-cell smoke grid
SMOKE_PRESETS = ("smp-2", "sw-dsm-2", "sw-dsm-4", "hybrid-2", "hybrid-4",
                 "native-jiajia-4")
SMOKE_LABELS = ("MatMult", "PI", "SOR opt", "SOR", "LU all", "WATER 288",
                "WATER 343")
SMOKE_SCALE = 0.05
WARM_SWEEPS = 50

#: counters summed over a pass's platforms -> per-layer metric names
_DSM_COUNTERS = {
    "read_faults": "dsm.read_faults", "write_faults": "dsm.write_faults",
    "pages_fetched": "dsm.pages_fetched", "diffs_created": "dsm.diffs_created",
    "diff_bytes": "dsm.diff_bytes",
    "write_notices_received": "dsm.write_notices",
    "barriers": "dsm.barriers", "lock_acquires": "dsm.lock_acquires",
}
COUNTER_NAMES = (["sim.events", "msg.messages", "msg.bytes", "msg.posts",
                  "msg.rpcs", "msg.retries", "dsm.remote_accesses"]
                 + list(_DSM_COUNTERS.values()))


#: The sandbox's execution speed drifts by +-15 % for tens of seconds at a
#: time (a fixed pure-Python loop shows it in wall and CPU time alike),
#: longer than a run, so no median within a run removes it. Every timed
#: region is therefore bracketed by that loop and scaled to a reference
#: speed; on sixty consecutive swdsm passes this cut the spread between
#: six-pass runs from 11.5 % to 2 %. README.md, "Reference speed".
CALIB_ITERS = 200_000
CALIB_REF_NS = 45.0


def calibrate() -> float:
    """Nanoseconds per iteration of a fixed pure-Python loop, right now."""
    x = 0
    t0 = time.perf_counter()
    for i in range(CALIB_ITERS):
        x += i * i
    return (time.perf_counter() - t0) / CALIB_ITERS * 1e9


def _calibration_helper(conn: Any) -> None:
    """Answer each message on ``conn`` with a calibration reading."""
    while conn.recv():
        conn.send(calibrate())


class BusyCalibration:
    """The calibration loop on ``cores`` cores at once (this process and
    ``cores - 1`` helpers), for timing steps that keep that many busy.

    This sandbox's two cores slow each other down (they read as hardware
    threads of one), so a two-worker sweep has to be scaled by readings
    taken with both busy.
    """

    def __init__(self, cores: int) -> None:
        self.cores = cores
        ctx = multiprocessing.get_context("spawn")
        self._helpers = []
        for _ in range(cores - 1):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(target=_calibration_helper, args=(theirs,),
                               daemon=True)
            proc.start()
            self._helpers.append((proc, ours))

    def read(self) -> float:
        for _proc, conn in self._helpers:
            conn.send(True)
        readings = [calibrate()] + [conn.recv() for _p, conn in self._helpers]
        return statistics.mean(readings)

    def close(self) -> None:
        for proc, conn in self._helpers:
            conn.send(False)
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()

    def __enter__(self) -> "BusyCalibration":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, scaled to what they would have been had
    the calibration loop run at ``CALIB_REF_NS`` per iteration."""
    return seconds * CALIB_REF_NS / ((before + after) / 2.0)


def cell_id(cell: Cell) -> str:
    return f"{cell[0]}/{cell[1]}@{cell[2]:g}"


def cells_for(workload: str, quick: bool = False) -> List[Cell]:
    if workload == "shell":
        return [(p, label, SMOKE_SCALE) for p in SMOKE_PRESETS
                for label in SMOKE_LABELS]
    if not quick:
        return CELLS[workload]
    if workload == "ladder":
        return QUICK_LADDER
    return [(p, label, QUICK_SCALE) for p, label, _s in CELLS[workload]]


def pass_order(n: int, seed: int, index: int) -> List[int]:
    """Cell order of pass ``index``: a seeded shuffle, new every pass."""
    order = list(range(n))
    random.Random(seed * 1_000_003 + index).shuffle(order)
    return order


# ------------------------------------------------------------ simulation
def run_cell(cell: Cell, seed: int):
    """Build the platform, run the app, verify. Returns (result, platform).

    ``run_app_detailed`` raises when the app's own verification fails.
    """
    from repro.bench.runners import WORKLOADS as FIGURE_WORKLOADS
    from repro.bench.runners import run_app_detailed
    from repro.config import preset

    preset_name, label, scale = cell
    wl = FIGURE_WORKLOADS[label]
    params = dict(wl.params(scale))
    if wl.app != "pi":               # pi integrates a fixed function
        params["seed"] = seed
    return run_app_detailed(preset(preset_name), wl.app,
                            native=preset_name.startswith("native-"),
                            **params)


def harvest(plat) -> Dict[str, float]:
    """Exact per-layer work counts of one finished platform."""
    out = dict.fromkeys(COUNTER_NAMES, 0)
    out["sim.events"] = plat.engine.events_executed
    if plat.fabric is not None:
        out["msg.messages"] = plat.fabric.messages_sent
        out["msg.bytes"] = plat.fabric.bytes_sent
        out["msg.posts"] = plat.fabric.layer.posts
        out["msg.rpcs"] = plat.fabric.layer.rpcs
        out["msg.retries"] = plat.fabric.layer.retries
    for rank_stats in plat.hamster.query_statistics()["dsm"].values():
        for key, name in _DSM_COUNTERS.items():
            out[name] += rank_stats.get(key, 0)
        out["dsm.remote_accesses"] += (rank_stats.get("remote_reads", 0)
                                       + rank_stats.get("remote_writes", 0))
    return out


class PassResult:
    """One pass over a cell list."""

    def __init__(self) -> None:
        #: wall seconds, as the clock read them
        self.wall_s = 0.0
        #: cell id -> seconds at reference speed (see CALIB_REF_NS)
        self.parts: Dict[str, float] = {}
        #: the calibration readings taken around the cells
        self.calib_ns: List[float] = []
        #: cell id -> (virtual seconds, events, checksum) as exact reprs
        self.signature: Dict[str, Tuple[str, int, str]] = {}
        #: cell id -> virtual seconds
        self.virtual: Dict[str, float] = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.failures: List[str] = []


def run_pass(cells: List[Cell], seed: int, index: int,
             profile: Optional[Any] = None) -> PassResult:
    """Run every cell once, in this pass's seeded order.

    Each cell is timed on its own (build + run + verify) between two
    calibration readings, so harvesting counters and collecting the dead
    platform's cycles between cells is not billed to the next cell.
    ``profile`` (a ``cProfile.Profile``) is enabled around exactly the
    timed region.
    """
    res = PassResult()
    speed = calibrate()
    res.calib_ns.append(speed)
    for i in pass_order(len(cells), seed, index):
        cid = cell_id(cells[i])
        merged = plat = None
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            merged, plat = run_cell(cells[i], seed)
        except Exception as exc:  # a failed cell is a counted failure
            res.failures.append(f"{cid}: {type(exc).__name__}: {exc}")
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - t0
        after = calibrate()
        res.calib_ns.append(after)
        res.wall_s += wall
        res.parts[cid] = at_reference_speed(wall, speed, after)
        speed = after
        if plat is None:
            continue
        total = merged.phases["total"]
        res.signature[cid] = (repr(total), plat.engine.events_executed,
                              repr(merged.checksum))
        res.virtual[cid] = total
        for name, value in harvest(plat).items():
            res.counters[name] += value
        del merged, plat
        gc.collect()
    return res


# ----------------------------------------------------------------- shell
def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:               # not on this platform
        return os.cpu_count() or 1


def smoke_grid(seed: int, index: int):
    """The 42-cell smoke grid with seed-shuffled axis order."""
    from repro.fabric import GridSpec

    rng = random.Random(seed * 1_000_003 + index)
    presets, labels = list(SMOKE_PRESETS), list(SMOKE_LABELS)
    rng.shuffle(presets)
    rng.shuffle(labels)
    return GridSpec(presets=tuple(presets), labels=tuple(labels),
                    scales=(SMOKE_SCALE,), suite="perf-shell")


class SessionResult:
    """One shell session: cold CLI run, cold sweep, warm sweeps."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        #: step -> seconds at reference speed (see CALIB_REF_NS)
        self.parts: Dict[str, float] = {}
        self.calib_ns: List[float] = []
        #: wall seconds of the three steps
        self.cold_run_s = 0.0
        self.sweep_s = 0.0
        self.warm_s: List[float] = []
        self.cells = 0
        self.virtual_s = 0.0
        #: canonical JSON of the cold sweep's records, sorted by cell id
        self.signature = ""
        self.failures: List[str] = []

    def step(self, name: str, wall: float, before: float, after: float) -> None:
        """Book ``wall`` seconds measured between two calibration readings."""
        self.parts[name] = at_reference_speed(wall, before, after)
        self.calib_ns += [before, after]
        self.wall_s += wall


def _sorted_canonical(records) -> str:
    from repro.fabric import canonical_records_json

    return canonical_records_json(sorted(records, key=lambda r: r["id"]))


def sweep_workers() -> int:
    return min(2, nproc())


def run_session(seed: int, index: int, busy: BusyCalibration,
                warm_sweeps: int = WARM_SWEEPS) -> SessionResult:
    """One session; the sweeps use ``busy.cores`` workers."""
    from repro.fabric import ResultCache, run_sweep

    res = SessionResult()
    workers = busy.cores
    spec = smoke_grid(seed, index)
    cache_dir = WORK / f"cache-{os.getpid()}-{index}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        # (a) what a `repro run` user waits for: exec to verified result
        cmd = [sys.executable, "-m", "repro", "run", "--preset",
               "sw-dsm-4", "--app", "sor", "--param", "n=48",
               "--param", f"seed={seed}"]
        before = calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=120)
        res.cold_run_s = time.perf_counter() - t0
        res.step("cli cold run", res.cold_run_s, before, calibrate())
        if proc.returncode != 0 or "verified : True" not in proc.stdout:
            res.failures.append(
                f"cli run: exit {proc.returncode}: "
                f"{(proc.stderr or proc.stdout).strip()[-200:]}")

        # (b) cold sweep into an empty cache: worker spawn, simulation,
        # cache writes
        cache = ResultCache(str(cache_dir))
        before = busy.read()
        t0 = time.perf_counter()
        cold = run_sweep(spec, workers=workers, cache=cache)
        res.sweep_s = time.perf_counter() - t0
        res.step("cold sweep", res.sweep_s, before, busy.read())
        res.cells = len(cold.manifest.cells)
        counts = cold.manifest.counts()
        if (cold.status != "complete" or counts.get("miss", 0) != res.cells
                or not all(r["verified"] for r in cold.records)):
            res.failures.append(
                f"cold sweep: status {cold.status}, {counts}")
        res.signature = _sorted_canonical(cold.records)
        res.virtual_s = sum(r["virtual_seconds"] for r in cold.records)

        # (c) the same sweep against the now-warm cache: cache reads
        before = calibrate()
        for _ in range(warm_sweeps):
            t0 = time.perf_counter()
            warm = run_sweep(spec, workers=workers, cache=cache)
            res.warm_s.append(time.perf_counter() - t0)
            if (warm.manifest.counts().get("hit", 0) != res.cells
                    or _sorted_canonical(warm.records) != res.signature):
                res.failures.append("warm sweep: not all hits, or "
                                    "records differ from the cold sweep's")
        res.step("warm sweeps", sum(res.warm_s), before, calibrate())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return res
