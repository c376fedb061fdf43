"""Per-layer probes: timed calls into one layer's public functions.

Each probe runs a fixed number of operations on a minimal 2-4 node
platform and reports the median of ``REPEATS`` repeats, as host time per
operation. They are diagnostics: no probe gates a change, and what a
probe costs matters only through the share its layer has of an
end-to-end metric (README.md has the table).

A probe whose entry point no longer exists reports ``None`` with the
exception as its note rather than failing the benchmark, and blocking
operations are looked up as ``<name>_g`` first and ``<name>`` second, so
the probes keep working when the ``_g`` suffix is dropped.
"""

from __future__ import annotations

import inspect
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import (ROOT, WORK, BusyCalibration, calibrate, child_env,
                       nproc, run_cell, run_pass, run_session, sweep_workers)

REPEATS = 5
now = time.perf_counter


def kernel(obj: Any, name: str) -> Callable:
    """The generator form of ``obj.<name>``: ``<name>_g`` today, plain
    ``<name>`` once each operation has one name."""
    fn = getattr(obj, name + "_g", None)
    return fn if fn is not None else getattr(obj, name)


def _spawn(engine, body: Callable, n: int = 1) -> None:
    from repro.sim.process import SimProcess

    for i in range(n):
        SimProcess(engine, body, name=f"probe{i}").start()


def _run_timed(engine) -> float:
    t0 = now()
    engine.run()
    return now() - t0


def _spmd(preset_name: str, main: Callable) -> Any:
    """Run generator ``main(env)`` on every rank of a fresh platform."""
    from repro.config import preset

    plat = preset(preset_name).build()
    plat.hamster.run_spmd(main)
    return plat


# -------------------------------------------------------------------- sim
def sim_eventq_push_pop_ns() -> float:
    from repro.sim.eventq import make_queue

    pending, ops = 10_000, 20_000
    rng = random.Random(1)
    q = make_queue("calendar")
    for seq in range(pending):
        q.push(rng.random() * 1e-2, seq, None)
    deltas = [rng.random() * 1e-3 for _ in range(ops)]
    seq = pending
    t0 = now()
    for delta in deltas:
        when, _seq, action = q.pop()
        q.push(when + delta, seq, action)
        seq += 1
    return (now() - t0) / ops * 1e9


def sim_engine_callback_ns() -> float:
    from repro.sim.engine import Engine

    n = 20_000
    engine = Engine()
    left = [n]

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            engine.schedule(1e-6, tick)

    engine.schedule(0.0, tick)
    return _run_timed(engine) / n * 1e9


def sim_process_resume_ns() -> float:
    from repro.sim.engine import Engine

    procs, holds = 64, 300
    engine = Engine()

    def body(proc):
        for _ in range(holds):
            yield 1e-6

    _spawn(engine, body, procs)
    return _run_timed(engine) / (procs * holds) * 1e9


def sim_lock_handoff_ns() -> float:
    from repro.sim.engine import Engine
    from repro.sim.resources import SimLock

    procs, rounds = 4, 2_000
    engine = Engine()
    lock = SimLock(engine)
    acquire = kernel(lock, "acquire")

    def body(proc):
        for _ in range(rounds):
            yield from acquire()
            yield 1e-7
            lock.release()

    _spawn(engine, body, procs)
    return _run_timed(engine) / (procs * rounds) * 1e9


def sim_barrier_ns_per_rank() -> float:
    from repro.sim.engine import Engine
    from repro.sim.resources import SimBarrier

    ranks, rounds = 256, 40
    engine = Engine()
    barrier = SimBarrier(engine, ranks)
    wait = kernel(barrier, "wait")

    def body(proc):
        for _ in range(rounds):
            yield from wait()

    _spawn(engine, body, ranks)
    return _run_timed(engine) / (ranks * rounds) * 1e9


# ---------------------------------------------------------------- machine
def machine_eth_send_ns() -> float:
    from repro.machine.cluster import Cluster
    from repro.machine.interconnect import Message
    from repro.sim.engine import Engine

    n = 10_000
    engine = Engine()
    net = Cluster.beowulf(engine, 2).network
    net.register_delivery(1, lambda msg: None)
    t0 = now()
    for _ in range(n):
        net.send(Message(src=0, dst=1, kind="probe", size=64))
    engine.run()
    return (now() - t0) / n * 1e9


def machine_sci_txn_ns() -> float:
    from repro.machine.cluster import Cluster
    from repro.sim.engine import Engine

    n = 5_000
    engine = Engine()
    sci = Cluster.sci_cluster(engine, 4).sci
    write, read = kernel(sci, "remote_write"), kernel(sci, "remote_read")

    def body(proc):
        for _ in range(n):
            yield from write(64, src=0, dst=1)
            yield from read(64, src=0, dst=1)

    _spawn(engine, body)
    return _run_timed(engine) / (2 * n) * 1e9


# ----------------------------------------------------------------- memory
def memory_pagetable_span_walk_ns() -> float:
    from repro.memory.page import PageState, PageTable

    pages, walks = 1_000, 300
    table = PageTable()
    for page in range(pages):
        table.set_state(page, PageState.READ_WRITE)
    spans = [(0, pages - 1)]
    t0 = now()
    for _ in range(walks):
        if table.faulting_in_spans(spans, False):
            raise AssertionError("fully mapped span reported faults")
    return (now() - t0) / walks * 1e9


_ROWS, _COLS = 256, 512          # one 4 KiB page per float64 row


def _smp_rows() -> Tuple[float, float]:
    """(SharedArray row get+set, bare DSM access) host µs per op on smp-2."""
    out: Dict[str, float] = {}

    def main(env):
        arr = yield from kernel(env, "alloc_array")((_ROWS, _COLS), name="probe")
        if env.rank != 0:           # the allocation is collective
            return
        get, put = kernel(arr, "get"), kernel(arr, "set")
        t0 = now()
        for i in range(_ROWS):
            row = yield from get((i, slice(None)))
            yield from put((i, slice(None)), row)
        out["array"] = (now() - t0) / (2 * _ROWS)
        access = kernel(env.hamster.dsm, "access_runs")
        row_bytes = _COLS * 8
        t0 = now()
        for i in range(_ROWS):
            yield from access(arr.region, [(i * row_bytes, row_bytes)], False)
            yield from access(arr.region, [(i * row_bytes, row_bytes)], True)
        out["dsm"] = (now() - t0) / (2 * _ROWS)

    _spmd("smp-2", main)
    return out["array"] * 1e6, out["dsm"] * 1e6


def memory_sharedarray_row_rw_us() -> float:
    return _smp_rows()[0]


def dsm_smp_access_host_us() -> float:
    return _smp_rows()[1]


# -------------------------------------------------------------------- msg
def _am(op: str, reply: bool) -> float:
    from repro.config import preset
    from repro.msg.active_messages import Reply

    n = 2_000
    plat = preset("sw-dsm-2").build()
    channel = plat.fabric.channel("perfprobe")
    channel.register(1, "null", (lambda msg: Reply()) if reply
                     else (lambda msg: None))
    send = kernel(channel, op)

    def body(proc):
        for _ in range(n):
            yield from send(0, 1, "null")

    _spawn(plat.engine, body)
    return _run_timed(plat.engine) / n * 1e6


def msg_rpc_host_us() -> float:
    return _am("rpc", reply=True)


def msg_post_host_us() -> float:
    return _am("post", reply=False)


# -------------------------------------------------------------------- dsm
def _remote_rows(preset_name: str, write_first: bool) -> Dict[str, Any]:
    """Rank 1 touches ``_ROWS`` pages homed on rank 0, one row at a time,
    then meets rank 0 at a barrier. Returns host seconds of the access
    loop and of the barrier (the release flush), plus rank 1's stats."""
    from repro.memory.layout import single_home

    out: Dict[str, Any] = {}

    def main(env):
        arr = yield from kernel(env, "alloc_array")(
            (_ROWS, _COLS), name="probe", distribution=single_home(0))
        if env.rank == 1:
            get, put = kernel(arr, "get"), kernel(arr, "set")
            t0 = now()
            for i in range(_ROWS):
                if write_first:
                    yield from put((i, slice(None)), 1.0)
                else:
                    yield from get((i, slice(None)))
            out["access_s"] = now() - t0
        t0 = now()
        yield from kernel(env, "barrier")()
        if env.rank == 1:
            out["barrier_s"] = now() - t0

    plat = _spmd(preset_name, main)
    out["stats"] = plat.dsm.stats(1)
    return out


def _per(seconds: float, count: int, what: str) -> float:
    if count <= 0:
        raise AssertionError(f"probe program caused no {what}")
    return seconds / count * 1e6


def dsm_jiajia_read_fault_host_us() -> float:
    out = _remote_rows("sw-dsm-2", write_first=False)
    return _per(out["access_s"], out["stats"]["read_faults"], "read faults")


def dsm_jiajia_release_flush_host_us_per_page() -> float:
    out = _remote_rows("sw-dsm-2", write_first=True)
    return _per(out["barrier_s"], out["stats"]["diffs_created"], "diffs")


def dsm_scivm_remote_access_host_us() -> float:
    out = _remote_rows("hybrid-2", write_first=False)
    stats = out["stats"]
    return _per(out["access_s"],
                stats["remote_reads"] + stats["remote_writes"],
                "remote accesses")


def dsm_jiajia_lock_pair_host_us() -> float:
    pairs = 300
    out: Dict[str, float] = {}

    def main(env):
        if env.rank == 1:        # lock 0 is managed by node 0: remote
            lock, unlock = kernel(env, "lock"), kernel(env, "unlock")
            t0 = now()
            for _ in range(pairs):
                yield from lock(0)
                yield from unlock(0)
            out["s"] = now() - t0
        yield from kernel(env, "barrier")()

    _spmd("sw-dsm-2", main)
    return out["s"] / pairs * 1e6


def dsm_jiajia_barrier_host_us_per_rank() -> float:
    rounds, ranks = 100, 4
    out: Dict[str, float] = {}

    def main(env):
        barrier = kernel(env, "barrier")
        t0 = now()
        for _ in range(rounds):
            yield from barrier()
        if env.rank == 0:
            out["s"] = now() - t0

    _spmd("sw-dsm-4", main)
    return out["s"] / (rounds * ranks) * 1e6


# ------------------------------------------------------------------- core
def _core_shims() -> Tuple[float, float]:
    """(sync, memory) shim ns: the core service minus the direct DSM call,
    on smp-2 where the DSM call itself is cheapest."""
    n = 2_000
    out: Dict[str, float] = {}

    def main(env):
        if env.rank != 0:
            return
        h = env.hamster
        for tag, obj in (("svc", h.sync), ("dsm", h.dsm)):
            lock, unlock = kernel(obj, "lock"), kernel(obj, "unlock")
            t0 = now()
            for _ in range(n):
                yield from lock(0)
                yield from unlock(0)
            out[f"sync.{tag}"] = now() - t0
        alloc, free = kernel(h.memory, "alloc_array"), kernel(h.memory, "free")
        t0 = now()
        for _ in range(n):
            arr = yield from alloc((16,), name="probe")
            yield from free(arr)
        out["mem.svc"] = now() - t0
        t0 = now()
        for _ in range(n):
            arr = h.dsm.make_array((16,), name="probe")
            h.dsm.free(arr.region)
        out["mem.dsm"] = now() - t0

    _spmd("smp-2", main)
    return ((out["sync.svc"] - out["sync.dsm"]) / n * 1e9,
            (out["mem.svc"] - out["mem.dsm"]) / n * 1e9)


def core_sync_shim_ns() -> float:
    return _core_shims()[0]


def core_memory_shim_ns() -> float:
    return _core_shims()[1]


# ----------------------------------------------------------------- models
_N = 16     # the kernel of tests/test_cross_model_equivalence.py


class _Ops:
    """Calls one model's API by base name, in whichever form it has.

    A model whose operations are generator functions (or have ``*_g``
    kernels) runs the kernel stackless; a model with only blocking calls
    runs the same kernel on its thread backend, where no call yields.
    """

    def __init__(self, model: Any, witness: str) -> None:
        self.model = model
        self.calls = 0
        self.stackless = (hasattr(model, witness + "_g")
                          or inspect.isgeneratorfunction(getattr(model, witness)))

    def invoke(self, obj: Any, op: str, /, *args: Any, **kw: Any):
        fn = kernel(obj, op) if self.stackless else getattr(obj, op)
        result = fn(*args, **kw)
        if inspect.isgenerator(result):
            result = yield from result
        return result

    def call(self, op: str, /, *args: Any, **kw: Any):
        """One API call of the model (counted)."""
        self.calls += 1
        return (yield from self.invoke(self.model, op, *args, **kw))

    def write(self, arr: Any, index: Any, value: Any):
        if self.stackless:
            yield from kernel(arr, "set")(index, value)
        else:
            arr[index] = value

    def read(self, arr: Any, index: Any):
        if self.stackless:
            return (yield from kernel(arr, "get")(index))
        return arr[index]

    def entry(self, body: Callable) -> Callable:
        """``body`` (a generator function) in the form the model runs."""
        if self.stackless:
            return body

        def plain(*args: Any) -> Any:
            gen = body(*args)
            try:
                next(gen)
            except StopIteration as stop:
                return stop.value
            raise AssertionError("blocking API call yielded")

        return plain


def _block_sum(o: _Ops, pid: int, nprocs: int, A: Any, total: Any,
               barrier: Tuple, lock: Tuple, unlock: Tuple):
    """Slice write, barrier, lock-guarded sum, barrier, read-all."""
    rows = _N // nprocs
    mine = (slice(pid * rows, (pid + 1) * rows), slice(None))
    yield from o.write(A, mine, float(pid + 1))
    yield from o.call(*barrier)
    yield from o.call(*lock)
    part = yield from o.read(A, mine)
    acc = yield from o.read(total, 0)
    yield from o.write(total, 0, float(acc) + float(part.sum()))
    yield from o.call(*unlock)
    yield from o.call(*barrier)
    return float((yield from o.read(total, 0)))


def _expected(nprocs: int) -> float:
    rows = _N // nprocs
    return float(sum((r + 1) * rows * _N for r in range(nprocs)))


def _k_spmd(o: _Ops):
    def main(m):
        pid = yield from o.call("spmd_init")
        n = yield from o.call("spmd_num_procs")
        A = yield from o.call("spmd_alloc_array", (_N, _N), name="A")
        t = yield from o.call("spmd_alloc_array", (1,), name="t")
        value = yield from _block_sum(o, pid, n, A, t, ("spmd_barrier",),
                                      ("spmd_lock", 0), ("spmd_unlock", 0))
        yield from o.call("spmd_exit")
        return value
    return main


def _k_jiajia(o: _Ops):
    def main(a):
        pid, n = yield from o.call("jia_init")
        A = yield from o.call("jia_alloc_array", (_N, _N), name="A")
        t = yield from o.call("jia_alloc_array", (1,), name="t")
        value = yield from _block_sum(o, pid, n, A, t, ("jia_barrier",),
                                      ("jia_lock", 0), ("jia_unlock", 0))
        yield from o.call("jia_exit")
        return value
    return main


def _k_treadmarks(o: _Ops):
    def main(tm):
        yield from o.call("Tmk_startup")
        pid = yield from o.call("Tmk_proc_id")
        n = yield from o.call("Tmk_nprocs")
        if pid == 0:
            A = yield from o.call("Tmk_malloc_array", (_N, _N), name="A")
            t = yield from o.call("Tmk_malloc_array", (1,), name="t")
            A = yield from o.call("Tmk_distribute", "A", A)
            t = yield from o.call("Tmk_distribute", "t", t)
        else:
            A = yield from o.call("Tmk_distribute", "A")
            t = yield from o.call("Tmk_distribute", "t")
        value = yield from _block_sum(
            o, pid, n, A, t, ("Tmk_barrier",), ("Tmk_lock_acquire", 0),
            ("Tmk_lock_release", 0))
        yield from o.call("Tmk_exit")
        return value
    return main


def _k_hlrc(o: _Ops):
    def main(h):
        pid = yield from o.call("hlrc_init")
        n = yield from o.call("hlrc_num_procs")
        A = yield from o.call("hlrc_malloc_array", (_N, _N), name="A")
        t = yield from o.call("hlrc_malloc_array", (1,), name="t")
        value = yield from _block_sum(o, pid, n, A, t, ("hlrc_barrier",),
                                      ("hlrc_lock", 0), ("hlrc_unlock", 0))
        yield from o.call("hlrc_exit")
        return value
    return main


def _k_anl(o: _Ops):
    def main(a):
        yield from o.call("MAIN_INITENV")
        pid, n = a.hamster.task.my_rank(), a.hamster.task.n_tasks()
        A = yield from o.call("G_MALLOC_ARRAY", (_N, _N), name="A")
        t = yield from o.call("G_MALLOC_ARRAY", (1,), name="t")
        value = yield from _block_sum(o, pid, n, A, t, ("BARRIER",),
                                      ("LOCK", 0), ("UNLOCK", 0))
        yield from o.call("MAIN_END")
        return value
    return main


def _k_shmem(o: _Ops):
    def main(s):
        yield from o.call("start_pes", 0)
        me = yield from o.call("shmem_my_pe")
        n = yield from o.call("shmem_n_pes")
        rows = _N // n
        block = yield from o.call("shmem_malloc", (rows, _N), name="block")
        part = yield from o.call("shmem_malloc", (1,), name="partial")
        block.write(me, (slice(0, rows), slice(0, _N)), float(me + 1))
        part.write(me, 0, float((me + 1) * rows * _N))
        yield from o.call("shmem_quiet")
        yield from o.call("shmem_barrier_all")
        total = yield from o.call("shmem_double_sum_to_all", part, 0)
        yield from o.call("shmem_finalize")
        return float(total)
    return main


def _thread_kernel(o: _Ops, create: str, join: str, sync: Callable):
    """Main thread allocates (thread models have no allocation call of
    their own), starts one worker per rank, joins them."""
    def main(api):
        n = api.hamster.n_ranks
        memory = api.hamster.memory
        A = yield from o.invoke(memory, "alloc_array", (_N, _N), name="A")
        t = yield from o.invoke(memory, "alloc_array", (1,), name="t")
        barrier, lock, unlock = yield from sync(n)

        def worker(pid):
            return (yield from _block_sum(o, pid, n, A, t, barrier, lock,
                                          unlock))

        handles = []
        for pid in range(n):
            handles.append((yield from o.call(create, o.entry(worker), pid)))
        for handle in handles:
            yield from o.call(join, handle)
        return float((yield from o.read(t, 0)))
    return main


def _k_pthreads(o: _Ops):
    def sync(n):
        bar = yield from o.call("pthread_barrier_init", n)
        mutex = yield from o.call("pthread_mutex_init")
        return (("pthread_barrier_wait", bar), ("pthread_mutex_lock", mutex),
                ("pthread_mutex_unlock", mutex))

    return _thread_kernel(o, "pthread_create", "pthread_join", sync)


def _k_win32(o: _Ops):
    def sync(n):
        cs = yield from o.call("InitializeCriticalSection")
        # Win32 has no barrier object: the workers only need mutual
        # exclusion for the sum, and the join is the barrier.
        return (("GetCurrentThreadId",), ("EnterCriticalSection", cs),
                ("LeaveCriticalSection", cs))

    return _thread_kernel(o, "CreateThread", "WaitForSingleObject", sync)


#: model -> (module, class, witness op, kernel factory, preset)
_MODELS: Dict[str, Tuple[str, str, str, Callable, str]] = {
    "spmd": ("spmd", "SpmdModel", "spmd_barrier", _k_spmd, "sw-dsm-4"),
    "smp_spmd": ("smp_spmd", "SmpSpmdModel", "spmd_barrier", _k_spmd, "smp-2"),
    "anl": ("anl", "AnlMacros", "BARRIER", _k_anl, "sw-dsm-4"),
    "treadmarks": ("treadmarks", "TreadMarksApi", "Tmk_barrier",
                   _k_treadmarks, "sw-dsm-4"),
    "hlrc": ("hlrc", "HlrcApi", "hlrc_barrier", _k_hlrc, "sw-dsm-4"),
    "jiajia_api": ("jiajia_api", "JiaJiaApi", "jia_barrier", _k_jiajia,
                   "sw-dsm-4"),
    "pthreads": ("pthreads", "PosixThreadsApi", "pthread_mutex_lock",
                 _k_pthreads, "sw-dsm-4"),
    "win32": ("win32", "Win32ThreadsApi", "EnterCriticalSection", _k_win32,
              "sw-dsm-4"),
    "shmem": ("shmem", "ShmemApi", "shmem_barrier_all", _k_shmem, "sw-dsm-4"),
    "native_jiajia": ("native_jiajia", "NativeJiaJiaApi", "jia_barrier",
                      _k_jiajia, "native-jiajia-4"),
}
MODEL_NAMES = tuple(_MODELS)


def model_call_cost(name: str) -> Tuple[float, float]:
    """(host µs, virtual µs) per API call of the model's canonical kernel.

    Host: wall time of ``model.run(kernel)`` over all API calls made.
    Virtual: the kernel's simulated duration over the API calls one task
    makes — exact, and the same on every machine.
    """
    import importlib

    from repro.config import preset

    module, cls, witness, factory, preset_name = _MODELS[name]
    plat = preset(preset_name).build()
    model = getattr(importlib.import_module(f"repro.models.{module}"), cls)(
        plat.hamster)
    ops = _Ops(model, witness)
    t0 = now()
    result = model.run(ops.entry(factory(ops)))
    host = now() - t0
    value = result[0] if isinstance(result, list) else result
    n = plat.hamster.n_ranks
    if abs(value - _expected(n)) > 1e-9:
        raise AssertionError(f"{name} kernel summed {value}, "
                             f"expected {_expected(n)}")
    return (host / ops.calls * 1e6,
            plat.engine.now / (ops.calls / n) * 1e6)


# -------------------------------------------------------------------- obs
_OBS_CELL = ("sw-dsm-4", "SOR", 0.125)


def _obs_run(**flags: bool) -> Tuple[float, int]:
    from repro.bench.runners import WORKLOADS, run_app_detailed
    from repro.config import preset

    config = preset(_OBS_CELL[0])
    for key, value in flags.items():
        setattr(config, key, value)
    wl = WORKLOADS[_OBS_CELL[1]]
    t0 = now()
    _merged, plat = run_app_detailed(config, wl.app, **wl.params(_OBS_CELL[2]))
    return now() - t0, plat.engine.events_executed


def obs_overheads(repeats: int) -> Dict[str, float]:
    """Observation on ÷ off for one software-DSM SOR, and the events the
    recorders add (none: they are host-side only)."""
    enabled, sharing, extra = [], [], 0
    _obs_run()                                    # warm the cost caches
    for _ in range(repeats):
        off_s, off_events = _obs_run()
        on_s, on_events = _obs_run(observe=True)
        sh_s, sh_events = _obs_run(sharing=True)
        enabled.append(on_s / off_s)
        sharing.append(sh_s / off_s)
        extra = max(extra, abs(on_events - off_events),
                    abs(sh_events - off_events))
    return {"obs.enabled_overhead_ratio": statistics.median(enabled),
            "obs.sharing_overhead_ratio": statistics.median(sharing),
            "obs.disabled_extra_events": float(extra)}


# ----------------------------------------------------------------- fabric
def fabric_costs(repeats: int) -> Dict[str, float]:
    from repro.fabric import GridSpec, ResultCache, SweepJournal, run_sweep

    spec = GridSpec(presets=("sw-dsm-2", "hybrid-2"),
                    labels=("PI", "SOR opt", "WATER 288"), scales=(0.05,),
                    suite="perf-probe")
    direct_cells = [(sc.preset, sc.label, sc.scale) for sc in spec.expand()]
    cells = len(direct_cells)
    samples: Dict[str, List[float]] = {
        k: [] for k in ("cell", "first", "resume", "put", "get", "journal")}
    root = WORK / f"probe-{os.getpid()}"
    try:
        for rep in range(repeats):
            base = root / str(rep)
            t0 = now()
            for cell in direct_cells:
                run_cell(cell, seed=0)
            direct = now() - t0
            journal = str(base / "journal.jsonl")
            cache = ResultCache(str(base / "serial"))
            t0 = now()
            serial = run_sweep(spec, workers=1, cache=cache, journal=journal)
            samples["cell"].append((now() - t0 - direct) / cells * 1e3)
            t0 = now()
            run_sweep(spec, workers=1, cache=cache, journal=journal,
                      resume_from=journal)
            samples["resume"].append(now() - t0)

            first: List[float] = []
            t0 = now()
            run_sweep(spec, workers=min(2, nproc()),
                      cache=ResultCache(str(base / "parallel")),
                      progress=lambda cid, outcome: first.append(now()))
            samples["first"].append(first[0] - t0)

            store = ResultCache(str(base / "store"))
            record = serial.records[0]
            keys = [f"{i:064x}" for i in range(50)]
            t0 = now()
            for key in keys:
                store.put(key, record)
            samples["put"].append((now() - t0) / len(keys) * 1e3)
            t0 = now()
            for key in keys:
                if store.get(key) is None:
                    raise AssertionError("cache lost an entry it just stored")
            samples["get"].append((now() - t0) / len(keys) * 1e3)

            appends = 500
            with SweepJournal(str(base / "wal.jsonl"), header={}) as wal:
                t0 = now()
                for i in range(appends):
                    wal.transition(i, "enqueued")
                samples["journal"].append((now() - t0) / appends * 1e6)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    med = {k: statistics.median(v) for k, v in samples.items()}
    return {"fabric.cell_overhead_ms": med["cell"],
            "fabric.first_result_s": med["first"],
            "fabric.resume_s": med["resume"],
            "fabric.cache_put_ms": med["put"],
            "fabric.cache_get_ms": med["get"],
            "fabric.journal_append_us": med["journal"]}


def shell_parts(repeats: int) -> Dict[str, float]:
    """The three parts of the shell workload's session, per part."""
    with BusyCalibration(sweep_workers()) as busy:
        sessions = [run_session(0, i, busy) for i in range(repeats)]
    failures = [f for s in sessions for f in s.failures]
    if failures:
        raise AssertionError(failures[0])
    med = statistics.median
    return {"cli.cold_run_s": med(s.cold_run_s for s in sessions),
            "fabric.sweep_cells_per_s": med(s.cells / s.sweep_s
                                            for s in sessions),
            "fabric.cache_hit_ms": med(med(s.warm_s) / s.cells * 1e3
                                       for s in sessions)}


def fig2_virtual_overhead(repeats: int) -> Dict[str, float]:
    """Virtual HAMSTER-vs-native overhead on SOR (the paper's Fig. 2 pair);
    simulated time, so exact: one run, whatever ``repeats`` says."""
    pair = [("sw-dsm-4", "SOR", 0.25), ("native-jiajia-4", "SOR", 0.25)]
    res = run_pass(pair, seed=0, index=0)
    if res.failures:
        raise AssertionError(res.failures[0])
    hamster, native = (res.virtual[f"{p}/SOR@0.25"] for p, _l, _s in pair)
    return {"core.fig2_virtual_overhead_pct":
            100.0 * (hamster - native) / native}


# ------------------------------------------------------------ cli, config
def cli_import_s() -> float:
    t0 = now()
    subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=ROOT,
                   env=child_env(), check=True, timeout=120)
    return now() - t0


def cli_parser_build_ms() -> float:
    from repro.cli import build_parser

    t0 = now()
    build_parser()
    return (now() - t0) * 1e3


def _build_ms(preset_name: str) -> float:
    from repro.config import preset

    t0 = now()
    preset(preset_name).build()
    return (now() - t0) * 1e3


def config_build_4_ms() -> float:
    return _build_ms("sw-dsm-4")


def config_build_1024_ms() -> float:
    return _build_ms("eth-1024")


# ------------------------------------------------------------------- host
def host_calib_memcpy_gbps() -> float:
    import numpy as np

    src = np.ones(4 << 20, dtype=np.float64)      # 32 MiB
    dst = np.empty_like(src)
    np.copyto(dst, src)                           # map the pages first
    t0 = now()
    np.copyto(dst, src)
    return src.nbytes / (now() - t0) / 1e9


# ---------------------------------------------------------------- registry
#: (metric name, unit, probe) — one timed value each, median of REPEATS
_SIMPLE: List[Tuple[str, str, Callable[[], float]]] = [
    ("sim.eventq.push_pop_ns", "ns", sim_eventq_push_pop_ns),
    ("sim.engine.callback_ns", "ns", sim_engine_callback_ns),
    ("sim.process.resume_ns", "ns", sim_process_resume_ns),
    ("sim.resources.lock_handoff_ns", "ns", sim_lock_handoff_ns),
    ("sim.resources.barrier_ns_per_rank", "ns", sim_barrier_ns_per_rank),
    ("machine.eth_send_ns", "ns", machine_eth_send_ns),
    ("machine.sci_txn_ns", "ns", machine_sci_txn_ns),
    ("memory.pagetable_span_walk_ns", "ns", memory_pagetable_span_walk_ns),
    ("memory.sharedarray_row_rw_us", "us", memory_sharedarray_row_rw_us),
    ("msg.rpc_host_us", "us", msg_rpc_host_us),
    ("msg.post_host_us", "us", msg_post_host_us),
    ("dsm.jiajia.read_fault_host_us", "us", dsm_jiajia_read_fault_host_us),
    ("dsm.jiajia.release_flush_host_us_per_page", "us",
     dsm_jiajia_release_flush_host_us_per_page),
    ("dsm.jiajia.lock_pair_host_us", "us", dsm_jiajia_lock_pair_host_us),
    ("dsm.jiajia.barrier_host_us_per_rank", "us",
     dsm_jiajia_barrier_host_us_per_rank),
    ("dsm.scivm.remote_access_host_us", "us", dsm_scivm_remote_access_host_us),
    ("dsm.smp.access_host_us", "us", dsm_smp_access_host_us),
    ("core.sync_shim_ns", "ns", core_sync_shim_ns),
    ("core.memory_shim_ns", "ns", core_memory_shim_ns),
    ("cli.import_s", "s", cli_import_s),
    ("cli.parser_build_ms", "ms", cli_parser_build_ms),
    ("config.build_4_ms", "ms", config_build_4_ms),
    ("config.build_1024_ms", "ms", config_build_1024_ms),
    # the loop the end-to-end timings are scaled by
    ("host.calib_py_ns", "ns", calibrate),
    ("host.calib_memcpy_gbps", "GB/s", host_calib_memcpy_gbps),
]

#: probes that produce several metrics from one set of runs
_GROUPS: List[Tuple[Dict[str, str], Callable[[int], Dict[str, float]]]] = [
    ({"obs.enabled_overhead_ratio": "ratio",
      "obs.sharing_overhead_ratio": "ratio",
      "obs.disabled_extra_events": "count"}, obs_overheads),
    ({"fabric.cell_overhead_ms": "ms", "fabric.first_result_s": "s",
      "fabric.resume_s": "s", "fabric.cache_put_ms": "ms",
      "fabric.cache_get_ms": "ms", "fabric.journal_append_us": "us"},
     fabric_costs),
    ({"cli.cold_run_s": "s", "fabric.sweep_cells_per_s": "1/s",
      "fabric.cache_hit_ms": "ms"}, shell_parts),
    ({"core.fig2_virtual_overhead_pct": "%"}, fig2_virtual_overhead),
]

#: every probe metric and its unit, in the order run_probes reports them
UNITS: Dict[str, str] = {name: unit for name, unit, _fn in _SIMPLE}
for _m in MODEL_NAMES:
    UNITS[f"models.{_m}.call_host_us"] = "us"
    UNITS[f"models.{_m}.call_virtual_us"] = "virtual_us"
for _units, _fn in _GROUPS:
    UNITS.update(_units)


def _guard(units: Dict[str, str], fn: Callable[[], Dict[str, float]],
           out: Dict[str, Dict[str, Any]]) -> None:
    """Run one probe; a probe that raises yields nulls with the reason."""
    try:
        values: Dict[str, Optional[float]] = dict(fn())
        note = None
    except Exception as exc:  # the benchmark outlives any one probe
        values = dict.fromkeys(units)
        note = f"{type(exc).__name__}: {exc}"
    for name, unit in units.items():
        out[name] = {"value": values.get(name), "unit": unit}
        if note is not None:
            out[name]["note"] = note


def run_probes(quick: bool = False,
               extra: Optional[List[Tuple[str, str, Callable[[], float]]]] = None
               ) -> Dict[str, Dict[str, Any]]:
    """Every probe metric as ``{name: {"value", "unit"[, "note"]}}``.

    ``extra`` appends (name, unit, probe) entries — the tests use it to
    show that a probe with a missing entry point reports null.
    """
    repeats = 1 if quick else REPEATS
    out: Dict[str, Dict[str, Any]] = {}
    for name, unit, fn in _SIMPLE + list(extra or []):
        _guard({name: unit}, lambda: {name: statistics.median(
            fn() for _ in range(repeats))}, out)
    for model in MODEL_NAMES:
        host, virtual = (f"models.{model}.call_host_us",
                         f"models.{model}.call_virtual_us")

        def model_probe() -> Dict[str, float]:
            runs = [model_call_cost(model) for _ in range(repeats)]
            return {host: statistics.median(r[0] for r in runs),
                    virtual: runs[0][1]}

        _guard({host: UNITS[host], virtual: UNITS[virtual]}, model_probe, out)
    for units, group in _GROUPS:
        _guard(units, lambda: group(repeats), out)
    return out
