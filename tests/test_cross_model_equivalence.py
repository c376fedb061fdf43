"""Cross-model equivalence: the same computation expressed in different
programming models produces identical results on the same platform —
retargetability without semantic drift (§4.4).

The computation: block-fill an n×n matrix, barrier, lock-protected global
reduction — expressed natively in nine APIs. SPMD, SMP/SPMD, TreadMarks,
HLRC and the POSIX and Win32 thread APIs run the kernels of the golden
store's model rows (:mod:`repro.bench.model_kernels`); a thread API's
main thread returns its threads' values, one per rank.
"""

import threading

import numpy as np
import pytest

from repro.bench.model_kernels import KERNELS, N, expected
from repro.config import preset
from repro.models import load_model
from repro.models.anl import AnlMacros
from repro.models.jiajia_api import JiaJiaApi
from repro.models.shmem import ShmemApi


def via_kernel(model):
    """The golden rows' kernel of ``model`` (generator calls, stackless)."""
    name, kernel = KERNELS[model]

    def run(plat):
        return load_model(name)(plat.hamster).run(kernel)

    return run


def via_jiajia(plat):
    api = JiaJiaApi(plat.hamster)

    def main(a):
        pid, hosts = yield from a.jia_init()
        A = yield from a.jia_alloc_array((N, N), name="A")
        total = yield from a.jia_alloc_array((1,), name="t")
        rows = N // hosts
        mine = (slice(pid * rows, (pid + 1) * rows), slice(None))
        yield from A.set_g(mine, float(pid + 1))
        yield from a.jia_barrier()
        yield from a.jia_lock(0)
        acc = float((yield from total.get_g(0)))
        yield from total.set_g(0, acc + float((yield from A.get_g(mine)).sum()))
        yield from a.jia_unlock(0)
        yield from a.jia_barrier()
        value = float((yield from total.get_g(0)))
        yield from a.jia_exit()
        return value

    return api.run(main)


def via_anl(plat):
    api = AnlMacros(plat.hamster)

    def main(a):
        a.MAIN_INITENV()
        pid = a.hamster.task.my_rank()
        nprocs = a.hamster.task.n_tasks()
        A = a.G_MALLOC_ARRAY((N, N), name="A")
        total = a.G_MALLOC_ARRAY((1,), name="t")
        lock = 0
        rows = N // nprocs
        A[pid * rows:(pid + 1) * rows, :] = float(pid + 1)
        a.BARRIER()
        a.LOCK(lock)
        total[0] = float(total[0]) + float(A[pid * rows:(pid + 1) * rows, :].sum())
        a.UNLOCK(lock)
        a.BARRIER()
        value = float(total[0])
        a.MAIN_END()
        return value

    return api.run(main)


def via_shmem(plat):
    api = ShmemApi(plat.hamster)

    def main(s):
        s.start_pes(0)
        me, n_pes = s.shmem_my_pe(), s.shmem_n_pes()
        rows = N // n_pes
        sym = s.shmem_malloc((rows, N), name="block")
        partial = s.shmem_malloc((1,), name="partial")
        sym.write(me, (slice(0, rows), slice(0, N)), float(me + 1))
        partial.write(me, 0, float((me + 1) * rows * N))
        s.shmem_quiet()
        s.shmem_barrier_all()
        total = s.shmem_double_sum_to_all(partial, 0)
        s.shmem_finalize()
        return float(np.asarray(total))

    return api.run(main)


RUNNERS = {
    **{model: via_kernel(model) for model in KERNELS},
    "jiajia": via_jiajia,
    "anl": via_anl,
    "shmem": via_shmem,
}


@pytest.mark.parametrize("platform", ["sw-dsm-4", "hybrid-4", "smp-2"])
@pytest.mark.parametrize("model", sorted(RUNNERS))
def test_every_model_computes_the_same_sum(platform, model):
    plat = preset(platform).build()
    results = RUNNERS[model](plat)
    target = expected(plat.hamster.n_ranks)
    assert all(abs(r - target) < 1e-9 for r in results), (model, results)


@pytest.mark.parametrize("platform", ["sw-dsm-4", "hybrid-4"])
def test_all_models_agree_pairwise(platform):
    values = set()
    for model, runner in RUNNERS.items():
        plat = preset(platform).build()
        values.add(round(runner(plat)[0], 9))
    assert len(values) == 1, values


@pytest.mark.parametrize("model,platform", [
    ("spmd", "sw-dsm-4"), ("smp_spmd", "smp-2"), ("treadmarks", "hybrid-4"),
    ("hlrc", "sw-dsm-4"), ("pthreads", "sw-dsm-4"), ("win32", "sw-dsm-4"),
    ("pthreads", "hybrid-4"), ("win32", "smp-2")])
def test_a_generator_main_runs_stackless(model, platform, monkeypatch):
    """SPMD, SMP/SPMD, TreadMarks, HLRC and the thread APIs' calls are
    generator functions: a generator ``main`` over them starts no backing
    thread, and every process of the run, the message servers, created
    threads and forwarding workers included, is stackless."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    plat = preset(platform).build()
    results = RUNNERS[model](plat)
    assert results == [expected(plat.hamster.n_ranks)] * plat.hamster.n_ranks
    assert started == []
    procs = plat.engine._processes
    assert len(procs) >= plat.hamster.n_ranks
    assert all(p.stackless for p in procs), [p.name for p in procs
                                             if not p.stackless]
