"""The cross-model kernel, once per DSM-API model of Table 2, as the golden
store's ``model/<model>/<preset>`` rows run it (:mod:`repro.bench.diffcheck`).

Each rank block-fills an ``N x N`` shared matrix, meets the others at a
barrier, adds its block into a lock-protected total, meets them again and
reads the total back; then it makes each of its model's other charging
calls once (identity, allocation, consistency, trylock, messaging, timing).
"""

from __future__ import annotations

from repro.memory.layout import first_touch

__all__ = ["N", "KERNELS", "expected"]

#: The matrix edge.
N = 16


def expected(n_ranks: int) -> float:
    """The total every rank reads back."""
    rows = N // n_ranks
    return float(sum((r + 1) * rows * N for r in range(n_ranks)))


def _block_sum(pid, nprocs, A, total, barrier, lock, unlock):
    """Block fill, barrier, lock-protected reduction, barrier, read-back."""
    rows = N // nprocs
    mine = (slice(pid * rows, (pid + 1) * rows), slice(None))
    yield from A.set_g(mine, float(pid + 1))
    yield from barrier()
    yield from lock(0)
    acc = yield from total.get_g(0)
    part = yield from A.get_g(mine)
    yield from total.set_g(0, float(acc) + float(part.sum()))
    yield from unlock(0)
    yield from barrier()
    return float((yield from total.get_g(0)))


def _each(m, *calls):
    """Make each call of ``m`` in turn: a name, or ``(name, *args)``."""
    for call in calls:
        name, *args = (call,) if isinstance(call, str) else call
        yield from getattr(m, name)(*args)


def spmd(m):
    pid = yield from m.spmd_init()
    n = yield from m.spmd_num_procs()
    A = yield from m.spmd_alloc_array((N, N), name="A")
    t = yield from m.spmd_alloc_array((1,), name="t")
    value = yield from _block_sum(pid, n, A, t, m.spmd_barrier, m.spmd_lock,
                                  m.spmd_unlock)
    yield from _each(m, "spmd_proc_id", "spmd_node_id", "spmd_num_nodes")
    region = yield from m.spmd_alloc(4096, name="r")
    if pid == 0:
        yield from m.spmd_free(region)
    lock = yield from m.spmd_newlock()
    if (yield from m.spmd_trylock(lock)):
        yield from m.spmd_unlock(lock)
    yield from _each(m, ("spmd_acquire", 1), ("spmd_release", 1), "spmd_fence",
                     ("spmd_send", (pid + 1) % n, pid), "spmd_recv",
                     "spmd_wtime", "spmd_stats", "spmd_capabilities",
                     "spmd_exit")
    return value


def smp_spmd(m):
    value = yield from spmd(m)
    yield from _each(m, "spmd_local_peers", ("spmd_is_local", 0),
                     "spmd_local_master", "spmd_local_barrier",
                     "spmd_cpus_on_node")
    return value


def treadmarks(m):
    yield from m.Tmk_startup()
    pid = yield from m.Tmk_proc_id()
    n = yield from m.Tmk_nprocs()
    A = t = None                 # rank 0 allocates, then distributes
    if pid == 0:
        A = yield from m.Tmk_malloc_array((N, N), name="A")
        t = yield from m.Tmk_malloc_array((1,), name="t")
    A = yield from m.Tmk_distribute("A", A)
    t = yield from m.Tmk_distribute("t", t)
    value = yield from _block_sum(pid, n, A, t, m.Tmk_barrier,
                                  m.Tmk_lock_acquire, m.Tmk_lock_release)
    region = yield from m.Tmk_malloc(4096, name=f"r{pid}")
    yield from m.Tmk_free(region)
    if (yield from m.Tmk_trylock(1)):
        yield from m.Tmk_lock_release(1)
    yield from _each(m, "Tmk_wtime", "Tmk_exit")
    return value


def hlrc(m):
    pid = yield from m.hlrc_init()
    n = yield from m.hlrc_num_procs()
    A = yield from m.hlrc_malloc_array((N, N), name="A")
    t = yield from m.hlrc_malloc_array((1,), name="t")
    value = yield from _block_sum(pid, n, A, t, m.hlrc_barrier, m.hlrc_lock,
                                  m.hlrc_unlock)
    yield from _each(m, "hlrc_my_pid", "hlrc_my_node", "hlrc_num_nodes")
    region = yield from m.hlrc_malloc(4096)
    if pid == 0:
        yield from m.hlrc_free(region)
    B = yield from m.hlrc_malloc_block((n, 512))
    yield from _each(m, ("hlrc_malloc_cyclic", (n, 512)),
                     ("hlrc_malloc_onhome", (n, 512), n - 1))
    # a first-touch page: on JiaJia its home is asked of its directory
    C = yield from m.hlrc_malloc_array((n, 512), name="C",
                                       distribution=first_touch())
    yield from _each(m, ("hlrc_home_of", B, pid),
                     ("hlrc_home_of", C, (pid + 1) % n), ("hlrc_acquire", 1),
                     ("hlrc_release", 1), "hlrc_flush")
    lock = yield from m.hlrc_newlock()
    if (yield from m.hlrc_trylock(lock)):
        yield from m.hlrc_unlock(lock)
    yield from _each(m, "hlrc_wtime", "hlrc_stats", "hlrc_capabilities",
                     "hlrc_exit")
    return value


#: model key -> (Table 2 row name, kernel)
KERNELS = {
    "spmd": ("SPMD model", spmd),
    "smp_spmd": ("SMP/SPMD model", smp_spmd),
    "treadmarks": ("TreadMarks API", treadmarks),
    "hlrc": ("HLRC API", hlrc),
}
