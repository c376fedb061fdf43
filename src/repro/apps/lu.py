"""LU decomposition benchmark (Table 1).

Blocked, row-oriented LU factorization without pivoting (the SPLASH-style
kernel from the JiaJia suite), instrumented into the four measurements the
figures split out:

* **LU all** — total time including initialization,
* **LU** — time without the initialization phase,
* **LU core** — the computational core without synchronization,
* **LU bar** — time spent in barriers.

Row panels of ``block`` rows are dealt cyclically to ranks (home placement
follows ownership). The *initialization is write-only and performed by rank
0 over the whole matrix* — the pattern that is very expensive on a SW-DSM
(every remote page: fault + fetch + twin + diff) but cheap on the hybrid
DSM (streamed remote writes), giving Figure 3's large "LU all" advantage.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.apps.common import (AppResult, compute_cost, once_per_run,
                               reference_once_per_run)
from repro.memory.layout import explicit

__all__ = ["run_lu"]


def _panel_homes(n: int, block_rows: int, page_size: int, n_ranks: int,
                 itemsize: int = 8) -> List[int]:
    """Per-page home list so that row-panel ``k`` is homed on rank
    ``k % n_ranks`` (panels are whole pages for n*itemsize % page == 0)."""
    row_bytes = n * itemsize
    total_pages = (n * row_bytes + page_size - 1) // page_size
    homes = []
    for p in range(total_pages):
        row = (p * page_size) // row_bytes
        panel = row // block_rows
        homes.append(panel % n_ranks)
    return homes


def _reference_lu(a: np.ndarray, block_rows: int) -> np.ndarray:
    """Sequential blocked elimination, structured like the parallel code."""
    m = a.copy()
    n = m.shape[0]
    for k0 in range(0, n, block_rows):
        k1 = min(k0 + block_rows, n)
        # Factor the diagonal panel.
        for k in range(k0, k1):
            m[k + 1:k1, k] /= m[k, k]
            m[k + 1:k1, k + 1:] -= m[k + 1:k1, k, None] * m[k, k + 1:]
        # Update the trailing rows.
        piv = m[k0:k1, :]
        for k in range(k0, k1):
            m[k1:, k] /= piv[k - k0, k]
            m[k1:, k + 1:] -= m[k1:, k, None] * piv[k - k0, k + 1:]
    return m


def run_lu(api, n: int = 1024, block: int = 64, seed: int = 11,
           verify: bool = True) -> AppResult:
    rank, n_ranks = yield from api.jia_init_g()
    page = api.hamster.params.page_size
    homes = _panel_homes(n, block, page, n_ranks)

    t0 = yield from api.jia_wtime_g()
    A = yield from api.jia_alloc_array_g((n, n), np.float64, name="lu.A",
                                         distribution=explicit(homes))
    # Diagonally dominant input keeps no-pivot elimination stable.
    a_full = once_per_run(
        api, ("lu", "input", n, seed),
        lambda: np.random.default_rng(seed).random((n, n)) + np.eye(n) * n)
    if verify:
        reference = reference_once_per_run(
            api, ("lu", "reference", n, seed, block),
            lambda: _reference_lu(a_full, block))

    # ------------------------------------------------ write-only init (rank 0)
    if rank == 0:
        yield from A.set_g((slice(None), slice(None)), a_full)
    yield from api.jia_barrier_g()
    t_init = (yield from api.jia_wtime_g()) - t0

    # --------------------------------------------------------------- factor
    n_panels = (n + block - 1) // block
    t_barrier = 0.0
    t_core = 0.0
    t1 = yield from api.jia_wtime_g()
    for kp in range(n_panels):
        k0, k1 = kp * block, min((kp + 1) * block, n)
        owner = kp % n_ranks
        tc = yield from api.jia_wtime_g()
        if rank == owner:
            panel = yield from A.get_g((slice(k0, k1), slice(None)))
            for k in range(k0, k1):
                i = k - k0
                panel[i + 1:, k] /= panel[i, k]
                panel[i + 1:, k + 1:] -= panel[i + 1:, k, None] * panel[i, k + 1:]
            yield from A.set_g((slice(k0, k1), slice(None)), panel)
            rows = k1 - k0
            yield compute_cost(api, rows * rows * (n - k0))
        t_core += (yield from api.jia_wtime_g()) - tc

        tb = yield from api.jia_wtime_g()
        yield from api.jia_barrier_g()
        t_barrier += (yield from api.jia_wtime_g()) - tb

        tc = yield from api.jia_wtime_g()
        piv = yield from A.get_g((slice(k0, k1), slice(None)))
        # Update the panels this rank owns below the pivot block.
        for mp in range(kp + 1, n_panels):
            if mp % n_ranks != rank:
                continue
            m0, m1 = mp * block, min((mp + 1) * block, n)
            rows = yield from A.get_g((slice(m0, m1), slice(None)))
            for k in range(k0, k1):
                rows[:, k] /= piv[k - k0, k]
                rows[:, k + 1:] -= rows[:, k, None] * piv[k - k0, k + 1:]
            yield from A.set_g((slice(m0, m1), slice(None)), rows)
            yield compute_cost(api, 2.0 * (m1 - m0) * (k1 - k0) * (n - k0))
        t_core += (yield from api.jia_wtime_g()) - tc

        tb = yield from api.jia_wtime_g()
        yield from api.jia_barrier_g()
        t_barrier += (yield from api.jia_wtime_g()) - tb
    t_nominit = (yield from api.jia_wtime_g()) - t1
    t_all = t_init + t_nominit

    # ------------------------------------------------------------ verify
    verified = True
    checksum = 0.0
    if verify:
        ref, checksum = reference.result()
        for mp in range(n_panels):
            if mp % n_ranks != rank:
                continue
            m0, m1 = mp * block, min((mp + 1) * block, n)
            mine = yield from A.get_g((slice(m0, m1), slice(None)))
            if not np.allclose(mine, ref[m0:m1, :], atol=1e-6):
                verified = False
                break
    yield from api.jia_exit_g()

    return AppResult(app="lu", rank=rank,
                     phases={"all": t_all, "no_init": t_nominit,
                             "core": t_core, "barrier": t_barrier,
                             "init": t_init, "total": t_all},
                     verified=verified, checksum=checksum,
                     extra={"n": n, "block": block})
