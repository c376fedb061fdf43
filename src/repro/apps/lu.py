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
                               reference_once_per_run, whole_params)
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
    """Sequential blocked elimination, structured like the parallel code
    and built from the same two kernels."""
    m = a.copy()
    n = m.shape[0]
    for k0 in range(0, n, block_rows):
        k1 = min(k0 + block_rows, n)
        _factor(m[k0:k1, :], k0)
        _eliminate(m[k1:, :], m[k0:k1, :], k0, k1)
    return m


def _factor(panel: np.ndarray, k0: int) -> None:
    """Factor the diagonal panel ``panel`` (rows [k0, k0 + len(panel)) of
    the matrix, every column) in place: L below its diagonal block's
    diagonal, U on and to the right of it.

    Only the square diagonal block is factored row by row; the columns
    right of it then solve ``L · U = panel[:, k1:]`` for U in one call."""
    b = panel.shape[0]
    k1 = k0 + b
    for i in range(b):
        k = k0 + i
        panel[i + 1:, k] /= panel[i, k]
        panel[i + 1:, k + 1:k1] -= panel[i + 1:, k, None] * panel[i, k + 1:k1]
    panel[:, k1:] = np.linalg.solve(np.tril(panel[:, k0:k1], -1) + np.eye(b),
                                    panel[:, k1:])


def _eliminate(rows: np.ndarray, piv: np.ndarray, k0: int, k1: int) -> None:
    """Eliminate the factored pivot rows ``piv`` (rows [k0, k1) of the
    matrix, every column) from ``rows`` in place.

    The panel's columns solve ``L · U = rows[:, k0:k1]`` for L, U being the
    pivot block's upper triangle; the trailing columns then lose ``L @
    piv[:, k1:]`` in one GEMM. This is the rank-1 loop over the pivot rows
    regrouped, so it rounds differently (``tests/test_apps.py`` holds it to
    that loop); every write lands on a page its writer homes
    (:func:`_panel_homes`), so no diff, and no simulated field, sees it."""
    u = np.triu(piv[:, k0:k1])
    rows[:, k0:k1] = np.linalg.solve(u.T, rows[:, k0:k1].T).T
    rows[:, k1:] -= rows[:, k0:k1] @ piv[:, k1:]


def _factor_g(A, k0: int, k1: int):
    """Factor the diagonal panel, rows [k0, k1) of the shared ``A``,
    through a private copy that dies here, before the rank's next yield
    (docs/performance.md §6)."""
    panel = yield from A.get_g((slice(k0, k1), slice(None)))
    _factor(panel, k0)
    yield from A.set_g((slice(k0, k1), slice(None)), panel)


def _eliminate_g(A, piv: np.ndarray, k0: int, k1: int, m0: int, m1: int):
    """Eliminate the pivot rows ``piv`` (rows [k0, k1)) from rows [m0, m1)
    of the shared ``A``, through a private copy that dies here."""
    rows = yield from A.get_g((slice(m0, m1), slice(None)))
    _eliminate(rows, piv, k0, k1)
    yield from A.set_g((slice(m0, m1), slice(None)), rows)


def _flops(n: int, block_rows: int) -> float:
    """What the ranks charge in all: each panel's factorisation plus its
    update of every row below it."""
    total = 0.0
    for k0 in range(0, n, block_rows):
        rows = min(block_rows, n - k0)
        total += (rows * rows + 2.0 * rows * (n - k0 - rows)) * (n - k0)
    return total


def run_lu(api, n: int = 1024, block: int = 64, seed: int = 11,
           verify: bool = True) -> AppResult:
    """Factor an ``n`` × ``n`` matrix in row panels of ``block`` rows.

    An ``n`` or ``block`` that is not a whole number >= 1 raises
    :class:`ConfigurationError` before anything is allocated. ``block >=
    n`` is a legal one-panel run: rank 0 factors the whole matrix and
    nothing is eliminated."""
    n, block = whole_params("lu", 1, n=n, block=block)
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
            lambda: _reference_lu(a_full, block), flops=_flops(n, block))

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
            yield from _factor_g(A, k0, k1)
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
            yield from _eliminate_g(A, piv, k0, k1, m0, m1)
            yield compute_cost(api, 2.0 * (m1 - m0) * (k1 - k0) * (n - k0))
        del piv  # every rank has a copy: none is held into the barrier
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
            if not np.allclose((yield from A.get_g((slice(m0, m1), slice(None)))),
                               ref[m0:m1, :], atol=1e-6):
                verified = False
                break
    yield from api.jia_exit_g()

    return AppResult(app="lu", rank=rank,
                     phases={"all": t_all, "no_init": t_nominit,
                             "core": t_core, "barrier": t_barrier,
                             "init": t_init, "total": t_all},
                     verified=verified, checksum=checksum,
                     extra={"n": n, "block": block})
