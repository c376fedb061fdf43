"""Successive Over-Relaxation benchmark (Table 1).

Red-black SOR on an n×n grid, row-block partitioned, one barrier per
half-sweep. Two variants, matching Figure 2/3's "SOR" and "SOR opt" bars:

* **optimized** (``locality=True``): pages are homed block-wise to match
  the partition, so every rank's writes are home writes and only the
  boundary rows travel — the locality optimization the JiaJia codes carry.
* **unoptimized** (``locality=False``): cyclic page homes, so ~(P-1)/P of
  each rank's writes hit remote-homed pages. The SW-DSM then pays
  fetch+twin+diff on every page every iteration, while the hybrid DSM
  turns the same pattern into pipelined remote writes — the big "SOR"
  advantage in Figure 3.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppResult, compute_cost, once_per_run,
                               reference_once_per_run, row_block,
                               whole_params)
from repro.memory.layout import block, cyclic

__all__ = ["run_sor"]

OMEGA = 1.25


def _sweep(grid: np.ndarray, phase: int, lo: int, hi: int, n: int) -> None:
    """One red-black half-sweep over rows [lo, hi) of ``grid`` in place.

    ``grid`` must carry one halo row above and below the range; rows are
    grid-global indices (1-based interior).

    A half-sweep writes one colour and reads only the other, so the rows
    need no ordering: the rows whose first point is column 1 and those
    whose first point is column 2 are each one strided assignment. The
    per-point expression is associated as it always was, so the result is
    bit-identical to sweeping row by row.
    """
    rows = hi - lo
    for j0 in (1, 2):
        # local index of the first own row whose colour starts at column j0
        r = 1 + ((lo + phase + j0 - 1) % 2)
        own, cols = slice(r, rows + 1, 2), slice(j0, n - 1, 2)
        grid[own, cols] = (1 - OMEGA) * grid[own, cols] + OMEGA * 0.25 * (
            grid[r - 1:rows:2, cols] + grid[r + 1:rows + 2:2, cols]  # up, down
            + grid[own, j0 - 1:n - 2:2] + grid[own, j0 + 1:n:2])  # left, right


def _half_sweep_g(G, phase: int, lo: int, hi: int, n: int):
    """One half-sweep of rows [lo, hi) of the shared grid ``G``: read them
    with their halo rows, sweep, write them back. The private copy dies
    here, before the rank's next yield (docs/performance.md §6)."""
    local = yield from G.get_g((slice(lo - 1, hi + 1), slice(None)))
    _sweep(local, phase, lo, hi, n)
    yield from G.set_g((slice(lo, hi), slice(None)), local[1:-1, :])


def _reference(initial: np.ndarray, iterations: int) -> np.ndarray:
    """Sequential red-black SOR on a copy of ``initial``: the same
    :func:`_sweep` the ranks run, over the whole interior at once. A
    point's update reads only the other colour, so how the rows are
    partitioned cannot change a single bit of the result."""
    grid = initial.copy()
    n = grid.shape[0]
    for _ in range(iterations):
        for phase in (0, 1):
            _sweep(grid, phase, 1, n - 1, n)
    return grid


def run_sor(api, n: int = 1024, iterations: int = 10, locality: bool = True,
            seed: int = 7, verify: bool = True) -> AppResult:
    n, = whole_params("sor", 1, n=n)
    iterations, = whole_params("sor", 0, iterations=iterations)
    rank, n_ranks = yield from api.jia_init()
    dist = block() if locality else cyclic()

    t0 = yield from api.jia_wtime()
    G = yield from api.jia_alloc_array((n, n), np.float64, name="sor.grid",
                                         distribution=dist)
    initial = once_per_run(
        api, ("sor", "input", n, seed),
        lambda: np.random.default_rng(seed).random((n, n)))
    lo, hi = row_block(n - 2, rank, n_ranks)
    lo, hi = lo + 1, hi + 1  # interior rows only
    yield from G.set_g((slice(lo, hi), slice(None)), initial[lo:hi, :])
    if rank == 0:
        yield from G.set_g((0, slice(None)), initial[0, :])
    if rank == n_ranks - 1:
        yield from G.set_g((n - 1, slice(None)), initial[n - 1, :])
    yield from api.jia_barrier()
    t_init = (yield from api.jia_wtime()) - t0

    t1 = yield from api.jia_wtime()
    for _ in range(iterations):
        for phase in (0, 1):
            yield from _half_sweep_g(G, phase, lo, hi, n)
            yield compute_cost(api, 6.0 * (hi - lo) * (n - 2) / 2)
            yield from api.jia_barrier()
    t_comp = (yield from api.jia_wtime()) - t1

    verified = True
    checksum = 0.0
    if verify:
        ref, checksum = reference_once_per_run(
            api, ("sor", "reference", n, seed, iterations),
            lambda: _reference(initial, iterations))
        verified = bool(np.allclose(
            (yield from G.get_g((slice(lo, hi), slice(None)))),
            ref[lo:hi, :], atol=1e-10))
    yield from api.jia_exit()

    name = "sor_opt" if locality else "sor"
    return AppResult(app=name, rank=rank,
                     phases={"init": t_init, "compute": t_comp,
                             "total": t_init + t_comp},
                     verified=verified, checksum=checksum,
                     extra={"n": n, "iterations": iterations,
                            "locality": locality})
